"""Fuzz of the model-file readers through ``main``.

Small model files, valid or with one fault, run through ``transform
laplace``, ``hawkes simulate`` (4 paths), ``heston charfn``, ``heston
simulate`` (4 paths, 200 steps), ``wishart simulate``, ``wishart
transform`` and ``ou simulate``.  Half of the Heston models have no price
jumps.  A broken file must exit 2 with exactly one line on stderr and
write no output; a valid one must exit 0 with finite output.  A traceback
fails the test, and so does any other exit code.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mvolt.cli import main


def literal(v) -> str:
    """v as a config literal; inf as 1e999, which literal_eval reads back."""
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(map(literal, v)) + "]"
    if isinstance(v, float) and np.isinf(v):
        return "1e999" if v > 0 else "-1e999"
    return repr(v)


def write_config(path: Path, sections: dict) -> str:
    lines = []
    for name, body in sections.items():
        if name:
            lines.append(f"[{name}]")
        lines += [f"{key} = {literal(value)}" for key, value in body.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def psd_stack(rng, m, d, scale):
    a = rng.normal(size=(m, d, d))
    return scale * a @ a.transpose(0, 2, 1) / d


def kernel(rng, k, d):
    return {"nodes": np.cumsum(rng.uniform(0.2, 1.5, k)), "weights": psd_stack(rng, k, d, 0.3),
            "d": d}


# one valid model per command route: {file name: {section: {key: value}}}

def jump_model(rng, k, d):
    return {"model": {"measure": kernel(rng, k, d),
                      "lambda0": {"weights": psd_stack(rng, k, d, 0.5)},
                      "jumps": {"atoms": psd_stack(rng, 2, d, 1.0),
                                "weights": psd_stack(rng, 2, d, 0.3),
                                "epsilon": float(rng.uniform(0.0, 0.1))}},
            "u": {"": {"u": -psd_stack(rng, 1, d, 1.0)[0] - 0.1 * np.eye(d)}}}


def hawkes_preset(rng, k, d):
    measure = kernel(rng, k, d)
    return {"measure": {"": measure},
            "lambda0": {"": {"nodes": measure["nodes"], "weights": psd_stack(rng, k, d, 0.5)}}}


def heston_model(rng, k, d):
    model = {"measure": kernel(rng, k, d),
             "gamma0": {"weights": 0.3 * rng.normal(size=(k, 2, d))},
             "price": {"rho": rng.uniform(-0.5, 0.5, d) / np.sqrt(d),
                       "p0": rng.normal(size=d),
                       "jump_atoms": 0.1 * rng.normal(size=(1, d)),
                       "jump_weights": psd_stack(rng, 1, d, 0.3)}}
    if rng.uniform() < 0.5:  # no price jumps: the simulator draws in chunks
        del model["price"]["jump_atoms"], model["price"]["jump_weights"]
    return {"model": model}


def gaussian_lift(rng, k, d):
    measure = kernel(rng, k, d)
    return {"measure": {"": measure},
            "gamma0": {"": {"nodes": measure["nodes"], "weights": 0.3 * rng.normal(size=(k, 2, d))}}}


def gaussian_transform(rng, k, d):
    return {**gaussian_lift(rng, k, d), "c": {"": {"c": 0.5 * rng.normal(size=(2, d))}}}


# the model and the command line of each route; {name} is the path of file name
ROUTES = {
    "laplace": (jump_model, "transform laplace --model {model} --u {u} --t 0.5 "
                            "--riccati-steps 40"),
    "hawkes-model": (jump_model, "hawkes simulate --model {model} --T 0.5 --paths 4 "
                                 "--out-grid {grid}"),
    "hawkes-preset": (hawkes_preset, "hawkes simulate --measure {measure} --lambda0 {lambda0} "
                                     "--T 0.5 --paths 4 --out-grid {grid}"),
    "heston": (heston_model, "heston charfn --model {model} --v {v} --t 0.5 --riccati-steps 40"),
    # 200 steps span two chunks of a jump-free draw at every k, d <= 2: a
    # chunk holds 1024 // draws steps, 170 at 6 draws (k = d = 1) and 73 at 14
    "heston-simulate": (heston_model, "heston simulate --model {model} --T 0.5 --steps 200 "
                                      "--paths 4"),
    "wishart": (gaussian_lift, "wishart simulate --measure {measure} --gamma0 {gamma0} "
                               "--dt 0.25 --steps 2 --paths 4"),
    "wishart-transform": (gaussian_transform, "wishart transform --measure {measure} "
                                              "--gamma0 {gamma0} --c {c} --times 0.5 --paths 4"),
    "ou": (gaussian_lift, "ou simulate --measure {measure} --gamma0 {gamma0} "
                          "--dt 0.25 --steps 2 --paths 4"),
}

# the entries each route must reject, (file, section, key), and how to break
# them: "inf" sets one entry to inf, "asym" and "nsd" break the first matrix
# of a stack (a PSD check only where the model needs it), "indef" makes the
# node matrices of lambda0 sum to -I/2, not PSD, "k" drops the last
# node's entry, "d" adds a row and a column, "nodes" moves the nodes and
# "missing" deletes the key, or the whole section for key None.  Every key
# is also replaced by the dict literal {1: 2}
JUMP = [("model", "measure", "weights", ("inf", "asym", "nsd", "k", "d")),
        ("model", "measure", "nodes", ("inf", "missing")),
        ("model", "lambda0", "weights", ("inf", "asym", "indef", "k", "d", "missing")),
        ("model", "jumps", "atoms", ("inf", "asym", "nsd", "k", "d")),
        ("model", "jumps", "weights", ("inf", "asym", "nsd")),
        ("model", "measure", None, ("missing",)),
        ("model", "lambda0", None, ("missing",))]
GAUSSIAN = [("measure", "", "weights", ("inf", "asym", "k", "d")),
            ("measure", "", "nodes", ("inf", "missing")),
            ("gamma0", "", "weights", ("inf", "k", "d", "missing")),
            ("gamma0", "", "nodes", ("nodes", "missing"))]
HESTON = [("model", "measure", "weights", ("inf", "asym", "k", "d")),
          ("model", "gamma0", "weights", ("inf", "k", "d", "missing")),
          ("model", "price", "rho", ("inf", "k")),
          ("model", "price", "p0", ("inf", "k")),
          ("model", "price", "jump_atoms", ("inf", "d")),
          ("model", "price", "jump_weights", ("inf", "nsd")),
          ("model", "gamma0", None, ("missing",)),
          ("model", "price", None, ("missing",))]
FAULTS = {
    "laplace": JUMP + [("u", "", "u", ("inf", "d", "missing"))],
    "hawkes-model": JUMP,
    "hawkes-preset": [("measure", "", "weights", ("inf", "asym", "nsd", "k", "d")),
                      ("lambda0", "", "weights", ("inf", "asym", "indef", "k", "d",
                                                  "missing")),
                      ("lambda0", "", "nodes", ("nodes", "missing"))],
    "heston": HESTON,
    "heston-simulate": HESTON,
    "wishart": GAUSSIAN,
    "wishart-transform": GAUSSIAN + [("c", "", "c", ("inf", "d", "missing"))],
    "ou": GAUSSIAN,
}


def break_entry(value, kind, d):
    if kind == "dict":
        return {1: 2}
    a = np.array(value, dtype=float)
    if kind == "inf":
        a.flat[-1] = np.inf
    elif kind == "asym":
        a[0, 0, -1] += 0.5
    elif kind == "nsd":
        a[0] = -0.5 * np.eye(d)
    elif kind == "indef":
        a[0] = -0.5 * np.eye(d) - a[1:].sum(axis=0)
    elif kind == "k":  # one entry short: a node, an atom or a vector entry
        a = a[:-1]
    elif kind == "d":
        a = np.pad(a, [(0, 0)] * (a.ndim - 2) + [(0, 1)] * 2, constant_values=0.1)
    elif kind == "nodes":
        a = a + 100.0
    return a


FAULT_CASES = [(route, (name, section, key, kind))
               for route, targets in FAULTS.items()
               for name, section, key, kinds in targets
               for kind in kinds + (("dict",) if key else ())]


def fault_id(case) -> str:
    route, (name, section, key, kind) = case
    return "-".join([route, name, section or "", key or "section", kind]).replace("--", "-")


def finite_output(path: Path) -> bool:
    text = path.read_text()
    if path.suffix == ".json":
        values, todo = [], [json.loads(text)]
        while todo:
            x = todo.pop()
            if isinstance(x, dict):
                todo += x.values()
            elif isinstance(x, list):
                todo += x
            elif isinstance(x, (int, float)):
                values.append(x)
    else:
        values = [float(cell) for row in text.splitlines()[1:] for cell in row.split(",")]
    return bool(np.all(np.isfinite(values)))


def run(route, d, files) -> tuple[int, list[str], Path, Path]:
    """main on the written files: exit code, stderr lines, --out and --out-grid."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = {name: write_config(tmp / f"{name}.cfg", body) for name, body in files.items()}
        out = tmp / ("out.json" if route in ("laplace", "heston", "wishart-transform")
                     else "out.csv")
        grid = tmp / "grid.csv"
        argv = ROUTES[route][1].format(**paths, grid=grid, v=",".join(["0.7"] * d)).split()
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([*argv, "--out", str(out)])
        outputs = [finite_output(f) if f.exists() else None for f in (out, grid)]
    return rc, err.getvalue().splitlines(), *outputs


models = dict(k=st.integers(1, 2), d=st.integers(1, 2), seed=st.integers(0, 2**16))


@pytest.mark.parametrize("route", sorted(ROUTES))
@settings(max_examples=25)
@given(**models)
def test_valid_model_runs_with_finite_output(route, k, d, seed):
    files = ROUTES[route][0](np.random.default_rng(seed), k, d)
    rc, err, out, grid = run(route, d, files)
    assert rc == 0, err
    assert out is True
    assert grid is (True if route.startswith("hawkes") else None)


@pytest.mark.parametrize("case", FAULT_CASES, ids=map(fault_id, FAULT_CASES))
@settings(max_examples=3)
@given(**models)
def test_broken_model_exits_two_with_one_line(case, k, d, seed):
    route, (name, section, key, kind) = case
    assume(kind != "asym" or d == 2)  # an asymmetry needs an off-diagonal entry
    files = ROUTES[route][0](np.random.default_rng(seed), k, d)
    body = files[name]
    assume(key is None or key in body.get(section, {}))  # a jump-free heston model
    if kind == "missing" and key is None:
        del body[section]
    elif kind == "missing":
        del body[section][key]
    else:
        body[section][key] = break_entry(body[section][key], kind, d)
    rc, err, out, grid = run(route, d, files)
    assert rc == 2, err
    assert len(err) == 1, err
    assert out is None and grid is None
