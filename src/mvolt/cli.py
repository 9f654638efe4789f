"""Command-line interface: kernels, simulators, transforms, validation.

Subcommands
-----------
kernel fit|eval        fit fractional kernels, tabulate kernel values
ou simulate            exact OU lift paths to CSV
wishart simulate       squared-lift paths to CSV
wishart transform      MC vs closed-form transform report (JSON)
hawkes simulate        jump lift event log (+ optional V grid) to CSV
transform laplace      jump-lift Laplace transform, both analytic routes
transform charfn       price characteristic function report
heston simulate|charfn|price
validate               run the named MC-vs-analytic check suite

Exit codes: 0 success, 1 check failure, 2 configuration error, 3 numerical
failure (a transform that blows up or loses its precision, a singular linear
solve, or a Monte Carlo block that fails numerically; the message names the
paths and the seed).
All reports are deterministic for a fixed seed; ``--workers`` never changes
numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import configio
from .configio import ConfigError
from .fractional import FractionalKernelSpec, fit_fractional_measure
from .heston import char_function, fourier_price_call, simulate_heston_terminal, step_times
from .jumps import HawkesPathSimulator, hawkes_jump_spec
from .measures import eval_kernel
from .mc import estimate_mean, run_path_blocks
from .ou import check_lift_inputs, simulate_lift_blocks
from .riccati import laplace_transform_jump
from .validate import CHECKS, run_checks, wishart_transform_points
from .wishart import WishartTransformQuery, simulate_wishart


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _write_path_csv(path: str | None, prefix: str, times, samples) -> None:
    """CSV ``path,t,<prefix>_<index>...``: one row per path and time with the
    sample flattened (1-based indices, e.g. X_12 or P_2); ``samples`` is a
    (paths, len(times), ...) array."""
    n_paths, n_times = samples.shape[:2]
    names = [f"{prefix}_" + "".join(str(i + 1) for i in idx)
             for idx in np.ndindex(samples.shape[2:])]
    values = samples.reshape(n_paths * n_times, len(names))
    columns = [np.repeat(np.arange(n_paths), n_times),
               np.tile(times, n_paths), *values.T]
    _write_text(path, configio.format_csv(["path", "t"] + names, columns))


def _json_default(x):
    """A NumPy scalar or array as its Python value: the hook json.dumps calls
    on what it cannot write itself.  A bool stays a JSON boolean."""
    if isinstance(x, (np.generic, np.ndarray)):
        return x.tolist()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _json_report(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n"


# kernel --------------------------------------------------------------------

def cmd_kernel_fit(args) -> int:
    hurst = configio.float_field(configio.read_sections(args.hurst)[""], "hurst", args.hurst)
    spec = FractionalKernelSpec(hurst, args.tmin, args.tmax, args.nodes)
    fit = fit_fractional_measure(spec, tol=args.tol)
    configio.write_measure(args.out, fit.measure)
    print(f"fitted {args.nodes} nodes, sup relative error {fit.sup_rel_error:.3e}")
    return 0


def cmd_kernel_eval(args) -> int:
    measure = configio.read_measure(args.measure)
    times = configio.parse_float_list(args.times)
    d = measure.d
    header = ["t"] + [f"K_{i + 1}{j + 1}" for i in range(d) for j in range(d)]
    values = np.reshape([eval_kernel(measure, t) for t in times], (-1, d * d))
    _write_text(args.out, configio.format_csv(header, [np.array(times), *values.T]))
    return 0


# ou / wishart ----------------------------------------------------------------

def _simulation_times(dt: float, steps: int) -> np.ndarray:
    if not (dt > 0.0 and steps >= 1):
        raise ConfigError(f"need --dt > 0 and --steps >= 1, got {dt} and {steps}")
    if not np.isfinite(steps * dt):
        raise ConfigError(f"need a finite horizon --steps * --dt, got {steps} * {dt}")
    return np.linspace(dt, steps * dt, steps)


def cmd_ou_simulate(args) -> int:
    measure = configio.read_measure(args.measure)
    # checked before the blocks run, as simulate_wishart does
    gamma0, times = check_lift_inputs(measure, configio.read_node_data(args.gamma0, measure),
                                      _simulation_times(args.dt, args.steps))
    xs = run_path_blocks(partial(simulate_lift_blocks, measure, gamma0, times),
                         args.paths, args.seed, workers=args.workers)
    _write_path_csv(args.out, "X", times, xs)
    return 0


def cmd_wishart_simulate(args) -> int:
    measure = configio.read_measure(args.measure)
    gamma0 = configio.read_node_data(args.gamma0, measure)
    times = _simulation_times(args.dt, args.steps)
    vs = simulate_wishart(measure, gamma0, times, args.paths, args.seed,
                          workers=args.workers)
    _write_path_csv(args.out, "V", times, vs)
    return 0


def cmd_wishart_transform(args) -> int:
    measure = configio.read_measure(args.measure)
    gamma0 = configio.read_node_data(args.gamma0, measure)
    c = configio.float_field(configio.read_sections(args.c)[""], "c", args.c)
    times = configio.parse_float_list(args.times)
    # built first, so a bad c fails before the Monte Carlo
    queries = [WishartTransformQuery(t=t, c=c, gamma0=gamma0) for t in times]
    vs = simulate_wishart(measure, gamma0, times, args.paths, args.seed,
                          workers=args.workers)
    entries = wishart_transform_points(measure, queries, vs)
    _write_text(args.out, _json_report({"entries": entries, "paths": args.paths,
                                        "seed": args.seed}))
    return 0


# hawkes ----------------------------------------------------------------------

def _csv_columns(sim, with_grid: bool, seed: int, start: int, stop: int) -> tuple:
    """The jump log columns of paths [start, stop), and their V grid if asked."""
    block = sim.block(seed, start, stop)
    events = block.jump_paths, block.jump_times, block.jump_atoms, block.intensity_at_jumps
    return (*events, block.v_path) if with_grid else events


def cmd_hawkes_simulate(args) -> int:
    if args.model is not None:
        measure, lam0, spec = configio.read_jump_model(args.model)
    else:
        if args.measure is None or args.lambda0 is None:
            raise ConfigError(
                "hawkes simulate needs either --model or both --measure "
                "and --lambda0"
            )
        measure = configio.read_measure(args.measure)
        lam0 = configio.read_node_data(args.lambda0, measure)
        spec = hawkes_jump_spec(measure.d)
    sim = HawkesPathSimulator(measure, lam0, spec, args.T, args.thinning_dt,
                              grid_steps=args.grid_steps)
    columns = run_path_blocks(partial(_csv_columns, sim, bool(args.out_grid)),
                              args.paths, args.seed, workers=args.workers)
    _write_text(args.out, configio.format_csv(
        ["path", "t", "atom", "intensity_at_jump"], columns[:4]))
    if args.out_grid:
        _write_path_csv(args.out_grid, "V", sim.grid.times, columns[4])
    return 0


# transforms ------------------------------------------------------------------

def cmd_transform_laplace(args) -> int:
    measure, lam0, spec = configio.read_jump_model(args.model)
    u = configio.float_field(configio.read_sections(args.u)[""], "u", args.u)
    times = configio.parse_float_list(args.t)
    if not times:
        raise ConfigError(f"--t must list at least one time, got {args.t!r}")
    results = laplace_transform_jump(u, lam0, measure, spec, times,
                                     n_steps=args.riccati_steps)
    entries = [{"t": t, "lift_value": res.lift_value,
                "volterra_value": res.volterra_value,
                "route_rel_gap": res.discrepancy}
               for t, res in zip(times, results)]
    _write_text(args.out, _json_report({"entries": entries}))
    return 0


def cmd_transform_charfn(args) -> int:
    model = configio.read_heston_model(args.model)
    vs = np.asarray(configio.parse_float_list(args.v), dtype=float)
    if vs.size % model.d:
        raise ConfigError(
            f"--v must list multiples of d={model.d} floats (flattened vectors)"
        )
    vmat = vs.reshape(-1, model.d)
    values = char_function(model, vmat, args.t, n_steps=args.riccati_steps)
    entries = [
        {"v": v.tolist(), "re": float(val.real), "im": float(val.imag),
         "modulus": float(abs(val))}
        for v, val in zip(vmat, np.atleast_1d(values))
    ]
    _write_text(args.out, _json_report({"t": args.t, "entries": entries}))
    return 0


# heston ----------------------------------------------------------------------

def cmd_heston_simulate(args) -> int:
    model = configio.read_heston_model(args.model)
    times = step_times(args.T, args.steps)
    ps = simulate_heston_terminal(
        model, args.T, args.steps, args.paths, args.seed,
        workers=args.workers, record_times=times,
    )
    _write_path_csv(args.out, "P", times, ps)
    return 0


def cmd_heston_price(args) -> int:
    model = configio.read_heston_model(args.model)
    strikes = np.array(configio.parse_float_list(args.strikes))
    # priced first, so a bad asset, strike or damping fails before the Monte Carlo
    fp = fourier_price_call(model, args.asset, strikes, args.maturity,
                            alpha=args.alpha, riccati_steps=args.riccati_steps)
    ps = simulate_heston_terminal(
        model, args.maturity, args.steps, args.paths, args.seed,
        workers=args.workers,
    )[:, 0, :]
    payoffs = np.clip(np.exp(ps[:, args.asset]) - strikes[:, None], 0.0, None)
    mc = np.array([[est.mean, est.stderr] for est in map(estimate_mean, payoffs)])
    _write_text(args.out, configio.format_csv(
        ["strike", "maturity", "fourier_price", "truncation_error", "mc_price",
         "mc_stderr"], [strikes, np.full_like(strikes, args.maturity), fp.price,
                        fp.truncation_error, *mc.T]))
    return 0


# validate ----------------------------------------------------------------------

def cmd_validate(args) -> int:
    sec = configio.read_sections(args.config)
    # check list may live in [validate]; [run] holds paths/seed/workers
    # overrides and [output] an optional json target, mirroring the layout
    # of every other experiment config
    body = sec.get("validate", sec.get("", {}))
    run_sec = sec.get("run", {})
    out_sec = sec.get("output", {})
    names = body.get("checks", [])
    if not isinstance(names, list):
        raise ConfigError(f"{args.config}: 'checks' must be a list of names")
    unknown = [n for n in names if not isinstance(n, str) or n not in CHECKS]
    if unknown:
        raise ConfigError(f"{args.config}: unknown checks {unknown}; "
                          f"available: {sorted(CHECKS)}")

    def run_number(key):
        # a [run] entry overrides the check section's
        section, where = (run_sec, "[run]") if key in run_sec else (body, "")
        return configio.int_field(section, key, f"{args.config}{where}")

    paths, seed = run_number("paths"), run_number("seed")
    workers = configio.int_field(run_sec, "workers", f"{args.config}[run]", args.workers)
    results = run_checks(names, n_paths=paths, seed=seed, workers=workers)
    report = {"checks": results, "passed": all(r["passed"] for r in results)}
    text = _json_report(report)
    out_target = args.out if args.out != "-" else out_sec.get("json", "-")
    _write_text(out_target, text)
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        extras = []
        if "max_abs_z" in r:
            extras.append(f"max|z|={r['max_abs_z']:.2f}")
        print(f"{status} {r['name']} {' '.join(extras)}")
    return 0 if report["passed"] else 1


# parser ----------------------------------------------------------------------

def _add_mc_flags(p, paths_default=1000):
    p.add_argument("--paths", type=int, default=paths_default)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mvolt",
        description="Finite-rank lifts of matrix-valued Volterra processes: "
                    "simulation and transform validation",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", help="kernel fitting and evaluation")
    ksub = k.add_subparsers(dest="subcommand", required=True)
    kf = ksub.add_parser("fit", help="fit a fractional kernel as an exponential sum")
    kf.add_argument("--hurst", required=True, help="file with 'hurst = [[...]]'")
    kf.add_argument("--nodes", type=int, required=True)
    kf.add_argument("--tmin", type=float, required=True)
    kf.add_argument("--tmax", type=float, required=True)
    kf.add_argument("--tol", type=float, default=None)
    kf.add_argument("--out", required=True)
    kf.set_defaults(fn=cmd_kernel_fit)
    ke = ksub.add_parser("eval", help="tabulate kernel values")
    ke.add_argument("--measure", required=True)
    ke.add_argument("--times", required=True, help="comma-separated times")
    ke.add_argument("--out", default="-")
    ke.set_defaults(fn=cmd_kernel_eval)

    ou = sub.add_parser("ou", help="matrix OU lift simulation")
    osub = ou.add_subparsers(dest="subcommand", required=True)
    os_ = osub.add_parser("simulate")
    os_.add_argument("--measure", required=True)
    os_.add_argument("--gamma0", required=True)
    os_.add_argument("--dt", type=float, required=True)
    os_.add_argument("--steps", type=int, required=True)
    _add_mc_flags(os_, paths_default=100)
    os_.add_argument("--out", default="-")
    os_.set_defaults(fn=cmd_ou_simulate)

    w = sub.add_parser("wishart", help="squared-lift simulation and transform")
    wsub = w.add_subparsers(dest="subcommand", required=True)
    ws = wsub.add_parser("simulate")
    ws.add_argument("--measure", required=True)
    ws.add_argument("--gamma0", required=True)
    ws.add_argument("--dt", type=float, required=True)
    ws.add_argument("--steps", type=int, required=True)
    _add_mc_flags(ws, paths_default=100)
    ws.add_argument("--out", default="-")
    ws.set_defaults(fn=cmd_wishart_simulate)
    wt = wsub.add_parser("transform")
    wt.add_argument("--measure", required=True)
    wt.add_argument("--gamma0", required=True)
    wt.add_argument("--c", required=True, help="file with 'c = [[...]]'")
    wt.add_argument("--times", required=True)
    _add_mc_flags(wt, paths_default=10000)
    wt.add_argument("--out", default="-")
    wt.set_defaults(fn=cmd_wishart_transform)

    hk = sub.add_parser("hawkes", help="self-exciting jump lift simulation")
    hsub = hk.add_subparsers(dest="subcommand", required=True)
    hs = hsub.add_parser("simulate")
    hs.add_argument("--model", default=None,
                    help="jump model file; without it, the diagonal Hawkes preset "
                         "on --measure and --lambda0")
    hs.add_argument("--measure", default=None)
    hs.add_argument("--lambda0", default=None)
    hs.add_argument("--T", type=float, required=True)
    hs.add_argument("--thinning-dt", type=float, default=0.25)
    hs.add_argument("--grid-steps", type=int, default=None)
    _add_mc_flags(hs, paths_default=100)
    hs.add_argument("--out", default="-")
    hs.add_argument("--out-grid", default=None)
    hs.set_defaults(fn=cmd_hawkes_simulate)

    tr = sub.add_parser("transform", help="analytic transforms of the jump lift")
    tsub = tr.add_subparsers(dest="subcommand", required=True)
    tl = tsub.add_parser("laplace")
    tl.add_argument("--model", required=True)
    tl.add_argument("--u", required=True, help="file with 'u = [[...]]' (NSD)")
    tl.add_argument("--t", required=True, help="comma-separated times")
    tl.add_argument("--riccati-steps", type=int, default=400)
    tl.add_argument("--out", default="-")
    tl.set_defaults(fn=cmd_transform_laplace)
    tc = tsub.add_parser("charfn")
    tc.add_argument("--model", required=True)
    tc.add_argument("--v", required=True,
                    help="comma-separated floats, flattened (B, d) arguments")
    tc.add_argument("--t", type=float, required=True)
    tc.add_argument("--riccati-steps", type=int, default=400)
    tc.add_argument("--out", default="-")
    tc.set_defaults(fn=cmd_transform_charfn)

    he = sub.add_parser("heston", help="covariance-modulated price model")
    hesub = he.add_subparsers(dest="subcommand", required=True)
    hsim = hesub.add_parser("simulate")
    hsim.add_argument("--model", required=True)
    hsim.add_argument("--T", type=float, required=True)
    hsim.add_argument("--steps", type=int, default=64)
    _add_mc_flags(hsim, paths_default=100)
    hsim.add_argument("--out", default="-")
    hsim.set_defaults(fn=cmd_heston_simulate)
    hch = hesub.add_parser("charfn")
    hch.add_argument("--model", required=True)
    hch.add_argument("--v", required=True)
    hch.add_argument("--t", type=float, required=True)
    hch.add_argument("--riccati-steps", type=int, default=400)
    hch.add_argument("--out", default="-")
    hch.set_defaults(fn=cmd_transform_charfn)
    hp = hesub.add_parser("price")
    hp.add_argument("--model", required=True)
    hp.add_argument("--asset", type=int, default=0)
    hp.add_argument("--strikes", required=True)
    hp.add_argument("--maturity", type=float, required=True)
    hp.add_argument("--alpha", type=float, default=1.5)
    hp.add_argument("--steps", type=int, default=256)
    hp.add_argument("--riccati-steps", type=int, default=400)
    _add_mc_flags(hp, paths_default=20000)
    hp.add_argument("--out", default="-")
    hp.set_defaults(fn=cmd_heston_price)

    va = sub.add_parser("validate", help="run MC-vs-analytic checks")
    va.add_argument("--config", required=True)
    va.add_argument("--workers", type=int, default=1)
    va.add_argument("--out", default="-")
    va.set_defaults(fn=cmd_validate)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, OverflowError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
