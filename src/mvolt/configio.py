"""Structured text configuration files: sections of key = literal lines.

One diffable format serves every subcommand.  A file is a sequence of
``[section]`` headers followed by ``key = value`` lines whose values are
Python literals (numbers, strings, nested lists).  Keys outside any header
land in the "" section.  Writing is canonical (sorted keys are NOT used;
insertion order is kept, floats via repr), so write -> read -> write is
byte-stable.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np

from .measures import AtomicMatrixMeasure
from .jumps import JumpLiftState, JumpMeasureSpec
from .heston import HestonModelSpec


class ConfigError(ValueError):
    """Malformed configuration input; carries file and line context."""


def parse_sections(text: str, source: str = "<config>") -> dict[str, dict]:
    sections: dict[str, dict] = {"": {}}
    current = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        try:
            parsed = ast.literal_eval(value.strip())
        except (ValueError, SyntaxError) as exc:
            raise ConfigError(
                f"{source}:{lineno}: field {key!r} is not a literal: {exc}"
            ) from exc
        sections[current][key] = parsed
    return sections


def read_sections(path) -> dict[str, dict]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_sections(path.read_text(), source=str(path))


def float_field(body: dict, key: str, source, default=None) -> np.ndarray:
    """The literal at ``key`` of a section as a float array.

    A missing key takes ``default``; without one it is an error.  So is a
    literal that is not numbers (a dict, a set, a string, ragged lists).
    Both raise :class:`ConfigError` naming the file and the key.
    """
    if key not in body and default is None:
        raise ConfigError(f"{source}: missing field {key!r}")
    try:
        return np.asarray(body.get(key, default), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: field {key!r} must be numbers: {exc}") from exc


def int_field(body: dict, key: str, source, default=None):
    """The literal at ``key`` of a section as an int, or ``default`` when the
    key is missing.  A whole float such as 2.0 counts; anything else (a
    fraction, a bool, a list, a dict) raises :class:`ConfigError` naming the
    file and the key."""
    if key not in body:
        return default
    value = body[key]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{source}: field {key!r} must be a whole number, got {value!r}")
    return value


def _format_value(v) -> str:
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_format_value(x) for x in v) + "]"
    if isinstance(v, (bool, int, str)):
        return repr(v)
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    raise ConfigError(f"cannot serialize value of type {type(v)!r}")


def write_sections(path, sections: dict[str, dict]) -> None:
    lines = []
    for name, body in sections.items():
        if name:
            lines.append(f"[{name}]")
        for key, value in body.items():
            lines.append(f"{key} = {_format_value(value)}")
        lines.append("")
    Path(path).write_text("\n".join(lines))


# measure files -------------------------------------------------------------

def measure_to_dict(measure: AtomicMatrixMeasure) -> dict:
    return {
        "d": measure.d,
        "nodes": measure.nodes.tolist(),
        "weights": measure.weights.tolist(),
    }


def measure_from_dict(body: dict, source: str = "<measure>") -> AtomicMatrixMeasure:
    nodes, weights = (float_field(body, key, source) for key in ("nodes", "weights"))
    d = float_field(body, "d", source, default=weights.shape[-1] if weights.ndim == 3 else 0)
    if weights.ndim != 3 or d.shape or weights.shape[-1] != d:
        raise ConfigError(
            f"{source}: weights must be a (k, ., d={d}) nested list, "
            f"got shape {weights.shape}"
        )
    try:
        return AtomicMatrixMeasure(nodes, weights)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def write_measure(path, measure: AtomicMatrixMeasure) -> None:
    write_sections(path, {"": measure_to_dict(measure)})


def read_measure(path) -> AtomicMatrixMeasure:
    return measure_from_dict(read_sections(path)[""], source=str(path))


def read_node_data(path, measure: AtomicMatrixMeasure) -> np.ndarray:
    """The ``weights`` array of a node data file on the measure's nodes.

    The file holds ``nodes`` and ``weights`` like a measure file: the
    initial lift data gamma0 (k, n, d) or lam0 (k, d, d).  Only the nodes are
    checked here; the model that takes the weights checks their numbers.
    """
    body = read_sections(path)[""]
    nodes, weights = (float_field(body, key, path) for key in ("nodes", "weights"))
    if not np.array_equal(nodes, measure.nodes):
        raise ConfigError(f"{path}: node data and measure must share the same nodes")
    return weights


# jump model files ----------------------------------------------------------

def read_jump_model(path) -> tuple[AtomicMatrixMeasure, np.ndarray, JumpMeasureSpec]:
    """Model file with [measure], [lambda0] and optional [jumps] sections."""
    sec = read_sections(path)
    if "measure" not in sec:
        raise ConfigError(f"{path}: missing [measure] section")
    measure = measure_from_dict(sec["measure"], source=f"{path}[measure]")
    lam = float_field(sec.get("lambda0", {}), "weights", f"{path}[lambda0]")
    try:
        lam0 = JumpLiftState(lam, measure).lam
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    jumps = sec.get("jumps", {})
    d = measure.d

    def stack(key):
        # an empty list is an empty stack of d x d matrices
        arr = float_field(jumps, key, f"{path}[jumps]", default=[])
        return arr if arr.size else arr.reshape(0, d, d)

    try:
        spec = JumpMeasureSpec(atoms=stack("atoms"), weights=stack("weights"),
                               epsilon_shift=float_field(jumps, "epsilon", f"{path}[jumps]",
                                                         default=0.0))
    except ValueError as exc:
        raise ConfigError(f"{path}[jumps]: {exc}") from exc
    if spec.atoms.shape[1:] != (d, d):
        raise ConfigError(f"{path}[jumps]: atoms and weights must be {d} x {d} like the "
                          f"measure, got shape {spec.atoms.shape}")
    return measure, lam0, spec


# price model files ----------------------------------------------------------

def read_heston_model(path) -> HestonModelSpec:
    """Model file with [measure], [gamma0] and [price] sections."""
    sec = read_sections(path)
    for name in ("measure", "gamma0", "price"):
        if name not in sec:
            raise ConfigError(f"{path}: missing [{name}] section")
    measure = measure_from_dict(sec["measure"], source=f"{path}[measure]")
    gamma0 = float_field(sec["gamma0"], "weights", f"{path}[gamma0]")
    price, source = sec["price"], f"{path}[price]"
    rho, p0 = (float_field(price, key, source, default=np.zeros(measure.d))
               for key in ("rho", "p0"))
    jump_atoms, jump_weights = (float_field(price, key, source, default=[])
                                for key in ("jump_atoms", "jump_weights"))
    try:
        return HestonModelSpec(
            measure=measure,
            gamma0=gamma0,
            rho=rho,
            p0=p0,
            jump_atoms=jump_atoms if jump_atoms.size else None,
            jump_weights=jump_weights if jump_weights.size else None,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# CSV helpers ----------------------------------------------------------------

def format_csv(header: list[str], columns) -> str:
    """CSV with a mandatory header row and one column per header name.

    Float columns are written with ``repr`` (the shortest round-trip form,
    '.' decimal separator), other columns with ``str``; each column is
    converted by one ``tolist`` call.
    """
    columns = [np.asarray(col) for col in columns]
    if len(columns) != len(header) or any(
            col.ndim != 1 or len(col) != len(columns[0]) for col in columns):
        raise ValueError("format_csv needs one 1-D column of equal length per header name")
    cells = [map(repr if col.dtype.kind == "f" else str, col.tolist()) for col in columns]
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


def parse_float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated floats, got {text!r}") from exc
