"""Span tracing of ``mvolt``'s layers from outside the package.

``install`` replaces public functions and methods of the ``mvolt`` modules by
wrappers that record one span per call: id, parent id, name, start and end.
Each wrapper is set on the name that the calling module looks up, so a
function imported with ``from .x import f`` is wrapped where it is used.  No
source file is changed.  The wrappers can be taken off and put back between
calls, so one process can time traced and untraced rounds of the same work.
Spans stay in memory until ``write`` saves them; ``layer_metrics`` turns them
into the per-layer figures.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span log plus counters fed by the wrappers."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name, fn, on_call=None, on_result=None):
        """Wrapper of ``fn`` that records a span called ``name``.

        ``on_call(tracer, args, kwargs)`` may update the counters from the
        arguments and may return replacement ``(args, kwargs)``;
        ``on_result(tracer, result)`` sees the return value.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                swapped = on_call(tracer, args, kwargs)
                if swapped is not None:
                    args, kwargs = swapped
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, parent, name, start, end))
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def write(self, path, **meta) -> None:
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)

    def totals(self):
        """Per name: call count, total time and self time (minus direct children)."""
        dur = {sid: end - start for sid, _, _, start, end in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += dur[sid]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for sid, _, name, _, _ in self.spans:
            calls[name] += 1
            total[name] += dur[sid]
            self_time[name] += dur[sid] - child_time[sid]
        return calls, total, self_time


class CountingRng:
    """Delegating proxy around a path's Generator that counts thinning draws.

    ``simulate_jump_path`` draws one uniform per candidate it tests and one
    ``choice`` per accepted candidate (there is more than one atom).
    """

    def __init__(self, rng, counters):
        self._rng = rng
        self._counters = counters

    def uniform(self, *args, **kwargs):
        self._counters["jumps.thinning.candidates"] += 1
        return self._rng.uniform(*args, **kwargs)

    def choice(self, *args, **kwargs):
        self._counters["jumps.thinning.accepted"] += 1
        return self._rng.choice(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _count_lift_blocks(tracer, args, kwargs):
    _measure, gamma0, times, _seed, start, stop = args[:6]
    k, n, d = np.shape(gamma0)
    paths, n_times = stop - start, len(times)
    tracer.counters["ou.path_steps"] += paths * n_times
    tracer.peaks["ou.noise_mb_per_block"] = max(
        tracer.peaks["ou.noise_mb_per_block"], paths * n_times * n * k * d * 8 / 1e6)


def _count_heston_block(tracer, args, kwargs):
    sim, _seed, start, stop = args[:4]
    paths = stop - start
    tracer.counters["heston.path_steps"] += paths * sim.n_steps
    draws = sim._draws_per_step + sim.model.n_jumps
    tracer.peaks["heston.noise_mb_per_block"] = max(
        tracer.peaks["heston.noise_mb_per_block"], paths * sim.n_steps * draws * 8 / 1e6)


def _count_joint_args(tracer, args, kwargs):
    tracer.counters["riccati.joint_args"] += np.atleast_2d(args[0]).shape[0]


def _proxy_thinning_rng(tracer, args, kwargs):
    args = list(args)
    if len(args) > 3:
        args[3] = CountingRng(args[3], tracer.counters)
    else:
        kwargs = {**kwargs, "rng": CountingRng(kwargs["rng"], tracer.counters)}
    return tuple(args), kwargs


def _count_csv_bytes(tracer, result):
    tracer.counters["configio.format_csv.bytes"] += len(result)


class Patches:
    """The wrappers ``install`` set, with the originals they replaced."""

    def __init__(self):
        self._slots: list[tuple[object, str, object, object]] = []

    def add(self, owner, attr, original, wrapped) -> None:
        self._slots.append((owner, attr, original, wrapped))
        setattr(owner, attr, wrapped)

    def on(self) -> None:
        for owner, attr, _original, wrapped in self._slots:
            setattr(owner, attr, wrapped)

    def off(self) -> None:
        for owner, attr, original, _wrapped in self._slots:
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Patches:
    """Wrap the layer entry points; ``off()`` on the result takes them off."""
    import mvolt.cli
    import mvolt.configio
    import mvolt.fractional
    import mvolt.heston
    import mvolt.jumps
    import mvolt.mc
    import mvolt.ou
    import mvolt.riccati
    import mvolt.wishart

    patches = Patches()

    def patch(owners, attr, name, on_call=None, on_result=None):
        """Wrap ``attr`` once and set the wrapper on every module that looks it up."""
        original = owners[0].__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        wrapped = tracer.wrap(name, fn, on_call, on_result)
        for owner in owners:
            patches.add(owner, attr, owner.__dict__[attr],
                        classmethod(wrapped) if is_classmethod else wrapped)

    # ou and cli import path_rng inside the calling function, heston at the top.
    patch([mvolt.mc, mvolt.heston], "path_rng", "mc.path_rng")
    patch([mvolt.wishart], "simulate_lift_blocks", "ou.simulate_lift_blocks",
          _count_lift_blocks)
    patch([mvolt.ou.StepOperator], "build", "ou.StepOperator.build")
    for attr in ("simulate_wishart", "closed_form_laplace", "affine_transform_wishart"):
        patch([mvolt.wishart], attr, f"wishart.{attr}")
    for attr in ("fourier_price_call", "char_function", "simulate_heston_terminal"):
        patch([mvolt.heston], attr, f"heston.{attr}")
    patch([mvolt.heston.HestonSimulator], "__call__", "heston.HestonSimulator",
          _count_heston_block)
    patch([mvolt.heston], "solve_joint_riccati_heston",
          "riccati.solve_joint_riccati_heston", _count_joint_args)
    patch([mvolt.riccati], "solve_lift_riccati_jump", "riccati.solve_lift_riccati_jump")
    patch([mvolt.cli], "laplace_transform_jump", "riccati.laplace_transform_jump")
    patch([mvolt.jumps], "simulate_jump_path", "jumps.simulate_jump_path",
          _proxy_thinning_rng)
    patch([mvolt.jumps.LinearFlow], "flow", "jumps.LinearFlow.flow")
    patch([mvolt.configio], "format_csv", "configio.format_csv",
          on_result=_count_csv_bytes)
    patch([mvolt.configio], "read_jump_model", "configio.read_jump_model")
    patch([mvolt.fractional], "fit_fractional_measure", "fractional.fit_fractional_measure")
    for sub in ("hawkes_simulate", "transform_laplace"):
        patch([mvolt.cli], f"cmd_{sub}", f"cli.{sub}")
    return patches


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer figures from the spans; counts and ms are per traced round.

    A layer that the workload does not reach reads 0.
    """
    calls, total, self_time = tracer.totals()
    c = tracer.counters

    def per(a, b, scale):
        return a / b * scale if b else 0.0

    joint_args = c["riccati.joint_args"]
    candidates = c["jumps.thinning.candidates"]
    values = {
        "mc.path_rng.calls": calls["mc.path_rng"] / rounds,
        "mc.path_rng.us_per_call": per(total["mc.path_rng"], calls["mc.path_rng"], 1e6),
        "ou.simulate_lift_blocks.ns_per_path_step": per(
            total["ou.simulate_lift_blocks"], c["ou.path_steps"], 1e9),
        "ou.StepOperator.build.ms": total["ou.StepOperator.build"] / rounds * 1e3,
        "ou.noise_mb_per_block": tracer.peaks["ou.noise_mb_per_block"],
        "wishart.closed_form_laplace.us_per_call": per(
            total["wishart.closed_form_laplace"], calls["wishart.closed_form_laplace"], 1e6),
        "heston.noise_mb_per_block": tracer.peaks["heston.noise_mb_per_block"],
        "heston.HestonSimulator.ns_per_path_step": per(
            total["heston.HestonSimulator"], c["heston.path_steps"], 1e9),
        "heston.fourier_price_call.s_per_strike": per(
            total["heston.fourier_price_call"], calls["heston.fourier_price_call"], 1.0),
        "riccati.solve_joint_riccati_heston.args": joint_args / rounds,
        "riccati.solve_joint_riccati_heston.us_per_arg": per(
            total["riccati.solve_joint_riccati_heston"], joint_args, 1e6),
        "riccati.solve_lift_riccati_jump.ms": total["riccati.solve_lift_riccati_jump"] / rounds * 1e3,
        "riccati.volterra_route.ms": self_time["riccati.laplace_transform_jump"] / rounds * 1e3,
        "jumps.simulate_jump_path.us_per_path": per(
            total["jumps.simulate_jump_path"], calls["jumps.simulate_jump_path"], 1e6),
        "jumps.LinearFlow.flow.calls": calls["jumps.LinearFlow.flow"] / rounds,
        "jumps.LinearFlow.flow.us_per_call": per(
            total["jumps.LinearFlow.flow"], calls["jumps.LinearFlow.flow"], 1e6),
        "jumps.thinning.candidates": candidates / rounds,
        "jumps.thinning.accepted": c["jumps.thinning.accepted"] / rounds,
        "jumps.thinning.accept_ratio": per(c["jumps.thinning.accepted"], candidates, 1.0),
        "configio.format_csv.ms": total["configio.format_csv"] / rounds * 1e3,
        "configio.format_csv.mb": c["configio.format_csv.bytes"] / rounds / 1e6,
        "cli.hawkes_simulate.self_ms": self_time["cli.hawkes_simulate"] / rounds * 1e3,
        "cli.transform_laplace.self_ms": self_time["cli.transform_laplace"] / rounds * 1e3,
        "fractional.fit_fractional_measure.ms": per(
            total["fractional.fit_fractional_measure"],
            calls["fractional.fit_fractional_measure"], 1e3),
    }
    return {name: float(value) for name, value in values.items()}
