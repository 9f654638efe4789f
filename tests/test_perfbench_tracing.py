"""The benchmark's tracing wrappers still find every name they wrap.

``perfbench/tracing.py`` wraps ``mvolt`` functions and methods by name, so a
refactor that drops or renames one of them breaks only a traced benchmark
run.  These tests install the wrappers, run a small traced Heston block,
Hawkes simulation and Wishart simulation through them and take them off
again.
"""

from pathlib import Path

import numpy as np

import mvolt.heston
import mvolt.mc
from mvolt.validate import heston_reference_model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracing_install_and_off_restore_originals(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    path_rng = mvolt.heston.path_rng
    mc_path_rng = mvolt.mc.path_rng
    call = mvolt.heston.HestonSimulator.__dict__["__call__"]
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert mvolt.heston.path_rng is not path_rng
        assert mvolt.heston.HestonSimulator.__dict__["__call__"] is not call
        mvolt.heston.simulate_heston_terminal(heston_reference_model(), 0.5, 4, 8, 0)
        metrics = tracing.layer_metrics(tracer, rounds=1)
        assert metrics["mc.path_rng.calls"] == 8
        assert metrics["heston.HestonSimulator.ns_per_path_step"] > 0.0
        assert metrics["heston.noise_mb_per_block"] > 0.0
    finally:
        patches.off()
    assert mvolt.heston.path_rng is path_rng
    assert mvolt.mc.path_rng is mc_path_rng
    assert mvolt.heston.HestonSimulator.__dict__["__call__"] is call


def test_tracing_counts_a_chunked_price_jump_block(monkeypatch):
    # the block wrapper reads ``_draws_per_step``, ``model.n_jumps`` and
    # ``n_steps`` of the simulator; a price-jump model whose horizon takes
    # more than one chunk of draws runs through it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    base = heston_reference_model()
    model = mvolt.heston.HestonModelSpec(
        measure=base.measure, gamma0=base.gamma0, rho=base.rho, p0=base.p0,
        jump_atoms=np.array([[0.15, 0.0]]), jump_weights=np.array([np.eye(2) * 0.5]))
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        sim = mvolt.heston.HestonSimulator(model, 1.0, 200)
        assert sim._chunk_steps < sim.n_steps
        assert sim(0, 0, 8).shape == (8, 1, 2)
        metrics = tracing.layer_metrics(tracer, rounds=1)
        assert metrics["heston.HestonSimulator.ns_per_path_step"] > 0.0
        assert metrics["heston.noise_mb_per_block"] > 0.0
    finally:
        patches.off()


def test_tracing_wraps_the_hawkes_entry_points(monkeypatch, tmp_path):
    # a 20-path ``hawkes simulate`` and one single-stream path through the
    # wrappers: the block runs the lockstep engine, whose flows are counted,
    # and ``simulate_jump_path`` still takes its stream as the 4th argument
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    import mvolt.cli
    import mvolt.configio
    import mvolt.jumps

    model = tmp_path / "model.cfg"
    model.write_text(
        "[measure]\nnodes = [0.6, 2.5]\n"
        "weights = [[[0.35, 0.0], [0.0, 0.35]], [[0.2, 0.0], [0.0, 0.2]]]\nd = 2\n"
        "[lambda0]\nweights = [[[0.8, 0.0], [0.0, 0.8]], [[0.4, 0.0], [0.0, 0.4]]]\n"
        "[jumps]\natoms = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]\n"
        "weights = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]\n")
    simulate = mvolt.jumps.simulate_jump_path
    flow = mvolt.jumps.LinearFlow.__dict__["flow"]
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert mvolt.cli.main([
            "hawkes", "simulate", "--model", str(model), "--T", "1.0",
            "--paths", "20", "--seed", "3", "--out", str(tmp_path / "ev.csv"),
            "--out-grid", str(tmp_path / "v.csv")]) == 0
        metrics = tracing.layer_metrics(tracer, rounds=1)
        assert metrics["jumps.LinearFlow.flow.calls"] > 0
        assert metrics["cli.hawkes_simulate.self_ms"] > 0.0
        assert metrics["configio.format_csv.mb"] > 0.0

        measure, lam0, spec = mvolt.configio.read_jump_model(str(model))
        sim = mvolt.jumps.HawkesPathSimulator(measure, lam0, spec, 1.0, 0.25)
        sim(mvolt.mc.path_rng(3, 0))
        metrics = tracing.layer_metrics(tracer, rounds=1)
        assert metrics["jumps.simulate_jump_path.us_per_path"] > 0.0
        assert metrics["jumps.thinning.candidates"] > 0
    finally:
        patches.off()
    assert mvolt.jumps.simulate_jump_path is simulate
    assert mvolt.jumps.LinearFlow.__dict__["flow"] is flow


def test_tracing_counts_the_gaussian_lift_blocks(monkeypatch):
    # a traced small ``simulate_wishart``: the wrappers unpack the arguments
    # of ``ou.simulate_lift_blocks`` (gamma0 as (k, n, d)) and time the
    # ``StepOperator.build`` classmethod, so a change of either breaks here;
    # the times lie above the size rule, so that the lift steps
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    import mvolt.ou
    import mvolt.wishart

    measure = heston_reference_model().measure
    k, n, d = measure.k, 3, measure.d
    gamma0 = np.full((k, n, d), 0.1)
    times = 0.25 * np.arange(1, mvolt.ou.DIRECT_MAX_MD // d + 2)
    assert len(times) * d > mvolt.ou.DIRECT_MAX_MD
    paths = 16
    blocks = mvolt.wishart.simulate_lift_blocks
    build = mvolt.ou.StepOperator.__dict__["build"]
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        V = mvolt.wishart.simulate_wishart(measure, gamma0, times, paths, 0)
        assert V.shape == (paths, len(times), d, d)
        metrics = tracing.layer_metrics(tracer, rounds=1)
        assert metrics["ou.simulate_lift_blocks.ns_per_path_step"] > 0.0
        assert metrics["ou.StepOperator.build.ms"] > 0.0
        assert metrics["ou.noise_mb_per_block"] == paths * len(times) * n * k * d * 8 / 1e6
    finally:
        patches.off()
    assert mvolt.wishart.simulate_lift_blocks is blocks
    assert mvolt.ou.StepOperator.__dict__["build"] is build
