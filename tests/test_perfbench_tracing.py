"""The benchmark's tracing wrappers still find every name they wrap.

``perfbench/tracing.py`` wraps ``mvolt`` functions and methods by name, so a
refactor that drops or renames one of them breaks only a traced benchmark
run.  This test installs the wrappers, runs one small traced Heston block
through them and takes them off again.
"""

from pathlib import Path

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
