import numpy as np
import pytest

from mvolt.mc import (
    Estimate,
    PerPathBlocks,
    estimate_mean,
    path_rng,
    run_path_blocks,
)


def run_paths(fn, n_paths, seed, *, workers=1, block_size=8192):
    """Estimate E[fn(stream)] over n_paths per-path streams."""
    values = run_path_blocks(PerPathBlocks(fn), n_paths, seed, workers=workers,
                             block_size=block_size)
    return estimate_mean(values, block_size)


def test_streams_are_reproducible_and_distinct():
    a1 = path_rng(7, 3).standard_normal(8)
    a2 = path_rng(7, 3).standard_normal(8)
    b = path_rng(7, 4).standard_normal(8)
    np.testing.assert_array_equal(a1, a2)
    assert not np.allclose(a1, b)


def test_constant_simulator():
    est = run_paths(lambda rng: 1.0, 500, seed=0)
    assert est.mean == pytest.approx(1.0)
    assert est.stderr == pytest.approx(0.0)
    assert est.n_paths == 500


def test_normal_mean_within_four_se():
    est = run_paths(lambda rng: rng.standard_normal(), 1_000_000, seed=1,
                    block_size=65536)
    assert abs(est.mean) <= 4.0 * est.stderr
    assert est.stderr == pytest.approx(1e-3, rel=0.05)


def _sum_three_normals(rng):
    return rng.standard_normal(3).sum()


def _normals_block(seed, start, stop):
    return np.stack(
        [path_rng(seed, p).standard_normal(2) for p in range(start, stop)]
    )


def test_worker_count_does_not_change_estimate():
    a = run_paths(_sum_three_normals, 5000, seed=2, workers=1, block_size=512)
    b = run_paths(_sum_three_normals, 5000, seed=2, workers=8, block_size=512)
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.stderr, b.stderr)
    np.testing.assert_array_equal(a.batch_means, b.batch_means)


def test_block_driver_worker_invariance():
    a = run_path_blocks(_normals_block, 3000, seed=3, workers=1, block_size=256)
    b = run_path_blocks(_normals_block, 3000, seed=3, workers=8, block_size=256)
    np.testing.assert_array_equal(a, b)


def test_cross_path_independence():
    vals = np.asarray(run_path_blocks(
        PerPathBlocks(lambda rng: rng.standard_normal()), 10_000, seed=4))
    first, second = vals[:-1], vals[1:]
    r = np.corrcoef(first, second)[0, 1]
    assert abs(r) <= 4.0 / np.sqrt(len(first))


def test_batch_means_consistent_with_stderr():
    est = run_paths(lambda rng: rng.standard_normal(), 80_000, seed=5,
                    block_size=8192)
    bm = np.asarray(est.batch_means)
    se_from_batches = bm.std(ddof=1) / np.sqrt(len(bm))
    assert se_from_batches <= 3.0 * est.stderr
    assert est.stderr <= 3.0 * se_from_batches


def test_failure_reports_path_and_seed():
    def sim(rng):
        x = rng.standard_normal()
        if abs(x) > 2.5:
            raise ValueError("synthetic failure")
        return x

    with pytest.raises(ValueError, match=r"path \d+ \(seed 6\)") as exc_info:
        run_paths(sim, 2000, seed=6)
    assert "synthetic failure" in str(exc_info.value)


def _failing_block(seed, start, stop):
    if start >= 256:
        raise FloatingPointError("synthetic blow-up")
    return np.zeros(stop - start)


def test_block_failure_keeps_type_and_names_block():
    with pytest.raises(FloatingPointError,
                       match=r"synthetic blow-up on paths \[256, 300\) \(seed 7\)"):
        run_path_blocks(_failing_block, 300, seed=7, block_size=256, workers=2)


def test_estimate_mean_complex_values():
    rng = np.random.default_rng(0)
    vals = np.exp(1j * rng.normal(size=4000))
    est = estimate_mean(vals)
    assert isinstance(est, Estimate)
    assert abs(est.mean - vals.mean()) < 1e-12
    assert est.stderr > 0.0
