import concurrent.futures
import os
from functools import partial

import numpy as np
import pytest

from mvolt.jumps import HawkesPathSimulator, JumpMeasureSpec
from mvolt.mc import (
    STREAM_GROUP,
    estimate_mean,
    group_normals,
    group_streams,
    path_rng,
    run_path_blocks,
)
from mvolt.measures import AtomicMatrixMeasure
from mvolt.ou import DIRECT_MAX_MD, simulate_lift_blocks
from test_jumps import path_field

def _stream_block(fn, seed, start, stop):
    """Block function: fn of each path's stream ``path_rng(seed, p)``."""
    return np.array([fn(path_rng(seed, p)) for p in range(start, stop)])


def run_paths(fn, n_paths, seed, *, workers=1, block_size=8192):
    """Estimate E[fn(stream)] over n_paths per-path streams."""
    values = run_path_blocks(partial(_stream_block, fn), n_paths, seed,
                             workers=workers, block_size=block_size)
    return estimate_mean(values, block_size)


def test_streams_are_reproducible_and_distinct():
    a1 = path_rng(7, 3).standard_normal(8)
    a2 = path_rng(7, 3).standard_normal(8)
    b = path_rng(7, 4).standard_normal(8)
    np.testing.assert_array_equal(a1, a2)
    assert not np.allclose(a1, b)


@pytest.mark.parametrize("kind", [1, 2])
@pytest.mark.parametrize("seed", [0, 2**32 + 5, 2**130 + 7])
def test_group_streams_have_spawn_key_group_and_kind(seed, kind):
    # paths [300, 700) touch groups 1 and 2, rows 44-443 of a draw stacked
    # over them
    streams, rows = group_streams(seed, 300, 700, kind)
    assert rows == slice(300 - STREAM_GROUP, 700 - STREAM_GROUP)
    assert len(streams) == 2
    for g, rng in zip((1, 2), streams):
        seed_seq = np.random.SeedSequence(entropy=seed, spawn_key=(g, kind))
        want = np.random.Generator(np.random.Philox(seed_seq)).uniform(size=(4, 3))
        np.testing.assert_array_equal(rng.uniform(size=(4, 3)), want)


@pytest.mark.parametrize("start, stop, groups, rows", [
    (0, 1, [0], slice(0, 1)),
    (255, 257, [0, 1], slice(255, 257)),
    (512, 768, [2], slice(0, 256)),
    (2**32 - 3, 2**32 + 3, [2**24 - 1, 2**24], slice(253, 259)),
])
def test_group_streams_of_a_block(start, stop, groups, rows):
    # one stream per group that [start, stop) touches, in group order, and
    # the block's rows of a draw stacked over them
    streams, got_rows = group_streams(9, start, stop, 2)
    assert got_rows == rows
    assert len(streams) == len(groups)
    for g, rng in zip(groups, streams):
        seed_seq = np.random.SeedSequence(entropy=9, spawn_key=(g, 2))
        want = np.random.Generator(np.random.Philox(seed_seq)).uniform(size=(2, 3))
        np.testing.assert_array_equal(rng.uniform(size=(2, 3)), want)


def test_group_kinds_and_path_streams_are_distinct():
    # group 0's noise (kind 1), its thinning uniforms (kind 2) and path 0's
    # own stream are three different streams
    draws = [group_streams(4, 0, 1, kind)[0][0].random(8) for kind in (1, 2)]
    draws.append(path_rng(4, 0).random(8))
    for i in range(3):
        for j in range(i):
            assert not np.any(draws[i] == draws[j])


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError):
        path_rng(-1, 0)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        group_streams(-1, 0, 4, 2)
    with pytest.raises(ValueError, match="got -1"):
        group_normals(-1, 0, 4)
    with pytest.raises(ValueError, match="got -2"):
        run_path_blocks(_failing_block, 10, seed=-2)


@pytest.mark.parametrize("workers", [1, 2])
def test_x_blocks_do_not_change_the_draws(workers):
    # three times draw X from its joint law, DIRECT_MAX_MD // 2 + 1 step the
    # lift; neither the block size nor the path count is a multiple of
    # STREAM_GROUP, so blocks start and end inside a group
    rng = np.random.default_rng(8)
    measure = AtomicMatrixMeasure([0.4, 3.0], [np.eye(2) * 0.3, [[0.2, 0.05], [0.05, 0.1]]])
    gamma0 = rng.normal(size=(2, 3, 2)) * 0.2
    seed, n_paths = 2**40 + 3, 2 * STREAM_GROUP + 45
    for n_times in (3, DIRECT_MAX_MD // 2 + 1):
        block = partial(simulate_lift_blocks, measure, gamma0, 0.25 * np.arange(1, n_times + 1))
        want = block(seed, 0, n_paths)
        for block_size in (STREAM_GROUP // 2 + 1, STREAM_GROUP + 7, n_paths):
            got = run_path_blocks(block, n_paths, seed, workers=workers, block_size=block_size)
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("workers", [1, 2])
def test_hawkes_paths_match_one_path_blocks(workers):
    measure = AtomicMatrixMeasure([0.6, 2.5], [np.eye(2) * 0.35, np.eye(2) * 0.2])
    # two atoms, so that accepted candidates draw their atom with ``choice``
    spec = JumpMeasureSpec(atoms=[np.eye(2), [[0.5, 0.5], [0.5, 0.5]]],
                           weights=[np.eye(2) * 0.4, np.eye(2) * 0.3])
    sim = HawkesPathSimulator(measure, [np.eye(2) * 0.8, np.eye(2) * 0.4], spec,
                              horizon=1.0, thinning_dt=0.25, grid_steps=8)
    # each path is the one-path block a failure names for its replay
    want = [sim.block(17, p, p + 1) for p in range(120)]
    got = run_path_blocks(sim.block, 120, 17, workers=workers, block_size=50)
    assert sum(rec.jump_times.size for rec in want) > 0
    assert len(np.unique(np.concatenate([rec.jump_atoms for rec in want]))) == 2
    assert len(got.v_path) == len(want)
    for p, b in enumerate(want):
        assert np.all(b.jump_paths == p)
        b = b._replace(jump_paths=b.jump_paths - p)
        for field in ("jump_times", "jump_atoms", "intensity_at_jumps", "v_path",
                      "compensators"):
            np.testing.assert_array_equal(path_field(got, p, field), path_field(b, 0, field))


def test_constant_simulator():
    est = run_paths(lambda rng: 1.0, 500, seed=0)
    assert est.mean == pytest.approx(1.0)
    assert est.stderr == pytest.approx(0.0)
    assert est.n_paths == 500


def _group_normal_block(seed, start, stop):
    return group_normals(seed, start, stop)(1)[:, 0]


def test_normal_mean_within_four_se():
    values = run_path_blocks(_group_normal_block, 1_000_000, seed=1, block_size=65536)
    est = estimate_mean(values, 65536)
    assert abs(est.mean) <= 4.0 * est.stderr
    assert est.stderr == pytest.approx(1e-3, rel=0.05)


def _sum_three_normals(rng):
    return rng.standard_normal(3).sum()


def _normals_block(seed, start, stop):
    return np.stack(
        [path_rng(seed, p).standard_normal(2) for p in range(start, stop)]
    )


def test_pool_is_capped_at_the_usable_cpus(monkeypatch):
    # 3 of the machine's 64 CPUs are usable: 8 workers on 10 blocks get a
    # pool of 3 processes; the fake pool maps in process and starts none
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, blocks):
            return map(fn, blocks)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    got = run_path_blocks(_normals_block, 100, seed=3, workers=8, block_size=10)
    assert sizes == [3]
    np.testing.assert_array_equal(got, run_path_blocks(_normals_block, 100, seed=3,
                                                       block_size=10))


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
    vals = run_path_blocks(partial(_stream_block, lambda rng: rng.standard_normal()),
                           10_000, seed=4)
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

    with pytest.raises(ValueError, match=r"paths \[0, 2000\) \(seed 6\)") as exc_info:
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
