from functools import partial

import numpy as np
import pytest

import mvolt.mc
from mvolt.jumps import HawkesPathSimulator, JumpMeasureSpec
from mvolt.mc import (
    estimate_mean,
    path_generators,
    path_keys,
    path_rng,
    path_streams,
    run_path_blocks,
)
from mvolt.measures import AtomicMatrixMeasure
from mvolt.ou import DIRECT_MAX_MD, simulate_lift_blocks
from test_jumps import path_field

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 7]
PATH_RANGES = [(0, 50), (2**32 - 3, 2**32 + 3)]


def _stream_block(fn, seed, start, stop):
    """Block function: fn of each path's stream, drawn through path_streams."""
    return np.array([fn(rng) for rng in path_streams(seed, start, stop)])


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


@pytest.mark.parametrize("start, stop", PATH_RANGES)
@pytest.mark.parametrize("seed", SEEDS)
def test_path_keys_match_seed_sequence(seed, start, stop):
    want = np.array([
        np.random.SeedSequence(entropy=seed, spawn_key=(p,)).generate_state(2, np.uint64)
        for p in range(start, stop)
    ])
    got = path_keys(seed, start, stop)
    assert got.dtype == np.uint64
    np.testing.assert_array_equal(got, want)


def _thinning_draws(rng):
    """The draw mix of Hawkes thinning, interleaved, plus a block of normals."""
    out = [rng.standard_normal(3)]
    for _ in range(4):
        out += [rng.exponential(0.5), rng.uniform(), rng.choice(3, p=[0.2, 0.5, 0.3])]
    out.append(rng.standard_normal((2, 5)))
    return out


@pytest.mark.parametrize("start, stop", PATH_RANGES)
@pytest.mark.parametrize("seed", SEEDS)
def test_path_streams_draw_what_path_rng_draws(seed, start, stop):
    n = 0
    for p, rng in zip(range(start, stop), path_streams(seed, start, stop)):
        for got, want in zip(_thinning_draws(rng), _thinning_draws(path_rng(seed, p))):
            np.testing.assert_array_equal(got, want)
        n += 1
    assert n == stop - start


@pytest.mark.parametrize("start, stop", PATH_RANGES)
@pytest.mark.parametrize("seed", SEEDS[:3])
def test_path_generators_draw_what_path_rng_draws(seed, start, stop):
    gens = path_generators(seed, start, stop)
    assert len(gens) == stop - start
    assert len({id(rng) for rng in gens}) == len(gens)
    refs = [path_rng(seed, p) for p in range(start, stop)]
    # counter, key, output buffer and half-used word, before any draw
    for rng, ref in zip(gens, refs):
        got, want = rng.bit_generator.state, ref.bit_generator.state
        assert got.keys() == want.keys()
        for name in ("counter", "key"):
            np.testing.assert_array_equal(got["state"][name], want["state"][name])
        np.testing.assert_array_equal(got["buffer"], want["buffer"])
        for name in ("bit_generator", "buffer_pos", "has_uint32", "uinteger"):
            assert got[name] == want[name]
    # draw from all paths in turn, as lockstep thinning does
    for _ in range(3):
        for rng, ref in zip(gens, refs):
            for got, want in zip(_thinning_draws(rng), _thinning_draws(ref)):
                np.testing.assert_array_equal(got, want)


def test_path_generators_seed_sequence_gives_only_the_key():
    seed_seq = path_generators(3, 0, 1)[0].bit_generator.seed_seq
    np.testing.assert_array_equal(seed_seq.generate_state(2, np.uint64), path_keys(3, 0, 1)[0])
    for n_words, dtype in ((4, np.uint32), (2, np.uint32), (1, np.uint64), (4, np.uint64)):
        with pytest.raises(ValueError, match="holds one Philox key"):
            seed_seq.generate_state(n_words, dtype)


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError):
        path_rng(-1, 0)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        path_keys(-1, 0, 4)
    with pytest.raises(ValueError, match="got -1"):
        next(path_streams(-1, 0, 4))
    with pytest.raises(ValueError, match="got -2"):
        run_path_blocks(_failing_block, 10, seed=-2)


def _path_rng_loop(seed, start, stop):
    return (path_rng(seed, p) for p in range(start, stop))


@pytest.mark.parametrize("workers", [1, 2])
def test_x_block_matches_path_rng_loop(workers, monkeypatch):
    # three times draw X from its joint law, DIRECT_MAX_MD // 2 + 1 step the lift
    rng = np.random.default_rng(8)
    measure = AtomicMatrixMeasure([0.4, 3.0], [np.eye(2) * 0.3, [[0.2, 0.05], [0.05, 0.1]]])
    gamma0 = rng.normal(size=(2, 3, 2)) * 0.2
    seed = 2**40 + 3
    for n_times in (3, DIRECT_MAX_MD // 2 + 1):
        block = partial(simulate_lift_blocks, measure, gamma0, 0.25 * np.arange(1, n_times + 1))
        with monkeypatch.context() as m:
            m.setattr(mvolt.mc, "path_streams", _path_rng_loop)
            want = block(seed, 0, 300)
        got = run_path_blocks(block, 300, seed, workers=workers, block_size=128)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("workers", [1, 2])
def test_hawkes_paths_match_path_rng_loop(workers):
    measure = AtomicMatrixMeasure([0.6, 2.5], [np.eye(2) * 0.35, np.eye(2) * 0.2])
    # two atoms, so that accepted candidates draw their atom with ``choice``
    spec = JumpMeasureSpec(atoms=[np.eye(2), [[0.5, 0.5], [0.5, 0.5]]],
                           weights=[np.eye(2) * 0.4, np.eye(2) * 0.3])
    sim = HawkesPathSimulator(measure, [np.eye(2) * 0.8, np.eye(2) * 0.4], spec,
                              horizon=1.0, thinning_dt=0.25, grid_steps=8)
    want = [sim(rng) for rng in _path_rng_loop(17, 0, 120)]
    got = run_path_blocks(sim.block, 120, 17, workers=workers, block_size=50)
    assert sum(rec.jump_times.size for rec in want) > 0
    assert len(np.unique(np.concatenate([rec.jump_atoms for rec in want]))) == 2
    assert len(got.v_path) == len(want)
    for p, b in enumerate(want):
        for field in ("jump_times", "jump_atoms", "intensity_at_jumps", "v_path",
                      "counts_path", "compensators"):
            np.testing.assert_array_equal(path_field(got, p, field), path_field(b, 0, field))


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
