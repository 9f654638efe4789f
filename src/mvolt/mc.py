"""Reproducible parallel Monte Carlo with counter-based streams.

Every draw is a function of (master seed, path index) alone, so a draw
sequence is bit-identical no matter how paths are scheduled across workers
(counter-based generators make this cheap; Salmon et al. 2011, "Parallel
random numbers: as easy as 1, 2, 3").  :func:`path_rng` defines the stream
of one path, for simulators whose draw counts differ from path to path.
:func:`path_keys` computes the Philox keys of a range of stream indices in
one pass, and :func:`path_generators` builds one Generator per index from
them.  Fixed-count noise is drawn from one stream per group of
``STREAM_GROUP`` consecutive paths, group g from ``path_rng(seed, 2**32 +
g)`` (:func:`group_normals`, and the Heston simulator's own fill), so a
block pays one stream per 256 paths.
:func:`run_path_blocks` evaluates a block simulator over path blocks and
joins the block results in block order, which makes the final numbers
byte-identical for 1 or many workers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

BLOCK_SIZE = 8192
# Paths per noise stream of group_normals.  One stream per path cost 1.6-3.3
# us of set-up per path on a 2-vCPU Xeon, most of the time of a 16-double
# draw; 256 paths share the set-up, and a block that starts and ends inside
# a group draws at most 2 * 255 rows it does not keep.
STREAM_GROUP = 256
# Group g draws from stream 2**32 + g: spawn key (g, 1), never a path's (p,).
_GROUP_STREAMS = 2**32
_MASK32 = 0xFFFFFFFF
# The pool size and hash constants of numpy's SeedSequence.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """Independent, scheduling-invariant stream for one path."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(path_index),))
    return np.random.Generator(np.random.Philox(ss))


def _check_seed(seed) -> int:
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of n >= 0, as SeedSequence splits an int."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _seed_sequence_keys(entropy: np.ndarray) -> np.ndarray:
    """``generate_state(2, np.uint64)`` of the SeedSequences whose assembled
    entropy words are the columns of ``entropy`` (uint32, (words, paths))."""
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ np.uint32(hash_a)
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * np.uint32(hash_a)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return out ^ (out >> _XSHIFT)

    # A spawned SeedSequence pads its run entropy to the pool size, so the
    # pool is filled from entropy words alone.
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_b = _INIT_B
    state = []
    for word in pool:
        word = word ^ np.uint32(hash_b)
        hash_b = hash_b * _MULT_B & _MASK32
        word = word * np.uint32(hash_b)
        state.append((word ^ (word >> _XSHIFT)).astype(np.uint64))
    shift = np.uint64(32)
    return np.stack([state[0] | state[1] << shift, state[2] | state[3] << shift], axis=1)


def path_keys(seed: int, start: int, stop: int) -> np.ndarray:
    """Philox keys of paths [start, stop), shape (stop - start, 2), uint64.

    Row p - start equals ``SeedSequence(entropy=seed, spawn_key=(p,))
    .generate_state(2, np.uint64)``, the key of ``path_rng(seed, p)``,
    computed for the whole block in one pass of uint32 array arithmetic.
    Path indices must lie in [0, 2**64).
    """
    run = _uint32_words(_check_seed(seed))
    run += [0] * (_POOL_SIZE - len(run))
    if not 0 <= start <= stop <= 2**64:
        raise ValueError(f"need 0 <= start <= stop <= 2**64, got [{start}, {stop})")
    keys = np.empty((stop - start, 2), dtype=np.uint64)
    # A path index below 2**32 is one spawn-key word, above it two.
    for lo, hi, n_words in ((start, min(stop, 2**32), 1), (max(start, 2**32), stop, 2)):
        if lo >= hi:
            continue
        paths = np.arange(lo, hi, dtype=np.uint64)
        entropy = np.empty((len(run) + n_words, hi - lo), dtype=np.uint32)
        entropy[: len(run)] = np.array(run, dtype=np.uint32)[:, None]
        for j in range(n_words):
            entropy[len(run) + j] = (paths >> np.uint64(32 * j)) & np.uint64(_MASK32)
        keys[lo - start : hi - start] = _seed_sequence_keys(entropy)
    return keys


def path_generators(seed: int, start: int, stop: int) -> list[np.random.Generator]:
    """The streams ``path_rng(seed, p)`` for p in [start, stop), one
    Generator each, so that a block can draw from all of them in turn.

    Each is a Philox built from path p's key in :func:`path_keys`, with a
    zero counter, which is cheaper than hashing a SeedSequence per path.
    """
    # imported here: ``import numpy`` does not load numpy.random
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        """A seed sequence that knows one Philox key and nothing else:
        Philox asks it for ``generate_state(2, np.uint64)`` and gets the key."""

        def __init__(self, key):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"holds one Philox key, 2 uint64 words; asked for "
                                 f"{n_words} of {np.dtype(dtype)}")
            return self.key

    return [np.random.Generator(np.random.Philox(PhiloxKey(key)))
            for key in path_keys(seed, start, stop)]


def group_normals(seed: int, start: int, stop: int):
    """A function ``draw(count)`` that returns (stop - start, count)
    standard normals, row p - start for path p, from the group streams.

    Path p lies in group g = p // ``STREAM_GROUP`` and the group draws from
    ``path_rng(seed, 2**32 + g)`` (SeedSequence spawn key (g, 1)).  Each
    call takes one (``STREAM_GROUP``, count) draw from every group that
    [start, stop) touches, row i of group g for path g ``STREAM_GROUP`` + i,
    and slices out the block's rows.  So, for the same sequence of counts,
    a path's rows depend on (seed, p) alone, not on the block it is in.
    """
    first, last = start // STREAM_GROUP, -(-stop // STREAM_GROUP)
    gens = path_generators(seed, _GROUP_STREAMS + first, _GROUP_STREAMS + last)
    rows = slice(start - first * STREAM_GROUP, stop - first * STREAM_GROUP)

    def draw(count: int) -> np.ndarray:
        out = np.empty((len(gens), STREAM_GROUP, count))
        for gen, group in zip(gens, out):
            gen.standard_normal(out=group)
        return out.reshape(len(gens) * STREAM_GROUP, count)[rows]

    return draw


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo mean with its standard error and batch-mean diagnostics."""

    mean: np.ndarray
    stderr: np.ndarray
    n_paths: int
    batch_means: np.ndarray = field(repr=False)

    def z_score(self, reference) -> np.ndarray:
        se = np.where(self.stderr > 0.0, self.stderr, np.nan)
        return (self.mean - np.asarray(reference)) / se


def _with_hint(exc: Exception, hint: str) -> Exception:
    """A copy of ``exc`` (same type where it can be built) naming the paths.

    The hint is kept in ``replay_hint`` so that an outer layer does not add
    a coarser one.
    """
    try:
        out = type(exc)(f"{exc} on {hint}")
    except TypeError:  # a constructor that takes more than a message
        out = RuntimeError(f"{type(exc).__name__}: {exc} on {hint}")
    out.replay_hint = hint
    return out


class _BlockTask:
    """Picklable evaluation of one path block."""

    def __init__(self, block_fn, seed):
        self.block_fn = block_fn
        self.seed = seed

    def __call__(self, block):
        start, stop = block
        try:
            return self.block_fn(self.seed, start, stop)
        except Exception as exc:
            if hasattr(exc, "replay_hint"):
                raise
            raise _with_hint(
                exc, f"paths [{start}, {stop}) (seed {self.seed})"
            ) from exc


def run_path_blocks(
    block_fn,
    n_paths: int,
    seed: int,
    *,
    workers: int = 1,
    block_size: int = BLOCK_SIZE,
):
    """Evaluate a block simulator over path blocks.

    ``block_fn(seed, start, stop)`` returns the values of paths
    [start, stop), drawing the noise of path p as a function of (seed, p)
    only (``path_rng(seed, p)``, or its rows of the group streams of
    :func:`group_normals`): an array, or a tuple (or named tuple) of
    arrays.  Block results are joined in path order, arrays concatenated
    along their first axis and tuples field by field into a tuple of the
    same type, so the output is independent of the worker count.  An
    exception keeps its type and names the failing paths and the seed.
    With ``workers`` > 1 and at most ``block_size`` paths, the run is split
    into min(workers, n_paths) path-ordered blocks so that the workers share
    it.  At most one process per usable CPU runs.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    seed = _check_seed(seed)
    if workers > 1 and n_paths <= block_size:
        n_split = min(workers, n_paths)
        edges = [n_paths * i // n_split for i in range(n_split + 1)]
    else:
        edges = [*range(0, n_paths, block_size), n_paths]
    blocks = list(zip(edges[:-1], edges[1:]))
    task = _BlockTask(block_fn, seed)
    if workers <= 1 or len(blocks) <= 1:
        chunks = [task(b) for b in blocks]
    else:
        # imported here: a serial run never loads the process pool machinery
        from concurrent.futures import ProcessPoolExecutor

        workers = min(workers, len(blocks), _usable_cpus())
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(task, blocks))
    if isinstance(chunks[0], tuple):
        fields = [np.concatenate(col, axis=0) for col in zip(*chunks)]
        return getattr(type(chunks[0]), "_make", tuple)(fields)
    return np.concatenate([np.asarray(c) for c in chunks], axis=0)


def estimate_mean(values, block_size: int = BLOCK_SIZE) -> Estimate:
    """Estimate from real per-path values produced by :func:`run_path_blocks`."""
    values = np.asarray(values).astype(float)
    n = values.shape[0]
    mean = values.mean(axis=0)
    if n > 1:
        var = values.var(axis=0, ddof=1)
        stderr = np.sqrt(var / n)
    else:
        stderr = np.zeros_like(mean)
    n_batches = max(min(n // max(block_size, 1), 64), 1)
    edges = np.linspace(0, n, n_batches + 1, dtype=int)
    batch_means = np.stack(
        [values[a:b].mean(axis=0) for a, b in zip(edges[:-1], edges[1:])]
    )
    return Estimate(mean=mean, stderr=stderr, n_paths=n, batch_means=batch_means)
