"""Reproducible parallel Monte Carlo on SeedSequence-keyed group streams.

Every draw is a function of (master seed, path index) alone, so a draw
sequence is bit-identical no matter how paths are scheduled across workers.
:func:`path_rng` defines one stream: an SFC64 generator seeded by
``SeedSequence(seed, spawn_key=(key,))``, whose spawn keys give independent
streams (O'Neill's SeedSequence hashing, as NumPy's ``spawn`` does).  SFC64
(Doty-Humphrey's Small Fast Chaotic generator) is the fastest of NumPy's
bit generators at the ziggurat normal fill that dominates a simulated
block; no stream is ever keyed per path, so a counter-based generator's
cheap keying would buy nothing here.
Paths draw from one stream per group of ``STREAM_GROUP`` consecutive paths,
path p on row p mod ``STREAM_GROUP`` of each draw of its group's stream, so
a block pays one stream per 256 paths: :func:`group_streams` builds the
streams of the groups a block touches, group g of kind q from
``path_rng(seed, q * 2**32 + g)``.  The Gaussian noise of the OU/Wishart
and Heston simulators is kind 1 (:func:`group_normals`, and the Heston
simulator's own fill), the uniforms of Hawkes thinning kind 2.
:func:`run_path_blocks` evaluates a block simulator over path blocks and
joins the block results in block order, which makes the final numbers
byte-identical for 1 or many workers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

BLOCK_SIZE = 8192
# Paths per group stream.  Setting up one stream (SeedSequence, SFC64 and
# Generator) takes 11-12 us on a 2-vCPU Xeon, twelve times a 16-normal draw;
# 256 paths share the set-up, and a block that starts and ends inside a
# group draws at most 2 * 255 rows it does not keep.
STREAM_GROUP = 256
# Group g of kind q >= 1 draws from stream q * 2**32 + g: spawn key (g, q),
# never a path's (p,) nor a group's of another kind.
_GROUP_STREAMS = 2**32


def path_rng(seed: int, key: int) -> np.random.Generator:
    """The SFC64 stream with SeedSequence spawn key (key,): independent of
    every other key's.  :func:`group_streams` keys group g of kind q by
    q * 2**32 + g; a lone caller may key its one stream by any index."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(key),))
    return np.random.Generator(np.random.SFC64(ss))


def _check_seed(seed) -> int:
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


def group_streams(seed: int, start: int, stop: int, kind: int):
    """The streams of the groups that paths [start, stop) touch, and the
    block's rows of a draw stacked over them.

    Path p lies in group g = p // ``STREAM_GROUP``, and group g of kind q
    draws from ``path_rng(seed, q * 2**32 + g)`` (SeedSequence spawn key
    (g, q)).  If every stream draws the same (``STREAM_GROUP``, ...) array
    and the draws are stacked in group order, the returned slice picks the
    rows of paths [start, stop), row i of group g for path g
    ``STREAM_GROUP`` + i.  So, for the same sequence of draws, a path's rows
    depend on (seed, p) alone, not on the block it is in.
    """
    seed = _check_seed(seed)
    first, last = start // STREAM_GROUP, -(-stop // STREAM_GROUP)
    streams = [path_rng(seed, kind * _GROUP_STREAMS + g) for g in range(first, last)]
    return streams, slice(start - first * STREAM_GROUP, stop - first * STREAM_GROUP)


def group_normals(seed: int, start: int, stop: int):
    """A function ``draw(count)`` that returns (stop - start, count)
    standard normals, row p - start for path p, from the kind 1 streams of
    :func:`group_streams`: each call takes one (``STREAM_GROUP``, count)
    draw from every group that [start, stop) touches.
    """
    gens, rows = group_streams(seed, start, stop, 1)

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
    only (its rows of the streams of :func:`group_streams`, or
    ``path_rng(seed, p)``): an array, or a tuple (or named tuple) of
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
