"""Reproducible parallel Monte Carlo with counter-based per-path streams.

Every path index owns an independent Philox stream derived from
(master seed, path index), so a draw sequence is bit-identical no matter
how paths are scheduled across workers.  :func:`run_path_blocks`
evaluates a block simulator over fixed-size path blocks and joins the block
results in block order, which makes the final numbers byte-identical for 1
or many workers.  Per-path simulators enter through :class:`PerPathBlocks`.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

BLOCK_SIZE = 8192


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """Independent, scheduling-invariant stream for one path."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(path_index),))
    return np.random.Generator(np.random.Philox(ss))


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


class PerPathBlocks:
    """Block simulator built from a per-path one.

    ``path_fn(rng)`` simulates one path from its stream
    ``path_rng(seed, p)``; ``reduce``, if given, maps that output to the
    value kept, inside the worker.  A block returns the list of its values.
    """

    def __init__(self, path_fn, reduce=None):
        self.path_fn = path_fn
        self.reduce = reduce

    def __call__(self, seed: int, start: int, stop: int) -> list:
        out = []
        for p in range(start, stop):
            try:
                value = self.path_fn(path_rng(seed, p))
                out.append(value if self.reduce is None else self.reduce(value))
            except Exception as exc:
                raise _with_hint(
                    exc, f"path {p} (seed {seed}); replay with path_rng({seed}, {p})"
                ) from exc
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
    """Evaluate a block simulator over fixed path blocks.

    ``block_fn(seed, start, stop)`` returns the values of paths
    [start, stop), drawing the noise of path p from ``path_rng(seed, p)``
    only: an array of shape (stop - start, ...), or a list such as
    :class:`PerPathBlocks` returns.  Block results are joined in path order
    (arrays concatenated, lists chained), so the output is independent of
    the worker count.  An exception keeps its type and names the failing
    paths and the seed.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    blocks = [
        (start, min(start + block_size, n_paths))
        for start in range(0, n_paths, block_size)
    ]
    task = _BlockTask(block_fn, seed)
    if workers <= 1 or len(blocks) <= 1:
        chunks = [task(b) for b in blocks]
    else:
        workers = min(workers, len(blocks), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(task, blocks))
    if isinstance(chunks[0], list):
        return [value for chunk in chunks for value in chunk]
    return np.concatenate([np.asarray(c) for c in chunks], axis=0)


def _estimate_from_values(values: np.ndarray, block_size: int) -> Estimate:
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


def estimate_mean(values, block_size: int = BLOCK_SIZE) -> Estimate:
    """Estimate from per-path values produced by :func:`run_path_blocks`."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        re = _estimate_from_values(values.real, block_size)
        im = _estimate_from_values(values.imag, block_size)
        return Estimate(
            mean=re.mean + 1j * im.mean,
            stderr=np.sqrt(re.stderr**2 + im.stderr**2),
            n_paths=re.n_paths,
            batch_means=re.batch_means + 1j * im.batch_means,
        )
    return _estimate_from_values(values.astype(float), block_size)
