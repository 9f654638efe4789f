"""Atomic matrix measures, kernel evaluation and decay integrals.

A convolution kernel K is represented as the Laplace transform of a finite
atomic measure with matrix weights,

    K(t) = sum_i w_i * exp(-x_i * t),

where the nodes x_i >= 0 are mean-reversion rates and the w_i are d x d
symmetric matrices.  The decay semigroup damps each weight, w_i ->
exp(-x_i * t) * w_i, which keeps everything inside the same finite-rank
family; the lifts apply it to their node states.  The kernel, together
with the pairwise integrals

    E_ij(t) = int_0^t exp(-(x_i + x_j) s) ds,

are the building blocks of every simulator and transform in this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Tolerance of the PSD check: the smallest eigenvalue may dip below zero by
# at most EPS_PSD * (1 + |trace|).
EPS_PSD = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def check_psd(stack, name: str) -> None:
    """Raise ValueError unless every matrix of the (m, d, d) stack, or the
    one (d, d) matrix, has a symmetric part that is PSD up to the EPS_PSD
    slack; the message names the first failing matrix of a stack as
    ``name i`` and a lone matrix as ``name``."""
    stack = np.asarray(stack, dtype=float)
    if not stack.size:
        return
    lo = np.linalg.eigvalsh(0.5 * (stack + np.swapaxes(stack, -1, -2)))[..., 0]
    slack = EPS_PSD * (1.0 + np.abs(np.trace(stack, axis1=-2, axis2=-1)))
    bad = np.flatnonzero(lo < -slack)
    if bad.size:
        label = name if stack.ndim == 2 else f"{name} {bad[0]}"
        raise ValueError(f"{label} must be PSD, min eigenvalue {lo.flat[bad[0]]:.3e}")


@dataclass(frozen=True)
class AtomicMatrixMeasure:
    """Finite atomic measure with symmetric d x d matrix weights.

    Parameters
    ----------
    nodes : array_like, shape (k,)
        Strictly increasing mean-reversion rates, all finite and >= 0.
    weights : array_like, shape (k, d, d)
        One finite symmetric matrix weight per node.  Models that need PSD
        weights (the jump lift) check them with :func:`check_psd`.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = _readonly(self.nodes).reshape(-1)
        weights = _readonly(self.weights)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.size == 0:
            raise ValueError("measure needs at least one node")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("nodes must be finite")
        if np.any(nodes < 0.0):
            raise ValueError("nodes must be >= 0")
        if nodes.size > 1 and np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if weights.ndim != 3 or weights.shape[0] != nodes.size:
            raise ValueError(
                f"weights must have shape (k, ., .) with k={nodes.size}, "
                f"got {weights.shape}"
            )
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        if weights.shape[1] != weights.shape[2]:
            raise ValueError("weights must be square")
        if not np.allclose(weights, np.swapaxes(weights, 1, 2), atol=1e-12):
            raise ValueError("weights must be symmetric")

    @property
    def k(self) -> int:
        return self.nodes.size

    @property
    def d(self) -> int:
        return self.weights.shape[2]


def eval_kernel(measure: AtomicMatrixMeasure, t) -> np.ndarray:
    """Evaluate K(t) = sum_i w_i exp(-x_i t).

    ``t`` may be a scalar (returns one d x d matrix) or a 1-d array
    (returns a stacked (len(t), d, d) array).  Negative and NaN times are
    rejected.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr >= 0.0):
        raise ValueError("kernel evaluation requires t >= 0")
    return decay_sum(measure.nodes, measure.weights, t_arr)


def decay_sum(nodes, weights, t) -> np.ndarray:
    """sum_i e^(-x_i t) w_i for weights (k, ...) of any trailing shape.

    The one decay sum of the package: the kernel K(t), the mean h(t) of a
    jump lift from lam0 and the mean H_t of the Gaussian projection from
    gamma0.  The result has shape t.shape + weights.shape[1:].
    """
    damp = np.exp(-np.multiply.outer(np.asarray(t, dtype=float), nodes))  # (..., k)
    return np.tensordot(damp, np.asarray(weights, dtype=float), axes=([-1], [0]))


def decay_integral(rate, t):
    """int_0^t exp(-rate * s) ds = (1 - exp(-rate t)) / rate, with limit t at rate 0.

    Vectorized in both arguments (broadcasting rules apply).
    """
    rate = np.asarray(rate, dtype=float)
    t = np.asarray(t, dtype=float)
    small = np.abs(rate) < 1e-14
    safe = np.where(small, 1.0, rate)
    out = np.where(small, t * np.ones_like(safe), -np.expm1(-safe * t) / safe)
    if out.ndim == 0:
        return float(out)
    return out


def pair_decay_integrals(nodes: np.ndarray, t) -> np.ndarray:
    """Matrix E_ij(t) = int_0^t exp(-(x_i + x_j) s) ds for all node pairs."""
    nodes = np.asarray(nodes, dtype=float)
    s = nodes[:, None] + nodes[None, :]
    return decay_integral(s, t)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid t_0 = 0 < t_1 < ... < t_N with step dt."""

    times: np.ndarray = field(repr=False)

    def __post_init__(self):
        times = _readonly(self.times).reshape(-1)
        object.__setattr__(self, "times", times)
        if times.size < 2:
            raise ValueError("grid needs at least two points")
        if times[0] != 0.0:
            raise ValueError("grid must start at 0")
        steps = np.diff(times)
        if np.any(steps <= 0.0):
            raise ValueError("grid times must be strictly increasing")
        dt = steps[0]
        if np.max(np.abs(steps - dt)) > 1e-12 * max(dt, 1.0):
            raise ValueError("grid spacing must be uniform to 1e-12 relative")

    @classmethod
    def regular(cls, horizon: float, n_steps: int) -> "TimeGrid":
        if horizon <= 0.0 or n_steps < 1:
            raise ValueError("need horizon > 0 and n_steps >= 1")
        return cls(np.linspace(0.0, float(horizon), int(n_steps) + 1))

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def __len__(self) -> int:
        return self.times.size
