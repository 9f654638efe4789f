"""Exact simulation of the matrix Ornstein-Uhlenbeck lift.

The lift consists of k node matrices gamma(x_i) in R^(n x d) driven by one
shared n x d Brownian sheet W:

    gamma_t(x_i) = e^(-x_i t) gamma_0(x_i)
                   + int_0^t dW_s e^(-x_i (t-s)) nu_i .

Over a step of size dt the update is Gaussian with a covariance that is
known in closed form: stacking the innovation of row a over (node i,
column b) gives

    C[(i,b), (j,b')] = (nu_i nu_j)_{b b'} * E_ij(dt),
    E_ij(dt) = int_0^dt e^(-(x_i + x_j) s) ds,

independent across the n rows.  Sampling from a factor L L^T = C makes
each step exact in law for any dt, so downstream transform validations
carry no time-discretization bias.  C is often numerically low rank (a
rough k = 40 fit keeps about half of its k d eigenvalues), so L keeps only
the r columns of the eigenvalues above the clamp and a step draws r normals
per lift row, not k d.  A :class:`StepOperator` holds the node decays and L
and nothing else; :meth:`StepOperator.step` steps these rows of k d, which
:mod:`mvolt.heston` shares, and the price noise that rides on the same W is
built there.  The projection X_t = sum_i gamma_t(x_i)
recovers the Volterra process.

The rows of X are i.i.d. Gaussian, so at m output times one row has the
(m d) x (m d) covariance of :func:`joint_covariance`, with blocks

    Cov(X_{t_j}, X_{t_l}) = sum_{a,b} nu_a nu_b e^(-x_b (t_l - t_j)) E_ab(t_j),

t_j <= t_l, and X can be drawn from it with no lift at all (the Cholesky
method for Gaussian Volterra processes; Dieker 2004, Asmussen & Glynn
2007, ch. XI).  :func:`simulate_lift_blocks` has both draws:

* m d <= ``DIRECT_MAX_MD`` (a size rule fixed in code): one factor L of
  the joint covariance per path block, r <= m d columns after the clamp;
  path p gets n r normals z and X = mean + z L^T;
* otherwise: exact lift steps between consecutive times; path p gets n r_m
  normals per step, r_m the rank of that step's ``noise_factor``.

Both draw their normals through :func:`mvolt.mc.group_normals`, one stream
per group of ``STREAM_GROUP`` consecutive paths, so a path's noise depends
on (seed, path index) alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mc import group_normals
from .measures import AtomicMatrixMeasure, decay_sum, pair_decay_integrals


def node_covariance(measure: AtomicMatrixMeasure, dt: float) -> np.ndarray:
    """Cross-node innovation covariance C, a (k d) x (k d) PSD matrix."""
    k, d = measure.k, measure.d
    E = pair_decay_integrals(measure.nodes, dt)  # (k, k)
    prods = np.einsum("iab,jbc->ijac", measure.weights, measure.weights)
    C = prods * E[:, :, None, None]
    return C.transpose(0, 2, 1, 3).reshape(k * d, k * d)


def _psd_factor(C: np.ndarray, drop_clamped: bool = False) -> np.ndarray:
    """Factor L with L L^T = C, eigenvalues below 1e-14 tr(C) zeroed.

    L is square, or with ``drop_clamped`` keeps only the r columns of the
    eigenvalues above the clamp, (m, r), the same L L^T.
    """
    evals, Q = np.linalg.eigh(0.5 * (C + C.T))
    floor = 1e-14 * max(float(np.trace(C)), 0.0)
    kept = evals > floor
    if drop_clamped and not kept.all():
        # Q itself when nothing is clamped: a column copy would change the
        # memory layout, and with it the BLAS path and the output bytes
        return Q[:, kept] * np.sqrt(evals[kept])[None, :]
    return Q * np.sqrt(np.where(kept, evals, 0.0))[None, :]


def _rank_factor(C: np.ndarray) -> np.ndarray:
    """The (m, r) factor of :func:`_psd_factor` with ``drop_clamped``,
    checked: a residual ||L L^T - C|| above 1e-10 ||C|| raises LinAlgError."""
    L = _psd_factor(C, drop_clamped=True)
    resid = np.linalg.norm(L @ L.T - C)
    scale = max(np.linalg.norm(C), 1e-300)
    if resid > 1e-10 * scale:
        raise np.linalg.LinAlgError(
            f"covariance factorization residual {resid:.3e} exceeds "
            f"1e-10 * ||C|| = {1e-10 * scale:.3e}"
        )
    return L


@dataclass(frozen=True)
class StepOperator:
    """Precomputed exact one-step sampler for a fixed (measure, dt) pair."""

    decay: np.ndarray          # (k d,) e^(-x_i dt) on column (i, b) of a node row
    noise_factor: np.ndarray   # (k d, r) with L L^T = C, r = rank after the clamp

    @classmethod
    def build(cls, measure: AtomicMatrixMeasure, dt: float) -> "StepOperator":
        if not dt > 0.0:
            raise ValueError("step size must be positive")
        return cls(
            decay=np.repeat(np.exp(-measure.nodes * dt), measure.d),
            noise_factor=_rank_factor(node_covariance(measure, dt)),
        )

    def step(self, gamma: np.ndarray, noise: np.ndarray) -> None:
        """Advance lift rows gamma (..., k d) in place by one exact step.

        Row (..., a) of ``gamma`` holds row a of every node matrix
        gamma(x_i) of one path, node by node, the layout of the node
        innovations; ``noise`` (..., r) holds the standard normals of the
        step, one row of r = ``noise_factor.shape[1]`` per path and lift row.
        """
        kd, r = self.noise_factor.shape
        if gamma.shape[-1:] != (kd,) or noise.shape != gamma.shape[:-1] + (r,):
            raise ValueError(f"gamma and noise must have shapes (..., {kd}) and "
                             f"(..., {r}), got {gamma.shape} and {noise.shape}")
        gamma *= self.decay
        gamma += noise @ self.noise_factor.T


def check_lift_inputs(
    measure: AtomicMatrixMeasure, gamma0, times
) -> tuple[np.ndarray, np.ndarray]:
    """gamma0 (k, n, d) and times as float arrays, checked against the measure.

    Raises ValueError unless gamma0 is finite with the measure's k and d and
    the times form a nonempty, strictly increasing 1-d array of finite t >= 0.
    """
    gamma0 = np.asarray(gamma0, dtype=float)
    if gamma0.ndim != 3 or gamma0.shape[::2] != (measure.k, measure.d):
        raise ValueError(
            f"gamma0 must have shape ({measure.k}, n, {measure.d}), got {gamma0.shape}"
        )
    if not np.all(np.isfinite(gamma0)):
        raise ValueError("gamma0 entries must be finite")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or not np.all((times >= 0.0) & (times < np.inf)):
        raise ValueError("times must be a nonempty 1-d array of finite t >= 0")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be strictly increasing")
    return gamma0, times


def joint_covariance(measure: AtomicMatrixMeasure, times) -> np.ndarray:
    """Covariance of one row of X at the times, (m d) x (m d).

    Block (j, l) is Cov(X_{t_j}, X_{t_l}); for t_j <= t_l it is

        sum_{a,b} nu_a nu_b e^(-x_b (t_l - t_j)) E_ab(t_j),

    and block (l, j) is its transpose.  No lift enters: it is the law that
    :func:`simulate_lift_blocks` draws from directly when the size rule
    allows.
    """
    times = np.asarray(times, dtype=float)
    m, k, d = times.size, measure.k, measure.d
    E = pair_decay_integrals(measure.nodes, times[:, None, None])         # (m, k, k)
    prods = np.einsum("iab,jbc->jiac", measure.weights, measure.weights)  # [b, a] = nu_a nu_b
    # at_tj[j, b] = sum_a nu_a nu_b E_ab(t_j), one product per node b
    at_tj = np.matmul(E.transpose(2, 0, 1), prods.reshape(k, k, d * d)).transpose(1, 0, 2)
    lag = np.clip(times[None, :] - times[:, None], 0.0, None)            # t_l - t_j
    upper = np.matmul(np.exp(-lag[..., None] * measure.nodes), at_tj).reshape(m, m, d, d)
    j_le_l = np.arange(m)[:, None] <= np.arange(m)[None, :]
    blocks = np.where(j_le_l[..., None, None], upper, upper.transpose(1, 0, 3, 2))
    return blocks.transpose(0, 2, 1, 3).reshape(m * d, m * d)


# The size rule: X is drawn from its joint law at the m output times when
# m d <= DIRECT_MAX_MD.  That law costs one (m d) x (m d) covariance and its
# factor per block, (m d)^3, and m d r <= (m d)^2 per path and lift row; the
# lift costs k d r_m per step, path and row, linear in m.  At the bound the
# covariance and factor take 2-6 ms per block and 128 kB, and the direct law
# was 1.50-1.55x (k = 2) and 11.8-12.0x (k = 40) faster per block of 8192
# paths in two runs (n = 2, one BLAS thread), and 0.92-1.03x and 3.4-3.5x on
# 16-path blocks, so k need not enter.  Above it they grow as (m d)^3 and
# (m d)^2 with nothing to pay them back on a small block (16 paths at
# m d = 512: 42-74 ms against the lift's 10-63 ms, which draws whole
# 256-path stream groups), and at k = 2 the lift wins per path from
# m d = 512 (0.73-0.77 of the direct time on 2048 paths; at k = 40 the
# direct law is still 4.0-4.3x faster there).
DIRECT_MAX_MD = 128


def _draw_direct(measure, gamma0, times, seed, start, stop) -> np.ndarray:
    """X from the joint law at the times: mean + z L^T per lift row."""
    _, n, d = gamma0.shape
    n_paths = stop - start
    first = int(times[0] == 0.0)  # X_0 = sum_i gamma_0(x_i) carries no noise
    L = _rank_factor(joint_covariance(measure, times[first:]))
    r = L.shape[1]
    z = group_normals(seed, start, stop)(n * r).reshape(n_paths * n, r)
    mean = decay_sum(measure.nodes, gamma0, times)   # (m, n, d)
    out = np.broadcast_to(mean, (n_paths,) + mean.shape).copy()
    noise = (z @ L.T).reshape(n_paths, n, times.size - first, d)
    out[:, first:] += noise.transpose(0, 2, 1, 3)
    return out


def _draw_lift(measure, gamma0, times, seed, start, stop) -> np.ndarray:
    """X from exact lift steps between consecutive times."""
    k, n, d = gamma0.shape
    steps = np.diff(np.concatenate([[0.0], times]))
    ops = []
    cache: dict[float, StepOperator] = {}
    for dt in steps:
        key = round(float(dt), 15)
        if dt > 0 and key not in cache:
            cache[key] = StepOperator.build(measure, float(dt))
        ops.append(cache.get(key))

    n_paths = stop - start
    normals = group_normals(seed, start, stop)
    out = np.empty((n_paths, times.size, n, d))
    sum_nodes = np.tile(np.eye(d), (k, 1))         # 1_k (x) I_d: X = gamma @ sum_nodes
    gamma = np.tile(gamma0.transpose(1, 0, 2).reshape(n, k * d), (n_paths, 1))
    for m, op in enumerate(ops):
        if op is not None:
            r = op.noise_factor.shape[1]
            op.step(gamma, normals(n * r).reshape(n_paths * n, r))
        out[:, m] = (gamma @ sum_nodes).reshape(n_paths, n, d)
    return out


def simulate_lift_blocks(
    measure: AtomicMatrixMeasure,
    gamma0: np.ndarray,
    times: np.ndarray,
    seed: int,
    start: int,
    stop: int,
) -> np.ndarray:
    """The projection X = sum_i gamma(x_i) for paths [start, stop).

    Returns X samples of shape (stop-start, len(times), n, d).  The noise
    comes from :func:`~mvolt.mc.group_normals`: path p takes its rows of
    each draw from the stream of its group of ``STREAM_GROUP`` paths, so
    results depend on (seed, p) alone, not on workers or blocking.
    Where m d <= ``DIRECT_MAX_MD``, m = len(times), X comes from its
    joint law: L (m' d, r) is the checked rank factor of
    :func:`joint_covariance` at the m' times t > 0, one draw gives path p
    n r normals z (row a of z for lift row a) and X = mean + z L^T, with the
    mean sum_i e^(-x_i t) gamma_0(x_i) (a time t = 0 keeps the mean alone).
    Otherwise the lift steps between consecutive times: step m draws n r_m
    normals per path (r_m = the rank of its ``noise_factor``; a zero-length
    first step draws none), so the block holds one step's noise, and the
    nodes are summed after each step, so no per-node record is kept.  Both
    draws are exact in law.
    """
    gamma0, times = check_lift_inputs(measure, gamma0, times)
    draw = _draw_direct if times.size * measure.d <= DIRECT_MAX_MD else _draw_lift
    return draw(measure, gamma0, times, seed, start, stop)
