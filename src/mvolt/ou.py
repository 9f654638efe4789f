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
per lift row, not k d.  :meth:`StepOperator.step` steps these rows of k d,
which :mod:`mvolt.heston` shares.  The projection X_t = sum_i gamma_t(x_i)
recovers the Volterra process.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import AtomicMatrixMeasure, pair_decay_integrals


def node_covariance(measure: AtomicMatrixMeasure, dt: float) -> np.ndarray:
    """Cross-node innovation covariance C, a (k d) x (k d) PSD matrix."""
    k, d = measure.k, measure.d
    E = pair_decay_integrals(measure.nodes, dt)  # (k, k)
    prods = np.einsum("iab,jbc->ijac", measure.weights, measure.weights)
    C = prods * E[:, :, None, None]
    return C.transpose(0, 2, 1, 3).reshape(k * d, k * d)


def _psd_factor(C: np.ndarray, clamp_rel: float = 1e-14,
                drop_clamped: bool = False) -> np.ndarray:
    """Factor L with L L^T = C, eigenvalues below the clamp zeroed.

    L is square, or with ``drop_clamped`` keeps only the r columns of the
    eigenvalues above the clamp, (m, r), the same L L^T.
    """
    evals, Q = np.linalg.eigh(0.5 * (C + C.T))
    floor = clamp_rel * max(float(np.trace(C)), 0.0)
    kept = evals > floor
    if drop_clamped and not kept.all():
        # Q itself when nothing is clamped: a column copy would change the
        # memory layout, and with it the BLAS path and the output bytes
        return Q[:, kept] * np.sqrt(evals[kept])[None, :]
    return Q * np.sqrt(np.where(kept, evals, 0.0))[None, :]


@dataclass(frozen=True)
class StepOperator:
    """Precomputed exact one-step sampler for a fixed (measure, dt) pair."""

    dt: float
    decay: np.ndarray          # (k d,) e^(-x_i dt) on column (i, b) of a node row
    noise_factor: np.ndarray   # (k d, r) with L L^T = C, r = rank after the clamp
    cond_w_factor: np.ndarray = field(repr=False)  # (d, d) factor of the cond. covariance
    cond_w_gain: np.ndarray = field(repr=False)    # (d, k d) conditional-mean gain

    @classmethod
    def build(cls, measure: AtomicMatrixMeasure, dt: float) -> "StepOperator":
        if dt <= 0.0:
            raise ValueError("step size must be positive")
        k, d = measure.k, measure.d
        C = node_covariance(measure, dt)
        L = _psd_factor(C, drop_clamped=True)
        resid = np.linalg.norm(L @ L.T - C)
        scale = max(np.linalg.norm(C), 1e-300)
        if resid > 1e-10 * scale:
            raise np.linalg.LinAlgError(
                f"covariance factorization residual {resid:.3e} exceeds "
                f"1e-10 * ||C|| = {1e-10 * scale:.3e}"
            )
        # Cov(dW_{a c}, innovation_{(j, b)}) = F_j(dt) (nu_j)_{c b}; the gain
        # and conditional covariance let the price module reuse the same W
        # realization that drove the node update.
        from .measures import decay_integral

        F = decay_integral(measure.nodes, dt)  # (k,)
        cross = np.einsum("j,jcb->cjb", F, measure.weights).reshape(d, k * d)
        Cpinv = np.linalg.pinv(C, rcond=1e-12, hermitian=True)
        gain = cross @ Cpinv
        cond_cov = dt * np.eye(d) - gain @ cross.T
        cond_factor = _psd_factor(cond_cov)
        return cls(
            dt=float(dt),
            decay=np.repeat(np.exp(-measure.nodes * dt), d),
            noise_factor=L,
            cond_w_factor=cond_factor,
            cond_w_gain=gain,
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
    the times form a nonempty, strictly increasing 1-d array of t >= 0.
    """
    gamma0 = np.asarray(gamma0, dtype=float)
    if gamma0.ndim != 3 or gamma0.shape[::2] != (measure.k, measure.d):
        raise ValueError(
            f"gamma0 must have shape ({measure.k}, n, {measure.d}), got {gamma0.shape}"
        )
    if not np.all(np.isfinite(gamma0)):
        raise ValueError("gamma0 entries must be finite")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or not np.all(times >= 0.0):
        raise ValueError("times must be a nonempty 1-d array of t >= 0")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be strictly increasing")
    return gamma0, times


def simulate_lift_blocks(
    measure: AtomicMatrixMeasure,
    gamma0: np.ndarray,
    times: np.ndarray,
    seed: int,
    start: int,
    stop: int,
) -> np.ndarray:
    """The projection X = sum_i gamma(x_i) for paths [start, stop).

    Returns X samples of shape (stop-start, len(times), n, d); the nodes are
    summed after each step, so no per-node record is kept.  Path p draws its
    noise from ``path_rng(seed, p)`` exclusively, one flat vector of
    n * sum_m r_m normals per path, step m taking the next n r_m of them
    (r_m = the rank of its ``noise_factor``, 0 for a zero-length first
    step), so results are scheduling-independent; the block draws them
    through :func:`~mvolt.mc.path_streams`.  Steps are taken between
    consecutive times; exactness of the one-step law makes the grid choice
    immaterial.
    """
    from .mc import path_streams

    gamma0, times = check_lift_inputs(measure, gamma0, times)
    k, n, d = gamma0.shape
    steps = np.diff(np.concatenate([[0.0], times]))
    ops = []
    cache: dict[float, StepOperator] = {}
    for dt in steps:
        key = round(float(dt), 15)
        if dt > 0 and key not in cache:
            cache[key] = StepOperator.build(measure, float(dt))
        ops.append(cache.get(key))
    ranks = [0 if op is None else op.noise_factor.shape[1] for op in ops]
    bounds = n * np.cumsum([0] + ranks)

    n_paths = stop - start
    noise = np.empty((n_paths, bounds[-1]))
    for row, rng in enumerate(path_streams(seed, start, stop)):
        rng.standard_normal(out=noise[row])

    out = np.empty((n_paths, times.size, n, d))
    sum_nodes = np.tile(np.eye(d), (k, 1))         # 1_k (x) I_d: X = gamma @ sum_nodes
    gamma = np.tile(gamma0.transpose(1, 0, 2).reshape(n, k * d), (n_paths, 1))
    for m, op in enumerate(ops):
        if op is not None:
            z = noise[:, bounds[m]:bounds[m + 1]].reshape(n_paths * n, ranks[m])
            op.step(gamma, z)
        out[:, m] = (gamma @ sum_nodes).reshape(n_paths, n, d)
    return out
