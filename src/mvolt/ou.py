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

The rows of X are i.i.d. Gaussian, so at m output times one row has the
(m d) x (m d) covariance of :func:`joint_covariance`, with blocks

    Cov(X_{t_j}, X_{t_l}) = sum_{a,b} nu_a nu_b e^(-x_b (t_l - t_j)) E_ab(t_j),

t_j <= t_l, and X can be drawn from it with no lift at all (the Cholesky
method for Gaussian Volterra processes; Dieker 2004, Asmussen & Glynn
2007, ch. XI).  :func:`simulate_lift_blocks` has both draws:

* m d <= ``DIRECT_MAX_MD`` (a size rule fixed in code): one factor L of
  the joint covariance per path block, r <= m d columns after the clamp;
  path p draws n r normals z from its own stream and X = mean + z L^T;
* otherwise: exact lift steps between consecutive times; path p draws n r_m
  normals per step, r_m the rank of that step's ``noise_factor``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import AtomicMatrixMeasure, decay_sum, pair_decay_integrals


def node_covariance(measure: AtomicMatrixMeasure, dt: float) -> np.ndarray:
    """Cross-node innovation covariance C, a (k d) x (k d) PSD matrix."""
    k, d = measure.k, measure.d
    E = pair_decay_integrals(measure.nodes, dt)  # (k, k)
    prods = np.einsum("iab,jbc->ijac", measure.weights, measure.weights)
    C = prods * E[:, :, None, None]
    return C.transpose(0, 2, 1, 3).reshape(k * d, k * d)


def _psd_factor(C: np.ndarray, clamp_rel: float = 1e-14,
                drop_clamped: bool = False, eig=None) -> np.ndarray:
    """Factor L with L L^T = C, eigenvalues below the clamp zeroed.

    L is square, or with ``drop_clamped`` keeps only the r columns of the
    eigenvalues above the clamp, (m, r), the same L L^T.  ``eig`` passes
    the eigenpairs of the symmetric part of C when the caller has them.
    """
    evals, Q = np.linalg.eigh(0.5 * (C + C.T)) if eig is None else eig
    floor = clamp_rel * max(float(np.trace(C)), 0.0)
    kept = evals > floor
    if drop_clamped and not kept.all():
        # Q itself when nothing is clamped: a column copy would change the
        # memory layout, and with it the BLAS path and the output bytes
        return Q[:, kept] * np.sqrt(evals[kept])[None, :]
    return Q * np.sqrt(np.where(kept, evals, 0.0))[None, :]


def _rank_factor(C: np.ndarray, eig=None) -> np.ndarray:
    """The (m, r) factor of :func:`_psd_factor` with ``drop_clamped``,
    checked: a residual ||L L^T - C|| above 1e-10 ||C|| raises LinAlgError."""
    L = _psd_factor(C, drop_clamped=True, eig=eig)
    resid = np.linalg.norm(L @ L.T - C)
    scale = max(np.linalg.norm(C), 1e-300)
    if resid > 1e-10 * scale:
        raise np.linalg.LinAlgError(
            f"covariance factorization residual {resid:.3e} exceeds "
            f"1e-10 * ||C|| = {1e-10 * scale:.3e}"
        )
    return L


def _pinv_from_eig(evals: np.ndarray, Q: np.ndarray, rcond: float) -> np.ndarray:
    """``np.linalg.pinv(C, rcond, hermitian=True)`` from C's eigenpairs,
    with pinv's own arithmetic (singular values sorted descending, signs
    moved into the right factor), so the result is bitwise pinv's."""
    order = np.argsort(np.abs(evals))[::-1]
    s = np.abs(evals[order])
    u = Q[:, order]
    large = s > rcond * s.max(initial=0.0)
    s_inv = np.divide(1.0, s, where=large, out=np.zeros_like(s))
    return (u * np.copysign(1.0, evals[order])) @ (s_inv[:, None] * u.T)


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
        if not dt > 0.0:
            raise ValueError("step size must be positive")
        k, d = measure.k, measure.d
        C = node_covariance(measure, dt)
        eig = np.linalg.eigh(0.5 * (C + C.T))
        L = _rank_factor(C, eig)
        # Cov(dW_{a c}, innovation_{(j, b)}) = F_j(dt) (nu_j)_{c b}; the gain
        # and conditional covariance let the price module reuse the same W
        # realization that drove the node update.
        from .measures import decay_integral

        F = decay_integral(measure.nodes, dt)  # (k,)
        cross = np.einsum("j,jcb->cjb", F, measure.weights).reshape(d, k * d)
        gain = cross @ _pinv_from_eig(*eig, rcond=1e-12)
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
# was 1.6-2.1x (k = 2) and 8.5-11x (k = 40) faster per path on 8192-path
# blocks in two runs, so k need not enter.  Above it they grow as (m d)^3 and (m d)^2 with nothing to
# pay them back on a small block (16 paths at m d = 512: 52-78 ms against
# the lift's 4-10 ms), and at k = 2 the lift wins per path from m d = 1024.
DIRECT_MAX_MD = 128


def _path_normals(seed: int, start: int, stop: int, count: int) -> np.ndarray:
    """(stop - start, count) standard normals, row p - start from path p's
    stream ``path_rng(seed, p)``, drawn through :func:`~mvolt.mc.path_streams`."""
    from .mc import path_streams

    noise = np.empty((stop - start, count))
    for row, rng in enumerate(path_streams(seed, start, stop)):
        rng.standard_normal(out=noise[row])
    return noise


def _draw_direct(measure, gamma0, times, seed, start, stop) -> np.ndarray:
    """X from the joint law at the times: mean + z L^T per lift row."""
    _, n, d = gamma0.shape
    n_paths = stop - start
    first = int(times[0] == 0.0)  # X_0 = sum_i gamma_0(x_i) carries no noise
    L = _rank_factor(joint_covariance(measure, times[first:]))
    r = L.shape[1]
    z = _path_normals(seed, start, stop, n * r).reshape(n_paths * n, r)
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
    ranks = [0 if op is None else op.noise_factor.shape[1] for op in ops]
    bounds = n * np.cumsum([0] + ranks)

    n_paths = stop - start
    noise = _path_normals(seed, start, stop, bounds[-1])
    out = np.empty((n_paths, times.size, n, d))
    sum_nodes = np.tile(np.eye(d), (k, 1))         # 1_k (x) I_d: X = gamma @ sum_nodes
    gamma = np.tile(gamma0.transpose(1, 0, 2).reshape(n, k * d), (n_paths, 1))
    for m, op in enumerate(ops):
        if op is not None:
            z = noise[:, bounds[m]:bounds[m + 1]].reshape(n_paths * n, ranks[m])
            op.step(gamma, z)
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

    Returns X samples of shape (stop-start, len(times), n, d).  Path p draws
    its noise from ``path_rng(seed, p)`` exclusively, through
    :func:`~mvolt.mc.path_streams`, so results are scheduling-independent.
    Where m d <= ``DIRECT_MAX_MD``, m = len(times), X comes from its
    joint law: L (m' d, r) is the checked rank factor of
    :func:`joint_covariance` at the m' times t > 0, path p draws n r
    normals z (row a of z for lift row a) and X = mean + z L^T, with the
    mean sum_i e^(-x_i t) gamma_0(x_i) (a time t = 0 keeps the mean alone).
    Otherwise the lift steps between consecutive times: path p draws one
    flat vector of n * sum_m r_m normals, step m taking the next n r_m of
    them (r_m = the rank of its ``noise_factor``, 0 for a zero-length first
    step), and the nodes are summed after each step, so no per-node record
    is kept.  Both draws are exact in law.
    """
    gamma0, times = check_lift_inputs(measure, gamma0, times)
    draw = _draw_direct if times.size * measure.d <= DIRECT_MAX_MD else _draw_lift
    return draw(measure, gamma0, times, seed, start, stop)
