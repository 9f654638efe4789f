"""Squared Gaussian lifts: PSD matrix process V = X^T X and its transform.

X is the total-mass projection of the exact OU lift, so V_t = X_t^T X_t is
positive semidefinite by construction and has noncentral Wishart marginals.
Because the rows of X_t are i.i.d. Gaussian vectors N(m_a, Q_t) with

    m_a  = row a of  H_t = sum_i e^(-x_i t) gamma_0(x_i),
    Q_t  = int_0^t K(s)^2 ds = sum_{i,j} nu_i nu_j E_ij(t),

the Laplace functional E[exp(-Tr(c^T c V_t))] factorizes over rows and each
row is a Gaussian quadratic functional with the classical closed form

    E[exp(-z^T U z)] = det(I + 2 Q U)^(-1/2)
                       * exp(-m^T U (I + 2 Q U)^(-1) m),   U = c^T c.

The affine split below exposes the same value as exp(-phi_t - <psi_t,
lambda_0>) with phi_t = (n/2) log det(I + 2 Q_t U) and the pairing equal to
Tr(H_t U (I + 2 Q_t U)^(-1) H_t^T).  The operator placement (which factor
the inverse touches) is fixed by the row-wise Gaussian computation; the
Monte Carlo validation in the test suite arbitrates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .measures import AtomicMatrixMeasure, decay_sum, pair_decay_integrals
from .mc import run_path_blocks
from .ou import check_lift_inputs, simulate_lift_blocks


@dataclass(frozen=True)
class WishartTransformQuery:
    """Time, argument matrix c (with u = c^T c) and initial lift data."""

    t: float
    c: np.ndarray        # (r, d), any row count r: only U = c^T c enters
    gamma0: np.ndarray   # (k, n, d)

    def __post_init__(self):
        if not self.t >= 0.0:
            raise ValueError("transform time must be >= 0")
        c = np.array(self.c, dtype=float)
        g = np.array(self.gamma0, dtype=float)
        c.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "gamma0", g)
        if c.ndim != 2 or g.ndim != 3:
            raise ValueError("c must be (n, d) and gamma0 (k, n, d)")
        if c.shape[1] != g.shape[2]:
            raise ValueError("c and gamma0 disagree on d")
        if not np.all(np.isfinite(c)):
            raise ValueError("c must be finite")


def noise_variance(measure: AtomicMatrixMeasure, t: float) -> np.ndarray:
    """Q_t = int_0^t K(s)^2 ds, the per-row covariance of the OU projection."""
    E = pair_decay_integrals(measure.nodes, t)
    return np.einsum("ij,iab,jbc->ac", E, measure.weights, measure.weights)


def _transform_pieces(query: WishartTransformQuery, measure: AtomicMatrixMeasure):
    U = query.c.T @ query.c
    Q = noise_variance(measure, query.t)
    H = decay_sum(measure.nodes, query.gamma0, query.t)
    return U, Q, H


def closed_form_laplace(
    query: WishartTransformQuery, measure: AtomicMatrixMeasure
) -> float:
    """E[exp(-Tr(c^T c V_t))] in closed form; always in (0, 1]."""
    U, Q, H = _transform_pieces(query, measure)
    n = query.gamma0.shape[1]
    d = U.shape[0]
    uev, uQmat = np.linalg.eigh(U)
    uev = np.clip(uev, 0.0, None)
    G = (uQmat * np.sqrt(uev)[None, :]) @ uQmat.T  # symmetric sqrt of U
    B = np.eye(d) + 2.0 * G @ Q @ G
    bev, bQ = np.linalg.eigh(B)
    if np.any(bev <= 0.0):
        raise np.linalg.LinAlgError("transform matrix I + 2 sqrt(U) Q sqrt(U) not PD")
    logdet = float(np.sum(np.log(bev)))
    # exponent = Tr(H U (I + 2 Q U)^(-1) H^T) = || B^(-1/2) G H^T ||_F^2
    half = (bQ * (1.0 / np.sqrt(bev))[None, :]) @ bQ.T
    quad = float(np.sum((half @ G @ H.T) ** 2))
    return float(np.exp(-0.5 * n * logdet - quad))


def affine_transform_wishart(
    query: WishartTransformQuery, measure: AtomicMatrixMeasure
) -> tuple[float, float]:
    """Split the transform as (phi_t, <psi_t, lambda_0>).

    exp(-phi - pairing) reproduces :func:`closed_form_laplace`; the two are
    computed through different linear-algebra routes and must agree to
    1e-12 relative.
    """
    U, Q, H = _transform_pieces(query, measure)
    n = query.gamma0.shape[1]
    d = U.shape[0]
    M = np.eye(d) + 2.0 * Q @ U
    sign, logdet = np.linalg.slogdet(M)
    if sign <= 0.0:
        raise np.linalg.LinAlgError("transform matrix I + 2 Q U not PD")
    phi = 0.5 * n * logdet
    psi_mat = U @ np.linalg.inv(M)  # symmetric PSD: U (I + 2 Q U)^(-1)
    pairing = float(np.trace(H @ psi_mat @ H.T))
    return float(phi), pairing


def simulate_wishart(
    measure: AtomicMatrixMeasure,
    gamma0,
    times,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> np.ndarray:
    """Monte Carlo V_t samples, shape (n_paths, len(times), d, d).

    Deterministic given (seed, n_paths): path p's noise depends on (seed,
    p) alone (see :func:`~mvolt.ou.simulate_lift_blocks`), so the result is
    independent of workers and blocking.  V = X^T X is summed over the n
    rows of X as outer products, row by row.
    """
    gamma0, times = check_lift_inputs(measure, gamma0, times)
    X = run_path_blocks(partial(simulate_lift_blocks, measure, gamma0, times),
                        n_paths, seed, workers=workers)
    V = X[:, :, 0, :, None] * X[:, :, 0, None, :]
    for a in range(1, X.shape[2]):
        V += X[:, :, a, :, None] * X[:, :, a, None, :]
    return V


def mean_wishart(measure: AtomicMatrixMeasure, gamma0, t: float) -> np.ndarray:
    """E[V_t] = H_t^T H_t + n * Q_t, the two stochastic terms being mean-zero."""
    gamma0 = np.asarray(gamma0, dtype=float)
    n = gamma0.shape[1]
    H = decay_sum(measure.nodes, gamma0, t)
    return H.T @ H + n * noise_variance(measure, t)
