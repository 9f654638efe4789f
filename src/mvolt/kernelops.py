"""The symmetrized resolvent of the second kind: grid scheme and exact flow.

The resolvent R of a kernel K solves K * R + R * K = K - R, where ``*`` is
the time convolution (f * g)(t) = int_0^t f(t-s) g(s) ds.

:func:`resolvent_second_kind` steps it on samples of any kernel with the
implicit trapezoid rule.  The unknown enters linearly on both sides of a
matrix product, so each step is a small Sylvester equation A R_m + R_m A = C
with A = I/2 + (dt/2) K(0), solvable for small dt since K(0) is symmetric.

For an atomic kernel K(t) = sum_j e^{-x_j t} nu_j it is a linear ODE.  With
z_i(t) = int_0^t e^{-x_i (t-s)} R(s) ds and w_j = e^{-x_j t} nu_j,

    z' = (-diag(x) (x) I - 1_k (x) P) z + 1_k (x) sum_j w_j,
    w_j' = -x_j w_j,     R = sum_j w_j - P z,

with P the pairing of :func:`jumps.lift_operator`, so the z block is the lift
operator of the measure with weights -nu.  :func:`atomic_resolvent` reads R
off the exponential of this generator, a matrix of side 2 k d^2.
"""

from __future__ import annotations

import numpy as np

from .jumps import lift_operator
from .measures import AtomicMatrixMeasure, TimeGrid


def resolvent_second_kind(K: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Solve K*R + R*K = K - R on the grid by implicit trapezoid stepping.

    K is sampled at the grid points, the t=0 value being the right limit
    K(0+).  Returns R sampled on the same grid with R(0) = K(0).  Each step
    solves the Sylvester system A R_m + R_m A = C with A = I/2 + (dt/2) K_0
    via the eigendecomposition of the symmetric A; a step where an
    eigenvalue pair sums to zero is reported with its grid index.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim != 3 or K.shape[0] != len(grid) or K.shape[1] != K.shape[2]:
        raise ValueError(f"K must be square matrix samples of shape (N+1, d, d) on the "
                         f"grid, got {K.shape} for {len(grid)} grid points")
    d = K.shape[1]
    n = len(grid)
    dt = grid.dt
    R = np.zeros_like(K)
    R[0] = K[0]

    A = 0.5 * np.eye(d) + 0.5 * dt * 0.5 * (K[0] + K[0].T)
    evals, Q = np.linalg.eigh(A)
    denom = evals[:, None] + evals[None, :]
    if np.any(np.abs(denom) < 1e-14):
        raise np.linalg.LinAlgError(
            "singular resolvent step at grid index 1: eigenvalue pair of "
            "I/2 + (dt/2) K(0) sums to zero"
        )

    for m in range(1, n):
        # known trapezoid content: j = 0 (half K_m R_0 / R_0 K_m) .. m-1
        left = np.einsum("jab,jbc->ac", K[m:0:-1], R[:m], optimize=True)
        right = np.einsum("jab,jbc->ac", R[:m], K[m:0:-1], optimize=True)
        # the einsums above count j=0 fully; correct to half weight
        known = left + right - 0.5 * (K[m] @ R[0] + R[0] @ K[m])
        C = K[m] - dt * known
        if not np.all(np.isfinite(C)):
            raise np.linalg.LinAlgError(f"singular resolvent step at grid index {m}")
        B = Q.T @ C @ Q
        R[m] = Q @ (B / denom) @ Q.T
    return R


def resolvent_generator(measure: AtomicMatrixMeasure):
    """Generator M, start state s0 and readout C of the resolvent flow of
    the measure's kernel: vec R(t) = C e^{M t} s0 on the row-major state
    (vec z_1, ..., vec z_k, vec w_1, ..., vec w_k), z(0) = 0, w(0) = nu."""
    k, n = measure.k, measure.d * measure.d
    lin, neg_pairing = lift_operator(AtomicMatrixMeasure(measure.nodes, -measure.weights))
    sum_w = np.tile(np.eye(n), (1, k))
    M = np.block([[lin, np.tile(sum_w, (k, 1))],
                  [np.zeros((k * n, k * n)), np.diag(-np.repeat(measure.nodes, n))]])
    start = np.concatenate([np.zeros(k * n), measure.weights.reshape(-1)])
    return M, start, np.hstack([neg_pairing, sum_w])


def atomic_resolvent(measure: AtomicMatrixMeasure, times) -> np.ndarray:
    """The exact resolvent R(t), shape (len(times), d, d), of an atomic kernel."""
    from scipy.linalg import expm  # loaded at first use: slow to import

    M, start, readout = resolvent_generator(measure)
    t = np.asarray(times, dtype=float).reshape(-1)
    return (expm(M * t[:, None, None]) @ start @ readout.T).reshape(-1, measure.d, measure.d)
