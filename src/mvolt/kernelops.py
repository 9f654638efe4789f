"""Grid convolution and the symmetrized resolvent of the second kind.

Matrix kernels sampled on a uniform grid are convolved with Simpson's
rule.  The resolvent R of a kernel K solves

    K * R + R * K = K - R,

where ``*`` is the time convolution (f * g)(t) = int_0^t f(t-s) g(s) ds.
Because the unknown enters linearly on both sides of a matrix product, each
time step of the implicit scheme is a small Sylvester equation
A R_m + R_m A = C with A = I/2 + (dt/2) K(0), which is always solvable for
small dt since K(0) is symmetric.
"""

from __future__ import annotations

import numpy as np

from .measures import TimeGrid


def _check_samples(f: np.ndarray, grid: TimeGrid, name: str) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.ndim != 3 or f.shape[0] != len(grid):
        raise ValueError(
            f"{name} must be sampled on the grid with shape (N+1, ., .), "
            f"got {f.shape} for {len(grid)} grid points"
        )
    return f


def convolve_simpson(f: np.ndarray, g: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Simpson discretization of (f * g)(t) = int_0^t f(t-s) g(s) ds.

    ``f`` and ``g`` are matrix samples of shape (N+1, a, b) and (N+1, b, c);
    the result has shape (N+1, a, c) with a zero first entry.  Composite
    Simpson on even prefixes; odd prefixes finish with one trapezoid panel.
    First two entries fall back to the trapezoid value.
    """
    f = _check_samples(f, grid, "f")
    g = _check_samples(g, grid, "g")
    if f.shape[2] != g.shape[1]:
        raise ValueError(f"inner matrix dimensions differ: {f.shape} vs {g.shape}")
    n = len(grid)
    dt = grid.dt
    out = np.zeros((n, f.shape[1], g.shape[2]))
    for m in range(1, n):
        h = np.einsum("jab,jbc->jac", f[m::-1][: m + 1], g[: m + 1], optimize=True)
        if m == 1:
            out[m] = 0.5 * dt * (h[0] + h[1])
            continue
        acc = np.zeros_like(h[0])
        j = 0
        while m - j >= 2:
            acc += (dt / 3.0) * (h[j] + 4.0 * h[j + 1] + h[j + 2])
            j += 2
        if m - j == 1:
            acc += 0.5 * dt * (h[j] + h[j + 1])
        out[m] = acc
    return out


def resolvent_second_kind(K: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Solve K*R + R*K = K - R on the grid by implicit trapezoid stepping.

    K is sampled at the grid points, the t=0 value being the right limit
    K(0+).  Returns R sampled on the same grid with R(0) = K(0).  Each step
    solves the Sylvester system A R_m + R_m A = C with A = I/2 + (dt/2) K_0
    via the eigendecomposition of the symmetric A; a step where an
    eigenvalue pair sums to zero is reported with its grid index.
    """
    K = _check_samples(K, grid, "K")
    d = K.shape[1]
    if K.shape[2] != d:
        raise ValueError("resolvent needs square matrix samples")
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


def resolvent_residual(K: np.ndarray, R: np.ndarray, grid: TimeGrid) -> float:
    """Sup-norm residual of K*R + R*K - (K - R), convolved with Simpson's rule.

    The quadrature differs from the solver's trapezoid rule on purpose, so
    the residual reflects genuine discretization error instead of the
    scheme's own fixed point.
    """
    lhs = convolve_simpson(K, R, grid) + convolve_simpson(R, K, grid)
    rhs = K - R
    return float(np.max(np.abs(lhs - rhs)))
