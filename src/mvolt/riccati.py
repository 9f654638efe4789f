"""Riccati equations driving the analytic transforms.

Three related solvers live here.

1. The lift ODE for the jump process: node functions y(x_i) evolving as

       dy(x_i)/dt = -x_i y(x_i) + NL(y),
       NL(y) = P(y) + sum_r (exp(Tr(P_eps(y) xi_r)) - 1) mu_r / (||xi_r|| /\\ 1),
       P(y) = sum_j (y(x_j) nu_j + nu_j y(x_j)),

   with P_eps damping nu_j by e^(-x_j eps).  The affine identity
   E[exp(<y_0, lam_t>)] = exp(<y_t, lam_0>) with y_0 == u at every node
   turns the solution into the Laplace transform of V_t.  It is integrated
   by RK4 on the flat state vec(y) in R^(k d^2).

2. The two-sided matrix Volterra integral equation for the same transform,

       Psi_t = u K(t) + K(t) u + int_0^t (G_s K(t-s) + K(t-s) G_s) ds,

   which is what the mild form of the lift ODE projects to (G_s is NL(Psi_s)
   with the jump leg read off the eps-shifted kernel).  It is marched with
   left-point quadrature on the k node states of K = sum_i e^(-x_i t) nu_i,
   so the history sums cost O(N k), and the transform value is

       E[exp(Tr(u V_t))] = exp(Tr(u h(t)) + int_0^t Tr(G_s h(t-s)) ds).

   Both jump-lift routes step on node operators built once per solve
   (:func:`_lift_operators`): the linear part is one (k d^2)-square matrix,
   the jump leg one exponential per atom between two small matrices.

3. The joint Riccati for the squared-Gaussian covariance model with a log
   price: node-pair matrices psi(x_i, x_j) with the quadratic interaction
   extended bilinearly from rank-one data, price couplings constant across
   node pairs, phi' = n sum_ij Tr(psi_ij nu_j nu_i), pairing sum_ij
   Tr(psi_ij lam_ji); stacked into one kd x kd matrix it has constant
   coefficients and is solved exactly through its Hamiltonian (Radon).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .measures import AtomicMatrixMeasure, TimeGrid
from .jumps import JumpMeasureSpec

RK4_FACTOR = 0.025


def nonlinearity_R(u: np.ndarray, spec: JumpMeasureSpec) -> np.ndarray:
    """NL(u) = u + sum_r (exp(Tr(u xi_r)) - 1) mu_r / (||xi_r|| /\\ 1)."""
    u = np.asarray(u)
    xi, gain = _jump_operators(spec, u.shape[-1])
    return u + (gain @ (np.exp(xi @ u.ravel()) - 1.0)).reshape(u.shape)


def _jump_operators(spec: JumpMeasureSpec, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Xi (R, d^2) and W (d^2, R) on row-major vec: Xi vec(u) = (Tr(u xi_r))_r,
    column r of W is vec(mu_r) / (||xi_r|| /\\ 1); both empty without atoms."""
    r = spec.n_atoms
    xi = spec.atoms.transpose(0, 2, 1).reshape(r, d * d)
    scale = np.minimum(spec.atom_norms(), 1.0).clip(min=1e-300)
    return xi, (spec.weights.reshape(r, d * d) / scale[:, None]).T


def _pairing_operator(weights: np.ndarray) -> np.ndarray:
    """(d^2, k d^2) matrix of y -> sum_j (y_j w_j + w_j y_j) on row-major vec."""
    eye = np.eye(weights.shape[-1])
    return np.hstack([np.kron(eye, w.T) + np.kron(w, eye) for w in weights])


def _lift_operators(measure: AtomicMatrixMeasure, spec: JumpMeasureSpec):
    """The jump lift's node operators (L, P, A, W) on y = vec(y_1, ..., y_k).

    P (d^2, k d^2) is the pairing y -> sum_j (y_j nu_j + nu_j y_j), L = -diag(x_i)
    (x) I + 1_k (x) P, A = Xi P_eps (R, k d^2) maps y to (Tr(P_eps(y) xi_r))_r
    with P_eps damping nu_j by e^(-x_j eps), and W (d^2, R) carries the scaled
    jump weights, so that NL(P_eps y) - P_eps y = W (e^(A y) - 1).
    """
    k, n = measure.k, measure.d * measure.d
    damp = np.exp(-measure.nodes * spec.epsilon_shift)
    xi, gain = _jump_operators(spec, measure.d)
    pairing = _pairing_operator(measure.weights)
    lin = np.tile(pairing, (k, 1))
    lin[np.diag_indices(k * n)] -= np.repeat(measure.nodes, n)
    jump_arg = xi @ _pairing_operator(damp[:, None, None] * measure.weights)
    return lin, pairing, jump_arg, gain


@np.errstate(over="ignore", invalid="ignore")    # divergence is raised below
def solve_lift_riccati_jump(
    y0: np.ndarray,
    measure: AtomicMatrixMeasure,
    spec: JumpMeasureSpec,
    grid: TimeGrid,
) -> np.ndarray:
    """RK4 trajectory of the lift ODE; returns (N+1, k, d, d) samples.

    On the flat state y = vec(y_1, ..., y_k) the right-hand side is
    L y + 1_k (x) W (e^(A y) - 1), with the operators of :func:`_lift_operators`
    built once per solve.  Substeps are capped against the stiffness scale
    max x_i + 2 ||sum nu_i|| so the stated fourth-order accuracy holds for any
    grid step.
    """
    y0 = np.asarray(y0, dtype=complex if np.iscomplexobj(y0) else float)
    k, d = measure.k, measure.d
    if y0.shape != (k, d, d):
        raise ValueError(f"y0 must have shape ({k}, {d}, {d})")
    scale = float(measure.nodes[-1]) + 2.0 * float(
        np.linalg.norm(measure.weights.sum(axis=0), 2)
    )
    cap = RK4_FACTOR / scale if scale > 0 else grid.dt
    n_sub = max(int(np.ceil(grid.dt / min(cap, grid.dt))), 1)
    h = grid.dt / n_sub
    lin, _, jump_arg, gain = _lift_operators(measure, spec)
    gain = np.tile(gain, (k, 1))

    def rhs(y):
        return lin @ y + gain @ (np.exp(jump_arg @ y) - 1.0)

    out = np.empty((len(grid), k * d * d), dtype=y0.dtype)
    out[0] = y = y0.ravel()
    for m in range(1, len(grid)):
        for _ in range(n_sub):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise FloatingPointError(
                f"lift Riccati diverged before t = {grid.times[m]:.6g}"
            )
        out[m] = y
    return out.reshape((len(grid),) + y0.shape)


def pairing_value(y: np.ndarray, lam0: np.ndarray) -> float:
    """<y, lam0> = sum_i Tr(y(x_i) lam0(x_i))."""
    return float(np.einsum("iab,iba->", y, np.asarray(lam0)).real)


def solve_volterra_riccati_jump(
    u: np.ndarray,
    measure: AtomicMatrixMeasure,
    spec: JumpMeasureSpec,
    grid: TimeGrid,
) -> np.ndarray:
    """March the two-sided Volterra system; returns G on the grid, (N+1, d, d).

    Psi_t     = u K(t) + K(t) u + int_0^t (G_s K(t-s) + K(t-s) G_s) ds,
    Psi^eps_t = the same with K(. + eps),
    G_s       = Psi_s + sum_r (exp(Tr(Psi^eps_s xi_r)) - 1) mu_r / (||xi_r|| /\\ 1),

    with left-point quadrature (O(dt)).  K = sum_i e^(-x_i t) nu_i, so the
    data and the history sum are carried by k node states
    y_i(t_m) = e^(-x_i t_m) u + dt sum_{j<m} e^(-x_i (t_m - t_j)) G_j,
    updated as y_i <- e^(-x_i dt) (y_i + dt G_{m-1}); then Psi = sum_i (y_i
    nu_i + nu_i y_i) and Psi^eps weights node i by e^(-x_i eps).  With an
    empty jump measure G is Psi itself.
    """
    u = np.asarray(u, dtype=float)
    k, d = measure.k, measure.d
    if u.shape != (d, d):
        raise ValueError(f"u must be ({d}, {d})")
    _, pairing, jump_arg, gain = _lift_operators(measure, spec)
    decay = np.exp(-measure.nodes * grid.dt)[:, None]
    y = np.tile(u.ravel(), (k, 1))
    g = np.empty((len(grid), d * d))
    for m in range(len(grid)):
        if m:
            y = decay * (y + grid.dt * g[m - 1])
        flat = y.ravel()
        g[m] = pairing @ flat + gain @ (np.exp(jump_arg @ flat) - 1.0)
    return g.reshape(len(grid), d, d)


def h_curve(lam0: np.ndarray, measure: AtomicMatrixMeasure, times) -> np.ndarray:
    """h(t) = sum_i e^(-x_i t) lam0(x_i) on the given times."""
    times = np.asarray(times, dtype=float)
    damp = np.exp(-np.multiply.outer(times, measure.nodes))
    return np.einsum("ti,iab->tab", damp, np.asarray(lam0))


@dataclass(frozen=True)
class JumpLaplaceResult:
    """Both analytic routes to E[exp(Tr(u V_t))] and their gap."""

    lift_value: float
    volterra_value: float

    @property
    def discrepancy(self) -> float:
        ref = max(abs(self.lift_value), abs(self.volterra_value), 1e-300)
        return abs(self.lift_value - self.volterra_value) / ref


def laplace_transform_jump(
    u: np.ndarray,
    lam0: np.ndarray,
    measure: AtomicMatrixMeasure,
    spec: JumpMeasureSpec,
    t: float,
    n_steps: int = 400,
) -> JumpLaplaceResult:
    """Laplace transform of V_t for NSD u through both analytic routes.

    Route one integrates the lift ODE and evaluates exp(<y_t, lam_0>).
    Route two marches the symmetrized Volterra system
    (:func:`solve_volterra_riccati_jump`) and evaluates
    exp(Tr(u h(t)) + int_0^t Tr(G_s h(t-s)) ds) with left-point quadrature,
    where G_s collects the linear pairing and the jump nonlinearity.  A
    positive epsilon shift replaces the jump-leg kernel by K(. + eps); with
    eps = 0 the system collapses to the single symmetrized equation.
    Values lie in (0, 1]; the route discrepancy shrinks linearly in the
    grid step.
    """
    u = np.asarray(u, dtype=float)
    d = measure.d
    if np.linalg.eigvalsh(0.5 * (u + u.T))[-1] > 1e-12:
        raise ValueError("transform argument u must be negative semidefinite")
    grid = TimeGrid.regular(t, n_steps)
    lam0 = np.asarray(lam0, dtype=float)

    y0 = np.broadcast_to(u, (measure.k, d, d)).copy()
    y_traj = solve_lift_riccati_jump(y0, measure, spec, grid)
    lift_value = float(np.exp(pairing_value(y_traj[-1], lam0)))

    g = solve_volterra_riccati_jump(u, measure, spec, grid)
    h = h_curve(lam0, measure, grid.times)
    integ = grid.dt * float(np.einsum("jab,jba->", g[:-1], h[:0:-1], optimize=True))
    volterra_value = float(np.exp(float(np.einsum("ab,ba->", u, h[-1])) + integ))
    return JumpLaplaceResult(lift_value=lift_value, volterra_value=volterra_value)


@dataclass(frozen=True)
class JointRiccatiResult:
    """phi, node-pair psi and the assembled characteristic exponent."""

    phi: np.ndarray          # (B,) complex
    psi: np.ndarray          # (B, k, k, d, d) complex
    char: np.ndarray         # (B,) complex, exp(-phi - <psi, lam0> + w^T P0)


def solve_joint_riccati_heston(
    w: np.ndarray,
    measure: AtomicMatrixMeasure,
    gamma0: np.ndarray,
    rho: np.ndarray,
    t: float,
    price_jump_atoms: np.ndarray | None = None,
    price_jump_weights: np.ndarray | None = None,
    p0: np.ndarray | None = None,
    n_steps: int = 400,
    blowup_limit: float = 1e8,
    psi0: np.ndarray | None = None,
) -> JointRiccatiResult:
    """Joint transform E[exp(-<psi_0, lam_t> + w^T P_t)], batched over w.

    ``w`` has shape (B, d) (one row per transform argument; pass i*v for the
    characteristic function).  Stacked into one kd x kd matrix, the node
    pairs solve Psi' = A^T Psi + Psi A - 2 Psi M M^T Psi + E C E^T (M stacks
    the nu_i, E stacks k identities, A = -diag(x_i) (x) I + M rho w^T E^T,
    C = diag(w)/2 - w w^T/2 plus the symmetrized price-jump terms), exactly:
    Psi = Y X^-1 with [X; Y]' = H [X; Y], H = [[-A, 2 M M^T], [E C E^T, A^T]],
    from [I; psi0] (psi0 zero by default, giving the price characteristic
    function; a block c^T c at every pair transforms the covariance itself).
    The step map of H over t / n_steps carries Psi across ``n_steps``
    checkpoints, which follow the branch of log det X, and the result is
    exp(-(n/2)(log det X + t Tr A) - Tr(Psi Lambda) + w^T P_0), Lambda_ij =
    gamma0_i^T gamma0_j.  The first checkpoint at which X is singular, det X
    turns by over a quarter turn or |Psi| exceeds ``blowup_limit`` raises.
    """
    w = np.atleast_2d(np.asarray(w, dtype=complex))
    k, d = measure.k, measure.d
    kd, B = k * d, w.shape[0]
    gamma0 = np.asarray(gamma0, dtype=float)

    const = 0.5 * (np.einsum("bx,xy->bxy", w, np.eye(d))
                   - np.einsum("bx,by->bxy", w, w))
    if price_jump_atoms is not None and len(price_jump_atoms):
        xi, mw = np.asarray(price_jump_atoms), np.asarray(price_jump_weights)
        gain = w @ (np.exp(xi) - 1.0 - xi).T - (np.exp(w @ xi.T) - 1.0 - w @ xi.T)
        const += np.einsum("bj,jxy->bxy", gain, 0.5 * (mw + mw.swapaxes(1, 2)))
    M = measure.weights.reshape(kd, d)
    A = np.einsum("x,by->bxy", M @ np.asarray(rho, dtype=float), np.tile(w, k))
    A[:, np.arange(kd), np.arange(kd)] -= np.repeat(measure.nodes, d)
    ham = np.block([[-A, np.broadcast_to(2.0 * M @ M.T, A.shape)],
                    [np.tile(const, (k, k)), A.swapaxes(1, 2)]])

    # The step maps psi to P + R^T psi (I + Q psi)^-1 R, R = S11^-1, P = S21 R,
    # Q = R S12, and multiplies det X by det S11 det(I + Q psi).  S11 grows
    # as e^(x h) on a node x, so the map is built from exp(H h / 2^j), where
    # |S - I| <= e^(1/2) - 1 (the growth rate bounded by the 1-norm of H
    # balanced by diag(I, I / c)), and composed with itself j times.
    h = t / n_steps
    norms = [np.linalg.norm(a, o, axis=(1, 2)).max(initial=0.0) for a, o in
             ((A, 1), (A, np.inf), (ham[:, :kd, kd:], 1), (ham[:, kd:, :kd], 1))]
    rate = max(norms[:2]) + np.sqrt(norms[2] * norms[3])
    j = int(np.ceil(np.log2(max(2.0 * rate * h, 1.0))))
    S = scipy.linalg.expm(ham * (h / 2**j))
    R = np.linalg.inv(S[:, :kd, :kd])
    P, Q = S[:, kd:, :kd] @ R, R @ S[:, :kd, kd:]
    ell, step_turn = _logdet(S[:, :kd, :kd])
    for _ in range(j):
        W = np.linalg.inv(np.eye(kd) + Q @ P)
        RW, Rt = R @ W, R.swapaxes(1, 2)
        P, Q, R = P + Rt @ P @ W @ R, Q + RW @ Q @ Rt, RW @ R
        log_w, turn = _logdet(W)
        ell, step_turn = 2.0 * ell - log_w, max(step_turn, turn)
    Rt = R.swapaxes(1, 2).copy()

    psi = np.broadcast_to(0.0 if psi0 is None else psi0, (B, k, k, d, d))
    psi = psi.transpose(0, 1, 3, 2, 4).reshape(B, kd, kd).astype(complex)
    logdet = n_steps * ell
    for m in range(1, n_steps + 1):
        G = np.eye(kd) + psi @ Q      # det(I + psi Q) = det(I + Q psi)
        log_g, turn = _logdet(G)
        finite = np.all(np.isfinite(log_g))
        psi = P + Rt @ (np.linalg.inv(G) @ psi) @ R if finite else psi + np.inf
        turn, size = max(turn, step_turn), float(np.max(np.abs(psi), initial=0.0))
        if turn > 0.5 * np.pi or not size <= blowup_limit:
            raise FloatingPointError(
                f"joint Riccati blow-up at t = {m * h:.6g} (det X turned by "
                f"{turn:.3g} rad, |psi| = {size:.3g}; n_steps = {n_steps})"
            )
        logdet += log_g
    lam0 = np.einsum("ina,jnb->iajb", gamma0, gamma0).reshape(kd, kd)
    phi = 0.5 * gamma0.shape[1] * (logdet + t * np.trace(A, axis1=1, axis2=2))
    shift = 0.0 if p0 is None else w @ np.asarray(p0, dtype=float)
    char = np.exp(-phi - np.einsum("bxy,yx->b", psi, lam0) + shift)
    psi = psi.reshape(B, k, d, k, d).transpose(0, 1, 3, 2, 4)
    return JointRiccatiResult(phi=phi, psi=psi, char=char)


def _logdet(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Principal log det of each matrix and the largest |arg det|."""
    sign, logabs = np.linalg.slogdet(a)
    angle = np.angle(sign)
    return logabs + 1j * angle, float(np.max(np.abs(angle), initial=0.0))
