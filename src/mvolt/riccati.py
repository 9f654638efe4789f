"""Riccati equations driving the analytic transforms.

Three related solvers live here.

1. The lift ODE for the jump process: node functions y(x_i) evolving as

       dy(x_i)/dt = -x_i y(x_i) + NL(y),
       NL(y) = P(y) + sum_r (exp(Tr(P_eps(y) xi_r)) - 1) mu_r / (||xi_r|| /\\ 1),
       P(y) = sum_j (y(x_j) nu_j + nu_j y(x_j)),

   with P_eps damping nu_j by e^(-x_j eps).  The affine identity
   E[exp(<y_0, lam_t>)] = exp(<y_t, lam_0>) with y_0 == u at every node
   turns the solution into the Laplace transform of V_t.  It is stepped on
   the flat state vec(y) in R^(k d^2) by fourth-order exponential time
   differencing (Cox-Matthews), which applies the exact propagator e^(L h) of
   the constant linear part, so no substep depends on the stiffness.

2. The two-sided matrix Volterra integral equation for the same transform,

       Psi_t = u K(t) + K(t) u + int_0^t (G_s K(t-s) + K(t-s) G_s) ds,

   which is what the mild form of the lift ODE projects to (G_s is NL(Psi_s)
   with the jump leg read off the eps-shifted kernel).  It is marched with
   left-point quadrature on the k node states of K = sum_i e^(-x_i t) nu_i,
   so the history sums cost O(N k).  The end node states y_N = e^(-x t) u
   + dt sum_{j<N} e^(-x (t - t_j)) G_j pair with lam0 to
   Tr(u h(t)) + int_0^t Tr(G_s h(t-s)) ds, h(s) = sum_i e^(-x_i s) lam0(x_i),
   so the transform value is the same pairing as the lift's,

       E[exp(Tr(u V_t))] = exp(<y_N, lam0>).

   Both jump-lift routes step on the thinning engine's own node operators,
   built once per solve: the linear part L of :func:`jumps.lift_operator`,
   which :class:`jumps.LinearFlow` propagates transposed, and the jump leg
   W (e^(A y) - 1) with A and W from :func:`jumps.jump_operators`.

3. The joint Riccati for the squared-Gaussian covariance model with a log
   price: node-pair matrices psi(x_i, x_j) with the quadratic interaction
   extended bilinearly from rank-one data, price couplings constant across
   node pairs, phi' = n sum_ij Tr(psi_ij nu_j nu_i), pairing sum_ij
   Tr(psi_ij lam_ji); one kd x kd matrix with constant coefficients, solved
   exactly by its Hamiltonian (Radon) flow map, doubled until it covers t.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .measures import AtomicMatrixMeasure
from .jumps import JumpLiftState, JumpMeasureSpec, jump_operators, lift_operator


# the joint Riccati raises once |Psi| exceeds this after a composition
BLOWUP_LIMIT = 1e8


def _step_sizes(times, n_steps: int) -> np.ndarray:
    """The step dt = t / n_steps of each t in ``times``, as a (T, 1, 1) column."""
    if not n_steps >= 1:
        raise ValueError(f"need n_steps >= 1, got {n_steps}")
    return np.asarray(times, dtype=float).reshape(-1, 1, 1) / n_steps


@np.errstate(over="ignore", invalid="ignore")    # divergence is raised below
def solve_lift_riccati_jump(
    y0: np.ndarray,
    measure: AtomicMatrixMeasure,
    spec: JumpMeasureSpec,
    times: Sequence[float],
    n_steps: int,
) -> np.ndarray:
    """End states of the lift ODE from y0 at each t in ``times``; (T, k, d, d).

    On the flat state y = vec(y_1, ..., y_k) the right-hand side is
    L y + G (e^(A y) - 1), G = 1_k (x) W, with L of :func:`jumps.lift_operator`
    and A, W of :func:`jumps.jump_operators`.  It is stepped by the
    fourth-order exponential time differencing Runge-Kutta scheme of Cox and
    Matthews (2002), which takes L exactly, so one step of h = t / n_steps
    serves whatever the stiffness.  The exponential of the dimensionless
    B = [[L h/2, I, 0, 0], [0, 0, I, 0], [0, 0, 0, I], 0] has the top block
    row [e^(L h/2), phi_1, phi_2, phi_3] (phi_j at L h/2) and its square
    [e^(L h), 2 phi_1, 4 phi_2, 8 phi_3] (phi_j at L h), so no block is
    divided by a power of h; G is folded into the phi products once per
    solve, so a stage costs one expm1(A y) over the atoms and a few small
    matvecs.

    The T marches, each with its own h, run in one loop with stacked (T, n,
    n) operators.  If any leaves the floats, the first such t in order names
    the grid time it diverged before.
    """
    y0 = np.asarray(y0, dtype=complex if np.iscomplexobj(y0) else float)
    k, d = measure.k, measure.d
    if y0.shape != (k, d, d):
        raise ValueError(f"y0 must have shape ({k}, {d}, {d})")
    h = _step_sizes(times, n_steps)
    lin, _ = lift_operator(measure)
    jump_arg, gain = jump_operators(measure, spec)
    n, n_times = lin.shape[0], len(h)
    gain = np.tile(gain, (k, 1))
    aug = np.zeros((n_times, 4 * n, 4 * n))
    aug[:, :n, :n] = lin * (0.5 * h)
    aug[:, np.arange(3 * n), np.arange(n, 4 * n)] = 1.0
    from scipy.linalg import expm  # loaded at first use: slow to import

    half = expm(aug)
    full = half[:, :n] @ half
    # p_j = h phi_j(L h) and q = (h/2) phi_1(L h/2); the propagators act as
    # y + (e^(L s) - I) y with e^(L s) - I = L s phi_1(L s), so that their
    # rounding does not compound over the steps
    q = 0.5 * h * half[:, :n, n:2 * n]
    p1, p2, p3 = (h / 2**j * full[:, :, j * n:(j + 1) * n] for j in range(1, 4))
    grow_half, grow, stage_gain = lin @ q, lin @ p1, q @ gain
    step_gain = np.concatenate([(p1 - 3.0 * p2 + 4.0 * p3) @ gain,
                                2.0 * (p2 - 2.0 * p3) @ gain,
                                (4.0 * p3 - p2) @ gain], axis=2)

    # y stacks one column per t, (T, n, 1).  Each step adds to y itself, so
    # an entry that left the floats stays inf or nan, and the first step at
    # which a column holds one is where its march diverged
    y = np.tile(y0.reshape(n, 1), (n_times, 1, 1))
    blown = np.full(n_times, -1)
    for m in range(n_steps + 1):
        if m:
            ny = np.expm1(jump_arg @ y)
            ey = y + grow_half @ y
            a = ey + stage_gain @ ny
            na = np.expm1(jump_arg @ a)
            b = ey + stage_gain @ na
            nb = np.expm1(jump_arg @ b)
            c = a + grow_half @ a + stage_gain @ (2.0 * nb - ny)
            nc = np.expm1(jump_arg @ c)
            y = y + grow @ y + step_gain @ np.concatenate([ny, na + nb, nc], axis=1)
        if not np.isfinite(y).all():
            blown[(blown < 0) & ~np.isfinite(y).all(axis=(1, 2))] = m
    if (blown >= 0).any():
        j = int(np.flatnonzero(blown >= 0)[0])
        raise FloatingPointError(
            f"lift Riccati diverged before t = {blown[j] * h[j, 0, 0]:.6g}")
    return y.reshape((n_times,) + y0.shape)


def pairing_value(y: np.ndarray, lam0: np.ndarray) -> float:
    """<y, lam0> = sum_i Tr(y(x_i) lam0(x_i))."""
    return float(np.einsum("iab,iba->", y, np.asarray(lam0)).real)


def solve_volterra_riccati_jump(
    y0: np.ndarray,
    measure: AtomicMatrixMeasure,
    spec: JumpMeasureSpec,
    times: Sequence[float],
    n_steps: int,
) -> np.ndarray:
    """End node states of the two-sided Volterra march at each t in ``times``.

    Psi_t     = u K(t) + K(t) u + int_0^t (G_s K(t-s) + K(t-s) G_s) ds,
    Psi^eps_t = the same with K(. + eps),
    G_s       = Psi_s + sum_r (exp(Tr(Psi^eps_s xi_r)) - 1) mu_r / (||xi_r|| /\\ 1),

    with left-point quadrature (O(dt)), dt = t / n_steps.  K = sum_i e^(-x_i
    t) nu_i, so the data and the history sum are carried by k node states
    y_i(t_m) = e^(-x_i t_m) y0_i + dt sum_{j<m} e^(-x_i (t_m - t_j)) G_j,
    updated as y_i <- e^(-x_i dt) (y_i + dt G_m); Psi = sum_i (y_i nu_i + nu_i
    y_i) and Psi^eps weights node i by e^(-x_i eps).  With y0 == u at every
    node these are the states of the lift ODE's mild form.  With an empty
    jump measure G is Psi itself.  The T marches, each with its own decay,
    run in one loop on (T, k, d^2) node states; returns y(t), (T, k, d, d).
    """
    y0 = np.asarray(y0, dtype=float)
    k, d = measure.k, measure.d
    if y0.shape != (k, d, d):
        raise ValueError(f"y0 must have shape ({k}, {d}, {d})")
    dt = _step_sizes(times, n_steps)
    _, pairing = lift_operator(measure)
    jump_arg, gain = jump_operators(measure, spec)
    pairing, jump_arg, gain = pairing.T, jump_arg.T, gain.T     # act on rows
    decay = np.exp(-measure.nodes[:, None] * dt)
    y = np.tile(y0.reshape(k, d * d), (len(dt), 1, 1))
    for _ in range(n_steps):
        flat = y.reshape(len(dt), 1, -1)
        y = decay * (y + dt * (flat @ pairing + (np.exp(flat @ jump_arg) - 1.0) @ gain))
    return y.reshape((len(dt),) + y0.shape)


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
    t: float | Sequence[float],
    n_steps: int = 400,
) -> JumpLaplaceResult | list[JumpLaplaceResult]:
    """Laplace transform of V_t for NSD u through both analytic routes.

    Both routes start from y0 == u at every node and march node states to
    t in n_steps steps; each value is exp(<y_t, lam_0>) of its end state.
    Route one integrates the lift ODE.  Route two marches the symmetrized
    Volterra system (:func:`solve_volterra_riccati_jump`), whose end state
    pairs to Tr(u h(t)) + int_0^t Tr(G_s h(t-s)) ds with left-point
    quadrature, h(s) = sum_i e^(-x_i s) lam_0(x_i), where G_s collects the
    linear pairing and the jump nonlinearity.  A positive epsilon shift
    replaces the jump-leg kernel by K(. + eps); with eps = 0 the system
    collapses to the single symmetrized equation.  Values lie in (0, 1]; the
    route discrepancy shrinks linearly in the step.

    ``t`` may be a 1-D sequence: every t keeps its own step t / n_steps,
    both routes march all of them in one loop each, and the result is one
    :class:`JumpLaplaceResult` per t, in order.  u must be a finite NSD d x
    d matrix, every t finite and positive, lam0 a valid
    :class:`jumps.JumpLiftState` and n_steps at least 1; all are checked
    before either march.
    """
    lam0 = JumpLiftState(lam0, measure).lam
    u = np.asarray(u, dtype=float)
    d = measure.d
    if u.shape != (d, d):
        raise ValueError(f"transform argument u must be {d} x {d}, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("transform argument u must be finite")
    if np.linalg.eigvalsh(0.5 * (u + u.T))[-1] > 1e-12:
        raise ValueError("transform argument u must be negative semidefinite")
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError(f"transform time t must be a float or a 1-D sequence, "
                         f"got shape {ts.shape}")
    times = ts.reshape(-1)
    for ti in times:
        if not 0.0 < ti < np.inf:
            raise ValueError(f"transform time t must be positive and finite, got {ti}")
    if not times.size:
        return []

    y0 = np.broadcast_to(u, (measure.k, d, d))
    lift = solve_lift_riccati_jump(y0, measure, spec, times, n_steps)
    volterra = solve_volterra_riccati_jump(y0, measure, spec, times, n_steps)
    results = [JumpLaplaceResult(lift_value=float(np.exp(pairing_value(y, lam0))),
                                 volterra_value=float(np.exp(pairing_value(z, lam0))))
               for y, z in zip(lift, volterra)]
    return results[0] if ts.ndim == 0 else results


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
    The map of H over t / 2^J, J = ceil(log2 max(n_steps, 2 rate t, 1)) with
    rate the growth bound below, is doubled J times to reach t (``n_steps``
    is a floor on 2^J), and the result is exp(-(n/2)(log det X + t Tr A) -
    Tr(Psi Lambda) + w^T P_0), Lambda_ij = gamma0_i^T gamma0_j.  A doubling
    (or the application to psi0) at which det X turns by over a quarter turn,
    log det X is not finite or |Psi| exceeds ``BLOWUP_LIMIT`` raises.
    Raises ValueError unless 0 <= t < inf and n_steps >= 1.
    """
    if not (0.0 <= t < np.inf and n_steps >= 1):
        raise ValueError(f"need 0 <= t < inf and n_steps >= 1, got t = {t}, "
                         f"n_steps = {n_steps}")
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

    # The map over a span s takes psi to P + R^T psi (I + Q psi)^-1 R, R =
    # S11^-1, P = S21 R, Q = R S12 (S = exp(H s)), and multiplies det X by
    # det S11 det(I + Q psi).  S11 grows as e^(x s) on a node x, so the base
    # span keeps |S - I| <= e^(1/2) - 1 (rate bounds the growth by the 1-norm
    # of H balanced by diag(I, I / c)).
    norms = [np.linalg.norm(a, o, axis=(1, 2)).max(initial=0.0) for a, o in
             ((A, 1), (A, np.inf), (ham[:, :kd, kd:], 1), (ham[:, kd:, :kd], 1))]
    rate = max(norms[:2]) + np.sqrt(norms[2] * norms[3])
    J = int(np.ceil(np.log2(max(n_steps, 2.0 * rate * t, 1.0))))
    from scipy.linalg import expm  # loaded at first use: slow to import

    S = expm(ham * (t / 2**J))
    R = np.linalg.inv(S[:, :kd, :kd])
    P, Q = S[:, kd:, :kd] @ R, R @ S[:, :kd, kd:]
    ell, turn = _logdet(S[:, :kd, :kd])
    _check_span(t / 2**J, turn, ell, P, n_steps)
    for m in range(J - 1, -1, -1):
        W = np.linalg.inv(np.eye(kd) + Q @ P)
        RW, Rt = R @ W, R.swapaxes(1, 2)
        P, Q, R = P + Rt @ P @ W @ R, Q + RW @ Q @ Rt, RW @ R
        log_w, turn = _logdet(W)
        ell = 2.0 * ell - log_w
        _check_span(t / 2**m, turn, ell, P, n_steps)
    if psi0 is not None:     # from psi = 0, Psi is P
        psi = np.broadcast_to(psi0, (B, k, k, d, d)).transpose(0, 1, 3, 2, 4).reshape(B, kd, kd)
        G = np.eye(kd) + psi @ Q      # det(I + psi Q) = det(I + Q psi)
        log_g, turn = _logdet(G)
        P, ell = P + R.swapaxes(1, 2) @ (np.linalg.inv(G) @ psi) @ R, ell + log_g
        _check_span(t, turn, ell, P, n_steps)
    lam0 = np.einsum("ina,jnb->iajb", gamma0, gamma0).reshape(kd, kd)
    phi = 0.5 * gamma0.shape[1] * (ell + t * np.trace(A, axis1=1, axis2=2))
    shift = 0.0 if p0 is None else w @ np.asarray(p0, dtype=float)
    char = np.exp(-phi - np.einsum("bxy,yx->b", P, lam0) + shift)
    psi = P.reshape(B, k, d, k, d).transpose(0, 1, 3, 2, 4)
    return JointRiccatiResult(phi=phi, psi=psi, char=char)


def _check_span(span: float, turn: float, logdet, psi, n_steps: int) -> None:
    """Raise unless the map over ``span`` kept the branch and stayed bounded."""
    size = float(np.max(np.abs(psi), initial=0.0))
    if turn > 0.5 * np.pi or not (np.all(np.isfinite(logdet)) and size <= BLOWUP_LIMIT):
        raise FloatingPointError(f"joint Riccati blow-up before t = {span:.6g} (det X turned "
                                 f"by {turn:.3g} rad, |psi| = {size:.3g}; n_steps = {n_steps})")


def _logdet(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Principal log det of each matrix and the largest |arg det|."""
    sign, logabs = np.linalg.slogdet(a)
    angle = np.angle(sign)
    return logabs + 1j * angle, float(np.max(np.abs(angle), initial=0.0))
