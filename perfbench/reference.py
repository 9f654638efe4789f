"""Reference values computed apart from the program.

Every function here takes plain model data (nodes, weights, initial lift
data, arguments) and recomputes a quantity that ``mvolt`` also computes, by
a route the program does not take.  Nothing is imported from ``mvolt``, so
a fault in the program cannot leak into the value it is checked against.

- Wishart transform and mean: Q_t = int_0^t K(s)^2 ds by Gauss-Legendre
  quadrature of the kernel on a geometric panel split, in place of the
  closed-form pair decay integrals.
- Joint characteristic function: the stacked kd x kd matrix Riccati equation
  solved exactly through the exponential of its 2kd x 2kd Hamiltonian
  (Radon's lemma), in place of the program's batched node-pair RK4.
- Hawkes expected counts: the linear mean ODE of the jump lift (drift plus
  compensated jump rate), solved with ``expm``.
- Jump-lift Laplace transform: the lift Riccati ODE written from the
  generator, solved by DOP853 at tight tolerance.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm


def kernel_values(nodes, weights, s) -> np.ndarray:
    """K(s) = sum_i w_i exp(-x_i s) at each s, shape (len(s), d, d)."""
    damp = np.exp(-np.outer(np.asarray(s, dtype=float), nodes))
    return np.einsum("si,iab->sab", damp, weights)


def kernel_square_integral(nodes, weights, t: float, n_gauss: int = 40) -> np.ndarray:
    """Q_t = int_0^t K(s)^2 ds by quadrature of the kernel itself.

    The panels [t 2^-(m+1), t 2^-m] resolve every node scale from 1/t down
    to 2^60/t with the same relative accuracy; the first panel [0, t 2^-60]
    is too short to matter.
    """
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    edges = np.concatenate([[0.0], float(t) * 2.0 ** -np.arange(60, -1, -1)])
    x, w = np.polynomial.legendre.leggauss(n_gauss)
    lo, hi = edges[:-1, None], edges[1:, None]
    s = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x[None, :]
    ws = 0.5 * (hi - lo) * w[None, :]
    K = kernel_values(nodes, weights, s.ravel())
    return np.einsum("s,sab,sbc->ac", ws.ravel(), K, K)


def _initial_mean(nodes, gamma0, t: float) -> np.ndarray:
    """H_t = sum_i exp(-x_i t) gamma0_i, the mean of the OU projection."""
    return np.einsum("i,ina->na", np.exp(-np.asarray(nodes) * t), gamma0)


def wishart_mean(nodes, weights, gamma0, t: float) -> np.ndarray:
    """E[V_t] = H_t^T H_t + n Q_t for V = X^T X with n i.i.d. Gaussian rows."""
    gamma0 = np.asarray(gamma0, dtype=float)
    H = _initial_mean(nodes, gamma0, t)
    return H.T @ H + gamma0.shape[1] * kernel_square_integral(nodes, weights, t)


def wishart_laplace(nodes, weights, gamma0, c, t: float) -> float:
    """E[exp(-Tr(c^T c V_t))]: each row z ~ N(m, Q_t) gives
    det(I + 2 Q U)^(-1/2) exp(-m^T U (I + 2 Q U)^(-1) m), U = c^T c."""
    gamma0 = np.asarray(gamma0, dtype=float)
    c = np.asarray(c, dtype=float)
    U = c.T @ c
    Q = kernel_square_integral(nodes, weights, t)
    H = _initial_mean(nodes, gamma0, t)
    M = np.eye(U.shape[0]) + 2.0 * Q @ U
    sign, logdet = np.linalg.slogdet(M)
    if sign <= 0.0:
        raise ValueError("I + 2 Q U is not positive definite")
    quad = float(np.trace(H @ np.linalg.solve(M.T, U).T @ H.T))
    return float(np.exp(-0.5 * gamma0.shape[1] * logdet - quad))


def stacked_riccati_coefficients(nodes, weights, rho, w):
    """A, M M^T and E C E^T of Psi' = A^T Psi + Psi A - 2 Psi M M^T Psi + E C E^T.

    M stacks the nu_i, E stacks k copies of I_d, D = diag(x_i) (x) I_d,
    C = diag(w)/2 - w w^T/2 and A = -D + M rho w^T E^T, for w = i v.
    """
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    k, d = weights.shape[0], weights.shape[2]
    M = weights.reshape(k * d, d)
    E = np.tile(np.eye(d), (k, 1))
    D = np.kron(np.diag(nodes), np.eye(d))
    C = 0.5 * np.diag(w) - 0.5 * np.outer(w, w)
    A = -D + np.outer(M @ np.asarray(rho, dtype=float), E @ w)
    return A, M @ M.T, E @ C @ E.T


def initial_pairing_matrix(gamma0) -> np.ndarray:
    """Lambda with block (i, j) = gamma0_i^T gamma0_j, so <Psi, lam0> = Tr(Psi Lambda)."""
    gamma0 = np.asarray(gamma0, dtype=float)
    k, n, d = gamma0.shape
    G = gamma0.transpose(1, 0, 2).reshape(n, k * d)
    return G.T @ G


def heston_charfn(nodes, weights, gamma0, rho, p0, v, t: float,
                  n_branch: int = 256) -> complex:
    """E[exp(i v^T P_t)] from the exact solution of the stacked Riccati.

    With [X; Y]' = [[-A, 2 M M^T], [E C E^T, A^T]] [X; Y], X(0) = I and
    Y(0) = 0, Psi = Y X^(-1) and phi = (n/2)(log det X + t Tr A).  The branch
    of log det X is followed along ``n_branch`` points of [0, t].
    """
    w = 1j * np.asarray(v, dtype=complex)
    gamma0 = np.asarray(gamma0, dtype=float)
    n = gamma0.shape[1]
    A, MMt, ECE = stacked_riccati_coefficients(nodes, weights, rho, w)
    kd = A.shape[0]
    ham = np.block([[-A, 2.0 * MMt], [ECE, A.T]])
    step = expm(ham * (float(t) / n_branch))
    Z = np.vstack([np.eye(kd), np.zeros((kd, kd))]).astype(complex)
    angle = 0.0
    prev = 1.0 + 0.0j
    for _ in range(n_branch):
        Z = step @ Z
        det = np.linalg.det(Z[:kd])
        dphase = np.angle(det / prev)
        if abs(dphase) > 0.5 * np.pi:
            raise ValueError("det X turns too fast to follow its branch")
        angle += dphase
        prev = det
    X, Y = Z[:kd], Z[kd:]
    logdet = np.log(abs(prev)) + 1j * angle
    psi = Y @ np.linalg.inv(X)
    phi = 0.5 * n * (logdet + float(t) * np.trace(A))
    pairing = np.trace(psi @ initial_pairing_matrix(gamma0))
    return complex(np.exp(-phi - pairing + w @ np.asarray(p0, dtype=float)))


def _atom_scale(atoms) -> np.ndarray:
    """min(||xi_r||_F, 1), the divisor of the atom rates."""
    return np.minimum(np.sqrt(np.einsum("rab,rab->r", atoms, atoms)), 1.0)


def jump_lift_mean_counts(nodes, weights, lam0, atoms, mu, eps: float,
                          horizon: float) -> np.ndarray:
    """E[N_r(T)] per atom from the linear mean ODE of the jump lift.

    E[lam_i]' = -x_i E[lam_i] + nu_i E[V] + E[V] nu_i
                + sum_r e^(-x_i eps) (nu_i xi_r + xi_r nu_i) Tr(E[V] mu_r) / s_r
    with V = sum_i lam_i and s_r = min(||xi_r||, 1); E[N_r(T)] is
    Tr(int_0^T E[V] ds mu_r) / s_r.  The generator is linear in the state,
    so the matrix of the augmented system (lam, int V) is assembled column
    by column and exponentiated.
    """
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    atoms = np.asarray(atoms, dtype=float)
    mu = np.asarray(mu, dtype=float)
    k, d = weights.shape[0], weights.shape[2]
    scale = _atom_scale(atoms)
    damp = np.exp(-nodes * eps)

    def rhs(state):
        lam = state[: k * d * d].reshape(k, d, d)
        V = lam.sum(axis=0)
        rates = np.einsum("ab,rab->r", V, mu) / scale
        out = -nodes[:, None, None] * lam + weights @ V + V @ weights
        for r in range(atoms.shape[0]):
            jump = weights @ atoms[r] + atoms[r] @ weights
            out = out + rates[r] * damp[:, None, None] * jump
        return np.concatenate([out.ravel(), V.ravel()])

    dim = (k + 1) * d * d
    L = np.column_stack([rhs(e) for e in np.eye(dim)])
    z0 = np.concatenate([np.asarray(lam0, dtype=float).ravel(), np.zeros(d * d)])
    integral = (expm(L * float(horizon)) @ z0)[k * d * d:].reshape(d, d)
    return np.einsum("ab,rab->r", integral, mu) / scale


def jump_lift_laplace(nodes, weights, lam0, atoms, mu, eps: float, u,
                      t: float) -> float:
    """E[exp(Tr(u V_t))] for NSD u from the lift Riccati of the generator.

    The generator on exp(sum_i Tr(y_i lam_i)) gives y_i' = -x_i y_i + R(y),
    R(y) = P(y) + sum_r (exp(Tr(P_eps(y) xi_r)) - 1) mu_r / s_r with
    P(y) = sum_j (y_j nu_j + nu_j y_j) and P_eps damping nu_j by e^(-x_j eps);
    y_i(0) = u and the value is exp(sum_i Tr(y_i(t) lam0_i)).
    """
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    atoms = np.asarray(atoms, dtype=float)
    mu = np.asarray(mu, dtype=float)
    k, d = weights.shape[0], weights.shape[2]
    scale = _atom_scale(atoms)
    damped = np.exp(-nodes * eps)[:, None, None] * weights

    def rhs(_, flat):
        y = flat.reshape(k, d, d)
        P = np.einsum("jab,jbc->ac", y, weights) + np.einsum("jab,jbc->ac", weights, y)
        P_eps = np.einsum("jab,jbc->ac", y, damped) + np.einsum("jab,jbc->ac", damped, y)
        gains = np.expm1(np.einsum("ab,rba->r", P_eps, atoms)) / scale
        R = P + np.einsum("r,rab->ab", gains, mu)
        return (-nodes[:, None, None] * y + R[None]).ravel()

    y0 = np.broadcast_to(np.asarray(u, dtype=float), (k, d, d)).ravel()
    sol = solve_ivp(rhs, (0.0, float(t)), y0, method="DOP853",
                    rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"reference lift Riccati failed: {sol.message}")
    y_t = sol.y[:, -1].reshape(k, d, d)
    return float(np.exp(np.einsum("iab,iba->", y_t, np.asarray(lam0, dtype=float))))
