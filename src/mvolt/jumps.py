"""Positive semidefinite pure-jump lift and its Hawkes specialization.

The lift carries k symmetric node matrices lam(x_i) whose sum
V = sum_i lam(x_i) stays in the PSD cone.  Between jumps the state follows
the linear drift

    d lam(x_i) = -x_i lam(x_i) dt + nu_i V dt + V nu_i dt,

and at a jump of size xi (a PSD matrix drawn from a finite atom list) every
node absorbs e^(-x_i eps) (nu_i xi + xi nu_i), where eps >= 0 is an optional
shift that mollifies the kernel at lag zero.  Atom r fires with intensity

    rate_r = Tr(V mu_r) / (||xi_r|| /\\ 1),        ||.|| Frobenius,

which makes the process self-exciting; the diagonal preset with unit
diagonal atoms reproduces a multivariate Hawkes process whose component i
has compensator int V_ii dt.  Simulation uses thinning with a per-interval
dominating rate and automatic bisection when the bound is violated, so the
jump times are exact in law; between jumps :class:`LinearFlow` applies the
exact exponential of the drift.  The driving semimartingale

    X_t = int_0^t V_s ds + sum_{jumps <= t} xi

is accumulated alongside; the Volterra representation

    V_t = h(t) + int_0^t K(t-s+eps) dX^jump_s + (mirror)
               + int_0^t (K(t-s) V_s + V_s K(t-s)) ds,
    h(t) = sum_i e^(-x_i t) lam_0(x_i),

is reconstructed from the jump log by :func:`volterra_projection` (the ds
integral as a trapezoid sum carried by k node states) and must agree with
the lift's V path by path up to quadrature error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .measures import AtomicMatrixMeasure, TimeGrid, eval_kernel

# Safety factor for the per-interval dominating rate.
THINNING_ETA = 0.5


@dataclass(frozen=True)
class JumpMeasureSpec:
    """Finite jump measure: PSD atom sizes, PSD weight matrices, eps shift."""

    atoms: np.ndarray          # (m, d, d) PSD jump sizes xi_r
    weights: np.ndarray        # (m, d, d) PSD weights mu_r
    epsilon_shift: float = 0.0

    def __post_init__(self):
        atoms = np.array(self.atoms, dtype=float).reshape(-1, *np.shape(self.atoms)[-2:]) if np.size(self.atoms) else np.zeros((0, 1, 1))
        weights = np.array(self.weights, dtype=float).reshape(atoms.shape) if np.size(self.weights) else np.zeros_like(atoms)
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        if self.epsilon_shift < 0.0:
            raise ValueError("epsilon shift must be >= 0")
        for name, stack in (("atom", atoms), ("weight", weights)):
            for i, m in enumerate(stack):
                if not np.allclose(m, m.T, atol=1e-12):
                    raise ValueError(f"{name} {i} must be symmetric")
                if np.size(m) and np.linalg.eigvalsh(m)[0] < -1e-10 * (1.0 + abs(np.trace(m))):
                    raise ValueError(f"{name} {i} must be PSD")

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    def atom_norms(self) -> np.ndarray:
        """Frobenius norms ||xi_r||, floored at 1 in the intensity scaling."""
        return np.sqrt(np.einsum("rab,rab->r", self.atoms, self.atoms))


def empty_jump_spec(d: int) -> JumpMeasureSpec:
    return JumpMeasureSpec(np.zeros((0, d, d)), np.zeros((0, d, d)))


def hawkes_jump_spec(d: int, excitation: np.ndarray | None = None) -> JumpMeasureSpec:
    """Diagonal preset: atom i is e_ii with weight (excitation_i) e_ii.

    With unit excitation, atom i fires at rate V_ii and bumps component i,
    the multivariate self-exciting counting structure.
    """
    exc = np.ones(d) if excitation is None else np.asarray(excitation, dtype=float)
    atoms = np.zeros((d, d, d))
    weights = np.zeros((d, d, d))
    for i in range(d):
        atoms[i, i, i] = 1.0
        weights[i, i, i] = exc[i]
    return JumpMeasureSpec(atoms, weights)


@dataclass(frozen=True)
class JumpLiftState:
    """Lift state: time, node matrices, driving measure, jump accumulators."""

    t: float
    lam: np.ndarray            # (k, d, d) symmetric
    measure: AtomicMatrixMeasure
    x_accum: np.ndarray = None  # (d, d) running X_t (AC part + jumps)
    counts: np.ndarray = None   # (m,) jumps per atom

    def __post_init__(self):
        lam = np.array(self.lam, dtype=float)
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)
        k, d = self.measure.k, self.measure.d
        if lam.shape != (k, d, d):
            raise ValueError(f"lam must have shape ({k}, {d}, {d}), got {lam.shape}")
        if not np.all(np.isfinite(lam)):
            raise ValueError("lam entries must be finite")
        if not np.allclose(lam, np.swapaxes(lam, 1, 2), atol=1e-9):
            raise ValueError("lam matrices must be symmetric")
        x = np.zeros((d, d)) if self.x_accum is None else np.array(self.x_accum, dtype=float)
        x.setflags(write=False)
        object.__setattr__(self, "x_accum", x)
        c = np.zeros(0) if self.counts is None else np.array(self.counts, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @property
    def total(self) -> np.ndarray:
        """V = sum_i lam(x_i)."""
        return self.lam.sum(axis=0)


def intensity(state: JumpLiftState, spec: JumpMeasureSpec) -> np.ndarray:
    """Per-atom rates Tr(V mu_r) / (||xi_r|| /\\ 1), clipped at zero."""
    if spec.n_atoms == 0:
        return np.zeros(0)
    v = state.total
    raw = np.einsum("ab,rab->r", v, spec.weights)
    raw = raw / np.minimum(spec.atom_norms(), 1.0).clip(min=1e-300)
    return np.clip(raw, 0.0, None)


def jump_increment(measure: AtomicMatrixMeasure, xi: np.ndarray, eps: float) -> np.ndarray:
    """Node increments e^(-x_i eps) (nu_i xi + xi nu_i) of one jump."""
    damp = np.exp(-measure.nodes * eps)
    inc = measure.weights @ xi + xi @ measure.weights.transpose(0, 2, 1)
    return damp[:, None, None] * inc


def pairing_operator(weights: np.ndarray) -> np.ndarray:
    """(d^2, k d^2) matrix of y -> sum_j (y_j w_j + w_j y_j) on row-major vec."""
    eye = np.eye(weights.shape[-1])
    return np.hstack([np.kron(eye, w.T) + np.kron(w, eye) for w in weights])


def lift_operator(measure: AtomicMatrixMeasure) -> tuple[np.ndarray, np.ndarray]:
    """L = -diag(x_i) (x) I + 1_k (x) P and the pairing P of the weights on
    y = vec(y_1, ..., y_k): L is the linear part of the jump-lift Riccati and
    L^T the drift of the node matrices lam(x_i)."""
    k, n = measure.k, measure.d * measure.d
    pairing = pairing_operator(measure.weights)
    lin = np.tile(pairing, (k, 1))
    lin[np.diag_indices(k * n)] -= np.repeat(measure.nodes, n)
    return lin, pairing


class LinearFlow:
    """Exact propagator of the augmented linear drift (lam blocks, int V ds).

    The stacked vector [vec lam(x_1), ..., vec lam(x_k), vec intV] obeys the
    constant linear ODE with matrix M = [[L^T, 0], [1_k^T (x) I, 0]], L from
    :func:`lift_operator` (the same operator the lift Riccati steps on); its
    matrix exponential is applied through an eigendecomposition.  Falls back
    to dense expm stepping when the eigenbasis is ill-conditioned.
    """

    def __init__(self, measure: AtomicMatrixMeasure):
        k, d = measure.k, measure.d
        self.k, self.d = k, d
        kn = k * d * d
        M = np.zeros((kn + d * d, kn + d * d))
        M[:kn, :kn] = lift_operator(measure)[0].T
        M[kn:, :kn] = np.tile(np.eye(d * d), k)
        self.M = M
        self._eig_ok = False
        try:
            evals, S = np.linalg.eig(M)
            Sinv = np.linalg.inv(S)
            probe = (S * np.exp(evals * 0.1)[None, :]) @ Sinv
            if np.allclose(probe.imag, 0.0, atol=1e-9) and np.allclose(
                probe.real, scipy.linalg.expm(M * 0.1), atol=1e-9, rtol=1e-9
            ):
                # contiguous, as in the pickled copy a worker receives, so
                # that ``flow`` rounds the same in every process
                self._evals, self._S, self._Sinv = (
                    np.ascontiguousarray(a) for a in (evals, S, Sinv))
                self._eig_ok = True
        except np.linalg.LinAlgError:
            pass

    def pack(self, lam: np.ndarray, intv: np.ndarray) -> np.ndarray:
        return np.concatenate([lam.reshape(-1), intv.reshape(-1)])

    def unpack(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        k, d = self.k, self.d
        return z[: k * d * d].reshape(k, d, d), z[k * d * d :].reshape(d, d)

    def flow(self, z: np.ndarray, dt: float) -> np.ndarray:
        if dt == 0.0:
            return z
        if self._eig_ok:
            out = self._S @ (np.exp(self._evals * dt) * (self._Sinv @ z))
            return out.real
        return scipy.linalg.expm(self.M * dt) @ z


@dataclass
class JumpPathRecord:
    """One simulated lift path: grid samples, jump log and accumulators."""

    grid: TimeGrid
    v_path: np.ndarray          # (N+1, d, d) V at grid times
    x_path: np.ndarray          # (N+1, d, d) X at grid times (AC + jumps)
    counts_path: np.ndarray     # (N+1, m) cumulative atom counts at grid times
    jump_times: np.ndarray      # (J,)
    jump_atoms: np.ndarray      # (J,) atom indices
    intensity_at_jumps: np.ndarray  # (J,) total rate just before each jump
    compensators: np.ndarray    # (m,) int_0^T rate_r dt
    final_state: JumpLiftState
    min_eig_v: float
    min_eig_node: float


def simulate_jump_path(
    state0: JumpLiftState,
    spec: JumpMeasureSpec,
    horizon: float,
    rng: np.random.Generator,
    thinning_dt: float,
    grid: TimeGrid | None = None,
    flow: LinearFlow | None = None,
    monitor_eigs: bool = False,
) -> JumpPathRecord:
    """Thinning simulation of the jump lift on [0, horizon].

    Within each control interval the dominating rate is
    (1 + eta) * max(rate at start, rate at the flowed end); candidates are
    accepted with probability current/dominating and a violation of the
    bound restarts the interval with half the length, never silently
    biasing.  The deterministic flow and int V ds between events are exact
    (linear propagator).
    """
    if thinning_dt <= 0.0:
        raise ValueError("thinning_dt must be positive")
    if grid is None:
        grid = TimeGrid.regular(horizon, max(int(round(horizon / thinning_dt)), 1))
    if abs(grid.horizon - horizon) > 1e-12 * max(horizon, 1.0):
        raise ValueError("grid horizon must match the simulation horizon")
    measure = state0.measure
    if flow is None:
        flow = LinearFlow(measure)
    eps = spec.epsilon_shift
    norms = np.minimum(spec.atom_norms(), 1.0).clip(min=1e-300) if spec.n_atoms else np.zeros(0)
    weights_scaled = spec.weights / norms[:, None, None] if spec.n_atoms else spec.weights
    jump_incs = (
        np.stack([jump_increment(measure, xi, eps) for xi in spec.atoms])
        if spec.n_atoms
        else np.zeros((0, measure.k, measure.d, measure.d))
    )

    def rates_of(lam):
        if spec.n_atoms == 0:
            return np.zeros(0)
        v = lam.sum(axis=0)
        return np.clip(np.einsum("ab,rab->r", v, weights_scaled), 0.0, None)

    d = measure.d
    m_atoms = spec.n_atoms
    z = flow.pack(np.array(state0.lam), np.zeros((d, d)))
    t = 0.0
    x_jumpsum = np.array(state0.x_accum)
    counts = np.zeros(m_atoms) if state0.counts.size != m_atoms else np.array(state0.counts)

    n_rec = len(grid)
    v_path = np.zeros((n_rec, d, d))
    x_path = np.zeros((n_rec, d, d))
    counts_path = np.zeros((n_rec, m_atoms))
    lam0_arr, _ = flow.unpack(z)
    v_path[0] = lam0_arr.sum(axis=0)
    x_path[0] = x_jumpsum
    rec_idx = 1

    jump_times, jump_atoms, jump_rates = [], [], []
    min_v = np.inf
    min_node = np.inf

    def comp_value(intv):
        # int_0^t rate_r ds = Tr(intV * mu_r)/(||xi_r|| /\ 1); exact since the
        # augmented block integrates V along the flow and jumps leave V cadlag.
        if m_atoms == 0:
            return np.zeros(0)
        return np.einsum("ab,rab->r", intv, weights_scaled)

    def advance_to(z, t, target):
        """Flow z deterministically to `target`, recording grid crossings."""
        nonlocal rec_idx, min_v, min_node
        while rec_idx < n_rec and grid.times[rec_idx] <= target + 1e-15:
            z = flow.flow(z, grid.times[rec_idx] - t)
            t = grid.times[rec_idx]
            lam, intv = flow.unpack(z)
            v = lam.sum(axis=0)
            v_path[rec_idx] = v
            x_path[rec_idx] = intv + x_jumpsum
            counts_path[rec_idx] = counts
            if monitor_eigs:
                min_v = min(min_v, float(np.linalg.eigvalsh(v)[0]))
                min_node = min(
                    min_node, min(float(np.linalg.eigvalsh(l)[0]) for l in lam)
                )
            rec_idx += 1
        if target > t:
            z = flow.flow(z, target - t)
            t = target
        return z, t

    h_ctrl = thinning_dt
    while t < horizon - 1e-14:
        h = min(h_ctrl, horizon - t)
        z_start, t_start = z, t
        counts_start = counts.copy()
        xjs_start = x_jumpsum.copy()
        rec_start = rec_idx
        lam_now, _ = flow.unpack(z)
        rates_now = rates_of(lam_now)
        lam_end, _ = flow.unpack(flow.flow(z, h))
        rates_end = rates_of(lam_end)
        bound = (1.0 + THINNING_ETA) * max(rates_now.sum(), rates_end.sum())
        if bound <= 0.0:
            z, t = advance_to(z, t, t + h)
            h_ctrl = thinning_dt
            continue
        violated = False
        jumped = False
        local_jumps = []
        tau = t
        t_end = t_start + h
        while True:
            tau = tau + rng.exponential(1.0 / bound)
            if tau >= t_end - 1e-15:
                break
            z_c, t_c = advance_to(z, t, tau)
            lam_c, _ = flow.unpack(z_c)
            rates_c = rates_of(lam_c)
            total_c = rates_c.sum()
            if total_c > bound * (1.0 + 1e-12):
                violated = True
                break
            z, t = z_c, t_c
            if rng.uniform() * bound <= total_c:
                r = int(rng.choice(m_atoms, p=rates_c / total_c)) if m_atoms > 1 else 0
                lam_c = lam_c + jump_incs[r]
                _, intv_c = flow.unpack(z)
                z = flow.pack(lam_c, intv_c)
                x_jumpsum = x_jumpsum + spec.atoms[r]
                counts[r] += 1.0
                local_jumps.append((t, r, total_c))
                jumped = True
                break  # rate jumped up: restart control interval from here
        if violated:
            # rewind and redo the interval at half length
            z, t = z_start, t_start
            counts = counts_start
            x_jumpsum = xjs_start
            rec_idx = rec_start
            h_ctrl = h / 2.0
            continue
        if not jumped:
            z, t = advance_to(z, t, t_end)
            h_ctrl = thinning_dt
        else:
            for jt, r, tot in local_jumps:
                jump_times.append(jt)
                jump_atoms.append(r)
                jump_rates.append(tot)
            h_ctrl = thinning_dt
    z, t = advance_to(z, t, horizon)

    lam_T, intv_T = flow.unpack(z)
    compens = comp_value(intv_T)
    final = JumpLiftState(
        t=horizon,
        lam=0.5 * (lam_T + np.swapaxes(lam_T, 1, 2)),
        measure=measure,
        x_accum=intv_T + x_jumpsum,
        counts=counts,
    )
    return JumpPathRecord(
        grid=grid,
        v_path=v_path,
        x_path=x_path,
        counts_path=counts_path,
        jump_times=np.asarray(jump_times, dtype=float),
        jump_atoms=np.asarray(jump_atoms, dtype=int),
        intensity_at_jumps=np.asarray(jump_rates, dtype=float),
        compensators=compens,
        final_state=final,
        min_eig_v=float(min_v if np.isfinite(min_v) else np.linalg.eigvalsh(final.total)[0]),
        min_eig_node=float(min_node if np.isfinite(min_node) else 0.0),
    )


class HawkesPathSimulator:
    """Picklable per-path simulator of the jump lift started from lam0.

    The initial state, the recording grid (``grid_steps`` intervals,
    default horizon / thinning_dt) and the :class:`LinearFlow` are built
    once; each call returns the :class:`JumpPathRecord` of one path drawn
    from ``rng``.
    """

    def __init__(self, measure: AtomicMatrixMeasure, lam0, spec: JumpMeasureSpec,
                 horizon: float, thinning_dt: float, grid_steps: int | None = None):
        self.state0 = JumpLiftState(t=0.0, lam=lam0, measure=measure,
                                    counts=np.zeros(spec.n_atoms))
        self.spec = spec
        self.horizon = float(horizon)
        self.thinning_dt = float(thinning_dt)
        if grid_steps is None:
            grid_steps = max(int(round(self.horizon / self.thinning_dt)), 1)
        self.grid = TimeGrid.regular(self.horizon, grid_steps)
        self.flow = LinearFlow(measure)

    def __call__(self, rng: np.random.Generator) -> JumpPathRecord:
        return simulate_jump_path(self.state0, self.spec, self.horizon, rng,
                                  self.thinning_dt, self.grid, flow=self.flow)


def volterra_projection(
    record: JumpPathRecord,
    measure: AtomicMatrixMeasure,
    lam0: np.ndarray,
    spec: JumpMeasureSpec,
) -> np.ndarray:
    """Reconstruct V on the record grid from h, K and the increments of X.

    Jumps enter as exact Stieltjes terms K(t - s + eps) xi + xi K(t - s +
    eps); the absolutely continuous part int (K(t-s) V_s + V_s K(t-s)) ds is
    a trapezoid sum over the grid samples, carried by k node states in
    O(N k), so the reconstruction matches the lift path to O(dt).
    """
    grid = record.grid
    times = grid.times
    lam0 = np.asarray(lam0, dtype=float)
    out = np.einsum(
        "ti,iab->tab", np.exp(-np.multiply.outer(times, measure.nodes)), lam0
    )
    # trapezoid node states T_i(t_m) = sum_j w_j e^(-x_i (t_m - t_j)) V_j with
    # half weights at j = 0 and j = m, so the history sum is sum_i nu_i T_i
    decay = np.exp(-measure.nodes * grid.dt)[:, None, None]
    v = record.v_path
    state = np.zeros((measure.k,) + v.shape[1:])
    for m_i in range(1, len(grid)):
        state = decay * (state + 0.5 * v[m_i - 1]) + 0.5 * v[m_i]
        ac = np.einsum("iab,ibc->ac", measure.weights, state)
        out[m_i] += grid.dt * (ac + ac.T)
    eps = spec.epsilon_shift
    for jt, r in zip(record.jump_times, record.jump_atoms):
        mask = times >= jt - 1e-15
        if not np.any(mask):
            continue
        lags = np.clip(times[mask] - jt, 0.0, None) + eps
        kxi = eval_kernel(measure, lags)  # (T, d, d)
        xi = spec.atoms[r]
        out[mask] += kxi @ xi + xi @ kxi
    return out
