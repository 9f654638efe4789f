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
has compensator int V_ii dt.  :func:`jump_operators` builds the increments
and rate weights once; the thinning engine and both lift Riccati routes of
:mod:`mvolt.riccati` read them.  Simulation uses thinning with a per-interval
dominating rate and automatic bisection when the bound is violated, so the
jump times are exact in law (Lewis & Shedler 1979; Ogata 1981); between
jumps :class:`LinearFlow` applies the exact exponential of the drift to a
batch of states.  A block of paths is thinned in lockstep: one loop keeps
every path's state in arrays and advances them together.  Thinning draws
only uniforms, one triple per path and pass of the loop: a block of paths
takes them from the 256-path group streams of :func:`mc.group_streams`,
path p's k-th triple from row p mod 256 of the k-th draw of its group, so
each path depends on (seed, p) alone, not on its block.  A control
interval whose dominating rate runs away raises FloatingPointError.  The
result is one :class:`JumpPathBlock` of arrays over the block's paths: V
on a time grid, the compensators int_0^T rate_r dt and the jump log as flat
columns (path, time, atom, total rate just before the jump), ordered by
path and then by time; a path's atom counts are those of its jump log.
With
X^jump_t = sum_{jumps <= t} xi, the Volterra representation

    V_t = h(t) + int_0^t K(t-s+eps) dX^jump_s + (mirror)
               + int_0^t (K(t-s) V_s + V_s K(t-s)) ds,
    h(t) = sum_i e^(-x_i t) lam_0(x_i),

is reconstructed from one path's jump log by :func:`volterra_projection`
(the ds integral as a trapezoid sum carried by k node states) and must
agree with the lift's V path by path up to quadrature error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .mc import STREAM_GROUP, _with_hint, group_streams
from .measures import AtomicMatrixMeasure, TimeGrid, check_psd, decay_sum, eval_kernel

# Safety factor for the per-interval dominating rate.
THINNING_ETA = 0.5
# Largest expected number of thinning candidates, bound * h, in one control
# interval; beyond it the rate has run away within the interval.
MAX_INTERVAL_CANDIDATES = 1e6
# Largest number of grid intervals of a thinning run, grid_steps or the
# control intervals T / thinning_dt: every path records V at each grid point,
# (grid_steps + 1) d^2 doubles, 8 MB per path at this bound for d = 1.
MAX_GRID_STEPS = 10**6
# Tolerance of Generator.choice on the sum of a float64 probability vector.
CHOICE_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def _matrix_stack(values) -> np.ndarray:
    """values as an (m, d, d) stack; an empty (0, d, d) stack keeps its d and
    only a shapeless [] becomes (0, 1, 1)."""
    arr = np.array(values, dtype=float)
    if arr.ndim >= 3 or arr.size:
        return arr.reshape(-1, *arr.shape[-2:])
    return np.zeros((0, 1, 1))


@dataclass(frozen=True)
class JumpMeasureSpec:
    """Finite jump measure: PSD atom sizes, PSD weight matrices, eps shift."""

    atoms: np.ndarray          # (m, d, d) PSD jump sizes xi_r
    weights: np.ndarray        # (m, d, d) PSD weights mu_r
    epsilon_shift: float = 0.0

    def __post_init__(self):
        atoms, weights = (_matrix_stack(a) for a in (self.atoms, self.weights))
        if weights.shape != atoms.shape:
            raise ValueError(f"need one d x d weight per atom, got atoms {atoms.shape} "
                             f"and weights {weights.shape}")
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        eps = np.asarray(self.epsilon_shift, dtype=float)
        if eps.shape or not 0.0 <= eps < np.inf:
            raise ValueError(f"epsilon shift must be >= 0 and finite, got {self.epsilon_shift}")
        object.__setattr__(self, "epsilon_shift", float(eps))
        for name, stack in (("atom", atoms), ("weight", weights)):
            for i, m in enumerate(stack):
                if not np.all(np.isfinite(m)):
                    raise ValueError(f"{name} {i} must be finite")
                if not np.allclose(m, m.T, atol=1e-12):
                    raise ValueError(f"{name} {i} must be symmetric")
            check_psd(stack, name)

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    def atom_norms(self) -> np.ndarray:
        """Frobenius norms ||xi_r||."""
        return np.sqrt(np.einsum("rab,rab->r", self.atoms, self.atoms))

    def rate_weights(self) -> np.ndarray:
        """mu_r / (||xi_r|| /\\ 1), so that atom r fires at rate Tr(V rate_weights_r)."""
        scale = np.minimum(self.atom_norms(), 1.0).clip(min=1e-300)
        return self.weights / scale[:, None, None]


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
    """Initial lift state: the node matrices lam(x_i) of the driving measure.

    The measure's weights nu_i must be PSD, or V leaves the PSD cone, and so
    must V_0 = sum_i lam(x_i).  These conditions are necessary, not
    sufficient: the lam(x_i) decay at their own rates x_i, so a lam with a
    PSD sum can still carry V out of the cone (nodes 0 and 10, lam = (-0.5,
    1) and nu = 0 give V_t = e^(-10 t) - 0.5).  The rule on lam that keeps V
    PSD is not derived here.
    """

    lam: np.ndarray            # (k, d, d) symmetric
    measure: AtomicMatrixMeasure

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
        check_psd(self.measure.weights, "kernel weight")
        check_psd(lam.sum(axis=0), "initial V = sum_i lam(x_i)")


def lift_operator(measure: AtomicMatrixMeasure) -> tuple[np.ndarray, np.ndarray]:
    """L = -diag(x_i) (x) I + 1_k (x) P and the pairing P of the weights on
    y = vec(y_1, ..., y_k): P y = sum_j (y_j nu_j + nu_j y_j) on row-major
    vec, L is the linear part of the jump-lift Riccati and L^T the drift of
    the node matrices lam(x_i)."""
    k, n = measure.k, measure.d * measure.d
    eye = np.eye(measure.d)
    pairing = np.hstack([np.kron(eye, w.T) + np.kron(w, eye) for w in measure.weights])
    lin = np.tile(pairing, (k, 1))
    lin[np.diag_indices(k * n)] -= np.repeat(measure.nodes, n)
    return lin, pairing


def jump_operators(measure: AtomicMatrixMeasure,
                   spec: JumpMeasureSpec) -> tuple[np.ndarray, np.ndarray]:
    """The jump lift's atom operators A (R, k d^2) and W (d^2, R), row-major vec.

    Row r of A is the node increment e^(-x_i eps) (nu_i xi_r + xi_r nu_i)
    that a jump of atom r adds to vec(lam(x_1), ..., lam(x_k)); column r of W
    is vec(mu_r) / (||xi_r|| /\\ 1), so atom r fires at rate vec(V) . W[:, r].
    The Riccati side reads the same two matrices as the dual maps: A y =
    (Tr(P_eps(y) xi_r))_r with P_eps damping nu_j by e^(-x_j eps), and the
    jump term of the generator is W (e^(A y) - 1).  Both are empty without
    atoms.
    """
    k, d, r = measure.k, measure.d, spec.n_atoms
    damp = np.exp(-measure.nodes * spec.epsilon_shift)[:, None, None]
    xi = spec.atoms[:, None]
    inc = measure.weights @ xi + xi @ measure.weights.transpose(0, 2, 1)
    return (damp * inc).reshape(r, k * d * d), spec.rate_weights().reshape(r, d * d).T


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
        from scipy.linalg import expm  # loaded at first use: slow to import

        try:
            evals, S = np.linalg.eig(M)
            Sinv = np.linalg.inv(S)
            probe = (S * np.exp(evals * 0.1)[None, :]) @ Sinv
            if np.allclose(probe.imag, 0.0, atol=1e-9) and np.allclose(
                probe.real, expm(M * 0.1), atol=1e-9, rtol=1e-9
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

    def flow(self, z: np.ndarray, dt) -> np.ndarray:
        """Flow the states z (..., n) over the times dt (broadcast to z.shape[:-1]).

        Each state is flowed by its own stacked matrix-vector products, so a
        batch rounds exactly as its states flowed one by one; a state with
        dt == 0 is returned unchanged.
        """
        z = np.asarray(z, dtype=float)
        dt = np.broadcast_to(np.asarray(dt, dtype=float), z.shape[:-1])
        if self._eig_ok:
            growth = np.exp(self._evals * dt[..., None])[..., None]
            out = (self._S @ (growth * (self._Sinv @ z[..., None]))).real
        else:
            from scipy.linalg import expm

            out = expm(self.M * dt[..., None, None]) @ z[..., None]
        return np.where(dt[..., None] == 0.0, z, out[..., 0])


class JumpPathBlock(NamedTuple):
    """Simulated lift paths of one block, as arrays over its B paths: V on
    the grid, the compensators and the jump log, whose flat columns are
    ordered by path and then by time."""

    v_path: np.ndarray              # (B, N+1, d, d) V at grid times
    compensators: np.ndarray        # (B, m) int_0^T rate_r dt
    jump_paths: np.ndarray          # (J,) path index of each jump
    jump_times: np.ndarray          # (J,)
    jump_atoms: np.ndarray          # (J,) atom indices
    intensity_at_jumps: np.ndarray  # (J,) total rate just before each jump


def _thinning_steps(horizon: float, thinning_dt: float) -> int:
    """T / thinning_dt rounded, at least 1: the control intervals of a path
    and the default grid, after checking T, thinning_dt and their ratio."""
    if not 0.0 < horizon < np.inf:
        raise ValueError(f"horizon T must be positive and finite, got {horizon}")
    if not 0.0 < thinning_dt < np.inf:
        raise ValueError(f"thinning_dt must be positive and finite, got {thinning_dt}")
    ratio = horizon / thinning_dt
    if not ratio <= MAX_GRID_STEPS:
        raise ValueError(f"thinning_dt = {thinning_dt} gives T / thinning_dt = {ratio:.3g} "
                         f"control intervals, more than {MAX_GRID_STEPS}")
    return max(int(round(ratio)), 1)


def simulate_jump_path(
    state0: JumpLiftState,
    spec: JumpMeasureSpec,
    horizon: float,
    rng: np.random.Generator,
    thinning_dt: float,
    grid: TimeGrid | None = None,
    flow: LinearFlow | None = None,
) -> JumpPathBlock:
    """Thinning simulation of the jump lift from ``state0`` on [0, horizon].

    Within each control interval the dominating rate is
    (1 + eta) * max(rate at start, rate at the flowed end); candidates are
    accepted with probability current/dominating and a violation of the
    bound restarts the interval with half the length, never silently
    biasing.  The deterministic flow and int V ds between events are exact
    (linear propagator).  This is :func:`_thin_paths` on the one stream
    ``rng``: a one-path block, path index 0, whose k-th pass takes the k-th
    triple ``rng.uniform(size=(1, 3))``.
    """
    steps = _thinning_steps(horizon, thinning_dt)
    if grid is None:
        grid = TimeGrid.regular(horizon, steps)
    if abs(grid.horizon - horizon) > 1e-12 * max(horizon, 1.0):
        raise ValueError("grid horizon must match the simulation horizon")
    if flow is None:
        flow = LinearFlow(state0.measure)
    return _thin_paths(state0, spec, horizon, [rng], 1, slice(0, 1), thinning_dt, grid,
                       flow)


def _choice_rows(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index drawn from each row of p by the uniform u[i], as
    ``Generator.choice(m, p=p[i])`` draws it from its ``random()`` u[i].

    Like ``Generator.choice``, rejects a row with a negative entry or a sum
    off 1 by more than ``CHOICE_ATOL``, then takes cdf = cumsum(p_i) /
    its last entry and the index ``searchsorted(cdf, u[i], side="right")``,
    here the count of cdf <= u[i].  Every row makes the rounding of
    ``choice``, so a stream whose next double is u[i] gives the same index.
    """
    if (p < 0.0).any():
        raise ValueError("probabilities are not non-negative")
    if not (np.abs(p.sum(axis=1) - 1.0) <= CHOICE_ATOL).all():
        raise ValueError("probabilities do not sum to 1")
    cdf = np.cumsum(p, axis=1)
    cdf /= cdf[:, -1:]
    return np.count_nonzero(cdf <= u[:, None], axis=1)


def _thin_paths(
    state0: JumpLiftState,
    spec: JumpMeasureSpec,
    horizon: float,
    streams,
    lanes: int,
    rows: slice,
    thinning_dt: float,
    grid: TimeGrid,
    flow: LinearFlow,
    path_hint=None,
) -> JumpPathBlock:
    """Thin the paths ``rows`` of the streams' lanes, all paths in lockstep.

    Every path keeps its own state, time, control step, dominating rate and
    grid position in per-path arrays.  At the top of each pass of the loop
    every stream with a live path draws ``uniform(size=(lanes, 3))``;
    stacked in stream order, row ``rows.start + i`` is path i's triple U.
    In the pass every live path takes one step of its own: it finishes at
    the horizon, or it skips a control interval whose dominating rate is 0,
    or it tests a candidate, after starting a control interval if it needs
    one (one batched flow to its end and one rate evaluation).  A
    candidate's gap is -log1p(-U[0]) / bound (inversion), its accept test
    U[1] * bound <= total and, with more than one atom, an accepted one's
    atom is drawn from U[2] as ``choice(m, p=rates / total)`` draws it from
    its uniform (:func:`_choice_rows`); entries a path does not use are
    discarded.  Flows, rates, grid records, the rewind of a violated
    interval and jumps are masked array operations that round as a lone
    path's do.  So path i's k-th pass and its k-th triple depend on that
    path alone, and the path is the same in any block that draws the same
    rows for it.

    A control interval whose expected candidate count bound * h is not
    finite or exceeds ``MAX_INTERVAL_CANDIDATES`` raises FloatingPointError;
    ``path_hint(i)``, if given, names path i in the message.  Returns the
    block, its jumps numbered by their position i in ``rows``.
    """
    measure = state0.measure
    k, d, m = measure.k, measure.d, spec.n_atoms
    kn = k * d * d
    n_paths = rows.stop - rows.start
    times = grid.times
    n_rec = len(times)
    jump_incs, rate_weights = jump_operators(measure, spec)

    def rates_of(z):
        v = z[:, :kn].reshape(-1, k, d * d).sum(axis=1)
        return np.clip(np.einsum("px,xr->pr", v, rate_weights), 0.0, None)

    def fail(i, message):
        exc = FloatingPointError(message)
        raise exc if path_hint is None else _with_hint(exc, path_hint(i))

    lam0 = state0.lam
    z = np.tile(flow.pack(lam0, np.zeros((d, d))), (n_paths, 1))
    t = np.zeros(n_paths)
    v_path = np.zeros((n_paths, n_rec, d, d))
    v_path[:, 0] = lam0.sum(axis=0)
    rec_idx = np.ones(n_paths, dtype=np.intp)

    def advance_to(idx, target):
        """Flow paths idx to the times target, recording grid crossings."""
        if not idx.size:
            return
        while True:
            nxt = times[np.minimum(rec_idx[idx], n_rec - 1)]
            cross = (rec_idx[idx] < n_rec) & (nxt <= target + 1e-15)
            if not cross.any():
                break
            j, tj = idx[cross], nxt[cross]
            z[j] = flow.flow(z[j], tj - t[j])
            t[j] = tj
            r = rec_idx[j]
            v_path[j, r] = z[j, :kn].reshape(-1, k, d, d).sum(axis=1)
            rec_idx[j] += 1
        go = target > t[idx]
        j = idx[go]
        z[j] = flow.flow(z[j], target[go] - t[j])
        t[j] = target[go]

    # per-path thinning state: control step, the interval's start (for a
    # rewind), length, end and dominating rate, and the last candidate time
    h_ctrl = np.full(n_paths, float(thinning_dt))
    z_start, t_start = np.empty_like(z), np.zeros(n_paths)
    rec_start = np.ones(n_paths, dtype=np.intp)
    h_int, t_end, bound, tau = (np.zeros(n_paths) for _ in range(4))
    live = np.ones(n_paths, dtype=bool)   # horizon not yet reached
    starting = np.ones(n_paths, dtype=bool)  # at the start of a control interval
    # (paths, times, atoms, total rates) of the accepted jumps, after an
    # empty entry that gives a run without jumps its typed empty columns
    events = [(np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0, dtype=np.intp),
               np.zeros(0))]

    # a stream draws only in the passes where one of its paths is live: its
    # paths finish in passes 1..K, so their k-th triple is still its k-th
    # draw.  group_starts[g] is the block's first path in stream g; the
    # drawing streams change only in a pass where paths finish.
    group_starts = np.maximum(np.arange(len(streams)) * lanes - rows.start, 0)
    drawing = range(len(streams))
    u_lanes = np.empty((len(streams) * lanes, 3))
    while live.any():
        for g in drawing:
            u_lanes[g * lanes:(g + 1) * lanes] = streams[g].uniform(size=(lanes, 3))
        u = u_lanes[rows]
        done = np.flatnonzero(live & starting & (t >= horizon - 1e-14))
        if done.size:
            advance_to(done, np.full(done.size, float(horizon)))
            live[done] = False
            drawing = np.flatnonzero(np.logical_or.reduceat(live, group_starts))

        a = np.flatnonzero(live & starting)
        if a.size:
            rem = horizon - t[a]
            h = np.where(rem < h_ctrl[a], rem, h_ctrl[a])
            z_start[a], t_start[a], rec_start[a] = z[a], t[a], rec_idx[a]
            total = rates_of(np.concatenate([z[a], flow.flow(z[a], h)])).sum(axis=1)
            now, end = total[: a.size], total[a.size :]
            b_a = (1.0 + THINNING_ETA) * np.where(end > now, end, now)
            idle = b_a <= 0.0
            if idle.any():
                advance_to(a[idle], t[a[idle]] + h[idle])
                h_ctrl[a[idle]] = thinning_dt
            mass = b_a * h
            bad = np.flatnonzero(~idle & ~(mass <= MAX_INTERVAL_CANDIDATES))
            if bad.size:
                i = bad[0]
                fail(a[i], f"runaway thinning at t = {t[a[i]]:.6g}: dominating rate "
                           f"{b_a[i]:.6g} over a control interval of {h[i]:.6g} "
                           f"(bound * h = {mass[i]:.6g} > {MAX_INTERVAL_CANDIDATES:g})")
            a, h = a[~idle], h[~idle]
            h_int[a], t_end[a], bound[a], tau[a] = h, t[a] + h, b_a[~idle], t[a]
            starting[a] = False

        b = np.flatnonzero(live & ~starting)
        if not b.size:
            continue
        tau[b] -= np.log1p(-u[b, 0]) / bound[b]
        over = tau[b] >= t_end[b] - 1e-15
        ended = b[over]
        advance_to(ended, t_end[ended])
        h_ctrl[ended] = thinning_dt
        starting[ended] = True

        c = b[~over]
        advance_to(c, tau[c])
        rates_c = rates_of(z[c])
        total_c = rates_c.sum(axis=1)
        violated = total_c > bound[c] * (1.0 + 1e-12)
        back = c[violated]  # rewind and redo the interval at half length
        z[back], t[back], rec_idx[back] = z_start[back], t_start[back], rec_start[back]
        h_ctrl[back] = h_int[back] / 2.0
        starting[back] = True

        c, rates_c, total_c = c[~violated], rates_c[~violated], total_c[~violated]
        hit = u[c, 1] * bound[c] <= total_c
        j, rates_j, total_j = c[hit], rates_c[hit], total_c[hit]
        if not j.size:
            continue
        if m > 1:
            atoms = _choice_rows(rates_j / total_j[:, None], u[j, 2])
        else:
            atoms = np.zeros(j.size, dtype=int)
        z[j, :kn] += jump_incs[atoms]
        events.append((j, t[j], atoms, total_j))
        # the rate jumped up: restart the control interval from here
        h_ctrl[j] = thinning_dt
        starting[j] = True

    bad = np.flatnonzero(~np.isfinite(z).all(axis=1))
    if bad.size:
        fail(bad[0], "the lift state is not finite at the horizon")
    # int_0^T rate_r ds = Tr(intV mu_r) / (||xi_r|| /\ 1); exact since the
    # augmented block integrates V along the flow and jumps leave V cadlag
    compens = np.einsum("px,xr->pr", z[:, kn:], rate_weights)

    paths, ev_t, ev_atom, ev_rate = (np.concatenate(cols) for cols in zip(*events))
    order = np.argsort(paths, kind="stable")
    return JumpPathBlock(v_path, compens, paths[order], ev_t[order], ev_atom[order],
                         ev_rate[order])


class HawkesPathSimulator:
    """Picklable simulator of the jump lift started from lam0.

    The initial state, the recording grid (``grid_steps`` intervals,
    default horizon / thinning_dt) and the :class:`LinearFlow` are built
    once.  ``sim.block(seed, start, stop)``, the block entry of
    :func:`mc.run_path_blocks`, thins paths [start, stop) in lockstep, path
    p drawn from its lane of the kind 2 group streams of
    :func:`mc.group_streams` and named p in the jump log, so that the
    joined blocks of a run form one block whatever the block sizes.
    """

    def __init__(self, measure: AtomicMatrixMeasure, lam0, spec: JumpMeasureSpec,
                 horizon: float, thinning_dt: float, grid_steps: int | None = None):
        self.state0 = JumpLiftState(lam=lam0, measure=measure)
        self.spec = spec
        self.horizon = float(horizon)
        self.thinning_dt = float(thinning_dt)
        steps = _thinning_steps(self.horizon, self.thinning_dt)
        if grid_steps is None:
            grid_steps = steps
        elif grid_steps > MAX_GRID_STEPS:
            raise ValueError(f"grid_steps = {grid_steps} exceeds {MAX_GRID_STEPS}")
        self.grid = TimeGrid.regular(self.horizon, grid_steps)
        self.flow = LinearFlow(measure)

    def block(self, seed: int, start: int, stop: int) -> JumpPathBlock:
        """Paths [start, stop) as one block; path p takes its triples from
        row p mod ``STREAM_GROUP`` of its group's kind 2 stream (kind 1
        is the Gaussian noise's), so it equals the one path of
        ``block(seed, p, p + 1)``, the replay a failure names."""
        def hint(i):
            return f"paths [{start + i}, {start + i + 1}) (seed {seed})"

        streams, rows = group_streams(seed, start, stop, 2)
        out = _thin_paths(self.state0, self.spec, self.horizon, streams, STREAM_GROUP, rows,
                          self.thinning_dt, self.grid, self.flow, path_hint=hint)
        return out._replace(jump_paths=out.jump_paths + start)


def volterra_projection(
    v_path: np.ndarray,
    jump_times: np.ndarray,
    jump_atoms: np.ndarray,
    grid: TimeGrid,
    measure: AtomicMatrixMeasure,
    lam0: np.ndarray,
    spec: JumpMeasureSpec,
) -> np.ndarray:
    """Reconstruct one path's V on ``grid`` from h, K and the increments of X.

    ``v_path`` (N+1, d, d) is the path's lift V on the grid and
    ``jump_times``, ``jump_atoms`` its jump log, as one path of a
    :class:`JumpPathBlock` holds them.  Jumps enter as exact Stieltjes terms
    K(t - s + eps) xi + xi K(t - s + eps); the absolutely continuous part
    int (K(t-s) V_s + V_s K(t-s)) ds is a trapezoid sum over the grid
    samples, carried by k node states in O(N k), so the reconstruction
    matches the lift path to O(dt).
    """
    times = grid.times
    out = decay_sum(measure.nodes, lam0, times)
    # trapezoid node states T_i(t_m) = sum_j w_j e^(-x_i (t_m - t_j)) V_j with
    # half weights at j = 0 and j = m, so the history sum is sum_i nu_i T_i
    decay = np.exp(-measure.nodes * grid.dt)[:, None, None]
    state = np.zeros((measure.k,) + v_path.shape[1:])
    for m_i in range(1, len(grid)):
        state = decay * (state + 0.5 * v_path[m_i - 1]) + 0.5 * v_path[m_i]
        ac = np.einsum("iab,ibc->ac", measure.weights, state)
        out[m_i] += grid.dt * (ac + ac.T)
    eps = spec.epsilon_shift
    for jt, r in zip(jump_times, jump_atoms):
        mask = times >= jt - 1e-15
        if not np.any(mask):
            continue
        lags = np.clip(times[mask] - jt, 0.0, None) + eps
        kxi = eval_kernel(measure, lags)  # (T, d, d)
        xi = spec.atoms[r]
        out[mask] += kxi @ xi + xi @ kxi
    return out
