import functools
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from mvolt.mc import path_rng, run_path_blocks
from mvolt.measures import AtomicMatrixMeasure, TimeGrid, eval_kernel
from mvolt.jumps import (
    CHOICE_ATOL,
    THINNING_ETA,
    UNIFORM_CHUNK,
    HawkesPathSimulator,
    JumpLiftState,
    JumpMeasureSpec,
    LinearFlow,
    _choice_rows,
    empty_jump_spec,
    hawkes_jump_spec,
    jump_operators,
    simulate_jump_path,
    volterra_projection,
)
from mvolt.validate import _final_counts_and_compensators

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def scalar_hawkes():
    measure = AtomicMatrixMeasure([1.0], [[[0.4]]])
    spec = JumpMeasureSpec(atoms=[[[1.0]]], weights=[[[0.3]]])
    state = JumpLiftState(lam=[[[1.0]]], measure=measure)
    return measure, spec, state


def diagonal_preset(d=2):
    nodes = np.array([0.6, 2.5])
    weights = np.zeros((2, d, d))
    lam0 = np.zeros((2, d, d))
    for i in range(d):
        weights[0, i, i], weights[1, i, i] = 0.35, 0.2
        lam0[0, i, i], lam0[1, i, i] = 0.8, 0.4
    measure = AtomicMatrixMeasure(nodes, weights)
    spec = hawkes_jump_spec(d)
    state = JumpLiftState(lam=lam0, measure=measure)
    return measure, spec, state


def drift_dop853(measure, lam0, times):
    """lam(x_i) at the given times from the drift ODE, DOP853 at rtol 1e-12.

    d lam(x_i)/dt = -x_i lam(x_i) + nu_i V + V nu_i, V = sum_i lam(x_i).
    """
    from scipy.integrate import solve_ivp

    nodes, nu = measure.nodes, measure.weights
    shape = np.shape(lam0)

    def rhs(_, y):
        lam = y.reshape(shape)
        v = lam.sum(axis=0)
        return (-nodes[:, None, None] * lam + nu @ v + v @ nu).ravel()

    sol = solve_ivp(rhs, (0.0, times[-1]), np.ravel(lam0), method="DOP853",
                    t_eval=times, rtol=1e-12, atol=1e-14)
    assert sol.success
    return sol.y.T.reshape((len(times),) + shape)


def flow_lam(measure, lam, dt):
    fl = LinearFlow(measure)
    lam_t, _ = fl.unpack(fl.flow(fl.pack(np.asarray(lam, dtype=float),
                                         np.zeros((measure.d, measure.d))), dt))
    return lam_t


class TestDriftFlow:
    def test_pure_decay_when_nu_zero(self):
        m = AtomicMatrixMeasure([2.0], [[[0.0]]])
        out = flow_lam(m, [[[3.0]]], 0.7)
        assert out[0, 0, 0] == pytest.approx(3.0 * np.exp(-1.4), rel=1e-8)

    def test_scalar_exponential_growth(self):
        # d=1, k=1, x=0, nu=w: V' = 2 w V, so V(1) = e at w = 0.5
        m = AtomicMatrixMeasure([0.0], [[[0.5]]])
        out = flow_lam(m, [[[1.0]]], 1.0)
        assert abs(out[0, 0, 0] - np.e) <= 1e-8

    def test_linearity(self):
        m, _, _ = diagonal_preset()
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 2, 2))
        lam1 = a + np.swapaxes(a, 1, 2)
        b = rng.normal(size=(2, 2, 2))
        lam2 = b + np.swapaxes(b, 1, 2)
        out = flow_lam(m, lam1 + lam2, 0.4)
        np.testing.assert_allclose(
            out, flow_lam(m, lam1, 0.4) + flow_lam(m, lam2, 0.4),
            rtol=1e-10, atol=1e-12,
        )

    def test_exact_flow_matches_dop853(self):
        m, _, s = diagonal_preset()
        lam_exact = flow_lam(m, s.lam, 0.5)
        lam_ref = drift_dop853(m, s.lam, np.array([0.0, 0.5]))[-1]
        np.testing.assert_allclose(lam_exact, lam_ref, rtol=1e-10, atol=1e-12)

    def test_integral_block(self):
        # nu = 0, single node x: int_0^t V ds = V0 (1 - e^{-xt}) / x
        m = AtomicMatrixMeasure([2.0], [[[0.0]]])
        fl = LinearFlow(m)
        z = fl.flow(fl.pack(np.array([[[3.0]]]), np.zeros((1, 1))), 1.0)
        _, intv = fl.unpack(z)
        assert intv[0, 0] == pytest.approx(3.0 * (1 - np.exp(-2.0)) / 2.0, rel=1e-10)


def atom_rates(state, spec):
    """Tr(V rate_weights_r), the rate at which atom r fires in state."""
    return np.einsum("ab,rab->r", state.lam.sum(axis=0), spec.rate_weights())


class TestIntensity:
    def test_hawkes_rate_is_diagonal(self):
        _, spec, state = diagonal_preset()
        rates = atom_rates(state, spec)
        np.testing.assert_allclose(rates, np.diag(state.lam.sum(axis=0)))

    def test_trace_pairing_with_large_atom(self):
        m, _, state = diagonal_preset()
        spec = JumpMeasureSpec(atoms=[2.0 * np.eye(2)], weights=[np.eye(2)])
        rates = atom_rates(state, spec)
        assert rates[0] == pytest.approx(np.trace(state.lam.sum(axis=0)))

    def test_empty_spec(self):
        m, _, state = diagonal_preset()
        assert atom_rates(state, empty_jump_spec(2)).size == 0


class TestJumpIncrement:
    @staticmethod
    def increments(measure, xi, eps):
        """Row 0 of jump_operators' A for the single atom xi, as (k, d, d)."""
        spec = JumpMeasureSpec(atoms=[xi], weights=[np.eye(measure.d)], epsilon_shift=eps)
        return jump_operators(measure, spec)[0].reshape(measure.k, measure.d, measure.d)

    def test_shift_scales_per_node(self):
        m, _, _ = diagonal_preset()
        xi = np.diag([1.0, 0.0])
        inc0 = self.increments(m, xi, 0.0)
        eps = 1e-3
        inc_eps = self.increments(m, xi, eps)
        expected = np.exp(-m.nodes * eps)[:, None, None] * inc0
        np.testing.assert_allclose(inc_eps, expected, rtol=1e-12)
        # O(eps) convergence of the action itself
        assert np.max(np.abs(inc_eps - inc0)) <= 1.05 * eps * np.max(
            m.nodes
        ) * np.max(np.abs(inc0))

    def test_structure(self):
        m, _, _ = diagonal_preset()
        xi = np.diag([1.0, 0.0])
        inc = self.increments(m, xi, 0.0)
        for i in range(m.k):
            np.testing.assert_allclose(
                inc[i], m.weights[i] @ xi + xi @ m.weights[i]
            )


class TestSimulatePath:
    def test_no_atoms_is_pure_drift(self):
        m, _, state = diagonal_preset()
        spec = empty_jump_spec(2)
        grid = TimeGrid.regular(1.0, 4)
        rec = simulate_jump_path(state, spec, 1.0, np.random.default_rng(0),
                                 0.25, grid)
        ref = drift_dop853(m, state.lam, grid.times).sum(axis=1)
        np.testing.assert_allclose(rec.v_path[0], ref, rtol=1e-10, atol=1e-12)
        assert rec.jump_times.size == 0

    def test_symmetry_preserved(self):
        # the recorded V is not symmetrized, and on this model's non-diagonal
        # nodes and atoms the flow and the jumps could break its symmetry
        sim, _ = _reference_model("two_atom_eps")
        rec = sim(np.random.default_rng(3))
        assert rec.jump_times.size > 0
        v = rec.v_path[0]
        np.testing.assert_allclose(v, np.swapaxes(v, 1, 2), atol=1e-12)

    def test_diagonal_cone_preserved(self):
        _, spec, state = diagonal_preset()
        for seed in range(5):
            rec = simulate_jump_path(state, spec, 2.0,
                                     np.random.default_rng(seed), 0.25,
                                     TimeGrid.regular(2.0, 16))
            assert np.all(rec.v_path[0] >= -1e-14)
            assert np.linalg.eigvalsh(rec.v_path[0])[:, 0].min() >= -1e-12

    def test_counts_match_jump_log(self):
        # the compensator check counts each path's jumps per atom from the
        # block's jump log, whose paths are numbered from the block's start
        measure, spec, state = diagonal_preset()
        sim = HawkesPathSimulator(measure, state.lam, spec, 3.0, 0.25, grid_steps=6)
        counts, compens = _final_counts_and_compensators(sim, 11, 5, 25)
        block = sim.block(11, 5, 25)
        assert block.jump_times.size > 0
        for i, p in enumerate(range(5, 25)):
            atoms = block.jump_atoms[block.jump_paths == p]
            np.testing.assert_array_equal(counts[i], np.bincount(atoms, minlength=2))
        np.testing.assert_array_equal(compens, block.compensators)

    def test_compensator_identity_small_sample(self):
        _, spec, state = diagonal_preset()
        n = 4000
        diffs = np.empty((n, 2))
        from mvolt.jumps import LinearFlow

        fl = LinearFlow(state.measure)
        grid = TimeGrid.regular(1.0, 2)
        for p in range(n):
            rec = simulate_jump_path(state, spec, 1.0,
                                     np.random.default_rng(p), 0.25, grid,
                                     flow=fl)
            diffs[p] = np.bincount(rec.jump_atoms, minlength=2) - rec.compensators[0]
        se = diffs.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(diffs.mean(axis=0)) <= 3.5 * se)

    def test_epsilon_shift_path_convergence(self):
        measure, _, state = diagonal_preset()
        grid = TimeGrid.regular(1.0, 8)
        sups = []
        base = None
        for eps in (0.0, 2e-3, 4e-3):
            spec = JumpMeasureSpec(
                atoms=hawkes_jump_spec(2).atoms,
                weights=hawkes_jump_spec(2).weights,
                epsilon_shift=eps,
            )
            rec = simulate_jump_path(state, spec, 1.0,
                                     np.random.default_rng(43), 0.25, grid)
            if base is None:
                # eps only shifts what jumps add: a path without one has
                # nothing to shift (about 1 in 40 seeds on this model)
                assert rec.jump_times.size > 0
                base = rec.v_path[0]
            else:
                sups.append(np.max(np.abs(rec.v_path[0] - base)))
        # frozen randomness: O(eps) deviation, doubling eps ~ doubles the gap
        assert sups[0] > 0.0
        assert sups[1] <= 3.0 * sups[0]

    def test_thinning_dt_must_be_positive(self):
        m, spec, state = diagonal_preset()
        with pytest.raises(ValueError):
            simulate_jump_path(state, spec, 1.0, np.random.default_rng(0), 0.0)

    def test_control_intervals_are_bounded(self):
        # 1e300 control intervals: refused before the grid is built, also
        # when the caller brings its own grid
        m, spec, state = diagonal_preset()
        for grid in (None, TimeGrid.regular(1.0, 4)):
            with pytest.raises(ValueError, match="thinning_dt = 1e-300 gives"):
                simulate_jump_path(state, spec, 1.0, np.random.default_rng(0), 1e-300, grid)


class TestVolterraProjection:
    def test_no_jumps_nu_zero_gives_h(self):
        m = AtomicMatrixMeasure([0.5, 2.0], np.zeros((2, 1, 1)))
        lam0 = np.array([[[0.7]], [[0.3]]])
        state = JumpLiftState(lam=lam0, measure=m)
        grid = TimeGrid.regular(1.0, 20)
        rec = simulate_jump_path(state, empty_jump_spec(1), 1.0,
                                 np.random.default_rng(0), 0.25, grid)
        recon = volterra_projection(rec.v_path[0], rec.jump_times, rec.jump_atoms, grid,
                                    m, lam0, empty_jump_spec(1))
        h = (np.exp(-np.multiply.outer(grid.times, m.nodes)) @ lam0[:, 0, 0])
        np.testing.assert_allclose(recon[:, 0, 0], h, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(rec.v_path[0, :, 0, 0], h, rtol=1e-9, atol=1e-11)

    def test_single_jump_stieltjes_term(self):
        # nu zero: V(t) = h(t) + K(t-s) xi + xi K(t-s) after one forced jump;
        # with zero kernel weights both sides reduce to h, so use a nonzero
        # measure but compare the reconstruction against the lift directly.
        measure, spec, state = diagonal_preset()
        grid = TimeGrid.regular(1.0, 400)
        for seed in range(8):
            rec = simulate_jump_path(state, spec, 1.0,
                                     np.random.default_rng(seed), 0.25, grid)
            if rec.jump_times.size:
                break
        assert rec.jump_times.size > 0
        recon = volterra_projection(rec.v_path[0], rec.jump_times, rec.jump_atoms, grid,
                                    measure, state.lam, spec)
        assert np.max(np.abs(recon - rec.v_path[0])) <= 60.0 * grid.dt

    def test_gap_halves_with_grid(self):
        measure, spec, state = diagonal_preset()
        gaps = []
        for steps in (50, 100):
            grid = TimeGrid.regular(1.0, steps)
            vals = []
            for seed in range(10):
                rec = simulate_jump_path(state, spec, 1.0,
                                         np.random.default_rng(seed), 0.25,
                                         grid)
                recon = volterra_projection(rec.v_path[0], rec.jump_times, rec.jump_atoms,
                                            grid, measure, state.lam, spec)
                vals.append(np.max(np.abs(recon - rec.v_path[0])))
            gaps.append(np.median(vals))
        assert gaps[1] <= 0.6 * gaps[0]

    def test_recursion_matches_direct_trapezoid_sum(self):
        # non-diagonal nu and an eps shift; the O(N^2) trapezoid sum of the
        # reconstruction written out directly
        rng = np.random.default_rng(23)
        a = rng.normal(size=(2, 2, 2)) * 0.3
        nu = a @ a.transpose(0, 2, 1)
        measure = AtomicMatrixMeasure([0.7, 3.0], nu)
        spec = JumpMeasureSpec(atoms=[np.diag([1.0, 0.3])],
                               weights=[np.eye(2)], epsilon_shift=0.05)
        lam0 = np.array([np.eye(2) * 0.6, np.eye(2) * 0.3])
        state = JumpLiftState(lam=lam0, measure=measure)
        grid = TimeGrid.regular(1.0, 200)
        rec = simulate_jump_path(state, spec, 1.0, np.random.default_rng(2),
                                 0.25, grid)
        assert rec.jump_times.size > 0
        times, v = grid.times, rec.v_path[0]
        K = eval_kernel(measure, times)
        want = np.einsum("ti,iab->tab",
                         np.exp(-np.multiply.outer(times, measure.nodes)), lam0)
        for m in range(1, len(grid)):
            kern = K[m::-1]
            ac = np.einsum("jab,jbc->ac", kern, v[: m + 1])
            ac = ac - 0.5 * (kern[0] @ v[0] + kern[-1] @ v[m])
            want[m] += grid.dt * (ac + ac.T)
        for jt, r in zip(rec.jump_times, rec.jump_atoms):
            mask = times >= jt - 1e-15
            kxi = eval_kernel(measure, np.clip(times[mask] - jt, 0.0, None) + 0.05)
            want[mask] += kxi @ spec.atoms[r] + spec.atoms[r] @ kxi
        got = volterra_projection(v, rec.jump_times, rec.jump_atoms, grid, measure, lam0, spec)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


class TestSpecValidation:
    def test_atoms_must_be_psd(self):
        with pytest.raises(ValueError, match="PSD"):
            JumpMeasureSpec(atoms=[[[-1.0]]], weights=[[[1.0]]])

    def test_weights_must_be_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            JumpMeasureSpec(atoms=[np.eye(2)],
                            weights=[[[0.0, 1.0], [0.0, 0.0]]])

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            JumpMeasureSpec(atoms=[[[1.0]]], weights=[[[1.0]]],
                            epsilon_shift=-0.1)

    @pytest.mark.parametrize("atoms, weights, eps, message", [
        ([[[np.inf]]], [[[1.0]]], 0.0, "atom 0 must be finite"),
        ([[[1.0]]], [[[np.nan]]], 0.0, "weight 0 must be finite"),
        ([np.eye(2), np.eye(2)], [np.eye(2), [[1.0, np.inf], [np.inf, 1.0]]], 0.0,
         "weight 1 must be finite"),
        ([[[1.0]]], [[[1.0]]], np.inf, "epsilon shift must be >= 0 and finite, got inf"),
        ([[[1.0]]], [[[1.0]]], np.nan, "epsilon shift must be >= 0 and finite, got nan"),
    ], ids=["inf-atom", "nan-weight", "inf-off-diagonal", "inf-eps", "nan-eps"])
    def test_non_finite_rejected(self, atoms, weights, eps, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            JumpMeasureSpec(atoms=atoms, weights=weights, epsilon_shift=eps)

    @pytest.mark.parametrize("weights", [[], np.zeros((0, 2, 2)), [np.eye(2)],
                                         [np.eye(3)] * 2],
                             ids=["shapeless-empty", "empty-stack", "one-weight", "other-d"])
    def test_one_weight_per_atom(self, weights):
        atoms = [np.eye(2), np.diag([1.0, 0.0])]
        with pytest.raises(ValueError, match="one d x d weight per atom"):
            JumpMeasureSpec(atoms=atoms, weights=weights)

    def test_empty_spec_keeps_d(self):
        spec = empty_jump_spec(2)
        assert spec.atoms.shape == spec.weights.shape == (0, 2, 2)
        assert JumpMeasureSpec(atoms=[], weights=[]).atoms.shape == (0, 1, 1)

    def test_hawkes_preset_shape(self):
        spec = hawkes_jump_spec(3)
        assert spec.n_atoms == 3
        for i in range(3):
            assert spec.atoms[i, i, i] == 1.0
            assert np.sum(spec.atoms[i]) == 1.0


def test_non_diagonal_measure_monitors_eigenvalues():
    # non-diagonal PSD nu: V keeps the cone at every grid time
    rng = np.random.default_rng(17)
    a = rng.normal(size=(2, 2)) * 0.4
    w = a @ a.T
    measure = AtomicMatrixMeasure([0.8], w[None])
    spec = JumpMeasureSpec(atoms=[np.diag([1.0, 0.3])],
                           weights=[np.eye(2) * 0.4])
    lam0 = np.array([np.eye(2) * 0.6])
    state = JumpLiftState(lam=lam0, measure=measure)
    grid = TimeGrid.regular(1.5, 12)
    worst_v = 0.0
    for seed in range(6):
        rec = simulate_jump_path(state, spec, 1.5, np.random.default_rng(seed),
                                 0.25, grid)
        min_eig_v = np.linalg.eigvalsh(rec.v_path[0])[:, 0].min()
        assert np.isfinite(min_eig_v)
        worst_v = min(worst_v, min_eig_v)
    trace_scale = float(np.trace(lam0[0]))
    assert worst_v >= -1e-10 * max(trace_scale, 1.0)


def test_hawkes_paths_do_not_depend_on_workers():
    measure, spec, state = diagonal_preset()
    sim = HawkesPathSimulator(measure, state.lam, spec, horizon=1.0,
                              thinning_dt=0.25, grid_steps=8)
    serial, pooled = (
        run_path_blocks(sim.block, 200, seed=14, workers=workers,
                        block_size=64)
        for workers in (1, 2)
    )
    assert len(serial.v_path) == len(pooled.v_path) == 200
    assert serial.jump_times.size > 0
    np.testing.assert_array_equal(serial.jump_paths, pooled.jump_paths)
    np.testing.assert_array_equal(serial.jump_times, pooled.jump_times)
    np.testing.assert_array_equal(serial.jump_atoms, pooled.jump_atoms)
    np.testing.assert_array_equal(serial.intensity_at_jumps, pooled.intensity_at_jumps)
    np.testing.assert_array_equal(serial.v_path, pooled.v_path)
    np.testing.assert_array_equal(serial.compensators, pooled.compensators)


def _choice_test_rows(m, n, rng):
    """n probability rows over m atoms: generic rows, rows with zero
    entries, one-hot rows and rows whose sum is off 1 within CHOICE_ATOL."""
    p = rng.dirichlet(np.ones(m), size=n)
    p[1::5, rng.integers(m)] = 0.0
    p[1::5] /= p[1::5].sum(axis=1, keepdims=True)
    p[2::5] = np.eye(m)[rng.integers(m, size=p[2::5].shape[0])]
    p[3::5] *= 1.0 + 0.9 * CHOICE_ATOL
    p[4::5] *= 1.0 - 0.9 * CHOICE_ATOL
    return p


@pytest.mark.parametrize("m", [2, 3, 7])
def test_choice_rows_draws_as_generator_choice(m):
    n = 10_000
    p = _choice_test_rows(m, n, np.random.default_rng(m))
    batched = [path_rng(m, i) for i in range(n)]
    single = [path_rng(m, i) for i in range(n)]
    # two rounds over interleaved subsets, as the thinning loop calls it;
    # choice draws one random() per row, the uniform _choice_rows is given
    for rows in (np.arange(0, n, 2), np.arange(n)):
        got = _choice_rows(p[rows], np.array([batched[i].random() for i in rows]))
        want = [single[i].choice(m, p=p[i]) for i in rows]
        np.testing.assert_array_equal(got, want)
    assert [g.random() for g in batched] == [g.random() for g in single]


@pytest.mark.parametrize("bad", [[0.5, 0.6, -0.1], [0.5, 0.5, 1e-6], [0.5, np.nan, 0.5]])
def test_choice_rows_rejects_what_choice_rejects(bad):
    p = np.array([[0.2, 0.3, 0.5], bad])
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(3, p=p[1])
    with pytest.raises(ValueError):
        _choice_rows(p, np.array([0.25, 0.75]))


# Reference for the lockstep engine: the per-path thinning loop it replaced,
# kept here as it was, one path and one stream at a time.

def _flow_one(flow, z, dt):
    """One state flowed as the per-path loop flowed it."""
    if dt == 0.0:
        return z
    if flow._eig_ok:
        out = flow._S @ (np.exp(flow._evals * dt) * (flow._Sinv @ z))
        return out.real
    return scipy.linalg.expm(flow.M * dt) @ z


def _reference_path(state0, spec, horizon, rng, thinning_dt, grid, flow):
    """Per-path thinning; returns the record's fields, the rewind count and
    the number of uniforms drawn (choice draws one random() of them)."""
    measure = state0.measure
    eps = spec.epsilon_shift
    norms = np.minimum(spec.atom_norms(), 1.0).clip(min=1e-300) if spec.n_atoms else np.zeros(0)
    weights_scaled = spec.weights / norms[:, None, None] if spec.n_atoms else spec.weights
    # e^(-x_i eps) (nu_i xi + xi nu_i^T), written out per atom
    damp = np.exp(-measure.nodes * eps)[:, None, None]
    jump_incs = [damp * (measure.weights @ xi + xi @ measure.weights.transpose(0, 2, 1))
                 for xi in spec.atoms]

    def rates_of(lam):
        if spec.n_atoms == 0:
            return np.zeros(0)
        v = lam.sum(axis=0)
        return np.clip(np.einsum("ab,rab->r", v, weights_scaled), 0.0, None)

    d = measure.d
    m_atoms = spec.n_atoms
    z = flow.pack(np.array(state0.lam), np.zeros((d, d)))
    t = 0.0

    n_rec = len(grid)
    v_path = np.zeros((n_rec, d, d))
    lam0_arr, _ = flow.unpack(z)
    v_path[0] = lam0_arr.sum(axis=0)
    rec_idx = 1
    jump_times, jump_atoms, jump_rates = [], [], []
    rewinds = draws = 0

    def advance_to(z, t, target):
        nonlocal rec_idx
        while rec_idx < n_rec and grid.times[rec_idx] <= target + 1e-15:
            z = _flow_one(flow, z, grid.times[rec_idx] - t)
            t = grid.times[rec_idx]
            lam, _ = flow.unpack(z)
            v_path[rec_idx] = lam.sum(axis=0)
            rec_idx += 1
        if target > t:
            z = _flow_one(flow, z, target - t)
            t = target
        return z, t

    h_ctrl = thinning_dt
    while t < horizon - 1e-14:
        h = min(h_ctrl, horizon - t)
        z_start, t_start = z, t
        rec_start = rec_idx
        lam_now, _ = flow.unpack(z)
        rates_now = rates_of(lam_now)
        lam_end, _ = flow.unpack(_flow_one(flow, z, h))
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
            tau = tau - np.log1p(-rng.uniform()) / bound
            draws += 1
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
            draws += 1
            if rng.uniform() * bound <= total_c:
                r = int(rng.choice(m_atoms, p=rates_c / total_c)) if m_atoms > 1 else 0
                draws += m_atoms > 1
                lam_c = lam_c + jump_incs[r]
                _, intv_c = flow.unpack(z)
                z = flow.pack(lam_c, intv_c)
                local_jumps.append((t, r, total_c))
                jumped = True
                break
        if violated:
            z, t = z_start, t_start
            rec_idx = rec_start
            h_ctrl = h / 2.0
            rewinds += 1
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

    _, intv_T = flow.unpack(z)
    fields = {
        "v_path": v_path,
        "jump_times": np.asarray(jump_times, dtype=float),
        "jump_atoms": np.asarray(jump_atoms, dtype=int),
        "intensity_at_jumps": np.asarray(jump_rates, dtype=float),
        "compensators": np.einsum("ab,rab->r", intv_T, weights_scaled)
        if m_atoms else np.zeros(0),
    }
    return fields, rewinds, draws


def _critical_model():
    """Node 0.6 with weight 0.3: the drift matrix of LinearFlow is nilpotent,
    so the flow takes its expm fallback."""
    return (AtomicMatrixMeasure([0.6], [[[0.3]]]), [[[1.0]]],
            JumpMeasureSpec(atoms=[[[1.0]]], weights=[[[1.0]]]))


def _reference_models():
    """(name, simulator, seed) for the engine's reference comparison."""
    eye = np.eye(2)
    scalar_m, scalar_spec, scalar_state = scalar_hawkes()
    diag_m, diag_spec, diag_state = diagonal_preset()
    rng = np.random.default_rng(23)
    a = rng.normal(size=(2, 2, 2)) * 0.3
    two_atoms = JumpMeasureSpec(atoms=[np.diag([1.0, 0.3]), [[0.5, 0.5], [0.5, 0.5]]],
                                weights=[eye, eye * 0.5], epsilon_shift=0.05)
    yield "d1", HawkesPathSimulator(scalar_m, scalar_state.lam, scalar_spec, 1.0, 0.25), 3
    yield "diagonal_d2", HawkesPathSimulator(diag_m, diag_state.lam, diag_spec, 1.0, 0.25,
                                             grid_steps=8), 4
    yield "two_atom_eps", HawkesPathSimulator(
        AtomicMatrixMeasure([0.7, 3.0], a @ a.transpose(0, 2, 1)), [eye * 0.6, eye * 0.3],
        two_atoms, 1.0, 0.25, grid_steps=16), 5
    yield "critical", HawkesPathSimulator(*_critical_model(), 1.0, 0.25, grid_steps=8), 6
    # V = 5 e^(-2t) - 4.75 e^(-50t) peaks inside a control interval of 0.5
    # well above 1.5 times its value at either end, so candidates there
    # violate the dominating rate and the interval is rewound
    yield "rewind", HawkesPathSimulator(
        AtomicMatrixMeasure([2.0, 50.0], [[[0.1]], [[0.05]]]), [[[5.0]], [[-4.75]]],
        JumpMeasureSpec(atoms=[[[1.0]]], weights=[[[1.0]]]), 1.0, 0.5, grid_steps=3), 7
    # two_atom_eps at 20 times its lam0: each path draws 228 to 563
    # uniforms, so it refills its chunk of UNIFORM_CHUNK at least three times
    yield "refill", HawkesPathSimulator(
        AtomicMatrixMeasure([0.7, 3.0], a @ a.transpose(0, 2, 1)), [eye * 12.0, eye * 6.0],
        two_atoms, 1.0, 0.25, grid_steps=16), 8


REFERENCE_PATHS = 100


def _reference_model(name):
    return next((sim, seed) for n, sim, seed in _reference_models() if n == name)


@functools.cache
def _reference_records(name):
    """Per-path reference records of one model, computed once per session."""
    sim, seed = _reference_model(name)
    return [_reference_path(sim.state0, sim.spec, sim.horizon, path_rng(seed, p),
                            sim.thinning_dt, sim.grid, sim.flow)
            for p in range(REFERENCE_PATHS)]


def path_field(block, p, field):
    """``field`` of path p of a block whose paths are numbered from 0."""
    if field in ("v_path", "compensators"):
        return getattr(block, field)[p]
    return getattr(block, field)[block.jump_paths == p]


def test_critical_model_flow_takes_the_expm_fallback():
    measure, _, _ = _critical_model()
    fl = LinearFlow(measure)
    assert not fl._eig_ok
    # lam' = 0 and (int V)' = lam: [1, 0] -> [1, dt]
    z = np.array([[1.0, 0.0], [1.0, 0.0], [2.0, 1.0]])
    np.testing.assert_allclose(fl.flow(z, [0.5, 0.0, 1.0]),
                               [[1.0, 0.5], [1.0, 0.0], [2.0, 3.0]], rtol=1e-14)
    np.testing.assert_array_equal(fl.flow(z[0], 0.5), [1.0, 0.5])


@pytest.mark.parametrize("name", ["d1", "diagonal_d2", "two_atom_eps", "critical"])
def test_batched_flow_matches_one_state_flow(name):
    sim, _ = _reference_model(name)
    rng = np.random.default_rng(1)
    n = sim.flow.M.shape[0]
    z = rng.normal(size=(40, n))
    dt = rng.uniform(0.0, 0.3, size=40)
    dt[::5] = 0.0
    want = np.array([_flow_one(sim.flow, zi, float(di)) for zi, di in zip(z, dt)])
    np.testing.assert_array_equal(sim.flow.flow(z, dt), want)


class _ChunkCount:
    """A stream that counts its ``uniform`` calls, the chunks thinning draws."""

    def __init__(self, rng):
        self.rng, self.chunks = rng, 0

    def uniform(self, *args, **kwargs):
        self.chunks += 1
        return self.rng.uniform(*args, **kwargs)


def test_refill_model_refills_every_path():
    # every path of "refill" spends at least three chunks, so its lockstep
    # comparison runs the refill; a lone path draws a new chunk only when
    # its last one is spent, and is the block's path p
    sim, seed = _reference_model("refill")
    want = _reference_records("refill")
    chunks = [-(-draws // UNIFORM_CHUNK) for _, _, draws in want]
    assert min(chunks) >= 3
    for p in range(5):
        rng = _ChunkCount(path_rng(seed, p))
        rec = sim(rng)
        assert rng.chunks == chunks[p]
        for field, value in want[p][0].items():
            np.testing.assert_array_equal(path_field(rec, 0, field), value, err_msg=field)


def test_reference_model_rewinds_an_interval():
    rewinds = [r for _, r, _ in _reference_records("rewind")]
    assert sum(rewinds) > 0


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("block_size", [1, 7, 64])
@pytest.mark.parametrize("name", ["d1", "diagonal_d2", "two_atom_eps", "critical", "rewind",
                                  "refill"])
def test_lockstep_thinning_matches_per_path_loop(name, block_size, workers):
    sim, seed = _reference_model(name)
    got = run_path_blocks(sim.block, REFERENCE_PATHS, seed, workers=workers,
                          block_size=block_size)
    want = _reference_records(name)
    assert got.jump_times.size > 0
    assert len(got.v_path) == len(want)
    # the jump log is ordered by path, then by time
    assert np.all(np.diff(got.jump_paths) >= 0)
    for p, (fields, _, _) in enumerate(want):
        for field, value in fields.items():
            np.testing.assert_array_equal(path_field(got, p, field), value, err_msg=field)


@functools.cache
def _mean_test_block():
    """2000 paths of the two-atom eps model, thinned once per test run."""
    sim, seed = _reference_model("two_atom_eps")
    return sim, run_path_blocks(sim.block, 2000, seed)


def test_mean_counts_match_the_lift_mean_ode(monkeypatch):
    # E[N_r(T)] from the linear mean ODE of perfbench/reference.py, a route
    # that shares no code with mvolt.  The compensator identity holds for any
    # increment the engine adds; this comparison does not: without the
    # xi_r nu_i term of the increment the z values read -25 and -18
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import reference

    sim, block = _mean_test_block()
    measure, lam0, spec = sim.state0.measure, sim.state0.lam, sim.spec
    # the mean ODE is linear only while no rate is clipped at 0: check the
    # rates at every grid time and just before every jump
    v = block.v_path
    assert np.einsum("ptab,rab->ptr", v, spec.rate_weights()).min() >= 0.0
    assert np.all(block.intensity_at_jumps > 0.0)
    counts = np.zeros((len(v), spec.n_atoms))
    np.add.at(counts, (block.jump_paths, block.jump_atoms), 1.0)
    want = reference.jump_lift_mean_counts(measure.nodes, measure.weights, lam0, spec.atoms,
                                           spec.weights, spec.epsilon_shift, sim.horizon)
    z = (counts.mean(axis=0) - want) / (counts.std(axis=0, ddof=1) / np.sqrt(len(counts)))
    assert np.all(np.abs(z) <= 4.0), z


def lift_mean_v(measure, lam0, spec, times):
    """E[V_t] at the given times from the linear mean ODE of the lift,

        E[lam_i]' = -x_i E[lam_i] + nu_i E[V] + E[V] nu_i
                    + sum_r e^(-x_i eps) (nu_i xi_r + xi_r nu_i) Tr(E[V] mu_r) / s_r,

    V = sum_i lam_i and s_r = min(||xi_r||, 1): its matrix is assembled
    column by column from this formula and exponentiated.
    """
    nodes, nu = measure.nodes, measure.weights
    k, d = measure.k, measure.d
    scale = np.minimum(np.linalg.norm(spec.atoms, axis=(1, 2)), 1.0)
    damp = np.exp(-nodes * spec.epsilon_shift)[:, None, None]

    def rhs(lam):
        v = lam.sum(axis=0)
        out = -nodes[:, None, None] * lam + nu @ v + v @ nu
        for xi, mu, s in zip(spec.atoms, spec.weights, scale):
            out = out + np.trace(v @ mu) / s * damp * (nu @ xi + xi @ nu)
        return out.ravel()

    gen = np.column_stack([rhs(e.reshape(k, d, d)) for e in np.eye(k * d * d)])
    lam_t = [scipy.linalg.expm(gen * t) @ np.ravel(lam0) for t in times]
    return np.array(lam_t).reshape(len(times), k, d, d).sum(axis=1)


def test_mean_v_matches_the_lift_mean_ode():
    # E[V_t] at every grid time from the mean ODE, written out in
    # lift_mean_v.  The z of one entry moves with its neighbours in time;
    # at this seed the largest |z| reads 3.7 (V_11 near t = 0.56), at seeds
    # 11 and 12 below 3, and without the xi_r nu_i term of the increment 117
    sim, block = _mean_test_block()
    measure, lam0, spec = sim.state0.measure, sim.state0.lam, sim.spec
    v = block.v_path
    # the mean ODE is linear only while no rate is clipped at 0
    assert np.einsum("ptab,rab->ptr", v, spec.rate_weights()).min() >= 0.0
    assert np.all(block.intensity_at_jumps > 0.0)
    want = lift_mean_v(measure, lam0, spec, sim.grid.times)
    assert np.all(v[:, 0] == lam0.sum(axis=0))
    z = (v.mean(axis=0) - want)[1:] / (v.std(axis=0, ddof=1)[1:] / np.sqrt(len(v)))
    assert np.all(np.abs(z) <= 4.0), z


def test_state_that_overflows_without_candidates_raises():
    # zero jump weights keep the rate at 0, so no control interval has a
    # bound to check, while the drift e^(800 t) overflows the state
    measure = AtomicMatrixMeasure([0.0], [[[400.0]]])
    spec = JumpMeasureSpec(atoms=[[[1.0]]], weights=[[[0.0]]])
    state = JumpLiftState(lam=[[[1.0]]], measure=measure)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FloatingPointError, match="not finite at the horizon"):
        simulate_jump_path(state, spec, 1.0, np.random.default_rng(0), 0.25)
