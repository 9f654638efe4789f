import concurrent.futures.thread
import sys
import threading
from concurrent.futures.thread import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import norm

import mvolt.heston as heston_mod
from mvolt.measures import AtomicMatrixMeasure, decay_integral
from mvolt.heston import (
    HestonModelSpec,
    HestonSimulator,
    _poisson_from_uniform,
    char_function,
    fourier_price_call,
    simulate_heston_terminal,
)
from mvolt.ou import node_covariance
from mvolt.riccati import solve_joint_riccati_heston
from mvolt.validate import heston_reference_model


def bs_call(spot, strike, total_var):
    s = np.sqrt(total_var)
    d1 = (np.log(spot / strike) + 0.5 * total_var) / s
    return spot * norm.cdf(d1) - strike * norm.cdf(d1 - s)


def two_atom_jump_model():
    base = heston_reference_model()
    return HestonModelSpec(
        measure=base.measure, gamma0=base.gamma0, rho=base.rho, p0=base.p0,
        jump_atoms=np.array([[0.15, 0.0], [-0.1, 0.05]]),
        jump_weights=np.array([np.eye(2) * 0.5, np.eye(2) * 0.8]),
    )


def clamped_model():
    # rank-1 weights: the node step covariance has rank k = 2 of k d = 4
    a, b = np.array([0.3, 0.1]), np.array([-0.1, 0.25])
    measure = AtomicMatrixMeasure([0.5, 2.0], np.array([np.outer(a, a), np.outer(b, b)]))
    gamma0 = np.random.default_rng(7).normal(size=(2, 2, 2)) * 0.15
    return HestonModelSpec(measure=measure, gamma0=gamma0, rho=[-0.5, 0.3], p0=[0.0, 0.0])


def node_cross_covariance(measure, dt):
    """Cov(dW_a, zeta_a) of one lift row, (d, k d): F_j(dt) (nu_j)_{cb} on
    column (j, b)."""
    F = decay_integral(measure.nodes, dt)
    return np.einsum("j,jcb->cjb", F, measure.weights).reshape(measure.d, -1)


def conditional_db_law(model, dt):
    """The gain of E[dW_a | zeta_a] = gain zeta_a and the sd of dB_a given
    zeta_a, sqrt(rho^T (dt I - gain cross^T) rho + (1 - rho^T rho) dt)."""
    measure, rho = model.measure, model.rho
    cross = node_cross_covariance(measure, dt)
    C = node_covariance(measure, dt)
    gain = cross @ np.linalg.pinv(C, rcond=1e-12, hermitian=True)
    cond_cov = dt * np.eye(measure.d) - gain @ cross.T
    return gain, float(np.sqrt(max(rho @ cond_cov @ rho + (1.0 - rho @ rho) * dt, 0.0)))


# paths per stream group, part of the stream definition
STREAM_GROUP = 256


def group_stream(seed, g):
    """The stream of path group g, built from its SeedSequence."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(g, 1))
    return np.random.Generator(np.random.Philox(ss))


def path_draws(sim, seed, start, stop, chunk):
    """Every path's normals (B, n_steps, draws) and jump uniforms (B,
    n_steps, J), drawn in passes of ``chunk`` steps from the stream of its
    group of STREAM_GROUP paths, SeedSequence spawn key (g, 1): each pass of
    s steps a (STREAM_GROUP, s, draws) normal array, then a (STREAM_GROUP,
    s, J) uniform array, of which path p takes row p % STREAM_GROUP."""
    J = sim.model.n_jumps
    B = stop - start
    gauss = np.empty((B, sim.n_steps, sim._draws_per_step))
    jump_u = np.empty((B, sim.n_steps, J))
    for g in range(start // STREAM_GROUP, -(-stop // STREAM_GROUP)):
        rng = group_stream(seed, g)
        lo, hi = max(start, g * STREAM_GROUP), min(stop, (g + 1) * STREAM_GROUP)
        block, group = slice(lo - start, hi - start), slice(lo - g * STREAM_GROUP,
                                                           hi - g * STREAM_GROUP)
        for m in range(0, sim.n_steps, chunk):
            steps = slice(m, min(m + chunk, sim.n_steps))
            s = steps.stop - m
            gauss[block, steps] = rng.standard_normal(
                (STREAM_GROUP, s, sim._draws_per_step))[group]
            if J:
                jump_u[block, steps] = rng.uniform(size=(STREAM_GROUP, s, J))[group]
    return gauss, jump_u


def einsum_step_reference(sim, seed, start, stop):
    """Reference step on per-path matrices: gamma as (B, k, n, d), one
    einsum per contraction, dB from its conditional mean given the node
    innovation and one normal per row, from the same draws as ``sim``."""
    model, op, dt = sim.model, sim.op, sim.dt
    n, d, k = model.n, model.d, model.measure.k
    J = model.n_jumps
    B = stop - start
    rank = op.noise_factor.shape[1]
    gauss, jump_u = path_draws(sim, seed, start, stop, sim._chunk_steps)

    rho = model.rho
    gain, sd_db = conditional_db_law(model, dt)
    decay = np.exp(-model.measure.nodes * dt)
    gamma = np.broadcast_to(model.gamma0, (B, k, n, d)).copy()
    P = np.broadcast_to(model.p0, (B, d)).copy()
    width = 2 * d if sim.record_variance else d
    out = np.empty((B, len(sim.record_times), width))

    def record(pos):
        out[:, pos, :d] = P
        if sim.record_variance:
            x_now = gamma.sum(axis=1)
            out[:, pos, d:] = np.einsum("bnx,bnx->bx", x_now, x_now)

    for pos, m in enumerate(sim.record_idx):
        if m == 0:
            record(pos)
    for m in range(sim.n_steps):
        z = gauss[:, m]
        z_node = z[:, :n * rank].reshape(B, n, rank)
        z_db = z[:, n * rank:]

        X = gamma.sum(axis=1)
        V = np.einsum("bnx,bny->bxy", X, X)
        diagV = np.einsum("bxx->bx", V)
        zeta = z_node @ op.noise_factor.T
        dB = zeta @ gain.T @ rho + sd_db * z_db

        dP = -0.5 * diagV * dt + np.einsum("bna,bn->ba", X, dB)
        if J:
            rates = np.clip(np.einsum("bxy,jxy->bj", V, model.jump_weights), 0.0, None)
            counts = _poisson_from_uniform(jump_u[:, m], rates * dt)
            atoms = model.jump_atoms
            dP = dP - np.einsum("jx,bj->bx", np.exp(atoms) - 1.0 - atoms, rates) * dt
            dP = dP + np.einsum("jx,bj->bx", atoms, counts)
            dP = dP - np.einsum("jx,bj->bx", atoms, rates) * dt
        P = P + dP
        gamma = decay[None, :, None, None] * gamma + zeta.reshape(
            B, n, k, d).transpose(0, 2, 1, 3)
        for pos, r in enumerate(sim.record_idx):
            if r == m + 1:
                record(pos)
    return out


def flat_step_reference(sim, seed, start, stop, chunk):
    """The simulator's step loop over draws made before the first step, in
    passes of ``chunk`` steps (:func:`path_draws`), with the n rows summed
    by ``sum(axis=1)``."""
    model = sim.model
    n, d, r = model.n, model.d, sim.op.noise_factor.shape[1]
    J = model.n_jumps
    B = stop - start
    gauss, jump_u = path_draws(sim, seed, start, stop, chunk)

    half_dt = 0.5 * sim.dt
    gamma = np.tile(sim._gamma0, (B, 1))
    P = np.broadcast_to(model.p0, (B, d)).copy()
    width = 2 * d if sim.record_variance else d
    out = np.empty((B, len(sim.record_times), width))

    def record(pos):
        out[:, pos, :d] = P
        if sim.record_variance:
            X = gamma @ sim._sum_nodes
            out[:, pos, d:] = (X * X).reshape(B, n, d).sum(axis=1)

    for pos, m in enumerate(sim.record_idx):
        if m == 0:
            record(pos)
    for m in range(sim.n_steps):
        z = gauss[:, m]
        z_node = z[:, :n * r].reshape(B * n, r)
        X = gamma @ sim._sum_nodes
        dB = (z @ sim._db_map).reshape(B * n, 1)
        P += (X * (dB - half_dt * X)).reshape(B, n, d).sum(axis=1)
        if J:
            X3 = X.reshape(B, n, d)
            V = (X3[:, :, :, None] * X3[:, :, None, :]).sum(axis=1)
            rates = np.clip(V.reshape(B, d * d) @ sim._jump_trace, 0.0, None)
            counts = _poisson_from_uniform(jump_u[:, m], rates * sim.dt)
            P += counts @ model.jump_atoms - rates @ sim._jump_comp
        sim.op.step(gamma, z_node)
        for pos, rec in enumerate(sim.record_idx):
            if rec == m + 1:
                record(pos)
    return out


def degenerate_model():
    # nu = 0: deterministic covariance V_t = e^{-2 x t} gamma0^T gamma0
    measure = AtomicMatrixMeasure([0.3], [[[0.0]]])
    return HestonModelSpec(measure=measure, gamma0=np.array([[[0.25]]]),
                           rho=[0.0], p0=[0.0])


def strong_start_model(start):
    # k = 2, d = 1, n = 2 with every gamma0 entry at ``start``: a large
    # variance whose moments explode soon (the strip probe fails at alpha
    # = 3 for start = 30, and for start = 10 passes at alpha = 1, 1.5, 3)
    measure = AtomicMatrixMeasure([0.5, 3.0], [[[0.83]], [[0.007]]])
    return HestonModelSpec(measure=measure, gamma0=np.full((2, 2, 1), start),
                           rho=[0.0], p0=[0.0])


class TestModelValidation:
    def test_correlation_norm_bound(self):
        m = AtomicMatrixMeasure([0.5], np.zeros((1, 2, 2)))
        with pytest.raises(ValueError, match="rho"):
            HestonModelSpec(measure=m, gamma0=np.zeros((1, 2, 2)),
                            rho=[0.9, 0.9], p0=[0.0, 0.0])

    def test_shape_checks(self):
        m = AtomicMatrixMeasure([0.5], np.zeros((1, 2, 2)))
        with pytest.raises(ValueError, match="gamma0"):
            HestonModelSpec(measure=m, gamma0=np.zeros((2, 2, 2)),
                            rho=[0.0, 0.0], p0=[0.0, 0.0])
        with pytest.raises(ValueError, match=r"n >= 1, d=2\), got \(1, 0, 2\)"):
            HestonModelSpec(measure=m, gamma0=np.zeros((1, 0, 2)),
                            rho=[0.0, 0.0], p0=[0.0, 0.0])

    @pytest.mark.parametrize("atoms, weights", [
        ([[0.1, 0.0]], None),
        ([[0.1, 0.0], [0.0, 0.1]], [np.eye(2)]),
        (None, [np.eye(2)]),
        ([[0.1, 0.0]], [np.eye(3)]),
        ([[0.1, 0.0, 0.0]], [np.eye(2)]),
    ], ids=["no-weights", "fewer-weights", "no-atoms", "other-d-weight", "other-d-atom"])
    def test_one_weight_per_jump_atom(self, atoms, weights):
        m = AtomicMatrixMeasure([0.5], np.zeros((1, 2, 2)))
        with pytest.raises(ValueError, match="weight per atom"):
            HestonModelSpec(measure=m, gamma0=np.zeros((1, 2, 2)), rho=[0.0, 0.0],
                            p0=[0.0, 0.0], jump_atoms=atoms, jump_weights=weights)

    @pytest.mark.parametrize("field, value, message", [
        ("gamma0", [[[0.1, np.nan], [0.0, 0.1]]], "gamma0 entries must be finite"),
        ("rho", [np.nan, 0.0], "rho entries must be finite"),
        ("p0", [np.inf, 0.0], "p0 entries must be finite"),
        ("jump_atoms", [[np.nan, 0.0]], "jump atoms entries must be finite"),
        ("jump_weights", [[[np.inf, 0.0], [0.0, 1.0]]], "jump weights entries must be finite"),
        ("jump_weights", [[[-5.0, 0.0], [0.0, -5.0]]], r"jump weight 0 must be PSD"),
        # symmetric part [[1, 0], [0, -1e-3]]: the skew part does not hide it
        ("jump_weights", [[[1.0, 2.0], [-2.0, -1e-3]]], r"jump weight 0 must be PSD"),
    ], ids=["nan-gamma0", "nan-rho", "inf-p0", "nan-atom", "inf-weight", "nsd-weight",
            "indefinite-symmetric-part"])
    def test_rejects_non_finite_and_non_psd_inputs(self, field, value, message):
        # a NaN or inf input used to reach the Riccati (NaN charfn or a
        # blow-up exit), and a non-PSD weight was priced with a raw rate
        # that the simulator clips at 0
        m = AtomicMatrixMeasure([0.5], np.eye(2)[None] * 0.1)
        spec = dict(gamma0=np.full((1, 1, 2), 0.1), rho=[0.0, 0.0], p0=[0.0, 0.0],
                    jump_atoms=[[0.1, 0.0]], jump_weights=[np.eye(2)])
        HestonModelSpec(measure=m, **spec)
        with pytest.raises(ValueError, match=message):
            HestonModelSpec(measure=m, **{**spec, field: value})


class TestPoissonInversion:
    def test_matches_cdf_levels(self):
        mu = np.array([0.3, 1.5, 0.0])
        u = np.array([0.5, 0.95, 0.99])
        from scipy.stats import poisson

        got = _poisson_from_uniform(u, mu)
        expected = poisson.ppf(u, mu)
        np.testing.assert_array_equal(got, expected)

    def test_zero_rate(self):
        out = _poisson_from_uniform(np.array([0.1, 0.9999]), np.zeros(2))
        np.testing.assert_array_equal(out, 0.0)


class TestCharFunction:
    def test_v_zero(self):
        model = heston_reference_model()
        assert char_function(model, np.zeros(2), 1.0, n_steps=50) == pytest.approx(1.0)

    def test_degenerate_gaussian(self):
        model = degenerate_model()
        t = 1.0
        var = 0.25**2 * (1.0 - np.exp(-0.6 * t)) / 0.6
        for v in (0.5, 2.0):
            got = char_function(model, np.array([v]), t, n_steps=200)
            exact = np.exp(-0.5 * (1j * v + v * v) * var)
            assert abs(got - exact) <= 1e-10

    def test_conjugate_symmetry_and_modulus(self):
        model = heston_reference_model()
        v = np.array([1.5, -0.5])
        a = char_function(model, v, 1.0, n_steps=150)
        b = char_function(model, -v, 1.0, n_steps=150)
        assert abs(a - np.conj(b)) <= 1e-12
        assert abs(a) <= 1.0 + 1e-9

    def test_nonzero_p0_phase(self):
        model = degenerate_model()
        shifted = HestonModelSpec(measure=model.measure, gamma0=model.gamma0,
                                  rho=[0.0], p0=[0.7])
        v = np.array([1.2])
        a = char_function(model, v, 0.5, n_steps=100)
        b = char_function(shifted, v, 0.5, n_steps=100)
        assert b == pytest.approx(a * np.exp(1j * 1.2 * 0.7), rel=1e-10)

    def test_doubling_floor_does_not_move_the_value(self):
        # n_steps is only a floor on the doublings of the exact flow map; at
        # the damped Fourier points of fourier_price_call (alpha = 1.5,
        # v <= 200) it does not move the value
        model = heston_reference_model()
        nodes, _ = np.polynomial.legendre.leggauss(64)
        edges = np.linspace(0.0, 200.0, 9)
        vs = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * nodes
                             for a, b in zip(edges[:-1], edges[1:])]) - 2.5j
        args = np.stack([vs, np.zeros_like(vs)], 1)
        ref = char_function(model, args, 1.0, n_steps=400)
        for n_steps in (1, 25):
            np.testing.assert_allclose(char_function(model, args, 1.0, n_steps=n_steps),
                                       ref, rtol=1e-12, atol=0.0)


class TestSimulation:
    def test_frozen_model_constant_price(self):
        # nu = 0 and gamma0 = 0: V = 0, P stays at P0
        measure = AtomicMatrixMeasure([0.5], np.zeros((1, 1, 1)))
        model = HestonModelSpec(measure=measure, gamma0=np.zeros((1, 1, 1)),
                                rho=[0.0], p0=[0.3])
        p = simulate_heston_terminal(model, 1.0, 16, 50, seed=0)
        np.testing.assert_allclose(p, 0.3)

    def test_black_scholes_limit(self):
        # constant V (x = 0, nu = 0): P_t Gaussian with variance V t
        measure = AtomicMatrixMeasure([0.0], [[[0.0]]])
        model = HestonModelSpec(measure=measure, gamma0=np.array([[[0.2]]]),
                                rho=[0.0], p0=[0.0])
        p = simulate_heston_terminal(model, 1.0, 64, 40_000, seed=1)[:, 0, 0]
        var = 0.04
        assert abs(p.mean() + 0.5 * var) <= 4.0 * p.std(ddof=1) / np.sqrt(len(p))
        sig2 = p.var(ddof=1)
        assert abs(sig2 - var) <= 4.0 * var * np.sqrt(2.0 / len(p))

    def test_martingale_no_jumps(self):
        model = heston_reference_model()
        p = simulate_heston_terminal(model, 1.0, 128, 40_000, seed=2)[:, 0, :]
        for a in range(2):
            g = np.exp(p[:, a])
            se = g.std(ddof=1) / np.sqrt(len(g))
            assert abs(g.mean() - 1.0) <= 3.5 * se

    def test_martingale_with_jumps(self):
        model = two_atom_jump_model()
        p = simulate_heston_terminal(model, 1.0, 128, 40_000, seed=3)[:, 0, :]
        for a in range(2):
            g = np.exp(p[:, a])
            se = g.std(ddof=1) / np.sqrt(len(g))
            assert abs(g.mean() - 1.0) <= 3.5 * se

    def test_martingale_identity_deterministic(self):
        # E[exp(P_a)] = exp(p0_a) through the transform itself: resolves a
        # 1e-4 bias that 40k-path MC cannot see
        for model in (heston_reference_model(), two_atom_jump_model()):
            for a in range(2):
                e_a = np.eye(2)[a]
                value = char_function(model, -1j * e_a, 1.0)
                assert abs(value - np.exp(model.p0[a])) <= 1e-10

    def test_rough_fit_charfn(self):
        # k = 40 fractional fit, nodes up to 7.7e4: exp(H t / 400) alone
        # spans e^192 between the node scales, so the step map is built by
        # doubling; the identity must hold and the value must not depend on
        # n_steps
        from mvolt.fractional import FractionalKernelSpec, fit_fractional_measure

        spec = FractionalKernelSpec(np.array([[0.1, 0.2], [0.2, 0.3]]), 1e-3,
                                    10.0, 40)
        model = HestonModelSpec(
            measure=fit_fractional_measure(spec).measure,
            gamma0=np.random.default_rng(5).normal(size=(40, 2, 2)) * 0.05,
            rho=[-0.5, 0.0], p0=[0.0, 0.0],
        )
        vs = np.array([[-1j, 0.0], [0.0, -1j], [1.0, 0.0]])
        values = char_function(model, vs, 1.0)
        np.testing.assert_allclose(values[:2], 1.0, rtol=0.0, atol=1e-8)
        assert 0.0 < abs(values[2]) < 1.0
        coarse = char_function(model, vs[2], 1.0, n_steps=25)
        assert abs(coarse - values[2]) <= 1e-9

    def test_char_function_with_jumps_matches_mc(self):
        base = heston_reference_model()
        model = HestonModelSpec(
            measure=base.measure, gamma0=base.gamma0, rho=base.rho, p0=base.p0,
            jump_atoms=np.array([[0.15, 0.0]]),
            jump_weights=np.array([np.eye(2) * 0.5]),
        )
        p = simulate_heston_terminal(model, 1.0, 128, 60_000, seed=4)[:, 0, :]
        v = np.array([1.0, 0.5])
        f = np.exp(1j * (p @ v))
        cf = char_function(model, v, 1.0, n_steps=300)
        se_r = f.real.std(ddof=1) / np.sqrt(len(f))
        se_i = f.imag.std(ddof=1) / np.sqrt(len(f))
        assert abs(f.real.mean() - cf.real) <= 3.5 * se_r
        assert abs(f.imag.mean() - cf.imag) <= 3.5 * se_i

    def test_leverage_sign(self):
        # rho_1 < 0: price and variance increments anticorrelate
        model = heston_reference_model()
        times = np.linspace(0.0, 1.0, 33)
        pv = simulate_heston_terminal(model, 1.0, 32, 20_000, seed=5,
                                      record_times=times, record_variance=True)
        dp = np.diff(pv[:, :, 0], axis=1).reshape(-1)
        dv = np.diff(pv[:, :, 2], axis=1).reshape(-1)  # V_11 column
        r = np.corrcoef(dp, dv)[0, 1]
        assert r < -2.33 / np.sqrt(dp.size)  # negative at 99 percent confidence

    def test_workers_do_not_change_numbers(self):
        model = heston_reference_model()
        a = simulate_heston_terminal(model, 0.5, 16, 2000, seed=6, workers=1)
        b = simulate_heston_terminal(model, 0.5, 16, 2000, seed=6, workers=4)
        np.testing.assert_array_equal(a, b)
        grid = np.linspace(0.0, 0.5, 9)
        a, b = (simulate_heston_terminal(two_atom_jump_model(), 0.5, 16, 2000, seed=6,
                                         workers=w, record_times=grid,
                                         record_variance=True)
                for w in (1, 4))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("model, draws", [(heston_reference_model(), 10),
                                              (clamped_model(), 6)],
                             ids=["reference", "clamped"])
    def test_draws_per_step(self, model, draws):
        # n r node draws (r = k d = 4 at full rank, 2 after the clamp) and
        # n dB draws
        sim = HestonSimulator(model, 1.0, 64)
        assert sim._draws_per_step == draws

    @pytest.mark.parametrize("n_steps", [64, 400])
    @pytest.mark.parametrize("rho", ["model", "zero", "unit"])
    @pytest.mark.parametrize("make_model", [heston_reference_model, clamped_model],
                             ids=["reference", "clamped"])
    def test_db_map_keeps_the_joint_law_of_innovation_and_db(self, make_model, rho, n_steps):
        # zeta = noise_factor z_node and dB = _db_map^T z of all n rows have
        # the exact covariance: rows independent, each [[C, cross^T rho],
        # [rho^T cross, dt]], Var(dB_a) = rho^T rho dt + (1 - rho^T rho) dt
        base = make_model()
        rho = {"model": base.rho, "zero": [0.0, 0.0], "unit": [-0.6, 0.8]}[rho]
        model = HestonModelSpec(measure=base.measure, gamma0=base.gamma0, rho=rho,
                                p0=base.p0)
        sim = HestonSimulator(model, 1.0, n_steps)
        n, rho, dt = model.n, model.rho, sim.dt
        L = sim.op.noise_factor
        kd = L.shape[0]
        eye_n = np.eye(n)
        draws = np.block([[np.kron(eye_n, L), np.zeros((n * kd, n))], [sim._db_map.T]])
        zeta_db = node_cross_covariance(model.measure, dt).T @ rho  # Cov(zeta_a, dB_a)
        exact = np.block([
            [np.kron(eye_n, node_covariance(model.measure, dt)),
             np.kron(eye_n, zeta_db[:, None])],
            [np.kron(eye_n, zeta_db[None, :]), dt * eye_n],
        ])
        assert sim._db_map.shape == (sim._draws_per_step, n)
        cov = draws @ draws.T
        assert np.max(np.abs(cov - exact)) <= 1e-9 * np.max(np.abs(exact))

    @pytest.mark.parametrize("case", ["reference", "clamped", "jumps", "jump_chunks",
                                      "variance_records"])
    def test_flat_step_matches_einsum_reference(self, case, monkeypatch):
        if case == "reference":
            sim = HestonSimulator(heston_reference_model(), 1.0, 64)
        elif case == "clamped":
            sim = HestonSimulator(clamped_model(), 1.0, 64)
        elif case == "jumps":
            sim = HestonSimulator(two_atom_jump_model(), 1.0, 64)
        elif case == "jump_chunks":
            # 120 draws per pass: chunks of 10 steps, the last one ragged
            monkeypatch.setattr(heston_mod, "CHUNK_DRAWS", 120)
            sim = HestonSimulator(two_atom_jump_model(), 1.0, 64)
            assert sim._chunk_steps == 10
        else:
            sim = HestonSimulator(two_atom_jump_model(), 0.5, 16,
                                  record_times=np.linspace(0.0, 0.5, 9),
                                  record_variance=True)
        got = sim(11, 3, 403)
        want = einsum_step_reference(sim, 11, 3, 403)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("case", ["reference", "clamped", "jumps", "records", "start"])
    def test_chunked_draws_replay_pass_by_pass_draw_bitwise(self, case):
        # 10 draws per step (6 clamped) give chunks of 102 (170) steps, so
        # 250 (400) steps take two full chunks and a ragged third; the jump
        # model's 64 steps fit one chunk of 10 normals and 2 uniforms per
        # step.  A group draws each pass as one (STREAM_GROUP, s, draws)
        # array, so more than one chunk is not the whole-horizon draw
        seed, start, stop = 11, 3, 43
        if case == "reference":
            sim = HestonSimulator(heston_reference_model(), 1.0, 250)
        elif case == "clamped":
            sim = HestonSimulator(clamped_model(), 1.0, 400)
        elif case == "jumps":
            sim = HestonSimulator(two_atom_jump_model(), 1.0, 64)
        elif case == "records":
            # inside chunks (30, 150, 230), on chunk edges (102, 204) and at both ends
            sim = HestonSimulator(heston_reference_model(), 1.0, 250,
                                  record_times=np.array([0, 30, 102, 150, 204, 230, 250]) / 250,
                                  record_variance=True)
        else:
            sim = HestonSimulator(heston_reference_model(), 1.0, 250)
            start, stop = 150, 161
        expected_chunk = {"reference": 102, "clamped": 170, "jumps": 64, "records": 102,
                          "start": 102}[case]
        assert sim._chunk_steps == expected_chunk
        got = sim(seed, start, stop)
        assert np.array_equal(got, flat_step_reference(sim, seed, start, stop, expected_chunk))
        whole = flat_step_reference(sim, seed, start, stop, sim.n_steps)
        assert np.array_equal(got, whole) == (case == "jumps")

    @pytest.mark.parametrize("make_model", [heston_reference_model, two_atom_jump_model],
                             ids=["reference", "jumps"])
    def test_block_is_its_rows_of_a_larger_block(self, make_model):
        # a path's draws depend on (seed, p) alone: paths [150, 161) inside
        # group 0 and [250, 262) across the edge of groups 0 and 1 are those
        # rows of the 600-path block over groups 0, 1 and 2
        sim = HestonSimulator(make_model(), 1.0, 250)
        whole = sim(11, 0, 600)
        for start, stop in ((150, 161), (250, 262)):
            assert np.array_equal(sim(11, start, stop), whole[start:stop])

    def test_jump_chunks_replay_chunk_by_chunk_draw_bitwise(self):
        # 10 normals and 2 uniforms per step give chunks of 1024 // 12 = 85
        # steps, so 250 steps take two full chunks and a ragged third; each
        # pass draws the normals of its steps and then their uniforms, which
        # is not the whole-horizon draw
        seed, start, stop = 11, 3, 43
        sim = HestonSimulator(two_atom_jump_model(), 1.0, 250)
        assert sim._chunk_steps == 85
        got = sim(seed, start, stop)
        assert np.array_equal(got, flat_step_reference(sim, seed, start, stop, 85))
        assert not np.array_equal(got, flat_step_reference(sim, seed, start, stop, 250))

    @pytest.mark.parametrize("make_model", [heston_reference_model, two_atom_jump_model],
                             ids=["reference", "jumps"])
    def test_noise_memory_does_not_grow_with_steps(self, make_model):
        # one block of 512 paths: the whole-horizon draw peaked at 7.5 MB at
        # 128 steps and 58.9 MB at 1024 (jumps: 8.0 and 59.4 MB); the chunked
        # buffers hold 512 x 1024 doubles at most whatever the horizon
        import tracemalloc

        def peak(n_steps):
            sim = HestonSimulator(make_model(), 1.0, n_steps)
            tracemalloc.start()
            try:
                sim(3, 0, 512)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(128)
        assert peak(1024) - peak(128) < 64 * 1024

    def test_ragged_pass_draws_into_a_prefix_of_the_buffers(self):
        # 200 steps of 10 draws are passes of 102 and 98 steps, 204 steps
        # two full ones: the ragged pass fills a prefix of the same buffer,
        # so the shorter horizon peaks no higher, up to the array views'
        # headers; a buffer of its own for the ragged pass would add
        # 512 x 98 x 10 doubles (4.0 MB)
        import tracemalloc

        def peak(n_steps):
            sim = HestonSimulator(heston_reference_model(), 1.0, n_steps)
            assert sim._chunk_steps == 102
            tracemalloc.start()
            try:
                sim(3, 0, 512)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(200)
        assert peak(200) - peak(204) < 4 * 1024


class SpyPool(ThreadPoolExecutor):
    """A thread pool that records its size and the group ranges handed to it."""

    made = []

    def __init__(self, max_workers):
        super().__init__(max_workers)
        self.ranges = []
        SpyPool.made.append(self)

    def submit(self, fn, *args):
        self.ranges.append(args[:2])
        return super().submit(fn, *args)


@pytest.fixture
def spy_pool(monkeypatch):
    SpyPool.made = []
    monkeypatch.setattr(concurrent.futures.thread, "ThreadPoolExecutor", SpyPool)
    return SpyPool.made


class TestThreadedFill:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("case", ["reference", "clamped", "jumps"])
    def test_block_is_the_serial_fill_for_any_thread_count(self, case, cpus, monkeypatch,
                                                           spy_pool):
        # paths [100, 1100) touch groups 0 to 4, so T = min(cpus, 5) threads
        # each take a contiguous range of whole groups every pass.  Passes:
        # reference 102, 102, 102 and 94 steps of 10 draws; clamped 170, 170
        # and 60 steps of 6; jumps 85, 85 and 80 steps of 10 normals and 2
        # uniforms
        seed, start, stop = 11, 100, 1100
        model, n_steps, chunk, passes = {
            "reference": (heston_reference_model(), 400, 102, 4),
            "clamped": (clamped_model(), 400, 170, 3),
            "jumps": (two_atom_jump_model(), 250, 85, 3),
        }[case]
        monkeypatch.setattr(heston_mod, "_usable_cpus", lambda: cpus)
        sim = HestonSimulator(model, 1.0, n_steps)
        assert sim._chunk_steps == chunk
        threads_before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = sim(seed, start, stop)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads_before
        assert np.array_equal(got, flat_step_reference(sim, seed, start, stop, chunk))
        threads = min(cpus, 5)
        if threads == 1:
            assert spy_pool == []
        else:
            (pool,) = spy_pool
            assert pool._max_workers == threads - 1
            edges = [5 * i // threads for i in range(threads + 1)]
            pool_groups = list(zip(edges[1:-1], edges[2:]))
            assert pool.ranges == pool_groups * passes

    @pytest.mark.parametrize("cpus, start, stop, n_steps, threads", [
        (8, 0, 256, 52, 1), (8, 300, 500, 52, 1), (8, 0, 32, 52, 1), (1, 0, 1024, 52, 1),
        (2, 255, 257, 52, 2), (2, 0, 1024, 52, 2), (8, 0, 1024, 52, 4),
        (8, 100, 1100, 52, 5), (8, 0, 1024, 51, 1), (8, 0, 1024, 4, 1),
    ])
    def test_one_thread_per_group_at_most(self, monkeypatch, spy_pool, cpus, start, stop,
                                          n_steps, threads):
        # T = min(CPUs, groups touched); a block inside one group, or whose
        # passes draw fewer than CHUNK_DRAWS // 2 = 512 per path (51 steps
        # of 10 draws), starts no pool
        monkeypatch.setattr(heston_mod, "_usable_cpus", lambda: cpus)
        before = threading.active_count()
        HestonSimulator(heston_reference_model(), 1.0, n_steps)(3, start, stop)
        assert threading.active_count() == before
        if threads == 1:
            assert spy_pool == []
        else:
            (pool,) = spy_pool
            assert pool._max_workers == threads - 1


class TestFourierPricing:
    def test_degenerate_matches_gaussian_closed_form(self):
        model = degenerate_model()
        t = 1.0
        var = 0.25**2 * (1.0 - np.exp(-0.6 * t)) / 0.6
        fp = fourier_price_call(model, 0, np.array([0.8, 1.0, 1.2]), t)
        for strike, price in zip(fp.strike, fp.price):
            assert abs(price - bs_call(1.0, strike, var)) <= 1e-4

    def test_deep_itm_lower_bound(self):
        model = degenerate_model()
        fp = fourier_price_call(model, 0, 0.4, 1.0)
        assert fp.price >= 1.0 - 0.4 - 1e-6

    def test_monotone_and_convex_in_strike(self):
        model = heston_reference_model()
        strikes = np.linspace(0.85, 1.15, 5)  # uniform 5-point stencil
        prices = fourier_price_call(model, 0, strikes, 1.0).price
        assert np.all(np.diff(prices) < 0.0)
        second = np.diff(prices, 2)
        assert np.all(second >= -1e-8)

    def test_truncation_error_in_price_units(self):
        # cut at v_max = 15 the Gaussian integrand's tail is visible; the
        # envelope does not depend on the strike, the e^(-alpha kappa) / pi
        # factor of the price does
        model = degenerate_model()
        var = 0.25**2 * (1.0 - np.exp(-0.6)) / 0.6
        fp = fourier_price_call(model, 0, np.array([0.8, 1.25]), 1.0, v_max=15.0,
                                n_quad=512)
        for strike, price, error in zip(fp.strike, fp.price, fp.truncation_error):
            assert 0.0 < abs(price - bs_call(1.0, strike, var)) <= error
        low, high = fp.truncation_error
        assert low == pytest.approx(high * (1.25 / 0.8) ** 1.5, rel=1e-12)

    @pytest.mark.parametrize("model", [heston_reference_model, two_atom_jump_model])
    def test_ladder_equals_scalar_calls(self, model):
        model = model()
        strikes = np.linspace(0.8, 1.2, 5)
        kw = dict(n_quad=512, riccati_steps=100)
        ladder = fourier_price_call(model, 0, strikes, 1.0, **kw)
        assert ladder.strike.tolist() == strikes.tolist()
        for i, strike in enumerate(strikes):
            fp = fourier_price_call(model, 0, float(strike), 1.0, **kw)
            assert type(fp.price) is float and type(fp.truncation_error) is float
            assert fp.price == ladder.price[i]
            assert fp.truncation_error == ladder.truncation_error[i]

    def test_one_riccati_solve_per_ladder(self, monkeypatch):
        solves = []

        def counting(*args, **kwargs):
            solves.append(args[0].shape)
            return solve_joint_riccati_heston(*args, **kwargs)

        monkeypatch.setattr(heston_mod, "solve_joint_riccati_heston", counting)
        fp = fourier_price_call(heston_reference_model(), 0, np.linspace(0.8, 1.2, 9),
                                1.0, n_quad=512, riccati_steps=100)
        assert fp.price.shape == (9,)
        assert solves == [(513, 2)]  # the strip probe and the 512 nodes

    def test_validate_gates_truncation_error(self, monkeypatch):
        import mvolt.validate as validate

        res = validate.check_fourier_price(n_paths=2000)
        tails = [p["truncation_error"] for p in res["degenerate"] + res["generic"]]
        assert len(tails) == 6 and 0.0 < max(tails) <= validate.TRUNCATION_TOL
        assert res["passed"]
        monkeypatch.setattr(validate, "TRUNCATION_TOL", 0.5 * max(tails))
        assert not validate.check_fourier_price(n_paths=2000)["passed"]

    def test_invalid_strike(self):
        with pytest.raises(ValueError, match="strike"):
            fourier_price_call(degenerate_model(), 0, -1.0, 1.0)

    @pytest.mark.parametrize("strike, message", [
        (0.0, "positive and finite, got 0.0"),
        (np.nan, "positive and finite, got nan"),
        (np.inf, "positive and finite, got inf"),
        ([1.0, np.nan], "positive and finite, got nan"),
        ([], "non-empty 1-D ladder"),
        ([[1.0]], "non-empty 1-D ladder"),
    ])
    def test_strike_not_positive_finite_or_ladder(self, strike, message):
        with pytest.raises(ValueError, match=f"^strike must be .*{message}"):
            fourier_price_call(degenerate_model(), 0, strike, 1.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, np.nan])
    def test_nonpositive_damping(self, alpha):
        with pytest.raises(ValueError, match="damping alpha must be positive"):
            fourier_price_call(heston_reference_model(), 0, 1.0, 1.0, alpha=alpha)

    @pytest.mark.parametrize("asset", [2, -1])
    def test_asset_out_of_range(self, asset):
        # -1 would index the last asset
        with pytest.raises(ValueError, match="asset"):
            fourier_price_call(heston_reference_model(), asset, 1.0, 1.0)

    @pytest.mark.parametrize("maturity", [0.0, -1.0, np.nan, np.inf])
    def test_maturity_outside_zero_to_inf(self, maturity):
        # T = -1 used to return a price of -0.856, and T = 0 priced strikes
        # 0.9, 1.0 and 1.1 at 0.0999, 0.00159 and -6.4e-6 inside the bounds
        with pytest.raises(ValueError, match=f"^maturity must be positive and finite, "
                                             f"got {maturity}$"):
            fourier_price_call(heston_reference_model(), 0, [0.9, 1.0, 1.1], maturity,
                               n_quad=512, riccati_steps=100)

    @pytest.mark.filterwarnings("error")
    def test_strip_probe_overflow_raises_without_warning(self):
        # Phi(-i (alpha + 1)) overflows to inf: the strip error alone, no
        # NumPy overflow warning before it
        with pytest.raises(ValueError, match="finite-moment strip.*smaller alpha"):
            fourier_price_call(strong_start_model(30.0), 0, 1.0, 0.05, alpha=3.0)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 3.0])
    def test_price_outside_no_arbitrage_bounds_raises(self, alpha):
        # the probe passes, yet the quadrature gave 2.8e8, 2.1e26 and
        # -4.5e93 for a call worth at most e^(p0) = 1, with a truncation
        # error of 0
        with pytest.raises(ValueError, match="no-arbitrage bounds.*smaller alpha"):
            fourier_price_call(strong_start_model(10.0), 0, 1.0, 0.05, alpha=alpha)

    def test_price_inside_no_arbitrage_bounds_passes(self):
        fp = fourier_price_call(strong_start_model(10.0), 0, 1.0, 0.05, alpha=0.25)
        assert 0.99 < fp.price <= 1.0

    def test_legendre_rule_computed_once(self):
        nodes, weights = heston_mod._legendre_rule()
        assert heston_mod._legendre_rule()[0] is nodes
        want_nodes, want_weights = np.polynomial.legendre.leggauss(64)
        np.testing.assert_array_equal(nodes, want_nodes)
        np.testing.assert_array_equal(weights, want_weights)
        assert not nodes.flags.writeable and not weights.flags.writeable

    def test_bad_damping_reported(self):
        model = heston_reference_model()
        with pytest.raises(ValueError, match="alpha"):
            fourier_price_call(model, 0, 1.0, 1.0, alpha=200.0)


class TestPriceRecords:
    def test_records_match_terminal(self):
        model = heston_reference_model()
        grid = np.linspace(0.0, 0.5, 9)
        pv = simulate_heston_terminal(model, 0.5, 8, 4, seed=7,
                                      record_times=grid, record_variance=True)
        term = simulate_heston_terminal(model, 0.5, 8, 4, seed=7)
        assert pv.shape == (4, 9, 4)
        np.testing.assert_allclose(pv[:, -1, :2], term[:, 0], rtol=1e-12)
        assert np.all(np.isfinite(pv[:, :, :2]))
        assert np.all(pv[:, :, 2:] >= -1e-12)

    def test_needs_a_step(self):
        with pytest.raises(ValueError, match="at least one step"):
            simulate_heston_terminal(heston_reference_model(), 1.0, 0, 3, 0)

    def test_record_time_past_horizon(self):
        with pytest.raises(ValueError, match=r"step grid \[0, T\]"):
            simulate_heston_terminal(heston_reference_model(), 1.0, 4, 3, 0,
                                     record_times=[2.0])

    def test_decreasing_record_times(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            simulate_heston_terminal(heston_reference_model(), 1.0, 4, 3, 0,
                                     record_times=[0.5, 0.25])

    def test_repeated_record_time(self):
        p = simulate_heston_terminal(heston_reference_model(), 1.0, 4, 3, 0,
                                     record_times=[0.0, 0.5, 0.5])
        np.testing.assert_array_equal(p[:, 0], 0.0)
        np.testing.assert_array_equal(p[:, 1], p[:, 2])
