import numpy as np
import pytest
from scipy.stats import norm

from mvolt.measures import AtomicMatrixMeasure
from mvolt.heston import (
    HestonModelSpec,
    HestonSimulator,
    _poisson_from_uniform,
    char_function,
    fourier_price_call,
    simulate_heston_terminal,
)
from mvolt.mc import path_rng
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


def einsum_step_reference(sim, seed, start, stop):
    """Reference step on per-path matrices: gamma as (B, k, n, d), one
    einsum per contraction, the W increment rebuilt explicitly and dB taken
    from it, from the same draws as ``sim``."""
    model, op, dt = sim.model, sim.op, sim.dt
    n, d, k = model.n, model.d, model.measure.k
    J = model.n_jumps
    B = stop - start
    draws = n * k * d + n * d + n
    gauss = np.empty((B, sim.n_steps, draws))
    jump_u = np.empty((B, sim.n_steps, J)) if J else None
    for row, p in enumerate(range(start, stop)):
        rng = path_rng(seed, p)
        gauss[row] = rng.standard_normal((sim.n_steps, draws))
        if J:
            jump_u[row] = rng.uniform(size=(sim.n_steps, J))

    rho = model.rho
    rho_orth = float(np.sqrt(max(1.0 - rho @ rho, 0.0)))
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
        z_node = z[:, :n * k * d].reshape(B, n, k * d)
        z_w = z[:, n * k * d:n * k * d + n * d].reshape(B, n, d)
        z_bt = z[:, n * k * d + n * d:]

        X = gamma.sum(axis=1)
        V = np.einsum("bnx,bny->bxy", X, X)
        diagV = np.einsum("bxx->bx", V)
        zeta = z_node @ op.noise_factor.T
        dW = zeta @ op.cond_w_gain.T + z_w @ op.cond_w_factor.T
        dB = dW @ rho + rho_orth * np.sqrt(dt) * z_bt

        dP = -0.5 * diagV * dt + np.einsum("bna,bn->ba", X, dB)
        if J:
            rates = np.clip(np.einsum("bxy,jxy->bj", V, model.jump_weights), 0.0, None)
            counts = _poisson_from_uniform(jump_u[:, m], rates * dt)
            atoms = model.jump_atoms
            dP = dP - np.einsum("jx,bj->bx", np.exp(atoms) - 1.0 - atoms, rates) * dt
            dP = dP + np.einsum("jx,bj->bx", atoms, counts)
            dP = dP - np.einsum("jx,bj->bx", atoms, rates) * dt
        P = P + dP
        gamma = op.decay[None, :, None, None] * gamma + zeta.reshape(
            B, n, k, d).transpose(0, 2, 1, 3)
        for pos, r in enumerate(sim.record_idx):
            if r == m + 1:
                record(pos)
    return out


def degenerate_model():
    # nu = 0: deterministic covariance V_t = e^{-2 x t} gamma0^T gamma0
    measure = AtomicMatrixMeasure([0.3], [[[0.0]]])
    return HestonModelSpec(measure=measure, gamma0=np.array([[[0.25]]]),
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
        # the checkpoint count
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

    @pytest.mark.parametrize("case", ["reference", "jumps", "variance_records"])
    def test_flat_step_matches_einsum_reference(self, case):
        if case == "reference":
            sim = HestonSimulator(heston_reference_model(), 1.0, 64)
        elif case == "jumps":
            sim = HestonSimulator(two_atom_jump_model(), 1.0, 64)
        else:
            sim = HestonSimulator(two_atom_jump_model(), 0.5, 16,
                                  record_times=np.linspace(0.0, 0.5, 9),
                                  record_variance=True)
        got = sim(11, 3, 403)
        want = einsum_step_reference(sim, 11, 3, 403)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


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
        import mvolt.heston as heston_mod

        solves = []

        def counting(*args, **kwargs):
            solves.append(args[0].shape)
            return solve_joint_riccati_heston(*args, **kwargs)

        monkeypatch.setattr(heston_mod, "solve_joint_riccati_heston", counting)
        fp = fourier_price_call(heston_reference_model(), 0, np.linspace(0.8, 1.2, 9),
                                1.0, n_quad=512, riccati_steps=100)
        assert fp.price.shape == (9,)
        assert solves == [(513, 2)]  # the strip probe and the 512 nodes

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

    @pytest.mark.parametrize("maturity", [-1.0, np.nan, np.inf])
    def test_maturity_outside_zero_to_inf(self, maturity):
        # T = -1 used to return a price of -0.856
        with pytest.raises(ValueError, match="0 <= t < inf"):
            fourier_price_call(heston_reference_model(), 0, 1.0, maturity,
                               n_quad=512, riccati_steps=100)

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
