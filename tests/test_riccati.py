import re

import numpy as np
import pytest

from mvolt.fractional import FractionalKernelSpec, fit_fractional_measure
from mvolt.measures import AtomicMatrixMeasure, TimeGrid, decay_sum, eval_kernel
from mvolt.jumps import (
    JumpMeasureSpec,
    empty_jump_spec,
    hawkes_jump_spec,
    jump_operators,
    lift_operator,
)
from mvolt.riccati import (
    laplace_transform_jump,
    pairing_value,
    solve_joint_riccati_heston,
    solve_lift_riccati_jump,
    solve_volterra_riccati_jump,
)
from mvolt.validate import heston_reference_model


def scalar_hawkes():
    measure = AtomicMatrixMeasure([1.0], [[[0.4]]])
    lam0 = np.array([[[1.0]]])
    spec = JumpMeasureSpec(atoms=[[[1.0]]], weights=[[[0.3]]])
    return measure, lam0, spec


def nonlinearity_R(u, spec):
    """Oracle NL(u) = u + sum_r (exp(Tr(u xi_r)) - 1) mu_r / (||xi_r|| /\\ 1),
    summed atom by atom from the formula."""
    out = np.asarray(u)
    for xi, mu in zip(spec.atoms, spec.weights):
        out = out + (np.exp(np.trace(u @ xi)) - 1.0) * mu / min(np.linalg.norm(xi), 1.0)
    return out


class TestNonlinearity:
    def test_zero_argument(self):
        _, _, spec = scalar_hawkes()
        np.testing.assert_array_equal(nonlinearity_R(np.zeros((1, 1)), spec), 0.0)

    def test_empty_measure_is_identity(self):
        u = np.array([[-0.3, 0.1], [0.1, -0.7]])
        np.testing.assert_array_equal(nonlinearity_R(u, empty_jump_spec(2)), u)

    def test_scalar_value(self):
        spec = JumpMeasureSpec(atoms=[[[1.0]]], weights=[[[2.0]]])
        got = nonlinearity_R(np.array([[-1.0]]), spec)[0, 0]
        assert got == pytest.approx(-1.0 + 2.0 * (np.exp(-1.0) - 1.0), rel=1e-14)

    def test_norm_scaling_small_atom(self):
        # ||xi|| < 1 divides the weight
        spec = JumpMeasureSpec(atoms=[[[0.5]]], weights=[[[1.0]]])
        got = nonlinearity_R(np.array([[-2.0]]), spec)[0, 0]
        assert got == pytest.approx(-2.0 + (np.exp(-1.0) - 1.0) / 0.5, rel=1e-14)

    def test_jump_operators_match_oracle(self):
        # one node at 0 with weight I/2 makes the pairing P the identity, so
        # W (e^(A vec u) - 1) on row-major vec is NL(u) - u, for
        # non-symmetric u and non-commuting atoms of norm below and above 1
        measure = AtomicMatrixMeasure([0.0], [0.5 * np.eye(2)])
        spec = JumpMeasureSpec(atoms=[np.diag([1.0, 0.3]), [[0.3, 0.1], [0.1, 0.2]]],
                               weights=[np.diag([0.2, 0.1]), [[0.1, 0.02], [0.02, 0.15]]])
        u = np.array([[-0.8, 0.3], [-0.1, -0.5]])
        jump_arg, gain = jump_operators(measure, spec)
        got = (gain @ (np.exp(jump_arg @ u.ravel()) - 1.0)).reshape(2, 2)
        np.testing.assert_allclose(got, nonlinearity_R(u, spec) - u, rtol=1e-13, atol=1e-15)


class TestLiftODE:
    def test_zero_fixed_point(self):
        measure, _, _ = scalar_hawkes()
        out = solve_lift_riccati_jump(np.zeros((1, 1, 1)), measure,
                                      empty_jump_spec(1), [1.0], 10)
        np.testing.assert_array_equal(out, 0.0)

    def test_pure_decay_when_nu_zero(self):
        measure = AtomicMatrixMeasure([2.0], [[[0.0]]])
        y0 = np.array([[[-1.5]]])
        out = solve_lift_riccati_jump(y0, measure, empty_jump_spec(1), [1.0], 20)
        assert out[0, 0, 0, 0] == pytest.approx(-1.5 * np.exp(-2.0), rel=1e-7)

    def test_semiflow_property(self):
        measure, lam0, spec = scalar_hawkes()
        y0 = np.full((1, 1, 1), -1.0)
        y_full = solve_lift_riccati_jump(y0, measure, spec, [1.0], 200)
        y_half = solve_lift_riccati_jump(y0, measure, spec, [0.5], 100)
        y_rest = solve_lift_riccati_jump(y_half[0], measure, spec, [0.5], 100)
        np.testing.assert_allclose(y_rest, y_full, rtol=1e-9)

    def test_fourth_order_self_convergence(self):
        measure, lam0, spec = scalar_hawkes()
        y0 = np.full((1, 1, 1), -1.0)
        vals = {}
        for n in (4, 8, 16):
            vals[n] = solve_lift_riccati_jump(y0, measure, spec, [1.0], n)[0, 0, 0, 0]
        ref = solve_lift_riccati_jump(y0, measure, spec, [1.0], 512)[0, 0, 0, 0]
        errs = [abs(vals[n] - ref) for n in (4, 8, 16)]
        assert errs[2] <= errs[0] + 1e-12
        assert errs[2] <= 1e-8
        # fourth order: each halving of the step cuts the error by about 16
        assert errs[1] <= errs[0] / 8.0
        assert errs[2] <= errs[1] / 8.0


def noncommuting_lift():
    """d = 2, k = 3, non-diagonal nu, two non-commuting atoms, ||xi_2|| < 1."""
    nu = np.array([[[0.30, 0.0], [0.0, 0.05]],
                   [[0.10, 0.08], [0.08, 0.20]],
                   [[0.05, -0.04], [-0.04, 0.15]]])
    measure = AtomicMatrixMeasure([0.4, 1.5, 4.0], nu)
    spec = JumpMeasureSpec(atoms=[np.diag([1.0, 0.3]), [[0.5, 0.2], [0.2, 0.4]]],
                           weights=[np.diag([0.2, 0.1]),
                                    [[0.1, 0.02], [0.02, 0.15]]],
                           epsilon_shift=0.1)
    return measure, spec


def lift_generator_terms(y, measure, spec):
    """Sum_j (y_j nu_j + nu_j y_j) and the jump term NL(P_eps y) - P_eps y,
    written out from the generator with einsum, traces and norms."""
    nu = measure.weights
    damp = np.exp(-measure.nodes * spec.epsilon_shift)
    pair = np.einsum("jab,jbc->ac", y, nu) + np.einsum("jab,jbc->ac", nu, y)
    pair_eps = (np.einsum("j,jab,jbc->ac", damp, y, nu)
                + np.einsum("j,jab,jbc->ac", damp, nu, y))
    jump = sum((np.exp(np.trace(pair_eps @ xi)) - 1.0) * mu
               / min(np.linalg.norm(xi), 1.0)
               for xi, mu in zip(spec.atoms, spec.weights))
    return pair, jump


class TestFlatLiftOperators:
    def test_operators_match_einsum_form(self):
        measure, spec = noncommuting_lift()
        assert np.linalg.norm(spec.atoms[1]) < 1.0
        assert np.abs(spec.atoms[0] @ spec.atoms[1]
                      - spec.atoms[1] @ spec.atoms[0]).max() > 1e-2
        lin, pairing = lift_operator(measure)
        jump_arg, gain = jump_operators(measure, spec)
        rng = np.random.default_rng(17)
        for _ in range(5):
            y = rng.normal(size=(3, 2, 2)) * 0.5
            pair, jump = lift_generator_terms(y, measure, spec)
            flat_jump = gain @ (np.exp(jump_arg @ y.ravel()) - 1.0)
            want = -measure.nodes[:, None, None] * y + pair + jump
            got = lin @ y.ravel() + np.tile(flat_jump, 3)
            assert np.abs(got - want.ravel()).max() <= 1e-13
            got_g = pairing @ y.ravel() + flat_jump
            assert np.abs(got_g - (pair + jump).ravel()).max() <= 1e-13

    def test_lift_route_matches_dop853(self):
        from scipy.integrate import solve_ivp

        measure, spec = noncommuting_lift()
        u = np.array([[-0.8, 0.2], [0.2, -0.5]])
        y0 = np.broadcast_to(u, (3, 2, 2)).copy()
        ts = [0.3, 1.0, 0.6]

        def rhs(_, flat):
            y = flat.reshape(3, 2, 2)
            pair, jump = lift_generator_terms(y, measure, spec)
            return (-measure.nodes[:, None, None] * y + pair + jump).ravel()

        sol = solve_ivp(rhs, (0.0, 1.0), y0.ravel(), method="DOP853",
                        t_eval=sorted(ts), rtol=1e-12, atol=1e-14)
        assert sol.success
        want = sol.y.T.reshape(-1, 3, 2, 2)[np.argsort(np.argsort(ts))]
        # each t marches its own 50 steps of t / 50
        got = solve_lift_riccati_jump(y0, measure, spec, ts, 50)
        assert got.shape == (3, 3, 2, 2)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def test_stiff_rough_fit_matches_radau(self):
        # the k = 40, H = 0.1 fit has nodes up to 7.7e4, so L h reaches -192
        # at 200 steps; the linear part is taken exactly, with no substeps
        from scipy.integrate import solve_ivp

        measure = fit_fractional_measure(
            FractionalKernelSpec(np.array([[0.1]]), 1e-3, 10.0, 40)).measure
        assert measure.nodes[-1] > 7e4
        spec = hawkes_jump_spec(1, [0.3])
        lin, _ = lift_operator(measure)
        jump_arg, gain = jump_operators(measure, spec)
        gain = np.tile(gain, (measure.k, 1))
        y0 = np.full(measure.k, -0.5)

        def rhs(_, y):
            return lin @ y + gain @ (np.exp(jump_arg @ y) - 1.0)

        def jac(_, y):
            return lin + (gain * np.exp(jump_arg @ y)) @ jump_arg

        sol = solve_ivp(rhs, (0.0, 0.5), y0, method="Radau", jac=jac,
                        rtol=1e-11, atol=1e-14)
        assert sol.success
        want = sol.y[:, -1]
        got = solve_lift_riccati_jump(y0.reshape(-1, 1, 1), measure, spec,
                                      [0.5], 200).ravel()
        assert np.abs(got - want).max() <= 1e-7 * np.abs(want).max()

    def test_complex_start_with_zero_imaginary_part(self):
        measure, spec = noncommuting_lift()
        y0 = np.broadcast_to([[-0.8, 0.2], [0.2, -0.5]], (3, 2, 2)).copy()
        real = solve_lift_riccati_jump(y0, measure, spec, [0.5], 20)
        cplx = solve_lift_riccati_jump(y0.astype(complex), measure, spec, [0.5], 20)
        assert cplx.dtype == complex
        np.testing.assert_array_equal(cplx.imag, 0.0)
        np.testing.assert_allclose(cplx.real, real, rtol=1e-13, atol=0.0)


class TestVolterraEquation:
    def test_zero_data(self):
        measure, _, _ = scalar_hawkes()
        y = solve_volterra_riccati_jump(np.zeros((1, 1, 1)), measure,
                                        empty_jump_spec(1), [1.0], 50)
        np.testing.assert_array_equal(y, 0.0)

    def test_two_sided_scalar_linear_closed_form(self):
        # mu empty, K == w constant at a node at 0: y' = G = Psi = 2 w y, so
        # y(t) = u e^{2 w t}; the left-point march has y_N = u (1 + 2 w dt)^N,
        # about t dt / 2 relative below it at 2 w = 1
        measure = AtomicMatrixMeasure([0.0], [[[0.5]]])
        ts = np.array([0.25, 1.0, 0.5])
        y = solve_volterra_riccati_jump(np.array([[[-1.0]]]), measure,
                                        empty_jump_spec(1), ts, 4000)
        exact = -np.exp(ts)
        assert y.shape == (3, 1, 1, 1)
        assert np.all(np.abs(y[:, 0, 0, 0] - exact) <= ts * ts / 4000 * np.abs(exact))

    def test_first_order_convergence(self):
        measure, lam0, spec = scalar_hawkes()
        u = np.array([[-1.0]])
        ref = laplace_transform_jump(u, lam0, measure, spec, 1.0,
                                     n_steps=8000)
        errs = []
        for n in (250, 500, 1000):
            res = laplace_transform_jump(u, lam0, measure, spec, 1.0, n_steps=n)
            errs.append(abs(res.volterra_value - ref.lift_value))
        assert errs[1] <= 0.6 * errs[0]
        assert errs[2] <= 0.6 * errs[1]


class TestLaplaceTransform:
    def test_u_zero_gives_one(self):
        measure, lam0, spec = scalar_hawkes()
        res = laplace_transform_jump(np.zeros((1, 1)), lam0, measure, spec, 1.0,
                                     n_steps=100)
        assert res.lift_value == pytest.approx(1.0, rel=1e-12)
        assert res.volterra_value == pytest.approx(1.0, rel=1e-12)

    def test_deterministic_flow_oracle(self):
        # mu empty: value = exp(Tr(u V_t)) with V from the drift flow
        measure = AtomicMatrixMeasure([0.0], [[[0.5]]])
        lam0 = np.array([[[1.0]]])
        res = laplace_transform_jump(np.array([[-1.0]]), lam0, measure,
                                     empty_jump_spec(1), 1.0, n_steps=2000)
        target = np.exp(-np.exp(1.0))
        assert res.lift_value == pytest.approx(target, rel=1e-10)
        assert res.volterra_value == pytest.approx(target, rel=2e-3)

    def test_dual_route_agreement_benchmark(self):
        measure, lam0, spec = scalar_hawkes()
        n_steps = 1000
        for u in (-0.5, -1.0, -2.0):
            for t in (0.5, 1.0):
                res = laplace_transform_jump(np.array([[u]]), lam0, measure,
                                             spec, t, n_steps=n_steps)
                tol = max(1e-4, 5.0 * t / n_steps)
                assert res.discrepancy <= tol
                assert 0.0 < res.lift_value <= 1.0
                assert 0.0 < res.volterra_value <= 1.0

    def test_positive_u_rejected(self):
        measure, lam0, spec = scalar_hawkes()
        with pytest.raises(ValueError, match="negative semidefinite"):
            laplace_transform_jump(np.array([[0.5]]), lam0, measure, spec, 1.0)

    def test_matrix_case_dual_route(self):
        # d = 2 with a non-diagonal PSD driving measure
        rng = np.random.default_rng(8)
        a = rng.normal(size=(2, 2)) * 0.3
        w = a @ a.T
        measure = AtomicMatrixMeasure([0.8], w[None])
        lam0 = np.array([np.eye(2) * 0.5])
        spec = JumpMeasureSpec(atoms=[np.diag([1.0, 0.5])],
                               weights=[np.diag([0.2, 0.1])])
        b = rng.normal(size=(2, 2)) * 0.5
        u = -(b @ b.T)
        res = laplace_transform_jump(u, lam0, measure, spec, 1.0, n_steps=1500)
        assert res.discrepancy <= max(1e-4, 5.0 / 1500)


class TestJointRiccati:
    def heston_like(self):
        nodes = np.array([0.5, 2.0])
        weights = np.array(
            [[[0.10, 0.02], [0.02, 0.08]], [[0.06, -0.01], [-0.01, 0.09]]]
        )
        measure = AtomicMatrixMeasure(nodes, weights)
        gamma0 = np.random.default_rng(5).normal(size=(2, 2, 2)) * 0.15
        return measure, gamma0

    def test_zero_argument(self):
        measure, gamma0 = self.heston_like()
        res = solve_joint_riccati_heston(
            np.zeros((1, 2), dtype=complex), measure, gamma0,
            np.array([-0.5, 0.0]), 1.0, n_steps=50,
        )
        assert res.char[0] == pytest.approx(1.0)
        np.testing.assert_array_equal(res.psi, 0.0)

    def test_deterministic_v_reduces_to_gaussian(self):
        # nu = 0: P is Gaussian with variance int V dt per asset
        measure = AtomicMatrixMeasure([0.3], np.zeros((1, 1, 1)))
        gamma0 = np.array([[[0.25]]])
        v = 1.3
        res = solve_joint_riccati_heston(
            np.array([[1j * v]]), measure, gamma0, np.zeros(1), 1.0,
            n_steps=200,
        )
        var = 0.25**2 * (1 - np.exp(-0.6)) / 0.6
        exact = np.exp(-0.5 * (1j * v + v * v) * var)
        assert abs(res.char[0] - exact) <= 1e-10

    def test_conjugate_symmetry(self):
        measure, gamma0 = self.heston_like()
        rho = np.array([-0.5, 0.0])
        for v in ([1.0, 0.5], [2.0, -1.0]):
            v = np.array(v)
            plus = solve_joint_riccati_heston(1j * v[None], measure, gamma0,
                                              rho, 1.0, n_steps=150).char[0]
            minus = solve_joint_riccati_heston(-1j * v[None], measure, gamma0,
                                               rho, 1.0, n_steps=150).char[0]
            assert abs(plus - np.conj(minus)) <= 1e-12

    def test_modulus_bound(self):
        measure, gamma0 = self.heston_like()
        rho = np.array([-0.5, 0.0])
        vs = np.array([[1.0, 0.0], [0.0, 3.0], [2.5, 2.5], [-4.0, 1.0]])
        res = solve_joint_riccati_heston(1j * vs, measure, gamma0, rho, 1.0,
                                         n_steps=200)
        assert np.all(np.abs(res.char) <= 1.0 + 1e-9)

    def test_pair_symmetry_preserved(self):
        measure, gamma0 = self.heston_like()
        res = solve_joint_riccati_heston(
            1j * np.array([[1.0, 2.0]]), measure, gamma0,
            np.array([-0.5, 0.0]), 1.0, n_steps=100,
        )
        psi = res.psi[0]
        np.testing.assert_allclose(
            psi, np.swapaxes(psi, 0, 1).transpose(0, 1, 3, 2), atol=1e-10
        )

    def test_blowup_detection(self):
        measure, gamma0 = self.heston_like()
        with pytest.raises(FloatingPointError, match="blow-up"):
            solve_joint_riccati_heston(
                np.array([[30.0 + 0.0j, 0.0]]),  # far outside the moment strip
                measure, 40.0 * gamma0, np.array([-0.5, 0.0]), 40.0,
                n_steps=400,
            )

    @pytest.mark.parametrize("n_steps", [1, 3, 50, 400])
    def test_moment_blowup_names_a_span_past_the_pole(self, n_steps):
        # E[exp(30 P_0)] on the reference model is finite up to t = 0.7 and
        # infinite from the pole at t ~ 0.708, where X turns singular; every
        # doubling count must see it, and the span it names must cover the pole
        model = heston_reference_model()
        args = (np.array([[30.0, 0.0]]), model.measure, model.gamma0, model.rho)
        assert np.isfinite(solve_joint_riccati_heston(*args, 0.7, n_steps=n_steps).char[0])
        with pytest.raises(FloatingPointError, match="blow-up before t = ") as exc:
            solve_joint_riccati_heston(*args, 1.0, n_steps=n_steps)
        span = float(re.search(r"before t = (\S+) ", str(exc.value)).group(1))
        assert 0.708 <= span <= 1.0

    @pytest.mark.parametrize("n_steps", [1, 25, 400])
    def test_doubling_count(self, monkeypatch, n_steps):
        # the base span is t / 2^J, J = ceil(log2 max(n_steps, 2 rate t, 1)),
        # and each of the J compositions takes one log det after the base's
        import mvolt.riccati as riccati

        logdet, calls = riccati._logdet, []
        monkeypatch.setattr(riccati, "_logdet",
                            lambda a: calls.append(a.shape) or logdet(a))
        model, t = heston_reference_model(), 1.0
        w = 1j * np.stack([np.linspace(0.0, 200.0, 101) - 2.5j, np.zeros(101)], 1)
        solve_joint_riccati_heston(w, model.measure, model.gamma0, model.rho, t,
                                   n_steps=n_steps)
        k, d = model.measure.k, model.d
        M = model.measure.weights.reshape(k * d, d)
        A = np.einsum("x,by->bxy", M @ model.rho, np.tile(w, k))
        A[:, np.arange(k * d), np.arange(k * d)] -= np.repeat(model.measure.nodes, d)
        const = 0.5 * (np.einsum("bx,xy->bxy", w, np.eye(d))
                       - np.einsum("bx,by->bxy", w, w))
        rate = (max(np.linalg.norm(A, o, axis=(1, 2)).max() for o in (1, np.inf))
                + np.sqrt(np.linalg.norm(2.0 * M @ M.T, 1)
                          * np.linalg.norm(np.tile(const, (k, k)), 1, axis=(1, 2)).max()))
        doublings = int(np.ceil(np.log2(max(n_steps, 2.0 * rate * t, 1.0))))
        assert len(calls) == doublings + 1

    @pytest.mark.parametrize("t, n_steps", [(-1.0, 50), (np.nan, 50), (np.inf, 50),
                                            (1.0, 0)])
    def test_rejects_bad_time_or_step_count(self, t, n_steps):
        measure, gamma0 = self.heston_like()
        with pytest.raises(ValueError, match="need 0 <= t < inf and n_steps >= 1"):
            solve_joint_riccati_heston(1j * np.array([[1.0, 0.5]]), measure, gamma0,
                                       np.array([-0.5, 0.0]), t, n_steps=n_steps)

    def test_time_zero_is_the_initial_price(self):
        measure, gamma0 = self.heston_like()
        v, p0 = np.array([[1.0, 0.5], [-2.0, 3.0]]), np.array([0.1, -0.2])
        res = solve_joint_riccati_heston(1j * v, measure, gamma0, np.array([-0.5, 0.0]),
                                         0.0, p0=p0, n_steps=50)
        np.testing.assert_allclose(res.char, np.exp(1j * v @ p0), rtol=1e-14)


def node_pair_charfn_dop853(v, measure, gamma0, rho, t):
    """E[exp(i v^T P_t)] from the node-pair system written from the generator.

    psi_ij' = -(x_i + x_j) psi_ij - 2 S_i T_j + S_i rho w^T + w rho^T T_j + C,
    S_i = sum_m psi_im nu_m, T_j = sum_l nu_l psi_lj, C = diag(w)/2 - w w^T/2,
    phi' = n sum_ij Tr(psi_ij nu_j nu_i), value exp(-phi - sum_ij Tr(psi_ij
    lam_ji)) with lam_ij = gamma0_i^T gamma0_j and w = i v; DOP853 at rtol
    1e-12.
    """
    from scipy.integrate import solve_ivp

    nodes, nu = measure.nodes, measure.weights
    k, d = measure.k, measure.d
    n = gamma0.shape[1]
    w = 1j * np.asarray(v, dtype=float)
    C = 0.5 * np.diag(w) - 0.5 * np.outer(w, w)
    decay = nodes[:, None] + nodes[None, :]

    def rhs(_, y):
        psi = y[1:].reshape(k, k, d, d)
        S = np.einsum("imab,mbc->iac", psi, nu)
        T = np.einsum("lab,ljbc->jac", nu, psi)
        dpsi = (-decay[:, :, None, None] * psi
                - 2.0 * np.einsum("iab,jbc->ijac", S, T)
                + np.einsum("iab,b,c->iac", S, rho, w)[:, None]
                + np.einsum("a,b,jbc->jac", w, rho, T)[None, :] + C)
        dphi = n * np.einsum("ijab,jbc,ica->", psi, nu, nu)
        return np.concatenate([[dphi], dpsi.ravel()])

    sol = solve_ivp(rhs, (0.0, t), np.zeros(1 + k * k * d * d, dtype=complex),
                    method="DOP853", rtol=1e-12, atol=1e-14)
    assert sol.success
    phi, psi = sol.y[0, -1], sol.y[1:, -1].reshape(k, k, d, d)
    lam0 = np.einsum("ina,jnb->ijab", gamma0, gamma0)
    return np.exp(-phi - np.einsum("ijab,jiba->", psi, lam0))


def test_joint_riccati_index_order_non_commuting():
    # the node-pair blocks are not symmetric once rho != 0 and the nu_i do
    # not commute, which separates Tr(psi_ij nu_j nu_i) from Tr(psi_ij nu_i
    # nu_j) and the pairing with lam_ji from the one with lam_ij
    nu = np.array([[[0.30, 0.0], [0.0, 0.05]],
                   [[0.10, 0.08], [0.08, 0.20]],
                   [[0.05, -0.04], [-0.04, 0.15]]])
    assert np.abs(nu[0] @ nu[1] - nu[1] @ nu[0]).max() > 1e-2
    measure = AtomicMatrixMeasure([0.4, 1.5, 4.0], nu)
    gamma0 = np.random.default_rng(11).normal(size=(3, 2, 2)) * 0.3
    rho = np.array([-0.7, 0.5])
    vs = np.array([[1.0, 1.0], [-2.0, 0.5], [3.0, -1.0], [6.0, -3.0]])
    got = solve_joint_riccati_heston(1j * vs, measure, gamma0, rho, 1.0).char
    for v, value in zip(vs, got):
        want = node_pair_charfn_dop853(v, measure, gamma0, rho, 1.0)
        assert abs(value - want) <= 1e-9


def test_h_curve_matches_decay():
    measure, lam0, _ = scalar_hawkes()
    ts = np.array([0.0, 0.5, 1.0])
    h = decay_sum(measure.nodes, lam0, ts)
    np.testing.assert_allclose(h[:, 0, 0], np.exp(-ts), rtol=1e-14)


def test_pairing_value():
    y = np.array([[[2.0, 0.0], [0.0, 1.0]]])
    lam = np.array([[[0.5, 0.0], [0.0, 0.25]]])
    assert pairing_value(y, lam) == pytest.approx(1.25)


def test_epsilon_shift_dual_route_agreement():
    # the eps knob damps the jump action; both analytic routes must track it
    measure = AtomicMatrixMeasure([1.0], [[[0.4]]])
    lam0 = np.array([[[1.0]]])
    vals = []
    for eps in (0.0, 0.3):
        spec = JumpMeasureSpec(atoms=[[[1.0]]], weights=[[[0.3]]],
                               epsilon_shift=eps)
        res = laplace_transform_jump(np.array([[-1.0]]), lam0, measure, spec,
                                     1.0, n_steps=1500)
        assert res.discrepancy <= max(1e-4, 5.0 / 1500)
        vals.append(res.lift_value)
    # a damped jump action removes less mass from the transform
    assert vals[1] > vals[0]


def test_joint_riccati_reproduces_covariance_closed_form():
    # v = 0 with psi_0 = c^T c at every node pair transforms the covariance
    # process itself; the ODE route must match the exact Gaussian closed
    # form of E[exp(-Tr(c^T c V_t))] to integrator accuracy
    from mvolt.wishart import WishartTransformQuery, closed_form_laplace

    rng = np.random.default_rng(31)
    d, n, k = 2, 3, 2
    nodes = np.array([0.4, 1.8])
    ws = []
    for _ in range(k):
        a = rng.normal(size=(d, d)) * 0.3
        ws.append(a @ a.T)
    measure = AtomicMatrixMeasure(nodes, np.array(ws))
    gamma0 = rng.normal(size=(k, n, d)) * 0.3
    c = rng.normal(size=(n, d)) * 0.6
    t = 0.9

    exact = closed_form_laplace(
        WishartTransformQuery(t=t, c=c, gamma0=gamma0), measure
    )
    u_block = c.T @ c
    psi0 = np.broadcast_to(u_block, (1, k, k, d, d))
    res = solve_joint_riccati_heston(
        np.zeros((1, d)), measure, gamma0, np.zeros(d), t,
        n_steps=600, psi0=psi0,
    )
    assert abs(complex(res.char[0]).imag) <= 1e-12
    assert complex(res.char[0]).real == pytest.approx(exact, rel=1e-6)


def volterra_value_direct(u, lam0, measure, spec, grid):
    """The two-sided left-point march with its history sums written out.

    Psi and Psi^eps convolve all earlier G_j with K(t_m - t_j) and K(t_m -
    t_j + eps) directly, O(N^2), and the value pairs G with h(t - s).
    """
    eps, dt, n = spec.epsilon_shift, grid.dt, len(grid)
    K = eval_kernel(measure, grid.times)
    K_eps = eval_kernel(measure, grid.times + eps)
    base = np.einsum("ab,tbc->tac", u, K) + np.einsum("tab,bc->tac", K, u)
    base_eps = (np.einsum("ab,tbc->tac", u, K_eps)
                + np.einsum("tab,bc->tac", K_eps, u))
    g = np.zeros((n,) + u.shape)
    for m in range(n):
        kern, kern_eps, past = K[m:0:-1], K_eps[m:0:-1], g[:m]
        psi = base[m] + dt * (np.einsum("jab,jbc->ac", past, kern)
                              + np.einsum("jab,jbc->ac", kern, past))
        psi_eps = base_eps[m] + dt * (np.einsum("jab,jbc->ac", past, kern_eps)
                                      + np.einsum("jab,jbc->ac", kern_eps, past))
        g[m] = psi + nonlinearity_R(psi_eps, spec) - psi_eps
    h = decay_sum(measure.nodes, lam0, grid.times)
    integ = dt * np.einsum("jab,jba->", g[:-1], h[:0:-1])
    return float(np.exp(np.einsum("ab,ba->", u, h[-1]) + integ))


def test_volterra_route_matches_direct_march_with_eps():
    # d = 2, k = 2, non-diagonal nu, two non-commuting atoms and eps > 0:
    # the node-state march is the direct march summed in another order
    nu = np.array([[[0.30, 0.05], [0.05, 0.12]],
                   [[0.10, -0.04], [-0.04, 0.20]]])
    measure = AtomicMatrixMeasure([0.7, 3.0], nu)
    lam0 = np.array([[[0.6, 0.1], [0.1, 0.5]], [[0.3, -0.05], [-0.05, 0.4]]])
    spec = JumpMeasureSpec(atoms=[np.diag([1.0, 0.3]), [[0.5, 0.2], [0.2, 0.4]]],
                           weights=[np.diag([0.2, 0.1]),
                                    [[0.1, 0.02], [0.02, 0.15]]],
                           epsilon_shift=0.05)
    u = np.array([[-0.8, 0.2], [0.2, -0.5]])
    n_steps = 200
    for t in (0.5, 1.0):
        got = laplace_transform_jump(u, lam0, measure, spec, t, n_steps)
        want = volterra_value_direct(u, lam0, measure, spec,
                                     TimeGrid.regular(t, n_steps))
        assert got.volterra_value == pytest.approx(want, rel=1e-12)
        assert got.discrepancy <= max(1e-4, 5.0 * t / n_steps)


def hawkes_lift_model():
    """The benchmark's PSD Hawkes lift: d = 2, k = 2, diagonal atoms."""
    eye = np.eye(2)
    measure = AtomicMatrixMeasure([0.6, 2.5], [0.35 * eye, 0.2 * eye])
    lam0 = np.array([0.8 * eye, 0.4 * eye])
    atoms = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    b = np.random.default_rng(11).normal(size=(2, 2)) * 0.4
    return measure, lam0, JumpMeasureSpec(atoms, atoms), -(b @ b.T + 0.05 * eye)


def nondiagonal_eps_model():
    """d = 2, k = 2, non-diagonal nu, two non-commuting atoms, eps = 0.05."""
    nu = np.array([[[0.30, 0.05], [0.05, 0.12]],
                   [[0.10, -0.04], [-0.04, 0.20]]])
    measure = AtomicMatrixMeasure([0.7, 3.0], nu)
    lam0 = np.array([[[0.6, 0.1], [0.1, 0.5]], [[0.3, -0.05], [-0.05, 0.4]]])
    spec = JumpMeasureSpec(atoms=[np.diag([1.0, 0.3]), [[0.5, 0.2], [0.2, 0.4]]],
                           weights=[np.diag([0.2, 0.1]),
                                    [[0.1, 0.02], [0.02, 0.15]]],
                           epsilon_shift=0.05)
    return measure, lam0, spec, np.array([[-0.8, 0.2], [0.2, -0.5]])


def explosive_model():
    """Lift solution about -e^(9999 t): finite at t = 0.06, past the floats by 0.08."""
    _, lam0, spec = scalar_hawkes()
    return AtomicMatrixMeasure([1.0], [[[5000.0]]]), lam0, spec


class TestBatchedTimes:
    @pytest.mark.parametrize("model", [hawkes_lift_model, nondiagonal_eps_model],
                             ids=["hawkes-lift", "nondiagonal-eps"])
    def test_one_march_equals_per_t_calls(self, model):
        # unsorted, with a duplicate: one result per entry, in input order
        measure, lam0, spec, u = model()
        ts = [1.0, 0.25, 0.5, 0.25]
        batched = laplace_transform_jump(u, lam0, measure, spec, ts, n_steps=1000)
        assert len(batched) == len(ts)
        for t, got in zip(ts, batched):
            want = laplace_transform_jump(u, lam0, measure, spec, t, n_steps=1000)
            assert got.lift_value == pytest.approx(want.lift_value, rel=1e-14, abs=0.0)
            assert got.volterra_value == pytest.approx(want.volterra_value,
                                                       rel=1e-14, abs=0.0)
        assert batched[1] == batched[3]

    def test_solvers_stack_their_grids(self):
        # each t keeps its own step t / 50; the stacked march equals the per-t one
        measure, _, spec, u = nondiagonal_eps_model()
        y0 = np.broadcast_to(u, (2, 2, 2)).copy()
        ts = [0.5, 2.0, 0.5]
        for solve in (solve_lift_riccati_jump, solve_volterra_riccati_jump):
            stacked = solve(y0, measure, spec, ts, 50)
            assert stacked.shape == (3, 2, 2, 2)
            for t, got in zip(ts, stacked):
                np.testing.assert_allclose(got, solve(y0, measure, spec, [t], 50)[0],
                                           rtol=1e-14, atol=1e-15)
            np.testing.assert_array_equal(stacked[0], stacked[2])

    @pytest.mark.parametrize("n_steps", [0, -3])
    def test_n_steps_checked_before_any_march(self, n_steps, monkeypatch):
        import mvolt.riccati as riccati_mod

        def no_operators(*args, **kwargs):
            raise AssertionError("built the march operators before n_steps was checked")

        monkeypatch.setattr(riccati_mod, "lift_operator", no_operators)
        measure, lam0, spec = scalar_hawkes()
        y0 = np.full((1, 1, 1), -1.0)
        match = f"need n_steps >= 1, got {n_steps}$"
        with pytest.raises(ValueError, match=match):
            laplace_transform_jump(np.array([[-1.0]]), lam0, measure, spec, 0.5,
                                   n_steps=n_steps)
        for solve in (solve_lift_riccati_jump, solve_volterra_riccati_jump):
            with pytest.raises(ValueError, match=match):
                solve(y0, measure, spec, [0.5], n_steps)

    def test_float_t_returns_floats(self):
        measure, lam0, spec = scalar_hawkes()
        res = laplace_transform_jump(np.array([[-1.0]]), lam0, measure, spec, 0.5)
        assert type(res.lift_value) is float and type(res.volterra_value) is float
        assert laplace_transform_jump(np.array([[-1.0]]), lam0, measure, spec, [0.5]) == [res]

    @pytest.mark.parametrize("ts, before", [
        ([0.1], 0.08),
        ([0.05, 0.1], 0.08),          # the first t converges
        ([0.3, 0.1], 0.09),           # the later t diverges at an earlier grid time
        ([0.05, 0.3, 0.1], 0.09),
        ([0.1, 0.3], 0.08),
    ])
    def test_divergence_names_the_first_t_in_order(self, ts, before):
        # 10 steps: grid times 0.01 j for t = 0.1 and 0.03 j for t = 0.3
        measure, lam0, spec = explosive_model()
        with pytest.raises(FloatingPointError) as exc:
            laplace_transform_jump(np.array([[-1.0]]), lam0, measure, spec, ts,
                                   n_steps=10)
        assert str(exc.value) == f"lift Riccati diverged before t = {before:.6g}"
        # the same line as the first failing per-t call
        for t in ts:
            try:
                laplace_transform_jump(np.array([[-1.0]]), lam0, measure, spec, t,
                                       n_steps=10)
            except FloatingPointError as per_t:
                assert str(per_t) == str(exc.value)
                break

    @pytest.mark.parametrize("t", [1e-300, 4e-300])
    def test_tiny_step_stays_finite(self, t):
        # h = t / 400 is below 1e-302; the phi blocks are never divided by a
        # power of h, so the step is the identity to first order in h
        measure, lam0, spec = scalar_hawkes()
        u = np.array([[-1.0]])
        res = laplace_transform_jump(u, lam0, measure, spec, t)
        want = np.exp(-float(np.sum(lam0)))
        assert res.lift_value == pytest.approx(want, rel=1e-15)
        assert res.volterra_value == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("u, message", [
        ([[-1.0, 0.0]], r"u must be 2 x 2, got shape \(1, 2\)"),
        ([[-np.inf, 0.0], [0.0, -1.0]], "u must be finite"),
        ([[np.nan, 0.0], [0.0, -1.0]], "u must be finite"),
    ], ids=["one-row", "inf", "nan"])
    def test_u_checked_before_any_march(self, u, message):
        measure, lam0, spec, _ = nondiagonal_eps_model()
        with pytest.raises(ValueError, match=message):
            laplace_transform_jump(np.array(u), lam0, measure, spec, 0.5)

    @pytest.mark.parametrize("ts", [0.5, [1.0, 0.25, 0.5]], ids=["one-t", "three-t"])
    def test_memory_does_not_grow_with_steps(self, ts):
        # both routes keep only the node states, so ten times the steps
        # allocates nothing more
        import tracemalloc

        measure, lam0, spec = scalar_hawkes()

        def peak(n_steps):
            tracemalloc.start()
            try:
                laplace_transform_jump(np.array([[-1.0]]), lam0, measure, spec, ts,
                                       n_steps=n_steps)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(400)
        assert peak(4000) - peak(400) < 16 * 1024

    @pytest.mark.parametrize("ts, bad", [(np.inf, "inf"), ([0.5, np.nan], "nan"),
                                         ([0.5, 0.0], "0.0"), (-1.0, "-1.0")])
    def test_t_checked_before_any_march(self, ts, bad, monkeypatch):
        import mvolt.riccati as riccati_mod

        def no_march(*args, **kwargs):
            raise AssertionError("marched before every t was checked")

        monkeypatch.setattr(riccati_mod, "solve_lift_riccati_jump", no_march)
        measure, lam0, spec = scalar_hawkes()
        with pytest.raises(ValueError,
                           match=f"t must be positive and finite, got {bad}$"):
            laplace_transform_jump(np.array([[-1.0]]), lam0, measure, spec, ts)
