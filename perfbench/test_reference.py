"""Tests of the benchmark's reference computations against closed forms.

Run with ``python3 -m pytest perfbench/test_reference.py`` from the
repository root.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import reference as ref  # noqa: E402
from mvolt import heston, riccati, validate  # noqa: E402
from mvolt.jumps import JumpMeasureSpec  # noqa: E402


def _charfn_by_ode(nodes, weights, gamma0, rho, p0, v, t):
    """The stacked Riccati and phi' = n Tr(M^T Psi M) by DOP853."""
    w = 1j * np.asarray(v, dtype=complex)
    A, MMt, ECE = ref.stacked_riccati_coefficients(nodes, weights, rho, w)
    kd = A.shape[0]
    n = np.asarray(gamma0).shape[1]

    def rhs(_, flat):
        psi = flat[:-1].reshape(kd, kd)
        dpsi = A.T @ psi + psi @ A - 2.0 * psi @ MMt @ psi + ECE
        return np.concatenate([dpsi.ravel(), [n * np.trace(MMt @ psi)]])

    sol = solve_ivp(rhs, (0.0, t), np.zeros(kd * kd + 1, dtype=complex),
                    method="DOP853", rtol=1e-13, atol=1e-15)
    psi, phi = sol.y[:-1, -1].reshape(kd, kd), sol.y[-1, -1]
    pairing = np.trace(psi @ ref.initial_pairing_matrix(gamma0))
    return complex(np.exp(-phi - pairing + w @ np.asarray(p0, dtype=float)))


def test_kernel_square_integral_matches_exponential_closed_form():
    rng = np.random.default_rng(3)
    nodes = np.array([0.0, 0.7, 30.0, 4.0e4])
    weights = np.array([a @ a.T for a in rng.normal(size=(4, 2, 2))])
    t = 0.8
    rates = nodes[:, None] + nodes[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        E = np.where(rates > 0, -np.expm1(-rates * t) / rates, t)
    exact = np.einsum("ij,iab,jbc->ac", E, weights, weights)
    got = ref.kernel_square_integral(nodes, weights, t)
    np.testing.assert_allclose(got, exact, rtol=1e-12)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_wishart_reference_scalar_closed_form(t):
    nodes, weights, gamma0 = [0.0], np.ones((1, 1, 1)), np.zeros((1, 1, 1))
    value = ref.wishart_laplace(nodes, weights, gamma0, np.ones((1, 1)), t)
    assert value == pytest.approx((1.0 + 2.0 * t) ** -0.5, rel=1e-13)
    mean = ref.wishart_mean(nodes, weights, gamma0, t)
    assert mean[0, 0] == pytest.approx(t, rel=1e-13)


def test_charfn_reference_without_vol_of_vol_is_gaussian():
    # nu = 0 freezes V_s = H_s^T H_s, so P_t is Gaussian with variance
    # int V ds and mean p0 - diag(int V ds) / 2.
    nodes = np.array([0.5, 2.0])
    gamma0 = np.random.default_rng(1).normal(size=(2, 2, 2)) * 0.3
    rho, p0, t = np.array([-0.5, 0.2]), np.array([0.1, -0.2]), 0.9
    rates = nodes[:, None] + nodes[None, :]
    intV = np.einsum("ij,ina,jnb->ab", -np.expm1(-rates * t) / rates, gamma0, gamma0)
    for v in ([1.0, 0.0], [1.0, -2.0], [0.3 - 2.5j, 0.0]):
        v = np.asarray(v, dtype=complex)
        exact = np.exp(1j * v @ (p0 - 0.5 * np.diag(intV)) - 0.5 * v @ intV @ v)
        got = ref.heston_charfn(nodes, np.zeros((2, 2, 2)), gamma0, rho, p0, v, t)
        assert abs(got - exact) <= 1e-13 * max(abs(exact), 1.0)


def test_charfn_reference_matches_program_on_single_asset_arguments():
    model = validate.heston_reference_model()
    m = model.measure
    for v in ([1.0, 0.0], [0.0, 1.5], [0.7 - 2.5j, 0.0], [12.0 - 2.5j, 0.0]):
        want = ref.heston_charfn(m.nodes, m.weights, model.gamma0, model.rho,
                                 model.p0, v, 1.0)
        got = heston.char_function(model, np.asarray(v), 1.0)
        assert abs(got - want) <= 1e-10


def test_charfn_reference_matches_ode_on_two_asset_arguments():
    model = validate.heston_reference_model()
    m = model.measure
    for v in ([1.0, 1.0], [10.0, -3.0]):
        want = _charfn_by_ode(m.nodes, m.weights, model.gamma0, model.rho,
                              model.p0, v, 1.0)
        got = ref.heston_charfn(m.nodes, m.weights, model.gamma0, model.rho,
                                model.p0, v, 1.0)
        assert abs(got - want) <= 1e-11


def test_hawkes_mean_counts_scalar_closed_form():
    # d = k = 1, unit atom and weight: E[lam]' = (4 nu - x) E[lam].
    x, nu, lam0, T = 1.3, 0.4, 0.9, 1.5
    a = 4.0 * nu - x
    got = ref.jump_lift_mean_counts([x], [[[nu]]], [[[lam0]]], [[[1.0]]],
                                    [[[1.0]]], 0.0, T)
    assert got[0] == pytest.approx(lam0 * np.expm1(a * T) / a, rel=1e-12)


def test_jump_laplace_scalar_without_jumps_closed_form():
    # no atoms: y' = (2 nu - x) y, so the value is exp(u lam0 e^((2 nu - x) t)).
    x, nu, lam0, u, t = 1.3, 0.4, 0.9, -0.7, 0.8
    got = ref.jump_lift_laplace([x], [[[nu]]], [[[lam0]]], np.zeros((0, 1, 1)),
                                np.zeros((0, 1, 1)), 0.0, [[u]], t)
    assert got == pytest.approx(np.exp(u * lam0 * np.exp((2 * nu - x) * t)), rel=1e-11)


def test_jump_laplace_reference_matches_program_lift_route():
    nodes = np.array([0.6, 2.5])
    weights = np.zeros((2, 2, 2))
    lam0 = np.zeros((2, 2, 2))
    weights[0], weights[1] = 0.35 * np.eye(2), 0.2 * np.eye(2)
    lam0[0], lam0[1] = 0.8 * np.eye(2), 0.4 * np.eye(2)
    atoms = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    u = np.array([[-0.5, 0.1], [0.1, -0.3]])
    from mvolt.measures import AtomicMatrixMeasure

    res = riccati.laplace_transform_jump(
        u, lam0, AtomicMatrixMeasure(nodes, weights), JumpMeasureSpec(atoms, atoms),
        1.0, n_steps=400)
    want = ref.jump_lift_laplace(nodes, weights, lam0, atoms, atoms, 0.0, u, 1.0)
    assert res.lift_value == pytest.approx(want, rel=1e-9)
