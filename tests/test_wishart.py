from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvolt.mc import run_path_blocks
from mvolt.measures import AtomicMatrixMeasure
from mvolt.ou import simulate_lift_blocks
from mvolt.wishart import (
    WishartTransformQuery,
    affine_transform_wishart,
    closed_form_laplace,
    mean_wishart,
    noise_variance,
    simulate_wishart,
)


def random_setup(seed=0, d=2, n=3, k=3):
    rng = np.random.default_rng(seed)
    nodes = np.geomspace(0.3, 4.0, k)
    ws = []
    for _ in range(k):
        a = rng.normal(size=(d, d)) * 0.4
        ws.append(a @ a.T)
    measure = AtomicMatrixMeasure(nodes, np.array(ws))
    gamma0 = rng.normal(size=(k, n, d)) * 0.3
    return measure, gamma0, rng


class TestClosedForm:
    def test_scalar_squared_brownian(self):
        # d=n=k=1, x=0, nu=1, gamma0=0: E[exp(-W_t^2)] = (1 + 2t)^(-1/2)
        m = AtomicMatrixMeasure([0.0], [[[1.0]]])
        for t in (0.5, 1.0, 2.0):
            q = WishartTransformQuery(t=t, c=np.array([[1.0]]),
                                      gamma0=np.zeros((1, 1, 1)))
            assert closed_form_laplace(q, m) == pytest.approx(
                (1.0 + 2.0 * t) ** -0.5, rel=1e-13
            )

    def test_zero_argument_gives_one(self):
        measure, gamma0, _ = random_setup()
        q = WishartTransformQuery(t=1.0, c=np.zeros((3, 2)), gamma0=gamma0)
        assert closed_form_laplace(q, measure) == pytest.approx(1.0)

    def test_t_zero_limit(self):
        measure, gamma0, rng = random_setup()
        c = rng.normal(size=(3, 2))
        q = WishartTransformQuery(t=0.0, c=c, gamma0=gamma0)
        x0 = gamma0.sum(axis=0)
        expected = np.exp(-np.trace(c.T @ c @ x0.T @ x0))
        assert closed_form_laplace(q, measure) == pytest.approx(expected, rel=1e-12)

    def test_value_in_unit_interval(self):
        measure, gamma0, rng = random_setup(3)
        for _ in range(20):
            c = rng.normal(size=(3, 2))
            t = float(rng.uniform(0.01, 3.0))
            v = closed_form_laplace(
                WishartTransformQuery(t=t, c=c, gamma0=gamma0), measure
            )
            assert 0.0 < v <= 1.0

    def test_monotone_decreasing_in_t_for_zero_start(self):
        measure, _, rng = random_setup(5)
        c = rng.normal(size=(3, 2))
        gamma0 = np.zeros((3, 3, 2))
        vals = [
            closed_form_laplace(
                WishartTransformQuery(t=t, c=c, gamma0=gamma0), measure
            )
            for t in (0.2, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("rows", [1, 5])
    def test_only_c_transpose_c_enters(self, rows):
        # n = 3 rows of X; a c with another row count and its zero-padded or
        # truncated n-row copy share U = c^T c, so they share the transform
        measure, gamma0, rng = random_setup(13)
        c = rng.normal(size=(rows, 2))
        c[3:] = 0.0
        c_n = np.zeros((3, 2))
        c_n[:min(rows, 3)] = c[:3]
        q, q_n = (WishartTransformQuery(t=0.8, c=cc, gamma0=gamma0) for cc in (c, c_n))
        assert closed_form_laplace(q, measure) == pytest.approx(
            closed_form_laplace(q_n, measure), rel=1e-12)
        np.testing.assert_allclose(affine_transform_wishart(q, measure),
                                   affine_transform_wishart(q_n, measure), rtol=1e-12)


class TestAffineSplit:
    def test_matches_closed_form(self):
        measure, gamma0, rng = random_setup(7)
        for _ in range(10):
            c = rng.normal(size=(3, 2))
            t = float(rng.uniform(0.05, 2.5))
            q = WishartTransformQuery(t=t, c=c, gamma0=gamma0)
            phi, pair = affine_transform_wishart(q, measure)
            v = closed_form_laplace(q, measure)
            assert np.exp(-phi - pair) == pytest.approx(v, rel=1e-12)

    def test_zero_start_kills_pairing(self):
        measure, _, rng = random_setup(9)
        c = rng.normal(size=(3, 2))
        q = WishartTransformQuery(t=0.7, c=c, gamma0=np.zeros((3, 3, 2)))
        phi, pair = affine_transform_wishart(q, measure)
        assert pair == pytest.approx(0.0, abs=1e-14)
        assert closed_form_laplace(q, measure) == pytest.approx(
            np.exp(-phi), rel=1e-12
        )

    def test_zero_argument_kills_phi(self):
        measure, gamma0, _ = random_setup(11)
        q = WishartTransformQuery(t=0.7, c=np.zeros((3, 2)), gamma0=gamma0)
        phi, _ = affine_transform_wishart(q, measure)
        assert phi == pytest.approx(0.0, abs=1e-14)

    def test_scalar_phi_formula(self):
        # d = 1: phi = (n/2) log(1 + 2 q_t)
        m = AtomicMatrixMeasure([0.5], [[[0.8]]])
        c = np.array([[0.9], [0.4]])  # n = 2
        t = 1.3
        q = WishartTransformQuery(t=t, c=c, gamma0=np.zeros((1, 2, 1)))
        phi, _ = affine_transform_wishart(q, m)
        qt = float(noise_variance(m, t)[0, 0]) * float((c.T @ c)[0, 0])
        assert phi == pytest.approx(0.5 * 2 * np.log(1.0 + 2.0 * qt), rel=1e-12)


class TestSimulation:
    def test_no_noise_reduces_to_decay_square(self):
        measure = AtomicMatrixMeasure([0.5, 2.0], np.zeros((2, 2, 2)))
        gamma0 = np.random.default_rng(0).normal(size=(2, 3, 2))
        t = 0.8
        v = simulate_wishart(measure, gamma0, [t], 3, seed=1)
        h = (np.exp(-measure.nodes * t)[:, None, None] * gamma0).sum(axis=0)
        for p in range(3):
            np.testing.assert_allclose(v[p, 0], h.T @ h, rtol=1e-12)

    def test_squared_brownian_mean(self):
        m = AtomicMatrixMeasure([0.0], [[[1.0]]])
        v = simulate_wishart(m, np.zeros((1, 1, 1)), [1.0], 50_000, seed=2)
        vals = v[:, 0, 0, 0]
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - 1.0) <= 3.5 * se

    def test_psd_by_construction(self):
        measure, gamma0, _ = random_setup(13)
        v = simulate_wishart(measure, gamma0, [0.5, 1.5], 200, seed=3)
        for sample in v.reshape(-1, 2, 2):
            lo = np.linalg.eigvalsh(sample)[0]
            assert lo >= -1e-12 * max(np.trace(sample), 1.0)

    def test_mean_identity(self):
        measure, gamma0, _ = random_setup(17)
        t = 0.9
        v = simulate_wishart(measure, gamma0, t * np.ones(1), 60_000, seed=4)
        target = mean_wishart(measure, gamma0, t)
        mean = v[:, 0].mean(axis=0)
        se = v[:, 0].std(axis=0, ddof=1) / np.sqrt(v.shape[0])
        assert np.all(np.abs(mean - target) <= 3.5 * se)

    def test_deterministic_given_seed(self):
        measure, gamma0, _ = random_setup(19)
        a = simulate_wishart(measure, gamma0, [0.5], 64, seed=5)
        b = simulate_wishart(measure, gamma0, [0.5], 64, seed=5)
        np.testing.assert_array_equal(a, b)


class TestPathRecord:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_construction_identity_enforced(self, n, d):
        # V = X^T X holds sample by sample, so every V sample is PSD; the
        # sum of the n row outer products is the einsum to the last bits
        # (an ulp apart at d = 1, n >= 3)
        measure, gamma0, _ = random_setup(23, d=d, n=n)
        times = [0.5, 1.0]
        x = simulate_lift_blocks(measure, gamma0, times, 3, 0, 5)
        v = simulate_wishart(measure, gamma0, times, 5, seed=3)
        assert x.shape == (5, 2, n, d)
        np.testing.assert_allclose(v, np.einsum("ptna,ptnb->ptab", x, x), rtol=1e-14, atol=0)
        for mat in v.reshape(-1, d, d):
            assert np.linalg.eigvalsh(mat)[0] >= -1e-12 * max(np.trace(mat), 1.0)

    def test_simulated_records(self):
        # path p of the X block does not depend on how paths are blocked
        measure, gamma0, _ = random_setup(23)
        block = partial(simulate_lift_blocks, measure, gamma0, [0.5, 1.0])
        np.testing.assert_array_equal(
            run_path_blocks(block, 5, seed=3, block_size=2), block(3, 0, 5)
        )


class TestLaplaceBoundsProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        t=st.floats(min_value=1e-3, max_value=4.0),
        scale=st.floats(min_value=0.05, max_value=2.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_value_in_unit_interval_everywhere(self, t, scale, seed):
        measure, gamma0, _ = random_setup(3)
        c = scale * np.random.default_rng(seed).normal(size=(3, 2))
        v = closed_form_laplace(
            WishartTransformQuery(t=t, c=c, gamma0=gamma0), measure
        )
        phi, pair = affine_transform_wishart(
            WishartTransformQuery(t=t, c=c, gamma0=gamma0), measure
        )
        assert 0.0 < v <= 1.0
        assert phi >= -1e-12 and pair >= -1e-12
        assert np.exp(-phi - pair) == pytest.approx(v, rel=1e-11)
