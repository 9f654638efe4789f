import numpy as np
import pytest
import scipy.special

from mvolt import fractional
from mvolt.fractional import (
    FractionalKernelSpec,
    fit_fractional_measure,
    fractional_kernel_exact,
    fractional_kernel_quadrature,
    fractional_nodes,
    gamma_fn,
)
from mvolt.measures import eval_kernel


class TestOracle:
    @pytest.mark.parametrize("hurst", [0.1, 0.25, 0.4])
    def test_quadrature_matches_gamma_closed_form(self, hurst):
        t = np.geomspace(1e-3, 10.0, 40)
        q = fractional_kernel_quadrature(t, hurst)
        e = fractional_kernel_exact(t, hurst)
        assert np.max(np.abs(q / e - 1.0)) < 1e-9

    def test_requires_positive_time(self):
        with pytest.raises(ValueError):
            fractional_kernel_quadrature(np.array([0.0]), 0.3)


class TestSpecValidation:
    def test_hurst_range(self):
        with pytest.raises(ValueError, match="1/2"):
            FractionalKernelSpec(np.array([[0.5]]), 1e-2, 1.0, 10)

    def test_hurst_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            FractionalKernelSpec(np.array([[0.2, 0.1], [0.3, 0.2]]), 1e-2, 1.0, 10)

    @pytest.mark.parametrize("t_min, t_max", [(1.0, 0.5), (0.0, 1.0), (1e-2, np.inf),
                                              (np.nan, 1.0), (1e-2, np.nan)])
    def test_window_order(self, t_min, t_max):
        with pytest.raises(ValueError, match="0 < t_min < t_max < inf"):
            FractionalKernelSpec(np.array([[0.2]]), t_min, t_max, 10)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError, match="2 nodes"):
            FractionalKernelSpec(np.array([[0.2]]), 1e-2, 1.0, 1)


class TestFit:
    def test_k20_reaches_5em3(self):
        for hurst in (0.1, 0.25, 0.4):
            spec = FractionalKernelSpec(np.array([[hurst]]), 1e-3, 10.0, 20)
            fit = fit_fractional_measure(spec)
            assert fit.sup_rel_error <= 5e-3

    def test_error_monotone_in_k(self):
        errs = []
        for k in (10, 20, 40):
            spec = FractionalKernelSpec(np.array([[0.25]]), 1e-3, 10.0, k)
            errs.append(fit_fractional_measure(spec).sup_rel_error)
        assert errs[0] >= errs[1] >= errs[2]

    def test_nested_node_ladder(self):
        n10 = fractional_nodes(1e-3, 10.0, 10)
        n20 = fractional_nodes(1e-3, 10.0, 20)
        # every level-10 node reappears at level 20
        for x in n10:
            assert np.min(np.abs(n20 - x)) <= 1e-12 * x

    def test_dyadic_scaling_ratio(self):
        # fitted kernel inherits K(2t)/K(t) ~ 2^(H - 1/2) on the window
        hurst = 0.25
        spec = FractionalKernelSpec(np.array([[hurst]]), 1e-3, 10.0, 20)
        fit = fit_fractional_measure(spec)
        t = np.geomspace(2e-3, 4.0, 12)
        k1 = eval_kernel(fit.measure, t)[:, 0, 0]
        k2 = eval_kernel(fit.measure, 2.0 * t)[:, 0, 0]
        np.testing.assert_allclose(k2 / k1, 2.0 ** (hurst - 0.5), rtol=2e-2)

    def test_reported_error_holds_on_finer_grid(self):
        spec = FractionalKernelSpec(np.array([[0.1]]), 1e-3, 10.0, 20)
        fit = fit_fractional_measure(spec)
        t = np.geomspace(1e-3, 10.0, 25000)
        fitted = eval_kernel(fit.measure, t)[:, 0, 0]
        err = np.max(np.abs(fitted / fractional_kernel_exact(t, 0.1) - 1.0))
        assert err <= 2.0 * fit.sup_rel_error

    def test_matrix_of_hurst_indices(self):
        h = np.array([[0.1, 0.25], [0.25, 0.4]])
        spec = FractionalKernelSpec(h, 1e-2, 5.0, 20)
        fit = fit_fractional_measure(spec)
        t = np.geomspace(1e-2, 5.0, 200)
        K = eval_kernel(fit.measure, t)
        for i in range(2):
            for j in range(2):
                target = fractional_kernel_exact(t, h[i, j])
                assert np.max(np.abs(K[:, i, j] / target - 1.0)) <= 5e-3

    def test_infeasible_tolerance_reported(self):
        spec = FractionalKernelSpec(np.array([[0.1]]), 1e-3, 10.0, 4)
        with pytest.raises(ValueError, match="infeasible"):
            fit_fractional_measure(spec, tol=1e-8)


class TestGamma:
    def test_bitwise_scipy_gamma_on_the_unit_interval(self):
        small = np.geomspace(5e-324, 1e-9, 2001)
        x = np.concatenate([
            np.linspace(0.0, 1.0, 200_001)[1:], small, np.nextafter(small, 1.0),
            [0.5, 1.0, np.nextafter(1.0, 0.0), np.nextafter(0.5, 1.0)],
            np.random.default_rng(0).uniform(0.0, 1.0, 100_000),
        ])
        assert np.count_nonzero(x < 1e-9) > 2000
        got = np.array([gamma_fn(v) for v in x])
        np.testing.assert_array_equal(got.view(np.int64),
                                      scipy.special.gamma(x).view(np.int64))

    def test_bitwise_scipy_gamma_up_to_33(self):
        x = np.concatenate([np.linspace(1.0, 33.0, 64_001), np.arange(1.0, 34.0)])
        got = np.array([gamma_fn(v) for v in x])
        np.testing.assert_array_equal(got.view(np.int64),
                                      scipy.special.gamma(x).view(np.int64))

    @pytest.mark.parametrize("x", [0.0, -0.5, 33.5, np.inf, np.nan])
    def test_outside_the_port_raises(self, x):
        with pytest.raises(ValueError, match="0 < x <= 33"):
            gamma_fn(x)

    @pytest.mark.parametrize("k", [10, 20, 40])
    @pytest.mark.parametrize("hurst", [[[0.1, 0.2], [0.2, 0.3]], 0.1, 0.25, 0.4])
    def test_fit_equals_the_scipy_gamma_fit(self, monkeypatch, hurst, k):
        spec = FractionalKernelSpec(np.array(hurst, ndmin=2), 1e-3, 10.0, k)
        fit = fit_fractional_measure(spec)
        monkeypatch.setattr(fractional, "gamma_fn", scipy.special.gamma)
        ref = fit_fractional_measure(spec)
        assert np.array_equal(fit.measure.nodes, ref.measure.nodes)
        assert np.array_equal(fit.measure.weights, ref.measure.weights)
        assert np.array_equal(fit.entry_errors, ref.entry_errors)
        assert fit.sup_rel_error == ref.sup_rel_error
