import numpy as np
import pytest

from mvolt.kernelops import convolve_simpson, resolvent_residual, resolvent_second_kind
from mvolt.measures import TimeGrid


def grid_of(n, horizon=1.0):
    return TimeGrid.regular(horizon, n)


class TestConvolve:
    def test_constants_exact(self):
        g = grid_of(100)
        one = np.ones((len(g), 1, 1))
        out = convolve_simpson(one, one, g)
        np.testing.assert_allclose(out[:, 0, 0], g.times, atol=1e-13)

    def test_equal_exponentials_closed_form(self):
        # (e^{-t} * e^{-t})(t) = t e^{-t}; the integrand is constant in s,
        # so the quadrature is exact up to round-off
        g = grid_of(100)
        f = np.exp(-g.times)[:, None, None]
        out = convolve_simpson(f, f, g)
        assert np.max(np.abs(out[:, 0, 0] - g.times * np.exp(-g.times))) < 1e-13

    def test_distinct_exponentials_second_order(self):
        # (e^{-t} * e^{-2t})(t) = e^{-t} (1 - e^{-t}); the trapezoid panel
        # that ends an odd prefix keeps the sup error at least O(dt^2)
        errs = []
        for n in (100, 200):
            g = grid_of(n)
            f = np.exp(-g.times)[:, None, None]
            h = np.exp(-2.0 * g.times)[:, None, None]
            exact = np.exp(-g.times) * (1.0 - np.exp(-g.times))
            errs.append(np.max(np.abs(convolve_simpson(f, h, g)[:, 0, 0] - exact)))
        assert errs[0] <= 2.0 * (1.0 / 100) ** 2
        assert errs[1] <= 0.3 * errs[0]

    def test_dimension_mismatch(self):
        g = grid_of(10)
        with pytest.raises(ValueError, match="dimension"):
            convolve_simpson(np.ones((len(g), 2, 3)), np.ones((len(g), 2, 3)), g)

    def test_simpson_beats_trapezoid(self):
        # the trapezoid rule misses the exact value by 5.7867e-6 on this grid
        g = grid_of(60)
        f = np.exp(-g.times)[:, None, None]
        h = np.exp(-2.0 * g.times)[:, None, None]
        exact = np.exp(-g.times) * (1.0 - np.exp(-g.times))
        err_s = np.max(np.abs(convolve_simpson(f, h, g)[:, 0, 0] - exact))
        assert err_s < 0.2 * 5.786e-6


class TestResolvent:
    def test_scalar_constant_kernel(self):
        # K == c: R(t) = c e^{-2 c t}
        c = 1.0
        g = grid_of(1000)
        K = np.full((len(g), 1, 1), c)
        R = resolvent_second_kind(K, g)
        exact = c * np.exp(-2.0 * c * g.times)
        assert np.max(np.abs(R[:, 0, 0] - exact)) <= 5e-7
        assert R[0, 0, 0] == pytest.approx(c)

    def test_zero_kernel(self):
        g = grid_of(50)
        R = resolvent_second_kind(np.zeros((len(g), 2, 2)), g)
        np.testing.assert_array_equal(R, 0.0)

    def test_diagonal_decouples(self):
        g = grid_of(200)
        diag = np.zeros((len(g), 2, 2))
        diag[:, 0, 0] = 1.0
        diag[:, 1, 1] = 0.5 * np.exp(-g.times)
        R = resolvent_second_kind(diag, g)
        r00 = resolvent_second_kind(diag[:, :1, :1], g)
        r11 = resolvent_second_kind(diag[:, 1:, 1:], g)
        np.testing.assert_allclose(R[:, 0, 0], r00[:, 0, 0], atol=1e-12)
        np.testing.assert_allclose(R[:, 1, 1], r11[:, 0, 0], atol=1e-12)
        assert np.max(np.abs(R[:, 0, 1])) <= 1e-12

    def test_residual_first_order(self):
        def kern(times):
            base = np.array([[0.8, 0.2], [0.2, 0.5]])
            bump = np.array([[0.3, -0.1], [-0.1, 0.4]])
            return (np.exp(-0.7 * times)[:, None, None] * base
                    + np.exp(-2.0 * times)[:, None, None] * bump)

        residuals = []
        for n in (50, 100, 200):
            g = grid_of(n)
            K = kern(g.times)
            R = resolvent_second_kind(K, g)
            res = resolvent_residual(K, R, g)
            residuals.append(res)
            assert res <= 5.0 / n
        assert residuals[1] <= 0.55 * residuals[0]
        assert residuals[2] <= 0.55 * residuals[1]
