import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mvolt.kernelops import atomic_resolvent, resolvent_generator, resolvent_second_kind
from mvolt.measures import AtomicMatrixMeasure, TimeGrid

# criterion 6's matrix kernel
CRITERION_6 = AtomicMatrixMeasure(
    [0.7, 2.0], [[[0.8, 0.2], [0.2, 0.5]], [[0.3, -0.1], [-0.1, 0.4]]])


def grid_of(n, horizon=1.0):
    return TimeGrid.regular(horizon, n)


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


def laplace_residual(measure, s):
    """Sup residual of (Khat + I/2) Rhat + Rhat (Khat + I/2) = Khat at s, with
    Rhat = C (sI - M)^-1 s0 read off the flow's generator, without expm."""
    M, start, readout = resolvent_generator(measure)
    d = measure.d
    r_hat = (readout @ np.linalg.solve(s * np.eye(len(M)) - M, start)).reshape(d, d)
    k_hat = sum(w / (s + x) for x, w in zip(measure.nodes, measure.weights))
    a = k_hat + 0.5 * np.eye(d)
    return np.max(np.abs(a @ r_hat + r_hat @ a - k_hat))


@st.composite
def psd_measures(draw):
    """Small atomic measures with PSD weights: d <= 2, k <= 3."""
    d, k = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    gaps = draw(st.lists(st.floats(0.05, 3.0), min_size=k, max_size=k))
    nodes = np.cumsum(gaps) - gaps[0] * draw(st.sampled_from([0.0, 1.0]))
    a = np.reshape(draw(st.lists(st.floats(-1.0, 1.0), min_size=k * d * d,
                                 max_size=k * d * d)), (k, d, d))
    return AtomicMatrixMeasure(nodes, a @ a.transpose(0, 2, 1))


class TestAtomicFlow:
    @settings(max_examples=40)
    @given(measure=psd_measures())
    @example(measure=CRITERION_6)
    def test_laplace_identity_property(self, measure):
        for s in (0.5, 1.0, 3.0):
            assert laplace_residual(measure, s) <= 1e-12

    @pytest.mark.parametrize("a", [0.0, 1.3])
    def test_one_node_closed_form(self, a):
        # K = c e^{-a t}: R = c e^{-(a + 2 c) t}
        c = 0.8
        times = np.linspace(0.0, 2.0, 41)
        R = atomic_resolvent(AtomicMatrixMeasure([a], [[[c]]]), times)
        assert np.max(np.abs(R[:, 0, 0] - c * np.exp(-(a + 2.0 * c) * times))) <= 1e-13
