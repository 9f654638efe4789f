import numpy as np
import pytest

from mvolt.measures import (
    AtomicMatrixMeasure,
    TimeGrid,
    check_psd,
    decay_integral,
    eval_kernel,
    pair_decay_integrals,
)


def make_measure(nodes, weights):
    return AtomicMatrixMeasure(np.asarray(nodes), np.asarray(weights))


class TestEvalKernel:
    def test_single_exponential(self):
        m = make_measure([2.0], [[[1.0]]])
        assert eval_kernel(m, 0.5)[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_t_zero_total_mass(self):
        w = np.array([[[1.0, 0.2], [0.2, 0.5]], [[0.3, 0.0], [0.0, 0.7]]])
        m = make_measure([0.5, 2.0], w)
        np.testing.assert_allclose(eval_kernel(m, 0.0), w.sum(axis=0))

    def test_negative_time_rejected(self):
        m = make_measure([1.0], [[[1.0]]])
        with pytest.raises(ValueError):
            eval_kernel(m, -0.1)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 2, 2))
        w = a + np.swapaxes(a, 1, 2)
        m = make_measure([0.1, 1.0, 4.0], w)
        K = eval_kernel(m, 0.7)
        np.testing.assert_allclose(K, K.T)

    def test_vectorized_times(self):
        m = make_measure([1.0, 3.0], np.broadcast_to(np.eye(2), (2, 2, 2)))
        ts = np.array([0.0, 0.5, 1.0])
        K = eval_kernel(m, ts)
        assert K.shape == (3, 2, 2)
        np.testing.assert_allclose(K[1], eval_kernel(m, 0.5))

    def test_psd_for_psd_weights(self):
        rng = np.random.default_rng(1)
        ws = []
        for _ in range(3):
            a = rng.normal(size=(3, 3))
            ws.append(a @ a.T)
        m = make_measure([0.2, 1.0, 5.0], ws)
        for t in np.linspace(0.0, 4.0, 9):
            assert np.linalg.eigvalsh(eval_kernel(m, t))[0] >= -1e-12


class TestValidation:
    def test_nodes_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            make_measure([1.0, 1.0], np.zeros((2, 1, 1)))

    def test_nodes_nonnegative(self):
        with pytest.raises(ValueError):
            make_measure([-0.1], np.zeros((1, 1, 1)))

    def test_weights_symmetric_for_symmetric_shape(self):
        with pytest.raises(ValueError, match="symmetric"):
            make_measure([1.0], [[[0.0, 1.0], [0.0, 0.0]]])

    def test_psd_check_rejects_indefinite(self):
        # the measure itself allows an indefinite kernel; the jump lift
        # checks its weights with check_psd
        make_measure([1.0], [[[-1.0]]])
        with pytest.raises(ValueError, match=r"^weight 1 must be PSD, min eigenvalue -1.000e\+00$"):
            check_psd([[[1.0]], [[-1.0]]], "weight")
        # the slack is EPS_PSD * (1 + |trace|), on the symmetric part
        check_psd([[[1.0, -1e-11], [0.0, -1e-10]]], "weight")
        check_psd(np.zeros((0, 2, 2)), "weight")

    def test_rectangular_weights_rejected(self):
        with pytest.raises(ValueError, match="square"):
            make_measure([1.0], np.ones((1, 3, 2)))


class TestDecayIntegrals:
    def test_zero_rate_limit(self):
        assert decay_integral(0.0, 0.7) == pytest.approx(0.7)

    def test_positive_rate(self):
        assert decay_integral(2.0, 1.5) == pytest.approx((1 - np.exp(-3.0)) / 2.0)

    def test_pairwise_matrix(self):
        E = pair_decay_integrals(np.array([0.0, 1.0]), 1.0)
        assert E[0, 0] == pytest.approx(1.0)
        assert E[0, 1] == pytest.approx(1 - np.exp(-1.0))
        assert E[1, 1] == pytest.approx((1 - np.exp(-2.0)) / 2.0)


class TestTimeGrid:
    def test_regular(self):
        g = TimeGrid.regular(2.0, 4)
        assert g.dt == pytest.approx(0.5)
        assert g.n_steps == 4
        assert len(g) == 5

    def test_nonuniform_rejected(self):
        with pytest.raises(ValueError, match="uniform"):
            TimeGrid(np.array([0.0, 0.1, 0.3]))

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.1, 0.2]))
