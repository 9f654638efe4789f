import numpy as np
import pytest

from mvolt.fractional import FractionalKernelSpec, fit_fractional_measure
from mvolt.mc import path_generators
from mvolt.measures import AtomicMatrixMeasure, decay_sum
from mvolt.ou import (
    DIRECT_MAX_MD,
    StepOperator,
    _rank_factor,
    joint_covariance,
    node_covariance,
    simulate_lift_blocks,
)


def two_node_measure():
    w = np.array([[[0.8, 0.1], [0.1, 0.5]], [[0.3, -0.2], [-0.2, 0.9]]])
    return AtomicMatrixMeasure([0.4, 3.0], w)


def clamped_measure():
    # rank-1 weights: node i's innovation row lies on a_i, so C has rank
    # k = 2 of k d = 4 and the clamp zeroes two eigenvalues
    a, b = np.array([0.8, 0.3]), np.array([-0.2, 0.9])
    return AtomicMatrixMeasure([0.4, 3.0], np.array([np.outer(a, a), np.outer(b, b)]))


def test_deterministic_decay_with_zero_noise():
    m = two_node_measure()
    # one lift row (n = 1) of a path: node 0's two columns, then node 1's
    gamma = np.ones((1, 1, 4))
    op = StepOperator.build(m, 0.5)
    op.step(gamma, np.zeros((1, 1, op.noise_factor.shape[1])))
    expected = np.repeat(np.exp(-m.nodes * 0.5), 2)
    np.testing.assert_allclose(gamma[0, 0], expected, rtol=1e-14)


def test_brownian_special_case():
    # single node at x = 0 with unit weight: increments are sqrt(dt) normals
    m = AtomicMatrixMeasure([0.0], [[[1.0]]])
    op = StepOperator.build(m, 0.25)
    gamma = np.zeros((1, 1, 1))
    op.step(gamma, np.array([[[1.7]]]))
    assert gamma[0, 0, 0] == pytest.approx(np.sqrt(0.25) * 1.7)


def test_step_covariance_matches_formula():
    m = two_node_measure()
    dt = 0.7
    op = StepOperator.build(m, dt)
    rng = np.random.default_rng(3)
    draws = rng.standard_normal((200_000, op.noise_factor.shape[1])) @ op.noise_factor.T
    emp = np.cov(draws.T)
    C = node_covariance(m, dt)
    assert np.max(np.abs(emp - C)) <= 6.0 * np.max(np.abs(C)) / np.sqrt(200_000 / 4)


def test_clamped_factor_keeps_the_law():
    # the factor keeps only the r columns above the clamp, yet L L^T = C
    # to the residual bound and a step from gamma = 0 has covariance C
    m = clamped_measure()
    dt = 0.7
    op = StepOperator.build(m, dt)
    C = node_covariance(m, dt)
    assert op.noise_factor.shape == (4, 2)
    assert np.linalg.norm(op.noise_factor @ op.noise_factor.T - C) <= 1e-10 * np.linalg.norm(C)
    n_mc = 200_000
    gamma = np.zeros((n_mc, 4))
    op.step(gamma, np.random.default_rng(3).standard_normal((n_mc, 2)))
    emp = np.cov(gamma.T)
    assert np.max(np.abs(emp - C)) <= 6.0 * np.max(np.abs(C)) / np.sqrt(n_mc / 4)


def test_exactness_one_big_step_equals_two_small():
    # first and second moments agree between a 2 dt step and two dt steps
    m = two_node_measure()
    dt = 0.3
    op1 = StepOperator.build(m, dt)
    op2 = StepOperator.build(m, 2 * dt)
    n_mc = 400_000
    rng = np.random.default_rng(11)

    r1, r2 = op1.noise_factor.shape[1], op2.noise_factor.shape[1]
    big = np.full((n_mc, 1, 4), 0.5)
    op2.step(big, rng.standard_normal((n_mc, 1, r2)))
    z1 = rng.standard_normal((n_mc, 1, r1))
    z2 = rng.standard_normal((n_mc, 1, r1))
    small = np.full((n_mc, 1, 4), 0.5)
    op1.step(small, z1)
    op1.step(small, z2)

    fb, fs = big.reshape(n_mc, -1), small.reshape(n_mc, -1)
    se_mean = fb.std(axis=0, ddof=1) / np.sqrt(n_mc)
    assert np.all(np.abs(fb.mean(axis=0) - fs.mean(axis=0)) <= 4.0 * np.sqrt(2) * se_mean)
    vb, vs = fb.var(axis=0, ddof=1), fs.var(axis=0, ddof=1)
    se_var = vb * np.sqrt(2.0 / n_mc)
    assert np.all(np.abs(vb - vs) <= 4.0 * np.sqrt(2) * se_var)


def test_marginal_skewness_is_zero():
    m = two_node_measure()
    op = StepOperator.build(m, 0.5)
    rng = np.random.default_rng(7)
    n_mc = 300_000
    draws = rng.standard_normal((n_mc, op.noise_factor.shape[1])) @ op.noise_factor.T
    std = draws.std(axis=0, ddof=1)
    skew = ((draws / std) ** 3).mean(axis=0)
    assert np.all(np.abs(skew) <= 4.0 * np.sqrt(6.0 / n_mc))


def test_affine_in_initial_condition_with_frozen_noise():
    m = two_node_measure()
    op = StepOperator.build(m, 0.4)
    rng = np.random.default_rng(5)
    noise = rng.standard_normal((1, 3, op.noise_factor.shape[1]))
    g1 = rng.normal(size=(1, 3, 4))
    g2 = rng.normal(size=(1, 3, 4))
    out12, out1, out2 = g1 + g2, g1.copy(), g2.copy()
    op.step(out12, noise)
    op.step(out1, noise)
    op.step(out2, np.zeros_like(noise))
    np.testing.assert_allclose(out12, out1 + out2, rtol=1e-12, atol=1e-14)


def test_mc_mean_matches_decay():
    m = two_node_measure()
    g0 = np.random.default_rng(2).normal(size=(2, 2, 2))
    times = np.array([0.4, 1.1])
    xs = simulate_lift_blocks(m, g0, times, seed=9, start=0, stop=30_000)
    for j, t in enumerate(times):
        target = decay_sum(m.nodes, g0, t)
        mean = xs[:, j].mean(axis=0)
        se = xs[:, j].std(axis=0, ddof=1) / np.sqrt(xs.shape[0])
        assert np.all(np.abs(mean - target) <= 3.5 * se)


def test_tower_property_of_forward_curve():
    # E[f_s(t - s)] = E[X_t]
    m = two_node_measure()
    g0 = np.random.default_rng(4).normal(size=(2, 1, 2))
    s, t = 0.5, 1.2
    op = StepOperator.build(m, s)
    r = op.noise_factor.shape[1]
    noise = np.array([rng.standard_normal((1, r)) for rng in path_generators(13, 0, 30_000)])
    gam = np.broadcast_to(g0.transpose(1, 0, 2).reshape(1, 4), (30_000, 1, 4)).copy()
    op.step(gam, noise)
    damp = np.exp(-m.nodes * (t - s))
    fwd = np.einsum("i,pnia->pna", damp, gam.reshape(30_000, 1, 2, 2))
    target = decay_sum(m.nodes, g0, t)
    se = fwd.std(axis=0, ddof=1) / np.sqrt(fwd.shape[0])
    assert np.all(np.abs(fwd.mean(axis=0) - target) <= 3.5 * se)


def lift_joint_covariance(measure, times, step_covariance):
    """Cov of one row of X at the times, from the lift's state covariance
    carried step by step: P <- D P D + C(dt), Cov(g_l, g_j) = D(t_l - t_j) P_j."""
    k, d = measure.k, measure.d
    sum_nodes = np.tile(np.eye(d), (k, 1))
    P, prev, states = np.zeros((k * d, k * d)), 0.0, []
    for t in times:
        decay = np.repeat(np.exp(-measure.nodes * (t - prev)), d)
        P = decay[:, None] * P * decay[None, :] + step_covariance(measure, t - prev)
        states.append(P)
        prev = t
    m = len(times)
    out = np.zeros((m, d, m, d))
    for j in range(m):
        for l in range(j, m):
            decay = np.repeat(np.exp(-measure.nodes * (times[l] - times[j])), d)
            out[j, :, l] = sum_nodes.T @ (states[j] * decay[None, :]) @ sum_nodes
            out[l, :, j] = out[j, :, l].T
    return out.reshape(m * d, m * d)


def factor_covariance(measure, dt):
    L = StepOperator.build(measure, dt).noise_factor
    return L @ L.T


def rough_fit_measure():
    # the k = 40 fractional fit of the rough_wishart_mc benchmark workload
    spec = FractionalKernelSpec(np.array([[0.1, 0.2], [0.2, 0.3]]), 1e-3, 10.0, 40)
    return fit_fractional_measure(spec).measure


@pytest.mark.parametrize("step_covariance", [node_covariance, factor_covariance],
                         ids=["node_covariance", "noise_factor"])
@pytest.mark.parametrize("measure", [rough_fit_measure(), clamped_measure()],
                         ids=["rough_fit", "clamped"])
def test_joint_covariance_equals_the_lift(measure, step_covariance):
    # deterministic: the closed form against the lift's own state
    # covariance, so an error in node_covariance, the decay, the noise
    # layout or the rank clamp shows at about 1e-13
    times = [0.25, 0.5, 1.0, 2.0]
    direct = joint_covariance(measure, times)
    lift = lift_joint_covariance(measure, times, step_covariance)
    assert np.linalg.norm(lift - direct) <= 1e-13 * np.linalg.norm(direct)


def rank_one_measure():
    # one rank-1 weight: X_t lies on the line of a, so the joint covariance
    # of m = 3 times has rank 3 of m d = 6 and the clamp drops 3 columns
    a = np.array([0.8, 0.3])
    return AtomicMatrixMeasure([1.5], np.outer(a, a)[None])


def group_stream(seed, group):
    """The stream of a path group, built from its SeedSequence directly."""
    seed_seq = np.random.SeedSequence(entropy=seed, spawn_key=(group, 1))
    return np.random.Generator(np.random.Philox(seed_seq))


# paths per stream group, part of the stream definition; a replayed block
# straddles the edge of groups 0 and 1
STREAM_GROUP = 256
REPLAY_PATHS = (STREAM_GROUP - 2, STREAM_GROUP + 1)


@pytest.mark.parametrize("measure, rank", [(two_node_measure(), 6), (rank_one_measure(), 3)],
                         ids=["full_rank", "clamped"])
def test_direct_block_stream_replay(measure, rank):
    # below the size rule each group g of STREAM_GROUP paths draws
    # (STREAM_GROUP, n r) normals from the SeedSequence of spawn key (g, 1);
    # path p takes row p % STREAM_GROUP as z (n, r), row a of z for lift
    # row a, and X = mean + z L^T with L the rank factor of the joint
    # covariance at the times t > 0; X_0 is the mean
    g0 = np.random.default_rng(6).normal(size=(measure.k, 3, 2))
    times = np.array([0.0, 0.25, 0.5, 1.0])
    start, stop = REPLAY_PATHS
    xs = simulate_lift_blocks(measure, g0, times, seed=21, start=start, stop=stop)
    L = _rank_factor(joint_covariance(measure, times[1:]))
    assert L.shape == (6, rank)
    mean = decay_sum(measure.nodes, g0, times)
    draws = [group_stream(21, g).standard_normal((STREAM_GROUP, 3 * rank)) for g in (0, 1)]
    for row, p in enumerate(range(start, stop)):
        z = draws[p // STREAM_GROUP][p % STREAM_GROUP].reshape(3, rank)
        want = mean.copy()
        want[1:] += (z @ L.T).reshape(3, 3, 2).transpose(1, 0, 2)
        np.testing.assert_array_equal(xs[row], want)


def test_direct_block_has_the_joint_law():
    # the direct draw's sample covariance of one lift row across the times
    # against the closed form, and its mean against the decay sum
    m = clamped_measure()
    g0 = np.random.default_rng(2).normal(size=(2, 1, 2))
    times = np.array([0.3, 0.7, 1.5])
    n_mc = 100_000
    xs = simulate_lift_blocks(m, g0, times, seed=5, start=0, stop=n_mc).reshape(n_mc, 6)
    cov = joint_covariance(m, times)
    assert np.max(np.abs(np.cov(xs.T) - cov)) <= 6.0 * np.max(np.abs(cov)) / np.sqrt(n_mc / 4)
    se = xs.std(axis=0, ddof=1) / np.sqrt(n_mc)
    assert np.all(np.abs(xs.mean(axis=0) - decay_sum(m.nodes, g0, times).ravel()) <= 4.0 * se)


@pytest.mark.parametrize("measure", [two_node_measure(), clamped_measure()],
                         ids=["full_rank", "clamped"])
def test_lift_block_stream_replay(measure):
    # above the size rule step m draws (STREAM_GROUP, n r_m) normals from
    # each group g's stream, the SeedSequence of spawn key (g, 1), and path
    # p steps with row p % STREAM_GROUP as (n, r_m); the zero-length first
    # step draws none
    g0 = np.random.default_rng(6).normal(size=(2, 3, 2))
    times = np.concatenate([[0.0, 0.25, 0.5], np.arange(1, DIRECT_MAX_MD // 2) * 1.0])
    assert times.size * 2 > DIRECT_MAX_MD
    start, stop = REPLAY_PATHS
    xs = simulate_lift_blocks(measure, g0, times, seed=21, start=start, stop=stop)
    ops = [StepOperator.build(measure, dt) for dt in (0.25, 0.25, 0.5, 1.0)]
    ops += [ops[-1]] * (times.size - 5)
    ranks = [op.noise_factor.shape[1] for op in ops]
    streams = [group_stream(21, g) for g in (0, 1)]
    draws = [[rng.standard_normal((STREAM_GROUP, 3 * r)) for r in ranks] for rng in streams]
    sum_nodes = np.tile(np.eye(2), (2, 1))
    for row, p in enumerate(range(start, stop)):
        gamma = g0.transpose(1, 0, 2).reshape(3, 4).copy()
        want = [gamma @ sum_nodes]
        for op, r, z in zip(ops, ranks, draws[p // STREAM_GROUP]):
            op.step(gamma, z[p % STREAM_GROUP].reshape(3, r))
            want.append(gamma @ sum_nodes)
        np.testing.assert_array_equal(xs[row], want)


@pytest.mark.parametrize("shape", [(1, 1, 2), (3, 1, 2), (2, 1, 1), (2, 2)],
                         ids=["k1", "k3", "d1", "2d"])
def test_lift_blocks_reject_gamma0_off_the_measure(shape):
    # a k = 1 gamma0 used to be broadcast to both nodes
    with pytest.raises(ValueError, match=r"gamma0 must have shape \(2, n, 2\)"):
        simulate_lift_blocks(two_node_measure(), np.ones(shape), [0.5], 0, 0, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lift_blocks_reject_non_finite_gamma0(bad):
    # a NaN gamma0 used to give NaN samples
    gamma0 = np.ones((2, 1, 2))
    gamma0[1, 0, 1] = bad
    with pytest.raises(ValueError, match="^gamma0 entries must be finite$"):
        simulate_lift_blocks(two_node_measure(), gamma0, [0.5], 0, 0, 3)


class TestStepOperatorValidation:
    def test_rejects_wrong_noise_shape(self):
        m = two_node_measure()
        op = StepOperator.build(m, 0.1)
        with pytest.raises(ValueError, match="shape"):
            op.step(np.zeros((1, 1, 4)), np.zeros((1, 1, 3)))
        with pytest.raises(ValueError, match="shape"):
            op.step(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            StepOperator.build(two_node_measure(), 0.0)

    def test_factorization_residual_bound(self):
        m = two_node_measure()
        op = StepOperator.build(m, 0.9)
        C = node_covariance(m, 0.9)
        resid = np.linalg.norm(op.noise_factor @ op.noise_factor.T - C)
        assert resid <= 1e-10 * np.linalg.norm(C)

    def test_rank_deficient_weights_factorize(self):
        w = np.array([[[1.0, 0.0], [0.0, 0.0]]])  # rank-1 weight
        m = AtomicMatrixMeasure([1.0], w)
        op = StepOperator.build(m, 0.5)
        C = node_covariance(m, 0.5)
        assert op.noise_factor.shape == (2, 1)
        resid = np.linalg.norm(op.noise_factor @ op.noise_factor.T - C)
        assert resid <= 1e-10 * max(np.linalg.norm(C), 1e-30)


def test_step_covariance_against_fine_grid_euler():
    # independent oracle: Euler-discretize d gamma_i = -x_i gamma_i dt
    # + dW nu_i on a fine grid and compare the empirical one-step covariance
    # with the closed-form node covariance
    m = two_node_measure()
    dt = 0.7
    C = node_covariance(m, dt)

    rng = np.random.default_rng(44)
    n_mc, n_sub = 120_000, 64
    h = dt / n_sub
    g = np.zeros((n_mc, 2, 2))  # (paths, node, column), single row n = 1
    for _ in range(n_sub):
        dw = rng.standard_normal((n_mc, 1, 2)) * np.sqrt(h)
        for i in range(2):
            g[:, i, :] = g[:, i, :] * (1.0 - m.nodes[i] * h) + (dw @ m.weights[i])[:, 0, :]
    emp = np.cov(g.reshape(n_mc, 4).T)
    # Euler bias O(h) plus MC noise; both are far below this gate
    assert np.max(np.abs(emp - C)) <= 0.03 * np.max(np.abs(C))
