"""Named validation checks: Monte Carlo vs analytic transforms.

Each check runs a simulator against its closed-form or Riccati transform and
reports z-scores, or checks an exact route against an identity it must
meet (the resolvent flow against its Laplace identity and a closed form)
and reports gaps or residuals.  A check passes when every |z| <= 3 and
every gap or residual meets its stated tolerance.  The CLI ``validate``
subcommand and the acceptance test suite both drive these functions; path
counts are parameters so the CLI can also run cheap smoke versions of the
full-scale configuration.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .fractional import (
    FractionalKernelSpec,
    fit_fractional_measure,
    fractional_kernel_quadrature,
)
from .heston import HestonModelSpec, char_function, fourier_price_call, simulate_heston_terminal
from .jumps import (
    HawkesPathSimulator,
    JumpMeasureSpec,
    hawkes_jump_spec,
    volterra_projection,
)
from .kernelops import atomic_resolvent, resolvent_generator
from .measures import AtomicMatrixMeasure, eval_kernel
from .mc import estimate_mean, run_path_blocks
from .riccati import laplace_transform_jump
from .wishart import (
    WishartTransformQuery,
    affine_transform_wishart,
    closed_form_laplace,
    simulate_wishart,
)


def _result(name: str, passed: bool, **details) -> dict:
    out = {"name": name, "passed": bool(passed)}
    out.update(details)
    return out


def random_wishart_setup():
    """Reference randomized transform configuration (geometric nodes)."""
    d, n, k = 2, 3, 4
    rng = np.random.default_rng(2024)
    nodes = np.geomspace(0.25, 4.0, k)
    weights = []
    for _ in range(k):
        a = rng.normal(size=(d, d)) * 0.35
        weights.append(a @ a.T)
    measure = AtomicMatrixMeasure(nodes, np.array(weights))
    gamma0 = rng.normal(size=(k, n, d)) * 0.3
    cs = rng.normal(size=(6, n, d)) * 0.6
    ts = np.array([0.3, 0.5, 0.8, 1.2, 1.7, 2.5])
    return measure, gamma0, cs, ts


def wishart_transform_points(measure, queries, v_samples) -> list[dict]:
    """MC mean of exp(-Tr(c^T c V_t)) vs the closed form, one point per query.

    ``v_samples[:, j]`` holds the V samples at the time of ``queries[j]``.
    """
    points = []
    for j, q in enumerate(queries):
        analytic = closed_form_laplace(q, measure)
        est = estimate_mean(np.exp(-np.einsum("ab,pab->p", q.c.T @ q.c, v_samples[:, j])))
        points.append(
            {"t": q.t, "analytic": analytic, "mc": float(est.mean),
             "stderr": float(est.stderr), "z_score": float(est.z_score(analytic))}
        )
    return points


def check_wishart_transform(n_paths: int = 100_000, seed: int = 11, workers: int = 1) -> dict:
    """MC mean of exp(-Tr(c^T c V_t)) vs the closed form at 6 (c, t) points."""
    measure, gamma0, cs, ts = random_wishart_setup()
    v_samples = simulate_wishart(measure, gamma0, ts, n_paths, seed, workers=workers)
    queries = [WishartTransformQuery(t=float(t), c=c, gamma0=gamma0) for c, t in zip(cs, ts)]
    points = wishart_transform_points(measure, queries, v_samples)
    worst = max([0.0] + [abs(p["z_score"]) for p in points])
    return _result("wishart_transform", worst <= 3.0, points=points,
                   max_abs_z=worst, n_paths=n_paths)


def check_wishart_scalar(n_paths: int = 100_000, seed: int = 12, workers: int = 1) -> dict:
    """Scalar benchmark: analytic (1+2t)^(-1/2), closed form to 1e-12, MC z."""
    measure = AtomicMatrixMeasure([0.0], [[[1.0]]])
    gamma0 = np.zeros((1, 1, 1))
    ts = np.array([0.5, 1.0, 2.0])
    v_samples = simulate_wishart(measure, gamma0, ts, n_paths, seed, workers=workers)
    points = []
    worst_z, worst_form = 0.0, 0.0
    for j, t in enumerate(ts):
        exact = (1.0 + 2.0 * t) ** -0.5
        query = WishartTransformQuery(t=float(t), c=np.array([[1.0]]), gamma0=gamma0)
        analytic = closed_form_laplace(query, measure)
        phi, pair = affine_transform_wishart(query, measure)
        form_err = max(abs(analytic / exact - 1.0),
                       abs(np.exp(-phi - pair) / exact - 1.0))
        est = estimate_mean(np.exp(-v_samples[:, j, 0, 0]))
        z = float(est.z_score(exact))
        worst_z = max(worst_z, abs(z))
        worst_form = max(worst_form, form_err)
        points.append(
            {"t": float(t), "exact": exact, "analytic": analytic,
             "mc": float(est.mean), "stderr": float(est.stderr), "z_score": z,
             "closed_form_rel_err": form_err}
        )
    return _result("wishart_scalar", worst_z <= 3.0 and worst_form <= 1e-12,
                   points=points, max_abs_z=worst_z,
                   max_closed_form_rel_err=worst_form, n_paths=n_paths)


def _final_counts_and_compensators(sim, seed, start, stop):
    """N(T), counted per path and atom from the jump log, and int_0^T rate dt
    of paths [start, stop), each (paths, m)."""
    block = sim.block(seed, start, stop)
    counts = np.zeros((stop - start, sim.spec.n_atoms))
    np.add.at(counts, (block.jump_paths - start, block.jump_atoms), 1.0)
    return counts, block.compensators


def _v_at(sim, grid_idx, seed, start, stop) -> np.ndarray:
    """V of paths [start, stop) at the grid points grid_idx."""
    return sim.block(seed, start, stop).v_path[:, grid_idx]


def _representation_gaps(sim, seed, start, stop) -> np.ndarray:
    """Sup gap between the lift V of each path in [start, stop) and its
    Volterra reconstruction."""
    block = sim.block(seed, start, stop)
    measure, lam0 = sim.state0.measure, sim.state0.lam
    cuts = np.searchsorted(block.jump_paths, np.arange(start, stop + 1))
    gaps = []
    for v_path, a, b in zip(block.v_path, cuts[:-1], cuts[1:]):
        recon = volterra_projection(v_path, block.jump_times[a:b], block.jump_atoms[a:b],
                                    sim.grid, measure, lam0, sim.spec)
        gaps.append(np.max(np.abs(recon - v_path)))
    return np.array(gaps)


def _diagonal_hawkes_model(d: int):
    """Diagonal-preset model on nodes (0.6, 2.5): (measure, lam0, spec)."""
    weights = np.zeros((2, d, d))
    lam0 = np.zeros((2, d, d))
    for i in range(d):
        weights[0, i, i], weights[1, i, i] = 0.35, 0.2
        lam0[0, i, i], lam0[1, i, i] = 0.8, 0.4
    return AtomicMatrixMeasure(np.array([0.6, 2.5]), weights), lam0, hawkes_jump_spec(d)


def check_hawkes_compensator(
    n_paths: int = 100_000, seed: int = 21, workers: int = 1
) -> dict:
    """E[N_i(T)] vs E[int_0^T V_ii dt] per component, diagonal preset, d = 2."""
    measure, lam0, spec = _diagonal_hawkes_model(2)
    sim = HawkesPathSimulator(measure, lam0, spec, horizon=1.0, thinning_dt=0.25)
    counts, compens = run_path_blocks(partial(_final_counts_and_compensators, sim),
                                      n_paths, seed, workers=workers)
    points, worst = [], 0.0
    for i in range(measure.d):
        diff = counts[:, i] - compens[:, i]
        est = estimate_mean(diff)
        z = float(est.z_score(0.0))
        worst = max(worst, abs(z))
        points.append(
            {"component": i, "mean_counts": float(counts[:, i].mean()),
             "mean_compensator": float(compens[:, i].mean()),
             "diff_stderr": float(est.stderr), "z_score": z}
        )
    return _result("hawkes_compensator", worst <= 3.0, points=points,
                   max_abs_z=worst, n_paths=n_paths)


def check_jump_transform(
    n_paths: int = 100_000, seed: int = 31, workers: int = 1
) -> dict:
    """Scalar self-exciting benchmark: lift ODE vs Volterra form vs MC.

    The two analytic routes, each in 1000 steps, must agree within
    max(1e-4, 5 dt) relative and both must match the Monte Carlo estimate
    within 3 standard errors.
    """
    n_steps = 1000
    measure = AtomicMatrixMeasure([1.0], [[[0.4]]])
    lam0 = np.array([[[1.0]]])
    spec = JumpMeasureSpec(atoms=[[[1.0]]], weights=[[[0.3]]])
    ts = [0.5, 1.0]
    us = [-0.5, -1.0, -2.0]
    sim = HawkesPathSimulator(measure, lam0, spec, horizon=1.0, thinning_dt=0.25,
                              grid_steps=4)
    grid_idx = [int(np.argmin(np.abs(sim.grid.times - t))) for t in ts]
    v_at = run_path_blocks(partial(_v_at, sim, grid_idx), n_paths, seed, workers=workers)
    v_cols = {t: v_at[:, j, 0, 0] for j, t in enumerate(ts)}
    points, worst_z, worst_gap = [], 0.0, 0.0
    for u in us:
        results = laplace_transform_jump(np.array([[u]]), lam0, measure, spec, ts,
                                         n_steps=n_steps)
        for t, res in zip(ts, results):
            tol = max(1e-4, 5.0 * t / n_steps)
            est = estimate_mean(np.exp(u * v_cols[t]))
            z = float(est.z_score(res.lift_value))
            worst_z = max(worst_z, abs(z))
            worst_gap = max(worst_gap, res.discrepancy / tol)
            points.append(
                {"u": u, "t": t, "lift_value": res.lift_value,
                 "volterra_value": res.volterra_value,
                 "route_rel_gap": res.discrepancy, "route_tol": tol,
                 "mc": float(est.mean), "stderr": float(est.stderr),
                 "z_score": z}
            )
    return _result("jump_transform", worst_z <= 3.0 and worst_gap <= 1.0,
                   points=points, max_abs_z=worst_z,
                   max_route_gap_over_tol=worst_gap, n_paths=n_paths)


def check_representation_equivalence(
    n_paths: int = 100, seed: int = 41, workers: int = 1
) -> dict:
    """Lift V vs Volterra-projected V on random diagonal-preset paths.

    The max-over-time gap must scale like the grid step: halving dt at
    least halves the median gap (with 10 percent slack) and the coarse
    median stays below an absolute O(dt) budget.
    """
    measure, lam0, spec = _diagonal_hawkes_model(2)
    gaps = {}
    for steps in (64, 128):
        sim = HawkesPathSimulator(measure, lam0, spec, horizon=1.0,
                                  thinning_dt=0.25, grid_steps=steps)
        vals = run_path_blocks(partial(_representation_gaps, sim), n_paths, seed,
                               workers=workers)
        gaps[steps] = float(np.median(vals))
    ratio = gaps[128] / max(gaps[64], 1e-300)
    coarse_ok = gaps[64] <= 40.0 * (1.0 / 64)
    return _result(
        "representation_equivalence",
        ratio <= 0.55 and coarse_ok,
        median_gap_coarse=gaps[64], median_gap_fine=gaps[128],
        fine_over_coarse=ratio, n_paths=n_paths,
    )


def check_resolvent() -> dict:
    """Resolvent identity of the exact atomic flow.

    On a two-node matrix kernel the flow's Laplace transform must solve
    (Khat + I/2) Rhat + Rhat (Khat + I/2) = Khat at s = 0.5, 1, 3 to 1e-12.
    On the constant kernel K = 1 (one node at 0) the flow must meet the
    scalar closed form e^{-2t} at 101 times of [0, 1] to 1e-14; its sup
    error measures 1.7e-16.
    """
    times = np.linspace(0.0, 1.0, 101)
    R = atomic_resolvent(AtomicMatrixMeasure([0.0], [[[1.0]]]), times)
    scalar_err = float(np.max(np.abs(R[:, 0, 0] - np.exp(-2.0 * times))))

    measure = AtomicMatrixMeasure(
        [0.7, 2.0], [[[0.8, 0.2], [0.2, 0.5]], [[0.3, -0.1], [-0.1, 0.4]]])
    M, start, readout = resolvent_generator(measure)
    laplace = []
    for s in (0.5, 1.0, 3.0):
        r_hat = (readout @ np.linalg.solve(s * np.eye(len(M)) - M, start)).reshape(2, 2)
        k_hat = np.einsum("j,jab->ab", 1.0 / (s + measure.nodes), measure.weights)
        laplace.append(float(np.max(np.abs(k_hat @ r_hat + r_hat @ k_hat + r_hat - k_hat))))
    return _result(
        "resolvent_identity", scalar_err <= 1e-14 and max(laplace) <= 1e-12,
        scalar_closed_form_err=scalar_err, laplace_residual=max(laplace),
    )


def check_fractional_fit() -> dict:
    """Sup relative error <= 5e-3 at k=20 vs the quadrature oracle; monotone in k."""
    points = []
    ok = True
    for hurst in (0.1, 0.25, 0.4):
        errs = {}
        for k in (10, 20, 40):
            spec = FractionalKernelSpec(np.array([[hurst]]), 1e-3, 10.0, k)
            fit = fit_fractional_measure(spec)
            # independent verification vs the high-resolution quadrature oracle
            t_check = np.geomspace(1e-3, 10.0, 400)
            oracle = fractional_kernel_quadrature(t_check, hurst)
            fitted = eval_kernel(fit.measure, t_check)[:, 0, 0]
            errs[k] = float(np.max(np.abs(fitted / oracle - 1.0)))
        monotone = errs[10] >= errs[20] >= errs[40]
        ok = ok and errs[20] <= 5e-3 and monotone
        points.append({"hurst": hurst, "sup_rel_err": errs, "monotone": monotone})
    return _result("fractional_fit", ok, points=points)


def heston_reference_model() -> HestonModelSpec:
    """d=2, n=2, k=2, no jumps, rho = (-0.5, 0) reference model."""
    nodes = np.array([0.5, 2.0])
    weights = np.array(
        [[[0.10, 0.02], [0.02, 0.08]], [[0.06, -0.01], [-0.01, 0.09]]]
    )
    measure = AtomicMatrixMeasure(nodes, weights)
    gamma0 = np.random.default_rng(5).normal(size=(2, 2, 2)) * 0.15
    return HestonModelSpec(measure=measure, gamma0=gamma0,
                           rho=[-0.5, 0.0], p0=[0.0, 0.0])


# price steps of the Heston Monte Carlo in the heston_charfn and
# fourier_price checks
HESTON_MC_STEPS = 256


def check_heston_charfn(
    n_paths: int = 200_000, seed: int = 51, workers: int = 1
) -> dict:
    """Characteristic function vs MC on a 5-point v grid; martingale per asset."""
    model = heston_reference_model()
    t = 1.0
    p_samples = simulate_heston_terminal(
        model, t, HESTON_MC_STEPS, n_paths, seed, workers=workers
    )[:, 0, :]
    vs = np.array([[1.0, 0.0], [0.0, 1.5], [1.0, 1.0], [-2.0, 0.5], [3.0, -1.0]])
    points, worst = [], 0.0
    analytic = char_function(model, vs, t, n_steps=400)
    for j, v in enumerate(vs):
        f = np.exp(1j * (p_samples @ v))
        re = estimate_mean(f.real)
        im = estimate_mean(f.imag)
        z_re = float(re.z_score(analytic[j].real))
        z_im = float(im.z_score(analytic[j].imag))
        worst = max(worst, abs(z_re), abs(z_im))
        points.append(
            {"v": v.tolist(), "analytic_re": float(analytic[j].real),
             "analytic_im": float(analytic[j].imag), "mc_re": float(re.mean),
             "mc_im": float(im.mean), "z_re": z_re, "z_im": z_im}
        )
    mart = []
    for a in range(model.d):
        g = estimate_mean(np.exp(p_samples[:, a] - model.p0[a]))
        z = float(g.z_score(1.0))
        worst = max(worst, abs(z))
        mart.append({"asset": a, "mean": float(g.mean),
                     "stderr": float(g.stderr), "z_score": z})
    return _result("heston_charfn", worst <= 3.0, points=points,
                   martingale=mart, max_abs_z=worst, n_paths=n_paths)


# bound on each price's truncation_error: 100x under the 1e-4 tolerance of
# the degenerate closed-form check
TRUNCATION_TOL = 1e-6


def _norm_cdf(x: float) -> float:
    """Standard normal CDF, through erfc so that the lower tail keeps its
    relative accuracy."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def check_fourier_price(
    n_paths: int = 200_000, seed: int = 61, workers: int = 1
) -> dict:
    """Degenerate model vs the Gaussian closed form; generic model vs MC.

    Every price also reports its truncation_error, which must not exceed
    ``TRUNCATION_TOL``.
    """
    # deterministic-V degenerate model
    meas0 = AtomicMatrixMeasure([0.3], [[[0.0]]])
    m0 = HestonModelSpec(measure=meas0, gamma0=np.array([[[0.25]]]),
                         rho=[0.0], p0=[0.0])
    t = 1.0
    var0 = 0.25**2 * (1.0 - np.exp(-2.0 * 0.3 * t)) / (2.0 * 0.3)
    det_points, det_ok = [], True
    fp = fourier_price_call(m0, 0, (0.8, 1.0, 1.2), t)
    for strike, price, tail in zip(fp.strike, fp.price, fp.truncation_error):
        s = np.sqrt(var0)
        d1 = (np.log(1.0 / strike) + 0.5 * var0) / s
        bs = float(_norm_cdf(d1) - strike * _norm_cdf(d1 - s))
        err = abs(price - bs)
        det_ok = det_ok and err <= 1e-4
        det_points.append({"strike": strike, "fourier": price,
                           "gaussian_closed_form": bs, "abs_err": err,
                           "truncation_error": tail})

    # generic model vs MC at three strikes
    model = heston_reference_model()
    p_samples = simulate_heston_terminal(
        model, t, HESTON_MC_STEPS, n_paths, seed, workers=workers
    )[:, 0, :]
    spot = np.exp(p_samples[:, 0])
    gen_points, worst = [], 0.0
    fp = fourier_price_call(model, 0, (0.9, 1.0, 1.1), t)
    for strike, price, tail in zip(fp.strike, fp.price, fp.truncation_error):
        est = estimate_mean(np.clip(spot - strike, 0.0, None))
        z = float(est.z_score(price))
        worst = max(worst, abs(z))
        gen_points.append({"strike": strike, "fourier": price,
                           "mc": float(est.mean), "stderr": float(est.stderr),
                           "z_score": z, "truncation_error": tail})
    tail_ok = all(p["truncation_error"] <= TRUNCATION_TOL for p in det_points + gen_points)
    return _result("fourier_price", det_ok and worst <= 3.0 and tail_ok,
                   degenerate=det_points, generic=gen_points,
                   max_abs_z=worst, n_paths=n_paths)


CHECKS = {
    "wishart_transform": check_wishart_transform,
    "wishart_scalar": check_wishart_scalar,
    "hawkes_compensator": check_hawkes_compensator,
    "jump_transform": check_jump_transform,
    "representation_equivalence": check_representation_equivalence,
    "resolvent_identity": check_resolvent,
    "fractional_fit": check_fractional_fit,
    "heston_charfn": check_heston_charfn,
    "fourier_price": check_fourier_price,
}

MC_CHECKS = {
    "wishart_transform", "wishart_scalar", "hawkes_compensator",
    "jump_transform", "representation_equivalence", "heston_charfn",
    "fourier_price",
}


def run_checks(names, n_paths=None, seed=None, workers: int = 1) -> list[dict]:
    """Run named checks; MC checks receive (n_paths, seed, workers) overrides."""
    results = []
    for name in names:
        if name not in CHECKS:
            raise KeyError(f"unknown check {name!r}; available: {sorted(CHECKS)}")
        fn = CHECKS[name]
        kwargs = {}
        if name in MC_CHECKS:
            if n_paths is not None:
                kwargs["n_paths"] = n_paths
            if seed is not None:
                kwargs["seed"] = seed
            kwargs["workers"] = workers
        results.append(fn(**kwargs))
    return results
