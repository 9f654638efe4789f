"""One benchmark workload, run in its own process by ``run.py``.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --spawned-at UNIX_TIME --out-dir DIR

The process imports ``mvolt`` from ``src/`` of the checkout, makes the
workload's inputs from the seed and sets the workload up; ``setup_s`` runs
from the process start (``--spawned-at``) to the end of the set-up, leaving
out the input generation and the benchmark's own modules, which are imported
after it.  With ``--setup-only`` it stops there.  Otherwise it computes the
reference values (``reference.py``), then repeats whole rounds of the
workload's timed calls until ``--seconds`` have passed (at least
``MIN_ROUNDS``).  Each round draws fresh Monte Carlo seeds from (seed, round)
and checks every output.  With ``--trace 1`` the wrappers of ``tracing.py``
are on in even rounds and off in odd ones: the per-layer figures come from
the traced rounds, and the tracing overhead is the median difference
between each traced round and the untraced round after it.  The last line
of standard output is the result JSON; the line before it starts with
``detail:``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import mvolt  # noqa: E402
import mvolt.cli  # noqa: E402
import mvolt.validate  # noqa: E402

MIN_ROUNDS = 4
# Calibrations timed right after the set-up; ``setup_s`` is scaled by their
# median.
SETUP_CALIBRATIONS = 3
# About the calibration's wall time at full speed on the host that
# README.md describes.  A timing is scaled by CAL_REF_S / (the calibration
# timed next to it), so it reads as seconds on that host at full speed.
CAL_REF_S = 0.1
CAL_SMALL = np.full((4, 4), 0.2)
CAL_BIG = np.full((200, 200), 1.0 / 400.0)
# |z| bound of every Monte Carlo comparison.  A round makes up to 24 of them
# and ten runs of a workload make hundreds of rounds, so the bound sits where
# an honest estimator essentially never crosses it (P(|z| > 5.5) = 4e-8).
Z_BOUND = 5.5


def calibration_s() -> float:
    """Wall time of a fixed mix of work that does not touch mvolt.

    It has the three kinds of work the workloads do, about 30 ms each on the
    reference host: interpreted Python, small NumPy calls, and BLAS.
    """
    start = time.perf_counter()
    acc = 0
    for j in range(400_000):
        acc += j * j % 7
    a = CAL_SMALL
    for _ in range(1800):
        a = np.einsum("ab,bc->ac", a, CAL_SMALL, optimize=True) + 0.1
    b = CAL_BIG
    for _ in range(75):
        b = np.tanh(b @ CAL_BIG)
    return time.perf_counter() - start


class Clock:
    """Wall time of one round's timed calls, and of its simulating call."""

    def __init__(self):
        self.wall = 0.0
        self.sim = 0.0

    def call(self, fn, *args, simulating=False, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        self.wall += elapsed
        if simulating:
            self.sim += elapsed
        return out


class Ops:
    """Operations attempted and failed, with the first problem of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures: dict[str, int] = {}

    def record(self, name, problems, known_fault=False):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.unexpected += not known_fault
            key = f"{name}: {problems[0]}"
            self.failures[key] = self.failures.get(key, 0) + 1


def z_problems(label, samples, want):
    """Problems of |z| > Z_BOUND for the sample mean against ``want``."""
    samples = np.asarray(samples, dtype=float)
    se = samples.std(ddof=1) / np.sqrt(samples.shape[0])
    z = (samples.mean() - want) / se if se > 0 else np.inf
    return [] if abs(z) <= Z_BOUND else [f"{label} z = {z:.2f}"]


class RoughWishartMC:
    """Volterra Wishart process on a k = 40 fractional fit (d = n = 2)."""

    HURST = [[0.1, 0.2], [0.2, 0.3]]
    NODES = 40
    TIMES = (0.25, 0.5, 1.0, 2.0)
    N_C = 3
    PATHS = 20_000
    REL_TOL = 1e-9

    def __init__(self, seed, work_dir):
        rng = np.random.default_rng(seed)
        self.gamma0 = rng.normal(size=(self.NODES, 2, 2)) * 0.05
        self.cs = rng.normal(size=(self.N_C, 2, 2)) * 0.4

    def setup(self):
        spec = mvolt.fractional.FractionalKernelSpec(np.array(self.HURST), 1e-3, 10.0,
                                                     self.NODES)
        self.measure = mvolt.fractional.fit_fractional_measure(spec).measure
        self.queries = [mvolt.wishart.WishartTransformQuery(t=t, c=c, gamma0=self.gamma0)
                        for c in self.cs for t in self.TIMES]

    def references(self, reference):
        m = self.measure
        self.ref_mean = [reference.wishart_mean(m.nodes, m.weights, self.gamma0, t)
                         for t in self.TIMES]
        self.ref_laplace = [reference.wishart_laplace(m.nodes, m.weights, self.gamma0, q.c, q.t)
                            for q in self.queries]

    def round(self, mc_seed, clock, ops):
        wishart = mvolt.wishart
        V = clock.call(wishart.simulate_wishart, self.measure, self.gamma0,
                       np.array(self.TIMES), self.PATHS, mc_seed, simulating=True)
        closed = [clock.call(wishart.closed_form_laplace, q, self.measure)
                  for q in self.queries]
        affine = [clock.call(wishart.affine_transform_wishart, q, self.measure)
                  for q in self.queries]

        problems = []
        if V.shape != (self.PATHS, len(self.TIMES), 2, 2) or not np.all(np.isfinite(V)):
            problems.append(f"bad samples, shape {V.shape}")
        else:
            low = np.linalg.eigvalsh(V)[..., 0]
            trace = np.einsum("ptaa->pt", V)
            if np.any(low < -1e-10 * (1.0 + trace)):
                problems.append(f"non-PSD sample, min eigenvalue {low.min():.3e}")
            for j, t in enumerate(self.TIMES):
                for a, b in ((0, 0), (0, 1), (1, 1)):
                    problems += z_problems(f"E[V_{a}{b}({t})]", V[:, j, a, b],
                                           self.ref_mean[j][a, b])
            for q, want in zip(self.queries, self.ref_laplace):
                j = self.TIMES.index(q.t)
                U = q.c.T @ q.c
                problems += z_problems(f"transform at t = {q.t}",
                                       np.exp(-np.einsum("ab,pab->p", U, V[:, j])), want)
        ops.record("simulate_wishart", problems)

        for q, want, value, (phi, pairing) in zip(self.queries, self.ref_laplace,
                                                  closed, affine):
            for name, got in (("closed_form_laplace", value),
                              ("affine_transform_wishart", np.exp(-phi - pairing))):
                err = abs(got / want - 1.0)
                ops.record(name, [] if err <= self.REL_TOL
                           else [f"t = {q.t}: relative error {err:.3e}"])
        return self.PATHS


class HestonPricing:
    """Reference Volterra Heston model: Fourier prices, charfn and long MC paths."""

    MATURITY = 1.0
    ALPHA = 1.5
    N_QUAD = 512
    FOURIER_RICCATI_STEPS = 100
    STRIKE_LADDER = (0.9, 1.0, 1.1)
    # Fixed arguments: the four with two nonzero entries fail on every run
    # while the joint Riccati assembles its transform in the wrong index order.
    CHARFN_ARGS = ((1.0, 0.0), (0.0, 1.5), (1.0, 1.0), (-2.0, 0.5), (3.0, -1.0),
                   (10.0, -3.0))
    N_DAMPED = 3
    # The RK4 error at the default 400 steps is below 2e-12 on these
    # arguments; the index-order fault is at least 1.4e-4.
    CHARFN_TOL = 1e-8
    PATHS = 1024
    STEPS = 400

    def __init__(self, seed, work_dir):
        rng = np.random.default_rng(seed)
        self.strikes = np.exp(rng.uniform(-0.05, 0.05)) * np.array(self.STRIKE_LADDER)
        damped = rng.uniform(0.5, 20.0, self.N_DAMPED) - 1j * (self.ALPHA + 1.0)
        self.args = np.array([*self.CHARFN_ARGS, *[(v, 0.0) for v in damped]], dtype=complex)

    def setup(self):
        self.model = mvolt.validate.heston_reference_model()

    def references(self, reference):
        m = self.model
        self.ref_cf = [reference.heston_charfn(m.measure.nodes, m.measure.weights, m.gamma0,
                                               m.rho, m.p0, v, self.MATURITY)
                       for v in self.args]

    def round(self, mc_seed, clock, ops):
        heston = mvolt.heston
        prices = [clock.call(heston.fourier_price_call, self.model, 0, float(K), self.MATURITY,
                             alpha=self.ALPHA, n_quad=self.N_QUAD,
                             riccati_steps=self.FOURIER_RICCATI_STEPS).price
                  for K in self.strikes]
        cf = clock.call(heston.char_function, self.model, self.args, self.MATURITY)
        P = clock.call(heston.simulate_heston_terminal, self.model, self.MATURITY, self.STEPS,
                       self.PATHS, mc_seed, simulating=True)

        sim_problems = []
        if P.shape != (self.PATHS, 1, 2) or not np.all(np.isfinite(P)):
            sim_problems.append(f"bad samples, shape {P.shape}")
            spot = None
        else:
            spot = np.exp(P[:, 0, :])
            for a in range(2):
                sim_problems += z_problems(f"E[exp(P_{a})] - 1", spot[:, a], 1.0)
        ops.record("simulate_heston_terminal", sim_problems)

        c = np.array(prices)
        ladder = []
        if not (c[0] > c[1] > c[2]):
            ladder.append(f"prices {c} not decreasing in the strike")
        if c[0] - 2.0 * c[1] + c[2] < -1e-12:
            ladder.append(f"prices {c} not convex in the strike")
        for K, price in zip(self.strikes, prices):
            problems = list(ladder)
            if not (max(1.0 - K, 0.0) - 1e-12 <= price <= 1.0 + 1e-12):
                problems.append(f"K = {K:.4f}: price {price} outside [(1 - K)+, 1]")
            if spot is not None:
                problems += z_problems(f"K = {K:.4f}: MC - Fourier",
                                       np.clip(spot[:, 0] - K, 0.0, None), price)
            ops.record("fourier_price_call", problems)

        for v, got, want in zip(self.args, np.atleast_1d(cf), self.ref_cf):
            err = abs(got - want)
            two_asset = not v.imag.any() and np.count_nonzero(v) == 2
            ops.record("char_function two-asset" if two_asset else "char_function",
                       [] if err <= self.CHARFN_TOL else [f"v = {v}: error {err:.3e}"],
                       known_fault=two_asset)
        return self.PATHS


class HawkesLift:
    """Diagonal d = 2 PSD jump (Hawkes) lift through the CLI, one model file."""

    NODES = (0.6, 2.5)
    NU = (0.35, 0.2)
    LAMBDA0 = (0.8, 0.4)
    HORIZON = 1.0
    THINNING_DT = 0.25
    PATHS = 1000
    LAPLACE_T = (0.25, 0.5, 1.0)
    RICCATI_STEPS = 1000
    LIFT_REL_TOL = 1e-8

    def __init__(self, seed, work_dir):
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(2, 2)) * 0.4
        self.u = -(B @ B.T + 0.05 * np.eye(2))
        eye = np.eye(2)
        self.weights = np.array([nu * eye for nu in self.NU])
        self.lam0 = np.array([lam * eye for lam in self.LAMBDA0])
        self.atoms = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        work_dir.mkdir(parents=True, exist_ok=True)
        self.files = {name: str(work_dir / name) for name in
                      ("model.cfg", "u.cfg", "events.csv", "vgrid.csv", "laplace.json")}
        Path(self.files["model.cfg"]).write_text(
            "[measure]\n"
            f"nodes = {list(self.NODES)}\n"
            f"weights = {self.weights.tolist()}\n"
            "d = 2\n"
            "[lambda0]\n"
            f"weights = {self.lam0.tolist()}\n"
            "[jumps]\n"
            f"atoms = {self.atoms.tolist()}\n"
            f"weights = {self.atoms.tolist()}\n"
            "epsilon = 0.0\n")
        Path(self.files["u.cfg"]).write_text(f"u = {self.u.tolist()}\n")

    def setup(self):
        mvolt.configio.read_jump_model(self.files["model.cfg"])

    def references(self, reference):
        args = (self.NODES, self.weights, self.lam0, self.atoms, self.atoms, 0.0)
        self.ref_counts = reference.jump_lift_mean_counts(*args, self.HORIZON)
        self.ref_laplace = [reference.jump_lift_laplace(*args, self.u, t)
                            for t in self.LAPLACE_T]

    def round(self, mc_seed, clock, ops):
        main, f = mvolt.cli.main, self.files
        sim_rc = clock.call(main, [
            "hawkes", "simulate", "--model", f["model.cfg"], "--T", str(self.HORIZON),
            "--thinning-dt", str(self.THINNING_DT), "--paths", str(self.PATHS),
            "--seed", str(mc_seed),
            "--out", f["events.csv"], "--out-grid", f["vgrid.csv"]], simulating=True)
        lap_rc = clock.call(main, [
            "transform", "laplace", "--model", f["model.cfg"], "--u", f["u.cfg"],
            "--t", ",".join(map(str, self.LAPLACE_T)),
            "--riccati-steps", str(self.RICCATI_STEPS), "--out", f["laplace.json"]])

        problems = [] if sim_rc == 0 else [f"hawkes simulate exit code {sim_rc}"]
        if sim_rc == 0:
            events = np.loadtxt(f["events.csv"], delimiter=",", skiprows=1, ndmin=2)
            counts = np.zeros((self.PATHS, 2))
            np.add.at(counts, (events[:, 0].astype(int), events[:, 2].astype(int)), 1.0)
            for r in range(2):
                problems += z_problems(f"E[N_{r}(T)]", counts[:, r], self.ref_counts[r])
            grid = np.loadtxt(f["vgrid.csv"], delimiter=",", skiprows=1, ndmin=2)
            n_times = int(round(self.HORIZON / self.THINNING_DT)) + 1
            if grid.shape != (self.PATHS * n_times, 6) or not np.all(np.isfinite(grid)):
                problems.append(f"bad V grid, shape {grid.shape}")
            else:
                V = grid[:, 2:].reshape(self.PATHS, n_times, 2, 2)
                times = grid[:n_times, 1]
                for t, want in zip(self.LAPLACE_T, self.ref_laplace):
                    j = int(np.argmin(np.abs(times - t)))
                    problems += z_problems(
                        f"E[exp(Tr(u V_{t}))]",
                        np.exp(np.einsum("ab,pba->p", self.u, V[:, j])), want)
        ops.record("hawkes simulate", problems)

        problems = [] if lap_rc == 0 else [f"transform laplace exit code {lap_rc}"]
        if lap_rc == 0:
            entries = json.loads(Path(f["laplace.json"]).read_text())["entries"]
            for entry, t, want in zip(entries, self.LAPLACE_T, self.ref_laplace):
                lift_err = abs(entry["lift_value"] / want - 1.0)
                if lift_err > self.LIFT_REL_TOL:
                    problems.append(f"t = {t}: lift route relative error {lift_err:.3e}")
                vol_err = abs(entry["volterra_value"] - want)
                if vol_err > max(1e-4, 5.0 * t / self.RICCATI_STEPS):
                    problems.append(f"t = {t}: Volterra route error {vol_err:.3e}")
            if len(entries) != len(self.LAPLACE_T):
                problems.append(f"{len(entries)} report entries")
        ops.record("transform laplace", problems)
        return self.PATHS


WORKLOADS = {
    "rough_wishart_mc": RoughWishartMC,
    "heston_pricing": HestonPricing,
    "hawkes_lift": HawkesLift,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after the set-up and print only its times")
    args = ap.parse_args(argv)
    import_s = time.time() - args.spawned_at
    if Path(mvolt.__file__).resolve().parent != ROOT / "src" / "mvolt":
        print(f"imported mvolt from {mvolt.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    out_dir = Path(args.out_dir)
    patches = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
    workload = WORKLOADS[args.workload](args.seed, out_dir / f"work_{args.workload}")
    start = time.perf_counter()
    workload.setup()
    setup_raw = import_s + time.perf_counter() - start
    setup_s = setup_raw * CAL_REF_S / statistics.median(
        calibration_s() for _ in range(SETUP_CALIBRATIONS))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0
    import reference  # imported only now, so that setup_s leaves it out

    workload.references(reference)

    ops = Ops()
    walls, sims, cals, traced = [], [], [], []
    started = time.perf_counter()
    while len(walls) < MIN_ROUNDS or time.perf_counter() - started < args.seconds:
        mc_seed = int(np.random.SeedSequence([args.seed, len(walls)]).generate_state(1)[0])
        if patches is not None:
            traced.append(len(walls) % 2 == 0)
            if traced[-1]:
                patches.on()
            else:
                patches.off()
        cals.append(calibration_s())
        clock = Clock()
        paths = workload.round(mc_seed, clock, ops)
        walls.append(clock.wall)
        sims.append(clock.sim)
    cals.append(calibration_s())
    # The host's other tenants change its speed by up to 2x, in bursts of
    # seconds and in stretches of minutes.  Each round is scaled by the mean
    # of the calibrations timed just before and just after it, which saw
    # about the same host speed, and the median over rounds is reported.
    scales = [2.0 * CAL_REF_S / (before + after) for before, after in zip(cals, cals[1:])]
    scaled_walls = [s * w for s, w in zip(scales, walls)]
    wall_s = statistics.median(scaled_walls)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": len(walls), "wall_s": wall_s, "setup_raw_s": setup_raw,
              "round_walls": walls, "calibration_s": cals, "import_s": import_s,
              "failures": ops.failures}

    if patches is not None:
        patches.off()
        n_traced = sum(traced)
        tracer.write(out_dir / f"trace_{args.workload}.json",
                     workload=args.workload, seed=args.seed, rounds=n_traced)
        values = tracing.layer_metrics(tracer, n_traced)
        # Round 2i (traced) and round 2i + 1 (untraced) ran back to back, so
        # their difference is the steadiest estimate of the wrappers' cost.
        pairs = list(zip(scaled_walls[0::2], scaled_walls[1::2]))
        detail.update(traced_rounds=n_traced,
                      overhead_s=statistics.median(on - off for on, off in pairs),
                      overhead_share=statistics.median(on / off - 1.0 for on, off in pairs))
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "mc_paths_per_s": paths / statistics.median(
                s * sim for s, sim in zip(scales, sims)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(values):
        raise RuntimeError("measured metrics differ from those BENCHMARK.json declares")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print("detail: " + json.dumps(detail))
    print(json.dumps({"correct": ops.unexpected == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
