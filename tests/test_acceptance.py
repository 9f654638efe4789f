"""Full-scale acceptance suite: one test per criterion, stated tolerances.

Every stochastic comparison runs at its stated path count and asserts
|z| <= 3 against the analytic value; deterministic identities assert their
stated absolute tolerances.  Each test prints a PASS line with the numbers
that justify it (visible with pytest -s or on failure).
"""

import json
import time

import numpy as np
import pytest

from mvolt.cli import main
from mvolt.validate import (
    check_fourier_price,
    check_fractional_fit,
    check_hawkes_compensator,
    check_heston_charfn,
    check_jump_transform,
    check_representation_equivalence,
    check_resolvent,
    check_wishart_scalar,
    check_wishart_transform,
)

WORKERS = 2


def report(name, result, extra=""):
    status = "PASS" if result["passed"] else "FAIL"
    print(f"{status} {name} {extra}")
    return result["passed"]


def test_criterion_1_wishart_transform_identity():
    start = time.monotonic()
    res = check_wishart_transform(n_paths=100_000, seed=101, workers=WORKERS)
    elapsed = time.monotonic() - start
    ok = report(
        "criterion 1: transform identity of the squared lift "
        f"(d=2, n=3, k=4, 6 points, 1e5 paths)",
        res,
        f"max|z|={res['max_abs_z']:.2f} runtime={elapsed:.1f}s",
    )
    assert ok, res
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds the 60 s budget"


def test_criterion_2_wishart_scalar_sanity():
    res = check_wishart_scalar(n_paths=100_000, seed=102, workers=WORKERS)
    ok = report(
        "criterion 2: scalar benchmark (1+2t)^(-1/2) at t in {0.5, 1, 2}",
        res,
        f"max|z|={res['max_abs_z']:.2f} "
        f"closed-form rel err={res['max_closed_form_rel_err']:.2e}",
    )
    assert ok, res
    assert res["max_closed_form_rel_err"] <= 1e-12


def test_criterion_3_jump_transform_identity():
    res = check_jump_transform(n_paths=100_000, seed=103, workers=WORKERS)
    ok = report(
        "criterion 3: jump transform, lift ODE vs Volterra form vs MC "
        "(u in {-0.5,-1,-2}, t in {0.5,1})",
        res,
        f"max|z|={res['max_abs_z']:.2f} "
        f"max route gap/tol={res['max_route_gap_over_tol']:.2f}",
    )
    assert ok, res


def test_criterion_4_representation_equivalence():
    res = check_representation_equivalence(n_paths=100, seed=104,
                                           workers=WORKERS)
    ok = report(
        "criterion 4: lift V vs Volterra-projected V on 100 diagonal paths",
        res,
        f"median gap coarse={res['median_gap_coarse']:.2e} "
        f"fine/coarse={res['fine_over_coarse']:.2f}",
    )
    assert ok, res


def test_criterion_5_compensator_identity():
    res = check_hawkes_compensator(n_paths=100_000, seed=105, workers=WORKERS)
    ok = report(
        "criterion 5: E[N_i(T)] vs E[int V_ii dt] per component (1e5 paths)",
        res,
        f"max|z|={res['max_abs_z']:.2f}",
    )
    assert ok, res


def test_criterion_6_resolvent_identity():
    res = check_resolvent()
    ok = report(
        "criterion 6: exact atomic resolvent flow, Laplace identity to 1e-12 "
        "and scalar closed form c e^(-2ct) to 1e-14",
        res,
        f"scalar err={res['scalar_closed_form_err']:.2e} "
        f"laplace={res['laplace_residual']:.1e}",
    )
    assert ok, res
    assert res["scalar_closed_form_err"] <= 1e-14
    assert res["laplace_residual"] <= 1e-12


def test_criterion_7_fractional_fit():
    res = check_fractional_fit()
    ok = report(
        "criterion 7: fractional kernel fits (H in {0.1,0.25,0.4}, k=20, "
        "sup rel err <= 5e-3 vs quadrature oracle, monotone in k)",
        res,
        " ".join(
            f"H={p['hurst']}: k20={p['sup_rel_err'][20]:.1e}" for p in res["points"]
        ),
    )
    assert ok, res


def test_criterion_8_heston_characteristic_function():
    res = check_heston_charfn(n_paths=200_000, seed=108, workers=WORKERS)
    ok = report(
        "criterion 8: joint characteristic function vs MC (d=2, n=2, k=2, "
        "rho=(-0.5,0), 5 v points, 2e5 paths) and martingale checks",
        res,
        f"max|z|={res['max_abs_z']:.2f}",
    )
    assert ok, res


def test_criterion_9_fourier_pricing():
    res = check_fourier_price(n_paths=200_000, seed=109, workers=WORKERS)
    ok = report(
        "criterion 9: Fourier pricing vs Gaussian closed form (deterministic "
        "V) and vs MC at 3 strikes",
        res,
        f"max deg err={max(p['abs_err'] for p in res['degenerate']):.2e} "
        f"max|z|={res['max_abs_z']:.2f}",
    )
    assert ok, res


class TestCriterion10Determinism:
    """Reports are byte-identical across reruns and across worker counts."""

    @pytest.fixture
    def model_files(self, tmp_path):
        measure = tmp_path / "measure.cfg"
        measure.write_text(
            "nodes = [0.5, 2.0]\n"
            "weights = [[[0.1, 0.02], [0.02, 0.08]], "
            "[[0.06, -0.01], [-0.01, 0.09]]]\nd = 2\n"
        )
        gamma0 = tmp_path / "gamma0.cfg"
        gamma0.write_text(
            "nodes = [0.5, 2.0]\n"
            "weights = [[[0.1, 0.0], [0.0, 0.1]], [[0.05, 0.02], [0.0, 0.1]]]\n"
        )
        cfile = tmp_path / "c.cfg"
        cfile.write_text("c = [[0.5, 0.1], [0.0, 0.3]]\n")
        heston = tmp_path / "heston.cfg"
        heston.write_text(
            "[measure]\nnodes = [0.5, 2.0]\n"
            "weights = [[[0.1, 0.02], [0.02, 0.08]], "
            "[[0.06, -0.01], [-0.01, 0.09]]]\nd = 2\n"
            "[gamma0]\nweights = [[[0.1, 0.0], [0.0, 0.1]], "
            "[[0.05, 0.02], [0.0, 0.1]]]\n"
            "[price]\nrho = [-0.5, 0.0]\np0 = [0.0, 0.0]\n"
        )
        vcfg = tmp_path / "validate.cfg"
        vcfg.write_text(
            "[validate]\nchecks = ['wishart_scalar', 'jump_transform']\n"
            "paths = 4000\nseed = 9\n"
        )
        return tmp_path, str(measure), str(gamma0), str(cfile), str(heston), str(vcfg)

    def _variants(self, tmp_path, argv_builder):
        payloads = []
        for tag, workers in (("a", "1"), ("b", "1"), ("c", "8")):
            out = tmp_path / f"out_{tag}"
            rc = main(argv_builder(str(out), workers))
            assert rc in (0, 1)
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1], "rerun changed the report bytes"
        assert payloads[0] == payloads[2], "worker count changed the report bytes"

    def test_wishart_transform_report(self, model_files):
        tmp_path, measure, gamma0, cfile, _, _ = model_files
        self._variants(
            tmp_path,
            lambda out, workers: [
                "wishart", "transform", "--measure", measure, "--gamma0",
                gamma0, "--c", cfile, "--times", "0.5,1.0", "--paths", "20000",
                "--seed", "11", "--workers", workers, "--out", out,
            ],
        )
        print("PASS criterion 10a: transform report deterministic")

    def test_hawkes_events_report(self, model_files, tmp_path):
        measure = tmp_path / "m1.cfg"
        measure.write_text("nodes = [1.0]\nweights = [[[0.4]]]\nd = 1\n")
        lam0 = tmp_path / "l1.cfg"
        lam0.write_text("nodes = [1.0]\nweights = [[[1.0]]]\nd = 1\n")
        self._variants(
            tmp_path,
            lambda out, workers: [
                "hawkes", "simulate", "--measure", str(measure), "--lambda0",
                str(lam0), "--T", "1.0", "--paths", "500", "--seed", "12",
                "--workers", workers, "--out", out,
            ],
        )
        print("PASS criterion 10b: event log deterministic")

    def test_heston_price_report(self, model_files):
        tmp_path, _, _, _, heston, _ = model_files
        self._variants(
            tmp_path,
            lambda out, workers: [
                "heston", "price", "--model", heston, "--strikes", "0.9,1.0",
                "--maturity", "0.5", "--paths", "20000", "--steps", "64",
                "--seed", "13", "--workers", workers, "--out", out,
            ],
        )
        print("PASS criterion 10c: price report deterministic")

    def test_validate_report(self, model_files):
        tmp_path, _, _, _, _, vcfg = model_files
        outs = []
        for tag, workers in (("va", 1), ("vb", 1), ("vc", 8)):
            out = tmp_path / f"rep_{tag}.json"
            rc = main(["validate", "--config", vcfg, "--workers", str(workers),
                       "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        rep = json.loads(outs[0])
        assert rep["passed"] is True
        print("PASS criterion 10d: validation report deterministic")
