import json
import time
from pathlib import Path

import numpy as np
import pytest

from mvolt.cli import build_parser, main
from mvolt.configio import read_measure

README = Path(__file__).resolve().parents[1] / "README.md"


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def measure_file(tmp_path):
    return write(
        tmp_path / "measure.cfg",
        "nodes = [0.5, 2.0]\n"
        "weights = [[[0.1, 0.02], [0.02, 0.08]], [[0.06, -0.01], [-0.01, 0.09]]]\n"
        "d = 2\n",
    )


@pytest.fixture
def gamma0_file(tmp_path):
    return write(
        tmp_path / "gamma0.cfg",
        "nodes = [0.5, 2.0]\n"
        "weights = [[[0.1, 0.0], [0.0, 0.1]], [[0.05, 0.02], [0.0, 0.1]]]\n",
    )


@pytest.fixture
def heston_model_file(tmp_path):
    return write(
        tmp_path / "heston.cfg",
        "[measure]\n"
        "nodes = [0.5, 2.0]\n"
        "weights = [[[0.1, 0.02], [0.02, 0.08]], [[0.06, -0.01], [-0.01, 0.09]]]\n"
        "d = 2\n"
        "[gamma0]\n"
        "weights = [[[0.1, 0.0], [0.0, 0.1]], [[0.05, 0.02], [0.0, 0.1]]]\n"
        "[price]\n"
        "rho = [-0.5, 0.0]\n"
        "p0 = [0.0, 0.0]\n",
    )


@pytest.fixture
def jump_model_file(tmp_path):
    return write(
        tmp_path / "jump.cfg",
        "[measure]\nnodes = [1.0]\nweights = [[[0.4]]]\nd = 1\n"
        "[lambda0]\nweights = [[[1.0]]]\n"
        "[jumps]\natoms = [[[1.0]]]\nweights = [[[0.3]]]\nepsilon = 0.0\n",
    )


class TestKernel:
    def test_fit_then_eval(self, tmp_path):
        hurst = write(tmp_path / "h.cfg", "hurst = [[0.25]]\n")
        out = tmp_path / "fitted.cfg"
        rc = main(["kernel", "fit", "--hurst", hurst, "--nodes", "20",
                   "--tmin", "1e-3", "--tmax", "10", "--out", str(out)])
        assert rc == 0
        measure = read_measure(out)
        assert measure.k == 20
        csv_out = tmp_path / "k.csv"
        rc = main(["kernel", "eval", "--measure", str(out),
                   "--times", "0.01,0.1,1.0", "--out", str(csv_out)])
        assert rc == 0
        lines = csv_out.read_text().strip().split("\n")
        assert lines[0] == "t,K_11"
        assert len(lines) == 4

    def test_fit_tolerance_failure(self, tmp_path):
        hurst = write(tmp_path / "h.cfg", "hurst = [[0.25]]\n")
        rc = main(["kernel", "fit", "--hurst", hurst, "--nodes", "3",
                   "--tmin", "1e-3", "--tmax", "10",
                   "--tol", "1e-9", "--out", str(tmp_path / "x.cfg")])
        assert rc == 2

    def test_missing_file_is_config_error(self, tmp_path):
        rc = main(["kernel", "eval", "--measure", str(tmp_path / "nope.cfg"),
                   "--times", "1.0"])
        assert rc == 2

    @pytest.mark.parametrize("times", ["nan", "0.5,nan"])
    def test_eval_rejects_nan_times(self, tmp_path, capsys, measure_file, times):
        out = tmp_path / "k.csv"
        rc = main(["kernel", "eval", "--measure", measure_file, "--times", times,
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: kernel evaluation requires t >= 0"]
        assert not out.exists()


class TestSimulationCommands:
    def test_ou_simulate_csv(self, tmp_path, measure_file, gamma0_file):
        out = tmp_path / "paths.csv"
        rc = main(["ou", "simulate", "--measure", measure_file,
                   "--gamma0", gamma0_file, "--dt", "0.25", "--steps", "4",
                   "--paths", "3", "--seed", "1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "path,t,X_11,X_12,X_21,X_22"
        assert len(lines) == 1 + 3 * 4

    def test_negative_seed_is_config_error(self, tmp_path, capsys, measure_file,
                                           gamma0_file):
        out = tmp_path / "paths.csv"
        rc = main(["ou", "simulate", "--measure", measure_file,
                   "--gamma0", gamma0_file, "--dt", "0.25", "--steps", "4",
                   "--paths", "4", "--seed", "-1", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: seed must be a non-negative integer, got -1"]
        assert not out.exists()

    def test_wishart_simulate_csv(self, tmp_path, measure_file, gamma0_file):
        out = tmp_path / "v.csv"
        rc = main(["wishart", "simulate", "--measure", measure_file,
                   "--gamma0", gamma0_file, "--dt", "0.5", "--steps", "2",
                   "--paths", "2", "--seed", "1", "--out", str(out)])
        assert rc == 0
        header = out.read_text().split("\n")[0]
        assert header == "path,t,V_11,V_12,V_21,V_22"

    other_nodes = "config error: {bad}: node data and measure must share the same nodes"
    other_d = "error: gamma0 must have shape (2, n, 2), got (2, 1, 1)"

    @pytest.mark.parametrize("gamma0, messages", [
        ("nodes = [0.5, 3.0]\nweights = [[[0.1, 0.0]], [[0.0, 0.1]]]\n",
         [other_nodes] * 3),
        ("nodes = [0.5]\nweights = [[[0.1, 0.0]]]\n", [other_nodes] * 3),
        ("nodes = [0.5, 2.0]\nweights = [[[0.1]], [[0.2]]]\n",
         [other_d, other_d, "error: c and gamma0 disagree on d"]),
        ("nodes = [0.5, 2.0]\nweights = [[[0.1, 0.0]], [[0.0, 1e999]]]\n",
         ["error: gamma0 entries must be finite"] * 3),
    ], ids=["other-nodes", "k1-against-k2", "other-d", "inf-gamma0"])
    def test_gamma0_must_match_the_measure(self, tmp_path, capsys, measure_file,
                                           gamma0, messages):
        # every command that reads --gamma0 checks it before any block runs
        bad = write(tmp_path / "bad.cfg", gamma0)
        cfile = write(tmp_path / "c.cfg", "c = [[0.5, 0.0], [0.0, 0.5]]\n")
        out = tmp_path / "out.txt"
        for cmd, message in zip(
                (["ou", "simulate", "--dt", "0.5", "--steps", "2"],
                 ["wishart", "simulate", "--dt", "0.5", "--steps", "2"],
                 ["wishart", "transform", "--c", cfile, "--times", "0.5"]), messages):
            rc = main([*cmd, "--measure", measure_file, "--gamma0", bad,
                       "--paths", "4", "--out", str(out)])
            assert rc == 2, cmd
            err = capsys.readouterr().err.strip().splitlines()
            assert err == [message.format(bad=bad)], cmd
            assert not out.exists()

    @pytest.mark.parametrize("cmd, message", [
        (["ou", "simulate", "--dt", "0.5", "--steps", "0"],
         "config error: need --dt > 0 and --steps >= 1, got 0.5 and 0"),
        (["wishart", "simulate", "--dt", "0.5", "--steps", "0"],
         "config error: need --dt > 0 and --steps >= 1, got 0.5 and 0"),
        (["wishart", "simulate", "--dt=-0.5", "--steps", "2"],
         "config error: need --dt > 0 and --steps >= 1, got -0.5 and 2"),
        (["wishart", "transform", "--times=-0.5,1.0"],
         "error: transform time must be >= 0"),
        (["wishart", "transform", "--times=0.5,nan"],
         "error: transform time must be >= 0"),
    ], ids=["ou-steps-0", "wishart-steps-0", "wishart-negative-dt", "transform-negative",
            "transform-nan"])
    def test_bad_times_exit_two_before_any_block(self, tmp_path, capsys, measure_file,
                                                 gamma0_file, cmd, message):
        cfile = write(tmp_path / "c.cfg", "c = [[0.5, 0.0], [0.0, 0.5]]\n")
        if cmd[1] == "transform":
            cmd = [*cmd, "--c", cfile]
        out = tmp_path / "out.txt"
        rc = main([*cmd, "--measure", measure_file, "--gamma0", gamma0_file,
                   "--paths", "4", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [message]
        assert not out.exists()

    @pytest.mark.parametrize("c, message", [
        ("[0.5, 0.0]", "c must be (n, d) and gamma0 (k, n, d)"),
        ("[[0.5, 0.0, 0.1]]", "c and gamma0 disagree on d")], ids=["1-d", "three-columns"])
    def test_wishart_transform_checks_c_before_the_monte_carlo(
            self, tmp_path, capsys, monkeypatch, measure_file, gamma0_file, c, message):
        import mvolt.cli as cli_mod

        def no_monte_carlo(*args, **kwargs):
            raise AssertionError("simulate_wishart ran before c was checked")

        monkeypatch.setattr(cli_mod, "simulate_wishart", no_monte_carlo)
        cfile = write(tmp_path / "c.cfg", f"c = {c}\n")
        out = tmp_path / "report.json"
        rc = main(["wishart", "transform", "--measure", measure_file,
                   "--gamma0", gamma0_file, "--c", cfile, "--times", "0.5",
                   "--paths", "4", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("cmd", [["heston", "simulate", "--T", "0.5"],
                                     ["heston", "charfn", "--v", "1.0,0.0", "--t", "1.0"],
                                     ["transform", "charfn", "--v", "1.0,0.0", "--t", "1.0"]],
                             ids=["heston-simulate", "heston-charfn", "transform-charfn"])
    def test_price_jump_atoms_need_weights(self, tmp_path, capsys, heston_model_file, cmd):
        model = write(tmp_path / "jumps.cfg", (tmp_path / "heston.cfg").read_text()
                      + "jump_atoms = [[0.05, -0.02]]\n")
        out = tmp_path / "out.txt"
        rc = main([*cmd, "--model", model, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"config error: {model}: need jump atoms of shape (J, 2) and one "
                       f"2 x 2 weight per atom, got atoms (1, 2) and weights (0, 2, 2)"]
        assert not out.exists()

    @pytest.mark.parametrize("old, new, message", [
        ("p0 = [0.0, 0.0]", "p0 = [1e999, 0.0]", "p0 entries must be finite"),
        ("rho = [-0.5, 0.0]", "rho = [-1e999, 0.0]", "rho entries must be finite"),
        ("p0 = [0.0, 0.0]", "p0 = [0.0, 0.0]\njump_atoms = [[0.05, -0.02]]\n"
         "jump_weights = [[[-5.0, 0.0], [0.0, -5.0]]]",
         "jump weight 0 must be PSD, min eigenvalue -5.000e+00"),
    ], ids=["inf-p0", "inf-rho", "nsd-jump-weight"])
    def test_heston_charfn_rejects_bad_numbers(self, tmp_path, capsys, heston_model_file,
                                               old, new, message):
        # these used to exit 0 with NaN or a value priced from a negative
        # rate, or exit 3 as a Riccati blow-up
        model = write(tmp_path / "bad.cfg",
                      (tmp_path / "heston.cfg").read_text().replace(old, new))
        out = tmp_path / "cf.json"
        rc = main(["heston", "charfn", "--model", model, "--v", "1.0,0.0", "--t", "1.0",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"config error: {model}: {message}"]
        assert not out.exists()

    def test_hawkes_grid_steps_must_be_positive(self, tmp_path, capsys, jump_model_file):
        # 0 used to fall back to the default grid and exit 0
        out = tmp_path / "ev.csv"
        for steps in ("0", "-1"):
            rc = main(["hawkes", "simulate", "--model", jump_model_file, "--T", "1.0",
                       "--paths", "2", "--grid-steps", steps, "--out", str(out)])
            assert rc == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert err == ["error: need horizon > 0 and n_steps >= 1"]
            assert not out.exists()

    def test_hawkes_jump_atoms_need_weights(self, tmp_path, capsys):
        model = write(
            tmp_path / "m.cfg",
            "[measure]\nnodes = [1.0]\nweights = [[[0.4]]]\nd = 1\n"
            "[lambda0]\nweights = [[[1.0]]]\n"
            "[jumps]\natoms = [[[1.0]]]\n")
        out = tmp_path / "events.csv"
        for cmd in (["hawkes", "simulate", "--T", "1.0", "--paths", "5"],
                    ["transform", "laplace", "--u", write(tmp_path / "u.cfg", "u = [[-1.0]]\n"),
                     "--t", "0.5"]):
            rc = main([*cmd, "--model", model, "--out", str(out)])
            assert rc == 2, cmd
            err = capsys.readouterr().err.strip().splitlines()
            assert err == [f"config error: {model}[jumps]: need one d x d weight per atom, "
                           f"got atoms (1, 1, 1) and weights (0, 1, 1)"], cmd
            assert not out.exists()

    def test_indefinite_lambda0_is_config_error(self, tmp_path, capsys):
        # V_0 = lam0 = -1 is not PSD; run anyway, every path ends with
        # V_T < 0 and the Laplace transform reads 2.16, outside (0, 1]
        model = write(
            tmp_path / "m.cfg",
            "[measure]\nnodes = [1.0]\nweights = [[[0.4]]]\nd = 1\n"
            "[lambda0]\nweights = [[[-1.0]]]\n"
            "[jumps]\natoms = [[[1.0]]]\nweights = [[[1.0]]]\n")
        out = tmp_path / "events.csv"
        for cmd in (["hawkes", "simulate", "--T", "1.0", "--paths", "5"],
                    ["transform", "laplace", "--u", write(tmp_path / "u.cfg", "u = [[-0.5]]\n"),
                     "--t", "1.0"]):
            rc = main([*cmd, "--model", model, "--out", str(out)])
            assert rc == 2, cmd
            err = capsys.readouterr().err.strip().splitlines()
            assert err == [f"config error: {model}: initial V = sum_i lam(x_i) must be PSD, "
                           f"min eigenvalue -1.000e+00"], cmd
            assert not out.exists()

    @pytest.mark.parametrize("cmd", [["hawkes", "simulate", "--T", "1.0", "--paths", "3"],
                                     ["transform", "laplace", "--t", "0.5"]],
                             ids=["hawkes-simulate", "transform-laplace"])
    def test_jump_atoms_must_match_the_measure_d(self, tmp_path, capsys, cmd):
        # a d = 1 atom on a d = 2 measure is a config error before any block
        # or solve runs, not a shape error from inside one
        model = write(
            tmp_path / "m.cfg",
            "[measure]\nnodes = [1.0]\nweights = [[[0.4, 0.0], [0.0, 0.4]]]\nd = 2\n"
            "[lambda0]\nweights = [[[1.0, 0.0], [0.0, 1.0]]]\n"
            "[jumps]\natoms = [[[1.0]]]\nweights = [[[0.3]]]\n")
        if cmd[0] == "transform":
            cmd = [*cmd, "--u", write(tmp_path / "u.cfg", "u = [[-1.0, 0.0], [0.0, -1.0]]\n")]
        out = tmp_path / "out.txt"
        rc = main([*cmd, "--model", model, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"config error: {model}[jumps]: atoms and weights must be 2 x 2 "
                       f"like the measure, got shape (1, 1, 1)"]
        assert not out.exists()

    def test_heston_simulate_needs_a_step(self, tmp_path, capsys, heston_model_file):
        out = tmp_path / "prices.csv"
        rc = main(["heston", "simulate", "--model", heston_model_file, "--T", "0.5",
                   "--steps", "0", "--paths", "3", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: need at least one step, got n_steps = 0"]
        assert not out.exists()

    def test_heston_simulate_csv(self, tmp_path, heston_model_file):
        text = (tmp_path / "heston.cfg").read_text()
        model = write(tmp_path / "p0.cfg",
                      text.replace("p0 = [0.0, 0.0]", "p0 = [0.1, -0.2]"))
        out = tmp_path / "prices.csv"
        rc = main(["heston", "simulate", "--model", model, "--T", "0.5",
                   "--steps", "4", "--paths", "3", "--seed", "2",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "path,t,P_1,P_2"
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert rows.shape == (3 * (4 + 1), 4)
        np.testing.assert_array_equal(rows[:, 0], np.repeat(np.arange(3), 5))
        start = rows[rows[:, 1] == 0.0]
        assert len(start) == 3
        np.testing.assert_array_equal(start[:, 2:], [[0.1, -0.2]] * 3)

    def test_hawkes_simulate(self, tmp_path):
        measure = write(
            tmp_path / "m.cfg", "nodes = [1.0]\nweights = [[[0.4]]]\nd = 1\n"
        )
        lam0 = write(
            tmp_path / "l.cfg", "nodes = [1.0]\nweights = [[[1.0]]]\nd = 1\n"
        )
        out = tmp_path / "events.csv"
        vgrid = tmp_path / "vpath.csv"
        rc = main(["hawkes", "simulate",
                   "--measure", measure, "--lambda0", lam0, "--T", "2.0",
                   "--paths", "20", "--seed", "3", "--out", str(out),
                   "--out-grid", str(vgrid)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "path,t,atom,intensity_at_jump"
        assert vgrid.read_text().startswith("path,t,V_11")

    @pytest.mark.parametrize("thinning_dt", ["0", "-0.25"])
    def test_hawkes_rejects_nonpositive_thinning_dt(self, tmp_path, capsys,
                                                    jump_model_file, thinning_dt):
        # 0 divided by zero and -0.25 never returned
        out = tmp_path / "events.csv"
        rc = main(["hawkes", "simulate", "--model", jump_model_file, "--T", "1.0",
                   "--thinning-dt", thinning_dt, "--paths", "5", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: thinning_dt must be positive and finite, "
                       f"got {float(thinning_dt)}"]
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--thinning-dt", "1e-300"], "thinning_dt = 1e-300 gives T / thinning_dt = 1e+300 "
                                      "control intervals, more than 1000000"),
        (["--thinning-dt", "5e-324"], "thinning_dt = 5e-324 gives T / thinning_dt = inf "
                                      "control intervals, more than 1000000"),
        (["--grid-steps", "1000001"], "grid_steps = 1000001 exceeds 1000000"),
    ], ids=["tiny-thinning-dt", "ratio-overflows", "grid-steps"])
    def test_hawkes_rejects_a_grid_past_the_bound(self, tmp_path, capsys, jump_model_file,
                                                  flags, message):
        # 1e-300 ended in NumPy's "Maximum allowed size exceeded", naming no field
        out = tmp_path / "events.csv"
        rc = main(["hawkes", "simulate", "--model", jump_model_file, "--T", "1.0",
                   *flags, "--paths", "5", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("horizon", ["inf", "nan", "0", "-1.0"])
    def test_hawkes_rejects_bad_horizon(self, tmp_path, capsys, jump_model_file, horizon):
        # inf ended in an OverflowError traceback, nan in a float-to-int error
        out = tmp_path / "events.csv"
        rc = main(["hawkes", "simulate", "--model", jump_model_file, "--T", horizon,
                   "--paths", "5", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: horizon T must be positive and finite, got {float(horizon)}"]
        assert not out.exists()

    def test_hawkes_workers_share_a_small_run(self, tmp_path, jump_model_file,
                                              monkeypatch):
        # 500 paths fit in one block of BLOCK_SIZE; with 2 workers the run is
        # split into path-ordered blocks that a pool shares, and the files
        # stay byte-identical to the serial run
        import concurrent.futures

        mapped = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def map(self, fn, blocks, **kwargs):
                mapped.append(list(blocks))
                return super().map(fn, mapped[-1], **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        files = []
        for workers in ("1", "2"):
            out, grid = tmp_path / f"ev{workers}.csv", tmp_path / f"v{workers}.csv"
            assert main(["hawkes", "simulate", "--model", jump_model_file,
                         "--T", "1.0", "--paths", "500", "--seed", "9",
                         "--workers", workers, "--out", str(out),
                         "--out-grid", str(grid)]) == 0
            files.append((out.read_bytes(), grid.read_bytes()))
        assert files[0] == files[1]
        assert mapped == [[(0, 250), (250, 500)]]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_hawkes_files_match_per_path_loop_and_per_cell_csv(self, tmp_path, workers):
        # the two-atom model with non-diagonal nu and eps = 0.05, thinned by
        # the per-path loop on each path's lane of triples and written by
        # the per-cell formatter: the CLI's files are the same bytes
        from test_configio import per_cell_csv
        from test_jumps import _lane_triples, _reference_model, _reference_path

        from mvolt.configio import measure_to_dict, write_sections

        sim, _ = _reference_model("two_atom_eps")
        spec = sim.spec
        model = tmp_path / "two_atom.cfg"
        write_sections(model, {
            "measure": measure_to_dict(sim.state0.measure),
            "lambda0": {"weights": sim.state0.lam},
            "jumps": {"atoms": spec.atoms, "weights": spec.weights,
                      "epsilon": spec.epsilon_shift}})
        seed, paths = 12, 200
        records = [_reference_path(sim.state0, spec, sim.horizon, _lane_triples(seed, p),
                                   sim.thinning_dt, sim.grid, sim.flow)[0]
                   for p in range(paths)]
        want_events = per_cell_csv(
            ["path", "t", "atom", "intensity_at_jump"],
            [[p, t, int(r), rate] for p, rec in enumerate(records)
             for t, r, rate in zip(rec["jump_times"], rec["jump_atoms"],
                                   rec["intensity_at_jumps"])])
        want_grid = per_cell_csv(
            ["path", "t", "V_11", "V_12", "V_21", "V_22"],
            [[p, t, *v.flat] for p, rec in enumerate(records)
             for t, v in zip(sim.grid.times, rec["v_path"])])
        assert len(set(r for rec in records for r in rec["jump_atoms"])) == 2

        out, grid = tmp_path / "ev.csv", tmp_path / "v.csv"
        assert main(["hawkes", "simulate", "--model", str(model), "--T", "1.0",
                     "--thinning-dt", "0.25", "--grid-steps", "16",
                     "--paths", str(paths), "--seed", str(seed), "--workers", workers,
                     "--out", str(out), "--out-grid", str(grid)]) == 0
        assert out.read_text() == want_events
        assert grid.read_text() == want_grid

    def test_hawkes_model_without_atoms(self, tmp_path):
        # d = 2 with atoms = []: no event, every path is the same pure drift
        model = write(
            tmp_path / "none.cfg",
            "[measure]\nnodes = [0.6, 2.5]\n"
            "weights = [[[0.35, 0.0], [0.0, 0.35]], [[0.2, 0.0], [0.0, 0.2]]]\nd = 2\n"
            "[lambda0]\nweights = [[[0.8, 0.0], [0.0, 0.8]], [[0.4, 0.0], [0.0, 0.4]]]\n"
            "[jumps]\natoms = []\nweights = []\n")
        out, grid = tmp_path / "ev.csv", tmp_path / "v.csv"
        assert main(["hawkes", "simulate", "--model", model, "--T", "1.0",
                     "--paths", "3", "--seed", "1", "--out", str(out),
                     "--out-grid", str(grid)]) == 0
        assert out.read_text() == "path,t,atom,intensity_at_jump\n"
        rows = np.loadtxt(grid, delimiter=",", skiprows=1)
        assert rows.shape == (15, 6)
        np.testing.assert_array_equal(rows[:5, 1:], rows[5:10, 1:])
        np.testing.assert_array_equal(rows[:5, 1:], rows[10:, 1:])
        assert rows[0, 2:].tolist() == [1.2000000000000002, 0.0, 0.0, 1.2000000000000002]


class TestTransformCommands:
    def test_wishart_transform_report(self, tmp_path, measure_file, gamma0_file):
        cfile = write(tmp_path / "c.cfg", "c = [[0.5, 0.1], [0.0, 0.3]]\n")
        out = tmp_path / "report.json"
        rc = main(["wishart", "transform", "--measure", measure_file,
                   "--gamma0", gamma0_file, "--c", cfile,
                   "--times", "0.5,1.0", "--paths", "4000", "--seed", "2",
                   "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert len(rep["entries"]) == 2
        for entry in rep["entries"]:
            assert abs(entry["z_score"]) <= 5.0
            assert 0.0 < entry["analytic"] <= 1.0

    def test_transform_laplace(self, tmp_path, jump_model_file):
        ufile = write(tmp_path / "u.cfg", "u = [[-1.0]]\n")
        out = tmp_path / "lap.json"
        rc = main(["transform", "laplace", "--model", jump_model_file,
                   "--u", ufile, "--t", "0.5,1.0", "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert len(rep["entries"]) == 2
        for entry in rep["entries"]:
            assert entry["route_rel_gap"] <= 1e-2

    def test_transform_laplace_one_call_keeps_the_order(self, tmp_path, jump_model_file,
                                                        monkeypatch):
        # unsorted with a duplicate: one solve for every --t, and the entries
        # follow the list, each equal to its own one-t run
        import mvolt.cli as cli_mod

        calls = []
        solve = cli_mod.laplace_transform_jump

        def counted(*args, **kwargs):
            calls.append(args[4])
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "laplace_transform_jump", counted)
        ufile = write(tmp_path / "u.cfg", "u = [[-1.0]]\n")
        out = tmp_path / "lap.json"

        def entries(times):
            assert main(["transform", "laplace", "--model", jump_model_file,
                         "--u", ufile, "--t", times, "--out", str(out)]) == 0
            return json.loads(out.read_text())["entries"]

        got = entries("1.0,0.25,0.5,0.25")
        assert calls == [[1.0, 0.25, 0.5, 0.25]]
        assert [e["t"] for e in got] == [1.0, 0.25, 0.5, 0.25]
        assert got[1] == got[3]
        for entry in got:
            [want] = entries(repr(entry["t"]))
            for key in ("lift_value", "volterra_value"):
                assert entry[key] == pytest.approx(want[key], rel=1e-14, abs=0.0)

    def test_transform_laplace_tiny_t(self, tmp_path, jump_model_file):
        # t / --riccati-steps = 2.5e-303: a valid time, not a divergence
        ufile = write(tmp_path / "u.cfg", "u = [[-1.0]]\n")
        out = tmp_path / "lap.json"
        assert main(["transform", "laplace", "--model", jump_model_file,
                     "--u", ufile, "--t", "1e-300", "--out", str(out)]) == 0
        [entry] = json.loads(out.read_text())["entries"]
        assert entry["lift_value"] == pytest.approx(np.exp(-1.0), rel=1e-15)
        assert entry["volterra_value"] == pytest.approx(np.exp(-1.0), rel=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("u, times, message", [
        ("[[-1.0]]", "inf", "error: transform time t must be positive and finite, got inf"),
        ("[[-1.0]]", "nan", "error: transform time t must be positive and finite, got nan"),
        ("[[-1.0]]", "0.5,0", "error: transform time t must be positive and finite, got 0.0"),
        ("[[-1.0, 0.0]]", "0.5", "error: transform argument u must be 1 x 1, got shape (1, 2)"),
        ("[[-1e999]]", "0.5", "error: transform argument u must be finite"),
        ("[[-1.0]]", "", "config error: --t must list at least one time, got ''"),
        ("[[-1.0]]", ",", "config error: --t must list at least one time, got ','"),
    ], ids=["inf-t", "nan-t", "zero-t-after-a-good-one", "u-one-row", "inf-u", "empty-t",
            "no-t-in-the-list"])
    def test_transform_laplace_bad_u_or_t(self, tmp_path, capsys, jump_model_file,
                                          u, times, message):
        ufile = write(tmp_path / "u.cfg", f"u = {u}\n")
        out = tmp_path / "lap.json"
        rc = main(["transform", "laplace", "--model", jump_model_file,
                   "--u", ufile, "--t", times, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.strip().splitlines() == [message]
        assert not out.exists()

    @pytest.mark.parametrize("cmd", [
        ["transform", "laplace", "--u", "U", "--t", "0.5"],
        ["hawkes", "simulate", "--T", "1.0", "--paths", "4"],
    ], ids=["transform-laplace", "hawkes-simulate"])
    def test_non_finite_jump_atom_is_config_error(self, tmp_path, capsys, cmd):
        model = write(
            tmp_path / "m.cfg",
            "[measure]\nnodes = [1.0]\nweights = [[[0.4]]]\nd = 1\n"
            "[lambda0]\nweights = [[[1.0]]]\n"
            "[jumps]\natoms = [[[1e999]]]\nweights = [[[0.3]]]\nepsilon = 0.0\n",
        )
        ufile = write(tmp_path / "u.cfg", "u = [[-1.0]]\n")
        out = tmp_path / "out.txt"
        cmd = [ufile if arg == "U" else arg for arg in cmd]
        rc = main([*cmd, "--model", model, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"config error: {model}[jumps]: atom 0 must be finite"]
        assert not out.exists()

    @pytest.mark.parametrize("d, nu, lam0, message", [
        (1, 0.4, "[[[1e999]]]", "lam entries must be finite"),
        (2, 0.4, "[[[1.0, 0.2], [0.0, 1.0]]]", "lam matrices must be symmetric"),
        # this model used to run, with V < 0 on 28 % of the paths and a
        # transform that the paths do not match
        (1, -0.4, "[[[1.0]]]", "kernel weight 0 must be PSD, min eigenvalue -4.000e-01"),
    ], ids=["inf-lambda0", "non-symmetric-lambda0", "non-psd-kernel"])
    def test_bad_lambda0_is_rejected_by_both_commands(self, tmp_path, capsys, d, nu, lam0,
                                                      message):
        # transform laplace checks lambda0 as hawkes simulate does, before
        # either march
        eye = np.eye(d)
        model = write(
            tmp_path / "m.cfg",
            f"[measure]\nnodes = [1.0]\nweights = {[(nu * eye).tolist()]}\nd = {d}\n"
            f"[lambda0]\nweights = {lam0}\n"
            f"[jumps]\natoms = {[eye.tolist()]}\nweights = {[eye.tolist()]}\n")
        ufile = write(tmp_path / "u.cfg", f"u = {(-eye).tolist()}\n")
        for cmd in (["transform", "laplace", "--u", ufile, "--t", "1.0"],
                    ["hawkes", "simulate", "--T", "1.0", "--paths", "4"]):
            out = tmp_path / "out.txt"
            rc = main([*cmd, "--model", model, "--out", str(out)])
            assert rc == 2
            assert capsys.readouterr().err.strip().splitlines() == [
                f"config error: {model}: {message}"]
            assert not out.exists()

    @pytest.mark.parametrize("kernel, lam0, message", [
        ("[[[-0.4]]]", "nodes = [1.0]\nweights = [[[1.0]]]\n",
         "error: kernel weight 0 must be PSD, min eigenvalue -4.000e-01"),
        ("[[[0.4]]]", "nodes = [100.0]\nweights = [[[1.0]]]\n",
         "config error: {lam0}: node data and measure must share the same nodes"),
    ], ids=["non-psd-kernel", "other-nodes"])
    def test_hawkes_preset_checks_the_kernel_and_lambda0_nodes(
            self, tmp_path, capsys, kernel, lam0, message):
        # both used to exit 0
        measure = write(tmp_path / "m.cfg", f"nodes = [1.0]\nweights = {kernel}\n")
        lam0 = write(tmp_path / "l.cfg", lam0)
        out = tmp_path / "ev.csv"
        rc = main(["hawkes", "simulate", "--measure", measure, "--lambda0", lam0,
                   "--T", "1.0", "--paths", "4", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.strip().splitlines() == [message.format(lam0=lam0)]
        assert not out.exists()

    def test_transform_charfn(self, tmp_path, heston_model_file):
        out = tmp_path / "cf.json"
        rc = main(["transform", "charfn", "--model", heston_model_file,
                   "--v", "1.0,0.0,0.0,1.0", "--t", "1.0", "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert len(rep["entries"]) == 2
        for entry in rep["entries"]:
            assert entry["modulus"] <= 1.0 + 1e-9

    @pytest.mark.parametrize("flags, message", [
        (["--t", "-1"], "got t = -1.0, n_steps = 400"),
        (["--t", "nan"], "got t = nan, n_steps = 400"),
        (["--t", "1.0", "--riccati-steps", "0"], "got t = 1.0, n_steps = 0"),
    ], ids=["negative-t", "nan-t", "no-steps"])
    def test_transform_charfn_bad_t_or_steps(self, tmp_path, capsys, heston_model_file,
                                             flags, message):
        out = tmp_path / "cf.json"
        rc = main(["transform", "charfn", "--model", heston_model_file,
                   "--v", "1.0,0.0", *flags, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: need 0 <= t < inf and n_steps >= 1, {message}"]
        assert not out.exists()

    def test_numerical_failure_exit_three(self, tmp_path, capsys):
        # V explodes at rate 2 nu = 1e4: the lift Riccati solution is about
        # -e^(9999 t), still finite at t = 0.07 (-1e304) and past the float
        # range at t = 0.0710, so the step to t = 0.08 overflows; the CLI must
        # say so in one line, not in a traceback with the exit code of a
        # failed check
        model = write(
            tmp_path / "explosive.cfg",
            "[measure]\nnodes = [1.0]\nweights = [[[5000.0]]]\nd = 1\n"
            "[lambda0]\nweights = [[[1.0]]]\n"
            "[jumps]\natoms = [[[1.0]]]\nweights = [[[0.3]]]\nepsilon = 0.0\n",
        )
        u = write(tmp_path / "u.cfg", "u = [[-1.0]]\n")
        out = tmp_path / "lap.json"
        rc = main(["transform", "laplace", "--model", model, "--u", u,
                   "--t", "0.1", "--riccati-steps", "10", "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["numerical failure: lift Riccati diverged before t = 0.08"]
        assert not out.exists()

    @pytest.mark.parametrize("times, before", [
        ("0.05,0.1", "0.08"),         # the first t converges
        ("0.3,0.1", "0.09"),          # the later t diverges at an earlier grid time
        ("0.05,0.3,0.1", "0.09"),
        ("0.1,0.3", "0.08"),
    ])
    def test_divergence_names_the_first_t_in_order(self, tmp_path, capsys, times, before):
        # the model of test_numerical_failure_exit_three on 10 steps per t:
        # the line is the one of the first --t whose march diverges
        model = write(
            tmp_path / "explosive.cfg",
            "[measure]\nnodes = [1.0]\nweights = [[[5000.0]]]\nd = 1\n"
            "[lambda0]\nweights = [[[1.0]]]\n"
            "[jumps]\natoms = [[[1.0]]]\nweights = [[[0.3]]]\nepsilon = 0.0\n",
        )
        u = write(tmp_path / "u.cfg", "u = [[-1.0]]\n")
        rc = main(["transform", "laplace", "--model", model, "--u", u,
                   "--t", times, "--riccati-steps", "10", "--out", str(tmp_path / "o")])
        assert rc == 3
        assert capsys.readouterr().err.strip().splitlines() == [
            f"numerical failure: lift Riccati diverged before t = {before}"]

    def test_mc_numerical_failure_exit_three(self, tmp_path, capsys):
        # jump rates of order 1e7 push the per-step Poisson inversion past
        # its 1000 levels inside the MC block; run_path_blocks keeps the type and
        # names the seed and the block, so the CLI reports one line
        model = write(
            tmp_path / "runaway.cfg",
            "[measure]\nnodes = [0.5, 2.0]\n"
            "weights = [[[0.1, 0.02], [0.02, 0.08]], "
            "[[0.06, -0.01], [-0.01, 0.09]]]\nd = 2\n"
            "[gamma0]\nweights = [[[0.1, 0.0], [0.0, 0.1]], "
            "[[0.05, 0.02], [0.0, 0.1]]]\n"
            "[price]\nrho = [-0.5, 0.0]\np0 = [0.0, 0.0]\n"
            "jump_atoms = [[0.05, -0.02]]\n"
            "jump_weights = [[[1e7, 0], [0, 1e7]]]\n",
        )
        out = tmp_path / "paths.csv"
        rc = main(["heston", "simulate", "--model", model, "--T", "1.0",
                   "--steps", "2", "--paths", "4", "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["numerical failure: Poisson inversion runaway "
                       "(rate too large) on paths [0, 4) (seed 0)"]
        assert not out.exists()

    def test_runaway_thinning_exit_three(self, tmp_path, capsys):
        # node 0.5 with weight 200 grows the rate by about e^100 over one
        # control interval of 0.25; the dominating rate of 1.2e44 would make
        # thinning crawl forever, so the first interval stops the run and
        # the message names the one-path block that replays it
        model = write(
            tmp_path / "runaway.cfg",
            "[measure]\nnodes = [0.5, 3.0]\nweights = [[[200.0]], [[1.0]]]\nd = 1\n"
            "[lambda0]\nweights = [[[1.0]], [[1.0]]]\n"
            "[jumps]\natoms = [[[1.0]]]\nweights = [[[1.0]]]\nepsilon = 0.0\n",
        )
        out = tmp_path / "events.csv"
        start = time.perf_counter()
        rc = main(["hawkes", "simulate", "--model", model, "--T", "10.0",
                   "--thinning-dt", "0.25", "--paths", "3", "--seed", "5",
                   "--out", str(out)])
        assert time.perf_counter() - start < 10.0
        assert rc == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("numerical failure: runaway thinning at t = 0: ")
        assert err[0].endswith("on paths [0, 1) (seed 5)")
        assert not out.exists()
        from mvolt.configio import read_jump_model
        from mvolt.jumps import HawkesPathSimulator

        sim = HawkesPathSimulator(*read_jump_model(model), 10.0, 0.25)
        with pytest.raises(FloatingPointError) as replay:
            sim.block(5, 0, 1)
        assert f"numerical failure: {replay.value}" == err[0]

    def test_singular_solve_exit_three(self, tmp_path, capsys, monkeypatch):
        # LinAlgError is a ValueError; it must still exit 3, not 2
        import mvolt.cli as cli_mod

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cli_mod, "laplace_transform_jump", singular)
        model = write(
            tmp_path / "m.cfg",
            "[measure]\nnodes = [1.0]\nweights = [[[0.4]]]\nd = 1\n"
            "[lambda0]\nweights = [[[1.0]]]\n"
            "[jumps]\natoms = [[[1.0]]]\nweights = [[[0.3]]]\nepsilon = 0.0\n",
        )
        u = write(tmp_path / "u.cfg", "u = [[-1.0]]\n")
        out = tmp_path / "lap.json"
        rc = main(["transform", "laplace", "--model", model, "--u", u,
                   "--t", "0.5", "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["numerical failure: Singular matrix"]
        assert not out.exists()

    @pytest.mark.parametrize("asset", ["2", "-1"])
    def test_heston_price_asset_out_of_range(self, tmp_path, capsys, monkeypatch,
                                             heston_model_file, asset):
        # checked before the Monte Carlo runs; -1 would price the last asset
        import mvolt.cli as cli_mod

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before checking --asset")

        monkeypatch.setattr(cli_mod, "simulate_heston_terminal", no_simulation)
        out = tmp_path / "price.csv"
        rc = main(["heston", "price", "--model", heston_model_file,
                   "--asset", asset, "--strikes", "1.0", "--maturity", "1.0",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: asset must lie in [0, 2), got {asset}"]
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--strikes=-1.0"], "error: strike must be positive and finite, got -1.0"),
        (["--strikes", "1.0,nan"], "error: strike must be positive and finite, got nan"),
        (["--strikes", "inf"], "error: strike must be positive and finite, got inf"),
        (["--strikes", ""], "error: strike must be a float or a non-empty 1-D ladder"),
        (["--strikes", "1.0", "--alpha", "0"],
         "error: damping alpha must be positive and finite, got 0.0"),
        (["--strikes", "1.0", "--alpha", "nan"],
         "error: damping alpha must be positive and finite, got nan"),
        (["--strikes", "1.0", "--alpha", "200"],
         "error: damping alpha = 200.0 is outside the finite-moment strip"),
        # the strip probe is the moment E[exp(30 P_0)], whose Riccati has its
        # pole at t ~ 0.708; the doubling over [0.5, 1] catches it
        (["--strikes", "1.0", "--alpha", "29", "--riccati-steps", "3"],
         "error: damping alpha = 29.0 is outside the finite-moment strip (joint "
         "Riccati blow-up before t = 1 (det X turned by 3.14 rad"),
    ], ids=["negative", "nan", "inf", "empty", "alpha-zero", "alpha-nan", "alpha-strip",
            "alpha-moment-pole"])
    def test_heston_price_bad_strike_or_damping(self, tmp_path, capsys, monkeypatch,
                                                heston_model_file, flags, message):
        # checked before the Monte Carlo runs
        import mvolt.cli as cli_mod

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before checking --strikes and --alpha")

        monkeypatch.setattr(cli_mod, "simulate_heston_terminal", no_simulation)
        out = tmp_path / "price.csv"
        rc = main(["heston", "price", "--model", heston_model_file, *flags,
                   "--maturity", "1.0", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("maturity", ["0", "-1", "nan", "inf"])
    def test_heston_price_bad_maturity(self, tmp_path, capsys, monkeypatch,
                                       heston_model_file, maturity):
        # maturity 0 priced a call at the money at 0.00159 instead of 0, and
        # -1, nan and inf failed in the Riccati solve with a message on t
        import mvolt.cli as cli_mod

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before checking --maturity")

        monkeypatch.setattr(cli_mod, "simulate_heston_terminal", no_simulation)
        out = tmp_path / "price.csv"
        rc = main(["heston", "price", "--model", heston_model_file, "--strikes", "0.9,1.0,1.1",
                   f"--maturity={maturity}", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: maturity must be positive and finite, got {float(maturity)}"]
        assert not out.exists()

    def test_heston_price_csv(self, tmp_path, heston_model_file, monkeypatch):
        import mvolt.heston as heston_mod

        solves = []
        solve = heston_mod.solve_joint_riccati_heston

        def counting(*args, **kwargs):
            solves.append(args[0].shape)
            return solve(*args, **kwargs)

        monkeypatch.setattr(heston_mod, "solve_joint_riccati_heston", counting)
        out = tmp_path / "price.csv"
        rc = main(["heston", "price", "--model", heston_model_file,
                   "--strikes", "0.9,1.0,1.1", "--maturity", "1.0",
                   "--paths", "4000", "--steps", "64", "--seed", "4",
                   "--out", str(out)])
        assert rc == 0
        assert len(solves) == 1  # one joint Riccati solve for the whole ladder
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ("strike,maturity,fourier_price,truncation_error,"
                            "mc_price,mc_stderr")
        assert len(lines) == 4
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert np.all(rows[:, 3] >= 0.0) and np.all(np.isfinite(rows[:, 3]))


class TestValidate:
    def test_empty_check_list(self, tmp_path):
        cfg = write(tmp_path / "v.cfg", "[validate]\nchecks = []\n")
        out = tmp_path / "rep.json"
        rc = main(["validate", "--config", cfg, "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["checks"] == []
        assert rep["passed"] is True

    def test_smoke_checks_pass(self, tmp_path):
        cfg = write(
            tmp_path / "v.cfg",
            "[validate]\n"
            "checks = ['wishart_scalar', 'resolvent_identity']\n"
            "paths = 4000\nseed = 5\n",
        )
        out = tmp_path / "rep.json"
        rc = main(["validate", "--config", cfg, "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["passed"] is True

    def test_unknown_check_is_config_error(self, tmp_path):
        cfg = write(tmp_path / "v.cfg", "[validate]\nchecks = ['nope']\n")
        rc = main(["validate", "--config", cfg, "--out", str(tmp_path / "r.json")])
        assert rc == 2

    def test_workers_do_not_change_report(self, tmp_path):
        cfg = write(
            tmp_path / "v.cfg",
            "[validate]\nchecks = ['wishart_scalar']\npaths = 2000\nseed = 6\n",
        )
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["validate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["validate", "--config", cfg, "--out", str(out2),
                     "--workers", "4"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_rerun_byte_identical(self, tmp_path, measure_file, gamma0_file):
        cfile = write(tmp_path / "c.cfg", "c = [[0.5, 0.1], [0.0, 0.3]]\n")
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"rep_{tag}.json"
            rc = main(["wishart", "transform", "--measure", measure_file,
                       "--gamma0", gamma0_file, "--c", cfile,
                       "--times", "0.5", "--paths", "2000", "--seed", "7",
                       "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def test_validate_run_output_sections(tmp_path):
    cfg = write(
        tmp_path / "v.cfg",
        "[validate]\nchecks = ['wishart_scalar']\n"
        "[run]\npaths = 2000\nseed = 8\nworkers = 1\n"
        f"[output]\njson = '{tmp_path / 'sect.json'}'\n",
    )
    rc = main(["validate", "--config", cfg])
    assert rc == 0
    rep = json.loads((tmp_path / "sect.json").read_text())
    assert rep["passed"] is True
    assert rep["checks"][0]["n_paths"] == 2000


@pytest.mark.parametrize("section, key", [("run", "workers"), ("run", "paths"),
                                          ("run", "seed"), ("validate", "paths")])
@pytest.mark.parametrize("value", ["{1: 2}", "2.5", "'x'", "[3]", "True"])
def test_validate_run_numbers_are_config_errors(tmp_path, capsys, section, key, value):
    # a run number that is not a whole number used to reach int() and end
    # in a TypeError traceback with exit 1
    # a repeated [validate] header adds to the same section
    cfg = write(tmp_path / "v.cfg", f"[validate]\nchecks = ['resolvent_identity']\n"
                                    f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "r.json"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 2
    where = "[run]" if section == "run" else ""
    assert capsys.readouterr().err.strip().splitlines() == [
        f"config error: {cfg}{where}: field {key!r} must be a whole number, got {value}"]
    assert not out.exists()


def test_validate_check_names_must_be_strings(tmp_path, capsys):
    cfg = write(tmp_path / "v.cfg", "[validate]\nchecks = [{1: 2}]\n")
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_validate_failing_check_exit_one(tmp_path, monkeypatch):
    import mvolt.cli as cli_mod

    def failing_check(**kwargs):
        return {"name": "stub", "passed": False, "max_abs_z": 9.9}

    monkeypatch.setitem(cli_mod.CHECKS, "stub", failing_check)
    cfg = write(tmp_path / "v.cfg", "[validate]\nchecks = ['stub']\n")
    out = tmp_path / "rep.json"
    rc = main(["validate", "--config", cfg, "--out", str(out)])
    assert rc == 1
    rep = json.loads(out.read_text())  # report written despite the failure
    assert rep["passed"] is False


TIME_FLAGS = {
    "kernel-fit-tmin": ["kernel", "fit", "--hurst", "{hurst}", "--nodes", "4", "--tmax", "10",
                        "--tmin"],
    "kernel-fit-tmax": ["kernel", "fit", "--hurst", "{hurst}", "--nodes", "4", "--tmin", "1e-3",
                        "--tmax"],
    "heston-simulate-T": ["heston", "simulate", "--model", "{heston}", "--paths", "4", "--T"],
    "heston-price-maturity": ["heston", "price", "--model", "{heston}", "--strikes", "1.0",
                              "--paths", "4", "--maturity"],
    "ou-simulate-dt": ["ou", "simulate", "--measure", "{measure}", "--gamma0", "{gamma0}",
                       "--steps", "2", "--paths", "4", "--dt"],
    "wishart-simulate-dt": ["wishart", "simulate", "--measure", "{measure}",
                            "--gamma0", "{gamma0}", "--steps", "2", "--paths", "4", "--dt"],
    "wishart-transform-times": ["wishart", "transform", "--measure", "{measure}",
                                "--gamma0", "{gamma0}", "--c", "{c}", "--paths", "4",
                                "--times"],
    "transform-laplace-t": ["transform", "laplace", "--model", "{jump}", "--u", "{u}", "--t"],
    "transform-charfn-t": ["transform", "charfn", "--model", "{heston}", "--v", "1.0,0.0",
                           "--t"],
    "heston-charfn-t": ["heston", "charfn", "--model", "{heston}", "--v", "1.0,0.0", "--t"],
    "hawkes-simulate-T": ["hawkes", "simulate", "--model", "{jump}", "--paths", "4", "--T"],
    "hawkes-simulate-thinning-dt": ["hawkes", "simulate", "--model", "{jump}", "--paths", "4",
                                    "--T", "1.0", "--thinning-dt"],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", sorted(TIME_FLAGS))
def test_non_finite_time_exits_two_with_one_line(tmp_path, capsys, measure_file, gamma0_file,
                                                 heston_model_file, jump_model_file, flag,
                                                 value):
    # heston simulate ended as a numerical failure (nan) or after a NumPy
    # warning (inf), ou / wishart simulate warned before their error, and
    # wishart transform --times inf wrote a report with "t": Infinity
    files = {"measure": measure_file, "gamma0": gamma0_file, "heston": heston_model_file,
             "jump": jump_model_file,
             "c": write(tmp_path / "c.cfg", "c = [[0.5, 0.0], [0.0, 0.5]]\n"),
             "u": write(tmp_path / "u.cfg", "u = [[-1.0]]\n"),
             "hurst": write(tmp_path / "h.cfg", "hurst = [[0.25]]\n")}
    argv = [arg.format(**files) for arg in TIME_FLAGS[flag]]
    out = tmp_path / "out.txt"
    assert main([*argv, value, "--out", str(out)]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not out.exists()


HESTON_ARGS = {
    "heston-charfn-v": ["heston", "charfn", "--model", "{heston}", "--t", "1.0", "--v"],
    "transform-charfn-v": ["transform", "charfn", "--model", "{heston}", "--t", "1.0", "--v"],
    "heston-simulate-T": TIME_FLAGS["heston-simulate-T"],
    "heston-price-maturity": TIME_FLAGS["heston-price-maturity"],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag, value", [
    *[(flag, v) for flag in ("heston-charfn-v", "transform-charfn-v")
      for v in ("nan,1.0", "inf,1.0")],
    *[(flag, t) for flag in ("heston-simulate-T", "heston-price-maturity")
      for t in ("nan", "0", "-1")],
])
def test_bad_heston_argument_exits_two_with_one_line(tmp_path, capsys, heston_model_file,
                                                     flag, value):
    # --v nan or inf exited 3 as a Riccati blow-up after a NumPy warning, and
    # --T or --maturity of 0 or -1 failed with "step size must be positive";
    # heston price checks the maturity before its Riccati solve and the
    # simulation
    argv = [arg.format(heston=heston_model_file) for arg in HESTON_ARGS[flag]]
    out = tmp_path / "out.txt"
    assert main([*argv, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    name = {"heston-simulate-T": "horizon T must be positive and finite",
            "heston-price-maturity": "error: maturity must be positive and finite"}.get(
                flag, "transform argument w must be finite")
    assert name in err[0], err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("start, alpha, message", [
    (30.0, "3", "finite-moment strip"),
    (10.0, "1.5", "no-arbitrage bounds"),
], ids=["strip-probe-overflow", "price-out-of-bounds"])
def test_bad_damping_price_exits_two_with_one_line(tmp_path, capsys, start, alpha, message):
    # the strip probe overflowed with a NumPy warning before its error, and
    # a price of 2.1e26 for a call worth at most 1 was written with exit 0
    rows = ", ".join([f"[[{start}], [{start}]]"] * 2)
    model = write(tmp_path / "strong.cfg",
                  "[measure]\nnodes = [0.5, 3.0]\nweights = [[[0.83]], [[0.007]]]\nd = 1\n"
                  f"[gamma0]\nweights = [{rows}]\n[price]\nrho = [0.0]\np0 = [0.0]\n")
    out = tmp_path / "out.txt"
    assert main(["heston", "price", "--model", model, "--strikes", "1.0", "--maturity",
                 "0.05", "--alpha", alpha, "--paths", "4", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0] and "retry with a smaller alpha" in err[0], err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag", ["heston-simulate-T", "heston-price-maturity"])
def test_overflowing_finite_time_exits_three_with_one_line(tmp_path, capsys,
                                                          heston_model_file, flag):
    # heston simulate --T 1e308 --steps 2 wrote prices near -5.6e305 after an
    # overflow warning; heston price --maturity 1e308 ended in an
    # OverflowError traceback
    argv = [arg.format(heston=heston_model_file) for arg in TIME_FLAGS[flag]]
    out = tmp_path / "out.txt"
    assert main([*argv, "1e308", "--steps", "2", "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ")
    assert "overflows" in err[0]
    assert not out.exists()


def test_hawkes_requires_model_or_measure(tmp_path):
    rc = main(["hawkes", "simulate", "--T", "1.0", "--paths", "1",
               "--out", str(tmp_path / "e.csv")])
    assert rc == 2


def test_readme_cli_examples_parse():
    # every ``mvolt`` line of README.md's CLI block, continuation lines
    # joined, parses with the CLI's own parser; nothing is run
    block = README.read_text().split("## CLI", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    examples = [line.split()[1:] for line in lines if line.startswith("mvolt ")]
    assert len(examples) >= 12
    parser = build_parser()
    for argv in examples:
        try:
            _, unknown = parser.parse_known_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: mvolt {' '.join(argv)}")
        assert unknown == [], f"mvolt {' '.join(argv)}: unknown arguments {unknown}"
