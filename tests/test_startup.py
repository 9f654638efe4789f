"""Start-up guard: the package and the commands that take no matrix
exponential load no SciPy module, and a serial run loads no process pool.

SciPy takes longer to import than these commands take to run, so each is
run in a fresh interpreter, where ``sys.modules`` shows what the import of
``mvolt`` and the command itself loaded.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent("""
    import json, sys
    from pathlib import Path

    import mvolt, mvolt.cli, mvolt.validate
    from mvolt.cli import main

    tmp = Path(sys.argv[1])
    files = {
        "hurst": "hurst = [[0.1, 0.2], [0.2, 0.3]]\\n",
        "measure": "nodes = [0.5, 2.0]\\n"
                   "weights = [[[0.1, 0.02], [0.02, 0.08]], [[0.06, -0.01], [-0.01, 0.09]]]\\n"
                   "d = 2\\n",
        "gamma0": "nodes = [0.5, 2.0]\\n"
                  "weights = [[[0.1, 0.0], [0.0, 0.1]], [[0.05, 0.02], [0.0, 0.1]]]\\n",
    }
    files["heston"] = ("[measure]\\n" + files["measure"] + "[gamma0]\\n"
                       + files["gamma0"].split("\\n", 1)[1]
                       + "[price]\\nrho = [-0.5, 0.0]\\np0 = [0.0, 0.0]\\n")
    for name, text in files.items():
        (tmp / name).write_text(text)
    lift = ["--measure", str(tmp / "measure"), "--gamma0", str(tmp / "gamma0"),
            "--dt", "0.25", "--steps", "4", "--paths", "3", "--seed", "1"]
    commands = [
        ["kernel", "fit", "--hurst", str(tmp / "hurst"), "--nodes", "10",
         "--tmin", "1e-3", "--tmax", "10", "--out", str(tmp / "fit")],
        ["kernel", "eval", "--measure", str(tmp / "fit"), "--times", "0,0.1,1",
         "--out", str(tmp / "k.csv")],
        ["ou", "simulate", *lift, "--out", str(tmp / "x.csv")],
        ["wishart", "simulate", *lift, "--out", str(tmp / "v.csv")],
        ["heston", "simulate", "--model", str(tmp / "heston"), "--T", "0.5",
         "--steps", "4", "--paths", "3", "--out", str(tmp / "s.csv")],
    ]
    codes = [main(cmd) for cmd in commands]
    print(json.dumps({"codes": codes,
                      "scipy": sorted(m for m in sys.modules
                                      if m == "scipy" or m.startswith("scipy.")),
                      "pool": sorted(m for m in sys.modules
                                     if m == "concurrent.futures.process"
                                     or m.split(".")[0] == "multiprocessing")}))
""")


def test_commands_without_expm_load_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["codes"] == [0] * 5
    assert got["scipy"] == []
    assert got["pool"] == []
    assert (tmp_path / "v.csv").read_text().startswith("path,t,V_11,")
