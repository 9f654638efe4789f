"""The mvolt benchmark: run one workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                   # every workload, untraced then traced

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.

Run it from the root of a checkout.  Each workload runs in its own process
(``workloads.py``) with BLAS and OpenMP pinned to one thread.  With one
workload the last line of standard output is its result JSON: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end with ``--trace 0``,
per layer with ``--trace 1``).  With all workloads each result is printed
under its name, with the tracing overhead (the median difference between
a traced round and the untraced round after it, in the traced run), and the
last line sums them.  Results and traces go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("rough_wishart_mc", "heston_pricing", "hawkes_lift")
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
# One workload, set-up-only processes included, must end within its run
# length plus this margin (the set-ups, the reference values, the last round).
TIMEOUT_MARGIN_S = 120
# Untraced, setup_s is the median over the workload process and
# SETUP_PROCESSES - 1 more that only set up: one process alone spreads by
# 13-30 % between runs, the median of five by 6-11 % (README.md).
SETUP_PROCESSES = 5
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _spawn(workload: str, seed: int, seconds: int, trace: int, deadline: float,
           *extra: str) -> list[str]:
    """Run ``workloads.py`` in a fresh process; returns its standard output lines.

    The process is stopped at ``deadline`` (``time.monotonic()``).
    """
    env = dict(os.environ, **{name: "1" for name in PINNED})
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(OUT_DIR), *extra, "--spawned-at", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"{workload}: no result within "
                           f"{seconds + TIMEOUT_MARGIN_S} s") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise RuntimeError(f"{workload}: workload process exited with {proc.returncode}")
    return proc.stdout.splitlines()


def run_workload(workload: str, seed: int, seconds: int, trace: int):
    """Run one workload; returns (detail, result) or raises RuntimeError."""
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + seconds + TIMEOUT_MARGIN_S
    lines = _spawn(workload, seed, seconds, trace, deadline)
    if len(lines) < 2 or not lines[-2].startswith("detail: "):
        sys.stderr.write("\n".join(lines) + "\n")
        raise RuntimeError(f"{workload}: workload process printed no result")
    for line in lines[:-2]:
        print(line)
    detail = json.loads(lines[-2][len("detail: "):])
    result = json.loads(lines[-1])
    if not trace:
        samples = [{"setup_s": result["metrics"]["setup_s"]["value"],
                    "setup_raw_s": detail["setup_raw_s"]}]
        for _ in range(SETUP_PROCESSES - 1):
            samples.append(json.loads(_spawn(workload, seed, seconds, trace, deadline,
                                             "--setup-only")[-1]))
        result["metrics"]["setup_s"]["value"] = statistics.median(
            sample["setup_s"] for sample in samples)
        detail["setup_samples"] = samples
    with open(OUT_DIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"detail": detail, "result": result}) + "\n")
    return detail, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mvolt benchmark")
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mvolt" / "__init__.py").is_file():
        print(f"error: no mvolt sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    try:
        if args.workload != "all":
            detail, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
            print("detail: " + json.dumps(detail))
            print(json.dumps(result))
            return 0

        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (0, 1):
                detail, result = run_workload(workload, args.seed, args.seconds, trace)
                print(f"== {workload} trace={trace}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      f"rounds={detail['rounds']}")
                for name, m in result["metrics"].items():
                    print(f"   {name} = {m['value']:.6g} {m['unit']}")
                for failure, count in detail["failures"].items():
                    print(f"   failed x{count}: {failure}")
                total["correct"] &= result["correct"]
                total["attempted"] += result["attempted"]
                total["failed"] += result["failed"]
                if trace:
                    print(f"   tracing overhead = {detail['overhead_s']:.4g} s per round "
                          f"({detail['overhead_share']:.1%}; {detail['traced_rounds']} "
                          f"traced of {detail['rounds']} rounds)")
                else:
                    for name, m in result["metrics"].items():
                        total["metrics"][f"{workload}.{name}"] = m
        print(json.dumps(total))
        return 0
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
