"""Benchmark of the steklov library and CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload single_graph --seed 0 --seconds 20 --trace 0

Workloads:
  single_graph     in-process `steklov bounds|spectrum|rigidity|harmonic` calls
                   on weighted grids, random combs and boundary-heavy graphs
  random_corpus    `verify_corpus` in random mode, n <= 30
  exhaustive_unit  `verify_corpus` over every unit-weight instance with n <= 6

With ``--trace 0`` the run starts WORKERS fresh processes one after another.
Each sets the workload up (timed as ``setup_s``), then runs ops in a closed
loop with one caller for its share of ``--seconds``; samples are pooled.  With
``--trace 1`` one process runs each op of a fixed, seed-determined list
untraced and traced, alternating the order, and reports per-layer counts and
self times.
Every output is checked against the reference in ``oracle.py``.

BLAS runs one thread in every workload, so both sides of a comparison get
the same setting.

A table goes to standard output, then a line with the environment stamp, then
the result as one JSON object on the last line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("single_graph", "random_corpus", "exhaustive_unit")
WORKERS = 4          # fresh processes per untraced run: set-up is measured in each
# One BLAS thread (never more than nproc) in every workload.  With two threads
# on a 2-vCPU machine, ops on matrices of a few hundred rows ran about twice
# as slow, and repeated runs of one op varied about twice as much.
BLAS_THREADS = 1
DEADLINE_S = 170.0


def blas_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before starting a worker")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=blas_env(), stdout=subprocess.PIPE, timeout=timeout,
        text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker {' '.join(args)} printed no result")
    return json.loads(lines[-1])


def check_stamps(results: list[dict]) -> list[str]:
    problems = []
    stamps = [r["stamp"] for r in results]
    if any(s != stamps[0] for s in stamps):
        problems.append("workers ran with different environments")
    for lib in stamps[0]["blas"]["loaded"]:
        if lib.get("threads") != BLAS_THREADS:
            problems.append(f"{lib['library']} runs {lib.get('threads')} threads, "
                            f"not {BLAS_THREADS}")
    return problems


def untraced(workload: str, seed: int, seconds: float, deadline: float):
    results = [
        run_worker(["--workload", workload, "--seed", str(seed),
                    "--share", str(seconds / WORKERS), "--worker", str(k)], deadline)
        for k in range(WORKERS)
    ]
    samples = [s for r in results for s in r["samples"]]
    deciles = statistics.quantiles(samples, n=10, method="inclusive") if len(samples) > 1 else samples * 9
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "op_p50_s": (statistics.median(samples), "s"),
        "op_tail_s": (deciles[-1], "s"),
        "instances_per_s": (sum(r["instances"] for r in results)
                            / sum(r["busy_s"] for r in results), "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
    }
    notes = {"samples": len(samples), "op_tail_s_quantile": 0.9,
             "setups_s": [r["setup_s"] for r in results]}
    return results, metrics, notes


def traced(workload: str, seed: int, deadline: float):
    result = run_worker(["--workload", workload, "--seed", str(seed), "--trace"], deadline)
    metrics = {name: tuple(value) for name, value in result["metrics"].items()}
    notes = {"ops": result["ops"], "untraced_wall_s": result["walls"]["untraced"],
             "traced_wall_s": result["walls"]["traced"],
             "self_time_sum_s": result["self_total_s"]}
    return [result], metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    deadline = monotonic() + DEADLINE_S
    try:
        if args.trace:
            results, metrics, notes = traced(args.workload, args.seed, deadline)
        else:
            results, metrics, notes = untraced(args.workload, args.seed, args.seconds, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [p for r in results for p in r["problems"]] + check_stamps(results)
    problems += [c for r in results for c in r.get("checks", [])]
    for problem in problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)

    print(f"{args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<44} {failed / max(attempted, 1):>14.6g} ratio"
          f"  ({failed} of {attempted} ops)")
    for name, value in notes.items():
        print(f"  {name:<44} {value}")
    print(json.dumps({"stamp": results[0]["stamp"]}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
