"""boundbench benchmark: run one workload and print its metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every measurement happens in a fresh
worker process (`worker.py`) that imports the package from `src/`, builds
the workload's inputs from the seed, runs the program, and checks its
outputs. A run starts `SETUP_PROBES` processes that only set up, then
repeats rounds of one full worker (two with `--trace 1`: one plain and one
traced) while another round is expected to end within `--seconds`; at
least one round always runs.

The last line of standard output is one JSON object: `correct`,
`attempted` and `failed` (operations are the correctness checks), and
`metrics`. With `--trace 0` the metrics are the end-to-end medians over
rounds: `wall_s`, `setup_s`, `cpu_s`, `peak_rss_mb`. With `--trace 1` they
are the per-layer spans of the traced rounds plus `trace.overhead_s`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
WORKLOADS = ("t32-tangent-p512", "diag-p2048")
SETUP_PROBES = 5
# one BLAS thread: on a two-core machine a second thread shares its core
# with interrupts and neighbours, which widens the run-to-run spread
BLAS_THREADS = 1
DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    pass


def worker_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("BOUNDBENCH_THREADS", None)
    return env


def spawn(args, mode: str, tmp: Path, index: int, env: dict, deadline: float) -> dict:
    result = tmp / f"{mode}-{index}.json"
    workdir = tmp / f"work-{index}"
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--workdir", str(workdir),
        "--result", str(result),
        "--mode", mode,
    ]
    if mode == "trace":
        cmd += ["--spans", str(HERE / "results" / f"{args.workload}.spans.npz")]
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchmarkError("out of time before a worker could start")
    cmd += ["--spawned", repr(time.perf_counter())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=HERE, stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} worker exceeded the run deadline") from exc
    if proc.returncode != 0 or not result.is_file():
        raise BenchmarkError(f"{mode} worker exited with status {proc.returncode}")
    report = json.loads(result.read_text())
    shutil.rmtree(workdir, ignore_errors=True)
    return report


def run_rounds(args, tmp: Path, env: dict, deadline: float) -> tuple[list[dict], list[dict], list[float]]:
    setups = [spawn(args, "setup", tmp, i, env, deadline)["setup_s"] for i in range(SETUP_PROBES)]
    plain, traced = [], []
    started = time.perf_counter()
    last = 0.0
    while not plain or time.perf_counter() - started + last <= args.seconds:
        begun = time.perf_counter()
        index = SETUP_PROBES + len(plain)
        plain.append(spawn(args, "run", tmp, index, env, deadline))
        if args.trace:
            traced.append(spawn(args, "trace", tmp, index, env, deadline))
        last = time.perf_counter() - begun
    setups += [r["setup_s"] for r in plain + traced]
    return plain, traced, setups


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    src = HERE.parent / "src"
    if not (src / "boundbench" / "__init__.py").is_file():
        print(f"error: no boundbench package under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    tmp = results / f"tmp-{os.getpid()}"
    try:
        plain, traced, setups = run_rounds(args, tmp, worker_env(src), deadline)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    rounds = plain + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    worst: dict[str, float | None] = {}
    for r in rounds:
        for name, ok, slack in r["checks"]:
            if not ok:
                print(f"check failed: {name} (slack {slack})")
            worst[name] = slack if name not in worst or slack is None else min(worst[name], slack)
    for name, slack in worst.items():
        print(f"slack {name}: {'exact' if slack is None else f'{slack:.3e}'}")

    if args.trace:
        metrics = {
            name: metric(statistics.median(r["layers"][name] for r in traced), spans.UNITS[name.rsplit(".", 1)[1]])
            for name in spans.METRICS
            if name != spans.OVERHEAD
        }
        overhead = statistics.median(t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
        metrics[spans.OVERHEAD] = metric(overhead, "s")
    else:
        metrics = {
            "wall_s": metric(statistics.median(r["wall_s"] for r in plain), "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "cpu_s": metric(statistics.median(r["cpu_s"] for r in plain), "s"),
            "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        }
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
