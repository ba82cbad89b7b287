"""One fresh process of the benchmark: set up one workload and, unless
only set-up is measured, run it once, check its outputs and report.

    python3 worker.py --workload NAME --seed N --workdir DIR --result FILE
                      --spawned T --mode setup|run|trace [--spans FILE]

`--spawned` is the parent's `time.perf_counter()` just before it started
this process (the clock is system-wide), so `setup_s` covers interpreter
start, imports and input generation. The report is one JSON object written
to `--result`.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import traceback
from pathlib import Path


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    inputs = workload.prepare(args.seed, args.workdir)
    report: dict = {"setup_s": time.perf_counter() - args.spawned}
    if args.mode != "setup":
        report.update(measure(workload, inputs, args.mode == "trace", args.spans))
    args.result.write_text(json.dumps(report))


def measure(workload, inputs, traced: bool, spans_path: Path | None) -> dict:
    import spans

    tracer = spans.Tracer().install() if traced else None
    cpu0, wall0 = time.process_time(), time.perf_counter()
    outputs = None
    try:
        outputs = workload.execute(inputs)
    except Exception:
        traceback.print_exc()
    finally:
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
    found = []
    if outputs is not None:
        try:
            found = workload.verify(inputs, outputs)
        except Exception:
            traceback.print_exc()
    # a check list of the wrong length is a benchmark fault: fail the round
    passed = sum(c.ok for c in found) if len(found) == workload.n_checks else 0
    report = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": workload.n_checks,
        "failed": workload.n_checks - passed,
        "checks": [list(c) for c in found],
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
        if spans_path is not None:
            tracer.write(spans_path)
    return report


if __name__ == "__main__":
    main()
