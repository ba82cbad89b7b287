"""The tracer wraps every listed function in every namespace, restores
them afterwards, and produces consistent spans: self time never exceeds a
span's duration, and a function's self time never exceeds its total."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spans
from boundbench import harness, linalg, network, ntk
from workloads import WORKLOADS, _quiet_cli

BENCH = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace")
    config = {
        "mode": "theorem31",
        "network": {"p": 4, "L": 2, "activation": "huberized", "h": "auto"},
        "data": {"clustered": {"r": 0.05, "n": 3}},
        "optimizer": {"max_steps": 50},
        "init": {"warmup_steps": 2000},
    }
    diag = {
        "mode": "diagnostics",
        "network": {"p": 256, "L": 2, "activation": "huberized", "h": "auto"},
        "data": {"clustered": {"r": 0.05, "n": 4}},
    }
    (tmp / "t31.json").write_text(json.dumps(config))
    (tmp / "diag.json").write_text(json.dumps(diag))
    originals = (network.loss_and_gradient, harness.loss_and_gradient, linalg.WeightStack.__post_init__)
    tracer = spans.Tracer().install()
    wrapped = (network.loss_and_gradient, harness.loss_and_gradient, ntk.loss_and_gradient)
    try:
        statuses = [
            _quiet_cli(["run", "--config", str(tmp / "t31.json"), "--out", str(tmp / "a")])[0],
            _quiet_cli(["diagnostics", "--config", str(tmp / "diag.json"), "--out", str(tmp / "b")])[0],
        ]
    finally:
        tracer.uninstall()
    tracer.write(tmp / "spans.npz")
    return tracer, originals, wrapped, statuses, tmp


def test_wrappers_cover_every_namespace_and_are_removed(traced):
    tracer, originals, wrapped, statuses, _ = traced
    assert statuses == [0, 0]
    assert wrapped[0] is wrapped[1] is wrapped[2] and wrapped[0] is not originals[0]
    assert network.loss_and_gradient is originals[0]
    assert harness.loss_and_gradient is originals[1]
    assert linalg.WeightStack.__post_init__ is originals[2]


def test_every_span_has_self_time_within_its_duration(traced):
    tracer, _, _, _, tmp = traced
    saved = np.load(tmp / "spans.npz")
    assert len(saved["fn"]) > 1000
    dur = saved["end"] - saved["start"]
    self_s = spans.self_times(saved["parent"], saved["start"], saved["end"])
    assert np.all(dur >= 0)
    assert np.all(self_s >= 0)
    assert np.all(self_s <= dur)
    has_parent = saved["parent"] >= 0
    parent = saved["parent"][has_parent]
    assert np.all(saved["start"][has_parent] >= saved["start"][parent])
    assert np.all(saved["end"][has_parent] <= saved["end"][parent])


def test_function_metrics(traced):
    tracer = traced[0]
    m = tracer.metrics()
    for name in (t[2] for t in spans.TARGETS):
        assert m[f"{name}.self_s"] <= m[f"{name}.total_s"] + 1e-12
    for name in ("cli.main", "harness.run", "network.loss_and_gradient", "linalg.operator_norm", "activations.value"):
        assert m[f"{name}.calls"] > 0
    assert m["cli.main.calls"] == 2 and m["harness.run.calls"] == 2
    assert m["linalg.operator_norm.calls"] == 2
    assert m[spans.ITERATIONS] >= 2


def test_nested_calls_of_one_function_count_once_in_total():
    # span 0 (f) contains span 1 (f) which contains span 2 (g)
    fn = np.array([0, 0, 1])
    parent = np.array([-1, 0, 1])
    outer = np.array([True, False, True])
    start = np.array([0.0, 1.0, 2.0])
    end = np.array([10.0, 5.0, 3.0])
    per = spans.per_function(fn, parent, outer, start, end, 2)
    assert list(per["calls"]) == [2, 1]
    assert list(per["total_s"]) == [10.0, 1.0]
    assert list(per["self_s"]) == [6.0 + 3.0, 1.0]


def test_metric_names_match_the_benchmark_definition():
    assert len(spans.METRICS) == len(set(spans.METRICS)) == 74
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(spans.METRICS)
    for m in spec["per_layer"]:
        assert m["unit"] == spans.UNITS[m["name"].rsplit(".", 1)[1]]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    sys.path.insert(0, str(BENCH))
    import run

    assert run.WORKLOADS == tuple(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    """In a copy holding only the benchmark, the command fails without a result."""
    bench = tmp_path / BENCH.name
    bench.mkdir()
    for f in BENCH.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((BENCH.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "diag-p2048", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
