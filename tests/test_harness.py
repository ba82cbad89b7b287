import json
import math

import numpy as np
import pytest

from boundbench.activations import huberized, swish
from boundbench.cli import main as cli_main
from boundbench.harness import (
    ConfigError,
    build_small_loss_init,
    parse_config,
    run,
    warmup,
)
from boundbench.linalg import WeightStack
from boundbench.network import Dataset, total_loss
from boundbench.ntk import (
    ClusteredDataSpec,
    InitSpec,
    NumericalDivergenceError,
    gaussian_init,
    make_clustered_dataset,
)


def minimal_config(**overrides):
    doc = {
        "mode": "theorem31",
        "network": {"p": 4, "L": 1, "activation": "huberized", "h": "auto"},
        "data": {"clustered": {"r": 0.05, "n": 3}},
        "optimizer": {"alpha": "auto", "Q": "auto", "max_steps": 50},
        "init": {"warmup_steps": 1500, "warmup_alpha": 0.5, "target_loss": "auto"},
        "seeds": {"init": 0, "data": 1, "probes": 2},
        "output": {"dir": None},
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# config parsing


def test_parse_minimal_theorem31_config():
    config = parse_config(minimal_config())
    assert config.mode == "theorem31"
    assert config.network["h"] == "auto"
    assert config.optimizer["alpha"] == "auto"


def test_parse_rejects_negative_width():
    doc = minimal_config(network={"p": -4, "L": 1})
    with pytest.raises(ConfigError, match="network.p"):
        parse_config(doc)


def test_parse_rejects_unknown_keys():
    doc = minimal_config()
    doc["network"]["hh"] = 0.1
    with pytest.raises(ConfigError, match="hh"):
        parse_config(doc)


def test_parse_rejects_conflicting_data_sources():
    doc = minimal_config(
        data={
            "clustered": {"r": 0.05, "n": 3},
            "inline": {"p": 4, "samples": []},
        }
    )
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(doc)


def test_parse_round_trip_is_identity():
    config = parse_config(minimal_config())
    canonical = config.to_json_dict()
    again = parse_config(json.dumps(canonical))
    assert again.to_json_dict() == canonical
    assert again == config


def test_parse_validates_mode_and_seeds():
    with pytest.raises(ConfigError, match="mode"):
        parse_config(minimal_config(mode="theorem99"))
    with pytest.raises(ConfigError, match="seeds.init"):
        parse_config(minimal_config(seeds={"init": "zero"}))


# ---------------------------------------------------------------------------
# warmup


def test_warmup_zero_steps_is_identity():
    V0 = gaussian_init(InitSpec(p=4, L=1, seed=1))
    data = make_clustered_dataset(
        ClusteredDataSpec(mu=np.eye(4)[0], r=0.0, n=2, seed=2)
    )
    V, _ = warmup(V0, huberized(0.1), data, steps=0, alpha=0.5)
    for a, b in zip(V0.layers(), V.layers()):
        np.testing.assert_array_equal(a, b)


def test_warmup_separates_two_point_clusters_for_most_seeds():
    # the smooth activation keeps every path trainable; a Huberized warmup
    # can hit dead pre-activations on unlucky seeds, which is why the
    # orchestrator retries with derived seeds
    successes = 0
    for seed in range(10):
        rng = np.random.default_rng(500 + seed)
        mu = rng.standard_normal(4)
        data = make_clustered_dataset(ClusteredDataSpec(mu=mu, r=0.05, n=2, seed=600 + seed))
        V0 = gaussian_init(InitSpec(p=4, L=1, seed=seed))
        _, ok = warmup(V0, swish(0.5), data, steps=500, alpha=0.5)
        successes += ok
    assert successes >= 9


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_warmup_aborts_on_divergence():
    huge = WeightStack(hidden=(np.full((2, 2), 1e200),), outer=np.full((1, 2), 1e200))
    data = Dataset(inputs=np.eye(2), labels=np.array([1.0, -1.0]))
    with pytest.raises(NumericalDivergenceError):
        warmup(huge, huberized(0.5), data, steps=2, alpha=0.1)


# ---------------------------------------------------------------------------
# small-loss initialization


@pytest.fixture()
def warm_state():
    rng = np.random.default_rng(1)
    mu = rng.standard_normal(4)
    data = make_clustered_dataset(ClusteredDataSpec(mu=mu, r=0.05, n=3, seed=1))
    V0 = gaussian_init(InitSpec(p=4, L=1, seed=0))
    act = huberized(0.1)
    V_warm, ok = warmup(V0, act, data, steps=2000, alpha=0.5)
    assert ok
    return V_warm, act, data


def test_small_loss_init_reaches_target_within_factor_two(warm_state):
    V_warm, act, data = warm_state
    target = 1e-10
    V1 = build_small_loss_init(V_warm, data, act, target)
    achieved = total_loss(V1, act, data).value
    assert achieved <= target
    assert achieved >= target / 2.0
    # only the outer row was touched
    for a, b in zip(V1.hidden, V_warm.hidden):
        np.testing.assert_array_equal(a, b)


def test_small_loss_init_noop_when_already_under_target(warm_state):
    V_warm, act, data = warm_state
    current = total_loss(V_warm, act, data).value
    V1 = build_small_loss_init(V_warm, data, act, min(0.9, current * 2))
    for a, b in zip(V1.layers(), V_warm.layers()):
        np.testing.assert_array_equal(a, b)


def test_small_loss_init_single_sample_closed_form():
    # one sample with margin m: loss(c) = log1p(exp(-c m)), solvable by hand
    V = WeightStack(hidden=(np.array([[2.0]]),), outer=np.array([[1.0]]))
    act = huberized(1.0)
    data = Dataset(inputs=np.array([[1.0]]), labels=np.array([1.0]))
    m = 1.5
    target = 1e-8
    V1 = build_small_loss_init(V, data, act, target)
    c = V1.outer[0, 0]
    assert math.log1p(math.exp(-c * m)) <= target
    assert c == pytest.approx(-math.log(math.expm1(target)) / m, rel=0.5)


def test_small_loss_init_rejects_misclassified_sample():
    V = WeightStack(hidden=(np.array([[2.0]]),), outer=np.array([[1.0]]))
    act = huberized(1.0)
    data = Dataset(inputs=np.array([[1.0]]), labels=np.array([-1.0]))
    with pytest.raises(ValueError, match="misclassifies"):
        build_small_loss_init(V, data, act, 1e-6)


def test_small_loss_init_rejects_zero_margin():
    V = WeightStack(hidden=(np.array([[-2.0]]),), outer=np.array([[1.0]]))
    act = huberized(1.0)  # negative pre-activation: f = 0 exactly
    data = Dataset(inputs=np.array([[1.0]]), labels=np.array([1.0]))
    with pytest.raises(ValueError, match="misclassifies"):
        build_small_loss_init(V, data, act, 1e-6)


# ---------------------------------------------------------------------------
# end-to-end runs


def test_theorem31_run_passes_and_writes_artifacts(tmp_path):
    config = parse_config(minimal_config())
    runlog, status = run(config, out_dir=tmp_path)
    assert status == 0
    assert not runlog.summary["failed"]
    assert len(runlog.records) == 50
    csv_text = (tmp_path / "trajectory.csv").read_text()
    assert len(csv_text.splitlines()) == 51
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["summary"]["invariants"]["i1"]["counts"]["fail"] == 0
    assert summary["config"]["mode"] == "theorem31"


def test_theorem31_negative_control_fails(tmp_path):
    base = parse_config(minimal_config())
    _, status = run(base)
    assert status == 0
    probe, _ = run(base)
    alpha_max = probe.config_echo["resolved"]["alpha_max"]
    bad = minimal_config()
    bad["optimizer"] = dict(bad["optimizer"], alpha=10 * alpha_max)
    runlog, status = run(parse_config(bad), out_dir=tmp_path)
    assert status == 1
    assert runlog.summary["invariants"]["i3"]["first_violation_step"] == 1


def test_theorem31_csv_deterministic(tmp_path):
    config = parse_config(minimal_config())
    run(config, out_dir=tmp_path / "a")
    run(config, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "trajectory.csv").read_bytes() == (
        tmp_path / "b" / "trajectory.csv"
    ).read_bytes()


def test_summary_recomputable_from_records():
    from boundbench.bounds import summarize

    config = parse_config(minimal_config())
    runlog, _ = run(config)
    recomputed = summarize(runlog.records)
    assert recomputed["invariants"] == runlog.summary["invariants"]


def test_summary_worst_slacks_recomputable_from_csv(tmp_path):
    # the trajectory file plus the echoed constants carry everything the
    # summary claims; floats round-trip through repr exactly
    import csv

    config = parse_config(minimal_config())
    runlog, _ = run(config, out_dir=tmp_path)
    with open(tmp_path / "trajectory.csv") as fh:
        rows = list(csv.DictReader(fh))
    worst_lower = min(
        (float(r["grad_norm"]) - float(r["lower_bound"])) / float(r["lower_bound"])
        for r in rows
    )
    worst_upper = min(
        (float(r["upper_bound"]) - float(r["grad_norm"])) / float(r["upper_bound"])
        for r in rows
    )
    inv = runlog.summary["invariants"]
    assert worst_lower == pytest.approx(inv["lower"]["worst_slack"], rel=1e-12)
    assert worst_upper == pytest.approx(inv["upper"]["worst_slack"], rel=1e-12)


def test_diagnostics_mode_reports_ranges(tmp_path):
    doc = {
        "mode": "diagnostics",
        "network": {"p": 512, "L": 1, "activation": "huberized", "h": "auto"},
        "data": {"clustered": {"r": 0.05, "n": 4}},
        "seeds": {"init": 0, "data": 1, "probes": 2},
        "output": {"dir": None},
    }
    runlog, status = run(parse_config(doc), out_dir=tmp_path)
    assert status == 0
    d = runlog.summary["diagnostics"]
    assert 0.8 <= d["post_activation_norm_min"] <= d["post_activation_norm_max"] <= 1.2
    assert json.loads((tmp_path / "summary.json").read_text())["summary"]["diagnostics"]


def test_property_suite_mode_passes():
    doc = {
        "mode": "property_suite",
        "network": {"p": 4, "L": 1},
        "data": {"clustered": {"r": 0.05, "n": 3}},
        "suite": {"instances": 10},
        "seeds": {"init": 0, "data": 1, "probes": 2},
        "output": {"dir": None},
    }
    runlog, status = run(parse_config(doc))
    assert status == 0
    assert all(runlog.summary["property_suite"].values())


def test_theorem32_mode_runs_with_overrides():
    doc = {
        "mode": "theorem32",
        "network": {"p": 32, "L": 1, "activation": "huberized", "h": "auto"},
        "data": {"clustered": {"r": 0.05, "n": 4}},
        "phase_plan": {
            "gamma": "estimate",
            "T_cap": 1500,
            "stop_loss": 0.05,
            "phase2_steps": 20,
            "alpha_phase2": 0.05,
        },
        "seeds": {"init": 3, "data": 4, "probes": 5},
        "output": {"dir": None},
    }
    runlog, status = run(parse_config(doc))
    assert status == 0
    assert runlog.phase_boundary is not None
    assert runlog.config_echo["gamma"] > 0
    phases = {rec.phase for rec in runlog.records}
    assert phases == {1, 2}


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(minimal_config()))
    status = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert status == 0
    assert (tmp_path / "out" / "trajectory.csv").exists()
    out = capsys.readouterr().out
    assert "i1" in out and "final loss" in out


def test_cli_seed_override_changes_data(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(minimal_config()))
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert cli_main(
        ["run", "--config", str(cfg_path), "--out", str(b), "--seed-override", "11"]
    ) == 0
    assert (a / "trajectory.csv").read_bytes() != (b / "trajectory.csv").read_bytes()


def test_cli_certify_activation(capsys):
    status = cli_main(["certify-activation", "--kind", "swish", "--h", "0.1"])
    assert status == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert doc["max_abs_deriv"] <= 1.0 + 1e-9


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(minimal_config(mode="nope")))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_diagnostics_subcommand(tmp_path, capsys):
    doc = {
        "mode": "diagnostics",
        "network": {"p": 300, "L": 1, "activation": "huberized", "h": "auto"},
        "data": {"clustered": {"r": 0.05, "n": 3}},
        "seeds": {"init": 0, "data": 1, "probes": 2},
        "output": {"dir": None},
    }
    cfg_path = tmp_path / "diag.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["diagnostics", "--config", str(cfg_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "post_activation_norm_min" in out


@pytest.mark.parametrize("mode", ["theorem32", "diagnostics"])
def test_cli_rejects_dataset_narrower_than_network(tmp_path, capsys, mode):
    samples = [{"x": [1.0, 0.0, 0.0, 0.0], "y": 1}, {"x": [0.0, 1.0, 0.0, 0.0], "y": -1}]
    doc = {
        "mode": mode,
        "network": {"p": 8, "L": 1, "activation": "huberized", "h": "auto"},
        "data": {"inline": {"p": 4, "samples": samples}},
        "output": {"dir": None},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert "network.p" in capsys.readouterr().err
