import copy
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boundbench import harness, network, ntk
from boundbench.activations import huberized, swish
from boundbench.bounds import RunLog, resolve_context
from boundbench.cli import main as cli_main
from boundbench.harness import (
    ConfigError,
    build_dataset,
    build_small_loss_init,
    parse_config,
    run,
    warmup,
)
from boundbench.linalg import WeightStack
from boundbench.network import Dataset, LossValue, total_loss
from boundbench.ntk import (
    InitSpec,
    NumericalDivergenceError,
    RunAbortedError,
    gaussian_init,
    make_clustered_dataset,
)
from test_acceptance import INSTRUMENTED_TWO_PHASE_CONFIG, TWO_PHASE_CONFIG


def minimal_config(**overrides):
    doc = {
        "mode": "theorem31",
        "network": {"p": 4, "L": 1, "activation": "huberized", "h": "auto"},
        "data": {"clustered": {"r": 0.05, "n": 3}},
        "optimizer": {"alpha": "auto", "max_steps": 50},
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
    assert config["mode"] == "theorem31"
    assert config["network"]["h"] == "auto"
    assert config["optimizer"]["alpha"] == "auto"


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


_SHARED_SECTIONS = {
    "network": {"p": 4, "L": 1, "activation": "huberized", "h": "auto"},
    "data": {"clustered": {"r": 0.05, "n": 3, "mu": [1.0, 0.0, 0.0, 0.0]}},
    "seeds": {"init": 0, "data": 1, "probes": 2},
    "output": {"dir": "out", "csv": True, "json": True},
}
# one config per mode, each field of the shared and of the mode's own sections set
FULL_CONFIGS = {
    "theorem31": {
        "mode": "theorem31",
        **_SHARED_SECTIONS,
        "optimizer": {"alpha": "auto", "max_steps": 50, "loss_floor": 0.0},
        "init": {"warmup_steps": 1500, "warmup_alpha": 0.5, "target_loss": "auto", "warmup_retries": 1},
    },
    "theorem32": {
        "mode": "theorem32",
        **_SHARED_SECTIONS,
        "phase_plan": {
            "gamma": "estimate",
            "delta": 0.05,
            "T": 10,
            "alpha_nt": "auto",
            "rho": "auto",
            "stop_loss": 0.1,
            "alpha_phase2": 0.05,
            "phase2_steps": 2,
        },
    },
    "diagnostics": {
        "mode": "diagnostics",
        **_SHARED_SECTIONS,
        "diagnostics": {"tau": 0.1},
    },
}
MODES = list(FULL_CONFIGS)
OWN_SECTIONS = {mode: set(doc) - set(_SHARED_SECTIONS) - {"mode"} for mode, doc in FULL_CONFIGS.items()}
# (mode, section) for every section that only another mode reads
FOREIGN = [
    (mode, other) for mode in MODES for other in sorted(set().union(*OWN_SECTIONS.values()) - OWN_SECTIONS[mode])
]


def test_parse_round_trip_is_identity():
    for full in FULL_CONFIGS.values():
        config = parse_config(full)
        assert parse_config(json.loads(json.dumps(config))) == config


def test_parse_validates_mode_and_seeds():
    with pytest.raises(ConfigError, match="mode"):
        parse_config(minimal_config(mode="theorem99"))
    with pytest.raises(ConfigError, match="seeds.init"):
        parse_config(minimal_config(seeds={"init": "zero"}))


def _field_paths(doc, prefix=()):
    for key, value in doc.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _field_paths(value, (*prefix, key))


# (mode, path) for every field of every mode's full config
FIELD_PATHS = [
    (mode, path)
    for mode, doc in FULL_CONFIGS.items()
    for path in [*_field_paths(doc), ("data", "inline"), ("data", "file")]
]
KNOWN_PATHS = {"config"} | {".".join(path) for _, path in FIELD_PATHS}
SECTION_NAMES = sorted({key for doc in FULL_CONFIGS.values() for key in doc})
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


def _with_value(field, value):
    mode, path = field
    doc = copy.deepcopy(FULL_CONFIGS[mode])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# 200 examples per mode on average
@settings(max_examples=200 * len(FULL_CONFIGS), deadline=None)
@example(_with_value(("theorem31", ("optimizer", "loss_floor")), 10**400))  # beyond the float range
@given(
    st.one_of(
        st.builds(_with_value, st.sampled_from(FIELD_PATHS), JSON_VALUES),
        st.dictionaries(st.sampled_from(SECTION_NAMES) | st.text(max_size=6), JSON_VALUES),
    )
)
def test_any_json_object_parses_or_names_a_field(doc):
    try:
        config = parse_config(doc)
    except ConfigError as exc:
        assert str(exc).split(": ", 1)[0] in KNOWN_PATHS, str(exc)
    else:
        assert parse_config(config) == config  # the echo is a valid config, and parses to itself


def test_parse_accepts_every_field_of_the_full_config():
    for full in FULL_CONFIGS.values():
        echo = parse_config(full)
        data = echo.pop("data")
        assert {k: v for k, v in data.items() if v is not None} == full["data"]
        assert echo == {k: v for k, v in full.items() if k != "data"}


# ---------------------------------------------------------------------------
# warmup


def test_warmup_zero_steps_is_identity():
    V0 = gaussian_init(InitSpec(p=4, L=1, seed=1))
    data = make_clustered_dataset(4, 0.0, 2, 2, np.eye(4)[0])
    V = warmup(V0, huberized(0.1), data, steps=0, alpha=0.5)
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
        data = make_clustered_dataset(4, 0.05, 2, 600 + seed, mu)
        V0 = gaussian_init(InitSpec(p=4, L=1, seed=seed))
        V = warmup(V0, swish(0.5), data, steps=500, alpha=0.5)
        successes += bool(np.all(network.margins(V, swish(0.5), data) > 0.0))
    assert successes >= 9


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_warmup_aborts_on_divergence():
    huge = WeightStack(hidden=(np.full((2, 2), 1e200),), outer=np.full((1, 2), 1e200))
    data = Dataset(inputs=np.eye(2), labels=np.array([1.0, -1.0]))
    with pytest.raises(NumericalDivergenceError):
        warmup(huge, huberized(0.5), data, steps=2, alpha=0.1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda V, act, data: warmup(V, act, data, steps=-1, alpha=0.5), "steps must be nonnegative"),
        (lambda V, act, data: build_small_loss_init(V, data, act, 0.0), r"target loss must be in \(0, 1\)"),
        (lambda V, act, data: build_small_loss_init(V, data, act, 1.0), r"target loss must be in \(0, 1\)"),
    ],
    ids=["warmup-steps", "target-0", "target-1"],
)
def test_initialization_rejects_arguments_outside_their_domain(call, message):
    V0 = gaussian_init(InitSpec(p=4, L=1, seed=1))
    data = make_clustered_dataset(4, 0.0, 2, 2, np.eye(4)[0])
    with pytest.raises(ValueError, match=message):
        call(V0, huberized(0.1), data)


# ---------------------------------------------------------------------------
# small-loss initialization


@pytest.fixture()
def warm_state():
    data = make_clustered_dataset(4, 0.05, 3, 1)
    V0 = gaussian_init(InitSpec(p=4, L=1, seed=0))
    act = huberized(0.1)
    V_warm = warmup(V0, act, data, steps=2000, alpha=0.5)
    assert np.all(network.margins(V_warm, act, data) > 0.0)
    return V_warm, act, data


def test_small_loss_init_reaches_target_within_factor_two(warm_state):
    V_warm, act, data = warm_state
    target = 1e-10
    V1, _ = build_small_loss_init(V_warm, data, act, target)
    achieved = total_loss(V1, act, data).value
    assert achieved <= target
    assert achieved >= target / 2.0
    # only the outer row was touched
    for a, b in zip(V1.hidden, V_warm.hidden):
        np.testing.assert_array_equal(a, b)


@pytest.fixture(scope="module", params=[(4, 1, huberized), (8, 2, swish)], ids=["huberized", "swish"])
def warm_stack(request):
    p, L, make = request.param
    data = make_clustered_dataset(p, 0.05, 3, 1)
    act = make(0.1)
    V_warm = warmup(gaussian_init(InitSpec(p=p, L=L, seed=0)), act, data, steps=2000, alpha=0.5)
    assert np.all(network.margins(V_warm, act, data) > 0.0)
    return V_warm, act, data


def test_small_loss_bisection_evaluates_the_scaled_stack_exactly(warm_stack):
    # the bisection's loss at c is the loss of the stack whose outer row is scaled by c
    V_warm, act, data = warm_stack
    x_top = network.forward_rows(V_warm, act, data.inputs).x[-1]
    for c in np.geomspace(1.0, 1e6, 41):
        bisected = network.logistic(data.labels * (x_top @ (c * V_warm.outer[0]))).loss.value
        assert bisected == total_loss(harness._with_outer_scaled(V_warm, c), act, data).value


@pytest.mark.parametrize("target", [1e-3, 1e-10, 1e-30, 1e-80])
def test_small_loss_init_certified_without_retry(warm_stack, target, monkeypatch):
    # the returned stack's loss is one the bisection itself evaluated, at most the target
    V_warm, act, data = warm_stack
    seen = []

    def recording(z):
        out = network.logistic(z)
        seen.append(out.loss.value)
        return out

    monkeypatch.setattr(harness, "logistic", recording)
    V1, _ = build_small_loss_init(V_warm, data, act, target)
    achieved = total_loss(V1, act, data).value
    assert achieved <= target and achieved in seen


def _bits(J: LossValue) -> tuple[str, str]:
    return J.value.hex(), J.log_value.hex()


@pytest.mark.parametrize("target", [0.9, 1e-3, 1e-10, 1e-80])
def test_small_loss_init_returns_the_loss_of_its_stack(warm_stack, target):
    # the loss the bisection evaluated at the returned scale, value and log, with no second pass
    V_warm, act, data = warm_stack
    V1, J1 = build_small_loss_init(V_warm, data, act, target)
    assert _bits(J1) == _bits(total_loss(V1, act, data))


def test_small_loss_init_returns_the_loss_of_its_stack_when_the_bisection_runs_out(warm_stack, monkeypatch):
    # losses at or below the target are mapped below target/2, so no scale lands in
    # [target/2, target] and all 200 steps run; the last scale kept and its loss are returned
    V_warm, act, data = warm_stack
    target, exact, calls = 1e-10, network.logistic, []

    def no_landing(z):
        out = exact(z)
        calls.append(out.loss.value)
        if out.loss.value > target:
            return out
        return out._replace(loss=LossValue(out.loss.value / 4.0, out.loss.log_value - math.log(4.0)))

    monkeypatch.setattr(harness, "logistic", no_landing)
    monkeypatch.setattr(network, "logistic", no_landing)
    V1, J1 = build_small_loss_init(V_warm, data, act, target)
    assert len(calls) > 200
    assert J1.value <= target / 4.0
    assert _bits(J1) == _bits(total_loss(V1, act, data))


def test_small_loss_init_noop_when_already_under_target(warm_state):
    V_warm, act, data = warm_state
    current = total_loss(V_warm, act, data).value
    V1, _ = build_small_loss_init(V_warm, data, act, min(0.9, current * 2))
    for a, b in zip(V1.layers(), V_warm.layers()):
        np.testing.assert_array_equal(a, b)


def test_small_loss_init_single_sample_closed_form():
    # one sample with margin m: loss(c) = log1p(exp(-c m)), solvable by hand
    V = WeightStack(hidden=(np.array([[2.0]]),), outer=np.array([[1.0]]))
    act = huberized(1.0)
    data = Dataset(inputs=np.array([[1.0]]), labels=np.array([1.0]))
    m = 1.5
    target = 1e-8
    V1, _ = build_small_loss_init(V, data, act, target)
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


def test_small_loss_init_aborts_when_the_scale_search_diverges():
    # margin 1e-14: even the outer row scaled by 1e12 leaves the loss near log 2
    V = WeightStack(hidden=(np.array([[1.0]]),), outer=np.array([[1e-14]]))
    data = Dataset(inputs=np.array([[1.0]]), labels=np.array([1.0]))
    with pytest.raises(RunAbortedError, match="scale search diverged"):
        build_small_loss_init(V, data, huberized(0.1), 1e-6)


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


@pytest.mark.parametrize("p, L, warmup_steps", [(4, 1, 1500), (8, 2, 3000)])
def test_summary_reports_how_the_h_fixed_point_ended(tmp_path, p, L, warmup_steps):
    doc = minimal_config(network={"p": p, "L": L, "activation": "huberized", "h": "auto"})
    doc["init"] = dict(doc["init"], warmup_steps=warmup_steps)
    doc["optimizer"] = dict(doc["optimizer"], max_steps=5)
    run(parse_config(doc), out_dir=tmp_path)
    resolved = json.loads((tmp_path / "summary.json").read_text())["resolved"]
    loop = resolved["h_fixed_point"]
    assert set(loop) == {"iterations", "converged", "last_change"}
    assert loop["converged"] is True
    assert 1 <= loop["iterations"] <= 12
    assert loop["last_change"] <= 1e-12 * resolved["h"]


def test_summary_has_no_h_fixed_point_for_a_given_h(tmp_path):
    doc = minimal_config(network={"p": 4, "L": 1, "activation": "huberized", "h": 1e-6})
    doc["optimizer"] = dict(doc["optimizer"], max_steps=5)
    runlog, _ = run(parse_config(doc))
    assert runlog.config_echo["resolved"]["h_fixed_point"] is None


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


def theorem32_overrides_config():
    return {
        "mode": "theorem32",
        "network": {"p": 32, "L": 1, "activation": "huberized", "h": "auto"},
        "data": {"clustered": {"r": 0.05, "n": 4}},
        "phase_plan": {
            "gamma": "estimate",
            "T": 1500,
            "stop_loss": 0.05,
            "phase2_steps": 20,
            "alpha_phase2": 0.05,
        },
        "seeds": {"init": 3, "data": 4, "probes": 5},
        "output": {"dir": None},
    }


def test_theorem32_mode_runs_with_overrides():
    runlog, status = run(parse_config(theorem32_overrides_config()))
    assert status == 0
    assert runlog.phase_boundary is not None
    assert runlog.config_echo["gamma"] > 0
    assert runlog.config_echo["gamma_side"] == "lower end (hard-margin dual bracket)"
    assert runlog.config_echo["gamma"] <= runlog.config_echo["gamma_upper"]
    phases = set(runlog.records.phase.tolist())
    assert phases == {1, 2}


def test_theorem32_gamma_estimate_forms_no_feature_stacks(monkeypatch):
    # the estimate runs in kernel coordinates from one batched pass
    calls, original = [], network._Tangent.features

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(network._Tangent, "features", spy)
    runlog, status = run(parse_config(theorem32_overrides_config()))
    assert status == 0 and runlog.config_echo["gamma"] > 0
    assert calls == []


def test_phase2_constants_repeat_the_argmin_row_bit_for_bit(monkeypatch):
    # J1 and ||V1|| of phase 2 are read from phase 1's argmin row, which
    # phase 2's first row repeats: none of the three is recomputed apart
    resolved = []

    def spy(J1, normV1, *args, **kwargs):
        resolved.append((J1, normV1))
        return resolve_context(J1, normV1, *args, **kwargs)

    monkeypatch.setattr(ntk, "resolve_context", spy)
    runlog, _ = run(parse_config(theorem32_overrides_config()))
    (J1, normV1), = resolved
    records, first = runlog.records, runlog.phase_boundary
    argmin = runlog.config_echo["phase1_argmin_step"] - 1
    assert J1.value == runlog.config_echo["phase1_argmin_loss"] == records.loss[first] == records.loss[argmin]
    assert J1.log_value == records.log_loss[first] == records.log_loss[argmin]
    assert normV1 == records.weight_norm[first] == records.weight_norm[argmin]


def test_theorem31_constants_repeat_the_first_row_bit_for_bit():
    # J1 and ||V1|| are computed before the run, and ||V1|| is reduced as the
    # run reduces its rows (layer 1, then the rest), so the t = 1 slack of i2
    # is exactly 0. The p = 8, L = 2 headline config, 50 steps
    config = minimal_config(
        network={"p": 8, "L": 2, "activation": "huberized", "h": "auto"},
        init={"warmup_steps": 3000, "warmup_alpha": 0.5, "target_loss": "auto"},
    )
    runlog, _ = run(parse_config(config))
    resolved, records = runlog.config_echo["resolved"], runlog.records
    assert resolved["normV1"] == records.weight_norm[0]
    assert resolved["J1"] == records.loss[0]
    assert resolved["logJ1"] == records.log_loss[0]
    assert records.slacks["i2"][0] == 0.0


def test_deep_small_loss_gradient_norm_is_summed_without_underflow(monkeypatch):
    # at p=8, L=6, n=24 the gradient's entries are near 1e-199 and their
    # squares underflow: the kernel returns them times 2^k, k > 0, and the
    # norm is summed at that scale. An unscaled sum read 0.0 and failed
    # `lower` on every row
    doc = minimal_config(
        network={"p": 8, "L": 6, "h": "auto"},
        data={"clustered": {"r": 0.05, "n": 24}},
        init={"warmup_steps": 200, "warmup_retries": 1},
    )
    steps = []
    real = ntk.loss_and_gradient

    def recording(*args):
        steps.append(real(*args))
        return steps[-1]

    monkeypatch.setattr(ntk, "loss_and_gradient", recording)
    runlog, status = run(parse_config(doc))
    records, X = runlog.records, build_dataset(parse_config(doc)).inputs
    monitored = steps[-(len(records) + 1) : -1]  # the monitored phase has one lookahead step
    assert min(k for *_, k in monitored) > 0
    reference = [
        math.ldexp(math.sqrt(math.fsum(np.concatenate([(C.T @ X).ravel(), tail_grad]) ** 2)), -k)
        for _, _, C, tail_grad, k in monitored
    ]
    assert 1e-199 < min(reference) and max(reference) < 1e-197
    np.testing.assert_allclose(records.grad_norm, reference, rtol=1e-12, atol=0)
    assert status == 0 and records.verdicts["lower"].tolist() == ["pass"] * 50


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


def test_cli_certifies_the_huberized_relu_at_a_small_width(capsys):
    assert cli_main(["certify-activation", "--kind", "huberized", "--h", "3e-5"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cases = [
        (minimal_config(mode="nope"), "error: mode: "),
        (minimal_config(mode="property_suite"), "error: mode: "),
        (minimal_config(suite={"instances": 5}), "error: config: unknown keys ['suite']"),
        (minimal_config(optimizer={"alpha": "auto", "Q": "auto"}), "error: optimizer: unknown keys ['Q']"),
        (minimal_config(data={"clustered": {"r": 0.05, "n": 3, "mu": [1.0, 0.0]}}), "error: network.p: "),
        # centres whose squared norm over- or underflows
        *(
            (minimal_config(data={"clustered": {"r": 0.0, "n": 2, "mu": [x, 0.0, 0.0, 0.0]}}), "error: data.clustered.mu: ")
            for x in (1e200, 1e-320)
        ),
    ]
    for doc, message in cases:
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith(message)


def test_cli_rejects_truncated_config_json(tmp_path, capsys):
    cfg_path = tmp_path / "cut.json"
    cfg_path.write_text('{"mode": "theorem31", "network": {"p": 4')
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_path} is not valid JSON")


def test_cli_rejects_config_that_is_not_an_object(tmp_path, capsys):
    cfg_path = tmp_path / "list.json"
    cfg_path.write_text("[1, 2]")
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("error: config: must be a JSON object")


def test_cli_rejects_truncated_data_file(tmp_path, capsys):
    data_path = tmp_path / "data.json"
    data_path.write_text('{"p": 4, "samples": [{"x": [1.0, 0.0')
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(minimal_config(data={"file": str(data_path)})))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data.file:") and str(data_path) in err


@pytest.mark.parametrize(
    "case", ["out_is_a_file", "out_under_a_file", "config_is_a_directory", "data_file_is_a_directory", "config_not_utf8"]
)
def test_cli_exits_2_on_a_path_it_cannot_use(tmp_path, capsys, monkeypatch, case):
    a_file, a_dir, cfg_path = tmp_path / "a_file", tmp_path / "a_dir", tmp_path / "cfg.json"
    a_file.write_text("")
    a_dir.mkdir()
    cfg_path.write_text(json.dumps(minimal_config()))
    argv = ["run", "--config", str(cfg_path)]
    if case == "out_is_a_file":
        named = a_file
        argv += ["--out", str(named)]
    elif case == "out_under_a_file":
        named = a_file / "out"
        argv += ["--out", str(named)]
    elif case == "config_is_a_directory":
        named = argv[2] = str(a_dir)
    elif case == "data_file_is_a_directory":
        named = a_dir
        cfg_path.write_text(json.dumps(minimal_config(data={"file": str(a_dir)})))
    else:
        named = cfg_path
        cfg_path.write_bytes(json.dumps(minimal_config()).encode("utf-16"))
    trained = []
    real_run_phase = harness.run_phase
    monkeypatch.setattr(harness, "run_phase", lambda *a, **k: trained.append(1) or real_run_phase(*a, **k))
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(named) in err[0]
    assert trained == []  # nothing trains before a bad path is found


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize(
    "init, message",
    [
        # seed 0 misclassifies a sample at initialization and gets no warmup
        ({"warmup_steps": 0, "warmup_retries": 0}, "warmup did not reach"),
        ({"warmup_alpha": 1e20}, "non-finite loss"),
    ],
)
def test_cli_exits_3_when_the_run_cannot_be_carried_out(tmp_path, capsys, init, message):
    doc = minimal_config()
    doc["init"] = dict(doc["init"], **init)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: the run could not be carried out") and message in err


# warmed at width 0.1 from init seed 2, every sample is classified there, but sample 1's
# margin is negative at a smaller width the fixed point tries; init seed 1002 starts cleanly
UNCLASSIFIED_AT_THE_FIXED_POINT = {
    "mode": "theorem31",
    "network": {"p": 8, "L": 2, "h": "auto"},
    "data": {"clustered": {"r": 0.06, "n": 6}},
    "init": {"warmup_steps": 3},
    "optimizer": {"max_steps": 2},
    "seeds": {"init": 2, "data": 9},
}


def test_cli_exits_3_when_no_seed_classifies_at_every_width(tmp_path, capsys):
    doc = copy.deepcopy(UNCLASSIFIED_AT_THE_FIXED_POINT)
    doc["init"]["warmup_retries"] = 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the run could not be carried out: warmup did not reach")


def test_misclassification_at_a_fixed_point_width_retries_the_next_seed(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(UNCLASSIFIED_AT_THE_FIXED_POINT))
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) in (0, 1)
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["resolved"]["init_seed_used"] == 1002


# the gradient overflows before the loss does
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("activation", ["huberized", "swish"])
@pytest.mark.parametrize("warmup_alpha", [1e200, 1e250])
def test_cli_exits_3_when_the_gradient_overflows(tmp_path, capsys, activation, warmup_alpha):
    doc = minimal_config(network={"p": 4, "L": 1, "activation": activation, "h": "auto"})
    doc["init"] = dict(doc["init"], warmup_alpha=warmup_alpha)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: the run could not be carried out")
    assert "non-finite loss or gradient" in err


@pytest.mark.parametrize(
    "plan, key",
    [({"rho": 1.0, "delta": 0.05}, "delta"), ({"alpha_phase2": 0.05, "phase2_steps": 0}, "alpha_phase2")],
    ids=["delta-with-given-rho", "alpha_phase2-without-phase2"],
)
def test_cli_rejects_a_phase_plan_key_the_run_would_not_read(tmp_path, capsys, plan, key):
    doc = theorem32_overrides_config()
    doc["phase_plan"] = {"T": 5, **plan}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: phase_plan.{key}: ") and err.count("\n") == 1
    # without the inert key the config parses, and its echo parses to itself
    del doc["phase_plan"][key]
    echo = parse_config(doc)
    assert parse_config(echo) == echo and ("delta" in echo["phase_plan"]) == (key != "delta")


def test_cli_rejects_unresolvable_phase2_step_size(tmp_path, capsys):
    # the restart iterate of this run is outside the small-loss regime, so
    # without alpha_phase2 there is no step size for the second phase
    doc = theorem32_overrides_config()
    del doc["phase_plan"]["alpha_phase2"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("error: phase_plan.alpha_phase2: ")


GOOD_SAMPLES = [{"x": [1.0, 0.0, 0.0, 0.0], "y": 1}, {"x": [0.0, 1.0, 0.0, 0.0], "y": -1}]


@pytest.mark.parametrize(
    "source, data, path",
    [
        ("inline", {"p": 4, "samples": [{"x": [1.0, 0.0, 0.0, 0.0]}]}, "data.inline.samples[0].y"),
        ("inline", {"p": 4, "samples": [GOOD_SAMPLES[0], {"x": [0.0, 1.0, 0.0, 0.0], "y": 0}]}, "data.inline.samples[1].y"),
        ("inline", {"p": 4, "samples": [{"x": [1.0, "a", 0.0, 0.0], "y": 1}]}, "data.inline.samples[0].x"),
        ("inline", {"p": 4, "samples": [{"x": [1.0, 0.0, 0.0], "y": 1}]}, "data.inline.samples[0].x"),
        ("inline", {"p": 4}, "data.inline.samples"),
        ("file", {"p": 4, "samples": [GOOD_SAMPLES[0], {"x": [0.0, 1.0, 0.0, 0.0]}]}, "data.file.samples[1].y"),
    ],
    ids=["missing_y", "zero_y", "non_numeric_x", "short_x", "missing_samples", "file_missing_y"],
)
def test_cli_rejects_malformed_samples_and_names_them(tmp_path, capsys, source, data, path):
    if source == "file":
        data_path = tmp_path / "data.json"
        data_path.write_text(json.dumps(data))
        data = str(data_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(minimal_config(network={"p": 4, "L": 1}, data={source: data})))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize(
    "mode, path, value",
    [
        ("theorem31", "data.clustered.r", 0.5),
        ("theorem31", "optimizer.loss_floor", "x"),
        ("theorem32", "phase_plan.T", "ten"),
        ("theorem32", "phase_plan.stop_loss", None),  # no early stop is 0, its default
        ("diagnostics", "diagnostics.tau", "big"),
    ],
)
def test_cli_rejects_bad_field_and_names_it(tmp_path, capsys, mode, path, value):
    doc = copy.deepcopy(FULL_CONFIGS[mode]) | {"output": {"dir": None}}
    node = doc
    for key in path.split(".")[:-1]:
        node = node.setdefault(key, {})
    node[path.split(".")[-1]] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("mode, section", FOREIGN, ids=[f"{mode}-{section}" for mode, section in FOREIGN])
def test_cli_rejects_a_section_its_mode_does_not_read(tmp_path, capsys, mode, section):
    owner = next(other for other in MODES if section in OWN_SECTIONS[other])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(FULL_CONFIGS[mode] | {section: FULL_CONFIGS[owner][section]}))
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {section}: not read in mode {mode}\n"


def test_cli_diagnostics_rejects_a_theorem31_config(tmp_path, capsys):
    # the file is parsed in the mode diagnostics, which reads no optimizer
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(minimal_config()))
    assert cli_main(["diagnostics", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: optimizer: not read in mode diagnostics\n"


@pytest.mark.filterwarnings("ignore:width 4 is below:UserWarning")
@pytest.mark.parametrize("mode", MODES)
def test_summary_echoes_only_the_sections_its_mode_reads(tmp_path, mode):
    run(parse_config(FULL_CONFIGS[mode]), out_dir=tmp_path)
    echoed = json.loads((tmp_path / "summary.json").read_text())["config"]
    assert set(echoed) == {"mode", *_SHARED_SECTIONS, *OWN_SECTIONS[mode]}


def _readme_config_blocks():
    """The JSON blocks under the README's Config heading."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n### Config\n", 1)[1].split("\n## ", 1)[0]
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", section, re.S)]


README_CONFIGS = {f"readme-{block['mode']}": block for block in _readme_config_blocks()}


def test_readme_config_blocks_parse_to_themselves():
    # one block per mode, every key shown
    assert sorted(block["mode"] for block in README_CONFIGS.values()) == sorted(MODES)
    for block in README_CONFIGS.values():
        assert parse_config(block) == block


# the runs whose summary.json echo is checked, with the --seed-override each
# is run with (None: none): each README block, criterion 14's two two-phase
# configs and a theorem32 config with a given rho, so with no delta
ECHO_RUNS = {
    **{name: (block, None) for name, block in README_CONFIGS.items()},
    "two_phase": (TWO_PHASE_CONFIG, None),
    "instrumented_two_phase": (INSTRUMENTED_TWO_PHASE_CONFIG, None),
    "given_rho-seed_override_7": (
        TWO_PHASE_CONFIG | {"phase_plan": TWO_PHASE_CONFIG["phase_plan"] | {"rho": 1.0, "T": 300}}, 7
    ),
}
# the README's theorem31 block runs 10^4 steps and its diagnostics block is at
# p = 2048: their mode's function is replaced, as `run` writes the echo after it
_SLOW_README_MODES = {"readme-theorem31", "readme-diagnostics"}


@pytest.mark.parametrize("name", ECHO_RUNS)
def test_summary_echoes_exactly_the_parsed_config(tmp_path, monkeypatch, name):
    doc, seed = ECHO_RUNS[name]
    out = tmp_path / "out"
    if name in _SLOW_README_MODES:
        monkeypatch.setitem(harness._MODE_RUNS, doc["mode"], lambda config, data: RunLog({}, summary={"failed": False}))
    if seed is None:
        assert run(parse_config(doc), out_dir=out)[1] == 0
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out), "--seed-override", str(seed)]) == 0
        doc = doc | {"seeds": {"init": seed, "data": seed + 1, "probes": seed + 2}}
    echo = json.loads((out / "summary.json").read_text())["config"]
    assert echo == parse_config(doc)
    assert parse_config(echo) == echo
    if "phase_plan" in echo:
        assert ("delta" in echo["phase_plan"]) == (echo["phase_plan"]["rho"] == "auto")


@pytest.mark.parametrize("target", ["auto", 1e-310], ids=["auto_rounds_to_0", "subnormal"])
def test_cli_rejects_a_target_loss_below_the_normal_range(tmp_path, capsys, target):
    # "auto" is 0.5 * 24^-(1 + 24 * 10), which rounds to 0
    doc = {
        "mode": "theorem31",
        "network": {"p": 4, "L": 10, "h": "auto"},
        "data": {"clustered": {"r": 0.05, "n": 24}},
        "init": {"warmup_steps": 5, "warmup_retries": 0, "target_loss": target},
        "optimizer": {"max_steps": 2},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: init.target_loss: ")


@pytest.mark.parametrize("r", [1e-20, 5e-324])
def test_cli_rejects_a_cluster_radius_too_small_to_place_points(tmp_path, capsys, r):
    # renormalising to the sphere rounds every point more than r from +-mu
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(minimal_config(data={"clustered": {"r": r, "n": 3}})))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("error: data.clustered.r: ")


def test_zero_cluster_radius_gives_the_exact_centres():
    mu = np.array([3.0, 0.0, 4.0, 0.0])
    config = parse_config(minimal_config(data={"clustered": {"r": 0.0, "n": 3, "mu": mu.tolist()}}))
    data = build_dataset(config)
    centre = mu / np.linalg.norm(mu)
    for x, y in zip(data.inputs, data.labels):
        assert x.tobytes() == (y * centre).tobytes()


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


_NARROW_DIAGNOSTICS = {
    "mode": "diagnostics",
    "network": {"p": 64, "L": 2, "h": 0.01},
    "data": {"clustered": {"r": 0.05, "n": 4}},
}


@pytest.mark.filterwarnings("ignore:width 64 is below:UserWarning")
def test_cli_run_and_diagnostics_print_the_same_report(tmp_path, capsys):
    cfg_path = tmp_path / "diag.json"
    cfg_path.write_text(json.dumps(_NARROW_DIAGNOSTICS))
    printed = []
    for command in ("run", "run", "diagnostics"):
        assert cli_main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] == printed[2]
    assert "wall_time_s" not in printed[0] and "post_activation_norm_min" in json.loads(printed[0])


@pytest.mark.filterwarnings("ignore:width 64 is below:UserWarning")
@pytest.mark.parametrize("command", ["run", "diagnostics"])
@pytest.mark.parametrize("p, status", [(256, 1), (64, 0)])
def test_cli_diagnostics_fails_only_in_the_wide_regime(tmp_path, capsys, monkeypatch, command, p, status):
    monkeypatch.setattr(ntk, "OPERATOR_LIMIT", 1.0)
    doc = {
        "mode": "diagnostics",
        "network": {"p": p, "L": 1, "h": "auto"},
        "data": {"clustered": {"r": 0.05, "n": 4}},
    }
    cfg_path = tmp_path / "diag.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == status
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False and report["narrow_regime"] is (p == 64)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())["summary"]
    assert summary["failed"] is (status == 1)


def test_cli_rejects_the_operator_limit_key(tmp_path, capsys):
    # the limit is the constant ntk.OPERATOR_LIMIT, not a setting
    cfg_path = tmp_path / "diag.json"
    cfg_path.write_text(json.dumps({**_NARROW_DIAGNOSTICS, "diagnostics": {"operator_limit": 3.5}}))
    assert cli_main(["diagnostics", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("error: diagnostics: unknown keys ['operator_limit']")


@pytest.mark.parametrize("command", ["run", "diagnostics"])
def test_cli_keeps_its_status_when_the_reader_closes_early(tmp_path, command):
    cfg_path = tmp_path / "diag.json"
    cfg_path.write_text(json.dumps(_NARROW_DIAGNOSTICS))
    argv = [sys.executable, "-W", "ignore", "-m", "boundbench.cli", command, "--config", str(cfg_path)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path, env=env)
    proc.stdout.close()  # before the run has written anything
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert err == b""


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


def _theorem32_inline(samples, gamma):
    return {
        "mode": "theorem32",
        "network": {"p": 16, "L": 1, "activation": "huberized", "h": "auto"},
        "data": {"inline": {"p": 16, "samples": samples}},
        "phase_plan": {"gamma": gamma, "T": 50},
        "output": {"dir": None},
    }


def _two_inputs():
    rng = np.random.default_rng(0)
    x, z = rng.standard_normal(16), rng.standard_normal(16)
    return [float(v) for v in x / np.linalg.norm(x)], [float(v) for v in z / np.linalg.norm(z)]


@pytest.mark.parametrize("case", ["one_input_both_labels", "contradicting_majority"])
def test_cli_rejects_gamma_estimate_without_positive_margin(tmp_path, capsys, case):
    x, z = _two_inputs()
    if case == "one_input_both_labels":
        # the minimum-norm point of the y_i F_i is zero
        samples = [{"x": x, "y": 1}, {"x": x, "y": -1}]
    else:
        samples = [{"x": x, "y": 1}, {"x": x, "y": 1}, {"x": x, "y": -1}, {"x": z, "y": 1}]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_theorem32_inline(samples, "estimate")))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "phase_plan.gamma" in err and "explicit positive gamma" in err


@pytest.mark.parametrize("gamma", ["foo", 0, -0.5, True])
def test_cli_rejects_invalid_gamma(tmp_path, capsys, gamma):
    x, z = _two_inputs()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_theorem32_inline([{"x": x, "y": 1}, {"x": z, "y": -1}], gamma)))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert "phase_plan.gamma" in capsys.readouterr().err


def test_theorem32_echoes_given_gamma_and_its_side(tmp_path):
    x, _ = _two_inputs()
    # not separable by the tangent features, but an explicit gamma is taken as given
    samples = [{"x": x, "y": 1}, {"x": x, "y": -1}]
    runlog, status = run(parse_config(_theorem32_inline(samples, 0.25)), out_dir=tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert (summary["gamma"], summary["gamma_upper"], summary["gamma_side"]) == (0.25, 0.25, "given")
    assert runlog.config_echo["gamma_side"] == "given"


@pytest.mark.parametrize("gamma", ["estimate", 0.5])
def test_theorem32_with_a_given_rho_estimates_no_margin(tmp_path, capsys, gamma):
    x, _ = _two_inputs()
    # not separable by the tangent features, but gamma only plans an automatic rho
    doc = _theorem32_inline([{"x": x, "y": 1}, {"x": x, "y": -1}], gamma)
    doc["phase_plan"] = {"gamma": gamma, "T": 20, "rho": 1.0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    echoed = None if gamma == "estimate" else gamma
    assert (summary["gamma"], summary["gamma_upper"]) == (echoed, echoed)
    assert summary["gamma_side"] == "not used: phase_plan.rho is given"
    assert (summary["plan"]["rho"], summary["plan"]["T"]) == (1.0, 20)


def test_cli_rejects_a_given_h_not_below_the_admissible_width(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(minimal_config(network={"p": 4, "L": 1, "h": 0.5})))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("error: network.h: ")


def test_a_given_width_at_the_admissible_width_is_taken(warm_state, monkeypatch):
    # the start-up admits h <= h_max, as Theorem 3.1 and resolve_context do
    V_warm, act, data = warm_state
    monkeypatch.setattr(harness, "compute_h_max", lambda *args: 0.01)
    _, _, ctx, _ = harness.resolve_theorem31_setup(V_warm, data, act.kind, 1e-3, 0.01)
    assert (ctx.h, ctx.instrumented) == (0.01, True)
    monkeypatch.setattr(harness, "compute_h_max", lambda *args: float(np.nextafter(0.01, 0.0)))
    with pytest.raises(ConfigError, match="^network.h: smoothing width 0.01 is above the admissible width"):
        harness.resolve_theorem31_setup(V_warm, data, act.kind, 1e-3, 0.01)


def test_cli_rejects_a_negative_seed_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(minimal_config()))
    assert cli_main(["run", "--config", str(cfg_path), "--seed-override", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: seeds.init: ")


def _single_sample(mode, **sections):
    samples = [{"x": [1.0, 0.0, 0.0, 0.0], "y": 1}]
    doc = {
        "mode": mode,
        "network": {"p": 4, "L": 1, "activation": "huberized", "h": "auto"},
        "data": {"inline": {"p": 4, "samples": samples}},
        "output": {"dir": None},
    }
    return doc | sections


@pytest.mark.parametrize(
    "doc, path",
    [
        (_single_sample("diagnostics"), "network.h"),
        (_single_sample("theorem32", phase_plan={"T": 20}), "network.h"),
    ],
    ids=["diagnostics", "theorem32"],
)
def test_cli_rejects_an_auto_width_for_a_single_sample(tmp_path, capsys, doc, path):
    # the automatic width is proportional to log n, which is 0 at n = 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_theorem32_runs_a_single_sample_with_a_given_width(tmp_path):
    network = {"p": 4, "L": 1, "activation": "huberized", "h": 0.01}
    doc = _single_sample("theorem32", network=network, phase_plan={"T": 20})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(cfg_path)]) == 0


def test_theorem31_allocates_columns_for_the_steps_taken(tmp_path):
    # 10^13 preallocated steps would need hundreds of TiB; the floor stops it at step 1
    doc = minimal_config()
    doc["optimizer"] = dict(doc["optimizer"], max_steps=10**13, loss_floor=1e-3)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert len((tmp_path / "out" / "trajectory.csv").read_text().splitlines()) == 2


def test_theorem31_keeps_the_row_that_reached_the_loss_floor(tmp_path):
    # the floor is the third row's loss of the p=4/L=1 headline run, so that run stops at step 3 of 6
    floor = 5.4978133135672e-13
    doc = {
        "mode": "theorem31",
        "network": {"p": 4, "L": 1, "activation": "huberized", "h": "auto"},
        "data": {"clustered": {"r": 0.05, "n": 3}},
        "optimizer": {"alpha": "auto", "max_steps": 6, "loss_floor": floor},
        "init": {"warmup_steps": 3000, "warmup_alpha": 0.5, "target_loss": "auto"},
        "seeds": {"init": 0, "data": 1, "probes": 2},
    }
    runlog, status = run(parse_config(doc), out_dir=tmp_path)
    assert status == 0
    assert runlog.summary["steps"] == 3 and runlog.summary["final_loss"] <= floor
    # the row that reached the floor has no next row to check its descent against
    assert runlog.records.verdicts["descent"].tolist() == ["pass", "pass", "na"]
    assert len((tmp_path / "trajectory.csv").read_text().splitlines()) == 1 + 3


def test_theorem32_trains_at_the_given_network_width():
    doc = copy.deepcopy(FULL_CONFIGS["theorem32"]) | {"output": {"dir": None}}
    doc["network"]["h"] = 0.01
    runlog, _ = run(parse_config(doc))
    assert runlog.config_echo["plan"]["h_nt"] == 0.01


@pytest.mark.parametrize("key, value", [("h_nt", 0.01), ("c1", 2.0), ("theta_const", 2.0)])
def test_cli_rejects_the_plan_keys_that_network_h_rho_and_alpha_nt_replace(tmp_path, capsys, key, value):
    doc = copy.deepcopy(FULL_CONFIGS["theorem32"]) | {"output": {"dir": None}}
    doc["phase_plan"][key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: phase_plan: unknown keys ") and repr(key) in err
    assert err.count("\n") == 1


# margins and confidences at the ends of the float range, where the automatic
# radius, or its square in the horizon, overflows or underflows
@pytest.mark.parametrize(
    "plan, status",
    [
        ({"gamma": 1e-300, "T": 5}, 0),
        ({"gamma": 1e-320, "T": 5}, 2),
        ({"gamma": 1e300, "T": 5}, 0),
        ({"delta": 1e-320, "T": 5}, 0),
        ({"rho": 0.0}, 0),
    ],
    ids=["gamma-1e-300", "gamma-1e-320", "gamma-1e300", "delta-1e-320", "rho-0"],
)
def test_theorem32_plan_at_extreme_margins_runs_or_names_gamma(tmp_path, capsys, plan, status):
    doc = {
        "mode": "theorem32",
        "network": {"p": 16, "L": 1, "h": "auto"},
        "data": {"clustered": {"r": 0.05, "n": 4}},
        "phase_plan": plan,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == status
    err = capsys.readouterr().err
    if status == 2:
        assert err.startswith("error: phase_plan.gamma: ") and err.count("\n") == 1
        return
    assert "Traceback" not in err
    text = (tmp_path / "out" / "summary.json").read_text()
    echoed = json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} is not JSON"))["plan"]
    assert all(math.isfinite(echoed[k]) for k in ("alpha_nt", "h_nt", "rho"))
    if plan.get("rho") == 0.0:
        assert echoed["T_faithful_log10"] is None and echoed["T"] == 1
    else:
        assert math.isfinite(echoed["T_faithful_log10"]) and echoed["T"] == 5


_WARNING_FREE_RUNS = {
    "theorem31-p4-L1": ({
        "mode": "theorem31",
        "network": {"p": 4, "L": 1, "h": "auto"},
        "data": {"clustered": {"r": 0.05, "n": 3}},
        "optimizer": {"max_steps": 200},
        "init": {"warmup_steps": 3000},
    }, 0),
    "theorem31-p8-L2": ({
        "mode": "theorem31",
        "network": {"p": 8, "L": 2, "h": "auto"},
        "data": {"clustered": {"r": 0.05, "n": 3}},
        "optimizer": {"max_steps": 200},
        "init": {"warmup_steps": 3000},
    }, 0),
    "theorem32-two-phase": ({
        "mode": "theorem32",
        "network": {"p": 32, "L": 1, "h": "auto"},
        "data": {"clustered": {"r": 0.05, "n": 4}},
        "phase_plan": {"T": 300, "stop_loss": 0.05, "phase2_steps": 20, "alpha_phase2": 0.05},
        "seeds": {"init": 3, "data": 4, "probes": 5},
    }, 0),
    "diagnostics-p256-L2": ({
        "mode": "diagnostics",
        "network": {"p": 256, "L": 2, "h": "auto"},
        "data": {"clustered": {"r": 0.05, "n": 4}},
        "diagnostics": {"tau": 0.1},
    }, 0),
    # the perturbed stack's entries are finite but their sum overflows; the
    # report fails its concentration checks, a verdict, not a crash
    "diagnostics-tau-1e308": ({
        "mode": "diagnostics",
        "network": {"p": 256, "L": 1, "h": "auto"},
        "data": {"clustered": {"r": 0.05, "n": 4}},
        "diagnostics": {"tau": 1e308},
    }, 1),
}


@pytest.mark.parametrize("name", list(_WARNING_FREE_RUNS))
def test_each_mode_runs_with_runtime_warnings_as_errors(tmp_path, name):
    doc, status = _WARNING_FREE_RUNS[name]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "boundbench.cli", "run", "--config", str(cfg_path)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(argv, capture_output=True, cwd=tmp_path, env=env, timeout=300)
    assert b"Traceback" not in proc.stderr, proc.stderr.decode()
    assert proc.returncode == status
