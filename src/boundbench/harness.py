"""Experiment orchestration: config parsing, dataset construction,
small-loss initialization, monitored runs, and artifact emission.

A run is reproducible from its config alone: all "auto" hyperparameters
are resolved exactly once, echoed into the summary, and the trajectory
CSV is byte-identical across reruns on the same build.
"""

from __future__ import annotations

import json
import math
import sys
import time
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

import numpy as np

from .activations import Activation, ActivationKind, huberized
from .bounds import (
    RunContext,
    RunLog,
    compute_h_max,
    monitor_transition,
    resolve_context,
    small_loss_log_threshold,
    summarize,
    write_csv,
    write_summary_json,
)
from .linalg import WeightStack
from .network import Dataset, LossValue, forward_rows, logistic
# not called here: the benchmark's span fixture reads and wraps `harness.loss_and_gradient`
from .network import loss_and_gradient  # noqa: F401
from .ntk import (
    ConfigError,
    InitSpec,
    PhasePlan,
    RunAbortedError,
    gaussian_init,
    init_diagnostics,
    make_clustered_dataset,
    margin_estimate_subgradient,
    nt_smoothing_width,
    phase_stack,
    run_phase,
    split_sq_norm,
    two_phase_train,
)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully defaulted experiment; a section its mode does not read is None."""

    mode: str
    network: dict
    data: dict
    optimizer: dict | None
    init: dict | None
    phase_plan: dict | None
    diagnostics: dict | None
    seeds: dict
    output: dict

    def to_json_dict(self) -> dict:
        """The mode and every section it read, each copied; no phase_plan.delta beside a given rho."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        echo = {k: v if k == "mode" else dict(v) for k, v in doc.items() if v is not None}
        if self.phase_plan is not None and self.phase_plan["rho"] != "auto":
            del echo["phase_plan"]["delta"]
        return echo


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


# A schema maps each key to (default, rule); a rule takes (value, path),
# raises ConfigError naming the path, and returns the value to keep.


def _take(doc: dict, path: str, schema: dict[str, tuple[Any, Any]]) -> dict:
    """Pull known keys, defaulted and validated; reject anything unrecognized."""
    _expect(isinstance(doc, dict), path, "must be a JSON object")
    unknown = set(doc) - set(schema)
    _expect(not unknown, path, f"unknown keys {sorted(unknown)}")
    prefix = "" if path == "config" else f"{path}."
    return {k: rule(doc.get(k, default), prefix + k) for k, (default, rule) in schema.items()}


def _section(schema: dict):
    return lambda value, path: _take(value, path, schema)


def _is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _rule(test, what: str):
    """A rule accepting the values that pass `test`."""

    def rule(value, path: str):
        _expect(test(value), path, f"must be {what}")
        return value

    return rule


def _integer(least: int):
    return _rule(
        lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= least, f"an integer >= {least}"
    )


def _or(literal, rule):
    """`literal` itself, or a value that passes `rule`."""
    return lambda value, path: literal if value == literal else rule(value, path)


_positive = _rule(lambda v: _is_number(v) and v > 0, "a positive number")
_nonnegative = _rule(lambda v: _is_number(v) and v >= 0, "a nonnegative number")
_fraction = _rule(lambda v: _is_number(v) and 0 < v < 1, "in (0, 1)")
_boolean = _rule(lambda v: isinstance(v, bool), "true or false")
_filename = _or(None, _rule(lambda v: isinstance(v, str), "a path"))


def _is_center(value) -> bool:
    return isinstance(value, list) and all(_is_number(v) for v in value) and any(v != 0 for v in value)


def _has_norm(value) -> bool:
    """A center whose norm, as numpy forms it, neither under- nor overflows."""
    with np.errstate(over="ignore"):
        return _is_center(value) and 0.0 < np.linalg.norm(value) < math.inf


def _positive_float(value, path: str) -> float:
    return float(_positive(value, path))


# the sections each mode reads besides network, data, seeds and output
_MODE_SECTIONS = {
    "theorem31": ("optimizer", "init"),
    "theorem32": ("phase_plan",),
    "diagnostics": ("diagnostics",),
}
_mode = _rule(lambda v: v in tuple(_MODE_SECTIONS), f"one of {tuple(_MODE_SECTIONS)}")
_KINDS = [kind.value for kind in ActivationKind]

_SCHEMA = {
    "mode": (None, _mode),
    "network": ({}, _section({
        "p": (None, _integer(1)),
        "L": (1, _integer(1)),
        "activation": ("huberized", _rule(lambda v: v in _KINDS, f"one of {_KINDS}")),
        "h": ("auto", _or("auto", _positive_float)),
    })),
    "data": ({}, _section({
        "inline": (None, _or(None, _rule(lambda v: isinstance(v, dict), "a JSON object"))),
        "file": (None, _filename),
        "clustered": (None, _or(None, _section({
            # the clustered margin construction holds up to radius 1/16
            "r": (None, _rule(lambda v: _is_number(v) and 0 <= v <= 1.0 / 16.0, "a radius in [0, 1/16]")),
            "n": (None, _integer(2)),
            # its length is checked against network.p by make_clustered_dataset
            "mu": (None, _or(None, _rule(_has_norm, "a list of numbers with a positive finite norm"))),
        }))),
    })),
    "optimizer": ({}, _section({
        "alpha": ("auto", _or("auto", _positive_float)),
        "max_steps": (1000, _integer(1)),
        "loss_floor": (0.0, _nonnegative),
    })),
    "init": ({}, _section({
        "warmup_steps": (2000, _integer(0)),
        "warmup_alpha": (0.5, _positive),
        "target_loss": ("auto", _or("auto", _fraction)),
        "warmup_retries": (4, _integer(0)),
    })),
    "phase_plan": ({}, _section({
        "gamma": ("estimate", _or("estimate", _positive_float)),
        "delta": (0.05, _fraction),
        "T": ("auto", _or("auto", _integer(1))),
        "alpha_nt": ("auto", _or("auto", _positive)),
        "rho": ("auto", _or("auto", _nonnegative)),
        "stop_loss": (0.0, _nonnegative),
        "alpha_phase2": (None, _or(None, _positive)),
        "phase2_steps": (0, _integer(0)),
    })),
    "diagnostics": ({}, _section({
        "tau": (None, _or(None, _nonnegative)),
    })),
    "seeds": ({}, _section({
        "init": (0, _integer(0)),
        "data": (1, _integer(0)),
        "probes": (2, _integer(0)),
    })),
    "output": ({}, _section({
        "dir": (None, _filename),
        "csv": (True, _boolean),
        "json": (True, _boolean),
    })),
}


def parse_config(source: str | dict) -> RunConfig:
    """Validate a JSON config, its mode first; a bad field, a section the mode
    does not read or an unread phase_plan.delta or alpha_phase2 raises `ConfigError` naming its path."""
    doc = json.loads(source) if isinstance(source, str) else source
    _expect(isinstance(doc, dict), "config", "must be a JSON object")
    mode = _mode(doc.get("mode"), "mode")
    unread = [k for sections in _MODE_SECTIONS.values() for k in sections if k not in _MODE_SECTIONS[mode]]
    for name in unread:
        _expect(name not in doc, name, f"not read in mode {mode}")
    top = _take(doc, "config", {k: v for k, v in _SCHEMA.items() if k not in unread})
    data = top["data"]
    present = [k for k in ("inline", "file", "clustered") if data[k] is not None]
    _expect(len(present) == 1, "data", f"exactly one of inline/file/clustered required, got {present}")
    if (plan := top.get("phase_plan")) is not None:
        read = plan["rho"] == "auto" or "delta" not in doc["phase_plan"]
        _expect(read, "phase_plan.delta", "is read only with an automatic rho")
        read = plan["alpha_phase2"] is None or plan["phase2_steps"] > 0
        _expect(read, "phase_plan.alpha_phase2", "is read only when phase2_steps > 0")
    return RunConfig(**dict.fromkeys(unread), **top)


def read_json(path: str, prefix: str = ""):
    """The document in the JSON file at `path`; a file that is not valid
    UTF-8 JSON raises `ConfigError`, its message starting with `prefix`."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
            raise ConfigError(f"{prefix}{path} is not valid JSON ({exc})") from exc


def _load_samples(doc, path: str, origin: str) -> Dataset:
    """A data set document: {"p": int, "samples": [{"x": [...], "y": +-1}, ...]}.
    Inputs off the unit sphere by more than 1e-6 are renormalized with a
    warning that names `origin`."""
    _expect(isinstance(doc, dict), path, "must be a JSON object")
    p = _integer(1)(doc.get("p"), f"{path}.p")
    samples = doc.get("samples")
    _expect(isinstance(samples, list) and len(samples) > 0, f"{path}.samples", "must be a nonempty list")
    xs, ys = [], []
    for i, sample in enumerate(samples):
        at = f"{path}.samples[{i}]"
        _expect(isinstance(sample, dict), at, "must be a JSON object")
        x_ok = _is_center(sample.get("x")) and len(sample["x"]) == p
        _expect(x_ok, f"{at}.x", f"must be a nonzero list of {p} numbers")
        _expect(_is_number(sample.get("y")) and sample["y"] in (-1, 1), f"{at}.y", "must be -1 or +1")
        xs.append(np.asarray(sample["x"], dtype=np.float64))
        ys.append(float(sample["y"]))
    inputs = np.stack(xs)
    deviation = float(np.max(np.abs(np.linalg.norm(inputs, axis=1) - 1.0)))
    if deviation > 1e-6:
        warnings.warn(
            f"{origin}: inputs deviate from unit norm by up to {deviation:.3g}; renormalizing",
            stacklevel=2,
        )
    return Dataset(inputs=inputs, labels=np.asarray(ys))


def build_dataset(config: RunConfig) -> Dataset:
    """The configured data set; its width must match network.p."""
    data = config.data
    p = config.network["p"]
    if data["file"] is not None:
        dataset = _load_samples(read_json(data["file"], "data.file: "), "data.file", data["file"])
    elif data["inline"] is not None:
        dataset = _load_samples(data["inline"], "data.inline", "<inline>")
    else:
        cl = data["clustered"]
        try:
            dataset = make_clustered_dataset(p, cl["r"], cl["n"], config.seeds["data"], cl["mu"])
        except ValueError as exc:  # the schema checks all but mu's length
            raise ConfigError(f"network.p: {exc}") from exc
        except RuntimeError as exc:  # renormalisation rounds every point out of a tiny cluster
            raise ConfigError(f"data.clustered.r: {exc}; use 0 for exact centres") from exc
    if dataset.p != p:
        raise ConfigError(f"network.p: dataset width {dataset.p} does not match {p}")
    return dataset


# ---------------------------------------------------------------------------
# small-loss initialization


_WARM_WIDTH = 0.1  # the warmup's width for an "auto" h, and the width fixed point's first


class MisclassifiedError(ValueError):
    """A sample's margin is not positive; scaling the outer layer cannot fix its sign."""


def warmup(V0: WeightStack, act: Activation, data: Dataset, steps: int, alpha: float) -> WeightStack:
    """Unmonitored plain GD from V0; returns the final stack. Whether it
    classifies every sample is judged by `build_small_loss_init`, at each
    width the stack is scaled at."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    return phase_stack(V0, data, run_phase(V0, act, data, alpha, steps).final)


def build_small_loss_init(
    V_warm: WeightStack, data: Dataset, act: Activation, target_loss: float
) -> tuple[WeightStack, LossValue]:
    """Scale the outer layer until the loss drops to the target; returns
    the scaled stack and its loss.

    The output is linear in the outer row, so scaling it by c > 1
    multiplies every margin by c; with all margins positive the loss is
    strictly decreasing in c and a bisection lands inside
    [target/2, target]. It evaluates logistic(y (X_L (c v))), X_L from one
    forward pass and v the outer row: bit for bit the scaled stack's loss,
    value and log, so its invariant loss(hi) <= target certifies the result
    and the loss it returns is the one it evaluated at hi, also when its
    200 steps run out. Raises `MisclassifiedError` if any sample has a
    margin <= 0 at this width: scaling cannot fix a wrong sign.
    """
    if not (0.0 < target_loss < 1.0):
        raise ValueError("target loss must be in (0, 1)")
    trace = forward_rows(V_warm, act, data.inputs)
    warm_margins = data.labels * trace.output
    if np.any(warm_margins <= 0.0):
        bad = int(np.argmin(warm_margins))
        raise MisclassifiedError(
            f"warm stack misclassifies sample {bad} (margin {warm_margins[bad]:.3g}); "
            "scaling the outer layer cannot reach a small loss"
        )

    def loss_at(c: float) -> LossValue:
        return logistic(data.labels * (trace.x[-1] @ (c * V_warm.outer[0]))).loss

    J = loss_at(1.0)
    if J.value <= target_loss:
        return V_warm, J
    lo, hi = 1.0, 2.0
    while (J := loss_at(hi)).value > target_loss:
        lo, hi = hi, hi * 2.0
        if hi > 1e12:
            raise RunAbortedError("scale search diverged; margins too small to use")
    for _ in range(200):
        if J.value >= target_loss / 2.0:  # J.value <= target_loss holds throughout
            break
        mid = 0.5 * (lo + hi)
        J_mid = loss_at(mid)
        if J_mid.value > target_loss:
            lo = mid
        else:
            hi, J = mid, J_mid
    return _with_outer_scaled(V_warm, hi), J


def _with_outer_scaled(V: WeightStack, c: float) -> WeightStack:
    return WeightStack(hidden=V.hidden, outer=c * V.outer)


def resolve_theorem31_setup(
    V_warm: WeightStack,
    data: Dataset,
    kind: ActivationKind,
    target_loss: float,
    h_setting: float | str = "auto",
    alpha_setting: float | str = "auto",
) -> tuple[Activation, WeightStack, RunContext, dict | None]:
    """Resolve h, the scaled initialization, and the run constants;
    returns (act, V1, ctx, h_fixed_point), ctx holding h, alpha, J1,
    normV1 and the constants, q_tilde at alpha the rate constant.

    The smoothing width and the achieved initial loss depend on each
    other (margins move with h, the admissible width moves with the
    loss), so "auto" h is settled by a short deterministic fixed-point
    loop from the warm width before the constants are frozen; the loop's
    output is verified strictly admissible at the final state. For "auto"
    h, `h_fixed_point` records how that loop ended: iterations, whether
    successive widths agreed to 1e-12 relative, and the last change
    |h_new - h|. At each width `build_small_loss_init` scales V_warm and
    gives J1; its `MisclassifiedError` passes through.
    """
    p, L = V_warm.p, V_warm.depth

    def build(h: float) -> tuple[Activation, WeightStack, LossValue, float]:
        act = Activation(kind, h)
        V1, J1 = build_small_loss_init(V_warm, data, act, target_loss)
        first_sq, tail_sq = split_sq_norm(V1)  # as the monitored run's first row
        return act, V1, J1, math.sqrt(first_sq + tail_sq)

    h_fixed_point = None
    if h_setting == "auto":
        h = _WARM_WIDTH
        for iterations in range(1, 13):
            act, V1, J1, normV1 = build(h)
            h_new = compute_h_max(J1, p, L, normV1) / 2.0
            change = abs(h_new - h)
            converged = change <= 1e-12 * max(h, h_new)
            h = h_new
            if converged:
                break
        h_fixed_point = {
            "iterations": iterations,
            "converged": converged,
            "last_change": change,
        }
        act, V1, J1, normV1 = build(h)
    else:
        h = float(h_setting)
        act, V1, J1, normV1 = build(h)

    h_max = compute_h_max(J1, p, L, normV1)
    above = f"smoothing width {h} is above the admissible width {h_max:.3g} at the achieved initialization"
    _expect(h <= h_max, "network.h", f"{above}; use \"auto\"")
    alpha = None if alpha_setting == "auto" else float(alpha_setting)
    ctx = resolve_context(J1, normV1, p, L, data.n, h, alpha=alpha)
    return act, V1, ctx, h_fixed_point


# ---------------------------------------------------------------------------
# top-level run


def run(config: RunConfig, out_dir: str | Path | None = None) -> tuple[RunLog, int]:
    """Execute the configured experiment; returns the log and exit status.

    Every mode takes this one path: the output directory is created first,
    so an unusable one fails before any training; the data set is built
    once and handed to the mode's function; the exit status is 1 when the
    summary's "failed" is set and 0 otherwise (not-applicable never counts
    as failure). Artifacts (trajectory CSV, summary JSON) land in the
    output directory when enabled.
    """
    target = out_dir if out_dir is not None else config.output["dir"]
    if target is not None:
        target = Path(target)
        target.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    runlog = _MODE_RUNS[config.mode](config, build_dataset(config))
    runlog.summary["wall_time_s"] = time.perf_counter() - started
    runlog.config_echo["config"] = config.to_json_dict()
    if target is not None:
        if config.output["csv"] and runlog.records:
            write_csv(runlog.records, target / "trajectory.csv")
        if config.output["json"]:
            write_summary_json(runlog, target / "summary.json")
    return runlog, (1 if runlog.summary["failed"] else 0)


def _run_theorem31(config: RunConfig, data: Dataset) -> RunLog:
    p, L = config.network["p"], config.network["L"]
    n = data.n
    kind = ActivationKind(config.network["activation"])
    target = config.init["target_loss"]
    if target == "auto":
        target = 0.5 * math.exp(small_loss_log_threshold(n, L))
    # a subnormal target gives a subnormal J1 and an alpha_max near 1/J1
    _expect(target >= sys.float_info.min, "init.target_loss", f"{target:.3g} is below the normal double range")

    h_setting = config.network["h"]
    warm_act = Activation(kind, _WARM_WIDTH if h_setting == "auto" else h_setting)
    # a Huberized path can die (all pre-activations negative leaves no gradient), and
    # a sample can lose its sign at a width the fixed point tries, so a misclassified
    # sample at any width deterministically retries from the next derived seed
    for attempt in range(config.init["warmup_retries"] + 1):
        used_seed = config.seeds["init"] + 1000 * attempt
        V0 = gaussian_init(InitSpec(p=p, L=L, seed=used_seed))
        V_warm = warmup(V0, warm_act, data, config.init["warmup_steps"], config.init["warmup_alpha"])
        try:
            act, V1, ctx, h_fixed_point = resolve_theorem31_setup(
                V_warm, data, kind, target, h_setting, config.optimizer["alpha"]
            )
            break
        except MisclassifiedError:
            pass
    else:
        raise RunAbortedError(
            "warmup did not reach correct classification on every sample at the widths the "
            f"scale search tried, after {config.init['warmup_retries'] + 1} seeded attempts; increase "
            "init.warmup_steps or change seeds"
        )
    # one lookahead step past max_steps: the last kept row still carries its one-step descent
    # check, unless the row reached the loss floor, which stops the run there
    opt = config.optimizer
    trace = run_phase(V1, act, data, ctx.alpha, opt["max_steps"] + 1, stop_loss=opt["loss_floor"])
    records = monitor_transition(trace, ctx, 1).head(min(len(trace), opt["max_steps"]))
    echo = {
        "resolved": {
            "init_seed_used": used_seed,
            "h": ctx.h,
            "h_fixed_point": h_fixed_point,
            "alpha": ctx.alpha,
            "target_loss": target,
            "J1": ctx.J1.value,
            "logJ1": ctx.J1.log_value,
            "normV1": ctx.normV1,
            "h_max": ctx.h_max,
            "alpha_max": ctx.alpha_max,
            "q_tilde": ctx.q_tilde,
        }
    }
    return RunLog(config_echo=echo, records=records, summary=summarize(records))


def _width(config: RunConfig, data: Dataset) -> float:
    """network.h for theorem32 and diagnostics: "auto" is the two-phase
    schedule's width nt_smoothing_width(n, p, L)."""
    h = config.network["h"]
    if h == "auto":
        h = nt_smoothing_width(data.n, config.network["p"], config.network["L"])
        _expect(h > 0, "network.h", "the automatic width is 0 for a single sample (log n = 0); give a positive width")
    return h


def _run_theorem32(config: RunConfig, data: Dataset) -> RunLog:
    p, L = config.network["p"], config.network["L"]
    huberized_only = ActivationKind(config.network["activation"]) is ActivationKind.HUBERIZED_RELU
    _expect(huberized_only, "network.activation", "the two-phase schedule needs huberized")
    plan_cfg = config.phase_plan
    V1 = gaussian_init(InitSpec(p=p, L=L, seed=config.seeds["init"]))
    act = huberized(_width(config, data))  # for the margin estimate and both phases

    gamma = gamma_upper = None if plan_cfg["gamma"] == "estimate" else plan_cfg["gamma"]
    gamma_side = "given"
    if plan_cfg["rho"] != "auto":  # gamma only plans the automatic rho
        gamma_side = "not used: phase_plan.rho is given"
    elif gamma is None:
        try:
            witness = margin_estimate_subgradient(V1, act, data)
            gamma, gamma_upper = witness.gamma, witness.gamma_upper
        except ValueError:
            # the minimum-norm point of the y_i F_i is 0, so every unit W has a margin <= 0
            gamma = gamma_upper = 0.0
        if not gamma > 0.0:
            raise ConfigError(
                f"phase_plan.gamma: the tangent features do not separate the data "
                f"(best margin at most {gamma_upper:.6g}, witness margin {gamma:.6g}); "
                "give an explicit positive gamma"
            )
        gamma_side = "lower end (hard-margin dual bracket)"
    plan = PhasePlan.auto(
        data.n, p, L, gamma, **{k: None if v == "auto" else v for k, v in plan_cfg.items() if k != "gamma"}
    )
    runlog = two_phase_train(V1, act, data, plan)
    runlog.config_echo |= {"gamma": gamma, "gamma_upper": gamma_upper, "gamma_side": gamma_side}
    return runlog


def _run_diagnostics(config: RunConfig, data: Dataset) -> RunLog:
    p, L = config.network["p"], config.network["L"]
    h = _width(config, data)
    V1 = gaussian_init(InitSpec(p=p, L=L, seed=config.seeds["init"]))
    report = init_diagnostics(
        V1,
        Activation(ActivationKind(config.network["activation"]), h),
        data,
        tau=config.diagnostics["tau"],
        seed=config.seeds["probes"],
    )
    # narrow networks report, they do not fail: concentration is a wide-regime claim
    failed = not report["ok"] and not report["narrow_regime"]
    return RunLog(config_echo={"resolved": {"h": h}}, summary={"diagnostics": report, "failed": failed})


_MODE_RUNS = {"theorem31": _run_theorem31, "theorem32": _run_theorem32, "diagnostics": _run_diagnostics}
