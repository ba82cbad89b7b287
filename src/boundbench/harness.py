"""Experiment orchestration: config parsing, dataset construction,
small-loss initialization, monitored runs, and artifact emission.

A run is reproducible from its config alone: all "auto" hyperparameters
are resolved exactly once, echoed into the summary, and the trajectory
CSV is byte-identical across reruns on the same build.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .activations import Activation, ActivationKind, certify_h_smooth, huberized, swish
from .bounds import (
    RunContext,
    RunLog,
    Trajectory,
    compute_h_max,
    grad_upper_bound,
    monitor_transition,
    resolve_context,
    summarize,
    write_csv,
    write_summary_json,
)
from .linalg import (
    WeightStack,
    frobenius_norm,
    operator_norm,
    product_operator_bound,
    stack_axpy,
    stack_scale,
)
from .network import (
    Dataset,
    LossValue,
    gradient,
    logistic,
    loss_and_gradient,
    margins,
    total_loss,
)
from .ntk import (
    ClusteredDataSpec,
    ConfigError,
    InitSpec,
    PhasePlan,
    RunAbortedError,
    gaussian_init,
    init_diagnostics,
    make_clustered_dataset,
    margin_estimate_subgradient,
    nt_smoothing_width,
    ntk_features,
    phase_stack,
    run_phase,
    split_sq_norm,
    two_phase_train,
)
from .oracles import FdConfig, fd_compare, fd_gradient


MODES = ("theorem31", "theorem32", "diagnostics", "property_suite")
_ACTIVATIONS = {"huberized": ActivationKind.HUBERIZED_RELU, "swish": ActivationKind.SCALED_SWISH}


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully defaulted experiment description."""

    mode: str
    network: dict
    data: dict
    optimizer: dict
    init: dict
    phase_plan: dict | None
    diagnostics: dict
    suite: dict
    seeds: dict
    output: dict

    def to_json_dict(self) -> dict:
        doc = {
            "mode": self.mode,
            "network": dict(self.network),
            "data": dict(self.data),
            "optimizer": dict(self.optimizer),
            "init": dict(self.init),
            "diagnostics": dict(self.diagnostics),
            "suite": dict(self.suite),
            "seeds": dict(self.seeds),
            "output": dict(self.output),
        }
        if self.phase_plan is not None:
            doc["phase_plan"] = dict(self.phase_plan)
        return doc


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


def _positive_float(value, path: str) -> float:
    return float(_positive(value, path))


_PLAN_SCHEMA = {
    "gamma": ("estimate", _or("estimate", _positive)),
    "delta": (0.05, _fraction),
    "c1": (1.0, _positive),
    "theta_const": (1.0, _positive),
    "T": ("auto", _or("auto", _integer(1))),
    "T_cap": (10_000, _integer(1)),
    "alpha_nt": ("auto", _or("auto", _positive)),
    "h_nt": ("auto", _or("auto", _positive)),
    "rho": ("auto", _or("auto", _nonnegative)),
    "stop_loss": (None, _or(None, _nonnegative)),
    "alpha_phase2": (None, _or(None, _positive)),
    "phase2_steps": (0, _integer(0)),
}

_SCHEMA = {
    "mode": (None, _rule(lambda v: v in MODES, f"one of {MODES}")),
    "network": ({}, _section({
        "p": (None, _integer(1)),
        "L": (1, _integer(1)),
        "activation": (
            "huberized",
            _rule(lambda v: isinstance(v, str) and v in _ACTIVATIONS, f"one of {sorted(_ACTIVATIONS)}"),
        ),
        "h": ("auto", _or("auto", _positive_float)),
    })),
    "data": ({}, _section({
        "inline": (None, _or(None, _rule(lambda v: isinstance(v, dict), "a JSON object"))),
        "file": (None, _filename),
        "clustered": (None, _or(None, _section({
            # the clustered margin construction holds up to radius 1/16
            "r": (None, _rule(lambda v: _is_number(v) and 0 <= v <= 1.0 / 16.0, "a radius in [0, 1/16]")),
            "n": (None, _integer(2)),
            # its length is checked with the data set's width against network.p
            "mu": (None, _or(None, _rule(_is_center, "a nonzero list of numbers"))),
        }))),
    })),
    "optimizer": ({}, _section({
        "alpha": ("auto", _or("auto", _positive_float)),
        "Q": ("auto", _or("auto", _positive_float)),
        "max_steps": (1000, _integer(1)),
        "loss_floor": (0.0, _nonnegative),
    })),
    "init": ({}, _section({
        "warmup_steps": (2000, _integer(0)),
        "warmup_alpha": (0.5, _positive),
        "target_loss": ("auto", _or("auto", _fraction)),
        "warmup_retries": (4, _integer(0)),
    })),
    "phase_plan": (None, _or(None, _section(_PLAN_SCHEMA))),
    "diagnostics": ({}, _section({
        "tau": (None, _or(None, _nonnegative)),
        "operator_limit": (3.5, _positive),
    })),
    "suite": ({}, _section({"instances": (25, _integer(1))})),
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
    """Validate a JSON config; a bad field raises `ConfigError` naming its path."""
    top = _take(json.loads(source) if isinstance(source, str) else source, "config", _SCHEMA)
    data = top["data"]
    present = [k for k in ("inline", "file", "clustered") if data[k] is not None]
    _expect(len(present) == 1, "data", f"exactly one of inline/file/clustered required, got {present}")
    return RunConfig(**top)


def _check_samples(doc, path: str) -> None:
    """A data set document: {"p": int, "samples": [{"x": [...], "y": +-1}, ...]}."""
    _expect(isinstance(doc, dict), path, "must be a JSON object")
    p = _integer(1)(doc.get("p"), f"{path}.p")
    samples = doc.get("samples")
    _expect(isinstance(samples, list) and len(samples) > 0, f"{path}.samples", "must be a nonempty list")
    for i, sample in enumerate(samples):
        at = f"{path}.samples[{i}]"
        _expect(isinstance(sample, dict), at, "must be a JSON object")
        x_ok = _is_center(sample.get("x")) and len(sample["x"]) == p
        _expect(x_ok, f"{at}.x", f"must be a nonzero list of {p} numbers")
        _expect(_is_number(sample.get("y")) and sample["y"] in (-1, 1), f"{at}.y", "must be -1 or +1")


def build_dataset(config: RunConfig) -> Dataset:
    """The configured data set; its width must match network.p."""
    data = config.data
    p = config.network["p"]
    if data["file"] is not None:
        with open(data["file"]) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"data.file: {data['file']} is not valid JSON ({exc})") from exc
        _check_samples(doc, "data.file")
        dataset = Dataset.from_json_dict(doc, origin=data["file"])
    elif data["inline"] is not None:
        _check_samples(data["inline"], "data.inline")
        dataset = Dataset.from_json_dict(data["inline"])
    else:
        cl = data["clustered"]
        seed = config.seeds["data"]
        if cl["mu"] is not None:
            mu = np.asarray(cl["mu"], dtype=np.float64)
        else:
            mu = np.random.default_rng(seed).standard_normal(p)
        spec = ClusteredDataSpec(mu=mu, r=float(cl["r"]), n=cl["n"], seed=seed)
        try:
            dataset = make_clustered_dataset(spec)
        except RuntimeError as exc:  # renormalisation rounds every point out of a tiny cluster
            raise ConfigError(f"data.clustered.r: {exc}; use 0 for exact centres") from exc
    if dataset.p != p:
        raise ConfigError(f"network.p: dataset width {dataset.p} does not match {p}")
    return dataset


# ---------------------------------------------------------------------------
# small-loss initialization


def warmup(
    V0: WeightStack, act: Activation, data: Dataset, steps: int, alpha: float
) -> tuple[WeightStack, bool]:
    """Unmonitored plain GD; returns the final stack and whether every
    sample ends up correctly classified."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    V = phase_stack(V0, data, run_phase(V0, act, data, alpha, steps).final)
    return V, bool(np.all(margins(V, act, data) > 0.0))


def build_small_loss_init(
    V_warm: WeightStack, data: Dataset, act: Activation, target_loss: float
) -> WeightStack:
    """Scale the outer layer until the loss drops to the target.

    The output is linear in the outer row, so scaling it by c > 1
    multiplies every margin by c; with all margins positive the loss is
    strictly decreasing in c and a bisection lands inside
    [target/2, target]. Raises if any sample is misclassified: scaling
    cannot fix a wrong sign, so the caller should warm up first.
    """
    if not (0.0 < target_loss < 1.0):
        raise ValueError("target loss must be in (0, 1)")
    warm_margins = margins(V_warm, act, data)
    if np.any(warm_margins <= 0.0):
        bad = int(np.argmin(warm_margins))
        raise ValueError(
            f"warm stack misclassifies sample {bad} (margin {warm_margins[bad]:.3g}); "
            "scaling the outer layer cannot reach a small loss"
        )

    def loss_at(c: float) -> float:
        return logistic(c * warm_margins).loss.value

    if loss_at(1.0) <= target_loss:
        return V_warm
    lo, hi = 1.0, 2.0
    while loss_at(hi) > target_loss:
        lo, hi = hi, hi * 2.0
        if hi > 1e12:
            raise RunAbortedError("scale search diverged; margins too small to use")
    for _ in range(200):
        val = loss_at(hi)
        if target_loss / 2.0 <= val <= target_loss:
            break
        mid = 0.5 * (lo + hi)
        if loss_at(mid) > target_loss:
            lo = mid
        else:
            hi = mid
    scaled = _with_outer_scaled(V_warm, hi)
    # the margin model and the recomputed loss agree to rounding; nudge up
    # if rounding left the real loss a hair above the target
    for _ in range(8):
        if total_loss(scaled, act, data).value <= target_loss:
            return scaled
        hi *= 1.0 + 1e-6
        scaled = _with_outer_scaled(V_warm, hi)
    raise RunAbortedError("could not certify the scaled loss under the target")


def _with_outer_scaled(V: WeightStack, c: float) -> WeightStack:
    return WeightStack(hidden=V.hidden, outer=c * V.outer)


# ---------------------------------------------------------------------------
# monitored descent


@dataclass
class ResolvedSetup:
    act: Activation
    V1: WeightStack
    ctx: RunContext  # holds h, alpha, Q, J1, normV1 and the constants
    h_fixed_point: dict | None  # how the "auto" h loop ended; None for a given h


def resolve_theorem31_setup(
    V_warm: WeightStack,
    data: Dataset,
    kind: ActivationKind,
    target_loss: float,
    h_setting: float | str = "auto",
    alpha_setting: float | str = "auto",
    q_setting: float | str = "auto",
    h_cap: float = 1.0,
) -> ResolvedSetup:
    """Resolve h, the scaled initialization, and the run constants.

    The smoothing width and the achieved initial loss depend on each
    other (margins move with h, the admissible width moves with the
    loss), so "auto" h is settled by a short deterministic fixed-point
    loop before the constants are frozen; the loop's output is verified
    strictly admissible at the final state. For "auto" h, `h_fixed_point`
    records how that loop ended: iterations, whether successive widths
    agreed to 1e-12 relative, and the last change |h_new - h|.
    """
    p, L = V_warm.p, V_warm.depth

    def build(h: float) -> tuple[Activation, WeightStack, LossValue, float]:
        act = Activation(kind, h)
        V1 = build_small_loss_init(V_warm, data, act, target_loss)
        J1 = total_loss(V1, act, data)
        first_sq, tail_sq = split_sq_norm(V1)  # as the monitored run's first row
        return act, V1, J1, math.sqrt(first_sq + tail_sq)

    h_fixed_point = None
    if h_setting == "auto":
        h = min(0.1, h_cap)
        for iterations in range(1, 13):
            act, V1, J1, normV1 = build(h)
            h_new = min(compute_h_max(J1, p, L, normV1) / 2.0, h_cap)
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
    if not h < h_max:
        raise ConfigError(
            f"network.h: smoothing width {h} is not below the admissible "
            f"width {h_max:.3g} at the achieved initialization; use \"auto\""
        )
    alpha = None if alpha_setting == "auto" else float(alpha_setting)
    Q = None if q_setting == "auto" else float(q_setting)
    ctx = resolve_context(J1, normV1, p, L, data.n, h, alpha=alpha, Q=Q)
    return ResolvedSetup(act=act, V1=V1, ctx=ctx, h_fixed_point=h_fixed_point)


def monitored_descent(
    V1: WeightStack,
    act: Activation,
    data: Dataset,
    ctx: RunContext,
    max_steps: int,
    loss_floor: float = 0.0,
) -> Trajectory:
    """Constant-step GD with one monitored row per executed step.

    Measures max_steps iterates and one lookahead state so the final
    row still carries its one-step descent comparison.
    """
    trace = run_phase(V1, act, data, ctx.alpha, max_steps + 1, loss_floor=loss_floor)
    return monitor_transition(trace, ctx, 1).head(max(len(trace) - 1, 1))


# ---------------------------------------------------------------------------
# top-level run


def run(config: RunConfig, out_dir: str | Path | None = None) -> tuple[RunLog, int]:
    """Execute the configured experiment; returns the log and exit status.

    Exit status 0 means no monitored check failed; not-applicable never
    counts as failure. Artifacts (trajectory CSV, summary JSON) land in
    the configured output directory when enabled.
    """
    started = time.perf_counter()
    if config.mode == "theorem31":
        runlog, status = _run_theorem31(config)
    elif config.mode == "theorem32":
        runlog, status = _run_theorem32(config)
    elif config.mode == "diagnostics":
        runlog, status = _run_diagnostics(config)
    else:
        runlog, status = _run_property_suite(config)
    runlog.summary["wall_time_s"] = time.perf_counter() - started
    runlog.config_echo["config"] = config.to_json_dict()

    target = out_dir if out_dir is not None else config.output["dir"]
    if target is not None:
        target = Path(target)
        target.mkdir(parents=True, exist_ok=True)
        if config.output["csv"] and runlog.records:
            write_csv(runlog.records, target / "trajectory.csv")
        if config.output["json"]:
            write_summary_json(runlog, target / "summary.json")
    return runlog, status


def _run_theorem31(config: RunConfig) -> tuple[RunLog, int]:
    data = build_dataset(config)
    p, L = config.network["p"], config.network["L"]
    n = data.n
    kind = _ACTIVATIONS[config.network["activation"]]
    target = config.init["target_loss"]
    if target == "auto":
        target = 0.5 * math.exp(-(1 + 24 * L) * math.log(n))

    warm_act = Activation(kind, 0.1 if config.network["h"] == "auto" else config.network["h"])
    # a Huberized path can die (all pre-activations negative leaves no gradient),
    # so a failed warmup deterministically retries from the next derived seed
    V_warm, all_ok, used_seed = None, False, config.seeds["init"]
    for attempt in range(config.init["warmup_retries"] + 1):
        used_seed = config.seeds["init"] + 1000 * attempt
        V0 = gaussian_init(InitSpec(p=p, L=L, seed=used_seed))
        V_warm, all_ok = warmup(
            V0, warm_act, data, config.init["warmup_steps"], config.init["warmup_alpha"]
        )
        if all_ok:
            break
    if not all_ok:
        raise RunAbortedError(
            "warmup did not reach correct classification on every sample after "
            f"{config.init['warmup_retries'] + 1} seeded attempts; increase "
            "init.warmup_steps or change seeds"
        )
    setup = resolve_theorem31_setup(
        V_warm,
        data,
        kind,
        target,
        h_setting=config.network["h"],
        alpha_setting=config.optimizer["alpha"],
        q_setting=config.optimizer["Q"],
    )
    records = monitored_descent(
        setup.V1,
        setup.act,
        data,
        setup.ctx,
        config.optimizer["max_steps"],
        loss_floor=config.optimizer["loss_floor"],
    )
    ctx = setup.ctx
    echo = {
        "resolved": {
            "init_seed_used": used_seed,
            "h": ctx.h,
            "h_fixed_point": setup.h_fixed_point,
            "alpha": ctx.alpha,
            "Q": ctx.Q,
            "target_loss": target,
            "J1": ctx.J1.value,
            "logJ1": ctx.J1.log_value,
            "normV1": ctx.normV1,
            "h_max": ctx.h_max,
            "alpha_max": ctx.alpha_max,
            "q_tilde": ctx.q_tilde,
        }
    }
    runlog = RunLog(config_echo=echo, records=records)
    runlog.summary = summarize(records)
    return runlog, (1 if runlog.summary["failed"] else 0)


def _auto_width(data: Dataset, p: int, L: int, path: str) -> float:
    h = nt_smoothing_width(data.n, p, L)
    _expect(h > 0, path, "the automatic width is 0 for a single sample (log n = 0); give a positive width")
    return h


def _run_theorem32(config: RunConfig) -> tuple[RunLog, int]:
    data = build_dataset(config)
    p, L = config.network["p"], config.network["L"]
    kind = _ACTIVATIONS[config.network["activation"]]
    if kind is not ActivationKind.HUBERIZED_RELU:
        raise ConfigError("network.activation: the two-phase schedule needs huberized")
    plan_cfg = config.phase_plan or _take({}, "phase_plan", _PLAN_SCHEMA)
    V1 = gaussian_init(InitSpec(p=p, L=L, seed=config.seeds["init"]))

    gamma = plan_cfg["gamma"]
    h_probe = plan_cfg["h_nt"] if plan_cfg["h_nt"] != "auto" else _auto_width(data, p, L, "phase_plan.h_nt")
    act_probe = huberized(h_probe)
    gamma_side = "given"
    if gamma == "estimate":
        feats = ntk_features(V1, act_probe, data)
        try:
            gamma = margin_estimate_subgradient(feats, data.labels).gamma
        except ValueError:
            # sum_i y_i F_i = 0, so every unit W has a margin <= 0
            gamma = 0.0
        if not gamma > 0.0:
            raise ConfigError(
                f"phase_plan.gamma: the tangent features do not separate the data "
                f"(best estimated margin {gamma:.6g}); give an explicit positive gamma"
            )
        gamma_side = "lower estimate (subgradient witness)"
    given = {k: float(plan_cfg[k]) for k in ("alpha_nt", "h_nt", "rho") if plan_cfg[k] != "auto"}
    given |= {k: float(plan_cfg[k]) for k in ("stop_loss", "alpha_phase2") if plan_cfg[k] is not None}
    if plan_cfg["T"] != "auto":
        given["T"] = plan_cfg["T"]
    plan = PhasePlan.auto(
        n=data.n,
        p=p,
        L=L,
        gamma=float(gamma),
        delta=plan_cfg["delta"],
        c1=plan_cfg["c1"],
        theta_const=plan_cfg["theta_const"],
        T_cap=plan_cfg["T_cap"],
        phase2_steps=plan_cfg["phase2_steps"],
        **given,
    )
    act = huberized(plan.h_nt)
    runlog = two_phase_train(V1, act, data, plan)
    runlog.config_echo["gamma"] = float(gamma)
    runlog.config_echo["gamma_side"] = gamma_side
    return runlog, (1 if runlog.summary["failed"] else 0)


def _run_diagnostics(config: RunConfig) -> tuple[RunLog, int]:
    data = build_dataset(config)
    p, L = config.network["p"], config.network["L"]
    kind = _ACTIVATIONS[config.network["activation"]]
    h = config.network["h"]
    if h == "auto":
        h = _auto_width(data, p, L, "network.h")
    V1 = gaussian_init(InitSpec(p=p, L=L, seed=config.seeds["init"]))
    report = init_diagnostics(
        V1,
        Activation(kind, h),
        data,
        operator_limit=config.diagnostics["operator_limit"],
        tau=config.diagnostics["tau"],
        seed=config.seeds["probes"],
    )
    runlog = RunLog(config_echo={"resolved": {"h": h}})
    runlog.summary = {"diagnostics": report.to_dict(), "failed": False}
    # narrow networks report, they do not fail: concentration is a wide-regime claim
    failed = (not report.ok()) and not report.narrow_regime
    runlog.summary["failed"] = failed
    return runlog, (1 if failed else 0)


def _run_property_suite(config: RunConfig) -> tuple[RunLog, int]:
    """Seeded batch of the library's cross-cutting inequalities."""
    rng = np.random.default_rng(config.seeds["probes"])
    instances = config.suite["instances"]
    checks: dict[str, bool] = {}

    tri_ok = norm_ok = prod_ok = True
    for _ in range(instances):
        p = int(rng.integers(2, 7))
        L = int(rng.integers(1, 4))
        a = _random_stack(p, L, rng)
        b = _random_stack(p, L, rng)
        tri_ok &= frobenius_norm(stack_axpy(a, 1.0, b)) <= (
            frobenius_norm(a) + frobenius_norm(b) + 1e-12
        )
        m = rng.standard_normal((p, p))
        norm_ok &= operator_norm(m).upper <= float(np.linalg.norm(m)) * (1 + 1e-10)
        scaled = _scale_to_min_norm(a, math.sqrt(L + 0.5))
        bound = product_operator_bound(scaled)
        ops = [operator_norm(mm).upper for mm in scaled.layers()]
        for i in range(L + 1):
            for j in range(i + 1, L + 2):
                prod = float(np.prod(ops[i:j]))
                prod_ok &= prod <= bound + 1e-10 * max(bound, 1.0)
    checks["triangle_inequality"] = bool(tri_ok)
    checks["operator_le_frobenius"] = bool(norm_ok)
    checks["product_operator_bound"] = bool(prod_ok)

    contract_ok = True
    for kind in (huberized(0.1), swish(0.1)):
        v1 = rng.standard_normal((instances, 8))
        v2 = rng.standard_normal((instances, 8))
        d_out = np.linalg.norm(
            np.asarray(kind.value(v1)) - np.asarray(kind.value(v2)), axis=1
        )
        d_in = np.linalg.norm(v1 - v2, axis=1)
        contract_ok &= bool(np.all(d_out <= d_in + 1e-12))
    checks["contractivity"] = bool(contract_ok)

    g_ok = fd_ok = upper_ok = True
    for i in range(max(3, instances // 5)):
        p = int(rng.integers(2, 5))
        L = int(rng.integers(1, 3))
        act = huberized(0.5) if i % 2 == 0 else swish(0.5)
        V = _random_stack(p, L, rng)
        data = _random_dataset(p, int(rng.integers(2, 5)), rng)
        # past |margin| ~ 37 the true separation g = J(1 - J/2 + ...) falls
        # below one ulp and rounding in exp and log can invert the last bit
        terms = logistic(margins(V, act, data))
        g_ok &= bool(np.all(terms.g <= terms.values * (1 + 1e-15)))
        grad = gradient(V, act, data)
        report = fd_compare(grad, fd_gradient(V, act, data, FdConfig()), abs_floor=1e-8)
        fd_ok &= report.max_rel_error < 1e-6
        scaled = _scale_to_min_norm(V, math.sqrt(L + 0.5))
        loss2, g2 = loss_and_gradient(scaled, act, data)
        bound = grad_upper_bound(loss2, frobenius_norm(scaled), p, L)
        upper_ok &= frobenius_norm(g2) <= bound * (1 + 1e-10)
    checks["gradient_weight_le_loss"] = bool(g_ok)
    checks["gradient_matches_finite_differences"] = bool(fd_ok)
    checks["gradient_upper_bound"] = bool(upper_ok)

    cert_ok = True
    for act in (huberized(0.1), swish(0.1)):
        cert_ok &= certify_h_smooth(act).pass_
    checks["activation_certification"] = bool(cert_ok)

    failed = not all(checks.values())
    runlog = RunLog(config_echo={})
    runlog.summary = {"property_suite": checks, "failed": failed}
    return runlog, (1 if failed else 0)


def _random_stack(p: int, L: int, rng: np.random.Generator) -> WeightStack:
    return WeightStack(
        hidden=tuple(rng.standard_normal((p, p)) for _ in range(L)),
        outer=rng.standard_normal((1, p)),
    )


def _scale_to_min_norm(V: WeightStack, floor: float) -> WeightStack:
    norm = frobenius_norm(V)
    if norm >= floor:
        return V
    return stack_scale(V, (floor / norm) * (1 + 1e-9))


def _random_dataset(p: int, n: int, rng: np.random.Generator) -> Dataset:
    inputs = rng.standard_normal((n, p))
    labels = rng.choice((-1.0, 1.0), size=n)
    if np.all(labels == labels[0]):
        labels[0] = -labels[0]
    return Dataset(inputs=inputs, labels=labels)
