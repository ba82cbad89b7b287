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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from .activations import Activation, ActivationKind, certify_h_smooth, huberized, swish
from .bounds import (
    RunContext,
    RunLog,
    compute_alpha_max,
    compute_h_max,
    compute_q_tilde,
    grad_upper_bound,
    monitor_transition,
    summarize,
    theory_constants,
    write_csv,
    write_summary_json,
)
from .linalg import (
    WeightStack,
    frobenius_norm,
    operator_norm,
    product_operator_bound,
    stack_axpy,
)
from .network import (
    Dataset,
    LossValue,
    g_factor,
    gradient,
    loss_and_gradient,
    margins,
    sample_loss,
    total_loss,
)
from .ntk import (
    ClusteredDataSpec,
    InitSpec,
    PhasePlan,
    RunAbortedError,
    gaussian_init,
    init_diagnostics,
    make_clustered_dataset,
    margin_estimate_subgradient,
    nt_smoothing_width,
    ntk_features,
    run_phase,
    two_phase_train,
)
from .oracles import FdConfig, fd_compare, fd_gradient


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


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


def _take(doc: dict, path: str, allowed: dict[str, Any]) -> dict:
    """Pull known keys with defaults; reject anything unrecognized."""
    unknown = set(doc) - set(allowed)
    _expect(not unknown, path, f"unknown keys {sorted(unknown)}")
    return {k: doc.get(k, default) for k, default in allowed.items()}


def _auto_or_positive(value, path: str) -> Any:
    if value == "auto":
        return "auto"
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool), path, "must be a number or \"auto\"")
    _expect(value > 0, path, "must be positive")
    return float(value)


def parse_config(source: str | dict) -> RunConfig:
    """Validate a JSON config; unknown keys are rejected with their path."""
    doc = json.loads(source) if isinstance(source, str) else dict(source)
    _expect(isinstance(doc, dict), "config", "must be a JSON object")
    top = _take(
        doc,
        "config",
        {
            "mode": None,
            "network": {},
            "data": {},
            "optimizer": {},
            "init": {},
            "phase_plan": None,
            "diagnostics": {},
            "suite": {},
            "seeds": {},
            "output": {},
        },
    )
    _expect(top["mode"] in MODES, "mode", f"must be one of {MODES}")

    net = _take(top["network"], "network", {"p": None, "L": 1, "activation": "huberized", "h": "auto"})
    _expect(isinstance(net["p"], int) and net["p"] >= 1, "network.p", "must be a positive integer")
    _expect(isinstance(net["L"], int) and net["L"] >= 1, "network.L", "must be an integer >= 1")
    _expect(net["activation"] in _ACTIVATIONS, "network.activation", f"must be one of {sorted(_ACTIVATIONS)}")
    net["h"] = _auto_or_positive(net["h"], "network.h")

    data = _take(top["data"], "data", {"inline": None, "file": None, "clustered": None})
    present = [k for k in ("inline", "file", "clustered") if data[k] is not None]
    _expect(len(present) == 1, "data", f"exactly one of inline/file/clustered required, got {present}")
    if data["clustered"] is not None:
        cl = _take(data["clustered"], "data.clustered", {"r": None, "n": None, "mu": None})
        _expect(isinstance(cl["n"], int) and cl["n"] >= 2, "data.clustered.n", "must be an integer >= 2")
        _expect(
            isinstance(cl["r"], (int, float)) and 0 <= cl["r"] < 1,
            "data.clustered.r",
            "must be a radius in [0, 1)",
        )
        data["clustered"] = cl

    opt = _take(
        top["optimizer"],
        "optimizer",
        {"alpha": "auto", "Q": "auto", "max_steps": 1000, "loss_floor": 0.0},
    )
    opt["alpha"] = _auto_or_positive(opt["alpha"], "optimizer.alpha")
    opt["Q"] = _auto_or_positive(opt["Q"], "optimizer.Q")
    _expect(isinstance(opt["max_steps"], int) and opt["max_steps"] >= 1, "optimizer.max_steps", "must be >= 1")
    _expect(opt["loss_floor"] >= 0, "optimizer.loss_floor", "must be nonnegative")

    init = _take(
        top["init"],
        "init",
        {"warmup_steps": 2000, "warmup_alpha": 0.5, "target_loss": "auto", "warmup_retries": 4},
    )
    _expect(init["warmup_steps"] >= 0, "init.warmup_steps", "must be nonnegative")
    _expect(init["warmup_alpha"] > 0, "init.warmup_alpha", "must be positive")
    _expect(init["warmup_retries"] >= 0, "init.warmup_retries", "must be nonnegative")
    if init["target_loss"] != "auto":
        _expect(0 < init["target_loss"] < 1, "init.target_loss", "must be in (0, 1)")

    plan = top["phase_plan"]
    if plan is not None:
        plan = _take(
            plan,
            "phase_plan",
            {
                "gamma": "estimate",
                "delta": 0.05,
                "c1": 1.0,
                "theta_const": 1.0,
                "T": "auto",
                "T_cap": 10_000,
                "alpha_nt": "auto",
                "h_nt": "auto",
                "rho": "auto",
                "stop_loss": None,
                "alpha_phase2": None,
                "phase2_steps": 0,
            },
        )
        _expect(plan["phase2_steps"] >= 0, "phase_plan.phase2_steps", "must be nonnegative")
        gamma = plan["gamma"]
        _expect(
            gamma == "estimate"
            or (isinstance(gamma, (int, float)) and not isinstance(gamma, bool) and gamma > 0),
            "phase_plan.gamma",
            'must be "estimate" or a positive number',
        )

    diag = _take(top["diagnostics"], "diagnostics", {"tau": None, "operator_limit": 3.5})
    suite = _take(top["suite"], "suite", {"instances": 25})
    seeds = _take(top["seeds"], "seeds", {"init": 0, "data": 1, "probes": 2})
    for k in ("init", "data", "probes"):
        _expect(isinstance(seeds[k], int), f"seeds.{k}", "must be an integer")
    output = _take(top["output"], "output", {"dir": None, "csv": True, "json": True})

    return RunConfig(
        mode=top["mode"],
        network=net,
        data=data,
        optimizer=opt,
        init=init,
        phase_plan=plan,
        diagnostics=diag,
        suite=suite,
        seeds=seeds,
        output=output,
    )


def build_dataset(config: RunConfig) -> Dataset:
    """The configured data set; its width must match network.p."""
    data = config.data
    p = config.network["p"]
    if data["file"] is not None:
        try:
            dataset = Dataset.from_json_file(data["file"])
        except json.JSONDecodeError as exc:
            raise ConfigError(f"data.file: {data['file']} is not valid JSON ({exc})") from exc
    elif data["inline"] is not None:
        dataset = Dataset.from_json_dict(data["inline"])
    else:
        cl = data["clustered"]
        seed = config.seeds["data"]
        if cl["mu"] is not None:
            mu = np.asarray(cl["mu"], dtype=np.float64)
        else:
            mu = np.random.default_rng(seed).standard_normal(p)
        spec = ClusteredDataSpec(mu=mu, r=float(cl["r"]), n=cl["n"], seed=seed)
        dataset = make_clustered_dataset(spec)
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
    V = run_phase(V0, act, data, alpha, steps).final_stack
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
        return LossValue.mean(
            [LossValue.from_margin(c * m) for m in warm_margins.tolist()]
        ).value

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
    J1: LossValue
    normV1: float
    h: float
    alpha: float
    Q: float
    ctx: RunContext
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
        return act, V1, J1, frobenius_norm(V1)

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
    alpha = (
        compute_alpha_max(h, J1, p, L, normV1)
        if alpha_setting == "auto"
        else float(alpha_setting)
    )
    Q = compute_q_tilde(alpha, J1, L, normV1) if q_setting == "auto" else float(q_setting)
    constants = theory_constants(J1, p, L, normV1, data.n, h, alpha=alpha)
    ctx = RunContext(
        p=p,
        L=L,
        n=data.n,
        h=h,
        alpha=alpha,
        Q=Q,
        J1=J1,
        normV1=normV1,
        constants=constants,
    )
    return ResolvedSetup(
        act=act,
        V1=V1,
        J1=J1,
        normV1=normV1,
        h=h,
        alpha=alpha,
        Q=Q,
        ctx=ctx,
        h_fixed_point=h_fixed_point,
    )


def monitored_descent(
    V1: WeightStack,
    act: Activation,
    data: Dataset,
    ctx: RunContext,
    max_steps: int,
    loss_floor: float = 0.0,
    phase: int = 1,
) -> list:
    """Constant-step GD with a StepRecord per executed step.

    Measures max_steps iterates and one lookahead state so the final
    record still carries its one-step descent comparison.
    """
    states = run_phase(V1, act, data, ctx.alpha, max_steps + 1, loss_floor=loss_floor).states
    records = []
    emit = len(states) - 1 if len(states) > 1 else 1
    for i in range(emit):
        nxt = states[i + 1] if i + 1 < len(states) else None
        records.append(monitor_transition(states[i], nxt, ctx, phase=phase))
    return records


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
    echo = {
        "resolved": {
            "init_seed_used": used_seed,
            "h": setup.h,
            "h_fixed_point": setup.h_fixed_point,
            "alpha": setup.alpha,
            "Q": setup.Q,
            "target_loss": target,
            "J1": setup.J1.value,
            "logJ1": setup.J1.log_value,
            "normV1": setup.normV1,
            "h_max": setup.ctx.constants.h_max,
            "alpha_max": setup.ctx.constants.alpha_max,
            "q_tilde": setup.ctx.constants.q_tilde,
        }
    }
    runlog = RunLog(config_echo=echo, records=records)
    runlog.summary = summarize(records)
    return runlog, (1 if runlog.summary["failed"] else 0)


def _run_theorem32(config: RunConfig) -> tuple[RunLog, int]:
    data = build_dataset(config)
    p, L = config.network["p"], config.network["L"]
    kind = _ACTIVATIONS[config.network["activation"]]
    if kind is not ActivationKind.HUBERIZED_RELU:
        raise ConfigError("network.activation: the two-phase schedule needs huberized")
    plan_cfg = config.phase_plan or {}
    V1 = gaussian_init(InitSpec(p=p, L=L, seed=config.seeds["init"]))

    gamma = plan_cfg.get("gamma", "estimate")
    h_probe = (
        plan_cfg["h_nt"]
        if plan_cfg.get("h_nt") not in (None, "auto")
        else nt_smoothing_width(data.n, p, L)
    )
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
    plan = PhasePlan.auto(
        n=data.n,
        p=p,
        L=L,
        gamma=float(gamma),
        delta=plan_cfg.get("delta", 0.05),
        c1=plan_cfg.get("c1", 1.0),
        theta_const=plan_cfg.get("theta_const", 1.0),
        T_cap=plan_cfg.get("T_cap", 10_000),
    )
    overrides = {}
    if plan_cfg.get("alpha_nt") not in (None, "auto"):
        overrides["alpha_nt"] = float(plan_cfg["alpha_nt"])
    if plan_cfg.get("h_nt") not in (None, "auto"):
        overrides["h_nt"] = float(plan_cfg["h_nt"])
    if plan_cfg.get("rho") not in (None, "auto"):
        overrides["rho"] = float(plan_cfg["rho"])
    if plan_cfg.get("T") not in (None, "auto"):
        overrides["T"] = int(plan_cfg["T"])
    if plan_cfg.get("stop_loss") is not None:
        overrides["stop_loss"] = float(plan_cfg["stop_loss"])
    if plan_cfg.get("alpha_phase2") is not None:
        overrides["alpha_phase2"] = float(plan_cfg["alpha_phase2"])
    overrides["phase2_steps"] = int(plan_cfg.get("phase2_steps", 0))
    plan = replace(plan, **overrides)
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
        h = nt_smoothing_width(data.n, p, L)
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
        for x, y in zip(data.inputs, data.labels):
            # past |margin| ~ 37 the true separation g = J(1 - J/2 + ...) falls
            # below one ulp and libm rounding can invert the last bit
            g_ok &= g_factor(V, act, x, y) <= sample_loss(V, act, x, y).value * (1 + 1e-15)
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
    c = (floor / norm) * (1 + 1e-9)
    return WeightStack(hidden=tuple(c * m for m in V.hidden), outer=c * V.outer)


def _random_dataset(p: int, n: int, rng: np.random.Generator) -> Dataset:
    inputs = rng.standard_normal((n, p))
    labels = rng.choice((-1.0, 1.0), size=n)
    if np.all(labels == labels[0]):
        labels[0] = -labels[0]
    return Dataset(inputs=inputs, labels=labels)
