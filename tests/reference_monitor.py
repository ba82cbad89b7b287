"""Per-step reference for the columnar monitor.

This is the scalar monitor the columnar one replaced: one `StepState` per
iterate, one `StepRecord` per transition, each check evaluated with
Python floats and `math`. Tests run it row by row over a `PhaseTrace` and
compare its verdicts and slacks with `bounds.monitor_transition` and
`bounds.summarize`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from boundbench.bounds import (
    DEFAULT_TOLERANCES,
    PhaseTrace,
    RunContext,
    grad_upper_bound_applicable,
    small_loss_log_threshold,
    weight_norm_floor,
)
from boundbench.network import LossValue


class Verdict(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    NA = "na"


@dataclass(frozen=True)
class StepState:
    t: int
    loss: LossValue
    grad_norm: float
    weight_norm: float
    grad_dot_weights: float


@dataclass(frozen=True)
class StepRecord:
    t: int
    loss: LossValue
    grad_norm: float
    weight_norm: float
    lower_bound: float
    upper_bound: float
    rate_bound: float
    verdicts: Mapping[str, Verdict]
    slacks: Mapping[str, float]
    phase: int


def grad_lower_bound(J: LossValue, normV: float, L: int) -> float:
    if math.isnan(J.value) or J.value < 0:
        raise ValueError("loss must be a nonnegative number")
    if J.value > 0:
        prod = J.value * J.log_inverse()
    elif math.isfinite(J.log_value):
        prod = math.exp(J.log_value + math.log(-J.log_value))
    else:
        prod = 0.0
    return (L + 0.75) * prod / normV


def grad_upper_bound(J: LossValue, normV: float, p: int, L: int) -> float:
    return math.sqrt((L + 1) * p) * normV ** (L + 1) * min(J.value, 1.0)


def _verdict(slack: float, tol: float, applicable: bool) -> Verdict:
    if not applicable:
        return Verdict.NA
    return Verdict.PASS if slack >= -tol else Verdict.FAIL


def monitor_step(
    prev: StepState, nxt: StepState | None, ctx: RunContext, phase: int
) -> StepRecord:
    tol = DEFAULT_TOLERANCES
    L, p, n = ctx.L, ctx.p, ctx.n
    J = prev.loss
    normV = prev.weight_norm
    small_loss = J.log_value < small_loss_log_threshold(n, L)
    inst = ctx.instrumented
    verdicts: dict[str, Verdict] = {}
    slacks: dict[str, float] = {}

    if inst:
        rate_bound_log = ctx.J1.log_value - math.log1p(ctx.q_tilde * (prev.t - 1))
        rate_bound = ctx.J1.value / (ctx.q_tilde * (prev.t - 1) + 1.0)
        slacks["i1"] = rate_bound_log - J.log_value
    else:
        rate_bound = slacks["i1"] = math.nan
    verdicts["i1"] = _verdict(slacks["i1"], tol.i1_log, inst)

    if inst:
        m_t = J.log_inverse() / normV**L
        m_1 = ctx.J1.log_inverse() / ctx.normV1**L
        slacks["i2"] = (m_t - m_1) / m_1
    else:
        slacks["i2"] = math.nan
    verdicts["i2"] = _verdict(slacks["i2"], tol.i2_rel, inst)

    i3_bound = ctx.h / (1024.0 * (L + 1) ** 2 * p * normV ** (3 * L + 5))
    slacks["i3"] = (i3_bound - ctx.alpha * J.value) / i3_bound if inst else math.nan
    verdicts["i3"] = _verdict(slacks["i3"], tol.i3_rel, inst)
    i3s_bound = i3_bound * math.sqrt(p)
    slacks["i3_sqrtp"] = (
        (i3s_bound - ctx.alpha * J.value) / i3s_bound if inst else math.nan
    )
    verdicts["i3_sqrtp"] = _verdict(slacks["i3_sqrtp"], tol.i3_rel, inst)

    lower = grad_lower_bound(J, normV, L) if J.log_value < 0 else math.nan
    lower_applicable = (
        inst
        and ctx.h <= ctx.h_max
        and small_loss
        and slacks["i2"] >= -tol.i2_rel
    )
    slacks["lower"] = (
        (prev.grad_norm - lower) / lower if lower and lower > 0 else math.nan
    )
    verdicts["lower"] = _verdict(slacks["lower"], tol.lower_rel, lower_applicable)
    align_rhs = (L + 0.75) * J.value * J.log_inverse()
    align_lhs = -prev.grad_dot_weights
    slacks["alignment"] = (
        (align_lhs - align_rhs) / align_rhs if align_rhs > 0 else math.nan
    )
    verdicts["alignment"] = _verdict(
        slacks["alignment"], tol.alignment_rel, lower_applicable
    )

    upper = grad_upper_bound(J, normV, p, L)
    upper_applicable = grad_upper_bound_applicable(normV, L)
    slacks["upper"] = (upper - prev.grad_norm) / upper if upper > 0 else 0.0
    verdicts["upper"] = _verdict(slacks["upper"], tol.upper_rel, upper_applicable)

    floor_applicable = J.log_value <= math.log(2.0) + small_loss_log_threshold(n, L)
    slacks["floor"] = normV - weight_norm_floor(L)
    verdicts["floor"] = (
        Verdict.NA
        if not floor_applicable
        else (Verdict.PASS if slacks["floor"] > tol.floor_abs else Verdict.FAIL)
    )

    if nxt is None:
        verdicts["descent"] = Verdict.NA
        slacks["descent"] = math.nan
    else:
        descent_lhs = nxt.loss.value
        descent_rhs = J.value - (L / (L + 0.5)) * ctx.alpha * prev.grad_norm**2
        descent_applicable = (
            inst and ctx.h <= 1.0 and small_loss and verdicts["i3"] is Verdict.PASS
        )
        slacks["descent"] = (descent_rhs - descent_lhs) / J.value
        verdicts["descent"] = _verdict(slacks["descent"], tol.descent_rel, descent_applicable)

    return StepRecord(
        t=prev.t,
        loss=J,
        grad_norm=prev.grad_norm,
        weight_norm=normV,
        lower_bound=lower,
        upper_bound=upper,
        rate_bound=rate_bound if inst else math.nan,
        verdicts=verdicts,
        slacks=slacks,
        phase=phase,
    )


def states_of(trace: PhaseTrace) -> list[StepState]:
    return [
        StepState(
            t=i + 1,
            loss=LossValue(value, log_value),
            grad_norm=grad_norm,
            weight_norm=weight_norm,
            grad_dot_weights=dot,
        )
        for i, (value, log_value, grad_norm, weight_norm, dot) in enumerate(
            zip(
                trace.loss.tolist(),
                trace.log_loss.tolist(),
                trace.grad_norm.tolist(),
                trace.weight_norm.tolist(),
                trace.grad_dot_weights.tolist(),
            )
        )
    ]


def monitor_rows(trace: PhaseTrace, ctx: RunContext, phase: int) -> list[StepRecord]:
    """Every row of `trace`, each paired with its successor."""
    states = states_of(trace)
    return [
        monitor_step(state, states[i + 1] if i + 1 < len(states) else None, ctx, phase)
        for i, state in enumerate(states)
    ]


def summarize(records: Sequence[StepRecord], keys: Sequence[str]) -> dict:
    out: dict = {"invariants": {}, "failed": False}
    for key in keys:
        worst = math.inf
        worst_t = None
        first_fail = None
        counts = {"pass": 0, "fail": 0, "na": 0}
        for rec in records:
            v = rec.verdicts.get(key, Verdict.NA)
            counts[v.value] += 1
            if v is Verdict.NA:
                continue
            s = rec.slacks.get(key, math.nan)
            if not math.isnan(s) and s < worst:
                worst, worst_t = s, rec.t
            if v is Verdict.FAIL and first_fail is None:
                first_fail = rec.t
        out["invariants"][key] = {
            "worst_slack": None if math.isinf(worst) else worst,
            "worst_slack_step": worst_t,
            "first_violation_step": first_fail,
            "counts": counts,
        }
        if first_fail is not None:
            out["failed"] = True
    if records:
        last = records[-1]
        out["final_loss"] = last.loss.value
        out["final_log_loss"] = last.loss.log_value
        out["steps"] = len(records)
    return out
