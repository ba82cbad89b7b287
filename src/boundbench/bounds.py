"""Closed-form hyperparameters of the convergence analysis and runtime
monitors for the step-by-step inequalities it rests on.

`resolve_context` is the one place that decides whether a phase is
instrumented and fills in its step size; a `theorem31` run and phase 2 of
a `theorem32` run both go through it. The context forms the constants.

Monitors never abort a run: every check yields a signed slack (positive
means satisfied) and a three-way verdict. "Not applicable" is distinct
from failure, because each inequality has preconditions and a negative
control run is a first-class experiment, not an error. A descent phase is
monitored once, over whole columns: its measurements arrive as a
`PhaseTrace` and leave as a `Trajectory`, one row per iterate.

All log-of-loss quantities come from the loss's log channel, never from
log(value): instrumented runs hold the loss near 1e-13 and below, where
relative error in the value would contaminate log(1/J).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from types import MappingProxyType
from typing import Sequence

import numpy as np

from .linalg import WeightStack
from .network import LossValue

CSV_COLUMNS = (
    "t",
    "J",
    "logJ",
    "grad_norm",
    "weight_norm",
    "lower_bound",
    "upper_bound",
    "rate_bound",
    "i1",
    "i2",
    "i3",
    "descent_ok",
    "alignment_ok",
    "phase",
)

# Each check's slack threshold, in report order: a check fails below -tolerance
# (floor: at or below it, the inequality is strict). Slacks are relative unless
# noted; the thresholds separate genuine violations from double rounding.
TOLERANCES = MappingProxyType({
    "i1": 1e-12,  # absolute, in log-loss space
    "i2": 1e-12,
    "i3": 1e-12,
    "i3_sqrtp": 1e-12,
    "descent": 1e-12,  # relative to J_t
    "alignment": 1e-12,
    "lower": 1e-12,
    "upper": 1e-10,
    "floor": 0.0,  # absolute
})


def _libm(fn, *args) -> np.ndarray:
    """`fn` applied elementwise to Python floats. numpy's own pow, exp, log
    and log1p differ from the C library's in the last bit on a few percent
    of inputs; the scalar functions keep every slack, tie-break and CSV
    value equal to the per-step definitions."""
    return np.asarray(np.frompyfunc(fn, len(args), 1)(*args), dtype=np.float64)


def compute_h_max(J1: LossValue, p: int, L: int, normV1: float) -> float:
    """min{ L^(L/2-3) log(1/J1) / (24 sqrt(p) ||V1||^L), 1 }."""
    _check_constants_inputs(J1, p, L, normV1)
    raw = L ** (L / 2.0 - 3.0) * J1.log_inverse() / (24.0 * math.sqrt(p) * normV1**L)
    return min(raw, 1.0)


def compute_alpha_max(h: float, J1: LossValue, p: int, L: int, normV1: float) -> float:
    """Two-term minimum: a smoothness budget and a rate-quadratic budget."""
    if not (0.0 < h <= compute_h_max(J1, p, L, normV1)):  # compute_h_max checks the other inputs
        raise ValueError("h must be positive and at most h_max for these inputs")
    term_smooth = h / (1024.0 * (L + 1) ** 2 * p * J1.value * normV1 ** (3 * L + 5))
    log_inv = J1.log_inverse()
    term_rate = (L + 0.5) * normV1**2 / (
        2.0 * L * (L + 0.75) ** 2 * J1.value * log_inv ** (2.0 / L)
    )
    return min(term_smooth, term_rate)


def compute_q_tilde(alpha: float, J1: LossValue, L: int, normV1: float) -> float:
    """L (L+3/4)^2 alpha J1 log^(2/L)(1/J1) / ((L+1/2) ||V1||^2)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    log_inv = J1.log_inverse()
    return (
        L * (L + 0.75) ** 2 * alpha * J1.value * log_inv ** (2.0 / L)
        / ((L + 0.5) * normV1**2)
    )


def _check_constants_inputs(J1: LossValue, p: int, L: int, normV1: float) -> None:
    if not (J1.log_value < 0.0):
        raise ValueError("initial loss must be in (0, 1)")
    if p < 1 or L < 1:
        raise ValueError("need p >= 1 and L >= 1")
    if not normV1 > 0:
        raise ValueError("initial weight norm must be positive")


def grad_lower_bound(J_t: LossValue, normVt, L: int):
    """(L+3/4) J_t log(1/J_t) / ||V_t||, log taken from the log channel.

    Elementwise when `J_t` holds columns of values and logs.
    """
    value = np.asarray(J_t.value, dtype=np.float64)
    log_value = np.asarray(J_t.log_value, dtype=np.float64)
    if np.any(np.isnan(value) | (value < 0)):
        raise ValueError("loss must be a nonnegative number")
    with np.errstate(invalid="ignore"):
        prod = np.where(value > 0, value * -log_value, 0.0)
    # value channel underflowed; J log(1/J) = exp(logJ + log(-logJ))
    under = (value == 0) & np.isfinite(log_value)
    prod[under] = _libm(math.exp, log_value[under] + _libm(math.log, -log_value[under]))
    return (L + 0.75) * prod / normVt


def grad_upper_bound(J: LossValue, normV, p: int, L: int):
    """sqrt((L+1) p) ||V||^(L+1) min{J, 1}; valid once ||V|| >= sqrt(L+1/2).

    Elementwise when `J` and `normV` are columns.
    """
    return math.sqrt((L + 1) * p) * _libm(pow, normV, L + 1) * np.minimum(J.value, 1.0)


def descent_decrease(alpha: float, grad_norm, L: int):
    """(L/(L+1/2)) alpha ||g||^2, with ||g|| = m 2^e squared as m^2 and scaled back exactly."""
    m, e = np.frexp(grad_norm)
    return np.ldexp((L / (L + 0.5)) * alpha * _libm(pow, m, 2), 2 * e)


def grad_upper_bound_applicable(normV: float, L: int) -> bool:
    return normV >= math.sqrt(L + 0.5)


def weight_norm_floor(L: int) -> float:
    """sqrt(L+1): every iterate below the small-loss threshold exceeds it."""
    if L < 1:
        raise ValueError("need L >= 1")
    return math.sqrt(L + 1.0)


def small_loss_log_threshold(n: int, L: int) -> float:
    """log of 1/n^(1+24L), the loss level below which the rate analysis engages."""
    return -(1 + 24 * L) * math.log(n)


@dataclass(frozen=True)
class RunContext:
    """Everything fixed along one monitored phase.

    An instrumented phase's constants `h_max`, `alpha_max` and `q_tilde`
    are formed on each read from its start (J1, normV1), p, L, h and alpha,
    so none can contradict the fields; q_tilde is the one rate constant of
    the I1 bound J_1/(q_tilde (t-1) + 1). A phase outside the small-loss
    analysis is not instrumented and has none (all three None): the
    constant-dependent checks then report not-applicable while regime-free
    ones keep running. An instrumented context needs 0 < h <= h_max (else
    ValueError), so it is inside the analysis's width hypothesis.
    """

    p: int
    L: int
    n: int
    h: float
    alpha: float
    J1: LossValue
    normV1: float
    instrumented: bool = False

    def __post_init__(self):
        if self.instrumented and not 0.0 < self.h <= self.h_max:
            raise ValueError(f"constants need 0 < h <= h_max, got h={self.h}, h_max={self.h_max}")

    @property
    def h_max(self) -> float | None:
        return compute_h_max(self.J1, self.p, self.L, self.normV1) if self.instrumented else None

    @property
    def alpha_max(self) -> float | None:
        return compute_alpha_max(self.h, self.J1, self.p, self.L, self.normV1) if self.instrumented else None

    @property
    def q_tilde(self) -> float | None:
        return compute_q_tilde(self.alpha, self.J1, self.L, self.normV1) if self.instrumented else None


def resolve_context(
    J1: LossValue, normV1: float, p: int, L: int, n: int, h: float, alpha: float | None = None
) -> RunContext:
    """The context of a phase that starts at loss J1 and weight norm normV1.

    The phase is instrumented when J1 is in (0, 1), normV1 > 0 and
    h <= h_max; then alpha is the given value or alpha_max(h). Otherwise
    alpha must be given: without it this raises ValueError.
    """
    in_range = J1.log_value < 0.0 and normV1 > 0.0
    instrumented = bool(in_range and not h > compute_h_max(J1, p, L, normV1))  # NaN h: refused below
    if alpha is None and not instrumented:
        raise ValueError("no admissible step size: loss not in (0,1), zero weight norm or h above h_max")
    alpha = compute_alpha_max(h, J1, p, L, normV1) if alpha is None else alpha
    return RunContext(p=p, L=L, n=n, h=h, alpha=alpha, J1=J1, normV1=normV1, instrumented=instrumented)


@dataclass
class PhaseTrace:
    """Raw measurements of one descent phase as columns, input to the
    monitor. Row i holds step t = i + 1."""

    loss: np.ndarray
    log_loss: np.ndarray
    grad_norm: np.ndarray
    weight_norm: np.ndarray
    grad_dot_weights: np.ndarray  # gradient . weights (positive means misaligned)
    drift: np.ndarray  # max-layer distance from the phase's anchor
    best_step: int = 0  # earliest step of least loss
    # iterates (A, tail) of `ntk.run_phase`, first layer V_1 + A^T X; see `ntk.phase_stack`
    best: tuple[np.ndarray, WeightStack] | None = None  # at best_step
    final: tuple[np.ndarray, WeightStack] | None = None  # after the last step taken

    def __len__(self) -> int:
        return len(self.loss)


@dataclass(frozen=True)
class Trajectory:
    """A monitored run as columns, one row per monitored iterate: the CSV
    values plus, per check, a slack array and a verdict array holding
    "pass", "fail" or "na"."""

    t: np.ndarray
    loss: np.ndarray
    log_loss: np.ndarray
    grad_norm: np.ndarray
    weight_norm: np.ndarray
    lower_bound: np.ndarray
    upper_bound: np.ndarray
    rate_bound: np.ndarray
    phase: np.ndarray
    slacks: dict[str, np.ndarray]
    verdicts: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.t)

    def head(self, rows: int) -> "Trajectory":
        """The first `rows` rows."""
        return _columnwise([self], lambda cols: cols[0][:rows])

    @staticmethod
    def concat(parts: Sequence["Trajectory"]) -> "Trajectory":
        return _columnwise(parts, np.concatenate)


def _columnwise(parts: Sequence[Trajectory], fn) -> Trajectory:
    out = {}
    for f in fields(Trajectory):
        cols = [getattr(part, f.name) for part in parts]
        if isinstance(cols[0], dict):
            out[f.name] = {k: fn([c[k] for c in cols]) for k in cols[0]}
        else:
            out[f.name] = fn(cols)
    return Trajectory(**out)


def _verdicts(passed: np.ndarray, applicable) -> np.ndarray:
    return np.where(applicable, np.where(passed, "pass", "fail"), "na")


def monitor_transition(trace: PhaseTrace, ctx: RunContext, phase: int) -> Trajectory:
    """Evaluate every bound and invariant at every row of `trace`; row i
    reads row i+1 for the one-step descent inequality, which is
    not-applicable on the last row.

    Checks whose preconditions fail are marked not-applicable, never
    failed: every inequality here is conditional on the run being inside
    its regime, and a monitor that cried wolf outside the regime would
    be useless for negative controls.
    """
    tol = TOLERANCES
    L, p, n = ctx.L, ctx.p, ctx.n
    J, log_J = trace.loss, trace.log_loss
    grad_norm, normV = trace.grad_norm, trace.weight_norm
    k = len(trace)
    t = np.arange(1, k + 1)
    nan = np.full(k, math.nan)
    small_loss = log_J < small_loss_log_threshold(n, L)
    inst = ctx.instrumented
    slacks: dict[str, np.ndarray] = {}
    verdicts: dict[str, np.ndarray] = {}

    with np.errstate(divide="ignore", invalid="ignore"):
        # I1, the headline rate: J_t <= J_1 / (q_tilde (t-1) + 1), checked in log space
        if inst:
            rate_bound_log = ctx.J1.log_value - _libm(math.log1p, ctx.q_tilde * (t - 1))
            rate_bound = ctx.J1.value / (ctx.q_tilde * (t - 1) + 1.0)
            slacks["i1"] = rate_bound_log - log_J
        else:
            rate_bound = slacks["i1"] = nan
        verdicts["i1"] = _verdicts(slacks["i1"] >= -tol["i1"], inst)

        # I2: log(1/J_t)/||V_t||^L never drops below its initial value
        if inst:
            m_1 = ctx.J1.log_inverse() / ctx.normV1**L
            slacks["i2"] = (-log_J / _libm(pow, normV, L) - m_1) / m_1
        else:
            slacks["i2"] = nan
        verdicts["i2"] = _verdicts(slacks["i2"] >= -tol["i2"], inst)

        # I3: step size small against the smoothness scale, p as stated; the
        # sqrt(p) variant appears in one proof display and is recorded too
        i3_bound = ctx.h / (1024.0 * (L + 1) ** 2 * p * _libm(pow, normV, 3 * L + 5))
        slacks["i3"] = (i3_bound - ctx.alpha * J) / i3_bound if inst else nan
        verdicts["i3"] = _verdicts(slacks["i3"] >= -tol["i3"], inst)
        i3s_bound = i3_bound * math.sqrt(p)
        slacks["i3_sqrtp"] = (i3s_bound - ctx.alpha * J) / i3s_bound if inst else nan
        verdicts["i3_sqrtp"] = _verdicts(slacks["i3_sqrtp"] >= -tol["i3_sqrtp"], inst)

        # gradient lower bound and the alignment that produces it
        lower = np.where(log_J < 0, grad_lower_bound(LossValue(J, log_J), normV, L), math.nan)
        lower_applicable = inst and small_loss & (slacks["i2"] >= -tol["i2"])
        slacks["lower"] = np.where(lower > 0, (grad_norm - lower) / lower, math.nan)
        verdicts["lower"] = _verdicts(slacks["lower"] >= -tol["lower"], lower_applicable)
        align_rhs = (L + 0.75) * J * -log_J
        align_lhs = -trace.grad_dot_weights
        slacks["alignment"] = np.where(align_rhs > 0, (align_lhs - align_rhs) / align_rhs, math.nan)
        verdicts["alignment"] = _verdicts(slacks["alignment"] >= -tol["alignment"], lower_applicable)

        # gradient upper bound
        upper = grad_upper_bound(LossValue(J, log_J), normV, p, L)
        slacks["upper"] = np.where(upper > 0, (upper - grad_norm) / upper, 0.0)
        upper_applicable = grad_upper_bound_applicable(normV, L)
        verdicts["upper"] = _verdicts(slacks["upper"] >= -tol["upper"], upper_applicable)

        # weight-norm floor under the (slightly looser) 2/n^(1+24L) threshold
        slacks["floor"] = normV - weight_norm_floor(L)
        floor_applicable = log_J <= math.log(2.0) + small_loss_log_threshold(n, L)
        verdicts["floor"] = _verdicts(slacks["floor"] > tol["floor"], floor_applicable)

        # one-step descent against the next row; the last row has none
        descent_rhs = J - descent_decrease(ctx.alpha, grad_norm, L)
        slacks["descent"] = np.append((descent_rhs[:-1] - J[1:]) / J[:-1], math.nan)
        descent_applicable = inst and small_loss & (verdicts["i3"] == "pass") & (t < k)
        verdicts["descent"] = _verdicts(slacks["descent"] >= -tol["descent"], descent_applicable)

    return Trajectory(
        t=t,
        loss=J,
        log_loss=log_J,
        grad_norm=grad_norm,
        weight_norm=normV,
        lower_bound=lower,
        upper_bound=upper,
        rate_bound=rate_bound,
        phase=np.full(k, phase),
        slacks=slacks,
        verdicts=verdicts,
    )


# ---------------------------------------------------------------------------
# trajectory containers and serialization


@dataclass
class RunLog:
    config_echo: dict
    records: Trajectory | None = None
    summary: dict = field(default_factory=dict)

    @property
    def phase_boundary(self) -> int | None:
        """The first row belonging to phase 2, None if no row does."""
        second = [] if self.records is None else np.flatnonzero(self.records.phase == 2)
        return int(second[0]) if len(second) else None


def summarize(records: Trajectory) -> dict:
    """Worst slack (earliest row on ties), first violation, and verdict
    counts per check."""
    out: dict = {"invariants": {}, "failed": False}
    for key in TOLERANCES:
        verdicts, slacks = records.verdicts[key], records.slacks[key]
        ranked = np.where((verdicts != "na") & ~np.isnan(slacks), slacks, math.inf)
        worst = int(np.argmin(ranked)) if len(ranked) and ranked.min() < math.inf else None
        fails = np.flatnonzero(verdicts == "fail")
        first_fail = int(records.t[fails[0]]) if len(fails) else None
        out["invariants"][key] = {
            "worst_slack": None if worst is None else float(slacks[worst]),
            "worst_slack_step": None if worst is None else int(records.t[worst]),
            "first_violation_step": first_fail,
            "counts": {v: int(np.count_nonzero(verdicts == v)) for v in ("pass", "fail", "na")},
        }
        if first_fail is not None:
            out["failed"] = True
    if len(records):
        out["final_loss"] = float(records.loss[-1])
        out["final_log_loss"] = float(records.log_loss[-1])
        out["steps"] = len(records)
    return out


def write_csv(records: Trajectory, path: str | Path) -> None:
    """One row per step, fixed column order (see CSV_COLUMNS / README).

    Floats are written with `repr` of Python floats (shortest round trip).
    """
    floats = (
        records.loss,
        records.log_loss,
        records.grad_norm,
        records.weight_norm,
        records.lower_bound,
        records.upper_bound,
        records.rate_bound,
    )
    columns = [
        records.t.tolist(),
        *([repr(x) for x in col.tolist()] for col in floats),
        *(records.verdicts[k].tolist() for k in ("i1", "i2", "i3", "descent", "alignment")),
        records.phase.tolist(),
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(zip(*columns))


def write_summary_json(runlog: RunLog, path: str | Path) -> None:
    doc = {
        **runlog.config_echo,
        "phase_boundary": runlog.phase_boundary,
        "summary": runlog.summary,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
