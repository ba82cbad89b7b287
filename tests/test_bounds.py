import math
from dataclasses import replace

import numpy as np
import pytest

from boundbench.activations import huberized, swish
from boundbench.bounds import (
    CHECK_KEYS,
    CSV_COLUMNS,
    PhaseTrace,
    RunContext,
    compute_alpha_max,
    compute_h_max,
    compute_q_tilde,
    grad_lower_bound,
    grad_upper_bound,
    monitor_transition,
    resolve_context,
    smoothness_bound,
    summarize,
    weight_norm_floor,
    write_csv,
)
from boundbench import harness, ntk
from boundbench.linalg import WeightStack, frobenius_norm
from boundbench.network import Dataset, LossValue, logistic, total_loss
from reference_monitor import monitor_rows
from reference_monitor import summarize as reference_summarize
from stack_helpers import gradient_reference, probe_local_lipschitz, zero_stack

# 50-digit reference evaluations of the closed forms, frozen
H_MAX_EXAMPLE = 0.019188209108283714  # L=1, p=4, ||V1||=30, J1=1e-12
ALPHA_TERM_SMOOTH = 9.3027215744551135e-07  # h=0.01 branch
ALPHA_TERM_RATE = 288691372976.96009
Q_TILDE_EXAMPLE = 1.611188009971733e-18
GRAD_LOWER_EXAMPLE = 1.5197061613760702e-11  # L=2, ||V||=5, J=1e-12
SMOOTH_EXAMPLE = 3359232.0  # J=0.25, ||V||=3, p=4, L=1, h=0.5


def loss(v: float) -> LossValue:
    return LossValue(float(v), math.log(v) if v > 0 else -math.inf)


# ---------------------------------------------------------------------------
# closed-form constants


def test_h_max_example_value():
    assert compute_h_max(loss(1e-12), p=4, L=1, normV1=30.0) == pytest.approx(
        H_MAX_EXAMPLE, rel=1e-12
    )


def test_h_max_clamps_at_one():
    # small width and tiny loss push the raw expression above 1
    assert compute_h_max(loss(1e-300), p=1, L=1, normV1=1.0) == 1.0


def test_h_max_homogeneity_in_initial_norm():
    a = compute_h_max(loss(1e-12), p=4, L=1, normV1=30.0)
    b = compute_h_max(loss(1e-12), p=4, L=1, normV1=60.0)
    assert b == pytest.approx(a / 2.0, rel=1e-12)


def test_h_max_rejects_loss_at_least_one():
    with pytest.raises(ValueError):
        compute_h_max(loss(1.0), p=4, L=1, normV1=30.0)


def test_alpha_max_is_min_of_both_terms():
    got = compute_alpha_max(0.01, loss(1e-12), p=4, L=1, normV1=30.0)
    assert got == pytest.approx(min(ALPHA_TERM_SMOOTH, ALPHA_TERM_RATE), rel=1e-10)


def test_alpha_max_linear_in_h_on_smooth_branch():
    a1 = compute_alpha_max(0.005, loss(1e-12), p=4, L=1, normV1=30.0)
    a2 = compute_alpha_max(0.01, loss(1e-12), p=4, L=1, normV1=30.0)
    assert a2 == pytest.approx(2.0 * a1, rel=1e-12)


def test_alpha_max_enforces_h_window():
    with pytest.raises(ValueError):
        compute_alpha_max(0.5, loss(1e-12), p=4, L=1, normV1=30.0)  # above h_max
    with pytest.raises(ValueError):
        compute_alpha_max(0.0, loss(1e-12), p=4, L=1, normV1=30.0)


def test_q_tilde_numeric_and_linearity():
    alpha = ALPHA_TERM_SMOOTH
    got = compute_q_tilde(alpha, loss(1e-12), L=1, normV1=30.0)
    assert got == pytest.approx(Q_TILDE_EXAMPLE, rel=1e-10)
    assert compute_q_tilde(2 * alpha, loss(1e-12), L=1, normV1=30.0) == pytest.approx(
        2 * got, rel=1e-12
    )


def test_q_tilde_tracks_loss_structure():
    # Q ~ J1 * log^(2/L)(1/J1) at fixed alpha
    alpha = 1e-7
    for j in (1e-6, 1e-10):
        expected = (
            1 * 1.75**2 * alpha * j * math.log(1 / j) ** 2 / (1.5 * 30.0**2)
        )
        assert compute_q_tilde(alpha, loss(j), L=1, normV1=30.0) == pytest.approx(
            expected, rel=1e-12
        )


def test_theory_constants_echo_inputs():
    c = resolve_context(loss(1e-12), 30.0, p=4, L=1, n=3, h=0.01)
    assert c.h_max == pytest.approx(H_MAX_EXAMPLE, rel=1e-12)
    assert c.alpha_max == pytest.approx(ALPHA_TERM_SMOOTH, rel=1e-10)
    assert c.q_tilde == pytest.approx(Q_TILDE_EXAMPLE, rel=1e-10)
    assert (c.p, c.L, c.n, c.h, c.normV1, c.J1.value) == (4, 1, 3, 0.01, 30.0, 1e-12)
    assert c.alpha == c.alpha_max


@pytest.mark.parametrize("alpha", [None, 1e-7])
def test_resolve_context_constants_equal_the_closed_forms(alpha):
    J1, normV1, p, L, h = loss(1e-12), 30.0, 4, 1, 0.01
    ctx = resolve_context(J1, normV1, p, L, 3, h, alpha=alpha)
    assert ctx.instrumented
    assert ctx.h_max == compute_h_max(J1, p, L, normV1)
    assert ctx.alpha_max == compute_alpha_max(h, J1, p, L, normV1)
    assert ctx.alpha == (ctx.alpha_max if alpha is None else alpha)
    assert ctx.q_tilde == compute_q_tilde(ctx.alpha, J1, L, normV1)


@pytest.mark.parametrize(
    "J1, normV1, h",
    [(loss(1.0), 30.0, 0.01), (loss(2.0), 30.0, 0.01), (loss(1e-12), 0.0, 0.01), (loss(1e-12), 30.0, 0.02)],
    ids=["loss_one", "loss_above_one", "zero_norm", "h_above_h_max"],
)
def test_resolve_context_outside_the_regime_is_uninstrumented(J1, normV1, h):
    ctx = resolve_context(J1, normV1, p=4, L=1, n=3, h=h, alpha=0.1)
    assert not ctx.instrumented
    assert (ctx.h_max, ctx.alpha_max, ctx.q_tilde) == (None, None, None)
    assert ctx.alpha == 0.1
    with pytest.raises(ValueError, match="no admissible step size"):
        resolve_context(J1, normV1, p=4, L=1, n=3, h=h)


# ---------------------------------------------------------------------------
# per-state bounds


def test_grad_lower_bound_unit_case():
    # J = 1/e makes log(1/J) = 1
    assert grad_lower_bound(loss(1 / math.e), normVt=1.0, L=1) == pytest.approx(
        1.75 / math.e, rel=1e-14
    )


def test_grad_lower_bound_tiny_loss_uses_log_channel():
    assert grad_lower_bound(loss(1e-12), normVt=5.0, L=2) == pytest.approx(
        GRAD_LOWER_EXAMPLE, rel=1e-12
    )
    # the log channel survives where value-space log would degrade
    tiny = logistic(np.array([500.0])).loss
    got = grad_lower_bound(tiny, normVt=5.0, L=2)
    assert got == pytest.approx(2.75 * tiny.value * 500.0 / 5.0, rel=1e-10)


def test_grad_lower_bound_monotone_in_depth():
    vals = [grad_lower_bound(loss(1e-6), 2.0, L) for L in (1, 2, 3)]
    assert vals[0] < vals[1] < vals[2]


def test_grad_upper_bound_clamps_loss():
    big = grad_upper_bound(loss(7.0), normV=2.0, p=1, L=1)
    assert big == grad_upper_bound(loss(1.0), normV=2.0, p=1, L=1)
    assert grad_upper_bound(loss(0.1), normV=2.0, p=1, L=1) == pytest.approx(
        math.sqrt(2) * 4.0 * 0.1, rel=1e-14
    )


def test_smoothness_bound_scalings():
    base = smoothness_bound(loss(0.25), normV=3.0, p=4, L=1, h=0.5)
    assert base == pytest.approx(SMOOTH_EXAMPLE, rel=1e-12)
    assert smoothness_bound(loss(0.5), 3.0, 4, 1, 0.5) == pytest.approx(2 * base)
    assert smoothness_bound(loss(0.25), 3.0, 4, 1, 0.25) == pytest.approx(2 * base)


def test_weight_norm_floor_values():
    assert weight_norm_floor(1) == pytest.approx(math.sqrt(2.0))
    assert weight_norm_floor(3) == 2.0
    with pytest.raises(ValueError):
        weight_norm_floor(0)


# ---------------------------------------------------------------------------
# monitor semantics


def make_context(J1=1e-13, normV1=10.0, p=4, L=1, n=3, h=None, alpha=None):
    J1 = loss(J1)
    h = h if h is not None else compute_h_max(J1, p, L, normV1) / 2
    return resolve_context(J1, normV1, p, L, n, h, alpha=alpha)


def make_trace(*rows):
    """A PhaseTrace from (J, grad_norm, weight_norm[, grad_dot_weights]) rows."""
    Js, grad_norms, weight_norms, dots = [], [], [], []
    for J, grad_norm, weight_norm, *align in rows:
        J = loss(J) if not isinstance(J, LossValue) else J
        Js.append(J)
        grad_norms.append(grad_norm)
        weight_norms.append(weight_norm)
        dots.append(align[0] if align else -2.0 * 1.75 * J.value * J.log_inverse())
    return PhaseTrace(
        loss=np.array([J.value for J in Js]),
        log_loss=np.array([J.log_value for J in Js]),
        grad_norm=np.array(grad_norms),
        weight_norm=np.array(weight_norms),
        grad_dot_weights=np.array(dots),
        drift=np.zeros(len(rows)),
    )


def test_monitor_first_step_rate_is_equality():
    ctx = make_context()
    rec = monitor_transition(make_trace((ctx.J1, 1e-12, ctx.normV1)), ctx, 1)
    assert rec.verdicts["i1"][0] == "pass"
    assert rec.slacks["i1"][0] == 0.0
    assert rec.verdicts["i2"][0] == "pass"
    assert rec.verdicts["descent"][0] == "na"  # no next row


def test_monitor_flags_not_applicable_outside_regime():
    # J above the small-loss threshold switches the conditional checks to
    # not-applicable rather than failing them
    ctx = make_context()
    rec = monitor_transition(make_trace((0.5, 1.0, 0.5)), ctx, 1)
    assert rec.verdicts["lower"][0] == "na"
    assert rec.verdicts["alignment"][0] == "na"
    assert rec.verdicts["floor"][0] == "na"
    assert rec.verdicts["upper"][0] == "na"  # ||V|| below sqrt(L+1/2)
    # the unconditional rate checks legitimately fail at this state: the
    # loss sits far above the schedule; that is a finding, not a false alarm
    assert rec.verdicts["i1"][0] == "fail"


@pytest.mark.parametrize(
    "change",
    [{"h": 0.0}, {"h": -0.01}, {"h": math.nan}, {"h_max": 2.0}, {"h_max": math.nan}, "h above h_max"],
)
def test_context_refuses_constants_outside_the_width_hypothesis(change):
    # the monitor reads `instrumented` as 0 < h <= h_max <= 1 and tests neither end again
    ctx = make_context()
    if change == "h above h_max":
        change = {"h": float(np.nextafter(ctx.h_max, 1.0))}
    with pytest.raises(ValueError, match="h_max"):
        replace(ctx, **change)
    replace(ctx, h=ctx.h_max)  # the closed end is admissible


def uninstrumented_context():
    return RunContext(p=4, L=1, n=3, h=0.01, alpha=0.1, J1=loss(0.9), normV1=3.0)


def test_monitor_uninstrumented_context_reports_na():
    ctx = uninstrumented_context()
    rec = monitor_transition(make_trace((0.5, 1.0, 3.0), (0.4, 1.0, 3.0)), ctx, 1)
    for key in ("i1", "i2", "i3", "descent", "lower", "alignment"):
        assert rec.verdicts[key][0] == "na"
    assert rec.verdicts["upper"][0] != "na"


def test_monitor_records_violation_without_aborting():
    ctx = make_context()
    oversized = replace(ctx, alpha=10 * ctx.alpha_max)
    rec = monitor_transition(make_trace((ctx.J1, 1e-12, ctx.normV1)), oversized, 1)
    assert rec.verdicts["i3"][0] == "fail"
    assert rec.slacks["i3"][0] < 0


def test_monitor_descent_inequality_checked_against_next_state():
    ctx = make_context()
    J1v = ctx.J1.value
    g = 1e-9  # large enough that the required drop dwarfs the slack tolerance
    drop = (ctx.L / (ctx.L + 0.5)) * ctx.alpha * g * g
    assert drop / J1v > 1e-9
    first = (ctx.J1, g, ctx.normV1)
    good = make_trace(first, (J1v - 2 * drop, g, ctx.normV1))
    bad = make_trace(first, (J1v - 0.25 * drop, g, ctx.normV1))
    assert monitor_transition(good, ctx, 1).verdicts["descent"].tolist() == ["pass", "na"]
    assert monitor_transition(bad, ctx, 1).verdicts["descent"].tolist() == ["fail", "na"]


def test_summarize_tracks_worst_slack_and_first_violation():
    ctx = make_context()
    trace = make_trace(
        (ctx.J1, 1e-12, ctx.normV1),
        (ctx.J1.value * 1.5, 1e-12, ctx.normV1),  # loss rose: i1 violated at t=2
    )
    summary = summarize(monitor_transition(trace, ctx, 1))
    assert summary["failed"]
    assert summary["invariants"]["i1"]["first_violation_step"] == 2
    assert summary["invariants"]["i1"]["worst_slack"] < 0
    assert summary["invariants"]["i1"]["counts"] == {"pass": 1, "fail": 1, "na": 0}


def test_summarize_takes_the_earliest_row_on_tied_slacks():
    ctx = make_context()
    row = (ctx.J1, 1e-12, ctx.normV1)
    summary = summarize(monitor_transition(make_trace(row, row, row), ctx, 1))
    # every row has the same i3 slack; the first one is reported
    assert summary["invariants"]["i3"]["worst_slack_step"] == 1
    assert summary["invariants"]["descent"]["counts"]["na"] == 1


def test_csv_columns_and_determinism(tmp_path):
    ctx = make_context()
    trace = make_trace(
        (ctx.J1, 1e-12, ctx.normV1), (ctx.J1.value * 0.999, 1e-12, ctx.normV1)
    )
    recs = monitor_transition(trace, ctx, 1)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(recs, a)
    write_csv(recs, b)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    # floats are written as Python reprs, never as numpy scalar reprs
    fields = lines[1].split(",")
    assert fields[0] == "1" and fields[-1] == "1"
    assert float(fields[1]) == ctx.J1.value and "np." not in a.read_text()


# ---------------------------------------------------------------------------
# columnar monitor against the per-step reference


def assert_matches_reference(traj, trace, ctx, phase):
    ref = monitor_rows(trace, ctx, phase)
    assert len(traj) == len(ref)
    assert traj.t.tolist() == [r.t for r in ref]
    assert traj.phase.tolist() == [phase] * len(ref)
    for key in CHECK_KEYS:
        assert traj.verdicts[key].tolist() == [r.verdicts[key].value for r in ref], key
    for key in CHECK_KEYS:
        np.testing.assert_allclose(
            traj.slacks[key],
            [r.slacks[key] for r in ref],
            rtol=0,
            atol=1e-13,
            equal_nan=True,
            err_msg=key,
        )
    # the CSV columns are the same numbers, so the file bytes are too
    for col in ("lower_bound", "upper_bound", "rate_bound"):
        np.testing.assert_array_equal(getattr(traj, col), [getattr(r, col) for r in ref])
    ours, theirs = summarize(traj), reference_summarize(ref, CHECK_KEYS)
    for key in CHECK_KEYS:
        a, b = ours["invariants"][key], theirs["invariants"][key]
        assert a["counts"] == b["counts"], key
        assert a["worst_slack_step"] == b["worst_slack_step"], key
        assert a["first_violation_step"] == b["first_violation_step"], key
        if b["worst_slack"] is None:
            assert a["worst_slack"] is None
        else:
            assert a["worst_slack"] == pytest.approx(b["worst_slack"], rel=0, abs=1e-13)
    assert (ours["failed"], ours["steps"]) == (theirs["failed"], theirs["steps"])


@pytest.mark.parametrize("instrumented", [True, False])
def test_columnar_monitor_matches_reference_on_edge_rows(instrumented):
    instrumented_ctx = make_context()
    ctx = instrumented_ctx if instrumented else uninstrumented_context()
    J1, normV1 = instrumented_ctx.J1, instrumented_ctx.normV1
    # the value channel underflowed to 0 while J log(1/J) = exp(-741.4) did not
    underflow = LossValue(value=0.0, log_value=-748.0)
    trace = make_trace(
        (J1, 1e-12, normV1),
        (J1.value * 1.5, 1e-12, normV1),  # loss rose: I2 fails, so no lower bound check
        (J1.value * 0.5, 1e-12, 0.5 * math.sqrt(ctx.L + 0.5)),  # ||V|| < sqrt(L+1/2)
        (J1.value * 0.5, 1e-12, weight_norm_floor(ctx.L)),  # exactly on the strict floor
        (1.5, 1.0, normV1),  # loss above 1: no lower bound at all
        (underflow, 1e-300, normV1, -1e-300),  # no successor
    )
    traj = monitor_transition(trace, ctx, 1)
    assert_matches_reference(traj, trace, ctx, 1)
    assert traj.verdicts["upper"][2] == "na"
    assert math.isnan(traj.lower_bound[4])
    assert traj.upper_bound[5] == 0.0 and traj.slacks["upper"][5] == 0.0
    assert traj.verdicts["upper"][5] == "pass"
    assert traj.lower_bound[5] > 0.0
    assert traj.verdicts["descent"][5] == "na"
    if instrumented:
        assert traj.verdicts["i2"][1] == "fail" and traj.verdicts["lower"][1] == "na"
        assert traj.verdicts["floor"][3] == "fail"


def test_columnar_monitor_matches_reference_on_random_rows():
    # numpy's own pow and log1p differ from libm's in the last bit on a few
    # percent of these rows; the CSV columns must not
    ctx = make_context(J1=1e-13, normV1=10.0, p=8, L=2)
    rng = np.random.default_rng(3)
    rows = zip(
        1e-13 * rng.uniform(0.5, 1.5, 400), rng.uniform(1e-14, 1e-11, 400), rng.uniform(5.0, 20.0, 400)
    )
    trace = make_trace(*rows)
    assert_matches_reference(monitor_transition(trace, ctx, 1), trace, ctx, 1)


@pytest.fixture
def monitor_calls(monkeypatch):
    """Every (trace, ctx, phase, trajectory) the harness and the two-phase
    schedule pass through the monitor."""
    calls = []

    def spy(trace, ctx, phase):
        traj = monitor_transition(trace, ctx, phase)
        calls.append((trace, ctx, phase, traj))
        return traj

    monkeypatch.setattr(harness, "monitor_transition", spy)
    monkeypatch.setattr(ntk, "monitor_transition", spy)
    return calls


def theorem31_config(p, L, alpha="auto"):
    return {
        "mode": "theorem31",
        "network": {"p": p, "L": L, "activation": "huberized", "h": "auto"},
        "data": {"clustered": {"r": 0.05, "n": 3}},
        "optimizer": {"alpha": alpha, "max_steps": 200},
        "init": {"warmup_steps": 3000, "warmup_alpha": 0.5, "target_loss": "auto"},
        "seeds": {"init": 0, "data": 1, "probes": 2},
        "output": {"dir": None},
    }


@pytest.mark.parametrize("case", ["p4_L1", "p8_L2", "negative_control", "two_phase"])
def test_columnar_monitor_matches_reference_on_runs(monitor_calls, case):
    if case == "p4_L1":
        doc = theorem31_config(4, 1)
    elif case == "p8_L2":
        doc = theorem31_config(8, 2)
    elif case == "negative_control":
        probe, _ = harness.run(harness.parse_config(theorem31_config(4, 1)))
        doc = theorem31_config(4, 1, alpha=10.0 * probe.config_echo["resolved"]["alpha_max"])
        monitor_calls.clear()
    else:
        doc = {
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
    runlog, status = harness.run(harness.parse_config(doc))
    for trace, ctx, phase, traj in monitor_calls:
        assert_matches_reference(traj, trace, ctx, phase)
    if case == "two_phase":
        assert [c[2] for c in monitor_calls] == [1, 2]
        assert len(runlog.records) == sum(len(c[3]) for c in monitor_calls)
    else:
        # one monitor call; the lookahead row only feeds the last descent check
        assert [len(c[0]) for c in monitor_calls] == [201]
        assert len(runlog.records) == 200
    assert status == (1 if case == "negative_control" else 0)


# ---------------------------------------------------------------------------
# local Lipschitz probe


def test_probe_requires_sane_arguments():
    V = zero_stack(2, 1)
    data = Dataset(inputs=np.eye(2), labels=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        probe_local_lipschitz(V, huberized(0.5), data, radius=0.0)
    with pytest.raises(ValueError):
        probe_local_lipschitz(V, huberized(0.5), data, radius=0.1, k=1)


def test_probe_matches_fd_hessian_on_scalar_network():
    V = WeightStack(hidden=(np.array([[1.3]]),), outer=np.array([[0.9]]))
    act = swish(0.8)
    data = Dataset(inputs=np.array([[1.0]]), labels=np.array([1.0]))

    def grad_vec(a, b):
        stack = WeightStack(hidden=(np.array([[a]]),), outer=np.array([[b]]))
        g = gradient_reference(stack, act, data)
        return np.array([g.hidden[0][0, 0], g.outer[0, 0]])

    eps = 1e-5
    H = np.column_stack(
        [
            (grad_vec(1.3 + eps, 0.9) - grad_vec(1.3 - eps, 0.9)) / (2 * eps),
            (grad_vec(1.3, 0.9 + eps) - grad_vec(1.3, 0.9 - eps)) / (2 * eps),
        ]
    )
    spectral = float(np.linalg.norm(H, 2))
    probe = probe_local_lipschitz(V, act, data, radius=1e-6, k=60, seed=4)
    assert probe == pytest.approx(spectral, rel=0.1)
    assert probe <= spectral * (1 + 1e-6)


def test_probe_sits_below_smoothness_bound_in_regime():
    rng = np.random.default_rng(17)
    p, L = 3, 1
    V = WeightStack(
        hidden=(rng.standard_normal((p, p)) * 2,), outer=rng.standard_normal((1, p)) * 2
    )
    act = huberized(0.5)
    data = Dataset(inputs=rng.standard_normal((3, p)), labels=np.array([1.0, -1.0, 1.0]))
    J = total_loss(V, act, data)
    normV = frobenius_norm(V)
    assert normV >= math.sqrt(L + 0.5)
    bound = smoothness_bound(J, normV, p, L, act.h)
    probe = probe_local_lipschitz(V, act, data, radius=1e-5, k=10, seed=5)
    assert probe <= bound * (1 + 1e-6)
