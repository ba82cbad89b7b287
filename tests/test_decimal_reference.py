"""The monitored columns, bounds and slacks against a 60-digit reference.

The runs are the planted-defect matrix's three `theorem31` configs, the
headline ones cut to `ROWS` monitored steps, and criterion 14's two-phase
config, both of its phases. Each row's iterate, the point (u1, tail) the
step kernel was given and the first layer's coefficients A, is read
exactly from its floats, and `decimal_reference` forms J, log J, the
gradient norm and the weight norm again, then the bounds and the slacks of
the checks. The deep p=8, L=6, n=24 config is the one whose gradient's
squares underflow unless the kernel scales it by 2^k: there `descent`'s
predicted decrease, which squares a norm near 1e-198, is checked too.

Besides the errors, the test prints a verdict-flip report per check: the
rows whose float verdict differs from the verdict of the reference slack
against the same tolerance, and the rows whose reference slack lies closer
to that threshold than the float slack's error, where rounding alone could
decide the verdict. Both are empty on every run today, and the test says
so, so that a row that appears shows.
"""

from decimal import Decimal

import pytest

from boundbench import bounds, harness, ntk
from decimal_reference import anchor, descent_decrease, kernel, monitor
from test_acceptance import TWO_PHASE_CONFIG
from test_planted_defects import RUNS, edited

ROWS = 300
CONFIGS = {
    "p4_L1": {**RUNS["p4_L1"], "optimizer": {"alpha": "auto", "max_steps": ROWS}},
    "p8_L2": {**RUNS["p8_L2"], "optimizer": {"alpha": "auto", "max_steps": ROWS}},
    "p8_L6": RUNS["p8_L6"],  # its 50 monitored steps, 51 rows with the lookahead
    "two_phase": TWO_PHASE_CONFIG,
}
COLUMNS = {  # float column of the monitor -> reference column of `monitor`
    "lower_bound": "lower", "upper_bound": "upper", "rate_bound": "rate",
}
SLACKS = {"i1": "i1", "i2": "i2", "lower": "lower slack", "upper": "upper slack", "descent": "descent"}


@pytest.fixture(scope="module")
def phases():
    """run -> (data, [(trace, ctx, records, V, [(u1, tail, A) per row])] per monitored phase),
    V the stack the phase's first layer W_1 = V_1 + A^T X is anchored at."""
    out = {}
    for run, config in CONFIGS.items():
        calls, monitored = [], []
        with pytest.MonkeyPatch.context() as patch:
            real_kernel, real_monitor = ntk.loss_and_gradient, bounds.monitor_transition

            def recording(point, act, data, coef):
                calls[-1][1].append((point[0].copy(), point[1], coef.copy()))  # u1's buffer is rewritten
                return real_kernel(point, act, data)

            def spy(trace, ctx, phase):
                records = real_monitor(trace, ctx, phase)
                monitored.append((trace, ctx, records))
                return records

            patch.setattr(ntk, "loss_and_gradient", recording)
            call = "loss_and_gradient((u1, tail), act, data"
            recorded = edited(ntk.run_phase, (call + ")", call + ", coef)"))  # the kernel sees A too

            def run_phase(V, *args, **kwargs):
                calls.append((V, []))
                return recorded(V, *args, **kwargs)

            for module in (harness, ntk):
                patch.setattr(module, "run_phase", run_phase)
                patch.setattr(module, "monitor_transition", spy)
            parsed = harness.parse_config(config)
            _, status = harness.run(parsed)
        assert status == 0
        phases = [(*m, V, rows) for m, (V, rows) in zip(monitored, calls[-len(monitored) :])]
        out[run] = harness.build_dataset(parsed), phases
    return out


@pytest.mark.parametrize("run", CONFIGS)
def test_kernel_columns_agree_with_a_60_digit_reference(phases, run):
    data, monitored = phases[run]
    worst: dict[str, float] = {}
    flips, close = {}, {}
    first_row = 1
    for trace, ctx, records, V, rows in monitored:
        assert len(rows) == len(trace)
        first = anchor(data.inputs, V)
        refs = [kernel(data.inputs, data.labels, u1, tail, ctx.h, first, A) for u1, tail, A in rows]
        ref_columns = monitor(refs, ctx.alpha, ctx.p, ctx.L)
        columns = {
            "J": (trace.loss, [r.loss for r in refs]),
            "log J": (trace.log_loss, [r.log_loss for r in refs]),
            "grad_norm": (trace.grad_norm, [r.grad_norm for r in refs]),
            "weight_norm": (trace.weight_norm, [r.weight_norm for r in refs]),
            **{name: (getattr(records, name), ref_columns[key]) for name, key in COLUMNS.items()},
        }
        if run == "p8_L6":
            columns["descent decrease"] = (
                bounds.descent_decrease(ctx.alpha, trace.grad_norm, ctx.L),
                [descent_decrease(ctx.alpha, r.grad_norm, ctx.L) for r in refs],
            )
        for name, (ours, wanted) in columns.items():
            for value, want in zip(ours.tolist(), wanted):
                if want is None or value != value:  # not formed in this phase
                    continue
                assert want != 0
                worst[name] = max(worst.get(name, 0.0), float(abs((Decimal(value) - want) / want)))
        for check, key in SLACKS.items():
            tol = Decimal(bounds.TOLERANCES[check])
            slacks = zip(records.slacks[check].tolist(), ref_columns[key], records.verdicts[check].tolist())
            for row, (value, want, verdict) in enumerate(slacks, start=first_row):
                if want is None or value != value:
                    continue
                error = abs(Decimal(value) - want)
                worst[f"slack {check}"] = max(worst.get(f"slack {check}", 0.0), float(error))
                if verdict != "na" and (verdict == "pass") != (want >= -tol):
                    flips.setdefault(check, []).append(row)
                if verdict != "na" and abs(want + tol) <= error:
                    close.setdefault(check, []).append(row)
        first_row += len(trace)
    print(f"\n{run}: {first_row - 1} rows; largest relative error of each column, absolute of each slack:")
    print("  " + ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))
    for check in SLACKS:
        print(f"  {check}: verdict flips at rows {flips.get(check, [])}; "
              f"within rounding of -tol at rows {close.get(check, [])}")
    assert not flips and not close  # none today: a row that appears is a finding to report
    assert max(worst.values()) <= 1e-12
