"""The kernel's monitored columns against a 60-digit reference.

The runs are the planted-defect matrix's three `theorem31` configs, cut to
`ROWS` monitored steps. Each row's point (u1, tail) is read exactly from
the floats the step kernel was given, and J, log J and the gradient norm
are formed again in `decimal_reference`. The deep p=8, L=6, n=24 config is
the one whose gradient's squares underflow unless the kernel scales it by
2^k: there `descent`'s predicted decrease is checked too, which squares a
norm near 1e-198.
"""

from decimal import Decimal

import pytest

from boundbench import bounds, harness, ntk
from decimal_reference import descent_decrease, kernel
from test_planted_defects import RUNS

ROWS = 3


@pytest.mark.parametrize("run", RUNS)
def test_kernel_columns_agree_with_a_60_digit_reference(monkeypatch, run):
    points, monitored = [], []
    real_kernel, real_monitor = ntk.loss_and_gradient, harness.monitor_transition

    def recording(point, act, data):
        points.append((point[0].copy(), point[1]))  # u1 lives in a buffer the next step rewrites
        return real_kernel(point, act, data)

    def spy(trace, ctx, phase):
        monitored.append((trace, ctx))
        return real_monitor(trace, ctx, phase)

    monkeypatch.setattr(ntk, "loss_and_gradient", recording)
    monkeypatch.setattr(harness, "monitor_transition", spy)
    config = harness.parse_config({**RUNS[run], "optimizer": {"alpha": "auto", "max_steps": ROWS}})
    runlog, status = harness.run(config)
    data = harness.build_dataset(config)
    (trace, ctx), = monitored
    assert status == 0 and len(trace) == ROWS + 1
    columns = {"J": trace.loss, "log J": trace.log_loss, "grad_norm": trace.grad_norm}
    if run == "p8_L6":
        columns["descent decrease"] = bounds.descent_decrease(ctx.alpha, trace.grad_norm, ctx.L)
    worst = dict.fromkeys(columns, 0.0)
    for row, (u1, tail) in enumerate(points[-len(trace) :]):
        ref = kernel(data.inputs, data.labels, u1, tail, ctx.h)
        wanted = {"J": ref.loss, "log J": ref.log_loss, "grad_norm": ref.grad_norm}
        if "descent decrease" in columns:
            wanted["descent decrease"] = descent_decrease(ctx.alpha, ref.grad_norm, ctx.L)
        for name, value in wanted.items():
            assert value != 0
            worst[name] = max(worst[name], float(abs((Decimal(float(columns[name][row])) - value) / value)))
    print(f"\n{run}: largest relative error, {len(trace)} rows: " + ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))
    assert max(worst.values()) <= 1e-12
