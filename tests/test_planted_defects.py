"""Planted defects: which monitored check catches which bug.

The acceptance criteria show that the checks pass on correct code; these
mutants show which of them fail on wrong code. Each mutant is switched on
by monkeypatching and runs a headline `theorem31` config end to end at
200 steps, so the start-up is the real one.

Mutant: the rate constant of the I1 bound J_1/(q_tilde (t-1)+1) scaled by
c > 1, by patching `harness.resolve_context` so the `theorem31` context
carries c * q_tilde. A larger constant claims a faster rate than the
analysis gives; only a rate the run does not reach can be caught.

Mutants in the update step, switched on only in the monitored
`run_phase` call (the one of max_steps + 1 steps), while the start-up
(warmup, width fixed point and scale bisection) is built once per run:
- the gradient that `loss_and_gradient` returns scaled by m, so the step
  and the monitored columns both see it;
- the tail gradient (layers 2..L and the outer row) alone scaled by m;
- the tail's step in `descent_sweep` taken at m * alpha, while the monitor
  is told alpha.

Known gaps are mutants no check catches today. The test fails when one
becomes caught, so that the list stays true: move it to CAUGHT (or
STEP_CAUGHT) then.
"""

import dataclasses

import numpy as np
import pytest

from boundbench import harness, ntk

MAX_STEPS = 200


def headline_config(p, L):
    return {
        "mode": "theorem31",
        "network": {"p": p, "L": L, "activation": "huberized", "h": "auto"},
        "data": {"clustered": {"r": 0.05, "n": 3}},
        "optimizer": {"alpha": "auto", "max_steps": MAX_STEPS},
        "init": {"warmup_steps": 3000, "warmup_alpha": 0.5, "target_loss": "auto"},
        "seeds": {"init": 0, "data": 1, "probes": 2},
        "output": {"dir": None},
    }


RUNS = {"p4_L1": (4, 1), "p8_L2": (8, 2)}
# (run, c) -> the checks that must fail, with exit status 1
CAUGHT = {
    ("p4_L1", 100.0): {"i1"},
    ("p8_L2", 1e12): {"i1"},
}
# (run, c) that exit 0 with no failed check. At p4_L1 the loss falls faster
# than the bound at twice q_tilde. At p8_L2 the loss does not fall at all,
# but c q_tilde (t-1) stays far below the 1e-12 tolerance on the log slack.
KNOWN_GAPS = {
    ("p4_L1", 2.0),
    ("p8_L2", 1e4),
}


def run_with_scaled_rate(monkeypatch, run, c):
    """(exit status, failed checks, worst i1 slack) of `run` with c * q_tilde."""
    real = harness.resolve_context

    def scaled(*args, **kwargs):
        ctx = real(*args, **kwargs)
        return dataclasses.replace(ctx, q_tilde=c * ctx.q_tilde)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "resolve_context", scaled)
        runlog, status = harness.run(harness.parse_config(headline_config(*RUNS[run])))
    invariants = runlog.summary["invariants"]
    failed = {key: v["counts"]["fail"] for key, v in invariants.items() if v["counts"]["fail"]}
    return status, failed, invariants["i1"]["worst_slack"]


def test_scaled_rate_constant_matrix(monkeypatch):
    rows = {}
    print("\nmutant: rate constant c * q_tilde")
    for run, c in sorted(CAUGHT.keys() | KNOWN_GAPS):
        status, failed, worst_i1 = rows[run, c] = run_with_scaled_rate(monkeypatch, run, c)
        caught = ", ".join(f"{key} ({count})" for key, count in sorted(failed.items())) or "none"
        print(f"  {run} c={c:g}: exit {status}, fails {caught}, worst i1 slack {worst_i1:.3g}")
    for mutant, checks in CAUGHT.items():
        status, failed, _ = rows[mutant]
        assert status == 1 and checks <= failed.keys(), mutant
    for mutant in KNOWN_GAPS:
        status, failed, _ = rows[mutant]
        assert status == 0 and not failed, f"{mutant} is caught now: move it to CAUGHT"


def scaled_gradient(m, tail_only=False):
    def switch(patch):
        real = ntk.loss_and_gradient

        def mutated(*args):
            loss, log_loss, C, tail_grad = real(*args)
            return loss, log_loss, C if tail_only else m * C, m * tail_grad

        patch.setattr(ntk, "loss_and_gradient", mutated)

    return switch


def scaled_tail_step(m):
    def switch(patch):
        real = ntk.descent_sweep
        patch.setattr(ntk, "descent_sweep", lambda tail, grad, anchor, alpha: real(tail, grad, anchor, m * alpha))

    return switch


STEP_MUTANTS = {
    "none": lambda patch: None,
    **{f"gradient x{m:g}": scaled_gradient(m) for m in (-1.0, 0.5, 1e-3, 10.0, 1e6)},
    **{f"tail gradient x{m:g}": scaled_gradient(m, tail_only=True) for m in (0.0, -1.0)},
    **{f"tail step at {m:g} alpha": scaled_tail_step(m) for m in (0.0, 0.5, 2.0, 100.0, -1.0)},
}
# (run, mutant) -> the checks that must fail, with exit status 1
STEP_CAUGHT = {
    ("p4_L1", "gradient x-1"): {"alignment", "i1", "i3"},
    ("p8_L2", "gradient x-1"): {"alignment"},
    ("p4_L1", "gradient x0.5"): {"alignment"},
    ("p8_L2", "gradient x0.5"): {"alignment"},
    ("p4_L1", "gradient x0.001"): {"alignment", "i1", "lower"},
    ("p8_L2", "gradient x0.001"): {"alignment", "lower"},
    ("p4_L1", "gradient x10"): {"descent"},
    ("p4_L1", "gradient x1e+06"): {"descent", "upper"},
    ("p8_L2", "gradient x1e+06"): {"descent", "upper"},
    **{(run, f"tail gradient x{m:g}"): {"alignment"} for run in RUNS for m in (0.0, -1.0)},
}
# (run, mutant) that exit 0 with no failed check. At p8_L2 the step rounds
# away (the iterate never changes), so ten times the gradient predicts a
# decrease far below the descent tolerance, and no tail step, not even
# 100 alpha or -alpha, changes a bit of the trajectory. At p4_L1 the
# tail's step changes the trajectory, but no check reads the step taken.
STEP_GAPS = {
    ("p8_L2", "gradient x10"),
    *((run, f"tail step at {m:g} alpha") for run in RUNS for m in (0.0, 0.5, 2.0, 100.0, -1.0)),
}


def step_mutant_matrix():
    """(run, mutant) -> (exit status, {failed check: failing rows}, records)."""
    startups = {}  # (function, p, L) -> its result, computed once per run
    real_phase = harness.run_phase

    def once(name):
        real = getattr(harness, name)

        def cached(stack, *args):
            key = (name, stack.p, stack.depth)
            if key not in startups:
                startups[key] = real(stack, *args)
            return startups[key]

        return cached

    matrix = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "warmup", once("warmup"))
        patch.setattr(harness, "resolve_theorem31_setup", once("resolve_theorem31_setup"))
        for mutant, switch in STEP_MUTANTS.items():

            def run_phase(V, act, data, alpha, max_steps, **kwargs):
                with pytest.MonkeyPatch.context() as inner:
                    if max_steps == MAX_STEPS + 1:  # the monitored phase only
                        switch(inner)
                    return real_phase(V, act, data, alpha, max_steps, **kwargs)

            patch.setattr(harness, "run_phase", run_phase)
            for run, shape in RUNS.items():
                runlog, status = harness.run(harness.parse_config(headline_config(*shape)))
                invariants = runlog.summary["invariants"]
                failed = {key: v["counts"]["fail"] for key, v in invariants.items() if v["counts"]["fail"]}
                matrix[run, mutant] = status, failed, runlog.records
    return matrix


def test_step_mutant_matrix():
    matrix = step_mutant_matrix()
    print("\nmutant x run: exit status, failed checks (failing rows of 200)")
    for (run, mutant), (status, failed, _) in matrix.items():
        caught = ", ".join(f"{key} ({count})" for key, count in sorted(failed.items())) or "none"
        print(f"  {mutant:24} {run}: exit {status}, fails {caught}")
    assert STEP_CAUGHT.keys() | STEP_GAPS == {key for key in matrix if key[1] != "none"}
    for run in RUNS:
        assert matrix[run, "none"][:2] == (0, {})
    clean = matrix["p4_L1", "none"][2].loss
    for (run, mutant), (_, _, records) in matrix.items():
        if run == "p4_L1" and mutant != "none":  # every mutant is live where the iterate moves
            assert not np.array_equal(records.loss, clean), mutant
    for key, checks in STEP_CAUGHT.items():
        status, failed, _ = matrix[key]
        assert status == 1 and checks <= failed.keys(), key
    for key in STEP_GAPS:
        status, failed, _ = matrix[key]
        assert status == 0 and not failed, f"{key} is caught now: move it to STEP_CAUGHT"
