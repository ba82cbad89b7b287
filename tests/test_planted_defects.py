"""Planted defects: which monitored check catches which bug.

The acceptance criteria show that the checks pass on correct code; these
mutants show which of them fail on wrong code. Each mutant is switched on
by monkeypatching and runs a headline `theorem31` config end to end at
200 steps, so the start-up is the real one.

Mutant: the rate constant of the I1 bound J_1/(q_tilde (t-1)+1) scaled by
c > 1, by patching `harness.resolve_context` so the `theorem31` context
carries c * q_tilde. A larger constant claims a faster rate than the
analysis gives; only a rate the run does not reach can be caught.

Known gaps are mutants no check catches today. The test fails when one
becomes caught, so that the list stays true: move it to CAUGHT then.
"""

import dataclasses

from boundbench import harness


def headline_config(p, L):
    return {
        "mode": "theorem31",
        "network": {"p": p, "L": L, "activation": "huberized", "h": "auto"},
        "data": {"clustered": {"r": 0.05, "n": 3}},
        "optimizer": {"alpha": "auto", "max_steps": 200},
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
