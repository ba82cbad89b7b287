"""Planted defects: which monitored check catches which bug.

The acceptance criteria show that the checks pass on correct code; these
mutants show which of them fail on wrong code. Each mutant is switched on
by monkeypatching and runs `theorem31` configs end to end, so the start-up
is the real one: the two headline configs at 200 steps, and at 50 steps
the deep p=8, L=6, n=24 config, whose gradient's squares underflow unless
the kernel scales it by 2^k.

Mutant: the rate constant of the I1 bound J_1/(q_tilde (t-1)+1) scaled by
c > 1, by patching `bounds.compute_q_tilde`, which the context's `q_tilde`
calls, so the monitor reads c * q_tilde. A larger constant claims a faster
rate than the analysis gives; only a rate the run does not reach can be
caught.

The other mutants run on those three configs and on criterion 14's two
two-phase configs. The instrumented one (`INSTRUMENTED_TWO_PHASE_CONFIG`,
"restart") restarts phase 2 from phase 1's argmin iterate, a start the
small-loss bisection did not build, with Theorem 3.1's checks on. The other
(`TWO_PHASE_CONFIG`, "two_phase") runs its 20 phase-2 steps at the given
alpha_phase2 0.05, uninstrumented: there only `upper` applies. The mutants
are switched on for the monitored phase only (`Monitored`: the theorem31
runs' one monitored phase, a two-phase run's phase 2), while the start-up
(warmup, width fixed point and scale bisection; the margin estimate and
phase 1) is built once per run.

Mutants in the update step, applied in the monitored `run_phase` call:
- the gradient that `loss_and_gradient` returns scaled by m, so the step
  and the monitored columns both see it;
- the tail gradient (layers 2..L and the outer row) alone scaled by m;
- the tail's step in `descent_sweep` taken at m * alpha, while the monitor
  is told alpha.
Mutants in what the monitor reads:
- `descent` pairing row t with row t + 2, and the previous iterate's weight
  norm, each an edit of `monitor_transition`'s source, used for the
  monitored phase;
- the activation's `deriv` at width 2h while `value` uses h, applied in the
  monitored `run_phase` call.
Mutants in the kernel's power-of-two scale, in the monitored phase:
- `grad_norm` scaled back by 2^-(k-1) and the step taken at alpha 2^-(k-1),
  each an edit of `run_phase`'s source: twice the norm and twice the step;
- k forced to 0, an edit of `loss_and_gradient`'s source, which leaves the
  squares of a gradient near 1e-199 to underflow and changes no bit where
  none underflows.

Known gaps are mutants no check catches today. The test fails when one
becomes caught, so that the list stays true: move it to CAUGHT (or
STEP_CAUGHT, MONITOR_CAUGHT, SCALE_CAUGHT) then.
"""

import functools
import inspect
from typing import Callable, NamedTuple

import numpy as np
import pytest

from boundbench import activations, bounds, harness, network, ntk
from test_acceptance import INSTRUMENTED_TWO_PHASE_CONFIG, TWO_PHASE_CONFIG


def theorem31_config(p, L, n=3, steps=200, warmup_steps=3000, warmup_retries=4):
    return {
        "mode": "theorem31",
        "network": {"p": p, "L": L, "activation": "huberized", "h": "auto"},
        "data": {"clustered": {"r": 0.05, "n": n}},
        "optimizer": {"alpha": "auto", "max_steps": steps},
        "init": {
            "warmup_steps": warmup_steps, "warmup_alpha": 0.5, "target_loss": "auto", "warmup_retries": warmup_retries
        },
        "seeds": {"init": 0, "data": 1, "probes": 2},
        "output": {"dir": None},
    }


# the two headline configs, and the deep one where J1 = n^-(1+24L) / 2 puts the
# gradient's entries near 1e-199, so their squares underflow unless scaled
RUNS = {
    "p4_L1": theorem31_config(4, 1),
    "p8_L2": theorem31_config(8, 2),
    "p8_L6": theorem31_config(8, 6, n=24, steps=50, warmup_steps=200, warmup_retries=1),
}


class Monitored(NamedTuple):
    """Where a run's monitored phase runs and is checked: the module whose
    `run_phase` and `monitor_transition` the run calls, a test on a
    `run_phase` call's keyword arguments that picks the monitored call, and
    the phase number `monitor_transition` is given for it."""

    module: object
    is_monitored: Callable[[dict], bool]
    phase: int


# a theorem31 run monitors the one `harness.run_phase` call given a loss
# floor; a two-phase run monitors phase 2, which `ntk.two_phase_train` runs
# from phase 1's argmin iterate
THEOREM31 = Monitored(harness, lambda kwargs: "stop_loss" in kwargs, 1)
RESTART = Monitored(ntk, lambda kwargs: "start" in kwargs, 2)
# the mutant matrix's runs: each config and where its monitored phase is
MATRIX_RUNS = {
    **{run: (config, THEOREM31) for run, config in RUNS.items()},
    "restart": (INSTRUMENTED_TWO_PHASE_CONFIG, RESTART),
    "two_phase": (TWO_PHASE_CONFIG, RESTART),
}
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
    real = bounds.compute_q_tilde

    with monkeypatch.context() as patch:
        patch.setattr(bounds, "compute_q_tilde", lambda *args: c * real(*args))
        runlog, status = harness.run(harness.parse_config(RUNS[run]))
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


def in_monitored_phase(mutation):
    """A switch that applies `mutation` inside a run's monitored `run_phase`
    call only (see `Monitored`)."""

    def switch(patch, where):
        real_phase = where.module.run_phase

        def run_phase(V, act, data, alpha, max_steps, **kwargs):
            with pytest.MonkeyPatch.context() as inner:
                if where.is_monitored(kwargs):
                    mutation(inner)
                return real_phase(V, act, data, alpha, max_steps, **kwargs)

        patch.setattr(where.module, "run_phase", run_phase)

    return switch


def scaled_gradient(m, tail_only=False):
    def mutation(patch):
        real = ntk.loss_and_gradient

        def mutated(*args):
            loss, log_loss, C, tail_grad, k = real(*args)
            return loss, log_loss, C if tail_only else m * C, m * tail_grad, k

        patch.setattr(ntk, "loss_and_gradient", mutated)

    return in_monitored_phase(mutation)


def scaled_tail_step(m):
    def mutation(patch):
        real = ntk.descent_sweep
        patch.setattr(ntk, "descent_sweep", lambda tail, grad, anchor, alpha: real(tail, grad, anchor, m * alpha))

    return in_monitored_phase(mutation)


STEP_MUTANTS = {
    **{f"gradient x{m:g}": scaled_gradient(m) for m in (-1.0, 0.5, 1e-3, 10.0, 1e6)},
    **{f"tail gradient x{m:g}": scaled_gradient(m, tail_only=True) for m in (0.0, -1.0)},
    **{f"tail step at {m:g} alpha": scaled_tail_step(m) for m in (0.0, 0.5, 2.0, 100.0, -1.0)},
}
# (run, mutant) -> the checks that must fail, with exit status 1
STEP_CAUGHT = {
    ("p4_L1", "gradient x-1"): {"alignment", "i1", "i3"},
    ("p8_L2", "gradient x-1"): {"alignment"},
    ("p8_L6", "gradient x-1"): {"alignment"},
    ("p4_L1", "gradient x0.5"): {"alignment"},
    ("p8_L2", "gradient x0.5"): {"alignment"},
    ("p8_L6", "gradient x0.5"): {"alignment"},
    ("p4_L1", "gradient x0.001"): {"alignment", "i1", "lower"},
    ("p8_L2", "gradient x0.001"): {"alignment", "lower"},
    ("p8_L6", "gradient x0.001"): {"alignment", "lower"},
    ("p4_L1", "gradient x10"): {"descent"},
    ("p4_L1", "gradient x1e+06"): {"descent", "upper"},
    ("p8_L2", "gradient x1e+06"): {"descent", "upper"},
    **{(run, f"tail gradient x{m:g}"): {"alignment"} for run in RUNS for m in (0.0, -1.0)},
    ("restart", "gradient x1e+06"): {"upper"},
    ("two_phase", "gradient x1e+06"): {"upper"},
}
# (run, mutant) that exit 0 with no failed check. At p8_L2 and p8_L6 the
# step rounds away (the iterate never changes), so ten times the gradient
# predicts a decrease far below the descent tolerance, and no tail step, not
# even 100 alpha or -alpha, changes a bit of the trajectory. At p8_L6 even
# 1e6 times the gradient moves no iterate, and `upper` holds by 12 orders.
# At p4_L1 the tail's step changes the trajectory, but no check reads the
# step taken. At the restart the closed-form phase-2 step is 3.7e-15: over
# its 20 rows the loss falls 2e-14 relative and the weight norm not at all,
# and the loss, near 0.05, is far above the small-loss level where lower,
# alignment, descent and floor apply. So i1, i2 and i3 move by far less than
# their 1e-12 tolerances under every mutant, and only `upper` sees 1e6 times
# the gradient. The uninstrumented two-phase run's phase 2 moves (its loss
# falls from 0.050 to 0.038), but `upper` is the one check that applies
# there, and the gradient sits at 0.33% of that bound at most: ten times it
# passes, and no tail step changes the gradient norm enough.
STEP_GAPS = {
    ("p8_L2", "gradient x10"),
    ("p8_L6", "gradient x10"),
    ("p8_L6", "gradient x1e+06"),
    *((run, f"tail step at {m:g} alpha") for run in MATRIX_RUNS for m in (0.0, 0.5, 2.0, 100.0, -1.0)),
    *((run, f"gradient x{m:g}") for run in ("restart", "two_phase") for m in (-1.0, 0.5, 1e-3, 10.0)),
    *((run, f"tail gradient x{m:g}") for run in ("restart", "two_phase") for m in (0.0, -1.0)),
}


def edited(fn, *edits):
    """`fn` compiled again, in a copy of its module's namespace, with each
    (old, new) edit made to its source text. Each old text must occur
    exactly once, so an edit that stops applying fails. A wrapper made by
    `functools.wraps` is edited as the function it wraps."""
    fn = inspect.unwrap(fn)
    source = inspect.getsource(fn)
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = dict(vars(inspect.getmodule(fn)))
    exec(compile(source, inspect.getsourcefile(fn), "exec"), namespace)
    return namespace[fn.__name__]


def mutated_monitor(*edits):
    """A switch that swaps in `bounds.monitor_transition` with each edit made
    for the monitored phase; a `theorem31` run calls it once, on that phase."""

    def switch(patch, where):
        real, mutant = where.module.monitor_transition, edited(bounds.monitor_transition, *edits)

        def monitor_transition(trace, ctx, phase):
            return (mutant if phase == where.phase else real)(trace, ctx, phase)

        patch.setattr(where.module, "monitor_transition", monitor_transition)

    return switch


def doubled_deriv_width(patch):
    real = activations.Activation.deriv

    def deriv(act, z):
        return real(activations.Activation(act.kind, 2 * act.h), z)

    patch.setattr(activations.Activation, "deriv", deriv)


MONITOR_MUTANTS = {
    # row t read against row t + 2, not applicable on the last two rows
    "descent pairs t with t+2": mutated_monitor(
        (
            "(descent_rhs[:-1] - J[1:]) / J[:-1], math.nan",
            "(descent_rhs[:-2] - J[2:]) / J[:-2], [math.nan] * 2",
        ),
        ("& (t < k)", "& (t < k - 1)"),
    ),
    # each row reads the previous iterate's weight norm; the first keeps its own
    "previous weight norm": mutated_monitor(
        (
            "trace.grad_norm, trace.weight_norm",
            "trace.grad_norm, np.append(trace.weight_norm[:1], trace.weight_norm[:-1])",
        ),
    ),
    # the activation's derivative at width 2h while its value uses h, in the monitored phase
    "deriv at width 2h": in_monitored_phase(doubled_deriv_width),
}
# (run, mutant) -> the checks that must fail, with exit status 1
MONITOR_CAUGHT = {}
# (run, mutant) that exit 0 with no failed check. Two steps of descent
# satisfy the one-step inequality with room to spare (and at the restart
# descent does not apply); the weight norm moves by a few ulps a step at
# p4_L1 and not at all at p8_L2, p8_L6 and the restart; and at p8_L2, p8_L6
# and the restart no pre-activation of the monitored phase lies in (0, 2h),
# where the two widths' derivatives differ. At two_phase only `upper`
# applies, and neither a step-old weight norm nor the width-2h derivative
# moves it near its bound.
MONITOR_GAPS = {(run, mutant) for run in MATRIX_RUNS for mutant in MONITOR_MUTANTS}


def mutated_phase(*edits):
    """A switch that runs the monitored `run_phase` call with each edit made
    to its source."""

    def switch(patch, where):
        real, mutant = where.module.run_phase, edited(ntk.run_phase, *edits)

        def run_phase(V, act, data, alpha, max_steps, **kwargs):
            return (mutant if where.is_monitored(kwargs) else real)(V, act, data, alpha, max_steps, **kwargs)

        patch.setattr(where.module, "run_phase", run_phase)

    return switch


def unscaled_kernel(patch):
    unscaled = edited(network.loss_and_gradient, ("k = max(-math.frexp(float(np.maximum.reduce(c)))[1], 0)", "k = 0"))
    patch.setattr(ntk, "loss_and_gradient", unscaled)


# Mutants on the kernel's power-of-two scale: the kernel returns the gradient
# times 2^k, and `run_phase` undoes it in the norm and in the step
SCALE_MUTANTS = {
    "grad_norm at 2^-(k-1)": mutated_phase(
        ("math.sqrt(first_grad_sq + sweep.grad_sq), -k)", "math.sqrt(first_grad_sq + sweep.grad_sq), -(k - 1))"),
    ),
    "step at alpha 2^-(k-1)": mutated_phase(("math.ldexp(alpha, -k)", "math.ldexp(alpha, -(k - 1))")),
    "k forced to 0": in_monitored_phase(unscaled_kernel),
}
# (run, mutant) -> the checks that must fail, with exit status 1. Unscaled,
# the L=6 gradient's squares underflow and `lower` fails on every row
SCALE_CAUGHT = {("p8_L6", "k forced to 0"): {"lower"}}
# (run, mutant) that exit 0 with no failed check. Twice the norm sits
# further above `lower` and still far below `upper`, and four times the
# predicted decrease stays below the descent tolerance; twice the step is a
# tail step at 2 alpha for the whole gradient. Where no square underflows,
# as at the headline runs and the two-phase runs, forcing k to 0 changes no
# bit.
SCALE_GAPS = {(run, mutant) for run in MATRIX_RUNS for mutant in SCALE_MUTANTS} - SCALE_CAUGHT.keys()


def changed_columns(records, clean):
    """The columns, slacks and verdicts of `records` that differ from `clean`."""
    columns = ("loss", "log_loss", "grad_norm", "weight_norm", "lower_bound", "upper_bound", "rate_bound")
    pairs = {name: (getattr(records, name), getattr(clean, name)) for name in columns}
    for key in records.slacks:
        pairs[f"slack {key}"] = records.slacks[key], clean.slacks[key]
        pairs[f"verdict {key}"] = records.verdicts[key], clean.verdicts[key]
    return [
        name for name, (ours, theirs) in pairs.items()
        if not np.array_equal(ours, theirs, equal_nan=ours.dtype.kind == "f")
    ]


@pytest.fixture(scope="module")
def mutant_matrix():
    """(run, mutant) -> (exit status, {failed check: failing rows}, records)
    for every mutant and the clean run "none"."""
    startups = {}  # (run, function, stack bytes) -> (its result, its MisclassifiedError)

    def once(module, name, is_startup=lambda kwargs: True):
        real = getattr(module, name)

        @functools.wraps(real)
        def cached(stack, *args, **kwargs):
            if not is_startup(kwargs):
                return real(stack, *args, **kwargs)
            key = (run, name, stack.flat.tobytes())  # `run`: the matrix run being built, below
            if key not in startups:
                try:
                    startups[key] = real(stack, *args, **kwargs), None
                except harness.MisclassifiedError as exc:  # p8_L6 retries from the next init seed
                    startups[key] = None, exc
            result, error = startups[key]
            if error is not None:
                raise error
            return result

        return cached

    matrix = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "warmup", once(harness, "warmup"))
        patch.setattr(harness, "resolve_theorem31_setup", once(harness, "resolve_theorem31_setup"))
        # the restart's start-up: the margin estimate and phase 1
        patch.setattr(harness, "margin_estimate_subgradient", once(harness, "margin_estimate_subgradient"))
        patch.setattr(ntk, "run_phase", once(ntk, "run_phase", lambda kwargs: not RESTART.is_monitored(kwargs)))
        mutants = {"none": lambda patch, where: None, **STEP_MUTANTS, **MONITOR_MUTANTS, **SCALE_MUTANTS}
        for mutant, switch in mutants.items():
            for run, (config, where) in MATRIX_RUNS.items():
                with pytest.MonkeyPatch.context() as mutation:
                    switch(mutation, where)
                    runlog, status = harness.run(harness.parse_config(config))
                invariants = runlog.summary["invariants"]
                failed = {key: v["counts"]["fail"] for key, v in invariants.items() if v["counts"]["fail"]}
                matrix[run, mutant] = status, failed, runlog.records
    return matrix


def check_matrix(matrix, mutants, caught, gaps):
    """Print the rows of `mutants` and assert the caught and gap lists."""
    print("\nmutant x run: exit status, failed checks (failing rows); changed")
    for run in MATRIX_RUNS:
        assert matrix[run, "none"][:2] == (0, {})
    for mutant in mutants:
        for run in MATRIX_RUNS:
            status, failed, records = matrix[run, mutant]
            fails = ", ".join(f"{key} ({count})" for key, count in sorted(failed.items())) or "none"
            changed = ", ".join(changed_columns(records, matrix[run, "none"][2])) or "nothing"
            print(f"  {mutant:24} {run}: exit {status}, fails {fails}; changed {changed}")
    assert caught.keys() | gaps == {(run, mutant) for run in MATRIX_RUNS for mutant in mutants}
    for key, checks in caught.items():
        status, failed, _ = matrix[key]
        assert status == 1 and checks <= failed.keys(), key
    for key in gaps:
        status, failed, _ = matrix[key]
        assert status == 0 and not failed, f"{key} is caught now: move it to the caught list"


def test_step_mutant_matrix(mutant_matrix):
    check_matrix(mutant_matrix, STEP_MUTANTS, STEP_CAUGHT, STEP_GAPS)
    clean = mutant_matrix["p4_L1", "none"][2].loss
    for mutant in STEP_MUTANTS:  # every mutant is live where the iterate moves
        assert not np.array_equal(mutant_matrix["p4_L1", mutant][2].loss, clean), mutant


def test_monitor_mutant_matrix(mutant_matrix):
    check_matrix(mutant_matrix, MONITOR_MUTANTS, MONITOR_CAUGHT, MONITOR_GAPS)
    for mutant in MONITOR_MUTANTS:  # every mutant changes what the run reports
        assert changed_columns(mutant_matrix["p4_L1", mutant][2], mutant_matrix["p4_L1", "none"][2]), mutant


def test_scale_mutant_matrix(mutant_matrix):
    check_matrix(mutant_matrix, SCALE_MUTANTS, SCALE_CAUGHT, SCALE_GAPS)
    for mutant in SCALE_MUTANTS:  # every mutant changes what some run reports
        assert any(
            changed_columns(mutant_matrix[run, mutant][2], mutant_matrix[run, "none"][2]) for run in MATRIX_RUNS
        ), mutant
