"""Every correctness check passes on real program output and fails when
that output is deliberately corrupted.

The workloads run here at reduced size (fewer steps, narrower networks) so
the suite stays fast; the checks are the same functions the benchmark uses.
"""

import copy
import json

import numpy as np
import pytest

import checks
from workloads import Diagnostics, Tangent


def edit_csv(text: str, row: int, column: str, fn) -> str:
    lines = text.split("\n")
    header = lines[0].split(",")
    k = header.index(column)
    fields = lines[row + 1].split(",")
    fields[k] = repr(fn(float(fields[k])))
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


def by_name(found):
    assert len({c.name for c in found}) == len(found)
    return {c.name: c for c in found}


def assert_fails(found, name):
    result = by_name(found)[name]
    assert not result.ok, f"{name} passed on corrupted output (slack {result.slack})"


# ---------------------------------------------------------------------------
# theorem32 and the tangent class


class SmallTangent(Tangent):
    p, T = 32, 40


@pytest.fixture(scope="module")
def t32(tmp_path_factory):
    w = SmallTangent()
    inp = w.prepare(4, tmp_path_factory.mktemp("t32"))
    out = w.execute(inp)
    summary = json.loads((inp.out / "summary.json").read_text())
    text = (inp.out / "trajectory.csv").read_text()
    return w, inp, out, summary, text


def verify32(inp, out, summary, text, **changes):
    args = dict(
        status=out.status,
        summary=summary,
        csv_text=text,
        features=out.features,
        ball_results=out.ball_results,
        app_zero=out.app_zero,
        eps_app=out.eps_app,
        tau=out.tau,
    )
    args.update(changes)
    return checks.verify_theorem32(inp.X, inp.y, SmallTangent.init_seed, **args)


def test_t32_passes_on_program_output(t32):
    w, inp, out, summary, text = t32
    found = w.verify(inp, out)
    assert len(found) == w.n_checks
    assert all(c.ok for c in found), [c for c in found if not c.ok]


def _replace_ball(results, index, point=None, value=None):
    out = list(results)
    rho, p0, v0 = out[index]
    out[index] = (rho, p0 if point is None else point, v0 if value is None else value)
    return out


def _moved_outside(results, index, layers):
    rho, point, _ = results[index]
    offset = [m - l for m, l in zip(point, layers)]
    far = max(np.linalg.norm(o) for o in offset)
    scale = 1.01 * rho / far if far > 0 else 0.0
    moved = [l + scale * o if far > 0 else l + 1e-3 for l, o in zip(layers, offset)]
    return _replace_ball(results, index, point=moved)


@pytest.mark.parametrize("index, label", [(0, "rho0"), (1, "rho0.1"), (2, "rho1"), (3, "rho10"), (4, "tau3")])
def test_t32_ball_and_objective_fail_on_corruption(t32, index, label):
    w, inp, out, summary, text = t32
    layers = checks.gaussian_weights(w.p, w.L, w.init_seed)
    outside = verify32(inp, out, summary, text, ball_results=_moved_outside(out.ball_results, index, layers))
    assert_fails(outside, f"t32.ball_{label}")
    value = out.ball_results[index][2] * (1 + 1e-9)
    shifted = verify32(inp, out, summary, text, ball_results=_replace_ball(out.ball_results, index, value=value))
    assert_fails(shifted, f"t32.objective_{label}")


def test_t32_other_checks_fail_on_corruption(t32):
    w, inp, out, summary, text = t32
    assert_fails(verify32(inp, out, summary, text, status=1), "t32.exit_status")

    feats = copy.deepcopy(out.features)
    feats[2][0][3, 5] += 1e-9 * np.linalg.norm(feats[2][0])
    assert_fails(verify32(inp, out, summary, text, features=feats), "t32.features")

    for gamma in (0.0, 1.0):
        bad = dict(summary, gamma=gamma)
        assert_fails(verify32(inp, out, bad, text), "t32.gamma")

    eps0 = out.ball_results[0][2] * (1 + 1e-9)
    assert_fails(verify32(inp, out, summary, text, ball_results=_replace_ball(out.ball_results, 0, value=eps0)), "t32.eps_rho0")
    rising = _replace_ball(out.ball_results, 3, value=2 * out.ball_results[2][2])
    assert_fails(verify32(inp, out, summary, text, ball_results=rising), "t32.eps_monotone")

    assert_fails(verify32(inp, out, summary, text, app_zero=1e-300), "t32.app_error_tau0")

    raised = text
    for row in range(w.T):
        raised = edit_csv(raised, row, "J", lambda v: v + 1.0)
    assert_fails(verify32(inp, out, summary, raised), "t32.average_loss")
    outside_tau = dict(summary, phase1_max_drift=out.tau * 1.01)
    assert_fails(verify32(inp, out, outside_tau, text), "t32.average_loss")
    assert_fails(verify32(inp, out, summary, text, eps_app=0.375), "t32.average_loss")


# ---------------------------------------------------------------------------
# initialization diagnostics


class SmallDiagnostics(Diagnostics):
    p = 256
    init_seeds = (0,)
    n_checks = 8


@pytest.fixture(scope="module")
def diag(tmp_path_factory):
    w = SmallDiagnostics()
    inputs = w.prepare(5, tmp_path_factory.mktemp("diag"))
    outputs = w.execute(inputs)
    case = inputs[1][0]
    h = json.loads((case.out / "summary.json").read_text())["resolved"]["h"]
    return w, inputs, outputs, h


def verify_diag(w, inputs, status, report, h):
    return checks.verify_diagnostics(inputs[0], w.init_seeds[0], status, report, w.p, w.L, h)


def test_diag_passes_on_program_output(diag):
    w, inputs, outputs, h = diag
    found = w.verify(inputs, outputs)
    assert len(found) == w.n_checks
    assert all(c.ok for c in found), [c for c in found if not c.ok]


@pytest.mark.parametrize(
    "check, key, fn",
    [
        ("norm_min", "post_activation_norm_min", lambda v: v * (1 + 1e-9)),
        ("norm_max", "post_activation_norm_max", lambda v: v * (1 - 1e-9)),
        ("outer_norm", "outer_norm_over_sqrt_p", lambda v: v * (1 + 1e-9)),
        ("operator_norm0", "hidden_operator_norms", lambda v: [v[0] * 1.01, *v[1:]]),
        ("operator_norm2", "hidden_operator_norms", lambda v: [*v[:2], v[2] * 1.01]),
        ("operator_in_range", "operator_in_range", lambda v: not v),
    ],
)
def test_diag_check_fails_on_corruption(diag, check, key, fn):
    w, inputs, outputs, h = diag
    status, report = outputs[0]
    bad = dict(report, **{key: fn(report[key])})
    assert_fails(verify_diag(w, inputs, status, bad, h), f"diag0.{check}")


def test_diag_exit_status_fails_on_corruption(diag):
    w, inputs, outputs, h = diag
    status, report = outputs[0]
    assert_fails(verify_diag(w, inputs, 1 - status, report, h), "diag0.exit_status")

