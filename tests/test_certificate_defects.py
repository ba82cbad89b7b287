"""Planted defects in the certificates: which test catches a wrong bracket,
gap or tolerance.

`test_planted_defects.py` asks whether the monitor catches a wrong step;
this matrix asks whether the tests catch a certificate that claims a side
of the truth it does not hold. Each mutant is a one-line defect in
`linalg.operator_norm`, `ntk.margin_estimate_subgradient`,
`ntk.nt_class_minimize`, `activations.certify_h_smooth` or the logistic
function `activations.sigmoid` that serves Swish, the loss kernel and the
tangent-ball dual. It is switched on by monkeypatching, or by an edit of
the function's source (`edited`), while every probe runs. A probe is one
claim of a certificate checked against a reference computed apart from it,
before any mutant is on: the largest singular value by SVD, the best
tangent margin by support enumeration, the ball minimum by long runs of
projected descent, and activations built to break one defining property.

Known gaps are mutants no probe catches. The test fails when one becomes
caught, so that the list stays true: move it to CAUGHT then.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from boundbench import activations, linalg, network, ntk
from boundbench.activations import huberized, swish
from boundbench.network import Dataset
from boundbench.ntk import InitSpec, NtBallConfig, gaussian_init
from reference_kernels import nt_minimize_old_rule
from stack_helpers import max_layer_distance
from test_linalg import rounding_terms, svd_top
from test_ntk import KERNEL_CASES, _kernel_case, _stack_space_minimize, _support_enumeration_margin, _tangent_loss
from test_planted_defects import edited

RADII = (0.05, 0.5, 5.0)
GAP_STOP = 2.0**-42  # nt_class_minimize's stop, held here as a mutant may change the module's


@pytest.fixture(scope="module")
def references():
    """Each probe's inputs and the values its claims are checked against,
    formed with no mutant on."""
    gaussian = np.random.default_rng(29).normal(0.0, math.sqrt(2.0 / 256), size=(256, 256))
    V1, data, feats = _kernel_case(1, huberized(0.05))
    rng = np.random.default_rng(81)
    spread = Dataset(inputs=rng.standard_normal((8, V1.p)), labels=np.resize([1.0, -1.0], 8))
    V16 = gaussian_init(InitSpec(p=16, L=1, seed=31))
    single = Dataset(inputs=np.random.default_rng(32).standard_normal(16)[None, :], labels=np.array([1.0]))
    feature = network.output_gradient(V16, huberized(0.01), single.inputs[0])
    act = huberized(0.05)
    return SimpleNamespace(
        gaussian=gaussian,
        gaussian_top=svd_top(gaussian),
        kernel=(V1, act, data),
        margins={
            "clustered": (data, _support_enumeration_margin(feats, data.labels)),
            "spread": (spread, _support_enumeration_margin(
                [list(f.layers()) for f in ntk.ntk_features(V1, act, spread)], spread.labels
            )),
        },
        single=(V16, single, math.sqrt(linalg.stack_dot(feature, feature) / 16)),
        balls=[
            (V, a, d, f, rho, _stack_space_minimize(V, a, d, f, rho, steps=150))
            for (V, d, f), a in ((_kernel_case(L, a), a) for L, a in KERNEL_CASES)
            for rho in RADII
        ],
        long_run=nt_minimize_old_rule(V1, act, data, 0.5, steps=20 * 400),
    )


def _brackets(result, sigma, width=1e-11):
    return (
        0.0 <= result.lower <= sigma * (1 + 1e-12)
        and sigma <= result.upper * (1 + 1e-12)
        and result.upper - result.lower <= width * sigma
    )


def op_gaussian(ref):
    """A Gaussian 256 x 256 layer: the bracket holds the SVD's top singular
    value and its upper end covers the rounding of the Gram and Cholesky."""
    result = linalg.operator_norm(ref.gaussian)
    theta = result.lower**2
    return _brackets(result, ref.gaussian_top) and result.upper**2 - theta >= rounding_terms(ref.gaussian, theta)


def op_diagonal(ref):
    """diag(3, 1): the bracket holds 3 and is tight to 1e-12."""
    result = linalg.operator_norm(np.diag([3.0, 1.0]))
    return _brackets(result, 3.0) and abs(result.upper - 3.0) <= 3e-12


def margin_enumerated(ref):
    """Clustered and spread data at p=12: the bracket holds the margin that
    support enumeration finds and closes to 1e-12."""
    V1, act, _ = ref.kernel
    for data, gamma in ref.margins.values():
        w = ntk.margin_estimate_subgradient(V1, act, data)
        if not (w.gamma <= gamma * (1 + 1e-12) and w.gamma_upper >= gamma * (1 - 1e-12)):
            return False
        if not w.gamma_upper - w.gamma <= 1e-12 * w.gamma_upper:
            return False
    return True


def margin_single(ref):
    """One sample: the margin is its feature's norm over sqrt(p)."""
    V16, single, gamma = ref.single
    w = ntk.margin_estimate_subgradient(V16, huberized(0.01), single)
    return abs(w.gamma - gamma) <= 1e-12 * gamma and w.gamma_upper >= gamma * (1 - 1e-12)


def nt_stack_space(ref):
    """At L = 1, 2 and 3 (Swish) and three radii: the returned loss is the
    tangent loss at the returned stack, inside the ball and no worse than
    150 steps of projected descent on the stack."""
    for V1, act, data, feats, rho, reference in ref.balls:
        v_star, value = ntk.nt_class_minimize(V1, act, data, NtBallConfig(rho=rho, steps=150))
        offset = [m - l for m, l in zip(v_star.layers(), V1.layers())]
        if not (
            abs(value - _tangent_loss(V1, act, data, feats, offset)) <= 1e-12 * value
            and max_layer_distance(v_star, V1) <= rho * (1 + 1e-12)
            and value <= reference * (1 + 1e-12)
        ):
            return False
    return True


def nt_long_run(ref):
    """The certified stop is within 2^-42 of 8,000 steps of the old rule (L = 1, radius 0.5)."""
    V1, act, data = ref.kernel
    _, value = ntk.nt_class_minimize(V1, act, data, NtBallConfig(rho=0.5, steps=400))
    return value - ref.long_run <= GAP_STOP * value


def _certifies(h, value, deriv):
    return activations.certify_h_smooth(SimpleNamespace(h=h, value=value, deriv=deriv)).pass_


def certify_exact(ref):
    """Both activations pass at widths from 1e-12 to 0.1."""
    return all(activations.certify_h_smooth(make(h)).pass_ for make in (huberized, swish) for h in (1e-12, 1e-4, 0.1))


def certify_rejects(ref):
    """Three activations of width h = 0.1 that each break one property are
    rejected: the Huberized ReLU of width 2h (Taylor gap h), one with the
    derivative of width h/2 (2/h-Lipschitz), and one whose derivative is
    1e-10 too steep (|deriv| above 1 and a Taylor gap growing with z)."""
    h = 0.1
    act, wide, narrow = huberized(h), huberized(2 * h), huberized(h / 2)
    return not (
        _certifies(h, wide.value, wide.deriv)
        or _certifies(h, act.value, narrow.deriv)
        or _certifies(h, act.value, lambda z: act.deriv(z) * (1 + 1e-10))
    )


PROBES = {
    "op gaussian": op_gaussian,
    "op diagonal": op_diagonal,
    "margin enumerated": margin_enumerated,
    "margin single": margin_single,
    "nt stack space": nt_stack_space,
    "nt long run": nt_long_run,
    "certify exact": certify_exact,
    "certify rejects": certify_rejects,
}


def source_edit(module, name, *edits):
    """A switch that swaps in `module.name` with each (old, new) edit made to its source."""

    def switch(patch):
        patch.setattr(module, name, edited(getattr(module, name), *edits))

    return switch


def setting(module, name, value):
    return lambda patch: patch.setattr(module, name, value)


def sigmoid_edit(patch):
    # `network` and `ntk` hold the function under their own names
    mutant = edited(activations.sigmoid, ("out /= 1.0 + e", "out /= 1.0 + 2.0 * e"))
    for module in (activations, network, ntk):
        patch.setattr(module, "sigmoid", mutant)


MUTANTS = {
    "op: no Cholesky term": source_edit(linalg, "_rounding_margin", ("return cholesky + ", "return ")),
    "op: no Gram term": source_edit(linalg, "_rounding_margin", (" + inner * u / (1 - inner * u) * trace", "")),
    "op: lower x(1+1e-9)": source_edit(
        linalg, "operator_norm", ("_bracket(math.sqrt(theta), upper", "_bracket(math.sqrt(theta) * (1 + 1e-9), upper")
    ),
    "nt: _GAP_STOP 2^-20": setting(ntk, "_GAP_STOP", 2.0**-20),
    "nt: _GAP_STOP 2^-30": setting(ntk, "_GAP_STOP", 2.0**-30),
    "margin: lower x(1+1e-9)": source_edit(
        ntk, "margin_estimate_subgradient", ("gamma = tangent.margin(ys, W)", "gamma = tangent.margin(ys, W) * (1 + 1e-9)")
    ),
    "margin: two corral points": source_edit(
        ntk, "margin_estimate_subgradient", ("or j in corral:", "or j in corral or len(corral) >= 2:")
    ),
    "margin: gamma_upper = gamma": source_edit(
        ntk, "margin_estimate_subgradient", ("gamma_upper=max(math.sqrt(sq / V1.p), gamma)", "gamma_upper=gamma")
    ),
    "margin: Wolfe slack x1e9": source_edit(
        ntk, "margin_estimate_subgradient", ("slack = data.n * _EPS", "slack = 1e9 * data.n * _EPS")
    ),
    "certify: no Lipschitz test": source_edit(
        activations, "certify_h_smooth", (" and lip_ok and gap_ok", " and gap_ok")
    ),
    "certify: _ROUNDING x1e6": setting(activations, "_ROUNDING", 1e6 * activations._ROUNDING),
    "sigmoid: 1 + 2e": sigmoid_edit,
}
# mutant -> the probes that must fail on it
CAUGHT = {
    "op: no Cholesky term": {"op gaussian"},
    "op: no Gram term": {"op gaussian"},
    "op: lower x(1+1e-9)": {"op gaussian", "op diagonal"},
    "nt: _GAP_STOP 2^-20": {"nt stack space", "nt long run"},
    "nt: _GAP_STOP 2^-30": {"nt stack space"},
    "margin: lower x(1+1e-9)": {"margin enumerated", "margin single"},
    "margin: two corral points": {"margin enumerated"},
    "certify: no Lipschitz test": {"certify rejects"},
    "certify: _ROUNDING x1e6": {"certify rejects"},
    "sigmoid: 1 + 2e": {"certify exact", "nt stack space"},
}
# mutants no probe catches. The two margin ends meet within about 1e-15 on
# these data, so a bracket of zero width at the lower end stays within the
# 1e-12 the probes allow; and a Wolfe stop 1e9 times too early still ends
# at a corral whose two ends close within 1e-12.
KNOWN_GAPS = {"margin: gamma_upper = gamma", "margin: Wolfe slack x1e9"}


def test_certificate_mutant_matrix(references):
    clean = {name: probe(references) for name, probe in PROBES.items()}
    assert all(clean.values()), clean
    failed = {}
    for mutant, switch in MUTANTS.items():
        with pytest.MonkeyPatch.context() as patch:
            switch(patch)
            failed[mutant] = {name for name, probe in PROBES.items() if not probe(references)}
    print("\ncertificate mutant: probes that fail")
    for mutant, probes in failed.items():
        print(f"  {mutant:28} {', '.join(sorted(probes)) or 'none'}")
    print(f"  caught {sum(bool(p) for p in failed.values())} of {len(failed)}")
    assert CAUGHT.keys() | KNOWN_GAPS == MUTANTS.keys()
    for mutant, probes in CAUGHT.items():
        assert probes <= failed[mutant], mutant
    for mutant in KNOWN_GAPS:
        assert not failed[mutant], f"{mutant} is caught now: move it to CAUGHT"
