import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundbench.activations import (
    Activation,
    ActivationKind,
    certify_h_smooth,
    default_certification_grid,
    huberized,
    sigmoid,
    swish,
)
from reference_kernels import dual_sigmoid, huberized_deriv, huberized_value, stable_sigmoid, swish_deriv, swish_value

# 1/(1.1*(1+exp(-2))), 50-digit evaluation frozen to double precision
SWISH_AT_1_H1 = 0.8007246163435295


def test_huberized_branch_values():
    act = huberized(0.5)
    assert act.value(-1.0) == 0.0
    assert act.value(0.25) == 0.0625
    assert act.value(1.0) == 0.75


# the sign of zero, the smallest subnormal, h and its neighbours, the
# largest magnitudes and the infinities, where the clip form of the
# Huberized ReLU could part from its three-branch form
def huberized_edges(h: float) -> np.ndarray:
    near_h = [np.nextafter(h, -np.inf), h, np.nextafter(h, np.inf)]
    extremes = [0.0, 5e-324, 1e154, 2e154, 1e200, 1e308, np.inf]
    return np.array([*near_h, *extremes, *(-x for x in extremes)])


@pytest.mark.parametrize("h", [1e-3, 0.0123, 1.0])
def test_huberized_matches_the_three_branch_form_bit_for_bit(h):
    z = np.concatenate([default_certification_grid(h), huberized_edges(h)])
    act = huberized(h)
    with np.errstate(over="ignore"):  # the reference squares entries it then discards
        want_value, want_deriv = huberized_value(z, h), huberized_deriv(z, h)
    assert act.value(z).tobytes() == want_value.tobytes()
    assert act.deriv(z).tobytes() == want_deriv.tobytes()


def test_huberized_large_inputs_do_not_warn():
    act = huberized(0.1)
    z = np.array([1e200, 1e308, -1e308, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert act.value(z).tolist() == [1e200 - 0.05, 1e308 - 0.05, 0.0, np.inf]
        assert act.deriv(z).tolist() == [1.0, 1.0, 0.0, 1.0]


def test_huberized_propagates_nan():
    act = huberized(0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(act.value(math.nan))
        assert math.isnan(act.deriv(math.nan))
        assert np.isnan(act.deriv(np.array([0.05, math.nan, 1.0]))).tolist() == [False, True, False]


SWISH_WIDTHS = [1e-12, 1e-5, 1e-3, 0.1, 1.0, 10.0]


def logistic_edges() -> np.ndarray:
    """The sign of zero, the infinities, NaN, the smallest subnormal, the
    largest magnitudes, and z from 1e-14 to 1e300, each of both signs."""
    extremes = [0.0, np.inf, np.nan, 5e-324, 1e308, *np.logspace(-14, 300, 315)]
    return np.array([*extremes, *(-x for x in extremes)])


def swish_edges(h: float) -> np.ndarray:
    """`logistic_edges`, with the z whose t = 2z/h lie next to +-700, where
    Swish saturates, and next to +-745, where e^t underflows."""
    edges = [z for t in (700.0, 745.0) for z in (t * h / 2.0, np.nextafter(t, 0.0) * h / 2.0)]
    near = np.array([*edges, *np.nextafter(edges, np.inf), *np.nextafter(edges, -np.inf)])
    return np.concatenate([logistic_edges(), near, -near])


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal int64 views: +0 and -0 differ, and so do NaNs of other payloads."""
    return np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


def test_sigmoid_matches_its_earlier_forms_bit_for_bit():
    t = np.concatenate([logistic_edges(), np.linspace(-800.0, 800.0, 16_001)])
    e = np.exp(-np.abs(t))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert same_bits(sigmoid(t), stable_sigmoid(t))
        assert same_bits(sigmoid(t, e), sigmoid(t))
        dual = dual_sigmoid(t)
    # the dual's form turned a NaN of either sign into -NaN, as its numerator
    # e = e^-|t| is; sigmoid keeps the sign of t's NaN, as stable_sigmoid did
    number = ~np.isnan(t)
    assert same_bits(sigmoid(t, e)[number], dual[number]) and np.isnan(dual[~number]).all()


@pytest.mark.parametrize("h", SWISH_WIDTHS)
def test_swish_matches_its_masked_form_bit_for_bit(h):
    z = np.concatenate([default_certification_grid(h), swish_edges(h)])
    act = swish(h)
    with np.errstate(over="ignore"):  # 2z/h overflows in both forms for the largest z
        assert same_bits(act.value(z), swish_value(z, h))
        assert same_bits(act.deriv(z), swish_deriv(z, h))


def test_swish_takes_infinities_and_nan_without_a_warning():
    z = np.array([np.inf, -np.inf, np.nan])
    for h in SWISH_WIDTHS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, deriv = swish(h).value(z), swish(h).deriv(z)
        assert value[:2].tolist() == [np.inf, 0.0] and math.isnan(value[2])
        assert deriv[:2].tolist() == [1.0 / 1.1, 0.0] and math.isnan(deriv[2])


def test_swish_large_inputs_do_not_warn():
    # 2z/h overflows for the largest z; a t of +-inf saturates the gate
    z = np.array([1e200, 1e308, -1e308, np.inf])
    for h in SWISH_WIDTHS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, deriv = swish(h).value(z), swish(h).deriv(z)
        assert value.tolist() == [1e200 / 1.1, 1e308 / 1.1, 0.0, np.inf]
        assert deriv.tolist() == [1.0 / 1.1, 1.0 / 1.1, 0.0, 1.0 / 1.1]


def test_swish_values():
    assert swish(2.0).value(0.0) == 0.0
    assert swish(1.0).value(1.0) == pytest.approx(SWISH_AT_1_H1, rel=1e-15)


def test_huberized_derivative_branches():
    act = huberized(0.5)
    assert act.deriv(0.25) == 0.5
    assert act.deriv(10.0) == 1.0
    assert act.deriv(-3.0) == 0.0


def test_swish_derivative_matches_finite_difference():
    act = swish(1.0)
    eps = 1e-6
    for z in (-3.0, -0.5, 0.0, 0.4, 2.0):
        fd = (act.value(z + eps) - act.value(z - eps)) / (2 * eps)
        assert act.deriv(z) == pytest.approx(fd, abs=1e-8)


def test_zero_smoothing_width_rejected():
    for kind in ActivationKind:
        for h in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="smoothing width"):
                Activation(kind, h)


@pytest.mark.parametrize("kind", ["huberized", "swish", None])
def test_activation_rejects_a_kind_that_is_not_an_activation_kind(kind):
    # a string would otherwise fall through to the Swish branch
    with pytest.raises(ValueError, match="kind"):
        Activation(kind, 0.5)


def test_value_at_zero_is_exact_zero():
    for act in (huberized(0.03), swish(0.03), huberized(2.0), swish(2.0)):
        assert act.value(0.0) == 0.0


def test_huberized_continuous_at_breakpoints():
    # adjacent floats straddling each kink: the branch formulas must meet
    h = 0.37
    act = huberized(h)
    assert abs(act.value(float(np.nextafter(0.0, -1.0))) - act.value(0.0)) <= 1e-15
    below = float(np.nextafter(h, 0.0))
    assert abs(act.value(below) - act.value(h)) <= 1e-15
    assert act.value(h) == pytest.approx(h / 2.0, abs=1e-16)
    # the two closed forms agree exactly at z = h
    assert h * h / (2.0 * h) == pytest.approx(h - h / 2.0, abs=1e-15)


def test_swish_overflow_guard():
    act = swish(0.01)
    assert act.value(-1e6) == 0.0
    assert act.value(1e6) == pytest.approx(1e6 / 1.1)
    assert np.isfinite(act.deriv(-1e8))
    assert act.deriv(1e8) == pytest.approx(1.0 / 1.1)


def test_vectorized_matches_scalar():
    zs = np.linspace(-4, 4, 101)
    for act in (huberized(0.2), swish(0.2)):
        vec_v = np.asarray(act.value(zs))
        vec_d = np.asarray(act.deriv(zs))
        for z, v, d in zip(zs, vec_v, vec_d):
            assert act.value(float(z)) == v
            assert act.deriv(float(z)) == d


# ---------------------------------------------------------------------------
# certification


@pytest.mark.parametrize("make", [huberized, swish])
def test_certification_passes_default_grid(make):
    report = certify_h_smooth(make(0.1))
    assert report.pass_
    assert report.samples_used >= 1000
    assert report.max_abs_deriv <= 1.0 + 1e-9
    assert report.max_lipschitz_quotient <= 10.0 + 1e-9
    assert report.max_taylor_gap <= 0.05 + 1e-9


# widths that runs resolve reach 1e-12 (an "auto" width at L = 6, n = 24)
SMALL_WIDTHS = [1e-12, 1e-8, 3e-5, 1e-4, 0.02]


@pytest.mark.parametrize("h", SMALL_WIDTHS)
@pytest.mark.parametrize("make", [huberized, swish])
def test_certification_passes_the_exact_activations_at_small_widths(make, h):
    assert certify_h_smooth(make(h)).pass_


@pytest.mark.parametrize("h", SMALL_WIDTHS)
def test_certification_rejects_a_taylor_gap_of_twice_half_h(h):
    # the Huberized ReLU of width 2h keeps |deriv| <= 1 and a 1/(2h)-Lipschitz
    # derivative, but its Taylor gap reaches h
    wide = huberized(2.0 * h)
    report = certify_h_smooth(SimpleNamespace(h=h, value=wide.value, deriv=wide.deriv))
    assert not report.pass_
    assert report.max_taylor_gap == pytest.approx(h, rel=1e-6)


def test_certification_grid_covers_core_and_tails():
    grid = default_certification_grid(0.2)
    assert grid.min() <= -2.0 and grid.max() >= 2.0e5 * 0.2 * 0.999
    assert grid.size >= 10_000


def test_derivative_bounded_by_one_sampled():
    zs = np.linspace(-50, 50, 20001)
    for act in (huberized(0.05), swish(0.05), huberized(1.0), swish(1.0)):
        assert float(np.max(np.abs(act.deriv(zs)))) <= 1.0 + 1e-12


def test_taylor_gap_within_half_h_sampled():
    for h in (0.02, 0.5, 1.0):
        zs = np.linspace(-20 * h, 20 * h, 10001)
        for act in (huberized(h), swish(h)):
            gap = np.abs(np.asarray(act.deriv(zs)) * zs - np.asarray(act.value(zs)))
            assert float(gap.max()) <= h / 2.0 + 1e-12


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    h=st.floats(min_value=0.01, max_value=2.0),
    kind=st.sampled_from(list(ActivationKind)),
)
def test_entrywise_application_is_contractive(seed, h, kind):
    act = Activation(kind, h)
    rng = np.random.default_rng(seed)
    v1 = rng.standard_normal(16) * 5
    v2 = rng.standard_normal(16) * 5
    d_out = float(np.linalg.norm(np.asarray(act.value(v1)) - np.asarray(act.value(v2))))
    assert d_out <= float(np.linalg.norm(v1 - v2)) + 1e-12
