import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from boundbench.activations import huberized, swish
from boundbench.harness import build_dataset, parse_config
from boundbench.linalg import ShapeMismatchError, WeightStack, frobenius_norm, operator_norm, stack_axpy
from boundbench.network import (
    Dataset,
    _point,
    _tail,
    forward,
    logistic,
    loss_and_gradient,
    output_gradient,
    total_loss,
)
from boundbench.ntk import ntk_features
from oracles import FdConfig, fd_compare, fd_gradient
from reference_kernels import logistic as logistic_reference
from scalar_loss import from_margin, g_factor, mean, sample_loss, stable_g
from stack_helpers import gd_step, gradient_reference, zero_stack

# frozen 50-digit evaluations of the stable-loss formulas
LOSS_AT_Z50 = 1.9287498479639178e-22
LOSS_AT_ZM10 = 10.000045398899217


def make_dataset(p, n, seed, labels=None):
    rng = np.random.default_rng(seed)
    if labels is None:
        labels = rng.choice((-1.0, 1.0), size=n)
        if np.all(labels == labels[0]):
            labels[0] = -labels[0]
    return Dataset(inputs=rng.standard_normal((n, p)), labels=np.asarray(labels))


def random_stack(p, L, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return WeightStack(
        hidden=tuple(scale * rng.standard_normal((p, p)) for _ in range(L)),
        outer=scale * rng.standard_normal((1, p)),
    )


# ---------------------------------------------------------------------------
# forward


def test_forward_scalar_case_by_hand():
    # one hidden weight 2, outer weight 1, h=1: u=2 lands on the linear branch
    V = WeightStack(hidden=(np.array([[2.0]]),), outer=np.array([[1.0]]))
    trace = forward(V, huberized(1.0), np.array([1.0]))
    assert trace.u[0][0] == 2.0
    assert trace.x[0][0] == 1.5
    assert trace.output == 1.5


def test_forward_zero_weights():
    V = zero_stack(3, 2)
    trace = forward(V, huberized(0.5), np.array([1.0, 0.0, 0.0]))
    assert trace.output == 0.0
    for x in trace.x:
        np.testing.assert_array_equal(x, np.zeros(3))


def test_forward_matches_straight_line_oracle():
    act = swish(0.7)
    V = random_stack(5, 3, seed=2)
    x = np.random.default_rng(3).standard_normal(5)
    x /= np.linalg.norm(x)

    # independent evaluation without the trace bookkeeping
    cur = x
    for W in V.hidden:
        cur = np.asarray(act.value(W @ cur))
    expected = float(V.outer[0] @ cur)
    got = forward(V, act, x).output
    assert got == pytest.approx(expected, rel=1e-13)


def test_forward_trace_consistency():
    V = random_stack(4, 2, seed=5)
    trace = forward(V, huberized(0.3), np.eye(4)[0])
    assert float(V.outer[0] @ trace.x[-1]) == trace.output
    for u, x, s in zip(trace.u, trace.x, trace.sigma_diag):
        np.testing.assert_array_equal(np.asarray(huberized(0.3).value(u)), x)
        assert np.all(s >= 0.0) and np.all(s <= 1.0)


def test_forward_dimension_mismatch():
    V = zero_stack(3, 1)
    with pytest.raises(Exception):
        forward(V, huberized(0.5), np.zeros(4))


# ---------------------------------------------------------------------------
# losses


def test_sample_loss_at_zero_margin():
    V = zero_stack(2, 1)
    loss = sample_loss(V, huberized(1.0), np.array([1.0, 0.0]), 1.0)
    assert loss.value == pytest.approx(math.log(2.0), rel=1e-15)


def margin_loss(z):
    """The kernel's loss at a single margin."""
    return logistic(np.array([z])).loss


def test_loss_margin_50_asymptotic_channel():
    loss = margin_loss(50.0)
    assert loss.value == pytest.approx(LOSS_AT_Z50, rel=1e-14)
    assert loss.log_value == pytest.approx(-50.0, abs=1e-12)


def test_loss_margin_minus_10_stable_branch():
    loss = margin_loss(-10.0)
    assert loss.value == pytest.approx(LOSS_AT_ZM10, rel=1e-15)


def test_loss_log_channel_consistent_with_value():
    for z in (-30.0, -1.0, 0.0, 5.0, 35.0, 60.0, 300.0):
        loss = margin_loss(z)
        if loss.value > 1e-300:
            assert math.exp(loss.log_value) == pytest.approx(loss.value, rel=1e-10)


def test_log_channel_survives_value_underflow():
    loss = margin_loss(800.0)
    assert loss.value == 0.0
    assert loss.log_value == pytest.approx(-800.0)


def test_log_channel_continuous_at_the_asymptotic_switch():
    zs = (np.nextafter(40.0, 0.0), 40.0, np.nextafter(40.0, 100.0))
    logs = [margin_loss(z).log_value for z in zs]
    # no jump where the log channel changes branch: neighbours one ulp of z
    # apart stay a few ulp apart, in order, and both branches equal log(value)
    assert logs[0] >= logs[1] >= logs[2]
    assert logs[0] - logs[2] <= 4 * np.spacing(40.0)
    for z, log in zip(zs, logs):
        assert log == pytest.approx(math.log(margin_loss(z).value), rel=1e-15)


# the scalar libm reference: 0 and -0.0, both sides of the asymptotic
# switch at 40, and a sweep of [-90, 800] with a dense stretch where the
# two branches of each formula meet
KERNEL_GRID = np.concatenate(
    [
        [0.0, -0.0, 40.0, np.nextafter(40.0, 0.0), np.nextafter(40.0, 100.0)],
        np.linspace(-90.0, 800.0, 4451),
        np.linspace(-45.0, 60.0, 1051),
    ]
)


def test_logistic_kernel_matches_scalar_reference():
    terms = logistic(KERNEL_GRID)
    ref = [from_margin(float(z)) for z in KERNEL_GRID]
    # the value channel bit for bit, g to 2 ulp (numpy's exp against libm's)
    np.testing.assert_array_equal(terms.values, [r.value for r in ref])
    ref_g = np.array([stable_g(float(z)) for z in KERNEL_GRID])
    assert np.all(np.abs(terms.g - ref_g) <= 2 * np.spacing(ref_g))
    # g <= loss: past |z| ~ 37 the gap g = J (1 - J/2 + ...) is below one ulp,
    # where rounding in exp and log can invert the last bit
    assert np.all(terms.g <= terms.values * (1 + 1e-15))
    # the log channel to 1 ulp (numpy's log against libm's)
    for z, r in zip(KERNEL_GRID, ref):
        assert abs(margin_loss(z).log_value - r.log_value) <= np.spacing(abs(r.log_value))
    # the mean: a left-to-right sum, so bit for bit given the values
    for chunk in np.array_split(np.arange(KERNEL_GRID.size), 37):
        got, want = logistic(KERNEL_GRID[chunk]).loss, mean([ref[i] for i in chunk])
        assert got.value == want.value
        assert abs(got.log_value - want.log_value) <= np.spacing(abs(want.log_value))


def test_logistic_sums_left_to_right():
    # each small loss is under half an ulp of the first, so a left-to-right
    # sum never moves, while a pairwise or exact sum would
    z = np.array([-1.0] + [37.0] * 15)
    terms = logistic(z)
    assert terms.loss.value == terms.values[0] / 16
    assert math.fsum(terms.values) != terms.values[0]


def _assert_same_bits(z):
    got, want = logistic(z), logistic_reference(z)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.g.tobytes() == want.g.tobytes()
    assert got.loss == want.loss


def test_logistic_bits_equal_the_reference_kernel_on_the_grid():
    _assert_same_bits(KERNEL_GRID)


@pytest.mark.parametrize("n", [1, 3, 4, 8, 100])
def test_logistic_bits_equal_the_reference_kernel(n):
    rng = np.random.default_rng(500 + n)
    vectors = [rng.standard_normal(n) * scale for scale in (0.1, 1.0, 10.0, 60.0, 400.0) for _ in range(10)]
    vectors += [
        rng.uniform(40.5, 90.0, n),  # every margin on the asymptotic branch
        rng.uniform(-5.0, 60.0, n),  # some on it
        rng.uniform(746.0, 1000.0, n),  # every value underflows to 0
        rng.uniform(700.0, 760.0, n),  # subnormal and underflowing values
        rng.uniform(-1000.0, -700.0, n),  # values equal to -z
        np.full(n, 40.0),
        np.full(n, np.nextafter(40.0, 100.0)),
        np.zeros(n),
    ]
    for z in vectors:
        _assert_same_bits(z)


def test_total_loss_zero_network_is_log_two():
    V = zero_stack(3, 1)
    data = make_dataset(3, 4, seed=8)
    assert total_loss(V, huberized(0.5), data).value == pytest.approx(math.log(2.0))


def test_total_loss_is_plain_mean():
    V = random_stack(3, 1, seed=9)
    act = swish(0.4)
    data = make_dataset(3, 2, seed=10)
    parts = [
        sample_loss(V, act, x, y).value for x, y in zip(data.inputs, data.labels)
    ]
    assert total_loss(V, act, data).value == (parts[0] + parts[1]) / 2.0


def test_total_loss_matches_compensated_sum_oracle():
    V = random_stack(4, 2, seed=11)
    act = huberized(0.6)
    data = make_dataset(4, 7, seed=12)
    parts = [
        sample_loss(V, act, x, y).value for x, y in zip(data.inputs, data.labels)
    ]
    expected = math.fsum(parts) / len(parts)
    assert total_loss(V, act, data).value == pytest.approx(expected, rel=1e-14)


def test_total_loss_empty_dataset_rejected():
    with pytest.raises(ValueError):
        Dataset(inputs=np.zeros((0, 2)), labels=np.zeros(0))


# ---------------------------------------------------------------------------
# g factor


def test_g_factor_half_at_zero_margin():
    V = zero_stack(2, 1)
    assert g_factor(V, huberized(1.0), np.array([0.6, 0.8]), -1.0) == 0.5


def test_g_factor_vanishes_at_huge_margin():
    V = WeightStack(hidden=(np.eye(2) * 900.0,), outer=np.array([[900.0, 0.0]]))
    g = g_factor(V, huberized(0.5), np.array([1.0, 0.0]), 1.0)
    assert 0.0 <= g < 1e-300


def test_g_factor_below_sample_loss_everywhere():
    # past |margin| ~ 37 the separation drops below one ulp; allow that bit
    for seed in range(30):
        V = random_stack(3, 2, seed=100 + seed)
        act = swish(0.8) if seed % 2 else huberized(0.8)
        data = make_dataset(3, 3, seed=200 + seed)
        for x, y in zip(data.inputs, data.labels):
            g = g_factor(V, act, x, y)
            J = sample_loss(V, act, x, y).value
            assert g <= J * (1 + 1e-15)


# ---------------------------------------------------------------------------
# gradients


def test_gradient_scalar_chain_by_hand():
    # p=1, L=1, huberized h=1 on the linear branch:
    # f = b*(a*x - 1/2), dJ/da = -g*y*b*x, dJ/db = -g*y*(a*x - 1/2)
    a, b, x, y = 2.0, 1.0, 1.0, 1.0
    V = WeightStack(hidden=(np.array([[a]]),), outer=np.array([[b]]))
    data = Dataset(inputs=np.array([[x]]), labels=np.array([y]))
    act = huberized(1.0)
    f = b * (a * x - 0.5)
    g = 1.0 / (1.0 + math.exp(y * f))
    grad = gradient_reference(V, act, data)
    assert grad.hidden[0][0, 0] == pytest.approx(-g * y * b * x, rel=1e-14)
    assert grad.outer[0, 0] == pytest.approx(-g * y * (a * x - 0.5), rel=1e-14)


def test_gradient_vanishes_when_all_margins_huge():
    V = WeightStack(hidden=(np.eye(2) * 400.0,), outer=np.array([[400.0, 400.0]]))
    data = Dataset(
        inputs=np.array([[1.0, 0.0], [0.0, 1.0]]), labels=np.array([1.0, 1.0])
    )
    grad = gradient_reference(V, huberized(0.5), data)
    assert frobenius_norm(grad) < 1e-10


def test_gradient_matches_finite_differences_p4_L2():
    V = random_stack(4, 2, seed=77)
    act = swish(0.5)
    data = make_dataset(4, 3, seed=78)
    report = fd_compare(gradient_reference(V, act, data), fd_gradient(V, act, data, FdConfig()))
    assert report.max_rel_error < 1e-6


def test_output_gradient_outer_block_is_last_feature():
    V = random_stack(5, 2, seed=79)
    act = huberized(0.4)
    x = np.random.default_rng(80).standard_normal(5)
    x /= np.linalg.norm(x)
    trace = forward(V, act, x)
    feat = output_gradient(V, act, x)
    np.testing.assert_array_equal(feat.outer[0], trace.x[-1])


def test_loss_and_gradient_agrees_with_separate_calls():
    V = random_stack(3, 2, seed=81)
    act = huberized(0.7)
    data = make_dataset(3, 4, seed=82)
    point = (data.inputs @ V.hidden[0].T, _tail(V))
    loss, log_loss, C, tail, k = loss_and_gradient(point, act, data)
    want = total_loss(V, act, data)
    assert (loss, log_loss) == (want.value, want.log_value)
    # the gradient comes back times 2^k, with k lifting the largest g into [1/2, 1]
    outputs = np.array([forward(V, act, x).output for x in data.inputs])
    assert 0.5 <= np.max(logistic(data.labels * outputs)[2]) * 2.0**k <= 1.0
    sep = gradient_reference(V, act, data)
    np.testing.assert_array_equal(np.ldexp(C.T @ data.inputs, -k), sep.hidden[0])
    assert np.ldexp(tail, -k).tobytes() == sep.flat[V.p * V.p :].tobytes()


@pytest.mark.parametrize("make_act", [huberized, swish])
@pytest.mark.parametrize("p,L,n", [(4, 1, 3), (8, 2, 3), (32, 3, 6), (2, 1, 4)])
def test_gradient_equals_the_all_layer_form_bit_for_bit(make_act, p, L, n):
    # layer 1 as C^T X from loss_and_gradient at the point (X W_1^T, tail);
    # the reference forms every layer from one pass at the whole stack.
    # At (2, 1, 4) there are more inputs than coordinates
    act = make_act(0.3)
    V = random_stack(p, L, seed=700 + p + L, scale=1.5 / math.sqrt(p))
    data = make_dataset(p, n, seed=800 + n)
    C, tail, k = loss_and_gradient(_point(V, data.inputs), act, data)[2:]
    point_form = np.ldexp(np.concatenate([(C.T @ data.inputs).ravel(), tail]), -k)  # exact: no entry is subnormal
    assert point_form.tobytes() == gradient_reference(V, act, data).flat.tobytes()


def _per_sample_reference(V, act, data):
    """Loss, loss gradient and output gradients, one sample at a time."""
    L = V.depth
    losses, feats = [], []
    grad = [np.zeros(m.shape) for m in V.layers()]
    for x, y in zip(data.inputs, data.labels):
        xs, sigmas = [x], []
        for W in V.hidden:
            u = W @ xs[-1]
            sigmas.append(np.asarray(act.deriv(u)))
            xs.append(np.asarray(act.value(u)))
        z = y * float(V.outer[0] @ xs[-1])
        losses.append(float(np.logaddexp(0.0, -z)))
        feat = [None] * L + [xs[-1][None, :]]
        b = sigmas[-1] * V.outer[0]
        for layer in range(L - 1, -1, -1):
            feat[layer] = np.outer(b, xs[layer])
            if layer:
                b = sigmas[layer - 1] * (V.hidden[layer].T @ b)
        feats.append(feat)
        weight = -y / (1.0 + math.exp(z)) / data.n
        for acc, block in zip(grad, feat):
            acc += weight * block
    return math.fsum(losses) / data.n, grad, feats


def _rel(got, want):
    return float(np.linalg.norm(got - want)) / float(np.linalg.norm(want))


@pytest.mark.parametrize("make_act", [huberized, swish])
@pytest.mark.parametrize("p,L,n", [(5, 1, 3), (6, 2, 4), (16, 3, 7)])
def test_batched_pass_matches_per_sample_reference(make_act, p, L, n):
    act = make_act(0.3)
    V = random_stack(p, L, seed=500 + p + L, scale=1.5 / math.sqrt(p))
    data = make_dataset(p, n, seed=600 + n)
    want_loss, want_grad, want_feats = _per_sample_reference(V, act, data)

    grad = gradient_reference(V, act, data)
    assert total_loss(V, act, data).value == pytest.approx(want_loss, rel=1e-13)
    for got, want in zip(grad.layers(), want_grad):
        assert _rel(got, want) <= 1e-13
    feats = ntk_features(V, act, data)
    assert len(feats) == n
    for feat, want in zip(feats, want_feats):
        for got, block in zip(feat.layers(), want):
            assert _rel(got, block) <= 1e-13


_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from boundbench.activations import huberized
from boundbench.linalg import frobenius_norm, stack_dot
from boundbench.network import Dataset, total_loss
from boundbench.ntk import (
    InitSpec,
    NtBallConfig,
    gaussian_init,
    margin_estimate_subgradient,
    nt_class_minimize,
    ntk_features,
    run_phase,
)
from stack_helpers import gradient_reference, max_layer_distance


def case(p, L, n):
    rng = np.random.default_rng(n)
    data = Dataset(inputs=rng.standard_normal((n, p)), labels=np.resize([1.0, -1.0], n))
    return gaussian_init(InitSpec(p=p, L=L, seed=p + L)), data


def add_phase(trace):
    for column in (trace.loss, trace.log_loss, trace.grad_norm, trace.weight_norm,
                   trace.grad_dot_weights, trace.drift, trace.best[0], trace.best[1].flat,
                   trace.final[0], trace.final[1].flat):
        digest.update(column.tobytes())


digest = hashlib.sha256()
for p, L, n in ((32, 2, 6), (256, 3, 16), (512, 1, 4)):
    V, data = case(p, L, n)
    loss, grad = total_loss(V, huberized(0.01), data), gradient_reference(V, huberized(0.01), data)
    digest.update(repr((loss.value, loss.log_value)).encode())
    norms = (frobenius_norm(grad), frobenius_norm(V), stack_dot(grad, V), max_layer_distance(V, grad))
    digest.update(repr(norms).encode())
    for stack in [grad, *ntk_features(V, huberized(0.01), data)]:
        for m in stack.layers():
            digest.update(m.tobytes())
    # both tangent solvers: the margin estimate and the rho = 1 ball minimizer
    witness = margin_estimate_subgradient(V, huberized(0.01), data)
    v_star, value = nt_class_minimize(V, huberized(0.01), data, NtBallConfig(rho=1.0))
    digest.update(repr((witness.gamma, value)).encode())
    digest.update(witness.w_star.flat.tobytes())
    digest.update(v_star.flat.tobytes())
# 20 descent steps on the last case, (512, 1, 4), then 20 more restarted from
# that phase's argmin as phase 2 of the two-phase schedule restarts
first = run_phase(V, huberized(0.01), data, 0.05, 20)
add_phase(first)
add_phase(run_phase(V, huberized(0.01), data, 0.05, 20, start=first.best))
# 20 steps at (256, 2, 16): layer 1 in coordinates, layer 2 and the outer row swept
V, data = case(256, 2, 16)
add_phase(run_phase(V, huberized(0.01), data, 0.05, 20))
print(digest.hexdigest())
"""


def test_results_do_not_depend_on_blas_thread_count():
    src = str(Path(__file__).resolve().parents[1] / "src")
    tests = str(Path(__file__).resolve().parent)
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, tests, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_output_bounded_by_product_of_operator_norms():
    for seed in range(20):
        V = random_stack(4, 2, seed=300 + seed)
        act = huberized(0.5) if seed % 2 else swish(0.5)
        x = np.random.default_rng(400 + seed).standard_normal(4)
        x /= np.linalg.norm(x)
        bound = 1.0
        for m in V.layers():
            bound *= operator_norm(m).upper
        assert abs(forward(V, act, x).output) <= bound * (1 + 1e-10)


# ---------------------------------------------------------------------------
# gd_step


def test_gd_step_zero_gradient_is_identity():
    V = random_stack(3, 1, seed=90)
    out = gd_step(V, 0.5, zero_stack(3, 1))
    for a, b in zip(V.layers(), out.layers()):
        np.testing.assert_array_equal(a, b)


def test_gd_step_moves_by_alpha_times_gradient():
    V = random_stack(3, 1, seed=91)
    g = random_stack(3, 1, seed=92)
    alpha = 1e-3
    out = gd_step(V, alpha, g)
    moved = frobenius_norm(stack_axpy(out, -1.0, V))
    assert moved == pytest.approx(alpha * frobenius_norm(g), rel=1e-12)
    oracle = stack_axpy(V, -alpha, g)
    for a, b in zip(out.layers(), oracle.layers()):
        np.testing.assert_array_equal(a, b)


def test_gd_step_requires_positive_alpha():
    V = random_stack(2, 1, seed=93)
    with pytest.raises(ValueError):
        gd_step(V, 0.0, V)


# ---------------------------------------------------------------------------
# dataset ingest


def test_dataset_renormalizes_inputs():
    data = Dataset(inputs=np.array([[3.0, 4.0]]), labels=np.array([1.0]))
    assert float(np.linalg.norm(data.inputs[0])) == pytest.approx(1.0, abs=1e-12)


def test_dataset_rejects_bad_labels():
    with pytest.raises(ValueError):
        Dataset(inputs=np.eye(2), labels=np.array([1.0, 0.5]))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Dataset(inputs=np.eye(2), labels=np.array([1.0])), "labels must be one per input row"),
        (lambda: _point(zero_stack(2, 1), np.zeros((3, 3))), r"inputs have shape \(3, 3\), expected \(n, 2\)"),
        (lambda: _point(zero_stack(2, 1), np.zeros(2)), r"inputs have shape \(2,\), expected \(n, 2\)"),
    ],
    ids=["label-count", "point-width", "point-vector"],
)
def test_inputs_of_the_wrong_shape_are_named(call, message):
    with pytest.raises(ShapeMismatchError, match=message):
        call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dataset_rejects_a_non_finite_input(bad):
    # NaN fails both norm checks and inf normalizes to a row holding NaN
    with pytest.raises(ValueError, match="inputs"):
        Dataset(inputs=np.array([[bad, 1.0], [1.0, 0.0]]), labels=np.array([1.0, -1.0]))


@pytest.mark.parametrize("scale", [1e200, 1e-200, 5e-324, 1.7e308])
def test_dataset_normalises_rows_at_extreme_magnitudes(scale):
    # squared entries overflow or underflow; the row is rescaled by its
    # largest entry before its norm is taken
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        data = Dataset(inputs=np.array([[scale, scale], [scale, 0.0], [1.0, 0.0]]), labels=np.array([1.0, -1.0, 1.0]))
    np.testing.assert_allclose(data.inputs[0], [math.sqrt(0.5)] * 2, rtol=1e-15)
    assert data.inputs[1].tolist() == [1.0, 0.0]
    assert data.inputs[2].tolist() == [1.0, 0.0]


def test_dataset_normalises_ordinary_rows_bit_for_bit_as_before():
    inputs = np.random.default_rng(7).standard_normal((9, 5)) * np.array([1e-150, 1e-8, 0.3, 1.0, 1.0, 2.0, 1e3, 1e8, 1e150])[:, None]
    data = Dataset(inputs=inputs, labels=np.ones(9))
    assert data.inputs.tobytes() == (inputs / np.linalg.norm(inputs, axis=1)[:, None]).tobytes()
    with pytest.raises(ValueError, match="zero input"):
        Dataset(inputs=np.array([[0.0, 0.0], [1e-200, 0.0]]), labels=np.array([1.0, -1.0]))


def test_dataset_json_roundtrip_and_warning(tmp_path):
    doc = {
        "p": 2,
        "samples": [
            {"x": [3.0, 4.0], "y": 1},
            {"x": [0.0, -1.0], "y": -1},
        ],
    }
    path = tmp_path / "data.json"
    path.write_text(json.dumps(doc))
    config = parse_config({"mode": "theorem31", "network": {"p": 2}, "data": {"file": str(path)}})
    with pytest.warns(UserWarning, match="deviate from unit norm") as record:
        data = build_dataset(config)
    assert str(record[0].message).startswith(f"{path}: ")
    with pytest.warns(UserWarning, match="^<inline>: inputs deviate from unit norm"):
        build_dataset(parse_config({"mode": "theorem31", "network": {"p": 2}, "data": {"inline": doc}}))
    assert data.n == 2 and data.p == 2
    assert float(np.linalg.norm(data.inputs[0])) == pytest.approx(1.0, abs=1e-12)
    # the normalised rows, loaded again inline, come back unchanged and unwarned
    rows = [{"x": x.tolist(), "y": int(y)} for x, y in zip(data.inputs, data.labels)]
    inline = {"mode": "theorem31", "network": {"p": 2}, "data": {"inline": {"p": 2, "samples": rows}}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = build_dataset(parse_config(inline))
    assert again.inputs.tobytes() == data.inputs.tobytes()
    assert again.labels.tobytes() == data.labels.tobytes()
