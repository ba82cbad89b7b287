import inspect
import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from boundbench import ntk
from boundbench.activations import huberized, swish
from boundbench.harness import parse_config
from boundbench.linalg import WeightStack, frobenius_norm, operator_norm, stack_axpy, stack_dot
from boundbench.network import (
    Dataset,
    _tail,
    forward,
    forward_rows,
    logistic,
    sensitivities,
    total_loss,
)
from boundbench.ntk import (
    InitSpec,
    MarginWitness,
    NtBallConfig,
    NumericalDivergenceError,
    PhasePlan,
    _remainders,
    _span_u1,
    approx_error_sample,
    faithful_horizon_log10,
    gaussian_init,
    init_diagnostics,
    make_clustered_dataset,
    margin_estimate_subgradient,
    nt_class_minimize,
    nt_smoothing_width,
    ntk_features,
    phase_stack,
    run_phase,
    sigma_difference_sparsity,
    two_phase_train,
)
from reference_descent import descent
from reference_kernels import nt_minimize_old_rule
from stack_helpers import (
    _perturb_layers_frobenius,
    approx_error_reference,
    gamma_bound,
    margin_gamma,
    margin_witness_clustered,
    max_layer_distance,
    remainders,
    zero_stack,
)


def clustered(p, n, r, seed, data_seed=None):
    """(the unit cluster center, the data set), the center drawn from `seed`
    and the samples from `data_seed`, by default seed + 1."""
    mu = np.random.default_rng(seed).standard_normal(p)
    data = make_clustered_dataset(p, r, n, data_seed if data_seed is not None else seed + 1, mu)
    return mu / np.linalg.norm(mu), data


# ---------------------------------------------------------------------------
# initialization


def test_gaussian_init_deterministic():
    a = gaussian_init(InitSpec(p=16, L=2, seed=42))
    b = gaussian_init(InitSpec(p=16, L=2, seed=42))
    for ma, mb in zip(a.layers(), b.layers()):
        np.testing.assert_array_equal(ma, mb)


@pytest.mark.parametrize("p, L, seed", [(4, 1, 0), (8, 2, 3), (512, 1, 5), (2048, 3, 0)])
def test_gaussian_init_matches_documented_recipe_bitwise(p, L, seed):
    rng = np.random.default_rng(seed)
    hidden = [rng.normal(0.0, math.sqrt(2.0 / p), size=(p, p)) for _ in range(L)]
    outer = rng.normal(0.0, 1.0, size=(1, p))
    V = gaussian_init(InitSpec(p=p, L=L, seed=seed))
    for got, want in zip(V.layers(), [*hidden, outer], strict=True):
        assert got.tobytes() == want.tobytes()


def test_gaussian_init_hidden_variance():
    V = gaussian_init(InitSpec(p=2048, L=3, seed=0))
    for m in V.hidden:
        var = float(np.var(m))
        assert var == pytest.approx(2.0 / 2048, rel=0.05)
    assert float(np.var(V.outer)) == pytest.approx(1.0, rel=0.2)


def test_gaussian_init_norm_within_probable_envelope():
    for seed in range(5):
        spec = InitSpec(p=256, L=2, seed=seed)
        V = gaussian_init(spec)
        assert frobenius_norm(V) <= math.sqrt(5 * spec.p * spec.L)


def test_init_spec_validation():
    with pytest.raises(ValueError):
        InitSpec(p=0, L=1, seed=0)
    with pytest.raises(ValueError):
        InitSpec(p=4, L=0, seed=0)
    for field in ("p", "L"):
        for value in (0, 2.5, 4.0, math.inf, math.nan, True):
            with pytest.raises(ValueError, match=f"^{field} "):
                InitSpec(**{"p": 4, "L": 1, "seed": 0, field: value})
    for value in (2.5, -1, math.nan, True):
        with pytest.raises(ValueError, match="^seed "):
            InitSpec(p=4, L=1, seed=value)
    assert InitSpec(p=np.int64(4), L=np.int32(2), seed=0).L == 2
    assert InitSpec(p=4, L=1, seed=np.uint64(7)).seed == 7


# ---------------------------------------------------------------------------
# tangent features


def test_feature_outer_block_equals_last_hidden_features():
    V1 = gaussian_init(InitSpec(p=32, L=2, seed=3))
    act = huberized(0.01)
    _, data = clustered(32, 4, 0.05, seed=4)
    feats = ntk_features(V1, act, data)
    trace = forward_rows(V1, act, data.inputs)
    below = (data.inputs, *trace.x[:-1])
    bs = sensitivities(trace.sigma_diag, V1.hidden[1:], V1.outer[0])
    for i, feat in enumerate(feats):
        np.testing.assert_array_equal(feat.outer[0], trace.x[-1][i])
        # under ==: the one-hot GEMMs that form the blocks may turn -0.0 into +0.0
        for block, b, x in zip(feat.hidden, bs, below):
            assert (block == np.outer(b[i], x[i])).all()


def test_feature_inner_product_vanishes_at_center():
    V1 = gaussian_init(InitSpec(p=8, L=1, seed=5))
    act = huberized(0.05)
    _, data = clustered(8, 2, 0.0, seed=6)
    feats = ntk_features(V1, act, data)
    delta = stack_axpy(V1, -1.0, V1)  # zero offset
    for f in feats:
        assert stack_dot(f, delta) == 0.0


def test_feature_is_directional_derivative():
    V1 = gaussian_init(InitSpec(p=8, L=2, seed=7))
    act = swish(0.3)  # smooth activation keeps the FD clean
    _, data = clustered(8, 3, 0.05, seed=8)
    feats = ntk_features(V1, act, data)
    rng = np.random.default_rng(9)
    D = WeightStack(
        hidden=tuple(rng.standard_normal((8, 8)) for _ in range(2)),
        outer=rng.standard_normal((1, 8)),
    )
    eps = 1e-6
    up = stack_axpy(V1, eps, D)
    down = stack_axpy(V1, -eps, D)
    for feat, x in zip(feats, data.inputs):
        fd = (forward(up, act, x).output - forward(down, act, x).output) / (2 * eps)
        assert fd == pytest.approx(stack_dot(feat, D), rel=1e-5, abs=1e-8)


# ---------------------------------------------------------------------------
# clustered data


def test_clustered_r_zero_gives_antipodal_centers():
    mu, data = clustered(16, 4, 0.0, seed=11)
    np.testing.assert_allclose(data.inputs[0], mu, atol=1e-15)
    np.testing.assert_allclose(data.inputs[-1], -mu, atol=1e-15)


def test_clustered_points_stay_in_radius_and_on_sphere():
    mu, data = clustered(64, 10, 0.05, seed=12)
    for x, y in zip(data.inputs, data.labels):
        assert float(np.linalg.norm(x)) == pytest.approx(1.0, abs=1e-12)
        assert float(np.linalg.norm(x - y * mu)) <= 0.05 + 1e-12


def test_clustered_labels_balanced_for_even_n():
    _, data = clustered(8, 6, 0.02, seed=13)
    assert int(np.sum(data.labels == 1.0)) == 3


def test_clustered_radius_guard():
    # both ends of [0, 1/16] are accepted, the next float above is not
    mu = np.eye(4)[0]
    make_clustered_dataset(4, 0.0, 4, 1, mu)
    make_clustered_dataset(4, 1.0 / 16.0, 4, 1, mu)
    with pytest.raises(ValueError, match="1/16"):
        make_clustered_dataset(4, float(np.nextafter(1.0 / 16.0, 1.0)), 4, 1, mu)


@pytest.mark.parametrize("r", [math.nan, math.inf, -0.1, 0.2])
def test_clustered_spec_rejects_a_radius_outside_the_range(r):
    # NaN fails every comparison, so a check on each end alone would let it through
    with pytest.raises(ValueError, match="radius r"):
        make_clustered_dataset(4, r, 4, 1, np.eye(4)[0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_clustered_spec_rejects_a_non_finite_center(bad):
    with pytest.raises(ValueError, match="mu"):
        make_clustered_dataset(2, 0.0, 2, 1, np.array([bad, 1.0]))


@pytest.mark.parametrize("mu", [[0.0, 0.0], [1.0, 0.0, 0.0], [[1.0, 0.0]]])
def test_clustered_data_rejects_a_zero_or_misshapen_center(mu):
    with pytest.raises(ValueError, match="mu"):
        make_clustered_dataset(2, 0.0, 2, 1, mu)


def test_clustered_data_rejects_fewer_than_two_samples():
    with pytest.raises(ValueError, match="each label"):
        make_clustered_dataset(2, 0.0, 1, 1)


def test_clustered_center_defaults_to_the_seeds_normal_draw():
    mu = np.random.default_rng(5).standard_normal(6)
    drawn, given = make_clustered_dataset(6, 0.05, 4, 5), make_clustered_dataset(6, 0.05, 4, 5, mu)
    assert np.array_equal(drawn.inputs, given.inputs)


# ---------------------------------------------------------------------------
# margin witnesses


def test_clustered_witness_unit_norm_and_consistent_gamma():
    p = 256
    h = math.sqrt(math.pi) / (2 * p)
    act = huberized(h)
    V1 = gaussian_init(InitSpec(p=p, L=1, seed=21))
    mu, data = clustered(p, 6, 0.0, seed=22)
    witness = margin_witness_clustered(V1, act, mu, data)
    assert abs(frobenius_norm(witness.w_star) - 1.0) <= 1e-10
    feats = ntk_features(V1, act, data)
    direct = margin_gamma(feats, data.labels, witness.w_star)
    assert witness.gamma == pytest.approx(direct, abs=1e-12)
    assert witness.gamma > 0


def test_clustered_witness_rejects_wrong_setup():
    p = 64
    act_ok = huberized(math.sqrt(math.pi) / (2 * p))
    mu, data = clustered(p, 4, 0.0, seed=23)
    deep = gaussian_init(InitSpec(p=p, L=2, seed=24))
    with pytest.raises(ValueError, match="two-layer"):
        margin_witness_clustered(deep, act_ok, mu, data)
    shallow = gaussian_init(InitSpec(p=p, L=1, seed=24))
    with pytest.raises(ValueError, match="width"):
        margin_witness_clustered(shallow, huberized(0.5), mu, data)
    with pytest.raises(ValueError, match="Huberized"):
        margin_witness_clustered(shallow, swish(1e-4), mu, data)


def test_clustered_witness_mismatched_direction_reports_without_asserting():
    # a center orthogonal to the data axis can produce a nonpositive margin;
    # the construction reports it rather than failing
    p = 128
    act = huberized(math.sqrt(math.pi) / (2 * p))
    V1 = gaussian_init(InitSpec(p=p, L=1, seed=25))
    mu, data = clustered(p, 4, 0.0, seed=26)
    wrong_mu = np.zeros(p)
    wrong_mu[int(np.argmin(np.abs(mu)))] = 1.0
    witness = margin_witness_clustered(V1, act, wrong_mu, data)
    assert math.isfinite(witness.gamma)


def test_subgradient_single_sample_optimum():
    V1 = gaussian_init(InitSpec(p=16, L=1, seed=31))
    act = huberized(0.01)
    x = np.random.default_rng(32).standard_normal(16)
    data = Dataset(inputs=x[None, :], labels=np.array([1.0]))
    witness = margin_estimate_subgradient(V1, act, data)
    expected = frobenius_norm(ntk_features(V1, act, data)[0]) / math.sqrt(16)
    assert witness.gamma == pytest.approx(expected, rel=1e-12)


def test_subgradient_duplicate_sample_matches_single():
    V1 = gaussian_init(InitSpec(p=16, L=1, seed=33))
    act = huberized(0.01)
    x = np.random.default_rng(34).standard_normal(16)
    x /= np.linalg.norm(x)
    single = Dataset(inputs=x[None, :], labels=np.array([1.0]))
    double = Dataset(inputs=np.stack([x, x]), labels=np.array([1.0, 1.0]))
    w1 = margin_estimate_subgradient(V1, act, single)
    w2 = margin_estimate_subgradient(V1, act, double)
    assert w1.gamma == pytest.approx(w2.gamma, rel=1e-12)


def test_subgradient_competitive_with_explicit_witness():
    p = 256
    h = math.sqrt(math.pi) / (2 * p)
    act = huberized(h)
    V1 = gaussian_init(InitSpec(p=p, L=1, seed=35))
    mu, data = clustered(p, 6, 0.01, seed=36)
    explicit = margin_witness_clustered(V1, act, mu, data)
    estimated = margin_estimate_subgradient(V1, act, data)
    assert explicit.gamma <= estimated.gamma <= estimated.gamma_upper


def test_margin_witness_requires_unit_norm():
    with pytest.raises(ValueError, match="unit norm"):
        MarginWitness(w_star=zero_stack(2, 1), gamma=0.0, gamma_upper=0.0)


# ---------------------------------------------------------------------------
# tangent-class quantities


@pytest.fixture(scope="module")
def nt_setup():
    p = 96
    V1 = gaussian_init(InitSpec(p=p, L=1, seed=41))
    act = huberized(1e-3)
    _, data = clustered(p, 4, 0.05, seed=42)
    return V1, act, data


def test_nt_minimize_zero_radius_returns_plain_loss(nt_setup):
    V1, act, data = nt_setup
    v_star, eps = nt_class_minimize(V1, act, data, NtBallConfig(rho=0.0))
    assert eps == total_loss(V1, act, data).value
    assert v_star is V1


def test_nt_minimize_monotone_in_radius(nt_setup):
    V1, act, data = nt_setup
    values = [
        nt_class_minimize(V1, act, data, NtBallConfig(rho=rho, steps=300))[1]
        for rho in (0.1, 1.0, 10.0)
    ]
    assert values[1] <= values[0] + 1e-8
    assert values[2] <= values[1] + 1e-8


def test_nt_minimize_restarts_agree(nt_setup):
    # convex objective: a run twice as long lands on the same minimum
    V1, act, data = nt_setup
    _, a = nt_class_minimize(V1, act, data, NtBallConfig(rho=0.5, steps=1500))
    _, b = nt_class_minimize(V1, act, data, NtBallConfig(rho=0.5, steps=3000))
    assert a == pytest.approx(b, abs=1e-6)


class _CountingLogistic:
    def __init__(self, monkeypatch):
        self.calls = 0
        monkeypatch.setattr(ntk, "logistic", self)

    def __call__(self, z):
        self.calls += 1
        return logistic(z)


def test_nt_minimize_stops_before_the_cap_at_a_small_radius(nt_setup, monkeypatch):
    # one evaluation at V1 and at least one per step taken: a run of all
    # 100 steps makes more than 100 calls, and a stop on the gap makes as
    # many calls whatever the cap
    V1, act, data = nt_setup
    counter = _CountingLogistic(monkeypatch)
    calls = []
    for steps in (100, 400):
        counter.calls = 0
        nt_class_minimize(V1, act, data, NtBallConfig(rho=0.1, steps=steps))
        calls.append(counter.calls)
    assert calls[0] <= 100
    assert calls[0] == calls[1]


@pytest.mark.parametrize("rho", [1.0, 10.0])
def test_nt_minimize_certifies_in_few_steps_where_descent_stalled(nt_setup, monkeypatch, rho):
    # projected descent ran all its steps here; Newton on the dual stops on
    # its certified gap after a few, whatever the cap
    V1, act, data = nt_setup
    counter = _CountingLogistic(monkeypatch)
    values, calls = [], []
    for steps in (100, 400):
        counter.calls = 0
        values.append(nt_class_minimize(V1, act, data, NtBallConfig(rho=rho, steps=steps))[1])
        calls.append(counter.calls)
    assert calls[0] <= 40
    assert calls[0] == calls[1]
    assert values[0] == values[1]
    longer = nt_minimize_old_rule(V1, act, data, rho, steps=20_000)
    assert values[0] - longer <= ntk._GAP_STOP * values[0]


@pytest.mark.parametrize(
    "rho, ceiling",
    # 2.031870767640917e-40 is where 400 steps of projected descent ended at
    # rho = 50 and beyond; at rho = 100 the minimum is near e^-504, and the
    # solver run on an unscaled dual point stops near 5.2e-213
    [(50.0, 2.031870767640917e-40), (100.0, 2e-219), (150.0, 2.031870767640917e-40)],
)
def test_nt_minimize_keeps_a_finite_value_where_the_loss_underflows(nt_setup, rho, ceiling):
    # the margins reach about 5 rho: at 150, sigma(-z) would underflow unscaled
    V1, act, data = nt_setup
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        v_star, value = nt_class_minimize(V1, act, data, NtBallConfig(rho=rho))
    assert math.isfinite(value)
    assert value <= ceiling * (1 + 1e-12)
    assert max_layer_distance(v_star, V1) <= rho * (1 + 1e-12)


def test_scaled_logistic_is_the_loss_kernel_times_the_scale():
    z = np.array([-30.0, -2.5, 0.0, 1e-3, 3.0, 39.0, 41.0, 300.0])
    kernel = logistic(z)
    for shift in (0.0, 2.0, 30.0):
        loss, s, comp = ntk._scaled_logistic(z, shift)
        np.testing.assert_allclose(loss, math.exp(shift) * kernel.values, rtol=4e-15 * (1 + shift))
        np.testing.assert_allclose(s, math.exp(shift) * kernel.g, rtol=4e-15 * (1 + shift))
        np.testing.assert_allclose(comp, 1.0 / (1.0 + np.exp(-z)), rtol=4e-15)
    # where the unscaled loss underflows, the scaled one carries its digits
    loss, s, _ = ntk._scaled_logistic(np.array([800.0, 801.0]), 800.0)
    np.testing.assert_allclose(loss, [1.0, math.exp(-1.0)], rtol=1e-15)
    np.testing.assert_allclose(s, [1.0, math.exp(-1.0)], rtol=1e-15)


@pytest.mark.parametrize("case", ["p96-huberized", "p12-huberized-L1", "p12-swish-L3"])
def test_nt_minimize_stop_is_within_the_threshold_of_a_long_run(case, nt_setup):
    # the certified gap bounds the stopped value's excess over the minimum
    if case == "p96-huberized":
        (V1, act, data), rho = nt_setup, 0.1
    else:
        L, act, rho = {"p12-huberized-L1": (1, huberized(0.05), 1.0), "p12-swish-L3": (3, swish(0.1), 0.5)}[case]
        V1, data, _ = _kernel_case(L, act)
    _, value = nt_class_minimize(V1, act, data, NtBallConfig(rho=rho, steps=400))
    longer = nt_minimize_old_rule(V1, act, data, rho, steps=20 * 400)
    assert value - longer <= ntk._GAP_STOP * value


def test_nt_minimize_stays_in_ball(nt_setup):
    V1, act, data = nt_setup
    v_star, _ = nt_class_minimize(V1, act, data, NtBallConfig(rho=0.3, steps=200))
    assert max_layer_distance(v_star, V1) <= 0.3 * (1 + 1e-12)


def test_approx_error_zero_at_zero_radius(nt_setup):
    V1, act, data = nt_setup
    assert approx_error_sample(V1, act, data, tau=0.0) == 0.0


def test_approx_error_grows_superlinearly(nt_setup):
    V1, act, data = nt_setup
    taus = (0.25, 0.5, 1.0, 2.0)
    vals = [approx_error_sample(V1, act, data, t, k_pairs=10, seed=5) for t in taus]
    assert all(v > 0 for v in vals)
    slope = np.polyfit(np.log(taus), np.log(vals), 1)[0]
    assert 1.0 <= slope <= 2.0


def test_approx_error_bounded_by_calibrated_scaling_form():
    # constant calibrated on the smallest width bounds the larger ones;
    # only compliance with the sqrt(p log p) L^5 tau^(4/3) shape is claimed,
    # never the rate itself
    L, tau, h = 1, 0.5, 1e-4
    mu_rng = np.random.default_rng(3)

    def measure(p):
        V1 = gaussian_init(InitSpec(p=p, L=L, seed=2))
        mu = mu_rng.standard_normal(p)
        data = make_clustered_dataset(p, 0.05, 3, 4, mu)
        est = approx_error_sample(V1, huberized(h), data, tau, k_pairs=10, seed=6)
        return est, math.sqrt(p * math.log(p)) * L**5 * tau ** (4.0 / 3.0)

    est0, scale0 = measure(64)
    C = est0 / scale0
    for p in (128, 256, 512):
        est, scale = measure(p)
        assert est <= 1.5 * C * scale


@pytest.mark.parametrize("act", [huberized(0.01), swish(0.1)], ids=["huberized", "swish"])
@pytest.mark.parametrize("p, L, n", [(16, 1, 3), (12, 2, 4), (8, 3, 10)])
def test_span_draw_remainders_equal_the_parameter_space_form(p, L, n, act):
    # each point's first layer is one full p x p draw G, given to the span
    # form as Z = G Q and ||G||^2 - ||Z||^2 (X^T = Q R); at (8, 3, 10) there
    # are more inputs than coordinates, so Q is square and that difference
    # is rounding. Error measured against the largest remainder
    V1 = gaussian_init(InitSpec(p=p, L=L, seed=p + L))
    rng = np.random.default_rng(n)
    data = Dataset(inputs=rng.standard_normal((n, p)), labels=np.resize([1.0, -1.0], n))
    Q, R = np.linalg.qr(data.inputs.T)
    U0 = data.inputs @ V1.hidden[0].T
    stacks, points = [], []
    for _ in range(2):
        G = rng.standard_normal((p, p))
        radius = 0.8 * rng.uniform(0.5, 1.0)
        full = _perturb_layers_frobenius(V1, 0.8, rng)
        first = V1.hidden[0] + radius * G / np.linalg.norm(G)
        stacks.append(WeightStack.from_layers([first, *full.hidden[1:], full.outer]))
        Z = G @ Q
        chi_sq = float(np.vdot(G, G) - np.vdot(Z, Z))
        points.append((_span_u1(U0, R, Z, chi_sq, radius), _tail(full)))
    want = remainders(*stacks, act, data)
    got = _remainders(act, *points)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("p, L, n", [(16, 1, 3), (12, 2, 4)])
def test_span_draw_matches_the_parameter_space_sampler_in_distribution(p, L, n):
    # single-pair estimates from 300 seeds of each sampler (disjoint seeds);
    # the two-sample Kolmogorov-Smirnov statistic stays below its critical
    # value at level 0.001
    V1 = gaussian_init(InitSpec(p=p, L=L, seed=7))
    rng = np.random.default_rng(8)
    data = Dataset(inputs=rng.standard_normal((n, p)), labels=np.resize([1.0, -1.0], n))
    act, m = huberized(0.01), 300
    got = np.sort([approx_error_sample(V1, act, data, 0.8, k_pairs=1, seed=s) for s in range(m)])
    want = np.sort(
        [approx_error_reference(V1, act, data, 0.8, k_pairs=1, seed=m + s) for s in range(m)]
    )
    both = np.concatenate([got, want])
    gap = np.searchsorted(got, both, side="right") - np.searchsorted(want, both, side="right")
    assert np.max(np.abs(gap)) / m <= math.sqrt(-math.log(0.0005) / 2.0) * math.sqrt(2.0 / m)


@pytest.mark.parametrize("tau", [-1.0, math.nan, math.inf])
def test_approx_error_rejects_a_bad_radius(nt_setup, tau):
    V1, act, data = nt_setup
    with pytest.raises(ValueError, match="tau"):
        approx_error_sample(V1, act, data, tau)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_approx_error_raises_on_a_non_finite_remainder(nt_setup):
    # the outputs overflow and the remainders are nan, which max() would drop
    V1, act, data = nt_setup
    with pytest.raises(ValueError, match="non-finite first-order remainder in pair 0"):
        approx_error_sample(V1, act, data, tau=1e300, k_pairs=2)


def test_nt_minimize_stopped_at_its_step_cap_stays_above_the_certified_minimum(nt_setup):
    # one Newton step does not close the gap at rho = 1, where 400 steps certify theirs
    V1, act, data = nt_setup
    _, capped = nt_class_minimize(V1, act, data, NtBallConfig(rho=1.0, steps=1))
    _, certified = nt_class_minimize(V1, act, data, NtBallConfig(rho=1.0, steps=400))
    assert capped >= certified * (1.0 - ntk._GAP_STOP)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            # a unit witness: its outer row is e_1
            lambda setup: MarginWitness(
                w_star=WeightStack(hidden=(np.zeros((2, 2)),), outer=np.eye(2)[:1]), gamma=0.5, gamma_upper=0.25
            ),
            "margin bracket out of order: 0.5 > 0.25",
        ),
        (lambda setup: approx_error_sample(*setup, tau=0.1, k_pairs=0), "need at least one pair"),
    ],
    ids=["witness-bracket", "approx-error-pairs"],
)
def test_tangent_quantities_reject_arguments_outside_their_domain(nt_setup, call, message):
    with pytest.raises(ValueError, match=message):
        call(nt_setup)


def test_nt_ball_config_rejects_a_nan_radius():
    with pytest.raises(ValueError, match="rho"):
        NtBallConfig(rho=math.nan)
    with pytest.raises(ValueError, match="rho"):
        NtBallConfig(rho=math.inf)


@pytest.mark.parametrize("steps", [0, 2.5, 400.0, math.inf, math.nan, True])
def test_nt_ball_config_rejects_a_bad_step_count_and_names_it(steps):
    with pytest.raises(ValueError, match="steps"):
        NtBallConfig(rho=1.0, steps=steps)


def test_gamma_bound_exact_at_zero_radius(nt_setup):
    V1, act, data = nt_setup
    feats = ntk_features(V1, act, data)
    expected = max(
        float(np.linalg.norm(m)) for f in feats for m in f.layers()
    )
    assert gamma_bound(V1, act, data, tau=0.0) == expected


def test_gamma_bound_scales_like_sqrt_width():
    p, L = 512, 2
    V1 = gaussian_init(InitSpec(p=p, L=L, seed=43))
    act = huberized(1e-4)
    _, data = clustered(p, 3, 0.02, seed=44)
    got = gamma_bound(V1, act, data, tau=0.0)
    assert got <= 2.0 * math.sqrt(p) * L**2


# ---------------------------------------------------------------------------
# kernel coordinates: both solvers against the same ascent/descent in stack space

KERNEL_CASES = [(1, huberized(0.05)), (2, huberized(0.05)), (3, swish(0.1))]


def _kernel_case(L, act):
    p = 12
    V1 = gaussian_init(InitSpec(p=p, L=L, seed=60 + L))
    _, data = clustered(p, 5, 0.05, seed=70 + L)
    feats = [list(f.layers()) for f in ntk_features(V1, act, data)]
    return V1, data, feats


def _tangent_margins(V1, act, data, feats, offset):
    f0 = forward_rows(V1, act, data.inputs).output
    return np.array([
        y * (f0[i] + sum(float(np.vdot(fm, om)) for fm, om in zip(feats[i], offset)))
        for i, y in enumerate(data.labels)
    ])


def _tangent_loss(V1, act, data, feats, offset):
    zs = _tangent_margins(V1, act, data, feats, offset)
    return logistic(zs).loss.value


def _stack_space_minimize(V1, act, data, feats, rho, steps):
    """Projected descent with step halving on the p^2 L + p parameters."""
    n = data.n

    def grad(off):
        zs = _tangent_margins(V1, act, data, feats, off)
        s = -data.labels * np.exp(-np.logaddexp(0.0, zs)) / n
        return [sum(si * f[l] for si, f in zip(s, feats)) for l in range(len(off))]

    def project(off):
        return [m if np.linalg.norm(m) <= rho else m * (rho / np.linalg.norm(m)) for m in off]

    offset = [np.zeros_like(m) for m in V1.layers()]
    step = 4.0 / max(sum(float(np.vdot(m, m)) for f in feats for m in f) / n, 1e-12)
    obj = _tangent_loss(V1, act, data, feats, offset)
    for _ in range(steps):
        g = grad(offset)
        halvings = 0
        while True:
            cand = project([m - step * gm for m, gm in zip(offset, g)])
            cand_obj = _tangent_loss(V1, act, data, feats, cand)
            if cand_obj <= obj or halvings == 40:
                break
            step *= 0.5
            halvings += 1
        if cand_obj > obj:
            break
        offset, obj = cand, cand_obj
        if halvings == 0:
            step *= 1.25
    return obj


@pytest.mark.parametrize("rho", [0.05, 0.5, 5.0])
@pytest.mark.parametrize("L,act", KERNEL_CASES)
def test_nt_minimize_kernel_coordinates_match_stack_space(L, act, rho):
    V1, data, feats = _kernel_case(L, act)
    v_star, value = nt_class_minimize(V1, act, data, NtBallConfig(rho=rho, steps=150))
    offset = [m - l for m, l in zip(v_star.layers(), V1.layers())]
    assert value == pytest.approx(_tangent_loss(V1, act, data, feats, offset), rel=1e-12)
    assert max_layer_distance(v_star, V1) <= rho * (1 + 1e-12)
    # the reference stalls above the minimum for L=3 Swish at rho=5
    # (1.265123468456e-7 against 1.265123468259e-7)
    reference = _stack_space_minimize(V1, act, data, feats, rho, steps=150)
    assert value <= reference * (1 + 1e-12)


def _support_enumeration_margin(feats, labels):
    """gamma* = min over the simplex of ||sum_i lam_i y_i F_i|| / sqrt(p), on
    the Gram of the formed feature stacks: the least norm over every support
    whose affine minimum-norm point has nonnegative weights."""
    n, sqrt_p = len(feats), math.sqrt(feats[0][-1].size)
    gram = np.array(
        [[y * z * sum(float(np.vdot(a, b)) for a, b in zip(f, g)) for g, z in zip(feats, labels)] for f, y in zip(feats, labels)]
    )
    best = math.inf
    for k in range(1, n + 1):
        for support in itertools.combinations(range(n), k):
            block = gram[np.ix_(support, support)]
            kkt = np.block([[block, np.ones((k, 1))], [np.ones((1, k)), np.zeros((1, 1))]])
            try:
                mu = np.linalg.solve(kkt, np.eye(k + 1)[k])[:k]
            except np.linalg.LinAlgError:
                continue
            if (mu >= 0.0).all():
                best = min(best, float(mu @ block @ mu))
    return math.sqrt(max(best, 0.0)) / sqrt_p


def _assert_brackets(witness, gamma_star):
    assert witness.gamma <= gamma_star * (1 + 1e-12)
    assert witness.gamma_upper >= gamma_star * (1 - 1e-12)
    assert witness.gamma_upper - witness.gamma <= 1e-12 * witness.gamma_upper


@pytest.mark.parametrize("L,act", KERNEL_CASES)
def test_margin_estimate_kernel_coordinates_match_stack_space(L, act):
    V1, data, _ = _kernel_case(L, act)
    rng = np.random.default_rng(80 + L)
    spread = Dataset(inputs=rng.standard_normal((8, V1.p)), labels=np.resize([1.0, -1.0], 8))
    for case in (data, spread):
        witness = margin_estimate_subgradient(V1, act, case)
        stacks = ntk_features(V1, act, case)
        _assert_brackets(witness, _support_enumeration_margin([list(f.layers()) for f in stacks], case.labels))
        assert witness.gamma == pytest.approx(margin_gamma(stacks, case.labels, witness.w_star), rel=1e-12)
        assert abs(frobenius_norm(witness.w_star) - 1.0) <= 1e-12
    twice = Dataset(inputs=np.stack([data.inputs[0]] * 2), labels=np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="zero"):
        margin_estimate_subgradient(V1, act, twice)


def _t32_data(seed, p=512, r=0.05):
    """The benchmark's t32 data set: four unit vectors within r of +mu (the
    first two, label +1) or -mu, drawn from default_rng([seed, p, 1])."""
    rng = np.random.default_rng([seed, p, 1])
    mu = rng.standard_normal(p)
    mu /= np.linalg.norm(mu)
    labels = np.array([1.0, 1.0, -1.0, -1.0])
    rows = []
    for label in labels:
        while True:
            d = rng.standard_normal(p)
            x = label * mu + d * (r * rng.uniform() ** (1.0 / p) / np.linalg.norm(d))
            x /= np.linalg.norm(x)
            if np.linalg.norm(x - label * mu) <= r:
                rows.append(x)
                break
    return Dataset(inputs=np.stack(rows), labels=labels)


@pytest.mark.parametrize("seed", [11, 3101, 44101, 44102])
def test_margin_bracket_closes_on_the_t32_data(seed):
    data = _t32_data(seed)
    V1 = gaussian_init(InitSpec(p=512, L=1, seed=5))
    act = huberized(nt_smoothing_width(4, 512, 1))
    witness = margin_estimate_subgradient(V1, act, data)
    feats = [list(f.layers()) for f in ntk_features(V1, act, data)]
    _assert_brackets(witness, _support_enumeration_margin(feats, data.labels))


# ---------------------------------------------------------------------------
# two-phase schedule


def test_phase_plan_validation():
    with pytest.raises(ValueError):
        PhasePlan(alpha_nt=0.0, T=10, rho=1.0)
    with pytest.raises(ValueError):
        PhasePlan(alpha_nt=0.1, T=0, rho=1.0)
    plan = PhasePlan(alpha_nt=0.1, T=1, rho=1.0)
    assert plan.T == 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("rho", math.nan), ("rho", -1.0), ("rho", math.inf),
        ("alpha_phase2", math.nan), ("alpha_phase2", -1.0), ("alpha_phase2", 0.0),
        ("stop_loss", math.nan), ("stop_loss", -1.0),
        ("alpha_nt", math.nan), ("alpha_nt", 0.0), ("alpha_nt", math.inf),
        ("phase2_steps", -1),
        ("T", 2.5), ("T", 10.0), ("T", math.inf), ("T", math.nan), ("T", True),
        ("phase2_steps", 1.5), ("phase2_steps", math.inf), ("phase2_steps", False),
    ],
)
def test_phase_plan_rejects_a_bad_value_and_names_it(field, value):
    given = {"alpha_nt": 0.1, "T": 1, "rho": 1.0, field: value}
    with pytest.raises(ValueError, match=field):
        PhasePlan(**given)


def auto_plan(n, p, L, gamma, **given):
    """`PhasePlan.auto` as a theorem32 run calls it, with each phase_plan key
    not `given` at the config schema's default ("auto" as None)."""
    section = parse_config(
        {"mode": "theorem32", "network": {"p": p, "L": L}, "data": {"clustered": {"r": 0.0, "n": 2}}}
    ).phase_plan
    keys = {k: None if v == "auto" else v for k, v in section.items() if k != "gamma"}
    return PhasePlan.auto(n, p, L, gamma, **keys | given)


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
def test_phase_plan_auto_rejects_a_bad_margin_and_names_it(gamma):
    with pytest.raises(ValueError, match="gamma"):
        auto_plan(n=4, p=8, L=1, gamma=gamma)


def test_phase_plan_auto_reads_gamma_only_for_an_automatic_rho():
    # gamma is None when it was not estimated; an automatic T is the faithful horizon capped at 10,000
    plan = auto_plan(n=4, p=8, L=1, gamma=None, rho=1.0)
    assert plan.rho == 1.0 and faithful_horizon_log10(4, 1, plan.rho, plan.alpha_nt) > 4 and plan.T == 10_000
    with pytest.raises(ValueError, match="gamma"):
        auto_plan(n=4, p=8, L=1, gamma=None)


def test_phase_plan_auto_formulas():
    n, p, L, gamma = 4, 64, 1, 0.5
    plan = auto_plan(n=n, p=p, L=L, gamma=gamma, delta=0.05, T=500)
    assert nt_smoothing_width(n, p, L) == pytest.approx(
        (1 + 24 * L) * math.log(n) / (6 * (6 * p) ** ((L + 1) / 2) * L**3), rel=1e-12
    )
    assert plan.alpha_nt == pytest.approx(1.0 / (p * L**5), rel=1e-12)
    expected_rho = (math.sqrt(math.log(n / 0.05)) + math.log(6) + 26 * math.log(n)) / (
        math.sqrt(p) * gamma
    )
    assert plan.rho == pytest.approx(expected_rho, rel=1e-12)
    # the faithful horizon is astronomically large; the plan runs the T it is given
    assert plan.T == 500
    assert faithful_horizon_log10(n, L, plan.rho, plan.alpha_nt) == pytest.approx(
        math.log10(3 * (L + 1) * plan.rho**2 / (2 * plan.alpha_nt))
        + (2 + 24 * L) * math.log10(n),
        rel=1e-12,
    )


def test_phase_plan_horizon_follows_the_given_radius_and_step():
    base = auto_plan(n=4, p=16, L=1, gamma=0.3)
    plan = auto_plan(n=4, p=16, L=1, gamma=0.3, rho=10 * base.rho, alpha_nt=base.alpha_nt / 10)
    # T grows like rho^2 / alpha_nt: three decades
    assert faithful_horizon_log10(4, 1, plan.rho, plan.alpha_nt) == pytest.approx(
        faithful_horizon_log10(4, 1, base.rho, base.alpha_nt) + 3, rel=1e-12
    )


@pytest.mark.parametrize("key, value", [("h_nt", 0.01), ("T_faithful_log10", -7.0)])
def test_phase_plan_auto_takes_no_width_or_horizon(key, value):
    # the width is the activation's, and the horizon is formed from rho and alpha_nt
    with pytest.raises(TypeError, match=key):
        auto_plan(n=4, p=16, L=1, gamma=0.3, T=5, **{key: value})


def test_phase_plan_holds_no_horizon_and_auto_no_defaults():
    with pytest.raises(TypeError, match="T_faithful_log10"):
        PhasePlan(alpha_nt=0.1, T=5, rho=1.0, T_faithful_log10=-7.0)
    keywords = list(inspect.signature(PhasePlan.auto).parameters)[4:]
    assert keywords == ["delta", "T", "alpha_nt", "rho", "stop_loss", "alpha_phase2", "phase2_steps"]
    for name in keywords:  # the config schema is the one home of the defaults
        assert inspect.signature(PhasePlan.auto).parameters[name].default is inspect.Parameter.empty
    with pytest.raises(TypeError, match="phase2_steps"):
        PhasePlan.auto(4, 16, 1, None, delta=0.05, T=5, alpha_nt=0.1, rho=1.0, stop_loss=None, alpha_phase2=None)
    assert faithful_horizon_log10(4, 1, 0.0, 0.1) is None  # at rho = 0 the ball is V1 itself


def test_phase_plan_auto_takes_given_numbers_as_floats():
    plan = PhasePlan.auto(
        n=4, p=8, L=1, gamma=None, delta=0.05, T=5, alpha_nt=1, rho=2, stop_loss=0, alpha_phase2=1, phase2_steps=0
    )
    assert [type(v) for v in (plan.alpha_nt, plan.rho, plan.stop_loss, plan.alpha_phase2)] == [float] * 4
    assert (plan.T, plan.alpha_nt, plan.rho) == (5, 1.0, 2.0)
    assert faithful_horizon_log10(4, 1, plan.rho, plan.alpha_nt) == pytest.approx(
        math.log10(1.5 * 2 * 4 / 1) + 26 * math.log10(4), rel=1e-12
    )


def test_two_phase_echoes_the_width_it_trained_at():
    p, n = 16, 2
    V1 = gaussian_init(InitSpec(p=p, L=1, seed=54))
    _, data = clustered(p, n, 0.0, seed=55)
    assert nt_smoothing_width(n, p, 1) != 0.01
    log = two_phase_train(V1, huberized(0.01), data, auto_plan(n, p, 1, gamma=None, rho=1.0, T=3))
    assert log.config_echo["plan"]["h_nt"] == 0.01


def test_two_phase_echoes_the_horizon_of_its_plan():
    # a plan built directly gets the horizon `auto` would form from its rho and alpha_nt
    p, n = 16, 4
    V1 = gaussian_init(InitSpec(p=p, L=1, seed=54))
    _, data = clustered(p, n, 0.0, seed=55)
    log = two_phase_train(V1, huberized(0.01), data, PhasePlan(alpha_nt=0.1, T=2, rho=1.0))
    assert log.config_echo["plan"]["T_faithful_log10"] == faithful_horizon_log10(n, 1, 1.0, 0.1)
    assert log.config_echo["plan"]["T_faithful_log10"] == pytest.approx(17.13, abs=0.005)
    assert log.phase_boundary is None


def test_run_phase_argmin_prefers_earliest():
    # zero gradient everywhere: every iterate ties, the first must win
    V = zero_stack(4, 1)
    data = Dataset(inputs=np.eye(4)[:2], labels=np.array([1.0, -1.0]))
    trace = run_phase(V, huberized(0.5), data, alpha=0.1, max_steps=5)
    assert trace.best_step == 1


@pytest.mark.parametrize("p, L", [(4, 1), (8, 2), (300, 2), (512, 1), (32, 3), (2, 1)])
@pytest.mark.parametrize("anchored", [False, True], ids=["start", "V1"])
def test_run_phase_columns_and_iterates_equal_the_stack_helpers(p, L, anchored):
    # run_phase holds layer 1 in coordinates of the inputs, so it agrees with
    # the parameter-space loop to rounding, not bit for bit. At (300, 2) the
    # sweep's tail holds 90,300 entries in two layers; at (2, 1) there are
    # more inputs than coordinates (n = 4), so K = X X^T is singular. "V1"
    # starts as phase 2 does: at a nonzero A, drift measured from V1
    V1 = gaussian_init(InitSpec(p=p, L=L, seed=p + L))
    other = stack_axpy(V1, 0.01, gaussian_init(InitSpec(p=p, L=L, seed=p + L + 1)))
    _, data = clustered(p, 4, 0.05, seed=p)
    act, alpha, steps = huberized(0.01), 0.05, 4
    if anchored:
        coef = 0.1 * np.random.default_rng(p + L + 2).standard_normal((data.n, p))
        trace = run_phase(V1, act, data, alpha, steps, start=(coef, _tail(other)))
        first = V1.hidden[0] + coef.T @ data.inputs
        start = WeightStack.from_layers([first, *other.hidden[1:], other.outer])
        want, want_best, want_final = descent(start, act, data, alpha, steps, anchor=V1)
        assert trace.drift[0] > 0.01
    else:
        V1 = other
        trace = run_phase(other, act, data, alpha, steps)
        want, want_best, want_final = descent(other, act, data, alpha, steps)
    for column in ("loss", "log_loss", "grad_norm", "weight_norm", "drift"):
        np.testing.assert_allclose(getattr(trace, column), getattr(want, column), rtol=1e-13, atol=0)
    # <g, V> cancels, so its error is measured against ||g|| ||V||
    dot_error = np.abs(trace.grad_dot_weights - want.grad_dot_weights)
    assert np.all(dot_error <= 1e-13 * want.grad_norm * want.weight_norm)
    assert trace.best_step == want.best_step
    for got, ref in ((trace.best, want_best), (trace.final, want_final)):
        got = phase_stack(V1, data, got)
        assert frobenius_norm(stack_axpy(got, -1.0, ref)) <= 1e-13 * frobenius_norm(ref)


def test_run_phase_restarts_at_the_argmin_row_bit_for_bit():
    # phase 2 of the schedule: start at phase 1's argmin, drift still from V
    V1 = gaussian_init(InitSpec(p=64, L=2, seed=80))
    _, data = clustered(64, 4, 0.05, seed=81)
    act = huberized(0.01)
    first = run_phase(V1, act, data, 0.05, 6)
    second = run_phase(V1, act, data, 0.02, 3, start=first.best)
    row = first.best_step - 1
    for column in ("loss", "log_loss", "grad_norm", "weight_norm", "grad_dot_weights", "drift"):
        assert getattr(second, column)[0] == getattr(first, column)[row]


def test_two_phase_restart_on_a_wide_tail_repeats_the_argmin_row_bit_for_bit():
    # at (192, 2) the swept tail holds 37,056 entries, each sum one einsum
    # over it or over one layer; phase 2's first row is phase 1's argmin row
    p, L = 192, 2
    V1 = gaussian_init(InitSpec(p=p, L=L, seed=82))
    _, data = clustered(p, 4, 0.05, seed=83)
    plan = PhasePlan(alpha_nt=0.05, T=30, rho=1.0, phase2_steps=5, alpha_phase2=0.02)
    log = two_phase_train(V1, huberized(0.01), data, plan)
    argmin, first = log.config_echo["phase1_argmin_step"] - 1, log.phase_boundary
    assert argmin > 0 and first == 30
    for column in ("loss", "log_loss", "grad_norm", "weight_norm"):
        assert getattr(log.records, column)[first] == getattr(log.records, column)[argmin]


def test_run_phase_returns_no_array_of_its_scratch_buffers():
    # at this step size the argmin is step 3 of 12, so the argmin and final
    # iterates differ; a second phase must leave the first one's iterates be
    V1 = gaussian_init(InitSpec(p=8, L=2, seed=80))
    _, data = clustered(8, 4, 0.05, seed=81)
    act = huberized(0.01)
    first = run_phase(V1, act, data, 20.0, 12)
    assert first.best_step == 3 and len(first) == 12
    best, final = (first.best[0], first.best[1].flat), (first.final[0], first.final[1].flat)
    assert not any(np.shares_memory(a, b) for a in best for b in final)
    saved = [a.tobytes() for a in best]
    run_phase(V1, act, data, 20.0, 12)
    second = run_phase(V1, act, data, 0.02, 3, start=first.best)
    assert [a.tobytes() for a in best] == saved
    row = first.best_step - 1
    for column in ("loss", "log_loss", "grad_norm", "weight_norm", "grad_dot_weights", "drift"):
        assert getattr(second, column)[0] == getattr(first, column)[row]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_run_phase_names_the_layer_of_a_non_finite_iterate():
    # a misclassified sample: loss and gradient are finite (the outer block
    # is about 10), but alpha times it overflows the outer row
    V = WeightStack(hidden=(np.array([[10.0]]),), outer=np.array([[1.0]]))
    data = Dataset(inputs=np.array([[1.0]]), labels=np.array([-1.0]))
    with pytest.raises(ValueError, match="non-finite entries in layer 1"):
        run_phase(V, huberized(0.5), data, alpha=1e308, max_steps=2)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_run_phase_names_layer_0_when_the_coefficients_overflow():
    # as above with an outer weight of 10: the first layer's coefficient
    # step is about 10 alpha and overflows first
    V = WeightStack(hidden=(np.array([[10.0]]),), outer=np.array([[10.0]]))
    data = Dataset(inputs=np.array([[1.0]]), labels=np.array([-1.0]))
    with pytest.raises(ValueError, match="non-finite entries in layer 0"):
        run_phase(V, huberized(0.5), data, alpha=1e308, max_steps=2)


@pytest.mark.parametrize("p, L", [(4, 1), (8, 2), (512, 1)])
def test_perturbation_bits_equal_the_two_temporary_form(p, L):
    V = gaussian_init(InitSpec(p=p, L=L, seed=3))
    rng = np.random.default_rng(4)
    want = []
    for m in V.layers():
        g = rng.standard_normal(m.shape)
        radius = 0.3 * float(rng.uniform(0.5, 1.0))
        want.append(m + g * (radius / math.sqrt(float(np.einsum("i,i->", g.ravel(), g.ravel())))))
    got = _perturb_layers_frobenius(V, 0.3, np.random.default_rng(4))
    assert got.flat.tobytes() == np.concatenate([w.ravel() for w in want]).tobytes()


def test_two_phase_mechanics_and_records():
    p, L, n = 48, 1, 4
    V1 = gaussian_init(InitSpec(p=p, L=L, seed=51))
    rng = np.random.default_rng(52)
    data = make_clustered_dataset(p, 0.05, n, 53, rng.standard_normal(p))
    plan = auto_plan(n=n, p=p, L=L, gamma=0.3, T=2000)
    plan = replace(plan, stop_loss=0.05, phase2_steps=30, alpha_phase2=0.05)
    act = huberized(nt_smoothing_width(n, p, L))
    log = two_phase_train(V1, act, data, plan)
    phases = log.records.phase.tolist()
    switches = sum(1 for i in range(1, len(phases)) if phases[i] != phases[i - 1])
    assert switches == 1
    assert log.phase_boundary == phases.index(2)
    assert log.config_echo["phase1_argmin_loss"] <= 0.05
    # phase-1 rows carry measurements; the rate checks stay not-applicable
    assert log.records.verdicts["i1"][0] == "na"
    assert math.isfinite(log.records.grad_norm[0])
    # phase 2 restarts from the argmin iterate
    restart_loss = log.records.loss[log.phase_boundary]
    assert restart_loss == pytest.approx(log.config_echo["phase1_argmin_loss"], rel=1e-12)


def test_two_phase_degenerate_single_step_plan():
    p, n = 16, 2
    V1 = gaussian_init(InitSpec(p=p, L=1, seed=54))
    _, data = clustered(p, n, 0.0, seed=55)
    plan = PhasePlan(alpha_nt=0.01, T=1, rho=1.0, phase2_steps=3, alpha_phase2=0.01)
    log = two_phase_train(V1, huberized(0.01), data, plan)
    assert log.config_echo["phase1_argmin_step"] == 1
    assert len(log.records) == 1 + 3


def test_two_phase_requires_resolvable_second_step_size():
    p, n = 16, 2
    V1 = gaussian_init(InitSpec(p=p, L=1, seed=56))
    _, data = clustered(p, n, 0.0, seed=57)
    # restart loss stays far above the small-loss regime: auto alpha must fail
    plan = PhasePlan(alpha_nt=1e-6, T=2, rho=1.0, phase2_steps=5)
    with pytest.raises(ValueError, match="alpha_phase2"):
        two_phase_train(V1, huberized(0.01), data, plan)


def test_two_phase_rejects_swish():
    V1 = gaussian_init(InitSpec(p=8, L=1, seed=58))
    _, data = clustered(8, 2, 0.0, seed=59)
    plan = PhasePlan(alpha_nt=0.01, T=1, rho=1.0)
    with pytest.raises(ValueError, match="Huberized"):
        two_phase_train(V1, swish(0.01), data, plan)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_run_phase_aborts_on_non_finite_loss():
    huge = WeightStack(
        hidden=(np.full((2, 2), 1e200),), outer=np.full((1, 2), 1e200)
    )
    data = Dataset(inputs=np.eye(2), labels=np.array([1.0, -1.0]))
    with pytest.raises(NumericalDivergenceError) as err:
        run_phase(huge, huberized(0.5), data, alpha=0.1, max_steps=3)
    assert err.value.step == 1


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_run_phase_aborts_on_non_finite_gradient_with_finite_loss():
    # the output overflows to +inf with the right sign: the loss is exactly 0,
    # but the outer gradient block is 0 * inf
    big = WeightStack(
        hidden=(np.full((1, 1), 1e200), np.full((1, 1), 1e200)), outer=np.ones((1, 1))
    )
    data = Dataset(inputs=np.array([[1.0]]), labels=np.array([1.0]))
    with pytest.raises(NumericalDivergenceError, match="gradient") as err:
        run_phase(big, huberized(0.5), data, alpha=0.1, max_steps=3)
    assert err.value.step == 1


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_run_phase_aborts_on_a_non_finite_first_layer_gradient_with_finite_loss():
    # u_1 = 1e-150 sits in the quadratic part (x_1 = 1e-300), so the output
    # (about 1e11) and the loss are finite, but B_1 = sigma'(u_1) (B_2 W_2)
    # overflows: B_2 = v = 1e10 on the linear part, and B_2 W_2 = 1e311
    V = WeightStack(
        hidden=(np.array([[1e-150]]), np.array([[1e301]])), outer=np.array([[1e10]])
    )
    data = Dataset(inputs=np.array([[1.0]]), labels=np.array([-1.0]))
    with pytest.raises(NumericalDivergenceError) as err:
        run_phase(V, huberized(0.5), data, alpha=0.1, max_steps=3)
    assert err.value.step == 1


# ---------------------------------------------------------------------------
# diagnostics


def test_init_diagnostics_warns_in_narrow_regime():
    V1 = gaussian_init(InitSpec(p=8, L=1, seed=61))
    _, data = clustered(8, 4, 0.05, seed=62)
    with pytest.warns(UserWarning, match="concentration"):
        report = init_diagnostics(V1, huberized(0.01), data)
    assert report["narrow_regime"]
    assert set(report) >= {
        "post_activation_norm_min",
        "hidden_operator_norms",
        "hidden_operator_norms_upper",
        "ok",
    }


def test_init_diagnostics_operator_norms_bracket_the_truth():
    p = 256
    V1 = gaussian_init(InitSpec(p=p, L=2, seed=66))
    _, data = clustered(p, 4, 0.05, seed=67)
    report = init_diagnostics(V1, huberized(1e-4), data)
    for m, lower, upper in zip(
        V1.hidden, report["hidden_operator_norms"], report["hidden_operator_norms_upper"]
    ):
        truth = math.sqrt(float(np.linalg.eigvalsh(m @ m.T)[-1]))
        assert lower <= truth * (1 + 1e-12)
        # the certificate's margin (4 k eps relative) dwarfs eigvalsh's rounding
        assert truth < upper
        assert upper - lower <= 1e-11 * truth
    assert report["operator_in_range"]


def test_init_diagnostics_reports_how_each_bracket_ended():
    p = 256
    V1 = gaussian_init(InitSpec(p=p, L=2, seed=70))
    _, data = clustered(p, 4, 0.05, seed=71)
    d = init_diagnostics(V1, huberized(1e-4), data)
    brackets = [operator_norm(m) for m in V1.hidden]
    assert d["hidden_operator_norm_products"] == [b.iterations for b in brackets]
    assert all(0 < n < p for n in d["hidden_operator_norm_products"])
    assert d["hidden_operator_norm_ended"] == ["certificate", "certificate"]


def test_init_diagnostics_judges_the_upper_end_against_the_limit(monkeypatch):
    V1 = gaussian_init(InitSpec(p=256, L=1, seed=68))
    _, data = clustered(256, 4, 0.05, seed=69)
    report = init_diagnostics(V1, huberized(1e-4), data)
    lower, upper = report["hidden_operator_norms"][0], report["hidden_operator_norms_upper"][0]
    assert lower < upper
    monkeypatch.setattr(ntk, "OPERATOR_LIMIT", upper)
    at_upper = init_diagnostics(V1, huberized(1e-4), data)
    monkeypatch.setattr(ntk, "OPERATOR_LIMIT", lower)
    between = init_diagnostics(V1, huberized(1e-4), data)
    assert at_upper["operator_in_range"] and not between["operator_in_range"]


def test_sigma_sparsity_counts_bounded_by_width():
    p = 128
    V1 = gaussian_init(InitSpec(p=p, L=2, seed=63))
    _, data = clustered(p, 3, 0.05, seed=64)
    out = sigma_difference_sparsity(V1, huberized(1e-4), data, tau=0.01, seed=65)
    assert 0 <= out["max_count"] <= p
    assert out["trend_p_L2_tau23"] > 0


@pytest.mark.parametrize("tau", [-0.1, math.nan])
def test_sigma_sparsity_rejects_a_negative_or_nonfinite_tau(tau):
    # a negative tau makes the tau^(2/3) trend complex, which json cannot write
    V1 = gaussian_init(InitSpec(p=8, L=1, seed=63))
    _, data = clustered(8, 3, 0.05, seed=64)
    with pytest.raises(ValueError, match="tau"):
        sigma_difference_sparsity(V1, huberized(1e-4), data, tau=tau)
    with pytest.raises(ValueError, match="tau"), pytest.warns(UserWarning, match="concentration"):
        init_diagnostics(V1, huberized(1e-4), data, tau=tau)
