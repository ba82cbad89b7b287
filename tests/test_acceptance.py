"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The two monitored descent runs (depth 1 and depth 2) are built once and
shared across the criteria that read their trajectories. Tolerances are
pinned here, not configurable.
"""

import json
import math
import time

import numpy as np
import pytest

from boundbench.activations import certify_h_smooth, huberized, swish
from boundbench.bounds import RunLog
from boundbench.harness import parse_config, run
from boundbench.linalg import WeightStack, frobenius_norm, operator_norm
from boundbench.network import Dataset, total_loss
from boundbench.ntk import (
    InitSpec,
    NtBallConfig,
    approx_error_sample,
    gaussian_init,
    init_diagnostics,
    make_clustered_dataset,
    nt_class_minimize,
    run_phase,
)
from oracles import FdConfig, fd_compare, fd_gradient
from stack_helpers import (
    average_loss_bound_check,
    gradient_reference,
    margin_witness_clustered,
    product_operator_bound,
    stack_scale,
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {criterion}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def headline_config(p, L, max_steps=10_000):
    return parse_config(
        {
            "mode": "theorem31",
            "network": {"p": p, "L": L, "activation": "huberized", "h": "auto"},
            "data": {"clustered": {"r": 0.05, "n": 3}},
            "optimizer": {"alpha": "auto", "max_steps": max_steps},
            "init": {
                "warmup_steps": 3000,
                "warmup_alpha": 0.5,
                "target_loss": "auto",
            },
            "seeds": {"init": 0, "data": 1, "probes": 2},
            "output": {"dir": None},
        }
    )


@pytest.fixture(scope="module")
def run_L1():
    started = time.perf_counter()
    runlog, status = run(headline_config(p=4, L=1))
    return runlog, status, time.perf_counter() - started


@pytest.fixture(scope="module")
def run_L2():
    started = time.perf_counter()
    runlog, status = run(headline_config(p=8, L=2))
    return runlog, status, time.perf_counter() - started


def _applicable_slacks(records, key):
    slacks = records.slacks[key]
    return slacks[(records.verdicts[key] != "na") & ~np.isnan(slacks)]


# ---------------------------------------------------------------------------
# criterion 1: the 1/t rate bound along both monitored runs


def test_criterion_1_rate_bound(run_L1, run_L2):
    runlog1, status1, wall1 = run_L1
    resolved = runlog1.config_echo["resolved"]
    target = 0.5 * 3.0 ** -25
    ok = status1 == 0 and resolved["J1"] <= target and len(runlog1.records) == 10_000
    # depth 1: value-space slack with zero tolerance on the direction
    records1 = runlog1.records
    worst_value = ((records1.rate_bound - records1.loss) / resolved["J1"]).min()
    ok = ok and worst_value >= -1e-15
    ok = ok and wall1 < 30.0

    runlog2, status2, wall2 = run_L2
    target2 = 0.5 * 3.0 ** -49
    ok2 = status2 == 0 and runlog2.config_echo["resolved"]["J1"] <= target2
    # depth 2: the loss lives below 1e-23, so the assertion moves to log space
    worst_log = runlog2.records.slacks["i1"].min()
    ok2 = ok2 and worst_log >= -1e-12 and wall2 < 30.0
    report(
        "1 rate bound J_t <= J_1/(Q(t-1)+1)",
        ok and ok2,
        f"L=1 worst value slack {worst_value:.2e}, L=2 worst log slack {worst_log:.2e}, "
        f"walls {wall1:.1f}s/{wall2:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: gradient lower bound wherever its preconditions hold


def test_criterion_2_gradient_lower_bound(run_L1, run_L2):
    ok, detail = True, []
    for name, (runlog, _, _) in (("L=1", run_L1), ("L=2", run_L2)):
        slacks = _applicable_slacks(runlog.records, "lower")
        ok = ok and len(slacks) > 0 and min(slacks) >= -1e-12
        detail.append(f"{name}: {len(slacks)} applicable, worst {min(slacks):.2e}")
    report("2 gradient lower bound (alignment)", ok, "; ".join(detail))


# ---------------------------------------------------------------------------
# criterion 3: the log-loss to weight-norm ratio never drops


def test_criterion_3_ratio_monotonicity(run_L1, run_L2):
    ok, detail = True, []
    for name, (runlog, _, _) in (("L=1", run_L1), ("L=2", run_L2)):
        worst = runlog.records.slacks["i2"].min()
        ok = ok and worst >= -1e-12
        detail.append(f"{name} worst {worst:.2e}")
    report("3 invariant I2 monotonicity", ok, "; ".join(detail))


# ---------------------------------------------------------------------------
# criterion 4: one-step descent inequality


def test_criterion_4_descent(run_L1, run_L2):
    ok, detail = True, []
    for name, (runlog, _, _) in (("L=1", run_L1), ("L=2", run_L2)):
        slacks = _applicable_slacks(runlog.records, "descent")
        ok = ok and len(slacks) > 0 and min(slacks) >= -1e-12
        detail.append(f"{name}: worst {min(slacks):.2e}")
    report("4 descent inequality", ok, "; ".join(detail))


# ---------------------------------------------------------------------------
# criterion 5: gradient correctness against central differences


def test_criterion_5_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(31337 + seed)
        p = int(rng.integers(2, 7))
        L = int(rng.integers(1, 4))
        n = int(rng.integers(2, 6))
        h = float(rng.uniform(0.3, 1.0))
        act = huberized(h) if seed % 2 == 0 else swish(h)
        V = WeightStack(
            hidden=tuple(rng.standard_normal((p, p)) for _ in range(L)),
            outer=rng.standard_normal((1, p)),
        )
        labels = rng.choice((-1.0, 1.0), size=n)
        if np.all(labels == labels[0]):
            labels[0] = -labels[0]
        data = Dataset(inputs=rng.standard_normal((n, p)), labels=labels)
        rep = fd_compare(gradient_reference(V, act, data), fd_gradient(V, act, data, FdConfig()))
        worst = max(worst, rep.max_rel_error)
    wall = time.perf_counter() - started
    report(
        "5 gradient vs central differences (100 instances)",
        worst < 1e-6 and wall < 60.0,
        f"worst rel err {worst:.2e}, wall {wall:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 6: activation certification


def test_criterion_6_activation_certification():
    started = time.perf_counter()
    ok = True
    worst_lines = []
    for make, name in ((huberized, "huberized"), (swish, "swish")):
        for h in (0.01, 0.1, 1.0):
            rep = certify_h_smooth(make(h))
            ok = ok and rep.pass_ and rep.samples_used >= 10_000
            worst_lines.append(f"{name} h={h}: deriv {rep.max_abs_deriv:.6f}")
    wall = time.perf_counter() - started
    report(
        "6 activation property certification",
        ok and wall < 5.0,
        f"wall {wall:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 7: entrywise contractivity


def test_criterion_7_contractivity():
    rng = np.random.default_rng(777)
    worst = -math.inf
    for act in (huberized(0.05), huberized(1.0), swish(0.05), swish(1.0)):
        v1 = 3.0 * rng.standard_normal((10_000, 16))
        v2 = 3.0 * rng.standard_normal((10_000, 16))
        d_out = np.linalg.norm(np.asarray(act.value(v1)) - np.asarray(act.value(v2)), axis=1)
        d_in = np.linalg.norm(v1 - v2, axis=1)
        worst = max(worst, float(np.max(d_out - d_in)))
    report(
        "7 contractivity over 10^4 vector pairs per activation",
        worst <= 1e-12,
        f"worst excess {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 8: gradient upper bound and operator-product bound


def test_criterion_8_upper_and_product_bounds():
    from boundbench.bounds import grad_upper_bound

    worst_upper = worst_prod = math.inf
    for seed in range(100):
        rng = np.random.default_rng(808 + seed)
        p = int(rng.integers(2, 9))
        L = int(rng.integers(1, 5))
        V = WeightStack(
            hidden=tuple(rng.standard_normal((p, p)) for _ in range(L)),
            outer=rng.standard_normal((1, p)),
        )
        floor = math.sqrt(L + 0.5)
        if frobenius_norm(V) < floor:
            V = stack_scale(V, 1.0000001 * floor / frobenius_norm(V))
        bound = product_operator_bound(V)
        ops = [operator_norm(m).upper for m in V.layers()]
        for i in range(L + 1):
            for j in range(i + 1, L + 2):
                prod = float(np.prod(ops[i:j]))
                worst_prod = min(worst_prod, (bound - prod) / bound)
        n = int(rng.integers(2, 6))
        labels = rng.choice((-1.0, 1.0), size=n)
        if np.all(labels == labels[0]):
            labels[0] = -labels[0]
        data = Dataset(inputs=rng.standard_normal((n, p)), labels=labels)
        act = huberized(0.3) if seed % 2 else swish(0.7)
        ub = grad_upper_bound(total_loss(V, act, data), frobenius_norm(V), p, L)
        worst_upper = min(worst_upper, (ub - frobenius_norm(gradient_reference(V, act, data))) / ub)
    report(
        "8 gradient upper bound and operator-product bound",
        worst_upper >= -1e-10 and worst_prod >= -1e-10,
        f"worst slacks upper {worst_upper:.2e}, product {worst_prod:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 9: weight-norm floor along both runs


def test_criterion_9_weight_norm_floor(run_L1, run_L2):
    ok, detail = True, []
    for name, (runlog, _, _) in (("L=1", run_L1), ("L=2", run_L2)):
        verdicts = runlog.records.verdicts["floor"]
        applicable = int(np.count_nonzero(verdicts != "na"))
        ok = ok and applicable > 0 and not np.any(verdicts == "fail")
        detail.append(f"{name}: {applicable} states checked")
    report("9 weight-norm floor under small loss", ok, "; ".join(detail))


# ---------------------------------------------------------------------------
# criterion 10: explicit clustered-data margin witness


def test_criterion_10_clustered_margin():
    started = time.perf_counter()
    p, L, n = 1024, 1, 8
    h = math.sqrt(math.pi) / (2 * p)
    act = huberized(h)
    r = min(1.0 / 16.0, math.sqrt(p) * h / math.sqrt(math.log(3 * p * n / 0.05)))
    hits = 0
    norm_ok = True
    gammas = []
    for seed in range(20):
        V1 = gaussian_init(InitSpec(p=p, L=L, seed=seed))
        mu = np.random.default_rng(1000 + seed).standard_normal(p)
        data = make_clustered_dataset(p, r, n, 2000 + seed, mu)
        witness = margin_witness_clustered(V1, act, mu, data)
        norm_ok = norm_ok and abs(frobenius_norm(witness.w_star) - 1.0) <= 1e-10
        gammas.append(witness.gamma)
        hits += witness.gamma >= 1.0 / 40.0
    wall = time.perf_counter() - started
    report(
        "10 clustered-data margin witness (20 seeds)",
        norm_ok and hits >= 18 and wall < 60.0,
        f"gamma >= 1/40 in {hits}/20 seeds, min {min(gammas):.3f}, wall {wall:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 11: concentration at random initialization


def test_criterion_11_init_concentration():
    started = time.perf_counter()
    p, L, n = 2048, 3, 8
    h = (1 + 24 * L) * math.log(n) / (6 * (6 * p) ** ((L + 1) / 2) * L**3)
    act = huberized(h)
    ok = True
    ranges = []
    for seed in (0, 1, 2, 5, 6):
        V1 = gaussian_init(InitSpec(p=p, L=L, seed=seed))
        rng = np.random.default_rng(7000 + seed)
        data = Dataset(
            inputs=rng.standard_normal((n, p)), labels=np.array([1.0, -1.0] * (n // 2))
        )
        rep = init_diagnostics(V1, act, data)
        lo, hi = rep["post_activation_norm_min"], rep["post_activation_norm_max"]
        ranges.append((lo, hi))
        ok = ok and 0.9 <= lo and hi <= 1.1
        ok = ok and max(rep["hidden_operator_norms_upper"]) <= 3.5
        ok = ok and 0.85 <= rep["outer_norm_over_sqrt_p"] <= 1.2
    wall = time.perf_counter() - started
    lo = min(a for a, _ in ranges)
    hi = max(b for _, b in ranges)
    report(
        "11 initialization concentration (5 seeds)",
        ok and wall < 60.0,
        f"feature norms in [{lo:.3f}, {hi:.3f}], wall {wall:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 12: tangent-class quantities and the average-loss inequality


def test_criterion_12_tangent_class():
    p, L, n = 512, 1, 4
    V1 = gaussian_init(InitSpec(p=p, L=L, seed=5))
    mu = np.random.default_rng(21).standard_normal(p)
    data = make_clustered_dataset(p, 0.05, n, 22, mu)
    h = (1 + 24 * L) * math.log(n) / (6 * (6 * p) ** ((L + 1) / 2) * L**3)
    act = huberized(h)

    _, eps0 = nt_class_minimize(V1, act, data, NtBallConfig(rho=0.0))
    exact_ok = eps0 == total_loss(V1, act, data).value
    values = [
        nt_class_minimize(V1, act, data, NtBallConfig(rho=rho, steps=400))[1]
        for rho in (0.1, 1.0, 10.0)
    ]
    mono_ok = values[1] <= values[0] + 1e-8 and values[2] <= values[1] + 1e-8
    app0_ok = approx_error_sample(V1, act, data, tau=0.0) == 0.0

    alpha = 1.0 / (p * L**5)
    phase = run_phase(V1, act, data, alpha, max_steps=300)
    tau = 2.0 * phase.drift.max()  # the ball hypothesis holds by construction
    eps_app = approx_error_sample(V1, act, data, tau, k_pairs=12, seed=9)
    v_star, eps_nt = nt_class_minimize(V1, act, data, NtBallConfig(rho=tau / 3.0, steps=600))
    check = average_loss_bound_check(phase, V1, v_star, eps_nt, eps_app, alpha, tau)
    report(
        "12 tangent-class properties and average-loss bound",
        exact_ok and mono_ok and app0_ok and check["applicable"] and check["holds"],
        f"eps_nt grid {values[0]:.3g}/{values[1]:.3g}/{values[2]:.3g}, "
        f"avg {check['avg_loss']:.3g} <= {check['rhs']:.3g}, eps_app {eps_app:.3g}",
    )


# ---------------------------------------------------------------------------
# criterion 13: negative control


def test_criterion_13_negative_control(run_L1):
    runlog1, _, _ = run_L1
    alpha_max = runlog1.config_echo["resolved"]["alpha_max"]
    bad = headline_config(p=4, L=1, max_steps=200).to_json_dict()
    bad["optimizer"]["alpha"] = 10.0 * alpha_max
    runlog, status = run(parse_config(bad))
    first_fails = {
        key: info["first_violation_step"]
        for key, info in runlog.summary["invariants"].items()
        if info["first_violation_step"] is not None
    }
    report(
        "13 negative control at 10x the admissible step size",
        status != 0 and len(first_fails) > 0,
        f"violations {first_fails}",
    )


# ---------------------------------------------------------------------------
# criterion 14: byte-identical reruns


# the two-phase config joins a phase-1 and a 20-step phase-2 trajectory
TWO_PHASE_CONFIG = {
    "mode": "theorem32",
    "network": {"p": 32, "L": 1, "activation": "huberized", "h": "auto"},
    "data": {"clustered": {"r": 0.05, "n": 4}},
    "phase_plan": {
        "gamma": "estimate",
        "T": 1500,
        "stop_loss": 0.05,
        "phase2_steps": 20,
        "alpha_phase2": 0.05,
    },
    "seeds": {"init": 3, "data": 4, "probes": 5},
    "output": {"dir": None},
}


def assert_reruns_identical(config, out_dir, label):
    """The first run's log, once a rerun has written the same trajectory bytes."""
    runlog, _ = run(config, out_dir=out_dir / "a")
    run(config, out_dir=out_dir / "b")
    same = (out_dir / "a" / "trajectory.csv").read_bytes() == (
        out_dir / "b" / "trajectory.csv"
    ).read_bytes()
    report(f"14 byte-identical trajectory on rerun ({label})", same)
    return runlog


def test_criterion_14_determinism(tmp_path):
    assert_reruns_identical(
        headline_config(p=4, L=1, max_steps=10_000), tmp_path, "theorem31"
    )


def test_criterion_14_determinism_two_phase(tmp_path):
    runlog = assert_reruns_identical(parse_config(TWO_PHASE_CONFIG), tmp_path, "theorem32")
    # the phase boundary is read from the rows: the first whose phase column is 2
    rows = (tmp_path / "a" / "trajectory.csv").read_text().splitlines()[1:]
    first = [row.rsplit(",", 1)[1] for row in rows].index("2")
    assert runlog.phase_boundary == first
    assert RunLog(config_echo={}, records=runlog.records).phase_boundary == first
    assert json.loads((tmp_path / "a" / "summary.json").read_text())["phase_boundary"] == first


def test_criterion_14_two_phase_checks_theorem_31_from_the_argmin_restart():
    # at h = 0.002 the phase-2 step size resolves in closed form at phase 1's
    # argmin iterate, a start the small-loss bisection did not build, and
    # Theorem 3.1's checks apply to every phase-2 row
    doc = {**TWO_PHASE_CONFIG, "network": {**TWO_PHASE_CONFIG["network"], "h": 0.002}}
    doc["phase_plan"] = {k: v for k, v in TWO_PHASE_CONFIG["phase_plan"].items() if k != "alpha_phase2"} | {"T": 300}
    runlog, status = run(parse_config(doc))
    assert status == 0 and runlog.config_echo["phase2_instrumented"] is True
    records, first = runlog.records, runlog.phase_boundary
    assert (first, len(records)) == (111, 131)
    for check in ("i1", "i2", "i3", "i3_sqrtp"):
        report(f"14 {check} from the phase-2 restart", set(records.verdicts[check][first:].tolist()) == {"pass"})
