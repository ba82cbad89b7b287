"""Random initialization, tangent-feature machinery, margin witnesses,
linearized-model quantities, two-phase training, and initialization
concentration diagnostics.

Conventions: the linearized (tangent) model at V1 maps x to
f_{V1}(x) + feature(x) . (V - V1) with feature(x) the gradient of the
network output at V1. Balls around V1 are per-layer: Frobenius radius
for the tangent-class ball, operator-norm radius for the derivative
sparsity diagnostic.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .activations import Activation, ActivationKind
from .bounds import (
    RunContext,
    RunLog,
    StepState,
    compute_alpha_max,
    compute_h_max,
    compute_q_tilde,
    monitor_transition,
    summarize,
    theory_constants,
)
from .linalg import (
    WeightStack,
    frobenius_norm,
    operator_norm,
    stack_axpy,
    stack_dot,
    stack_scale,
)
from .network import (
    Dataset,
    LossValue,
    _stable_g,
    forward_rows,
    loss_and_gradient,
    output_gradients,
    sensitivities,
    total_loss,
)


class NumericalDivergenceError(RuntimeError):
    """A training loop hit a non-finite loss; carries the step index."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite loss at step {step}")


# ---------------------------------------------------------------------------
# initialization


@dataclass(frozen=True)
class InitSpec:
    p: int
    L: int
    seed: int

    def __post_init__(self):
        if self.p < 1 or self.L < 1:
            raise ValueError("need p >= 1 and L >= 1")

    @property
    def hidden_variance(self) -> float:
        return 2.0 / self.p

    @property
    def outer_variance(self) -> float:
        return 1.0


def gaussian_init(spec: InitSpec) -> WeightStack:
    """Hidden entries ~ N(0, 2/p), outer ~ N(0, 1), from one seeded stream.

    The draw order (hidden layers first, then the outer row) is fixed, so
    a given (seed, p, L) reproduces the same stack bitwise on one build.
    """
    rng = np.random.default_rng(spec.seed)
    std = math.sqrt(spec.hidden_variance)
    hidden = tuple(
        rng.normal(0.0, std, size=(spec.p, spec.p)) for _ in range(spec.L)
    )
    outer = rng.normal(0.0, 1.0, size=(1, spec.p))
    return WeightStack(hidden=hidden, outer=outer)


# ---------------------------------------------------------------------------
# tangent features and margins


def ntk_features(V1: WeightStack, act: Activation, data: Dataset) -> list[WeightStack]:
    """Per-sample gradient of the network output at V1 (not of the loss)."""
    return output_gradients(V1, act, data.inputs)


class WitnessConstruction(enum.Enum):
    CLUSTERED_EXPLICIT = "clustered_explicit"
    SUBGRADIENT_ESTIMATE = "subgradient_estimate"


@dataclass(frozen=True)
class MarginWitness:
    w_star: WeightStack
    gamma: float
    construction: WitnessConstruction

    def __post_init__(self):
        norm = frobenius_norm(self.w_star)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"witness must have unit norm, got {norm}")


def margin_gamma(features: list[WeightStack], labels: np.ndarray, W: WeightStack) -> float:
    """min over samples of y * (feature . W) / sqrt(p)."""
    p = W.p
    vals = [
        float(y) * stack_dot(f, W) / math.sqrt(p) for f, y in zip(features, labels)
    ]
    return min(vals)


@dataclass(frozen=True)
class ClusteredDataSpec:
    """Two antipodal clusters of unit vectors around +-mu."""

    mu: np.ndarray
    r: float
    n: int
    seed: int
    allow_wide_radius: bool = False

    def __post_init__(self):
        mu = np.array(self.mu, dtype=np.float64, copy=True)
        norm = float(np.linalg.norm(mu))
        if norm == 0.0:
            raise ValueError("cluster center must be nonzero")
        mu = mu / norm
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        if self.r < 0:
            raise ValueError("cluster radius must be nonnegative")
        if self.r > 1.0 / 16.0:
            if self.allow_wide_radius:
                warnings.warn(
                    f"cluster radius {self.r} exceeds 1/16; the explicit margin "
                    "construction is no longer guaranteed",
                    stacklevel=2,
                )
            else:
                raise ValueError("cluster radius above 1/16 needs allow_wide_radius")
        if self.n < 2:
            raise ValueError("need at least one sample of each label")


def make_clustered_dataset(spec: ClusteredDataSpec, max_resamples: int = 200) -> Dataset:
    """Unit-sphere samples within r of +mu (label +1) or -mu (label -1).

    The first ceil(n/2) samples carry label +1, the rest -1, so labels
    are balanced whenever n is even. Each point is mu plus a random
    perturbation of norm at most r, renormalized to the sphere; because
    renormalization can push a point slightly outside the cluster, the
    distance is re-verified and the point resampled if needed.
    """
    rng = np.random.default_rng(spec.seed)
    p = spec.mu.shape[0]
    n_pos = (spec.n + 1) // 2
    labels = np.array([1.0] * n_pos + [-1.0] * (spec.n - n_pos))
    rows = []
    for y in labels:
        center = y * spec.mu
        if spec.r == 0.0:
            rows.append(center.copy())
            continue
        for attempt in range(max_resamples):
            delta = rng.standard_normal(p)
            radius = spec.r * float(rng.uniform()) ** (1.0 / p)
            x = center + delta * (radius / float(np.linalg.norm(delta)))
            x = x / float(np.linalg.norm(x))
            if float(np.linalg.norm(x - center)) <= spec.r:
                rows.append(x)
                break
        else:
            raise RuntimeError(
                f"could not place a point within {spec.r} of the cluster center "
                f"after {max_resamples} attempts"
            )
    return Dataset(inputs=np.stack(rows), labels=labels)


def margin_witness_clustered(
    V1: WeightStack, act: Activation, mu: np.ndarray, data: Dataset
) -> MarginWitness:
    """Explicit unit-norm witness for two-layer Huberized networks on
    clustered data.

    Rows of the hidden block point along +-mu on the coordinates whose
    outer weight is moderate (1/2 <= |V2_i| <= 2) and whose hidden row
    already leans at least 4h along the matching cluster direction; the
    outer block is zero. gamma is the achieved minimum margin over the
    provided data, re-evaluated from the tangent features.
    """
    if act.kind is not ActivationKind.HUBERIZED_RELU:
        raise ValueError("the explicit witness is defined for the Huberized ReLU only")
    if V1.depth != 1:
        raise ValueError("the explicit witness needs a two-layer network (L = 1)")
    p = V1.p
    if act.h > math.sqrt(math.pi) / (2.0 * p):
        raise ValueError(
            f"smoothing width {act.h} too large for the construction; "
            f"needs h <= sqrt(pi)/(2p) = {math.sqrt(math.pi) / (2 * p):.3g}"
        )
    mu = np.asarray(mu, dtype=np.float64)
    mu = mu / float(np.linalg.norm(mu))
    v2 = V1.outer[0]
    moderate = (np.abs(v2) >= 0.5) & (np.abs(v2) <= 2.0)
    lean = V1.hidden[0] @ mu
    s_plus = moderate & (lean >= 4.0 * act.h)
    s_minus = moderate & (-lean >= 4.0 * act.h)
    active = s_plus | s_minus
    count = int(np.count_nonzero(active))
    if count == 0:
        raise ValueError("degenerate initialization: no active coordinates for the witness")
    w1 = np.zeros((p, p))
    w1[active] = np.sign(v2[active])[:, None] * mu[None, :] / math.sqrt(count)
    w_star = WeightStack(hidden=(w1,), outer=np.zeros((1, p)))
    feats = ntk_features(V1, act, data)
    gamma = margin_gamma(feats, data.labels, w_star)
    return MarginWitness(
        w_star=w_star, gamma=gamma, construction=WitnessConstruction.CLUSTERED_EXPLICIT
    )


def margin_estimate_subgradient(
    features: list[WeightStack],
    labels: np.ndarray,
    iters: int = 200,
    step: float = 0.5,
) -> MarginWitness:
    """Lower-bound the best achievable margin by projected subgradient
    ascent on the unit sphere in stack space.

    The reported gamma is the achieved minimum margin of the best iterate,
    re-evaluated exactly, so it certifies a lower bound on the optimum.
    """
    if len(features) < 1 or iters < 1:
        raise ValueError("need at least one feature and one iteration")
    p = features[0].p
    sqrt_p = math.sqrt(p)
    start = features[0]
    acc = [np.zeros_like(m) for m in start.layers()]
    for f, y in zip(features, labels):
        for block, m in zip(acc, f.layers()):
            block += float(y) * m
    W = _normalized(WeightStack.from_layers(acc))
    best_W, best_gamma = W, margin_gamma(features, labels, W)
    cur_step = step
    for _ in range(iters):
        margins = [
            float(y) * stack_dot(f, W) / sqrt_p for f, y in zip(features, labels)
        ]
        worst = int(np.argmin(margins))
        subgrad = stack_scale(features[worst], float(labels[worst]) / sqrt_p)
        W = _normalized(stack_axpy(W, cur_step, subgrad))
        gamma = margin_gamma(features, labels, W)
        if gamma > best_gamma:
            best_gamma, best_W = gamma, W
        cur_step *= 0.995
    return MarginWitness(
        w_star=best_W,
        gamma=best_gamma,
        construction=WitnessConstruction.SUBGRADIENT_ESTIMATE,
    )


def _normalized(W: WeightStack) -> WeightStack:
    norm = frobenius_norm(W)
    if norm == 0.0:
        raise ValueError("cannot normalize a zero stack")
    return stack_scale(W, 1.0 / norm)


# ---------------------------------------------------------------------------
# tangent-class quantities


@dataclass(frozen=True)
class NtBallConfig:
    rho: float
    steps: int = 400
    step_size: float | None = None  # None: inverse curvature estimate

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError("ball radius must be nonnegative")
        if self.steps < 1:
            raise ValueError("need at least one iteration")


def nt_class_minimize(
    V1: WeightStack, act: Activation, data: Dataset, cfg: NtBallConfig
) -> tuple[WeightStack, float]:
    """Approximately minimize the tangent-model logistic loss over the
    per-layer Frobenius ball of radius rho around V1.

    The objective is convex in the offset, so projected gradient descent
    with step halving converges to the global minimum; the accepted
    objective never increases across iterations.
    """
    if cfg.rho == 0.0:
        return V1, total_loss(V1, act, data).value
    feats = ntk_features(V1, act, data)
    f0 = forward_rows(V1, act, data.inputs).output
    ys = data.labels
    offset = [np.zeros_like(m) for m in V1.layers()]

    def margins(off: list[np.ndarray]) -> np.ndarray:
        out = np.empty(data.n)
        for s, (f, y) in enumerate(zip(feats, ys)):
            dot = sum(
                float(np.dot(fm.ravel(), om.ravel()))
                for fm, om in zip(f.layers(), off)
            )
            out[s] = float(y) * (f0[s] + dot)
        return out

    def objective(off: list[np.ndarray]) -> LossValue:
        return LossValue.mean([LossValue.from_margin(z) for z in margins(off)])

    def grad(off: list[np.ndarray]) -> list[np.ndarray]:
        zs = margins(off)
        out = [np.zeros_like(m) for m in offset]
        for s, (f, y) in enumerate(zip(feats, ys)):
            scale = -float(y) * _stable_g(float(zs[s])) / data.n
            for block, fm in zip(out, f.layers()):
                block += scale * fm
        return out

    def project(off: list[np.ndarray]) -> list[np.ndarray]:
        clipped = []
        for m in off:
            norm = float(np.linalg.norm(m))
            clipped.append(m if norm <= cfg.rho else m * (cfg.rho / norm))
        return clipped

    feat_sq = sum(frobenius_norm(f) ** 2 for f in feats) / data.n
    step = cfg.step_size if cfg.step_size is not None else 4.0 / max(feat_sq, 1e-12)
    obj = objective(offset)
    for _ in range(cfg.steps):
        g = grad(offset)
        cand = project([m - step * gm for m, gm in zip(offset, g)])
        cand_obj = objective(cand)
        halvings = 0
        while cand_obj.value > obj.value and halvings < 40:
            step *= 0.5
            halvings += 1
            cand = project([m - step * gm for m, gm in zip(offset, g)])
            cand_obj = objective(cand)
        if cand_obj.value > obj.value:
            break  # no acceptable step left; stationary within precision
        offset, obj = cand, cand_obj
        if halvings == 0:
            step *= 1.25
    v_star = WeightStack.from_layers(
        [m + om for m, om in zip(V1.layers(), offset)]
    )
    return v_star, obj.value


def approx_error_sample(
    V1: WeightStack,
    act: Activation,
    data: Dataset,
    tau: float,
    k_pairs: int = 16,
    seed: int = 0,
) -> float:
    """Sampled lower estimate of the worst first-order remainder of f over
    pairs of points in the per-layer ball of radius tau around V1.

    A sup over a continuum cannot be certified by sampling; callers must
    treat this as the measured side of an upper bound, never as the bound.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if k_pairs < 1:
        raise ValueError("need at least one pair")
    if tau == 0.0:
        return 0.0
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(k_pairs):
        v_hat = _perturb_layers_frobenius(V1, tau, rng)
        v_til = _perturb_layers_frobenius(V1, tau, rng)
        delta = stack_axpy(v_hat, -1.0, v_til)
        f_hat = forward_rows(v_hat, act, data.inputs).output
        til = forward_rows(v_til, act, data.inputs)
        # <b x^T, D> = b^T D x, so no per-sample feature stack is formed
        lin = til.output + til.x[-1] @ delta.outer[0]
        below = (data.inputs, *til.x[:-1])
        for b, x, d in zip(sensitivities(v_til, til), below, delta.hidden):
            lin = lin + np.einsum("ij,ij->i", b, x @ d.T)
        worst = max(worst, float(np.max(np.abs(f_hat - lin))))
    return worst


def gamma_bound(
    V1: WeightStack,
    act: Activation,
    data: Dataset,
    tau: float,
    k_samples: int = 8,
    seed: int = 0,
) -> float:
    """Sampled lower estimate of the largest per-layer gradient norm of f
    over the ball of radius tau; exact at tau = 0 (only V1 is evaluated)."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    rng = np.random.default_rng(seed)
    points = [V1]
    if tau > 0.0:
        points += [_perturb_layers_frobenius(V1, tau, rng) for _ in range(k_samples)]
    worst = 0.0
    for V in points:
        trace = forward_rows(V, act, data.inputs)
        below = (data.inputs, *trace.x[:-1])
        # one block at a time; the norms equal those of ntk_features bit for bit
        hidden = (
            float(np.linalg.norm(np.outer(b_i, x_i)))
            for b, x in zip(sensitivities(V, trace), below)
            for b_i, x_i in zip(b, x)
        )
        worst = max(worst, *hidden, *(float(np.linalg.norm(x)) for x in trace.x[-1]))
    return worst


def _perturb_layers_frobenius(
    V: WeightStack, tau: float, rng: np.random.Generator
) -> WeightStack:
    # radii biased toward the shell, where the extrema of smooth maps live
    out = []
    for m in V.layers():
        g = rng.standard_normal(m.shape)
        radius = tau * float(rng.uniform(0.5, 1.0))
        out.append(m + g * (radius / float(np.linalg.norm(g))))
    return WeightStack.from_layers(out)


def max_layer_distance(a: WeightStack, b: WeightStack) -> float:
    """max over layers of the Frobenius distance; the ball radius metric."""
    return max(
        float(np.linalg.norm(ma - mb)) for ma, mb in zip(a.layers(), b.layers())
    )


# ---------------------------------------------------------------------------
# two-phase training


def nt_smoothing_width(n: int, p: int, L: int) -> float:
    """Smoothing width of the two-phase schedule:
    (1 + 24L) log n / (6 (6p)^((L+1)/2) L^3)."""
    return (1 + 24 * L) * math.log(n) / (6.0 * (6.0 * p) ** ((L + 1) / 2.0) * L**3)


@dataclass(frozen=True)
class PhasePlan:
    """Hyperparameters of the two-phase schedule.

    The analysis fixes only asymptotics for the linearized-phase step size
    and the ball radius; c1 and theta_const expose those absolute
    constants (defaults 1.0) so desk-scale sweeps can tune them without
    touching the formulas. T_faithful_log10 preserves the untruncated
    horizon when T had to be capped to something runnable.
    """

    alpha_nt: float
    T: int
    h_nt: float
    rho: float
    alpha_phase2: float | None = None  # None: resolve from the restart state
    c1: float = 1.0
    theta_const: float = 1.0
    stop_loss: float | None = None  # desk-scale early stop for the first phase
    phase2_steps: int = 0
    loss_floor: float = 0.0
    Q: float | None = None  # None: q_tilde at the resolved phase-2 step size
    T_faithful_log10: float | None = None

    def __post_init__(self):
        if not self.alpha_nt > 0:
            raise ValueError("the linearized-phase step size must be positive")
        if self.T < 1:
            raise ValueError("need at least one first-phase step")
        if not self.h_nt > 0 or self.rho < 0 or self.phase2_steps < 0:
            raise ValueError("plan values out of range")

    @classmethod
    def auto(
        cls,
        n: int,
        p: int,
        L: int,
        gamma: float,
        delta: float = 0.05,
        c1: float = 1.0,
        theta_const: float = 1.0,
        T_cap: int = 10_000,
        **overrides,
    ) -> "PhasePlan":
        """Resolve the closed-form plan, capping the horizon at T_cap.

        The faithful horizon scales like n^(2+24L) and is far beyond any
        desk-scale budget; it is computed in log space and kept in
        T_faithful_log10 for traceability.
        """
        if not 0 < gamma:
            raise ValueError("need a positive margin")
        log_n = math.log(n)
        rho = (
            c1
            / (math.sqrt(p) * gamma)
            * (math.sqrt(math.log(n / delta)) + math.log(6.0) + (2 + 24 * L) * log_n)
        )
        alpha_nt = theta_const / (p * L**5)
        # T = ceil(3 (L+1) rho^2 n^(2+24L) / (2 alpha_nt)), in logs
        log10_T = (
            math.log10(3.0 * (L + 1) * rho**2 / (2.0 * alpha_nt))
            + (2 + 24 * L) * math.log10(n)
        )
        T = T_cap if log10_T > math.log10(T_cap) else int(math.ceil(10.0**log10_T))
        plan = cls(
            alpha_nt=alpha_nt,
            T=max(T, 1),
            h_nt=nt_smoothing_width(n, p, L),
            rho=rho,
            c1=c1,
            theta_const=theta_const,
            T_faithful_log10=log10_T,
        )
        return replace(plan, **overrides) if overrides else plan


@dataclass
class PhaseTrace:
    """Raw per-step measurements from one training phase."""

    states: list[StepState] = field(default_factory=list)
    drifts: list[float] = field(default_factory=list)  # max-layer distance from start
    best_step: int = 0
    best_loss: LossValue | None = None
    best_stack: WeightStack | None = None
    final_stack: WeightStack | None = None


def run_phase(
    V: WeightStack,
    act: Activation,
    data: Dataset,
    alpha: float,
    max_steps: int,
    stop_loss: float | None = None,
    loss_floor: float = 0.0,
    anchor: WeightStack | None = None,
) -> PhaseTrace:
    """Plain constant-step GD, measuring everything monitors will need.

    The one descent loop: warmup, monitored descent and both phases of the
    two-phase schedule run it. Tracks the argmin-loss iterate with
    earliest-step tie-breaking, and per-step max-layer drift from `anchor`
    (default: the starting stack). `final_stack` is the iterate after the
    last step taken, which has not been evaluated unless a stop rule fired.
    """
    anchor = anchor if anchor is not None else V
    trace = PhaseTrace()
    cur = V
    for t in range(1, max_steps + 1):
        loss, grad = loss_and_gradient(cur, act, data)
        if not math.isfinite(loss.value):
            raise NumericalDivergenceError(t)
        state = StepState(
            t=t,
            loss=loss,
            grad_norm=frobenius_norm(grad),
            weight_norm=frobenius_norm(cur),
            grad_dot_weights=stack_dot(grad, cur),
        )
        trace.states.append(state)
        trace.drifts.append(max_layer_distance(cur, anchor))
        if trace.best_loss is None or loss.value < trace.best_loss.value:
            trace.best_loss, trace.best_step, trace.best_stack = loss, t, cur
        if stop_loss is not None and loss.value <= stop_loss:
            break
        if loss.value <= loss_floor:
            break
        cur = stack_axpy(cur, -alpha, grad)
    trace.final_stack = cur
    return trace


def two_phase_train(
    V1: WeightStack, act: Activation, data: Dataset, plan: PhasePlan
) -> RunLog:
    """Linearized phase at alpha_nt, then restart descent from the argmin
    iterate at the closed-form step size.

    Phase-1 records carry measurements with the theory checks marked
    not-applicable (the small-loss regime has not been entered). Phase 2
    re-anchors the constants at the restart iterate; when that state
    cannot support the closed-form step size (loss not in (0,1), or the
    run's h exceeding the admissible width), an explicit alpha_phase2 is
    required and the phase stays uninstrumented.
    """
    if act.kind is not ActivationKind.HUBERIZED_RELU:
        raise ValueError("the two-phase schedule is defined for the Huberized ReLU")
    p, L, n = V1.p, V1.depth, data.n

    phase1 = run_phase(
        V1, act, data, plan.alpha_nt, plan.T, stop_loss=plan.stop_loss
    )
    ctx1 = RunContext(
        p=p,
        L=L,
        n=n,
        h=act.h,
        alpha=plan.alpha_nt,
        Q=0.0,
        J1=phase1.states[0].loss,
        normV1=phase1.states[0].weight_norm,
        constants=None,
        instrumented=False,
    )
    records = []
    for i, state in enumerate(phase1.states):
        nxt = phase1.states[i + 1] if i + 1 < len(phase1.states) else None
        records.append(monitor_transition(state, nxt, ctx1, phase=1))

    restart = phase1.best_stack
    echo: dict = {
        "plan": {
            "alpha_nt": plan.alpha_nt,
            "T": plan.T,
            "T_faithful_log10": plan.T_faithful_log10,
            "h_nt": plan.h_nt,
            "rho": plan.rho,
            "c1": plan.c1,
            "theta_const": plan.theta_const,
            "stop_loss": plan.stop_loss,
            "phase2_steps": plan.phase2_steps,
        },
        "phase1_steps": len(phase1.states),
        "phase1_argmin_step": phase1.best_step,
        "phase1_argmin_loss": phase1.best_loss.value,
        "phase1_max_drift": max(phase1.drifts),
    }
    phase_boundary = None
    if plan.phase2_steps > 0:
        J_restart = total_loss(restart, act, data)
        norm_restart = frobenius_norm(restart)
        ctx2, alpha2 = _phase2_context(
            J_restart, norm_restart, p, L, n, act.h, plan
        )
        echo["phase2_alpha"] = alpha2
        echo["phase2_instrumented"] = ctx2.instrumented
        phase2 = run_phase(
            restart,
            act,
            data,
            alpha2,
            plan.phase2_steps,
            loss_floor=plan.loss_floor,
            anchor=V1,
        )
        phase_boundary = len(records)
        for i, state in enumerate(phase2.states):
            nxt = phase2.states[i + 1] if i + 1 < len(phase2.states) else None
            records.append(monitor_transition(state, nxt, ctx2, phase=2))
    log = RunLog(config_echo=echo, records=records, phase_boundary=phase_boundary)
    log.summary = summarize(records)
    log.summary["phase1"] = {
        "argmin_step": phase1.best_step,
        "argmin_loss": phase1.best_loss.value,
        "max_drift": max(phase1.drifts),
    }
    return log


def _phase2_context(
    J_restart: LossValue,
    norm_restart: float,
    p: int,
    L: int,
    n: int,
    h: float,
    plan: PhasePlan,
) -> tuple[RunContext, float]:
    instrumentable = J_restart.log_value < 0.0 and norm_restart > 0.0
    if instrumentable:
        h_max = compute_h_max(J_restart, p, L, norm_restart)
        instrumentable = h <= h_max
    if not instrumentable:
        if plan.alpha_phase2 is None:
            raise ValueError(
                "phase-2 step size cannot be resolved: the restart loss is not in "
                "(0,1) or h exceeds the admissible width; set alpha_phase2 explicitly"
            )
        ctx = RunContext(
            p=p,
            L=L,
            n=n,
            h=h,
            alpha=plan.alpha_phase2,
            Q=0.0,
            J1=J_restart,
            normV1=norm_restart,
            constants=None,
            instrumented=False,
        )
        return ctx, plan.alpha_phase2
    alpha2 = (
        plan.alpha_phase2
        if plan.alpha_phase2 is not None
        else compute_alpha_max(h, J_restart, p, L, norm_restart)
    )
    constants = theory_constants(J_restart, p, L, norm_restart, n, h, alpha=alpha2)
    Q = plan.Q if plan.Q is not None else compute_q_tilde(alpha2, J_restart, L, norm_restart)
    ctx = RunContext(
        p=p,
        L=L,
        n=n,
        h=h,
        alpha=alpha2,
        Q=Q,
        J1=J_restart,
        normV1=norm_restart,
        constants=constants,
    )
    return ctx, alpha2


def average_loss_bound_check(
    phase: PhaseTrace,
    V1: WeightStack,
    v_star: WeightStack,
    eps_nt: float,
    eps_app: float,
    alpha: float,
    tau: float,
) -> dict:
    """Measured form of the linearized-phase average-loss inequality.

    avg_t J_t <= (||V1 - V*||^2 + 2 T alpha eps_nt) / (T alpha (3/2 - 4 eps_app))

    eps_app here is a sampled lower estimate of a quantity the analysis
    upper-bounds, which makes the right side smaller (the check stricter);
    eps_nt from the projected minimizer is an upper estimate, making it
    looser. Both roles are recorded. The verdict only applies when every
    iterate stayed inside the tau-ball and eps_app < 3/8.
    """
    T = len(phase.states)
    avg = sum(s.loss.value for s in phase.states) / T
    dist2 = frobenius_norm(stack_axpy(V1, -1.0, v_star)) ** 2
    in_ball = max(phase.drifts) <= tau
    applicable = in_ball and eps_app < 0.375
    rhs = (
        (dist2 + 2.0 * T * alpha * eps_nt) / (T * alpha * (1.5 - 4.0 * eps_app))
        if applicable
        else math.nan
    )
    return {
        "avg_loss": avg,
        "rhs": rhs,
        "holds": bool(applicable and avg <= rhs),
        "applicable": applicable,
        "in_ball": in_ball,
        "max_drift": max(phase.drifts),
        "tau": tau,
        "eps_nt_side": "upper estimate (projected descent)",
        "eps_app_side": "lower estimate (sampled pairs)",
        "T": T,
    }


# ---------------------------------------------------------------------------
# initialization diagnostics


@dataclass(frozen=True)
class InitDiagnostics:
    post_activation_norms: np.ndarray  # L x n
    hidden_operator_norms: tuple[float, ...]
    outer_norm_over_sqrt_p: float
    narrow_regime: bool
    norms_in_range: bool
    operator_in_range: bool
    outer_in_range: bool
    sigma_sparsity: dict | None = None

    def ok(self) -> bool:
        return self.norms_in_range and self.operator_in_range and self.outer_in_range

    def to_dict(self) -> dict:
        return {
            "post_activation_norm_min": float(self.post_activation_norms.min()),
            "post_activation_norm_max": float(self.post_activation_norms.max()),
            "hidden_operator_norms": list(self.hidden_operator_norms),
            "outer_norm_over_sqrt_p": self.outer_norm_over_sqrt_p,
            "narrow_regime": self.narrow_regime,
            "norms_in_range": self.norms_in_range,
            "operator_in_range": self.operator_in_range,
            "outer_in_range": self.outer_in_range,
            "sigma_sparsity": self.sigma_sparsity,
            "ok": self.ok(),
        }


def init_diagnostics(
    V1: WeightStack,
    act: Activation,
    data: Dataset,
    norm_range: tuple[float, float] = (0.9, 1.1),
    operator_limit: float = 3.5,
    outer_range: tuple[float, float] = (0.85, 1.2),
    tau: float | None = None,
    seed: int = 0,
    op_rel_tol: float = 1e-6,  # the 3.5 threshold leaves no use for 1e-10
) -> InitDiagnostics:
    """Concentration measurements at a random initialization.

    In the wide regime the per-layer feature norms stay within about 10%
    of one, hidden operator norms stay order one, and the outer row's
    norm tracks sqrt(p). Narrow networks (p < 256) get a warning and
    their out-of-range readings are reported rather than failed.
    """
    p, L = V1.p, V1.depth
    narrow = p < 256
    if narrow:
        warnings.warn(
            f"width {p} is below the concentration regime; ranges are advisory",
            stacklevel=2,
        )

    trace = forward_rows(V1, act, data.inputs)
    post_norms = np.stack([np.linalg.norm(x, axis=1) for x in trace.x])  # L x n
    op_norms = tuple(operator_norm(m, rel_tol=op_rel_tol).value for m in V1.hidden)
    outer_scaled = float(np.linalg.norm(V1.outer)) / math.sqrt(p)
    sparsity = (
        sigma_difference_sparsity(V1, act, data, tau, seed=seed)
        if tau is not None
        else None
    )
    return InitDiagnostics(
        post_activation_norms=post_norms,
        hidden_operator_norms=op_norms,
        outer_norm_over_sqrt_p=outer_scaled,
        narrow_regime=narrow,
        norms_in_range=bool(
            (post_norms >= norm_range[0]).all() and (post_norms <= norm_range[1]).all()
        ),
        operator_in_range=bool(all(v <= operator_limit for v in op_norms)),
        outer_in_range=bool(outer_range[0] <= outer_scaled <= outer_range[1]),
        sigma_sparsity=sparsity,
    )


def sigma_difference_sparsity(
    V1: WeightStack, act: Activation, data: Dataset, tau: float, seed: int = 0
) -> dict:
    """Count coordinates where the activation-derivative diagonals differ
    between two random per-layer operator-norm-tau perturbations of V1.

    Reported against the p L^2 tau^(2/3) trend the analysis predicts; the
    hidden constant is unknown, so raw counts are diagnostic only.
    """
    rng = np.random.default_rng(seed)
    v_til = _perturb_hidden_operator(V1, tau, rng)
    v_hat = _perturb_hidden_operator(V1, tau, rng)
    L = V1.depth
    sig_a = forward_rows(v_til, act, data.inputs).sigma_diag
    sig_b = forward_rows(v_hat, act, data.inputs).sigma_diag
    counts = np.stack([np.count_nonzero(a != b, axis=1) for a, b in zip(sig_a, sig_b)])
    trend = V1.p * L**2 * tau ** (2.0 / 3.0)
    return {
        "max_count": int(counts.max()),
        "mean_count": float(counts.mean()),
        "trend_p_L2_tau23": trend,
        "tau": tau,
    }


def _perturb_hidden_operator(
    V: WeightStack, tau: float, rng: np.random.Generator
) -> WeightStack:
    out = []
    for m in V.hidden:
        g = rng.standard_normal(m.shape)
        scale = tau / operator_norm(g).value if tau > 0 else 0.0
        out.append(m + scale * g)
    out.append(np.array(V.outer))
    return WeightStack.from_layers(out)
