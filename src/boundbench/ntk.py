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
from dataclasses import dataclass

import numpy as np

from .activations import Activation, ActivationKind
from .bounds import (
    PhaseTrace,
    RunContext,
    RunLog,
    Trajectory,
    monitor_transition,
    resolve_context,
    summarize,
)
from .linalg import (
    WeightStack,
    _einsum_dot,
    _stack_sum,
    _wrap,
    descent_sweep,
    frobenius_norm,
    operator_norm,
    stack_axpy,
    stack_dot,
    stack_scale,
)
from .network import (
    Dataset,
    LossValue,
    RowSpacePoint,
    _combine_features,
    _forward,
    _sensitivities,
    forward_rows,
    logistic,
    loss_and_gradient,
    output_gradients,
    sensitivities,
    total_loss,
)


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


class RunAbortedError(RuntimeError):
    """The run could not be carried out (the CLI exits 3), as opposed to a
    bad config (exit 2) or a monitored inequality that failed (exit 1)."""


class NumericalDivergenceError(RunAbortedError):
    """A training loop hit a non-finite loss or gradient; carries the step index."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite loss or gradient at step {step}")


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

    The recipe is `rng.normal(0, sqrt(2/p), (p, p))` for each hidden layer
    in turn, then `rng.normal(0, 1, (1, p))` for the outer row, with
    `rng = np.random.default_rng(seed)`. It is carried out as one
    `standard_normal` draw straight into the stack's flat vector (the same
    stream in the same order) and an in-place scaling of the hidden part,
    which gives the same bits without temporaries or a copy. A given
    (seed, p, L) reproduces the same stack bitwise on one build.
    """
    p, L = spec.p, spec.L
    flat = np.empty(L * p * p + p)
    np.random.default_rng(spec.seed).standard_normal(out=flat)
    flat[: L * p * p] *= math.sqrt(spec.hidden_variance)
    return _wrap(flat, p, L)


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
    provided data, y_i b_i^T w1 x_i / sqrt(p) from one batched pass.
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
    # the outer block is zero and <b x^T, w1> = b^T w1 x, so no feature stack is formed
    trace = forward_rows(V1, act, data.inputs)
    (b,) = sensitivities(V1, trace)
    dots = np.einsum("ij,ij->i", b, data.inputs @ w1.T)
    gamma = float(np.min(data.labels * dots)) / math.sqrt(p)
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
    ascent on the unit sphere, started at the normalized sum of y_i F_i.

    Every iterate is W = sum_i a_i F_i, so the ascent runs on the n
    coefficients a with the Gram K[i,j] = F_i . F_j, formed once: the
    margins are y * (K a) / sqrt(p) and the norm is sqrt(a^T K a). The
    best W is built once at the end and its gamma re-evaluated from the
    features, so it certifies a lower bound on the optimum. A zero start
    raises ValueError.
    """
    if len(features) < 1 or iters < 1:
        raise ValueError("need at least one feature and one iteration")
    n = len(features)
    sqrt_p = math.sqrt(features[0].p)
    ys = np.asarray(labels, dtype=np.float64)
    gram = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            gram[i, j] = gram[j, i] = stack_dot(features[i], features[j])

    def unit(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sq = float(a @ gram @ a)
        if not sq > 0.0:
            raise ValueError("cannot normalize a zero stack")
        a = a / math.sqrt(sq)
        return a, ys * (gram @ a) / sqrt_p

    a, margins = unit(ys)
    best_a, best_gamma = a, float(np.min(margins))
    cur_step = step
    for _ in range(iters):
        worst = int(np.argmin(margins))
        a = a.copy()
        a[worst] += cur_step * ys[worst] / sqrt_p
        a, margins = unit(a)
        gamma = float(np.min(margins))
        if gamma > best_gamma:
            best_gamma, best_a = gamma, a
        cur_step *= 0.995
    layers = [
        sum(c * m for c, m in zip(best_a.tolist(), blocks))
        for blocks in zip(*(f.layers() for f in features))
    ]
    W = _normalized(WeightStack.from_layers(layers))
    return MarginWitness(
        w_star=W,
        gamma=margin_gamma(features, labels, W),
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
        if not self.rho >= 0:
            raise ValueError(f"ball radius rho must be nonnegative, got {self.rho}")
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

    Every iterate is a per-layer combination of the n tangent features,
    off_l = sum_i c_{l,i} F_{l,i}, so the descent runs on the n(L+1)
    coefficients c_l. Feature l of sample i is the rank-1 block
    B_l[i] x_{l-1}[i]^T (x_L[i] for the outer row), hence the layer Gram
    K_l = (B_l B_l^T) * (X_{l-1} X_{l-1}^T) and the margins are
    y * (f0 + sum_l K_l c_l). Grams cost O(n^2 L p) once, each step
    O(n^2 L); the offset is formed once at the end, with the GEMM of the
    loss gradient. In exact arithmetic the iterates equal those of the
    same descent run on the p^2 L + p parameters.
    """
    if cfg.rho == 0.0:
        return V1, total_loss(V1, act, data).value
    trace = forward_rows(V1, act, data.inputs)
    below = (data.inputs, *trace.x[:-1])
    bs = sensitivities(V1, trace)
    grams = [(b @ b.T) * (x @ x.T) for b, x in zip(bs, below)]
    grams.append(trace.x[-1] @ trace.x[-1].T)
    f0 = trace.output
    ys = data.labels
    coef = [np.zeros(data.n) for _ in grams]

    def margins(cs: list[np.ndarray]) -> np.ndarray:
        return ys * (f0 + sum(k @ c for k, c in zip(grams, cs)))

    def project(cs: list[np.ndarray]) -> list[np.ndarray]:
        clipped = []
        for k, c in zip(grams, cs):
            norm = math.sqrt(max(float(c @ k @ c), 0.0))
            clipped.append(c if norm <= cfg.rho else c * (cfg.rho / norm))
        return clipped

    feat_sq = sum(float(np.trace(k)) for k in grams) / data.n
    step = cfg.step_size if cfg.step_size is not None else 4.0 / max(feat_sq, 1e-12)
    terms = logistic(margins(coef))
    for _ in range(cfg.steps):
        g = -ys * terms.g / data.n
        cand = project([c - step * g for c in coef])
        cand_terms = logistic(margins(cand))
        halvings = 0
        while cand_terms.loss.value > terms.loss.value and halvings < 40:
            step *= 0.5
            halvings += 1
            cand = project([c - step * g for c in coef])
            cand_terms = logistic(margins(cand))
        if cand_terms.loss.value > terms.loss.value:
            break  # no acceptable step left; stationary within precision
        coef, terms = cand, cand_terms
        if halvings == 0:
            step *= 1.25
    offset = _combine_features(coef, bs, below, trace.x[-1])
    return stack_axpy(V1, 1.0, offset), terms.loss.value


def approx_error_sample(
    V1: WeightStack,
    act: Activation,
    data: Dataset,
    tau: float,
    k_pairs: int = 16,
    seed: int = 0,
) -> float:
    """Sampled lower estimate of the worst first-order remainder of f over
    pairs of points in the per-layer ball of radius tau around V1: the
    largest |f(V^) - f(V~) - <grad f(V~), V^ - V~>| over inputs and pairs.
    Each layer of a point moves by a random direction of Frobenius norm
    r = tau * uniform(0.5, 1), biased toward the shell, where the extrema of
    smooth maps live. A non-finite tau or remainder raises ValueError.

    Layer 1's move D = r G / ||G|| (G a p x p standard normal) reaches f only
    through D X^T. With X^T = Q R (reduced QR, k = min(n, p)), Z = G Q is a
    p x k standard normal independent of ||G Q_perp||^2 ~ chi^2(p (p - k)),
    so D X^T = r Z R / sqrt(||Z||^2 + chi^2) has exactly the full draw's law.
    Draw order per point: Z, the chi-square (if k < p), r, then the normals
    and radius of each of layers 2..L and the outer row, drawn in full since
    their inputs move; a pair draws V^, then V~. So a seed yields other pairs
    than full p x p draws would, from the same distribution. A pair costs
    2 (pk + (L - 1) p^2 + p) normals, two forward passes and one backward at
    `RowSpacePoint`s and two p x k x n products; at L = 1 no p x p array is
    formed.

    A sup over a continuum cannot be certified by sampling; callers must
    treat this as the measured side of an upper bound, never as the bound.
    """
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")
    if k_pairs < 1:
        raise ValueError("need at least one pair")
    if tau == 0.0:
        return 0.0
    p = V1.p
    R = np.linalg.qr(data.inputs.T, mode="r")  # k x n
    k = R.shape[0]
    U0 = data.inputs @ V1.hidden[0].T
    tail = _tail(V1)
    rng = np.random.default_rng(seed)

    def point() -> RowSpacePoint:
        z = rng.standard_normal((p, k))
        chi_sq = float(rng.chisquare(p * (p - k))) if k < p else 0.0
        u1 = _span_u1(U0, R, z, chi_sq, tau * float(rng.uniform(0.5, 1.0)))
        flat = np.empty_like(tail.flat)
        lo = 0
        for m in tail.layers():
            g = flat[lo : lo + m.size]
            rng.standard_normal(out=g)
            g *= tau * float(rng.uniform(0.5, 1.0)) / math.sqrt(_einsum_dot(g, g))
            lo += m.size
        flat += tail.flat
        return RowSpacePoint(u1, WeightStack._computed(flat, p, tail.depth))

    worst = 0.0
    for pair in range(k_pairs):
        v_hat = point()
        err = float(np.max(np.abs(_remainders(act, v_hat, point()))))
        if not math.isfinite(err):
            raise ValueError(f"non-finite first-order remainder in pair {pair} at tau {tau}")
        worst = max(worst, err)
    return worst


def _span_u1(U0: np.ndarray, R: np.ndarray, z: np.ndarray, chi_sq: float, radius: float) -> np.ndarray:
    """X W_1^T for W_1 = V_1 + radius G / ||G||, from U0 = X V_1^T, the factor
    R of X^T = Q R, Z = G Q and chi_sq = ||G||^2 - ||Z||^2."""
    scale = radius / math.sqrt(_einsum_dot(z.ravel(), z.ravel()) + chi_sq)
    return U0 + scale * (z @ R).T


def _remainders(act: Activation, v_hat: RowSpacePoint, v_til: RowSpacePoint) -> np.ndarray:
    """f(V^) - f(V~) - <grad f(V~), V^ - V~> at every input. A layer's term
    <b x^T, D> = b^T D x is a row-wise dot of B_l with X_{l-1} D^T, which for
    layer 1 is u^_1 - u~_1, so no per-sample feature stack is formed."""
    above, outer = v_til.tail.hidden, v_til.tail.outer[0]
    f_hat = _forward(act, v_hat.u1, v_hat.tail.hidden, v_hat.tail.outer[0]).output
    til = _forward(act, v_til.u1, above, outer)
    delta = WeightStack._computed(v_hat.tail.flat - v_til.tail.flat, v_til.tail.p, len(above))
    lin = til.output + til.x[-1] @ delta.outer[0]
    moves = (v_hat.u1 - v_til.u1, *(x @ d.T for x, d in zip(til.x[:-1], delta.hidden)))
    for b, move in zip(_sensitivities(til, above, outer), moves):
        lin = lin + np.einsum("ij,ij->i", b, move)
    return f_hat - lin


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
        resolved = dict(
            alpha_nt=alpha_nt,
            T=max(T, 1),
            h_nt=nt_smoothing_width(n, p, L),
            rho=rho,
            c1=c1,
            theta_const=theta_const,
            T_faithful_log10=log10_T,
        )
        return cls(**(resolved | overrides))


def run_phase(
    V: WeightStack,
    act: Activation,
    data: Dataset,
    alpha: float,
    max_steps: int,
    stop_loss: float | None = None,
    loss_floor: float = 0.0,
    start: tuple[np.ndarray, WeightStack] | None = None,
) -> PhaseTrace:
    """Plain constant-step GD, measuring everything monitors will need.

    The one descent loop: warmup, monitored descent and both phases of the
    two-phase schedule run it. The first layer's gradient (c B_1)^T X has
    its rows in the span of the n inputs, so every iterate's first layer is
    W_1 = V_1 + A^T X. The loop holds the n x p coefficients A and, with
    U_0 = X V_1^T and K = X X^T fixed, costs O(n^2 p) per step for that
    layer: u_1 = U_0 + K A, the step A <- A - alpha C with C = c B_1,
    ||g_1||^2 = <K C, C>, <g_1, W_1> = <C, u_1>, ||W_1||^2 = ||V_1||^2 +
    2 <U_0, A> + <K A, A> and the drift from V_1, sqrt(<K A, A>). Each step
    is one `loss_and_gradient` call at that `RowSpacePoint` and one
    `linalg.descent_sweep` over the tail (layers 2..L and the outer row),
    which measures the rest and writes the next tail with its squared norm.
    An iterate is the pair (A, tail), which `phase_stack` turns into a
    stack. The iterate starts at V, or at `start`, such as `trace.best` of a
    phase run from V, whose argmin row the first row then repeats bit for
    bit. Drift is measured from V. Columns and iterates equal repeated
    `stack_axpy(cur, -alpha, grad)` to rounding.

    Loss, log loss, gradient norm, weight norm, gradient-weight product and
    drift go into columns that start at min(max_steps, 1024) steps, double
    when full and are trimmed to the steps taken. Tracks the argmin-loss
    iterate with earliest-step tie-breaking in `best`; `final` is the
    iterate after the last step taken (not evaluated unless a stop rule
    fired). No p x p layer is formed. A non-finite loss or
    gradient raises `NumericalDivergenceError`; a non-finite new iterate
    from a finite gradient raises ValueError naming the layer (0 for A).
    """
    p, L, X = V.p, V.depth, data.inputs
    K, U0 = X @ X.T, X @ V.hidden[0].T
    anchor = _tail(V)
    coef, tail = (np.zeros_like(U0), anchor) if start is None else start
    base_sq, tail_sq = split_sq_norm(V, tail)

    def first_layer(coef: np.ndarray) -> tuple[np.ndarray, float, float]:
        """K A, ||W_1||^2 and the squared drift of W_1 from V_1."""
        kc = K @ coef
        drift_sq, cross = np.einsum("ij,kij->k", coef, (kc, U0)).tolist()  # one call, two sums
        return kc, base_sq + 2.0 * cross + drift_sq, drift_sq

    columns = np.empty((6, min(max_steps, 1024)))
    best_step, best = 0, None
    kc, first_sq, first_drift_sq = first_layer(coef)
    steps = 0
    for t in range(1, max_steps + 1):
        u1 = U0 + kc
        loss, (C, tail_grad) = loss_and_gradient(RowSpacePoint(u1, tail), act, data)
        sweep = descent_sweep(tail, tail_grad, anchor, alpha)
        first_grad_sq, first_grad_dot = np.einsum("ij,kij->k", C, (K @ C, u1)).tolist()
        grad_norm = math.sqrt(first_grad_sq + sweep.grad_sq)
        if not (math.isfinite(loss.value) and math.isfinite(grad_norm)):
            raise NumericalDivergenceError(t)
        if t > columns.shape[1]:
            grown = np.empty((6, min(2 * columns.shape[1], max_steps)))
            grown[:, : t - 1] = columns
            columns = grown
        columns[:, t - 1] = (
            loss.value,
            loss.log_value,
            grad_norm,
            math.sqrt(first_sq + tail_sq),
            first_grad_dot + sweep.grad_dot,
            math.sqrt(max(first_drift_sq, *sweep.layer_drift_sq)),
        )
        steps = t
        if best_step == 0 or loss.value < columns[0, best_step - 1]:
            best_step, best = t, (coef, tail)
        if loss.value <= loss_floor or (stop_loss is not None and loss.value <= stop_loss):
            break
        coef = coef - alpha * C
        kc, first_sq, first_drift_sq = first_layer(coef)
        tail, tail_sq = WeightStack._computed(sweep.next_flat, p, L - 1), sweep.next_sq
        if not math.isfinite(first_sq + tail_sq):  # scan only now, to name the layer
            for layer, block in enumerate((coef, *tail.layers())):
                if not np.isfinite(block).all():
                    raise ValueError(f"non-finite entries in layer {layer}")
    return PhaseTrace(
        *columns[:, :steps].copy(),
        best_step=best_step,
        best=best,
        final=(coef, tail),
    )


def _tail(V: WeightStack) -> WeightStack:
    """Layers 2..L and the outer row of V: a depth L - 1 stack on V's vector."""
    return WeightStack._computed(V.flat[V.p * V.p :], V.p, V.depth - 1)


def split_sq_norm(V: WeightStack, tail: WeightStack | None = None) -> tuple[float, float]:
    """||V_1||^2 by one einsum over the first hidden layer, and the squared
    norm of a tail (V's own unless given) in the block order of its own
    vector. `run_phase` reduces its weight norm this way, so a phase run
    from V has sqrt of their sum as its first row's weight norm, bit for bit."""
    tail = _tail(V) if tail is None else tail
    first = V.flat[: V.p * V.p]
    return _einsum_dot(first, first), _stack_sum(tail.flat, tail.flat)


def phase_stack(V: WeightStack, data: Dataset, point: tuple[np.ndarray, WeightStack]) -> WeightStack:
    """The stack of an iterate (A, tail) of a phase run from V: first layer
    V_1 + A^T X, written by one GEMM into the stack's vector, then the tail."""
    coef, tail = point
    p, L = V.p, V.depth
    flat = np.empty(L * p * p + p)
    first = flat[: p * p].reshape(p, p)
    np.matmul(coef.T, data.inputs, out=first)  # no p x p temporary
    first += V.hidden[0]
    flat[p * p :] = tail.flat
    return _wrap(flat, p, L)


def two_phase_train(
    V1: WeightStack, act: Activation, data: Dataset, plan: PhasePlan
) -> RunLog:
    """Linearized phase at alpha_nt, then restart descent from the argmin
    iterate at the closed-form step size.

    Each phase is monitored once and the log holds both, joined. Phase-1
    rows carry measurements with the theory checks marked not-applicable
    (the small-loss regime has not been entered). Phase 2 runs in phase 1's
    coordinates from its argmin iterate, with drift still measured from V1,
    and re-anchors the constants at that iterate, read from phase 1's
    argmin row; when that state cannot support the
    closed-form step size (loss not in (0,1), or the run's h exceeding the
    admissible width), an explicit alpha_phase2 is required and the phase
    stays uninstrumented.
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
        J1=LossValue(float(phase1.loss[0]), float(phase1.log_loss[0])),
        normV1=float(phase1.weight_norm[0]),
    )
    records = monitor_transition(phase1, ctx1, 1)

    best = phase1.best_step - 1
    argmin_loss = float(phase1.loss[best])
    max_drift = float(phase1.drift.max())
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
        "phase1_steps": len(phase1),
        "phase1_argmin_step": phase1.best_step,
        "phase1_argmin_loss": argmin_loss,
        "phase1_max_drift": max_drift,
    }
    phase_boundary = None
    if plan.phase2_steps > 0:
        # phase 2 starts at the argmin iterate in the same coordinates, so its
        # first row, and these constants, repeat phase 1's argmin row bit for bit
        J_restart = LossValue(argmin_loss, float(phase1.log_loss[best]))
        norm_restart = float(phase1.weight_norm[best])
        try:
            ctx2 = resolve_context(J_restart, norm_restart, p, L, n, act.h, alpha=plan.alpha_phase2)
        except ValueError as exc:
            raise ConfigError(
                f"phase_plan.alpha_phase2: the phase-2 step size cannot be resolved at the "
                f"restart iterate ({exc}); set it explicitly"
            ) from exc
        echo["phase2_alpha"] = ctx2.alpha
        echo["phase2_instrumented"] = ctx2.instrumented
        phase2 = run_phase(V1, act, data, ctx2.alpha, plan.phase2_steps, start=phase1.best)
        phase_boundary = len(records)
        records = Trajectory.concat([records, monitor_transition(phase2, ctx2, 2)])
    log = RunLog(config_echo=echo, records=records, phase_boundary=phase_boundary)
    log.summary = summarize(records)
    log.summary["phase1"] = {
        "argmin_step": phase1.best_step,
        "argmin_loss": argmin_loss,
        "max_drift": max_drift,
    }
    return log


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
    T = len(phase)
    avg = sum(phase.loss.tolist()) / T
    dist2 = frobenius_norm(stack_axpy(V1, -1.0, v_star)) ** 2
    max_drift = float(phase.drift.max())
    in_ball = max_drift <= tau
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
        "max_drift": max_drift,
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
    hidden_operator_norms: tuple[float, ...]  # lower ends of the brackets
    hidden_operator_norms_upper: tuple[float, ...]
    hidden_operator_norm_products: tuple[int, ...]  # Lanczos products with the Gram
    hidden_operator_norm_ended: tuple[str, ...]  # "certificate" or "eigvalsh"
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
            "hidden_operator_norms_upper": list(self.hidden_operator_norms_upper),
            "hidden_operator_norm_products": list(self.hidden_operator_norm_products),
            "hidden_operator_norm_ended": list(self.hidden_operator_norm_ended),
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
) -> InitDiagnostics:
    """Concentration measurements at a random initialization.

    In the wide regime the per-layer feature norms stay within about 10%
    of one, hidden operator norms stay order one, and the outer row's
    norm tracks sqrt(p). Narrow networks (p < 256) get a warning and
    their out-of-range readings are reported rather than failed.

    Each hidden operator norm is a certified bracket from `operator_norm`:
    `hidden_operator_norms` holds the lower ends (at most the true norm) and
    `hidden_operator_norms_upper` the upper ends (at least the true norm);
    `hidden_operator_norm_products` counts each layer's Lanczos products
    and `hidden_operator_norm_ended` says whether the Cholesky certificate
    or the `eigvalsh` fallback proved its bracket.
    `operator_in_range` judges the upper ends against `operator_limit`, so
    it never passes a layer whose norm exceeds the limit. Feature norms and
    the outer norm are direct computations, exact to rounding.
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
    op_norms = [operator_norm(m) for m in V1.hidden]
    op_upper = tuple(b.upper for b in op_norms)
    outer_scaled = float(np.linalg.norm(V1.outer)) / math.sqrt(p)
    sparsity = (
        sigma_difference_sparsity(V1, act, data, tau, seed=seed)
        if tau is not None
        else None
    )
    return InitDiagnostics(
        post_activation_norms=post_norms,
        hidden_operator_norms=tuple(b.lower for b in op_norms),
        hidden_operator_norms_upper=op_upper,
        hidden_operator_norm_products=tuple(b.iterations for b in op_norms),
        hidden_operator_norm_ended=tuple(b.ended for b in op_norms),
        outer_norm_over_sqrt_p=outer_scaled,
        narrow_regime=narrow,
        norms_in_range=bool(
            (post_norms >= norm_range[0]).all() and (post_norms <= norm_range[1]).all()
        ),
        operator_in_range=bool(all(v <= operator_limit for v in op_upper)),
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
        # the upper end keeps the perturbation's operator norm at most tau
        scale = tau / operator_norm(g).upper if tau > 0 else 0.0
        out.append(m + scale * g)
    out.append(np.array(V.outer))
    return WeightStack.from_layers(out)
