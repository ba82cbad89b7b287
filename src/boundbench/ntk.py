"""Random initialization, the margin estimate and linearized-model quantities
(on the tangent features of `network._Tangent`), two-phase training, and
initialization concentration diagnostics.

Conventions: the linearized (tangent) model at V1 maps x to
f_{V1}(x) + feature(x) . (V - V1) with feature(x) the gradient of the
network output at V1. Balls around V1 are per-layer: Frobenius radius
for the tangent-class ball, operator-norm radius for the derivative
sparsity diagnostic.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .activations import Activation, ActivationKind, sigmoid
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
    _EPS,
    WeightStack,
    _c_einsum,
    _einsum_dot,
    _wrap,
    descent_sweep,
    frobenius_norm,
    operator_norm,
)
from .network import (
    Dataset,
    LossValue,
    _combine_features,
    _forward,
    _point,
    _tail,
    _Tangent,
    forward_rows,
    logistic,
    loss_and_gradient,
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


def _require_count(name: str, value, least: int) -> None:
    """Raise naming `name` unless `value` is an integer, not a bool, of at
    least `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} out of range: must be an integer >= {least}, got {value!r}")


# ---------------------------------------------------------------------------
# initialization


@dataclass(frozen=True)
class InitSpec:
    p: int
    L: int
    seed: int

    def __post_init__(self):
        _require_count("p", self.p, 1)
        _require_count("L", self.L, 1)
        _require_count("seed", self.seed, 0)


def gaussian_init(spec: InitSpec) -> WeightStack:
    """Hidden entries ~ N(0, 2/p), outer ~ N(0, 1), from one seeded stream.

    The recipe is `rng.normal(0, sqrt(2/p), (p, p))` for each hidden layer
    in turn, then `rng.normal(0, 1, (1, p))` for the outer row, with
    `rng = np.random.default_rng(seed)`. It is carried out as one
    `standard_normal` draw straight into the stack's flat vector (the same
    stream in the same order) and an in-place scaling of the hidden part,
    which gives the same bits without temporaries or a copy. A normal draw
    is finite, so the stack is adopted without a finite scan. A given
    (seed, p, L) reproduces the same stack bitwise on one build.
    """
    p, L = spec.p, spec.L
    flat = np.empty(L * p * p + p)
    np.random.default_rng(spec.seed).standard_normal(out=flat)
    flat[: L * p * p] *= math.sqrt(2.0 / p)
    return WeightStack._computed(flat, p, L)


# ---------------------------------------------------------------------------
# tangent features and margins


def ntk_features(V1: WeightStack, act: Activation, data: Dataset) -> list[WeightStack]:
    """Per-sample gradient of the network output at V1 (not of the loss)."""
    return _Tangent.at(V1, act, data).features()


@dataclass(frozen=True)
class MarginWitness:
    """A unit-norm witness with its margin gamma, a lower end of the best
    margin, and an upper end of it (inf where none is known)."""

    w_star: WeightStack
    gamma: float
    gamma_upper: float

    def __post_init__(self):
        norm = frobenius_norm(self.w_star)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"witness must have unit norm, got {norm}")
        if not self.gamma <= self.gamma_upper:
            raise ValueError(f"margin bracket out of order: {self.gamma} > {self.gamma_upper}")


def make_clustered_dataset(p: int, r: float, n: int, seed: int, mu=None) -> Dataset:
    """n unit-sphere samples within r of +mu (label +1, the first ceil(n/2))
    or -mu (label -1). mu is normalised; when None it is
    `default_rng(seed).standard_normal(p)`, and the samples come from a
    second `default_rng(seed)`. Each point is mu plus a random perturbation
    of norm at most r, renormalized to the sphere and resampled (up to 200
    times, then RuntimeError) while renormalization leaves it outside the
    cluster. ValueError unless mu is p numbers with a positive finite norm,
    0 <= r <= 1/16 (where the explicit margin construction holds) and n >= 2.
    """
    mu = np.random.default_rng(seed).standard_normal(p) if mu is None else np.array(mu, dtype=np.float64)
    norm = float(np.linalg.norm(mu))
    if mu.shape != (p,) or not 0.0 < norm < math.inf:
        raise ValueError(f"cluster center mu must be {p} numbers with a positive finite norm, got shape {mu.shape}")
    mu = mu / norm
    if not 0.0 <= r <= 1.0 / 16.0:
        raise ValueError(f"cluster radius r must be in [0, 1/16], got {r}")
    if n < 2:
        raise ValueError("need at least one sample of each label")
    rng = np.random.default_rng(seed)
    labels = np.array([1.0] * ((n + 1) // 2) + [-1.0] * (n // 2))
    rows = []
    for y in labels:
        center = y * mu
        if r == 0.0:
            rows.append(center.copy())
            continue
        for _ in range(200):
            delta = rng.standard_normal(p)
            radius = r * float(rng.uniform()) ** (1.0 / p)
            x = center + delta * (radius / float(np.linalg.norm(delta)))
            x = x / float(np.linalg.norm(x))
            if float(np.linalg.norm(x - center)) <= r:
                rows.append(x)
                break
        else:
            raise RuntimeError(
                f"could not place a point within {r} of the cluster center "
                "after 200 attempts"
            )
    return Dataset(inputs=np.stack(rows), labels=labels)


def margin_estimate_subgradient(V1: WeightStack, act: Activation, data: Dataset) -> MarginWitness:
    """Bracket the best margin of the tangent features F_i at V1,
    gamma* = min over the simplex of ||sum_i lam_i y_i F_i|| / sqrt(p).

    Wolfe's minimum-norm-point algorithm (Math. Programming 11, 1976) solves
    it exactly on the signed Gram G = diag(y) K diag(y), K = sum_l K_l of one
    batched pass (`_Tangent.grams`). Any lam bounds gamma* from above by
    sqrt(lam^T G lam / p); the witness W = x / ||x||, x = sum_i lam_i y_i F_i,
    formed once and re-checked on the same pass, bounds it from below. An x
    that is zero to rounding (the features do not separate the data) raises
    ValueError.
    """
    tangent, ys = _Tangent.at(V1, act, data), data.labels
    signed = sum(tangent.grams()) * np.outer(ys, ys)
    slack = data.n * _EPS * float(np.max(np.diag(signed)))  # rounding in g and sq below
    corral = [int(np.argmin(np.diag(signed)))]
    lam, sq = np.zeros(data.n), math.inf
    lam[corral] = 1.0
    while True:  # major cycle: stop when no point lies below x's level
        g = signed @ lam
        j, last, sq = int(np.argmin(g)), sq, float(lam @ g)
        if not (g[j] < sq - slack and sq < last) or j in corral:
            break
        corral.append(j)
        while True:  # minor cycle: the min-norm point of the corral's affine hull
            k = len(corral)
            kkt = np.ones((k + 1, k + 1))
            kkt[:k, :k], kkt[k, k] = signed[np.ix_(corral, corral)], 0.0
            mu, old = np.linalg.solve(kkt, np.eye(k + 1)[k])[:k], lam[corral]
            if (mu > 0.0).all():
                lam[corral] = mu
                break
            out = mu <= 0.0  # step towards mu until a weight reaches 0; that point leaves
            lam[corral] = old + np.min(old[out] / (old[out] - mu[out])) * (mu - old)
            lam[corral[int(np.argmin(lam[corral]))]] = 0.0
            np.maximum(lam, 0.0, out=lam)
            corral = [i for i in corral if lam[i] > 0.0]
    if not sq > slack:
        raise ValueError("the minimum-norm point is zero: the tangent features do not separate the data")
    flat = _combine_features([lam * ys] * (V1.depth + 1), tangent.bs, tangent.below, tangent.top)
    flat /= math.sqrt(_einsum_dot(flat, flat))
    W = WeightStack._computed(flat, V1.p, V1.depth)
    gamma = tangent.margin(ys, W)
    # the ends meet at the optimum, where rounding may put either one above the other
    return MarginWitness(w_star=W, gamma=gamma, gamma_upper=max(math.sqrt(sq / V1.p), gamma))


# ---------------------------------------------------------------------------
# tangent-class quantities


@dataclass(frozen=True)
class NtBallConfig:
    rho: float
    steps: int = 400  # cap on the Newton steps of `nt_class_minimize`

    def __post_init__(self):
        if not (math.isfinite(self.rho) and self.rho >= 0):
            raise ValueError(f"ball radius rho must be finite and nonnegative, got {self.rho}")
        _require_count("steps", self.steps, 1)


# `nt_class_minimize` stops once its duality gap, with the gap's own
# rounding bound, is at most this fraction of the loss
_GAP_STOP = 2.0**-42


class _DualPoint(NamedTuple):
    """The dual point s = sigma(-z) of `nt_class_minimize` at margins z and
    what follows from it, all scaled by e^shift, shift = max(min z, 0)."""

    z: np.ndarray
    shift: float
    loss: np.ndarray  # e^shift log(1 + e^-z)
    s: np.ndarray  # e^shift sigma(-z), largest entry in [1/2, 1)
    comp: np.ndarray  # sigma(z) = 1 - sigma(-z), unscaled
    unit: np.ndarray  # S_l s / q_l per layer, q_l = sqrt(s^T S_l s); 0 where q_l = 0
    inv: np.ndarray  # rho / q_l per layer; 0 where q_l = 0
    zp: np.ndarray  # z' = b + rho sum_l S_l s / q_l, the primal margins
    dual: float  # n e^shift D(s)


def _scaled_logistic(z: np.ndarray, shift: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """e^shift log(1 + e^-z), e^shift sigma(-z) and sigma(z), elementwise.
    The first two are e^(shift - max(z, 0)) times a factor in (0, |z| + 1]:
    they underflow only where z exceeds shift by 700, and an overflow is inf."""
    e = np.exp(-np.abs(z))
    with np.errstate(over="ignore"):
        scale = np.exp(shift - np.maximum(z, 0.0))
    tail = np.log1p(e)
    ratio = np.divide(tail, e, out=np.ones_like(e), where=e > 0.0)  # log1p(e) / e
    return scale * np.where(z >= 0.0, ratio, tail - z), scale / (1.0 + e), sigmoid(z, e)


def _dual_point(z: np.ndarray, signed: np.ndarray, b: np.ndarray, rho: float) -> _DualPoint:
    shift = max(float(np.minimum.reduce(z)), 0.0)
    loss, s, comp = _scaled_logistic(z, shift)
    products = signed @ s
    q = np.sqrt(products @ s)
    live = q > 0.0
    unit = np.divide(products, q[:, None], out=np.zeros_like(products), where=live[:, None])
    inv = np.divide(rho, q, out=np.zeros_like(q), where=live)
    zp = b + rho * np.add.reduce(unit)
    return _DualPoint(z, shift, loss, s, comp, unit, inv, zp, float(np.add.reduce(loss) + s @ (z - zp)))


def nt_class_minimize(
    V1: WeightStack, act: Activation, data: Dataset, cfg: NtBallConfig
) -> tuple[WeightStack, float]:
    """Minimize the tangent-model logistic loss over the per-layer
    Frobenius ball of radius rho around V1.

    The minimiser is a per-layer combination of the n tangent features,
    off_l = sum_i c_{l,i} F_{l,i}, so the problem is posed on the layer Grams
    K_l of one batched pass (`_Tangent.grams`): with a_l = y * c_l, the signed
    Grams S_l = K_l * (y y^T) and b = y f0, the margins are b + sum_l S_l a_l
    and ||off_l||^2 = a_l^T S_l a_l <= rho^2. As l(z) = log(1 + e^-z) is the
    maximum over s in [0, 1] of H(s) - s z (H the binary entropy, at
    s = sigma(-z)), every s in (0, 1)^n bounds the minimum from below by

        D(s) = (1/n) [sum_i H(s_i) - s^T b - rho sum_l q_l],  q_l = sqrt(s^T S_l s),

    and a_l = rho s / q_l is a primal point on every ball's boundary, with
    margins z' = b + rho sum_l S_l s / q_l and loss P = mean l(z'). D is
    largest where z = z' for the z with s = sigma(-z); Newton's method solves
    that from z = b (Boyd & Vandenberghe, Convex Optimization, 2004, sec. 5.1
    and 9.5), with the n x n Jacobian of z - z'

        J = I + sum_l (rho / q_l) (S_l - u_l u_l^T) diag(s (1 - s)),  u_l = S_l s / q_l,

    each step halved until D = mean l(z) + s^T (z - z') / n rises by 1e-4 of
    its predicted rise. Only the direction of s enters z' and J, so s and
    the losses are held scaled by e^shift, shift = max(min z, 0): nothing
    underflows where the loss does.

    The gap P - D = (1/n) sum_i [l(z'_i) - l(z_i) + s_i (z'_i - z_i)] sums
    Bregman divergences of l, each >= 0. `cfg.steps` caps the Newton steps.
    The loop stops before the cap once the gap plus a bound on its rounding
    error is at most `_GAP_STOP` (2^-42) times P, all scaled by e^shift, or
    once a step finds no rise (no ascent left, or 40 halvings). It returns
    the primal point of least P seen (by `logistic`'s log channel, which
    holds where P underflows), as a stack, and that P. In the
    `t32-tangent-p512` workload the stop comes after 2-13 Newton steps at
    every radius.

    Rounding bound. Weak duality holds at the s held, so only the arithmetic
    of D and P needs bounding for the stop to certify that P, the loss at the
    computed margins z', is within gap + bound of the minimum over the balls
    (for the computed Grams). With e = 2^-53, k(x) = (|shift - max(x, 0)| + 12) e
    bounds to first order the relative error of `_scaled_logistic` at x (the
    rounded exponent, then at most 11e from exp, log1p, the divisions and
    products). Scaled by n e^shift, the computed gap is short of P - D(s) by
    at most the sum of
      - sum_i k(z_i) l(z_i) + k(z'_i) l(z'_i), the two losses;
      - sum_i k(z_i)^2 s_i / sigma(z_i), as the s_i held is sigma(-z_i) to
        relative k(z_i), so H(s_i) - s_i z_i is short of l(z_i) by
        KL(s_i || sigma(-z_i)), at most that term;
      - (n + 4) e sum_i [l(z'_i) + l(z_i) + s_i |z'_i - z_i|], forming and
        summing the n terms (Higham, Accuracy and Stability of Numerical
        Algorithms, sec. 3.1);
      - (2n + L + 4) e (s^T |b| + sum_l (rho / q_l) s^T |S_l| s), as s^T z'
        stands for s^T b + rho sum_l q_l: an entry of z' (S_l s to gamma_n
        of |S_l| s, times rho / q_l, summed over the L + 1 layers) is within
        (n + L + 3) e of |b| + sum_l (rho / q_l) |S_l| s, and q_l^2 = s^T S_l s
        within gamma_2n of s^T |S_l| s, so rho |q_l - q_l^2 / q_computed| is
        within (n + 1) e (rho / q_l) s^T |S_l| s.
    The last term, about (2n + L + 4) e max z' of the loss, keeps the stop
    reachable while the margins stay below about 2^11 / (2n + L + 4).
    """
    if cfg.rho == 0.0:
        return V1, total_loss(V1, act, data).value
    tangent = _Tangent.at(V1, act, data)
    ys, n, rho, e = data.labels, data.n, cfg.rho, _EPS / 2
    signed = np.stack(tangent.grams()) * np.outer(ys, ys)
    b = ys * tangent.output
    point = _dual_point(b, signed, b, rho)
    best = None
    for step in range(cfg.steps + 1):
        primal = logistic(point.zp).loss
        if best is None or primal.log_value < best[0].log_value:
            best = (primal, point)
        z, zp, s = point.z, point.zp, point.s
        loss_zp, _, _ = _scaled_logistic(zp, point.shift)
        gap = float(np.add.reduce(loss_zp - point.loss + s * (zp - z)))
        limit = _GAP_STOP * float(np.add.reduce(loss_zp))
        if gap <= limit < math.inf:
            k_z, k_zp = ((np.abs(point.shift - np.maximum(x, 0.0)) + 12.0) * e for x in (z, zp))
            bound = k_z @ point.loss + k_zp @ loss_zp + k_z * k_z @ (s / point.comp) + e * (
                (n + 4) * float(np.add.reduce(loss_zp + point.loss + s * np.abs(zp - z)))
                + (2 * n + V1.depth + 4) * (s @ np.abs(b) + point.inv @ (np.abs(signed) @ s @ s))
            )
            if gap + bound <= limit:
                break
        if step == cfg.steps:
            break
        weights = s * point.comp
        jacobian = np.tensordot(point.inv, signed, 1) - (point.unit.T * point.inv) @ point.unit
        jacobian *= weights
        jacobian.flat[:: n + 1] += 1.0
        direction = np.linalg.solve(jacobian, zp - z)
        rise = float((zp - z) * weights @ direction)  # n e^shift dD/dt at t = 0
        t = 1.0
        while rise > 0.0 and t >= 2.0**-40:
            cand = _dual_point(z + t * direction, signed, b, rho)
            # cand.dual in this point's scale, the exponent capped so that it cannot overflow
            if cand.dual * math.exp(min(point.shift - cand.shift, 700.0)) > point.dual + 1e-4 * t * rise:
                break
            t *= 0.5
        else:
            break
        point = cand
    primal, point = best
    flat = _combine_features(ys * (point.inv[:, None] * point.s), tangent.bs, tangent.below, tangent.top)
    flat += V1.flat  # V1 + offset, in the offset's buffer
    return _wrap(flat, V1.p, V1.depth), primal.value


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
    points (u1, tail) and two p x k x n products; at L = 1 no p x p array is
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
    U0, tail = _point(V1, data.inputs)
    rng = np.random.default_rng(seed)

    def point() -> tuple[np.ndarray, WeightStack]:
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
        return u1, WeightStack._computed(flat, p, tail.depth)

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


def _remainders(act: Activation, v_hat: tuple, v_til: tuple) -> np.ndarray:
    """f(V^) - f(V~) - <grad f(V~), V^ - V~> at every input, for points
    (u1, tail), by `_Tangent.dots` at V~: layer 1's move X D_1^T is
    u^_1 - u~_1."""
    (u_hat, tail_hat), (u_til, tail_til) = v_hat, v_til
    f_hat = _forward(act, u_hat, tail_hat.hidden, tail_hat.outer[0]).output
    tangent = _Tangent.at_point(act, None, v_til)
    delta = WeightStack._computed(tail_hat.flat - tail_til.flat, tail_til.p, tail_til.depth)
    moves = (u_hat - u_til, *(x @ d.T for x, d in zip(tangent.below[1:], delta.hidden)))
    return f_hat - tangent.dots(tangent.output, moves, delta.outer[0])


# ---------------------------------------------------------------------------
# two-phase training


def nt_smoothing_width(n: int, p: int, L: int) -> float:
    """Smoothing width of the two-phase schedule:
    (1 + 24L) log n / (6 (6p)^((L+1)/2) L^3)."""
    return (1 + 24 * L) * math.log(n) / (6.0 * (6.0 * p) ** ((L + 1) / 2.0) * L**3)


def faithful_horizon_log10(n: int, L: int, rho: float, alpha_nt: float) -> float | None:
    """log10 of the first phase's faithful horizon
    3 (L+1) rho^2 n^(2+24L) / (2 alpha_nt), formed in logs; None unless
    rho and alpha_nt are positive (at rho = 0 the ball is V1 itself)."""
    if not (rho > 0 and alpha_nt > 0):
        return None
    return math.log10(1.5 * (L + 1)) + 2.0 * math.log10(rho) - math.log10(alpha_nt) + (2 + 24 * L) * math.log10(n)


@dataclass(frozen=True)
class PhasePlan:
    """Hyperparameters of the two-phase schedule; its smoothing width is the
    activation's, which `two_phase_train` echoes as h_nt, and its faithful
    horizon is `faithful_horizon_log10` of its rho and alpha_nt.

    The analysis fixes the ball radius rho and the linearized-phase step
    size alpha_nt only up to absolute constants; `auto` takes each at
    constant 1 unless it is given.
    """

    alpha_nt: float
    T: int
    rho: float
    alpha_phase2: float | None = None  # read only when phase2_steps > 0; None: alpha_max at the restart
    stop_loss: float = 0.0  # desk-scale early stop for the first phase; 0: none
    phase2_steps: int = 0

    def __post_init__(self):
        for name in ("alpha_nt", "alpha_phase2"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} out of range: must be finite and positive, got {value}")
        for name in ("rho", "stop_loss"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} out of range: must be finite and nonnegative, got {value}")
        _require_count("T", self.T, 1)
        _require_count("phase2_steps", self.phase2_steps, 0)

    @classmethod
    def auto(
        cls, n: int, p: int, L: int, gamma: float | None, *, delta: float, T: int | None,
        alpha_nt: float | None, rho: float | None, stop_loss: float,
        alpha_phase2: float | None, phase2_steps: int,
    ) -> "PhasePlan":
        """Resolve the closed-form plan from the phase_plan keys, None
        standing for "auto"; given numbers are taken as floats, T as given.
        Every key is required, as the config schema holds the defaults.

        The faithful horizon scales like n^(2+24L), far beyond any
        desk-scale budget: T defaults to it capped at 10,000 steps, and to 1
        at rho = 0. The margin `gamma` (None if not estimated) and `delta`
        are read only to form an automatic rho; a gamma so small that rho
        passes the float range raises `ConfigError` naming
        phase_plan.gamma. `alpha_phase2` is read only by a plan with
        phase2_steps > 0.
        """
        alpha_nt = 1.0 / (p * L**5) if alpha_nt is None else float(alpha_nt)
        if rho is None:
            if gamma is None or not 0 < gamma < math.inf:
                raise ValueError(f"margin gamma must be finite and positive, got {gamma}")
            log_n = math.log(n)
            rho = (
                math.sqrt(log_n - math.log(delta)) + math.log(6.0) + (2 + 24 * L) * log_n
            ) / (math.sqrt(p) * gamma)
            if not math.isfinite(rho):
                raise ConfigError(
                    f"phase_plan.gamma: a margin of {gamma:.3g} puts the automatic ball radius "
                    "beyond the float range; give phase_plan.rho"
                )
        rho = float(rho)
        log10_T = faithful_horizon_log10(n, L, rho, alpha_nt)  # None: rho is 0 or the plan rejects it
        auto_T = 1 if log10_T is None else 10_000 if log10_T > 4 else max(int(math.ceil(10.0**log10_T)), 1)
        return cls(
            alpha_nt=alpha_nt, T=auto_T if T is None else T, rho=rho, phase2_steps=phase2_steps,
            alpha_phase2=None if alpha_phase2 is None else float(alpha_phase2),
            stop_loss=float(stop_loss),
        )


def run_phase(
    V: WeightStack,
    act: Activation,
    data: Dataset,
    alpha: float,
    max_steps: int,
    stop_loss: float = 0.0,
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
    is one `loss_and_gradient` call at the point (u_1, tail) and one
    `linalg.descent_sweep` over the tail (layers 2..L and the outer row),
    which measures the rest, one einsum per vector or per layer, and writes
    the next tail with its squared norm.
    The kernel returns C and the tail gradient times 2^k: ||g||^2 and <g, W>
    are summed at that scale and undone by an exact ldexp, and the step
    (alpha 2^-k)(g 2^k) rounds as alpha g does. An iterate is the pair
    (A, tail), which `phase_stack` turns into a stack. It starts at V, or at
    `start`, such as `trace.best` of a phase run from V, whose argmin row the
    first row then repeats bit for bit. Drift is measured from V. Columns
    and iterates equal repeated `stack_axpy(cur, -alpha, grad)` to rounding.

    Loss, log loss, gradient norm, weight norm, gradient-weight product and
    drift are kept as one row of floats per step taken and become six
    columns at the end. The operand
    ((K C, K A'), (u_1, U_0)) of each step's sums, A' = A - alpha C, is one
    buffer per phase; no returned array shares its memory. Tracks the
    argmin-loss iterate with earliest-step tie-breaking in `best`; `final`
    is the iterate after the last step taken (not evaluated unless the loss
    fell to `stop_loss` or below, which stops the loop). No p x p layer is
    formed. A non-finite loss or gradient raises `NumericalDivergenceError`;
    a non-finite new iterate from a finite gradient raises ValueError
    naming the layer (0 for A).
    """
    p, L, X = V.p, V.depth, data.inputs
    terms = np.empty((2, 2, data.n, p))
    K, U0 = X @ X.T, np.matmul(X, V.hidden[0].T, out=terms[1, 1])
    anchor = _tail(V)
    coef, tail = (np.zeros_like(U0), anchor) if start is None else start
    base_sq, tail_sq = split_sq_norm(V, tail)
    rows = []
    best_step, best, best_loss = 0, None, math.inf
    kc = K @ coef
    drift_sq, cross = np.einsum("ij,kij->k", coef, (kc, U0)).tolist()  # one call, two sums
    for t in range(1, max_steps + 1):
        first_sq = base_sq + 2.0 * cross + drift_sq
        u1 = np.add(U0, kc, out=terms[1, 0])
        loss, log_loss, C, tail_grad, k = loss_and_gradient((u1, tail), act, data)
        step = math.ldexp(alpha, -k)
        sweep = descent_sweep(tail, tail_grad, anchor, step)
        # C and A' = A - alpha C, with their K-products from one GEMM call; one
        # einsum call makes this step's two sums and the next iterate's two
        pair = np.empty((2, *C.shape))
        pair[0] = C
        np.subtract(coef, step * C, out=pair[1])
        k_pair = np.matmul(K, pair, out=terms[0])
        sums = _c_einsum("kij,lkij->lk", pair, terms).tolist()
        (first_grad_sq, next_drift_sq), (first_grad_dot, next_cross) = sums
        grad_norm = math.ldexp(math.sqrt(first_grad_sq + sweep.grad_sq), -k)
        if not (math.isfinite(loss) and math.isfinite(grad_norm)):
            raise NumericalDivergenceError(t)
        rows.append((
            loss,
            log_loss,
            grad_norm,
            math.sqrt(first_sq + tail_sq),
            math.ldexp(first_grad_dot + sweep.grad_dot, -k),
            math.sqrt(max(drift_sq, *sweep.layer_drift_sq)),
        ))
        if loss < best_loss:  # the loss is finite here; earliest step on ties
            best_step, best, best_loss = t, (coef, tail), loss
        if loss <= stop_loss:
            break
        coef, kc, drift_sq, cross = pair[1], k_pair[1], next_drift_sq, next_cross
        tail, tail_sq = WeightStack._computed(sweep.next_flat, p, L - 1), sweep.next_sq
        if not math.isfinite(base_sq + 2.0 * cross + drift_sq + tail_sq):  # scan only now, to name the layer
            for layer, block in enumerate((coef, *tail.layers())):
                if not np.isfinite(block).all():
                    raise ValueError(f"non-finite entries in layer {layer}")
    return PhaseTrace(
        *np.array(rows, dtype=np.float64).reshape(-1, 6).T.copy(),
        best_step=best_step,
        best=best,
        final=(coef, tail),
    )


def split_sq_norm(V: WeightStack, tail: WeightStack | None = None) -> tuple[float, float]:
    """||V_1||^2 by one einsum over the first hidden layer, and the squared
    norm of a tail (V's own unless given) by one einsum over its vector.
    `run_phase` reduces its weight norm this way, so a phase run from V has
    sqrt of their sum as its first row's weight norm, bit for bit."""
    tail = _tail(V) if tail is None else tail
    first = V.flat[: V.p * V.p]
    return _einsum_dot(first, first), _einsum_dot(tail.flat, tail.flat)


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
    iterate at alpha_phase2 if given, else at the closed-form step size.

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

    phase1 = run_phase(V1, act, data, plan.alpha_nt, plan.T, stop_loss=plan.stop_loss)
    ctx1 = RunContext(
        p=p,
        L=L,
        n=n,
        h=act.h,
        alpha=plan.alpha_nt,
        J1=LossValue(float(phase1.loss[0]), float(phase1.log_loss[0])),
        normV1=float(phase1.weight_norm[0]),
    )
    records = monitor_transition(phase1, ctx1, 1)

    best = phase1.best_step - 1
    argmin_loss = float(phase1.loss[best])
    max_drift = float(phase1.drift.max())
    echo: dict = {
        "plan": {k: v for k, v in asdict(plan).items() if k != "alpha_phase2"}
        | {"h_nt": act.h, "T_faithful_log10": faithful_horizon_log10(n, L, plan.rho, plan.alpha_nt)},
        "phase1_steps": len(phase1),
        "phase1_argmin_step": phase1.best_step,
        "phase1_argmin_loss": argmin_loss,
        "phase1_max_drift": max_drift,
    }
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
        records = Trajectory.concat([records, monitor_transition(phase2, ctx2, 2)])
    return RunLog(config_echo=echo, records=records, summary=summarize(records))


# ---------------------------------------------------------------------------
# initialization diagnostics


# the limit on each hidden layer's operator norm at initialization, a fixed
# pass/fail threshold as the two norm ranges in `init_diagnostics` are
OPERATOR_LIMIT = 3.5


def init_diagnostics(
    V1: WeightStack,
    act: Activation,
    data: Dataset,
    tau: float | None = None,
    seed: int = 0,
) -> dict:
    """Concentration measurements at a random initialization, as the
    `diagnostics` section of a run's summary.

    In the wide regime the per-layer feature norms stay within
    [0.9, 1.1], hidden operator norms stay order one and the outer row's
    norm over sqrt(p) within [0.85, 1.2]. Narrow networks (p < 256) get a
    warning and their out-of-range readings are reported rather than
    failed; "ok" holds when all three readings are in range.

    Each hidden operator norm is a bracket from `operator_norm`:
    `hidden_operator_norms` holds the lower ends and
    `hidden_operator_norms_upper` the upper ends;
    `hidden_operator_norm_products` counts each layer's Lanczos products
    and `hidden_operator_norm_ended` says whether the Cholesky certificate
    proved its bracket ("certificate") or the `eigvalsh` fallback estimated
    it ("eigvalsh_estimate"). `operator_in_range` judges the upper ends
    against `OPERATOR_LIMIT`, so it passes no layer whose norm exceeds the
    limit wherever the certificate proved the bracket. Feature norms and
    the outer norm are direct computations, exact to rounding.
    """
    p = V1.p
    narrow = p < 256
    if narrow:
        warnings.warn(
            f"width {p} is below the concentration regime; ranges are advisory",
            stacklevel=2,
        )

    trace = forward_rows(V1, act, data.inputs)
    post_norms = np.stack([np.linalg.norm(x, axis=1) for x in trace.x])  # L x n
    brackets = [operator_norm(m) for m in V1.hidden]
    outer_scaled = float(np.linalg.norm(V1.outer)) / math.sqrt(p)
    in_range = {
        "norms_in_range": bool((post_norms >= 0.9).all() and (post_norms <= 1.1).all()),
        "operator_in_range": bool(all(b.upper <= OPERATOR_LIMIT for b in brackets)),
        "outer_in_range": bool(0.85 <= outer_scaled <= 1.2),
    }
    return {
        "post_activation_norm_min": float(post_norms.min()),
        "post_activation_norm_max": float(post_norms.max()),
        "hidden_operator_norms": [b.lower for b in brackets],
        "hidden_operator_norms_upper": [b.upper for b in brackets],
        "hidden_operator_norm_products": [b.iterations for b in brackets],
        "hidden_operator_norm_ended": [b.ended for b in brackets],
        "outer_norm_over_sqrt_p": outer_scaled,
        "narrow_regime": narrow,
        **in_range,
        "sigma_sparsity": None if tau is None else sigma_difference_sparsity(V1, act, data, tau, seed=seed),
        "ok": all(in_range.values()),
    }


def sigma_difference_sparsity(
    V1: WeightStack, act: Activation, data: Dataset, tau: float, seed: int = 0
) -> dict:
    """Count coordinates where the activation-derivative diagonals differ
    between two random per-layer operator-norm-tau perturbations of V1.

    Reported against the p L^2 tau^(2/3) trend the analysis predicts; the
    hidden constant is unknown, so raw counts are diagnostic only. A
    negative or non-finite tau raises ValueError.
    """
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")
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
