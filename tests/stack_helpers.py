"""Stack helpers that only tests use: a stack from its list of layers,
per-layer norms, one einsum a layer, the per-layer ball distance, the
per-layer ball perturbation, the sampled gradient-norm bound, the
parameter-space form of the first-order remainder sampler, the all-layer
form of the loss gradient, the plain gradient step, the margin of formed
feature stacks, the explicit clustered-data margin witness, the zero stack,
stack scaling, the measured average-loss inequality of the linearized
phase, the product bound on operator norms, the smoothness bound and the
sampled local Lipschitz constant of the gradient."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from boundbench.linalg import (
    OperatorNormBracket,
    WeightStack,
    _einsum_dot,
    _wrap,
    frobenius_norm,
    operator_norm,
    stack_axpy,
    stack_dot,
)
from boundbench.activations import Activation, ActivationKind
from boundbench.bounds import PhaseTrace
from boundbench.network import (
    Dataset,
    LossValue,
    _combine_features,
    _Tangent,
    forward_rows,
    logistic,
    sensitivities,
)
from boundbench.ntk import MarginWitness


def from_layers(layers: Sequence[np.ndarray]) -> WeightStack:
    """A stack from L+1 matrices; the last one is the outer row."""
    if len(layers) < 2:
        raise ValueError("need at least one hidden layer plus the outer row")
    return WeightStack(hidden=tuple(layers[:-1]), outer=np.asarray(layers[-1]))


def _layer_sums(a: np.ndarray, b: np.ndarray, p: int, L: int) -> list[float]:
    """Per-layer sums of a * b over two flat stack vectors, one einsum over
    each layer's slice; layer L is the outer row."""
    edges = [*range(0, L * p * p + 1, p * p), a.size]
    return [_einsum_dot(a[lo:hi], b[lo:hi]) for lo, hi in zip(edges, edges[1:])]


@dataclass(frozen=True)
class StackNorms:
    """Collective and per-layer norms of a stack."""

    frobenius: float
    per_layer_frobenius: tuple[float, ...]
    per_layer_operator: tuple[OperatorNormBracket, ...]


def stack_norms(stack: WeightStack) -> StackNorms:
    """Frobenius plus per-layer Frobenius norms and operator-norm brackets."""
    sums = _layer_sums(stack.flat, stack.flat, stack.p, stack.depth)
    return StackNorms(
        frobenius=frobenius_norm(stack),
        per_layer_frobenius=tuple(math.sqrt(s) for s in sums),
        per_layer_operator=tuple(operator_norm(m) for m in stack.layers()),
    )


def max_layer_distance(a: WeightStack, b: WeightStack) -> float:
    """max over layers of the Frobenius distance; the ball radius metric."""
    d = a.flat - b.flat
    return max(math.sqrt(s) for s in _layer_sums(d, d, a.p, a.depth))


def _perturb_layers_frobenius(
    V: WeightStack, tau: float, rng: np.random.Generator
) -> WeightStack:
    """V plus, in each layer, a random direction of Frobenius norm
    tau * uniform(0.5, 1): radii biased toward the shell, where the extrema
    of smooth maps live. Each layer's normal draw goes straight into its
    slice of one flat vector, which is scaled by radius / (its own einsum
    norm) and has V added in place."""
    flat = np.empty_like(V.flat)
    lo = 0
    for m in V.layers():
        g = flat[lo : lo + m.size]
        rng.standard_normal(out=g)
        radius = tau * float(rng.uniform(0.5, 1.0))
        g *= radius / math.sqrt(_einsum_dot(g, g))
        lo += m.size
    flat += V.flat
    return _wrap(flat, V.p, V.depth)


def remainders(v_hat: WeightStack, v_til: WeightStack, act, data: Dataset) -> np.ndarray:
    """f(V^) - f(V~) - <grad f(V~), V^ - V~> at every input, from both stacks
    in full; <b x^T, D> = b^T D x, so no per-sample feature stack is formed."""
    delta = stack_axpy(v_hat, -1.0, v_til)
    f_hat = forward_rows(v_hat, act, data.inputs).output
    til = forward_rows(v_til, act, data.inputs)
    lin = til.output + til.x[-1] @ delta.outer[0]
    below = (data.inputs, *til.x[:-1])
    for b, x, d in zip(sensitivities(til.sigma_diag, v_til.hidden[1:], v_til.outer[0]), below, delta.hidden):
        lin = lin + np.einsum("ij,ij->i", b, x @ d.T)
    return f_hat - lin


def approx_error_reference(
    V1: WeightStack, act, data: Dataset, tau: float, k_pairs: int = 16, seed: int = 0
) -> float:
    """`ntk.approx_error_sample` in parameter space: each pair is two full
    draws of `_perturb_layers_frobenius`, V^ then V~, from one seeded stream."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(k_pairs):
        v_hat = _perturb_layers_frobenius(V1, tau, rng)
        v_til = _perturb_layers_frobenius(V1, tau, rng)
        worst = max(worst, float(np.max(np.abs(remainders(v_hat, v_til, act, data)))))
    return worst


def gamma_bound(
    V1: WeightStack,
    act,
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
            for b, x in zip(sensitivities(trace.sigma_diag, V.hidden[1:], V.outer[0]), below)
            for b_i, x_i in zip(b, x)
        )
        worst = max(worst, *hidden, *(float(np.linalg.norm(x)) for x in trace.x[-1]))
    return worst


def gradient_reference(V: WeightStack, act, data: Dataset) -> WeightStack:
    """The loss gradient with every layer formed by `_combine_features` from
    one batched pass at the whole stack, c_i = -y_i g(z_i) / n in each layer."""
    trace = forward_rows(V, act, data.inputs)
    c = -data.labels * logistic(data.labels * trace.output).g / data.n
    below = (data.inputs, *trace.x[:-1])
    bs = sensitivities(trace.sigma_diag, V.hidden[1:], V.outer[0])
    flat = _combine_features([c] * (V.depth + 1), bs, below, trace.x[-1])
    return WeightStack._computed(flat, V.p, V.depth)


def gd_step(V: WeightStack, alpha: float, grad: WeightStack) -> WeightStack:
    if not alpha > 0:
        raise ValueError("step size must be positive")
    return stack_axpy(V, -alpha, grad)


def margin_gamma(features: list[WeightStack], labels: np.ndarray, W: WeightStack) -> float:
    """min over samples of y * (feature . W) / sqrt(p)."""
    p = W.p
    vals = [
        float(y) * stack_dot(f, W) / math.sqrt(p) for f, y in zip(features, labels)
    ]
    return min(vals)


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
    active = moderate & (np.abs(lean) >= 4.0 * act.h)
    count = int(np.count_nonzero(active))
    if count == 0:
        raise ValueError("degenerate initialization: no active coordinates for the witness")
    w1 = np.zeros((p, p))
    w1[active] = np.sign(v2[active])[:, None] * mu[None, :] / math.sqrt(count)
    w_star = WeightStack(hidden=(w1,), outer=np.zeros((1, p)))
    gamma = _Tangent.at(V1, act, data).margin(data.labels, w_star)
    return MarginWitness(w_star=w_star, gamma=gamma, gamma_upper=math.inf)


def zero_stack(p: int, L: int) -> WeightStack:
    """The all-zero stack of width p with L hidden layers."""
    return WeightStack(hidden=tuple(np.zeros((p, p)) for _ in range(L)), outer=np.zeros((1, p)))


def stack_scale(a: WeightStack, c: float) -> WeightStack:
    return _wrap(c * a.flat, a.p, a.depth)


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
    eps_nt from `nt_class_minimize` is the loss at the primal point of its
    Newton iteration on the dual, a point of the ball, so an upper estimate
    (within the certified gap where that stop is reached), making it looser.
    Both roles are recorded. The verdict only applies when every iterate
    stayed inside the tau-ball and eps_app < 3/8.
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
        "eps_nt_side": "upper estimate (primal point of the dual Newton solve)",
        "eps_app_side": "lower estimate (sampled pairs)",
        "T": T,
    }


def product_operator_bound(stack: WeightStack) -> float:
    """max{ ||V||^(L+1) / (L+1)^((L+1)/2), ||V|| } for the collective norm."""
    f = frobenius_norm(stack)
    k = stack.depth + 1
    return max(f**k / k ** (k / 2.0), f)


def smoothness_bound(J: LossValue, normV: float, p: int, L: int, h: float) -> float:
    """256 (L+1) sqrt(p) ||V||^(3L+5) J / h; valid for h <= 1 and large ||V||."""
    return 256.0 * (L + 1) * math.sqrt(p) * normV ** (3 * L + 5) * J.value / h


def probe_local_lipschitz(
    V: WeightStack,
    act: Activation,
    data: Dataset,
    radius: float,
    k: int = 16,
    seed: int = 0,
) -> float:
    """Lower estimate of the local Lipschitz constant of the loss gradient.

    Takes k seeded random pairs inside the Frobenius ball of the given
    radius and returns the largest gradient difference quotient. Being a
    max over finitely many secants, the estimate sits below the true
    local constant, which the smoothness bound upper-bounds.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    if k < 2:
        raise ValueError("need at least 2 probe pairs")
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(k):
        a = _random_point_in_ball(V, radius, rng)
        b = _random_point_in_ball(V, radius, rng)
        diff = stack_axpy(a, -1.0, b)
        dist = frobenius_norm(diff)
        if dist == 0.0:
            continue  # duplicate probes carry no secant information
        ga = gradient_reference(a, act, data)
        gb = gradient_reference(b, act, data)
        quot = frobenius_norm(stack_axpy(ga, -1.0, gb)) / dist
        best = max(best, quot)
    return best


def _random_point_in_ball(V: WeightStack, radius: float, rng: np.random.Generator) -> WeightStack:
    direction = from_layers([rng.standard_normal(m.shape) for m in V.layers()])
    norm = frobenius_norm(direction)
    r = radius * float(rng.uniform(0.0, 1.0))
    return stack_axpy(V, r / norm, direction)
