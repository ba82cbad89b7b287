"""Stack helpers that only tests use: per-layer norms in the block order,
the per-layer ball distance, the per-layer ball perturbation, the sampled
gradient-norm bound, the parameter-space form of the first-order remainder
sampler and the plain gradient step."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from boundbench.linalg import (
    _BLOCK,
    OperatorNormBracket,
    WeightStack,
    _einsum_dot,
    _layer_pieces,
    _wrap,
    frobenius_norm,
    operator_norm,
    stack_axpy,
)
from boundbench.network import Dataset, forward_rows, sensitivities


def _layer_sums(a: np.ndarray, b: np.ndarray, p: int, L: int) -> list[float]:
    """Per-layer sums of a * b over two flat stack vectors, in the block order."""
    sums = [0.0] * (L + 1)
    for start in range(0, a.size, _BLOCK):
        for layer, lo, hi in _layer_pieces(p, L, start, min(start + _BLOCK, a.size)):
            sums[layer] += _einsum_dot(a[lo:hi], b[lo:hi])
    return sums


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
    for b, x, d in zip(sensitivities(v_til, til), below, delta.hidden):
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
            for b, x in zip(sensitivities(V, trace), below)
            for b_i, x_i in zip(b, x)
        )
        worst = max(worst, *hidden, *(float(np.linalg.norm(x)) for x in trace.x[-1]))
    return worst


def gd_step(V: WeightStack, alpha: float, grad: WeightStack) -> WeightStack:
    if not alpha > 0:
        raise ValueError("step size must be positive")
    return stack_axpy(V, -alpha, grad)
