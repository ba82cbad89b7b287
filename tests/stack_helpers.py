"""Stack helpers that only tests use: per-layer norms in the block order,
the per-layer ball distance, the sampled gradient-norm bound and the plain
gradient step."""

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
    frobenius_norm,
    operator_norm,
    stack_axpy,
)
from boundbench.network import Dataset, forward_rows, sensitivities
from boundbench.ntk import _perturb_layers_frobenius


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
