"""Dense stacked-parameter arithmetic and norms.

A network's trainable parameters live in a WeightStack: L square hidden
matrices of side p plus a 1 x p outer row. All operations are pure and
return new objects; arrays inside a stack are frozen on construction so
stacks can be shared across threads safely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when two stacks (or a stack and data) disagree on shape."""


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class WeightStack:
    """All trainable parameters: L hidden p x p matrices and one 1 x p row."""

    hidden: tuple[np.ndarray, ...]
    outer: np.ndarray

    def __post_init__(self):
        hidden = tuple(_freeze(m) for m in self.hidden)
        outer = _freeze(self.outer)
        if len(hidden) < 1:
            raise ValueError("a stack needs at least one hidden layer")
        if outer.ndim != 2 or outer.shape[0] != 1:
            raise ValueError(f"outer layer must be 1 x p, got {outer.shape}")
        p = outer.shape[1]
        if p < 1:
            raise ValueError("width must be at least 1")
        for i, m in enumerate(hidden):
            if m.shape != (p, p):
                raise ShapeMismatchError(
                    f"hidden layer {i} has shape {m.shape}, expected ({p}, {p})"
                )
        for i, m in enumerate((*hidden, outer)):
            if not np.all(np.isfinite(m)):
                raise ValueError(f"non-finite entries in layer {i}")
        object.__setattr__(self, "hidden", hidden)
        object.__setattr__(self, "outer", outer)

    @property
    def p(self) -> int:
        return self.outer.shape[1]

    @property
    def depth(self) -> int:
        """Number of hidden layers L."""
        return len(self.hidden)

    @property
    def n_layers(self) -> int:
        return len(self.hidden) + 1

    def layers(self) -> Iterator[np.ndarray]:
        yield from self.hidden
        yield self.outer

    def same_shape(self, other: "WeightStack") -> bool:
        return self.depth == other.depth and self.p == other.p

    @classmethod
    def from_layers(cls, layers: Sequence[np.ndarray]) -> "WeightStack":
        """Build from L+1 matrices; the last one is the outer row."""
        if len(layers) < 2:
            raise ValueError("need at least one hidden layer plus the outer row")
        return cls(hidden=tuple(layers[:-1]), outer=np.asarray(layers[-1]))

    @classmethod
    def _computed(cls, layers: Sequence[np.ndarray]) -> "WeightStack":
        """Wrap L+1 layers computed inside the package, skipping the finite
        check that guards outside input: an overflowing gradient must reach
        the descent loop's divergence check instead of failing here."""
        stack = object.__new__(cls)
        object.__setattr__(stack, "hidden", tuple(_freeze(m) for m in layers[:-1]))
        object.__setattr__(stack, "outer", _freeze(layers[-1]))
        return stack

    @classmethod
    def zeros(cls, p: int, L: int) -> "WeightStack":
        return cls(
            hidden=tuple(np.zeros((p, p)) for _ in range(L)),
            outer=np.zeros((1, p)),
        )


class OperatorNormBracket(NamedTuple):
    """lower <= largest singular value <= upper; see `operator_norm`."""

    lower: float
    upper: float
    iterations: int


@dataclass(frozen=True)
class StackNorms:
    """Collective and per-layer norms of a stack."""

    frobenius: float
    per_layer_frobenius: tuple[float, ...]
    per_layer_operator: tuple[OperatorNormBracket, ...]


def _require_same_shape(a: WeightStack, b: WeightStack) -> None:
    if not a.same_shape(b):
        raise ShapeMismatchError(
            f"stack shapes differ: (p={a.p}, L={a.depth}) vs (p={b.p}, L={b.depth})"
        )


def frobenius_norm(stack: WeightStack) -> float:
    """Square root of the sum of squared entries across all L+1 matrices."""
    total = 0.0
    for m in stack.layers():
        total += float(np.dot(m.ravel(), m.ravel()))
    return float(np.sqrt(total))


def stack_dot(a: WeightStack, b: WeightStack) -> float:
    """Entrywise dot product over all layers."""
    _require_same_shape(a, b)
    total = 0.0
    for ma, mb in zip(a.layers(), b.layers()):
        total += float(np.dot(ma.ravel(), mb.ravel()))
    return total


def stack_axpy(y: WeightStack, alpha: float, x: WeightStack) -> WeightStack:
    """y + alpha * x, leaving both inputs untouched."""
    _require_same_shape(y, x)
    return WeightStack(
        hidden=tuple(my + alpha * mx for my, mx in zip(y.hidden, x.hidden)),
        outer=y.outer + alpha * x.outer,
    )


def stack_scale(a: WeightStack, c: float) -> WeightStack:
    return WeightStack(hidden=tuple(c * m for m in a.hidden), outer=c * a.outer)


_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)
# Gaussian p=2048 layers stop after about 100 steps; a Gram that needs three
# times that is cheaper to finish with one eigvalsh call
_LANCZOS_STEP_CAP = 300


def _lanczos_top(gram: np.ndarray) -> tuple[float, float, int, bool]:
    """Top Ritz value of a symmetric matrix by Lanczos with full
    reorthogonalisation.

    Returns (theta, residual, steps, stopped): theta is the largest Ritz
    value, residual the Ritz residual beta_j |s_j|, steps the number of
    matrix-vector products, and stopped is False when the step cap ended
    the run before the residual fell to rounding level (k eps theta).
    The start vector is all-ones plus a tiny fixed-seed perturbation, so
    repeated calls are bit-identical.
    """
    k = gram.shape[0]
    cap = min(k, _LANCZOS_STEP_CAP)
    basis = np.empty((cap, k))  # rows past the steps taken are never touched
    q = np.ones(k) + 1e-3 * np.random.default_rng(0x5EED).standard_normal(k)
    q /= np.linalg.norm(q)
    alphas: list[float] = []
    betas: list[float] = []
    theta = residual = 0.0
    for j in range(cap):
        basis[j] = q
        w = gram @ q
        alphas.append(float(q @ w))
        done = basis[: j + 1]
        for _ in range(2):  # a second Gram-Schmidt pass restores working precision
            w -= done.T @ (done @ w)
        beta = float(np.linalg.norm(w))
        tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        ritz, vecs = np.linalg.eigh(tri)
        theta = float(ritz[-1])
        residual = beta * abs(float(vecs[-1, -1]))
        if residual <= k * _EPS * theta:
            return theta, residual, j + 1, True
        betas.append(beta)
        q = w / beta
    return theta, residual, cap, False


def operator_norm(m: np.ndarray) -> OperatorNormBracket:
    """Bracket on the largest singular value of m.

    Works on the smaller Gram matrix G (m m^T or m^T m), formed once. Lanczos
    gives its top Ritz value theta <= lambda_max(G), so `lower` = sqrt(theta)
    sits below the norm. The certificate then sets
    s = theta + residual + 4 k eps theta (plus the smallest normal number,
    so s > 0 for a zero matrix) and runs a Cholesky factorisation of sI - G,
    overwriting G. It succeeds only when sI - G is positive definite, so
    `upper` = sqrt(s) sits above the norm. Both ends hold for G as computed,
    up to the factorisation's backward error (of order k eps s, which the
    margin is sized to cover); rounding in forming G is of the same order.
    When the certificate fails (the Krylov space missed the top eigenvalue)
    or Lanczos reaches its step cap, LAPACK `eigvalsh` gives lambda_max
    exactly to rounding and the bracket is that value widened by the same
    margin on both sides. There is nothing to tune: the function takes no
    tolerance and no iteration limit. `iterations` counts products with G.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise ValueError(f"need a nonempty 2-d matrix, got shape {m.shape}")
    gram = m @ m.T if m.shape[0] <= m.shape[1] else m.T @ m
    k = gram.shape[0]
    theta, residual, steps, stopped = _lanczos_top(gram)
    theta = max(theta, 0.0)  # rounding can put a singular Gram's top Ritz value below 0
    if stopped:
        s = theta + residual + 4 * k * _EPS * theta + _TINY
        gram *= -1.0
        gram.flat[:: k + 1] += s
        try:
            np.linalg.cholesky(gram)
            return OperatorNormBracket(math.sqrt(theta), math.sqrt(s), steps)
        except np.linalg.LinAlgError:
            top = s - float(np.linalg.eigvalsh(gram)[0])
    else:
        top = float(np.linalg.eigvalsh(gram)[-1])
    margin = 4 * k * _EPS * abs(top) + _TINY
    return OperatorNormBracket(
        math.sqrt(max(top - margin, 0.0)), math.sqrt(top + margin), steps
    )


def stack_norms(stack: WeightStack) -> StackNorms:
    """Frobenius plus per-layer Frobenius norms and operator-norm brackets."""
    per_f = tuple(float(np.linalg.norm(m)) for m in stack.layers())
    return StackNorms(
        frobenius=float(np.sqrt(sum(f * f for f in per_f))),
        per_layer_frobenius=per_f,
        per_layer_operator=tuple(operator_norm(m) for m in stack.layers()),
    )


def product_operator_bound(stack: WeightStack) -> float:
    """max{ ||V||^(L+1) / (L+1)^((L+1)/2), ||V|| } for the collective norm."""
    f = frobenius_norm(stack)
    k = stack.n_layers
    return max(f**k / k ** (k / 2.0), f)
