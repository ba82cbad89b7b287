"""Dense stacked-parameter arithmetic and norms.

A network's trainable parameters live in a WeightStack: L square hidden
matrices of side p plus a 1 x p outer row, stored back to back in one
contiguous, read-only float64 vector (`flat`); `hidden` and `outer` are
reshaped views of it. Arithmetic on stacks is one array operation on that
vector and returns a new stack.

Each sum over a stack is one einsum, numpy's single-threaded loop, over
the whole flat vector or, for a per-layer sum, over that layer's slice of
it. `frobenius_norm`, `stack_dot` and `descent_sweep` reduce this way, so
they agree bit for bit and do not depend on the BLAS thread count.
`ntk.run_phase` holds the first hidden layer in coordinates of the inputs
and sweeps the rest, layers 2..L and the outer row: a stack of depth L - 1
(0 at L = 1) made inside the package.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np

try:  # einsum's C entry point, without the Python argument dispatch that np.einsum adds
    from numpy._core.multiarray import c_einsum as _c_einsum
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import c_einsum as _c_einsum
# the Cholesky gufunc that np.linalg.cholesky wraps, called here on a Fortran
# view so that it copies nothing in and writes its factor over its input
# (numpy's private module; this name is tested with numpy 2.4 only)
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky_lo


class ShapeMismatchError(ValueError):
    """Raised when two stacks (or a stack and data) disagree on shape."""


def _attach(stack: "WeightStack", flat: np.ndarray, p: int, L: int) -> None:
    """Freeze `flat` and point the stack's layer views into it."""
    flat.setflags(write=False)
    square = p * p
    object.__setattr__(stack, "flat", flat)
    object.__setattr__(
        stack, "hidden", tuple(flat[i * square : (i + 1) * square].reshape(p, p) for i in range(L))
    )
    object.__setattr__(stack, "outer", flat[L * square :].reshape(1, p))


def _require_finite(flat: np.ndarray, p: int) -> None:
    """Raise naming the first layer with a non-finite entry. A non-finite
    entry makes the sum of all entries non-finite, and only then does the
    exact scan run, which also tells an overflowing sum of finite entries
    apart; the sum's overflow is expected, so it warns of nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(flat)
    bad = [] if math.isfinite(total) else np.flatnonzero(~np.isfinite(flat))
    if len(bad):
        raise ValueError(f"non-finite entries in layer {int(bad[0]) // (p * p)}")


def _wrap(flat: np.ndarray, p: int, L: int) -> "WeightStack":
    """A stack on a freshly computed vector, checked but not copied."""
    _require_finite(flat, p)
    return WeightStack._computed(flat, p, L)


@dataclass(frozen=True)
class WeightStack:
    """All trainable parameters: L hidden p x p matrices and one 1 x p row."""

    hidden: tuple[np.ndarray, ...]
    outer: np.ndarray
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        hidden = tuple(np.asarray(m, dtype=np.float64) for m in self.hidden)
        outer = np.asarray(self.outer, dtype=np.float64)
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
        flat = np.concatenate([m.ravel() for m in (*hidden, outer)])
        _require_finite(flat, p)
        _attach(self, flat, p, len(hidden))

    @property
    def p(self) -> int:
        return self.outer.shape[1]

    @property
    def depth(self) -> int:
        """Number of hidden layers L."""
        return len(self.hidden)

    def layers(self) -> Iterator[np.ndarray]:
        yield from self.hidden
        yield self.outer

    @classmethod
    def from_layers(cls, layers: Sequence[np.ndarray]) -> "WeightStack":
        """Build from L+1 matrices; the last one is the outer row."""
        if len(layers) < 2:
            raise ValueError("need at least one hidden layer plus the outer row")
        return cls(hidden=tuple(layers[:-1]), outer=np.asarray(layers[-1]))

    @classmethod
    def _computed(cls, flat: np.ndarray, p: int, L: int) -> "WeightStack":
        """Adopt a flat vector computed inside the package, without a copy
        and without the finite check that guards outside input: an
        overflowing gradient must reach the descent loop's divergence check
        instead of failing here."""
        stack = object.__new__(cls)
        _attach(stack, flat, p, L)
        return stack


class OperatorNormBracket(NamedTuple):
    """lower <= largest singular value <= upper; see `operator_norm`.

    `iterations` counts Lanczos products with the Gram matrix, and `ended`
    says "certificate" (the Cholesky test proved the bracket) or
    "eigvalsh_estimate" (the dense fallback ran: the bracket is estimated).
    """

    lower: float
    upper: float
    iterations: int
    ended: str


def _require_same_shape(a: WeightStack, b: WeightStack) -> None:
    if (a.depth, a.p) != (b.depth, b.p):
        raise ShapeMismatchError(
            f"stack shapes differ: (p={a.p}, L={a.depth}) vs (p={b.p}, L={b.depth})"
        )


def _einsum_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two 1-d arrays by numpy's einsum loop: one thread, an
    order set by the length and the CPU's vector width (not by alignment),
    and no temporary (a pairwise sum of a * b costs twice as much)."""
    return float(_c_einsum("i,i->", a, b))


def frobenius_norm(stack: WeightStack) -> float:
    """Square root of the sum of squared entries across all L+1 matrices."""
    return math.sqrt(_einsum_dot(stack.flat, stack.flat))


def stack_dot(a: WeightStack, b: WeightStack) -> float:
    """Entrywise dot product over all layers."""
    _require_same_shape(a, b)
    return _einsum_dot(a.flat, b.flat)


def stack_axpy(y: WeightStack, alpha: float, x: WeightStack) -> WeightStack:
    """y + alpha * x, leaving both inputs untouched."""
    _require_same_shape(y, x)
    return _wrap(y.flat + alpha * x.flat, y.p, y.depth)


class Sweep(NamedTuple):
    """What `descent_sweep` measures at V and the iterate it writes."""

    grad_sq: float  # ||g||^2
    grad_dot: float  # <g, V>
    layer_drift_sq: list[float]  # ||V_l - anchor_l||^2 per layer
    next_flat: np.ndarray  # V - alpha g, not yet checked for finiteness
    next_sq: float  # ||V - alpha g||^2


def descent_sweep(V: WeightStack, grad: np.ndarray, anchor: WeightStack, alpha: float) -> Sweep:
    """The sums of a gradient step V - alpha grad and the new iterate, where
    `grad` is a flat vector shaped like `V.flat`.

    ||g||^2 and <g, V> are one einsum each over the whole vector; each
    layer's ||V - anchor||^2 is one einsum over its slice of the difference,
    staged in the new iterate's buffer, which then receives V - alpha g and
    is summed for the new iterate's squared norm. So the sums equal
    `frobenius_norm(grad)^2`, `stack_dot(grad, V)`, the per-layer sums of
    the difference and `frobenius_norm(new)^2` bit for bit, and the new
    iterate equals `stack_axpy(V, -alpha, grad)`. `ntk.run_phase` sweeps the
    tail of its iterate (layers 2..L and the outer row), so there layer 0 of
    the sweep is network layer 1.
    """
    x = V.flat
    if grad.shape != x.shape:
        raise ShapeMismatchError(f"gradient vector has shape {grad.shape}, expected {x.shape}")
    _require_same_shape(V, anchor)
    out = np.subtract(x, anchor.flat)
    square = V.p * V.p
    # layer l starts at l p^2; the last, the outer row, holds p <= p^2 entries
    layers = [out[lo : lo + square] for lo in range(0, x.size, square)]
    drift = [_einsum_dot(d, d) for d in layers]
    np.multiply(grad, -alpha, out=out)
    np.add(x, out, out=out)
    return Sweep(
        grad_sq=_einsum_dot(grad, grad),
        grad_dot=_einsum_dot(grad, x),
        layer_drift_sq=drift,
        next_flat=out,
        next_sq=_einsum_dot(out, out),
    )


_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)
# Gaussian p=2048 layers stop after about 75 steps; a Gram that needs four
# times that is cheaper to finish with one eigvalsh call
_LANCZOS_STEP_CAP = 300
# squared Frobenius norms outside this range are rescaled by a power of two
# before the Gram is used, so that neither it nor its Lanczos quantities
# overflow or lose digits to underflow
_GRAM_RANGE = (2.0**-500, 2.0**500)


def _rounding_margin(s: float, trace: float, k: int, inner: int) -> float:
    """What rounding can hide above s in lambda_max of m's exact Gram, for a
    k x k Gram G of sums of `inner` products, with trace ||m||_F^2: Rump's
    gamma_(k+1) / (1 - gamma_(k+1)) tr(sI - G) for a Cholesky factorisation
    of fl(sI - G) that runs to completion, gamma_inner ||m||_F^2 for forming
    G (gamma_j = j u / (1 - j u), u = eps/2; see README), 4 eps s for the
    shifted diagonal and these terms' own rounding, and tiny for Rump's
    underflow term at any k below 10^7."""
    u = _EPS / 2
    cholesky = (k + 1) * u / (1 - 2 * (k + 1) * u) * max(k * s - trace, 0.0)
    return cholesky + inner * u / (1 - inner * u) * trace + 4 * _EPS * s + _TINY


def _lanczos_top(gram: np.ndarray) -> tuple[float, float, float, int, bool]:
    """Top Ritz value of a symmetric matrix by Lanczos with full
    reorthogonalisation.

    Returns (theta, estimate, residual, steps, stopped): theta is the
    largest Ritz value, residual the Ritz residual r = beta_j |s_j|,
    estimate the error estimate min(r, r^2 / (theta - theta_2)) from r and
    the second Ritz value theta_2 (the Kato-Temple bound, with theta_2
    standing in for the second eigenvalue), steps the number of
    matrix-vector products, and stopped is
    False when the step cap ended the run before the estimate fell to
    rounding level (k eps theta). The Ritz value carries about twice as
    many correct digits as the residual, so this stops well before a
    residual test would. The estimate is not a bound; `operator_norm`
    proves the bracket it seeds. The start vector is all-ones plus a tiny
    fixed-seed perturbation, so repeated calls are bit-identical.
    """
    k = gram.shape[0]
    cap = min(k, _LANCZOS_STEP_CAP)
    basis = np.empty((cap, k))  # rows past the steps taken are never touched
    tri = np.zeros((cap, cap))  # after j steps the tridiagonal is tri[:j, :j]
    q = np.ones(k) + 1e-3 * np.random.default_rng(0x5EED).standard_normal(k)
    q /= np.linalg.norm(q)
    theta = estimate = residual = 0.0
    for j in range(cap):
        basis[j] = q
        w = gram @ q
        tri[j, j] = q @ w
        done = basis[: j + 1]
        for _ in range(2):  # a second Gram-Schmidt pass restores working precision
            w -= done.T @ (done @ w)
        beta = float(np.linalg.norm(w))
        ritz, vecs = np.linalg.eigh(tri[: j + 1, : j + 1])
        theta = float(ritz[-1])
        residual = beta * abs(float(vecs[-1, -1]))
        gap = theta - float(ritz[-2]) if j else 0.0
        estimate = min(residual, residual * residual / gap) if gap > 0 else residual
        if estimate <= k * _EPS * theta:
            return theta, estimate, residual, j + 1, True
        if j + 1 < cap:
            tri[j, j + 1] = tri[j + 1, j] = beta
        q = w / beta
    return theta, estimate, residual, cap, False


def _gram(m: np.ndarray) -> np.ndarray:
    """The smaller of m m^T and m^T m, C-ordered and bitwise symmetric:
    numpy forms a contiguous matrix's product with its own transpose by one
    BLAS syrk call on one triangle and mirrors it into the other."""
    if not (m.flags.c_contiguous or m.flags.f_contiguous):
        m = np.ascontiguousarray(m)  # a strided m's product takes another path, not symmetric
    with np.errstate(over="ignore", invalid="ignore"):  # checked by the caller
        return m @ m.T if m.shape[0] <= m.shape[1] else m.T @ m


def _shift_negated(gram: np.ndarray, s: float, diagonal: np.ndarray) -> np.ndarray:
    """Overwrite G, whose diagonal is `diagonal`, with sI - G; returns it."""
    gram *= -1.0
    gram.flat[:: gram.shape[0] + 1] = s - diagonal
    return gram


def _cholesky_in_place(a: np.ndarray) -> bool:
    """Whether the finite, bitwise-symmetric C-ordered matrix `a` is
    positive definite, by LAPACK's Cholesky factorisation on its transpose,
    a Fortran-ordered view of the same matrix. The factor (or NaN, when the
    factorisation fails) overwrites `a`. A NaN entry can pass: OpenBLAS's
    factorisation tests each pivot only for being <= 0."""
    try:
        with np.errstate(invalid="raise"):  # how the gufunc reports a failure
            _cholesky_lo(a.T, out=a.T)
    except FloatingPointError:
        return False
    return True


def _bracket(lower: float, upper: float, exponent: int, steps: int, ended: str) -> OperatorNormBracket:
    """The bracket for m from one for m / 2^exponent."""
    if exponent:
        try:
            lower = math.ldexp(lower, exponent)
        except OverflowError:  # the norm itself exceeds the largest float
            lower = sys.float_info.max
        try:
            upper = math.ldexp(upper, exponent)
        except OverflowError:
            upper = math.inf
    return OperatorNormBracket(lower, upper, steps, ended)


def operator_norm(m: np.ndarray) -> OperatorNormBracket:
    """Bracket on the largest singular value of m.

    Works on the smaller Gram matrix G (m m^T or m^T m), formed once. Lanczos
    gives its top Ritz value theta <= lambda_max(G), so `lower` = sqrt(theta)
    sits below the norm, and an error estimate (see `_lanczos_top`). The
    certificate then sets s = theta + estimate + 4 k eps theta (plus the
    smallest normal number, so s > 0 for a zero matrix), writes sI - G over
    G and runs LAPACK's Cholesky factorisation on it in place. G is formed
    bitwise symmetric, so its transpose, the Fortran-ordered view that
    LAPACK reads without a copy, is the same matrix, and the factor lands in
    G's own buffer. The factorisation succeeds only when sI - G is positive
    definite up to its backward error, so `upper` = sqrt(s + margin) sits
    above the norm of m itself: the margin (`_rounding_margin`) bounds that
    backward error and the rounding in forming G, about 2e-10 relative at
    k = 2048. `lower` holds for G as computed. A failed factorisation
    leaves NaN in the buffer, so G is then formed again (the same bits)
    before anything reads it. The test fails when the Kato-Temple estimate
    overstates the gap, as when the top two eigenvalues nearly coincide; it
    is then retried once with the Ritz residual r in place of the estimate.
    [theta - r, theta + r] holds an eigenvalue, so the wider shift passes
    unless the Krylov space missed the top eigenvalue, at the price of a
    bracket about r / (2 sqrt(theta)) wide. When the retry fails too, or
    Lanczos reaches its step cap, LAPACK `eigvalsh` gives lambda_max to
    rounding and the bracket is that value widened on both sides by
    4 k eps |top| plus the same margin at s = |top|: an estimate, since
    `eigvalsh` has no proven error constant. `ended` says which one ran.

    A matrix with a NaN or infinite entry raises ValueError. One whose
    squared Frobenius norm (the trace of G) lies outside [2^-500, 2^500] is
    first scaled by an exact power of two, and the bracket scaled back, so
    a finite matrix whose Gram would overflow or underflow still gets a
    bracket; other matrices are used as they are. There is nothing to tune:
    the function takes no tolerance and no iteration limit. `iterations`
    counts products with G.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise ValueError(f"need a nonempty 2-d matrix, got shape {m.shape}")
    gram = _gram(m)
    trace = float(np.trace(gram))
    exponent = 0
    if not _GRAM_RANGE[0] <= trace <= _GRAM_RANGE[1]:  # also true for NaN
        largest, smallest = float(m.max()), float(m.min())
        if not (math.isfinite(largest) and math.isfinite(smallest)):
            raise ValueError("matrix has non-finite entries")
        if largest or smallest:  # a zero matrix needs no scaling
            exponent = math.frexp(max(largest, -smallest))[1]
            m = np.ldexp(m, -exponent)
            gram = _gram(m)
        trace = float(np.trace(gram))
    k, inner = gram.shape[0], max(m.shape)
    theta, estimate, residual, steps, stopped = _lanczos_top(gram)
    theta = max(theta, 0.0)  # rounding can put a singular Gram's top Ritz value below 0
    if stopped:
        diagonal = gram.diagonal().copy()
        for shift in (estimate, residual) if residual > estimate else (estimate,):
            s = theta + shift + 4 * k * _EPS * theta + _TINY
            if _cholesky_in_place(_shift_negated(gram, s, diagonal)):
                upper = math.sqrt(s + _rounding_margin(s, trace, k, inner))
                return _bracket(math.sqrt(theta), upper, exponent, steps, "certificate")
            gram = _gram(m)  # the failed factorisation left NaN in G's buffer
    top = float(np.linalg.eigvalsh(gram)[-1])
    margin = 4 * k * _EPS * abs(top) + _rounding_margin(abs(top), trace, k, inner)
    return _bracket(
        math.sqrt(max(top - margin, 0.0)), math.sqrt(top + margin), exponent, steps, "eigvalsh_estimate"
    )
