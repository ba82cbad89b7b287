"""Forward pass with trace, stable logistic loss, tangent features and
exact layerwise gradients by reverse accumulation, each in one form.

The network is evaluated in one batched pass over the n x p input
matrix; the one-input functions run the same pass on a single row.
Tangent features are formed only on request (`_Tangent`). Every loss and
every per-sample gradient weight g = 1/(1 + e^z) comes from one
vectorized kernel over the margin vector, `logistic`. Losses carry a
parallel log-space channel because instrumented runs push the mean loss
far below 1e-12, where ratios like log(1/J) must stay accurate. Per-sample
losses are reduced in a fixed left-to-right order, and no result of this
module depends on the BLAS thread count, so repeated runs are
bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .activations import Activation, sigmoid
from .linalg import ShapeMismatchError, WeightStack, _wrap

# above this margin, log1p(exp(-z)) collapses to exp(-z) at double precision
_ASYMPTOTIC_MARGIN = 40.0


@dataclass(frozen=True)
class Dataset:
    """Unit-norm inputs with +-1 labels."""

    inputs: np.ndarray  # n x p
    labels: np.ndarray  # n, entries in {-1, +1}

    def __post_init__(self):
        inputs = np.array(self.inputs, dtype=np.float64, copy=True)
        labels = np.array(self.labels, dtype=np.float64, copy=True)
        if inputs.ndim != 2 or inputs.shape[0] == 0:
            raise ValueError("inputs must be a nonempty n x p array")
        if not np.isfinite(inputs).all():
            raise ValueError("inputs must be finite")
        if labels.shape != (inputs.shape[0],):
            raise ShapeMismatchError("labels must be one per input row")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        # the plain norm does not rescale: rows near 1e200 overflow and rows
        # near 1e-200 underflow, so those are first divided by their peak
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(inputs, axis=1)
        odd = (norms == 0.0) | (norms == math.inf)
        if odd.any():
            peak = np.maximum.reduce(np.abs(inputs[odd]), axis=1, keepdims=True)
            if not peak.all():
                raise ValueError("zero input vector cannot be normalized")
            inputs[odd] /= peak
            norms[odd] = np.linalg.norm(inputs[odd], axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            inputs = inputs / norms[:, None]
        inputs.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def p(self) -> int:
        return self.inputs.shape[1]


class ForwardTrace(NamedTuple):
    """Everything one forward pass produces, per layer.

    From `forward_rows` each entry is an n x p array with one row per
    input and `output` holds the n outputs; from `forward` (one input)
    each entry is a p-vector and `output` is a float.
    """

    u: tuple[np.ndarray, ...]  # pre-activations, L entries
    x: tuple[np.ndarray, ...]  # post-activations, L entries
    sigma_diag: tuple[np.ndarray, ...]  # activation derivatives at u
    output: np.ndarray | float


@dataclass(frozen=True)
class LossValue:
    """A loss together with its natural log, kept accurate independently."""

    value: float
    log_value: float

    def log_inverse(self) -> float:
        """log(1/J), taken from the log channel."""
        return -self.log_value


class Logistic(NamedTuple):
    """What `logistic` computes from a margin vector z."""

    loss: LossValue  # mean of log(1 + e^-z), with its log channel
    values: np.ndarray  # per-sample log(1 + e^-z)
    g: np.ndarray  # per-sample 1/(1 + e^z), in [0, 1]


def logistic(z: np.ndarray) -> Logistic:
    """Stable logistic loss, its mean and the gradient weights of margins z.

    The value channel is logaddexp(0, -z). The log channel is log(value),
    except above margin 40, where the value underflows toward e^-z and its
    log is expanded directly as -z - e^-z / 2. The mean's value is a
    left-to-right sum; its log is a log-sum-exp over the log channel.
    """
    z = np.asarray(z, dtype=np.float64)
    neg = np.negative(z)
    values = np.logaddexp(0.0, neg)
    e = np.exp(np.minimum(z, neg))  # e^-|z|
    g = sigmoid(neg, e)
    if np.maximum.reduce(z) <= _ASYMPTOTIC_MARGIN:  # False on NaN too
        logs = np.log(values)
    else:
        far = z > _ASYMPTOTIC_MARGIN
        # log(1) stands in where the value may have underflowed to 0
        logs = np.where(far, -z - 0.5 * e, np.log(np.where(far, 1.0, values)))
    top = float(np.maximum.reduce(logs))  # the log-sum-exp shift
    spread = math.log(float(np.add.reduce(np.exp(logs - top)))) if math.isfinite(top) else 0.0
    total = float(np.add.accumulate(values)[-1])
    return Logistic(LossValue(total / z.size, top + spread - math.log(z.size)), values, g)


def _point(V: WeightStack, inputs: np.ndarray) -> tuple[np.ndarray, WeightStack]:
    """V at the rows of `inputs` (n x p) as a point (u1, tail): the first
    layer's pre-activations X W_1^T and the stack of the other layers."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != V.p:
        raise ShapeMismatchError(f"inputs have shape {inputs.shape}, expected (n, {V.p})")
    return inputs @ V.hidden[0].T, _tail(V)


def _tail(V: WeightStack) -> WeightStack:
    """Layers 2..L and the outer row of V: a depth L - 1 stack on V's vector."""
    return WeightStack._computed(V.flat[V.p * V.p :], V.p, V.depth - 1)


def _forward(act: Activation, u: np.ndarray, above: Sequence[np.ndarray], outer: np.ndarray) -> ForwardTrace:
    """Forward pass from the first layer's pre-activations u (n x p) through
    the hidden matrices `above` (layers 2..L) and the outer row."""
    us, xs, sigmas = [], [], []
    for W in (None, *above):
        if W is not None:
            u = xs[-1] @ W.T
        us.append(u)
        xs.append(act.value(u))
        sigmas.append(act.deriv(u))
    return ForwardTrace(tuple(us), tuple(xs), tuple(sigmas), xs[-1] @ outer)


def forward_rows(V: WeightStack, act: Activation, inputs: np.ndarray) -> ForwardTrace:
    """Forward pass over every row of `inputs` (n x p) at once."""
    u1, tail = _point(V, inputs)
    return _forward(act, u1, tail.hidden, tail.outer[0])


def sensitivities(
    sigmas: Sequence[np.ndarray], above: Sequence[np.ndarray], outer: np.ndarray
) -> list[np.ndarray]:
    """B_l (n x p) for each hidden layer l, by reverse accumulation from a
    pass's activation derivatives through the matrices `above` (layers
    2..L) and the outer row.

    Row i of B_l is the sensitivity of output i to the layer-l
    pre-activations, so the layer-l block of that output's gradient is the
    outer product B_l[i] x_{l-1}[i]^T.
    """
    L = len(sigmas)
    bs: list[np.ndarray] = [np.empty(0)] * L
    b = sigmas[L - 1] * outer
    for layer in range(L - 1, -1, -1):
        bs[layer] = b
        if layer > 0:
            b = sigmas[layer - 1] * (b @ above[layer - 1])
    return bs


class _Tangent(NamedTuple):
    """One batched pass with its tangent features left unformed: the
    gradient of output i is F_i, B_l[i] X_{l-1}[i]^T in hidden layer l and
    X_L[i] in the outer row."""

    output: np.ndarray  # f at every input
    bs: list[np.ndarray]  # B_l, n x p
    below: tuple  # X_{l-1}, n x p; X_0, the inputs, may be None (see `at_point`)
    top: np.ndarray  # X_L, n x p

    @classmethod
    def at(cls, V1: WeightStack, act: Activation, data: Dataset) -> "_Tangent":
        return cls.at_point(act, data.inputs, _point(V1, data.inputs))

    @classmethod
    def at_point(cls, act: Activation, inputs: np.ndarray | None, point: tuple) -> "_Tangent":
        """The pass at a point (u1, tail) of the rows of `inputs`, which only
        `grams` and `features` read: `dots` takes layer 1's move as X D_1^T."""
        u1, tail = point
        above, outer = tail.hidden, tail.outer[0]
        trace = _forward(act, u1, above, outer)
        bs = sensitivities(trace.sigma_diag, above, outer)
        return cls(trace.output, bs, (inputs, *trace.x[:-1]), trace.x[-1])

    def grams(self) -> list[np.ndarray]:
        """K_l = (B_l B_l^T) * (X_{l-1} X_{l-1}^T) per hidden layer, then X_L X_L^T."""
        return [(b @ b.T) * (x @ x.T) for b, x in zip(self.bs, self.below)] + [self.top @ self.top.T]

    def features(self) -> list[WeightStack]:
        """Every F_i as a stack, formed by `_combine_features` with the
        one-hot coefficients e_i in every layer."""
        L, p = len(self.bs), self.top.shape[1]
        flats = (_combine_features([e] * (L + 1), self.bs, self.below, self.top) for e in np.eye(len(self.top)))
        return [_wrap(flat, p, L) for flat in flats]

    def dots(self, start: np.ndarray | float, moves: Iterable[np.ndarray], outer: np.ndarray) -> np.ndarray:
        """start + F_i . D at every input, for a move D given by its outer row
        and, per hidden layer, X_{l-1} D_l^T (n x p). <b x^T, D_l> = b^T D_l x
        is a row-wise dot of B_l with X_{l-1} D_l^T, so no feature stack is
        formed."""
        out = start + self.top @ outer
        for b, move in zip(self.bs, moves):
            out = out + np.einsum("ij,ij->i", b, move)
        return out

    def margin(self, labels: np.ndarray, W: WeightStack) -> float:
        """min_i y_i (F_i . W) / sqrt(p); -0.0 is the exact additive identity."""
        dots = self.dots(-0.0, (x @ w.T for x, w in zip(self.below, W.hidden)), W.outer[0])
        return float(np.min(labels * dots)) / math.sqrt(W.p)


def _one_row(V: WeightStack, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (V.p,):
        raise ShapeMismatchError(f"input has shape {x.shape}, expected ({V.p},)")
    return x[None, :]


def forward(V: WeightStack, act: Activation, x: np.ndarray) -> ForwardTrace:
    """Forward pass at one input: `forward_rows` on a single row."""
    trace = forward_rows(V, act, _one_row(V, x))
    return ForwardTrace(*(tuple(a[0] for a in arrays) for arrays in trace[:3]), float(trace.output[0]))


def output_gradient(V: WeightStack, act: Activation, x: np.ndarray) -> WeightStack:
    """Gradient of the network output f (not the loss) at one input."""
    row = _one_row(V, x)
    return _Tangent.at_point(act, row, _point(V, row)).features()[0]


def margins(V: WeightStack, act: Activation, data: Dataset) -> np.ndarray:
    """y_i f(x_i) for every sample."""
    return data.labels * forward_rows(V, act, data.inputs).output


def total_loss(V: WeightStack, act: Activation, data: Dataset) -> LossValue:
    return logistic(margins(V, act, data)).loss


def _combine_features(
    coefs: Sequence[np.ndarray],
    bs: Sequence[np.ndarray],
    below: Sequence[np.ndarray],
    top: np.ndarray,
) -> np.ndarray:
    """sum_i c_{l,i} F_{l,i} in every layer l, for per-sample coefficient
    vectors c_l (L+1 of them) and the tangent features F_{l,i} of one pass:
    (c_l * B_l)^T X_{l-1} for hidden layer l, c_L^T X_L for the outer row.
    Each product is written by its GEMM straight into one new, writable
    flat stack vector, which is returned unchecked."""
    L, p = len(bs), top.shape[1]
    square = p * p
    flat = np.empty(L * square + p)
    for layer, (c, b, x) in enumerate(zip(coefs, bs, below)):
        block = flat[layer * square : (layer + 1) * square].reshape(p, p)
        np.matmul((c[:, None] * b).T, x, out=block)
    np.matmul(coefs[L], top, out=flat[L * square :])
    return flat


def loss_and_gradient(
    point: tuple[np.ndarray, WeightStack], act: Activation, data: Dataset
) -> tuple[float, float, np.ndarray, np.ndarray, int]:
    """Mean loss, its log, its exact gradient times 2^k, and k, from one
    batched pass (`_Tangent.at_point`) at a network known through its first
    layer's pre-activations at the inputs, u1 = X W_1^T (n x p), and `tail`,
    the stack of layers 2..L and the outer row (depth L - 1): the point (u1, tail).

    With c_i = -y_i g(z_i) / n, the layer-l block is (c * B_l)^T X_{l-1}
    and the outer block is c^T X_L; layer 1's stays in the coordinates of
    the inputs, C^T X with C = c * B_1. C and the rest, a new flat vector,
    come back times 2^k: k >= 0 lifts the largest g, the smallest margin's,
    into [1/2, 1] before any product, so the squares of the gradient's
    entries stay normal at depth. The loss and its log equal `total_loss` of
    the point's network exactly.
    """
    output, bs, below, top = _Tangent.at_point(act, None, point)
    loss, _, c = logistic(data.labels * output)
    k = max(-math.frexp(float(np.maximum.reduce(c)))[1], 0)  # c is g here, in (0, 1]
    c *= data.labels  # c = -y g 2^k / n, in g's buffer
    c /= math.ldexp(-data.n, -k)
    return loss.value, loss.log_value, c[:, None] * bs[0], _combine_features([c] * len(bs), bs[1:], below[1:], top), k
