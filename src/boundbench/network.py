"""Forward pass with trace, stable logistic loss, and exact layerwise
gradients by reverse accumulation.

The network is evaluated in one batched pass over the n x p input
matrix; the one-input functions run the same pass on a single row.
Every loss and every per-sample gradient weight g = 1/(1 + e^z) comes from
one vectorized kernel over the margin vector, `logistic`. Losses carry a
parallel log-space channel because instrumented runs push the mean loss
far below 1e-12, where ratios like log(1/J) must stay accurate. Per-sample
losses are reduced in a fixed left-to-right order, and no result of this
module depends on the BLAS thread count, so repeated runs are
bit-identical.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .activations import Activation
from .linalg import ShapeMismatchError, WeightStack

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
        if labels.shape != (inputs.shape[0],):
            raise ShapeMismatchError("labels must be one per input row")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        norms = np.linalg.norm(inputs, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("zero input vector cannot be normalized")
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

    @classmethod
    def from_json_dict(cls, doc: dict, origin: str = "<inline>") -> "Dataset":
        """Load {"p": int, "samples": [{"x": [...], "y": +-1}, ...]}; inputs off
        the unit sphere by more than 1e-6 are renormalized with a warning."""
        p = int(doc["p"])
        xs, ys = [], []
        for i, sample in enumerate(doc["samples"]):
            x = np.asarray(sample["x"], dtype=np.float64)
            if x.shape != (p,):
                raise ValueError(f"{origin}: sample {i} has {x.size} coords, expected {p}")
            xs.append(x)
            ys.append(float(sample["y"]))
        inputs = np.stack(xs)
        deviation = float(np.max(np.abs(np.linalg.norm(inputs, axis=1) - 1.0)))
        if deviation > 1e-6:
            warnings.warn(
                f"{origin}: inputs deviate from unit norm by up to {deviation:.3g}; renormalizing",
                stacklevel=2,
            )
        return cls(inputs=inputs, labels=np.asarray(ys))

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "samples": [
                {"x": list(map(float, x)), "y": int(y)}
                for x, y in zip(self.inputs, self.labels)
            ],
        }


@dataclass(frozen=True)
class ForwardTrace:
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

    @classmethod
    def from_value(cls, value: float) -> "LossValue":
        if value < 0:
            raise ValueError("loss values are nonnegative")
        return cls(value=float(value), log_value=math.log(value) if value > 0 else -math.inf)

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
    values = np.logaddexp(0.0, -z)
    e = np.exp(-np.abs(z))
    g = np.where(z >= 0.0, e, 1.0) / (1.0 + e)
    far = z > _ASYMPTOTIC_MARGIN
    # log(1) stands in where the value may have underflowed to 0
    logs = np.log(np.where(far, 1.0, values))
    if far.any():
        logs = np.where(far, -z - 0.5 * e, logs)
    top = float(logs.max())  # the log-sum-exp shift
    spread = math.log(float(np.exp(logs - top).sum())) if math.isfinite(top) else 0.0
    total = float(np.add.accumulate(values)[-1])
    return Logistic(LossValue(total / z.size, top + spread - math.log(z.size)), values, g)


def forward_rows(V: WeightStack, act: Activation, inputs: np.ndarray) -> ForwardTrace:
    """Forward pass over every row of `inputs` (n x p) at once."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != V.p:
        raise ShapeMismatchError(f"inputs have shape {inputs.shape}, expected (n, {V.p})")
    return _forward(act, inputs @ V.hidden[0].T, V.hidden[1:], V.outer[0])


def _forward(
    act: Activation, u: np.ndarray, above: Sequence[np.ndarray], outer: np.ndarray
) -> ForwardTrace:
    """Forward pass from the first layer's pre-activations u (n x p) through
    the hidden matrices `above` (layers 2..L) and the outer row."""
    us, xs, sigmas = [], [], []
    for W in (None, *above):
        if W is not None:
            u = xs[-1] @ W.T
        us.append(u)
        xs.append(np.asarray(act.value(u)))
        sigmas.append(np.asarray(act.deriv(u)))
    return ForwardTrace(u=tuple(us), x=tuple(xs), sigma_diag=tuple(sigmas), output=xs[-1] @ outer)


def sensitivities(V: WeightStack, trace: ForwardTrace) -> list[np.ndarray]:
    """B_l (n x p) for each hidden layer l, by reverse accumulation.

    Row i of B_l is the sensitivity of output i to the layer-l
    pre-activations, so the layer-l block of that output's gradient is the
    outer product B_l[i] x_{l-1}[i]^T.
    """
    return _sensitivities(trace, V.hidden[1:], V.outer[0])


def _sensitivities(
    trace: ForwardTrace, above: Sequence[np.ndarray], outer: np.ndarray
) -> list[np.ndarray]:
    L = len(trace.sigma_diag)
    bs: list[np.ndarray] = [np.empty(0)] * L
    b = trace.sigma_diag[L - 1] * outer
    for layer in range(L - 1, -1, -1):
        bs[layer] = b
        if layer > 0:
            b = trace.sigma_diag[layer - 1] * (b @ above[layer - 1])
    return bs


def output_gradients(V: WeightStack, act: Activation, inputs: np.ndarray) -> list[WeightStack]:
    """Gradient of the network output f (not the loss) at each input row:
    hidden blocks B_l[i] x_{l-1}[i]^T and the outer block x_L[i]."""
    inputs = np.asarray(inputs, dtype=np.float64)
    trace = forward_rows(V, act, inputs)
    below = (inputs, *trace.x[:-1])
    bs = sensitivities(V, trace)
    return [
        WeightStack.from_layers(
            [np.outer(b[i], x[i]) for b, x in zip(bs, below)] + [trace.x[-1][i : i + 1]]
        )
        for i in range(inputs.shape[0])
    ]


def _one_row(V: WeightStack, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (V.p,):
        raise ShapeMismatchError(f"input has shape {x.shape}, expected ({V.p},)")
    return x[None, :]


def forward(V: WeightStack, act: Activation, x: np.ndarray) -> ForwardTrace:
    """Forward pass at one input: `forward_rows` on a single row."""
    trace = forward_rows(V, act, _one_row(V, x))
    return ForwardTrace(
        u=tuple(u[0] for u in trace.u),
        x=tuple(v[0] for v in trace.x),
        sigma_diag=tuple(s[0] for s in trace.sigma_diag),
        output=float(trace.output[0]),
    )


def output_gradient(V: WeightStack, act: Activation, x: np.ndarray) -> WeightStack:
    """Gradient of the network output f (not the loss) at one input."""
    return output_gradients(V, act, _one_row(V, x))[0]


def margins(V: WeightStack, act: Activation, data: Dataset) -> np.ndarray:
    """y_i f(x_i) for every sample."""
    return data.labels * forward_rows(V, act, data.inputs).output


def total_loss(V: WeightStack, act: Activation, data: Dataset) -> LossValue:
    return logistic(margins(V, act, data)).loss


def gradient(V: WeightStack, act: Activation, data: Dataset) -> WeightStack:
    """Exact loss gradient."""
    return loss_and_gradient(V, act, data)[1]


def _combine_features(
    coefs: Sequence[np.ndarray],
    bs: Sequence[np.ndarray],
    below: Sequence[np.ndarray],
    top: np.ndarray,
) -> WeightStack:
    """sum_i c_{l,i} F_{l,i} in every layer l, for per-sample coefficient
    vectors c_l (L+1 of them) and the tangent features F_{l,i} of one pass:
    (c_l * B_l)^T X_{l-1} for hidden layer l, c_L^T X_L for the outer row.
    Each product is written by its GEMM straight into the stack's flat
    vector, which is adopted unchecked (see `WeightStack._computed`)."""
    L, p = len(bs), top.shape[1]
    square = p * p
    flat = np.empty(L * square + p)
    for layer, (c, b, x) in enumerate(zip(coefs, bs, below)):
        block = flat[layer * square : (layer + 1) * square].reshape(p, p)
        np.matmul((c[:, None] * b).T, x, out=block)
    np.matmul(coefs[L], top, out=flat[L * square :])
    return WeightStack._computed(flat, p, L)


class RowSpacePoint(NamedTuple):
    """A network known through its first layer's pre-activations at the
    inputs, u1 = X W_1^T (n x p), and `tail`, the stack of layers 2..L and
    the outer row (depth L - 1: only the outer row at L = 1)."""

    u1: np.ndarray
    tail: WeightStack


def loss_and_gradient(
    V: WeightStack | RowSpacePoint, act: Activation, data: Dataset
) -> tuple[LossValue, WeightStack | tuple[np.ndarray, WeightStack]]:
    """Mean loss and its exact gradient from one batched pass.

    With c_i = -y_i g(z_i) / n, the layer-l block is (c * B_l)^T X_{l-1}
    and the outer block is c^T X_L. The loss equals `total_loss` exactly.
    At a `RowSpacePoint` the gradient is (C, tail gradient): the first block
    stays in the coordinates of the inputs, C^T X with C = c * B_1 (n x p),
    and the rest is a stack shaped like the point's tail.
    """
    point = isinstance(V, RowSpacePoint)
    above, outer = (V.tail.hidden, V.tail.outer[0]) if point else (V.hidden[1:], V.outer[0])
    trace = _forward(act, V.u1, above, outer) if point else forward_rows(V, act, data.inputs)
    terms = logistic(data.labels * trace.output)
    c = -data.labels * terms.g / data.n
    bs = _sensitivities(trace, above, outer)
    below = (data.inputs, *trace.x[:-1])
    if point:
        tail = _combine_features([c] * len(bs), bs[1:], below[1:], trace.x[-1])
        return terms.loss, (c[:, None] * bs[0], tail)
    return terms.loss, _combine_features([c] * (len(bs) + 1), bs, below, trace.x[-1])
