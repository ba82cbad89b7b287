"""A 60-digit reference for the step kernel, in stdlib `decimal`.

Every float is a dyadic rational, and `Decimal(float)` reads it without
rounding; from there each operation rounds at `DIGITS` significant digits,
and decimal's exponent range holds values far below the float range. The
Huberized ReLU is piecewise polynomial, so its forward pass, sensitivities
and gradient carry only decimal's own rounding; the loss takes `exp`,
`ln` and, for small e, a series for log(1 + e), where 1 + e would lose
e's digits. So the reference is exact to far below the 1e-12 that tests
ask of the float columns. A row at p = 8, L = 6, n = 24 costs a few tens
of thousands of decimal operations.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from typing import NamedTuple

import numpy as np

DIGITS = 60


def exact(a) -> np.ndarray:
    """A float array (or float) as an object array of Decimals, read exactly."""
    a = np.asarray(a, dtype=np.float64)
    return np.array([Decimal(v) for v in a.ravel().tolist()], dtype=object).reshape(a.shape)


def _huberized(u: np.ndarray, h: Decimal) -> tuple[np.ndarray, np.ndarray]:
    """Value and derivative of the Huberized ReLU of width h, entrywise."""
    zero = Decimal(0)
    value = np.array([zero if v <= 0 else v * v / (2 * h) if v <= h else v - h / 2 for v in u.ravel()], dtype=object)
    deriv = np.array([zero if v <= 0 else v / h if v <= h else Decimal(1) for v in u.ravel()], dtype=object)
    return value.reshape(u.shape), deriv.reshape(u.shape)


def _log1p(e: Decimal) -> Decimal:
    """log(1 + e) for e >= 0; by its series below 1e-3, where 1 + e loses e's digits."""
    if e >= Decimal("1e-3"):
        return (1 + e).ln()
    total, term, j = Decimal(0), e, 1
    while term != 0 and abs(term) > abs(total) * Decimal(10) ** -(DIGITS + 5):
        total += term / j
        term, j = -term * e, j + 1
    return total


class Reference(NamedTuple):
    loss: Decimal  # J, the mean of log(1 + e^-z)
    log_loss: Decimal  # log J
    grad_norm: Decimal  # ||grad J||, layer 1 in parameter space


def kernel(inputs, labels, u1, tail, h: float) -> Reference:
    """J, log J and ||grad J|| at the point (u1, tail) of `network.loss_and_gradient`:
    first-layer pre-activations u1 = X W_1^T (n x p) at the rows of `inputs`
    and the stack `tail` of layers 2..L and the outer row."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        X, y, h = exact(inputs), exact(labels), Decimal(h)
        above = [exact(W) for W in tail.hidden]
        outer = exact(tail.outer[0])
        u, xs, sigmas = exact(u1), [X], []
        for W in (None, *above):
            if W is not None:
                u = xs[-1] @ W.T
            x, sigma = _huberized(u, h)
            xs.append(x)
            sigmas.append(sigma)
        z = y * (xs[-1] @ outer)
        n = len(z)
        losses, weights = [], []
        for zi in z:  # log(1 + e^-z) and g = 1 / (1 + e^z), by e = e^-|z| <= 1
            e = (-abs(zi)).exp()
            losses.append(_log1p(e) if zi >= 0 else _log1p(e) - zi)
            weights.append(e / (1 + e) if zi >= 0 else 1 / (1 + e))
        J = sum(losses) / n
        c = -y * np.array(weights, dtype=object) / n
        b = sigmas[-1] * outer  # sensitivities of the outputs, from layer L down
        sq = sum(v * v for v in (c @ xs[-1]))
        for layer in range(len(sigmas) - 1, -1, -1):
            block = (c[:, None] * b).T @ xs[layer]
            sq += sum(v * v for v in block.ravel())
            if layer > 0:
                b = sigmas[layer - 1] * (b @ above[layer - 1])
        return Reference(J, J.ln(), sq.sqrt())


def descent_decrease(alpha: float, grad_norm: Decimal, L: int) -> Decimal:
    """(L/(L+1/2)) alpha ||g||^2, the decrease `descent` predicts."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return Decimal(L) / (Decimal(L) + Decimal("0.5")) * Decimal(alpha) * grad_norm * grad_norm
