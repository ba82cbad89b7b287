"""A 60-digit reference for the step kernel, in stdlib `decimal`.

Every float is a dyadic rational, and `Decimal(float)` reads it without
rounding; from there each operation rounds at `DIGITS` significant digits,
and decimal's exponent range holds values far below the float range. The
Huberized ReLU is piecewise polynomial, so its forward pass, sensitivities
and gradient carry only decimal's own rounding; the loss takes `exp`,
`ln` and, for small e, a series for log(1 + e), where 1 + e would lose
e's digits. So the reference is exact to far below the 1e-12 that tests
ask of the float columns. `kernel` forms the columns of one row: J, log J,
||grad J|| and ||V_t||; `monitor` forms the bounds and slacks from them. A
row at p = 8, L = 6, n = 24 costs a few tens of thousands of decimal
operations.
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
    weight_norm: Decimal  # ||V_t||


class Anchor(NamedTuple):
    """What a phase's first layer W_1 = V_1 + A^T X needs of V_1 and X."""

    sq: Decimal  # ||V_1||^2
    u0: np.ndarray  # X V_1^T
    gram: np.ndarray  # X X^T


def anchor(inputs, V1) -> Anchor:
    """The `Anchor` of a phase run from the stack V1 on the rows of `inputs`."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        X, W = exact(inputs), exact(V1.hidden[0])
        return Anchor(sum(v * v for v in W.ravel()), X @ W.T, X @ X.T)


def kernel(inputs, labels, u1, tail, h: float, first: Anchor, coef) -> Reference:
    """J, log J, ||grad J|| and ||V_t|| at the point (u1, tail) of
    `network.loss_and_gradient`: first-layer pre-activations u1 = X W_1^T
    (n x p) at the rows of `inputs` and the stack `tail` of layers 2..L and
    the outer row. The first layer is W_1 = V_1 + A^T X for the
    coefficients A = `coef` of `ntk.run_phase`, so
    ||W_1||^2 = ||V_1||^2 + 2 <X V_1^T, A> + <X X^T, A A^T>."""
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
        A = exact(coef)
        weight_sq = first.sq + 2 * sum((first.u0 * A).ravel()) + sum((first.gram * (A @ A.T)).ravel())
        weight_sq += sum(v * v for v in exact(tail.flat))
        return Reference(J, J.ln(), sq.sqrt(), weight_sq.sqrt())


def descent_decrease(alpha: float, grad_norm: Decimal, L: int) -> Decimal:
    """(L/(L+1/2)) alpha ||g||^2, the decrease `descent` predicts."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return Decimal(L) / (Decimal(L) + Decimal("0.5")) * Decimal(alpha) * grad_norm * grad_norm


def monitor(rows: list[Reference], alpha: float, p: int, L: int) -> dict[str, list]:
    """The bounds and slacks `bounds.monitor_transition` forms, at each row of
    one phase, its constants J_1 and ||V_1|| read from the first row:

    - lower (L+3/4) J log(1/J) / ||V||, upper sqrt((L+1) p) ||V||^(L+1) min(J, 1)
      and rate J_1 / (q (t-1) + 1), q = L (L+3/4)^2 alpha J_1 log^(2/L)(1/J_1)
      / ((L+1/2) ||V_1||^2);
    - the slacks of i1, log of the rate bound minus log J; of i2,
      (log(1/J)/||V||^L - m_1)/m_1 with m_1 = log(1/J_1)/||V_1||^L; of lower
      and upper, the margin relative to the bound; and of descent,
      (J_t - J_{t+1})/J_t - decrease_t/J_t, None on the last row.

    The bounds on the small-loss analysis need J_1 < 1; on a phase that
    starts above it the rate and its slacks are None."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        L_, half = Decimal(L), Decimal("0.5")
        J1, V1 = rows[0].loss, rows[0].weight_norm
        small = J1 < 1
        if small:
            q = L_ * (L_ + Decimal("0.75")) ** 2 * Decimal(alpha) * J1 * (-J1.ln()) ** (2 / L_)
            q /= (L_ + half) * V1 * V1
            m1 = -J1.ln() / V1**L
        keys = ("lower", "upper", "rate", "i1", "i2", "lower slack", "upper slack", "descent")
        out: dict[str, list] = {key: [] for key in keys}
        for t, (J, log_J, g, V) in enumerate(rows, start=1):
            lower = (L_ + Decimal("0.75")) * J * -log_J / V
            upper = Decimal((L + 1) * p).sqrt() * V ** (L + 1) * min(J, Decimal(1))
            out["lower"].append(lower)
            out["upper"].append(upper)
            out["lower slack"].append((g - lower) / lower)
            out["upper slack"].append((upper - g) / upper)
            out["rate"].append(J1 / (q * (t - 1) + 1) if small else None)
            out["i1"].append(J1.ln() - log_J - _log1p(q * (t - 1)) if small else None)
            out["i2"].append((-log_J / V**L - m1) / m1 if small else None)
        # the drop and the predicted decrease apart, as the i1 slack's log drop
        # and rate: neither absorbs the other where the iterate barely moves
        for now, after in zip(rows, rows[1:]):
            drop = (now.loss - after.loss) / now.loss
            out["descent"].append(drop - descent_decrease(alpha, now.grad_norm, L) / now.loss)
        out["descent"].append(None)
        return out
