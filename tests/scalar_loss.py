"""Scalar reference for the vectorized logistic kernel, one margin at a
time through libm (`math`), plus the one-input loss helpers built on it.

Not collected by pytest; the tests import it as the oracle for
`network.logistic`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from boundbench.network import LossValue, forward

# above this margin, log1p(exp(-z)) collapses to exp(-z) at double precision
ASYMPTOTIC_MARGIN = 40.0


def from_margin(z: float) -> LossValue:
    """Stable log1p(exp(-z)) with a dedicated asymptotic log channel."""
    if z >= 0.0:
        value = math.log1p(math.exp(-z))
    else:
        value = -z + math.log1p(math.exp(z))
    if z > ASYMPTOTIC_MARGIN:
        # value == exp(-z)*(1 - exp(-z)/2 + ...); expand the log directly
        log_value = -z - 0.5 * math.exp(-z)
    else:
        log_value = math.log(value)
    return LossValue(value=value, log_value=log_value)


def mean(parts: Sequence[LossValue]) -> LossValue:
    """Arithmetic mean; value channel is a left-to-right sum."""
    if not parts:
        raise ValueError("cannot average an empty loss list")
    total = 0.0
    for part in parts:
        total += part.value
    logs = np.array([part.log_value for part in parts])
    m = float(np.max(logs))
    if math.isinf(m):
        log_mean = -math.inf
    else:
        log_mean = m + math.log(float(np.sum(np.exp(logs - m)))) - math.log(len(parts))
    return LossValue(value=total / len(parts), log_value=log_mean)


def stable_g(z: float) -> float:
    """1/(1 + exp(z)) without overflow."""
    if z >= 0.0:
        e = math.exp(-z)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(z))


def _margin(V, act, x, y) -> float:
    if y not in (-1.0, 1.0, -1, 1):
        raise ValueError(f"label must be -1 or +1, got {y}")
    return float(y) * forward(V, act, x).output


def sample_loss(V, act, x, y) -> LossValue:
    """Logistic loss of one sample."""
    return from_margin(_margin(V, act, x, y))


def g_factor(V, act, x, y) -> float:
    """Per-sample gradient weight 1/(1 + exp(y*f)); always in [0, 1]."""
    return stable_g(_margin(V, act, x, y))
