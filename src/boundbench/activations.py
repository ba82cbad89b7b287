"""Smoothed-ReLU activations and a sampling certifier for their defining
properties.

Both activations are parameterized by a smoothing width h > 0 and satisfy,
up to certification tolerance: value(0) = 0, |deriv| <= 1, deriv is
(1/h)-Lipschitz, and |deriv(z)*z - value(z)| <= h/2. Exact ReLU (h = 0)
is rejected at construction. `value` and `deriv` map NaN to NaN.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

# exp overflow boundary for 64-bit floats; beyond it the gate saturates
_EXP_CUTOFF = 700.0
_SWISH_SCALE = 1.1


class ActivationKind(enum.Enum):
    HUBERIZED_RELU = "huberized"
    SCALED_SWISH = "swish"


@dataclass(frozen=True)
class Activation:
    kind: ActivationKind
    h: float

    def __post_init__(self):
        if not isinstance(self.kind, ActivationKind):
            raise ValueError(f"activation kind must be an ActivationKind, got {self.kind!r}")
        if not (self.h > 0.0 and np.isfinite(self.h)):
            raise ValueError(f"smoothing width must be a positive finite number, got {self.h}")

    def value(self, z):
        """Activation applied entrywise; accepts scalars or arrays."""
        z = np.asarray(z, dtype=np.float64)
        if self.kind is ActivationKind.HUBERIZED_RELU:
            out = _huberized_value(z, self.h)
        else:
            out = _swish_value(z, self.h)
        return out if out.ndim else float(out)

    def deriv(self, z):
        """First derivative, entrywise; overflow-safe for large |z|/h."""
        z = np.asarray(z, dtype=np.float64)
        if self.kind is ActivationKind.HUBERIZED_RELU:
            out = _huberized_deriv(z, self.h)
        else:
            out = _swish_deriv(z, self.h)
        return out if out.ndim else float(out)


def huberized(h: float) -> Activation:
    return Activation(ActivationKind.HUBERIZED_RELU, h)


def swish(h: float) -> Activation:
    return Activation(ActivationKind.SCALED_SWISH, h)


def _huberized_value(z: np.ndarray, h: float) -> np.ndarray:
    quad = z.clip(0.0, h)  # squared below h only: no square overflows
    quad *= quad
    quad /= 2.0 * h
    return np.where(z > h, z - h / 2.0, quad)


def _huberized_deriv(z: np.ndarray, h: float) -> np.ndarray:
    return z.clip(0.0, h) / h


def _stable_sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _swish_value(z: np.ndarray, h: float) -> np.ndarray:
    t = 2.0 * z / h
    out = np.empty_like(z)
    lo = t < -_EXP_CUTOFF
    hi = t > _EXP_CUTOFF
    mid = ~(lo | hi)
    out[lo] = 0.0
    out[hi] = z[hi] / _SWISH_SCALE
    out[mid] = z[mid] * _stable_sigmoid(t[mid]) / _SWISH_SCALE
    return out


def _swish_deriv(z: np.ndarray, h: float) -> np.ndarray:
    t = 2.0 * z / h
    out = np.empty_like(z)
    lo = t < -_EXP_CUTOFF
    hi = t > _EXP_CUTOFF
    mid = ~(lo | hi)
    out[lo] = 0.0
    out[hi] = 1.0 / _SWISH_SCALE
    s = _stable_sigmoid(t[mid])
    out[mid] = s * (1.0 + t[mid] * (1.0 - s)) / _SWISH_SCALE
    return out


@dataclass(frozen=True)
class SmoothnessReport:
    """Worst cases found when sampling the four defining properties."""

    max_abs_deriv: float
    max_lipschitz_quotient: float  # compared against 1/h
    max_taylor_gap: float  # compared against h/2
    pass_: bool
    samples_used: int


def default_certification_grid(h: float) -> np.ndarray:
    """Uniform 10,000-point grid on [-10h, 10h] plus geometric tail points
    out to 1e6*h."""
    core = np.linspace(-10.0 * h, 10.0 * h, 10_000)
    tail = h * np.array([20.0, 50.0, 100.0, 1e3, 1e4, 1e6])
    return np.unique(np.concatenate([core, -tail, tail]))


# a bound on the relative rounding error of one evaluation of `value` or
# `deriv`, and of each product or difference formed from them below: each is
# a handful of correctly rounded operations and at most one libm exp
_ROUNDING = 16.0 * float(np.finfo(np.float64).eps)


def certify_h_smooth(act: Activation) -> SmoothnessReport:
    """Test the defining properties on `default_certification_grid` and
    report worst cases.

    The Lipschitz property is measured as a difference quotient of the
    derivative on adjacent grid points: the Huberized derivative is
    piecewise linear, so a second derivative does not exist at the kinks
    while chord slopes are still bounded by 1/h.

    Each property is compared at its own scale, with room only for the
    rounding of the values it is computed from (`_ROUNDING` relative to each
    of them): |deriv| <= 1, |deriv(b) - deriv(a)| <= (b - a)/h for adjacent
    grid points a < b, and |deriv(z) z - value(z)| <= h/2. So the test is as
    strict at h = 1e-12 as at h = 1, and the constants are never adjusted to
    force a pass.
    """
    grid = default_certification_grid(act.h)
    vals = np.asarray(act.value(grid))
    derivs = np.asarray(act.deriv(grid))
    value_at_zero_ok = float(act.value(0.0)) == 0.0
    max_abs_deriv = float(np.max(np.abs(derivs)))
    dz = np.diff(grid)
    steps = np.abs(np.diff(derivs))
    max_lip = float(np.max(steps / dz))
    size = np.abs(derivs)
    lip_ok = bool(np.all(steps <= dz / act.h * (1.0 + _ROUNDING) + _ROUNDING * (size[1:] + size[:-1])))
    slope = derivs * grid
    gaps = np.abs(slope - vals)
    gap_ok = bool(np.all(gaps <= act.h / 2.0 * (1.0 + _ROUNDING) + _ROUNDING * (np.abs(slope) + np.abs(vals))))
    ok = value_at_zero_ok and max_abs_deriv <= 1.0 + _ROUNDING and lip_ok and gap_ok
    return SmoothnessReport(
        max_abs_deriv=max_abs_deriv,
        max_lipschitz_quotient=max_lip,
        max_taylor_gap=float(np.max(gaps)),
        pass_=bool(ok),
        samples_used=int(grid.size),
    )
