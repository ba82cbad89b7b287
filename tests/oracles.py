"""Brute-force oracles used in tests: central-difference gradients,
entrywise comparison reports and the mask of entries near a kink of the
Huberized activation.

These deliberately avoid the reverse-accumulation path in `network` so
agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from boundbench.activations import Activation, ActivationKind
from boundbench.linalg import ShapeMismatchError, WeightStack
from boundbench.network import Dataset, forward_rows, total_loss


@dataclass(frozen=True)
class FdConfig:
    step: float = 1e-5

    def __post_init__(self):
        if not (1e-8 <= self.step <= 1e-3):
            raise ValueError(f"step {self.step} outside [1e-8, 1e-3]")


@dataclass(frozen=True)
class FdCompareReport:
    max_rel_error: float
    worst_layer: int
    worst_row: int
    worst_col: int


def fd_gradient(
    V: WeightStack, act: Activation, data: Dataset, cfg: FdConfig = FdConfig()
) -> WeightStack:
    """Entrywise (J(V+eps*e) - J(V-eps*e)) / (2*eps)."""
    eps = cfg.step
    layers = [np.array(m) for m in V.layers()]
    out: list[np.ndarray] = []
    for li, m in enumerate(layers):
        g = np.zeros_like(m)
        for idx in np.ndindex(m.shape):
            orig = m[idx]
            m[idx] = orig + eps
            plus = total_loss(WeightStack.from_layers(layers), act, data).value
            m[idx] = orig - eps
            minus = total_loss(WeightStack.from_layers(layers), act, data).value
            m[idx] = orig
            g[idx] = (plus - minus) / (2.0 * eps)
        out.append(g)
    return WeightStack.from_layers(out)


def fd_compare(a: WeightStack, b: WeightStack, abs_floor: float = 1e-4) -> FdCompareReport:
    """Max entrywise relative error with an absolute floor, and where it is.

    Central differences of an O(1) loss carry rounding noise of about
    eps_machine * J / (2 step) ~ 4e-12 in absolute terms, so entries below
    the floor are effectively compared absolutely; the default floor keeps
    that noise three orders below a 1e-6 relative verdict.
    """
    if (a.depth, a.p) != (b.depth, b.p):
        raise ShapeMismatchError("stacks to compare must share a shape")
    worst = (0.0, 0, 0, 0)
    for li, (ma, mb) in enumerate(zip(a.layers(), b.layers())):
        denom = np.maximum(np.maximum(np.abs(ma), np.abs(mb)), abs_floor)
        err = np.abs(ma - mb) / denom
        flat = int(np.argmax(err))
        r, c = np.unravel_index(flat, err.shape)
        if err[r, c] > worst[0]:
            worst = (float(err[r, c]), li, int(r), int(c))
    return FdCompareReport(
        max_rel_error=worst[0], worst_layer=worst[1], worst_row=worst[2], worst_col=worst[3]
    )


def kink_exclusions(
    V: WeightStack, act: Activation, data: Dataset, step: float
) -> tuple[list[np.ndarray], int]:
    """Mask of parameter entries whose perturbation can cross a derivative
    kink of the Huberized activation.

    An entry of layer l is flagged when any pre-activation coordinate at
    layer l or deeper sits within 10*step of 0 or of h, for any sample.
    Central differences of the loss remain valid across these points (the
    activation stays C^1), so the mask gates only curvature-style probes;
    plain gradient checks ignore it.
    """
    L = V.depth
    masks = [np.zeros(m.shape, dtype=bool) for m in V.layers()]
    if act.kind is not ActivationKind.HUBERIZED_RELU:
        return masks, 0
    margin = 10.0 * step
    trace = forward_rows(V, act, data.inputs)
    layer_near_kink = np.array(
        [np.any(np.minimum(np.abs(u), np.abs(u - act.h)) < margin) for u in trace.u]
    )
    for li in range(L):
        if layer_near_kink[li:].any():
            masks[li][:] = True
    # the outer layer enters f linearly; it never crosses a kink
    excluded = int(sum(int(m.sum()) for m in masks))
    return masks, excluded
