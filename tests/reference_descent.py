"""Parameter-space reference for the descent loop.

This is the loop `ntk.run_phase` ran before it held the first hidden layer
in coordinates of the inputs: every step evaluates `loss_and_gradient` at
the whole stack and makes one `linalg.descent_sweep` over all L+1 layers.
Its columns equal `frobenius_norm(grad)`, `frobenius_norm(cur)`,
`stack_dot(grad, cur)` and `max_layer_distance(cur, anchor)` bit for bit,
and its iterates equal repeated `stack_axpy(cur, -alpha, grad)`. Tests
compare `run_phase` against it at a stated tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from boundbench.bounds import PhaseTrace
from boundbench.linalg import WeightStack, _require_finite, _stack_sum, descent_sweep
from boundbench.network import Dataset, loss_and_gradient
from boundbench.ntk import NumericalDivergenceError


def descent(
    V: WeightStack,
    act,
    data: Dataset,
    alpha: float,
    max_steps: int,
    stop_loss: float | None = None,
    loss_floor: float = 0.0,
    anchor: WeightStack | None = None,
) -> tuple[PhaseTrace, WeightStack, WeightStack]:
    """Constant-step GD from V with drift measured from `anchor` (default V);
    returns the columns, the argmin iterate and the iterate after the last
    step taken."""
    anchor = anchor if anchor is not None else V
    columns = np.empty((6, max_steps))
    best_step, best_stack = 0, None
    cur, cur_sq, steps = V, _stack_sum(V.flat, V.flat), 0
    for t in range(1, max_steps + 1):
        loss, grad = loss_and_gradient(cur, act, data)
        sweep = descent_sweep(cur, grad, anchor, alpha)
        grad_norm = math.sqrt(sweep.grad_sq)
        if not (math.isfinite(loss.value) and math.isfinite(grad_norm)):
            raise NumericalDivergenceError(t)
        columns[:, t - 1] = (
            loss.value,
            loss.log_value,
            grad_norm,
            math.sqrt(cur_sq),
            sweep.grad_dot,
            max(math.sqrt(s) for s in sweep.layer_drift_sq),
        )
        steps = t
        if best_step == 0 or loss.value < columns[0, best_step - 1]:
            best_step, best_stack = t, cur
        if stop_loss is not None and loss.value <= stop_loss:
            break
        if loss.value <= loss_floor:
            break
        _require_finite(sweep.next_flat, cur.p, sweep.next_sq)
        cur, cur_sq = WeightStack._computed(sweep.next_flat, cur.p, cur.depth), sweep.next_sq
    return PhaseTrace(*columns[:, :steps].copy(), best_step=best_step), best_stack, cur
