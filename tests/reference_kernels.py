"""Earlier forms of some kernels, kept as references.

`logistic` is the loss kernel as `network.logistic` computed it before it
was rewritten with fewer numpy calls; the rewrite must return the same
bits. `huberized_value` and `huberized_deriv` are the Huberized ReLU and
its derivative as `activations` computed them before they were rewritten
from one clip of the input; the rewrite must return the same bits on every
input but NaN (these map a NaN to NaN and 1.0, and warn of an overflow in
a branch they discard). `stable_sigmoid`, `swish_value` and `swish_deriv`
are the logistic function and Swish as `activations` formed them with
boolean-index masks, and `dual_sigmoid` is sigma(z) as the tangent-ball
dual formed it, before `activations.sigmoid` served all three; the one
form must return the same bits. `nt_minimize_old_rule` is the tangent-ball
minimiser as `ntk.nt_class_minimize` ran it before it solved the
problem's dual by Newton's method with a certified stop: projected
descent with step halving on per-layer Grams and coefficient lists, norms
from c^T K c, every one of `steps` steps taken. A long run of it
approaches the minimum from above, so the certified value must come
within its gap of that run. `sigma_difference_sparsity` and
`perturb_hidden_operator` are the sigma-sparsity probe as `ntk` ran it
before it streamed its perturbed layers through the forward pass: each
perturbed network formed as a whole stack, then passed by `forward_rows`.
The probe returns its report and both passes' derivative diagonals, which
the streamed probe must match bit for bit. Tests compare against all of
them.
"""

from __future__ import annotations

import math

import numpy as np

from boundbench.linalg import WeightStack, operator_norm
from boundbench.network import _ASYMPTOTIC_MARGIN, Logistic, LossValue, forward_rows
from boundbench.ntk import _Tangent
from stack_helpers import from_layers


def logistic(z: np.ndarray) -> Logistic:
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


def huberized_value(z: np.ndarray, h: float) -> np.ndarray:
    return np.where(z < 0.0, 0.0, np.where(z <= h, z * z / (2.0 * h), z - h / 2.0))


def huberized_deriv(z: np.ndarray, h: float) -> np.ndarray:
    return np.where(z < 0.0, 0.0, np.where(z <= h, z / h, 1.0))


def stable_sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def swish_value(z: np.ndarray, h: float) -> np.ndarray:
    t = 2.0 * z / h
    out = np.empty_like(z)
    lo, hi = t < -700.0, t > 700.0
    mid = ~(lo | hi)
    out[lo] = 0.0
    out[hi] = z[hi] / 1.1
    out[mid] = z[mid] * stable_sigmoid(t[mid]) / 1.1
    return out


def swish_deriv(z: np.ndarray, h: float) -> np.ndarray:
    t = 2.0 * z / h
    out = np.empty_like(z)
    lo, hi = t < -700.0, t > 700.0
    mid = ~(lo | hi)
    out[lo] = 0.0
    out[hi] = 1.0 / 1.1
    s = stable_sigmoid(t[mid])
    out[mid] = s * (1.0 + t[mid] * (1.0 - s)) / 1.1
    return out


def dual_sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0, e) / (1.0 + e)


def nt_minimize_old_rule(V1, act, data, rho: float, steps: int) -> float:
    """The tangent-ball minimum by the old rule: projected descent with step
    halving in kernel coordinates for all `steps` steps (or until no halving
    is accepted). Returns the loss."""
    tangent = _Tangent.at(V1, act, data)
    grams = tangent.grams()
    ys = data.labels
    coef = [np.zeros(data.n) for _ in grams]

    def margins(cs):
        return ys * (tangent.output + sum(k @ c for k, c in zip(grams, cs)))

    def project(cs):
        clipped = []
        for k, c in zip(grams, cs):
            norm = math.sqrt(max(float(c @ k @ c), 0.0))
            clipped.append(c if norm <= rho else c * (rho / norm))
        return clipped

    feat_sq = sum(float(np.trace(k)) for k in grams) / data.n
    step = 4.0 / max(feat_sq, 1e-12)
    terms = logistic(margins(coef))
    for _ in range(steps):
        g = -ys * terms.g / data.n
        cand = project([c - step * g for c in coef])
        cand_terms = logistic(margins(cand))
        halvings = 0
        while cand_terms.loss.value > terms.loss.value and halvings < 40:
            step *= 0.5
            halvings += 1
            cand = project([c - step * g for c in coef])
            cand_terms = logistic(margins(cand))
        if cand_terms.loss.value > terms.loss.value:
            break
        coef, terms = cand, cand_terms
        if halvings == 0:
            step *= 1.25
    return terms.loss.value


def sigma_difference_sparsity(V1, act, data, tau: float, seed: int = 0) -> tuple[dict, tuple, tuple]:
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")
    rng = np.random.default_rng(seed)
    v_til = perturb_hidden_operator(V1, tau, rng)
    v_hat = perturb_hidden_operator(V1, tau, rng)
    L = V1.depth
    sig_a = forward_rows(v_til, act, data.inputs).sigma_diag
    sig_b = forward_rows(v_hat, act, data.inputs).sigma_diag
    counts = np.stack([np.count_nonzero(a != b, axis=1) for a, b in zip(sig_a, sig_b)])
    trend = V1.p * L**2 * tau ** (2.0 / 3.0)
    report = {
        "max_count": int(counts.max()),
        "mean_count": float(counts.mean()),
        "trend_p_L2_tau23": trend,
        "tau": tau,
    }
    return report, sig_a, sig_b


def perturb_hidden_operator(V: WeightStack, tau: float, rng: np.random.Generator) -> WeightStack:
    out = []
    for m in V.hidden:
        g = rng.standard_normal(m.shape)
        # the upper end keeps the perturbation's operator norm at most tau
        scale = tau / operator_norm(g).upper if tau > 0 else 0.0
        out.append(m + scale * g)
    out.append(np.array(V.outer))
    return from_layers(out)
