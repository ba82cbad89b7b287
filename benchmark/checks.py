"""Independent verification of boundbench outputs.

Nothing here imports boundbench. Every check recomputes what it compares
from the program's artifacts and the benchmark's own inputs with plain
numpy and the standard library, using the closed forms and definitions the
README states. Comparisons allow 1e-12 relative, which is rounding. A
one-sided estimate (a power-iteration Rayleigh quotient, a sampled
remainder) is only compared in the direction it is guaranteed to sit on.

Each check yields a `Check`: its name, whether it passed, and its slack,
the relative margin by which it held (negative when it failed, None for
exact comparisons such as exit status or byte equality).
"""

from __future__ import annotations

import csv
import io
import math
from typing import NamedTuple, Sequence

import numpy as np

REL_TOL = 1e-12
OPERATOR_LIMIT = 3.5
NORM_RANGE = (0.9, 1.1)
OUTER_RANGE = (0.85, 1.2)


class Check(NamedTuple):
    name: str
    ok: bool
    slack: float | None


def _exact(name: str, ok: bool) -> Check:
    return Check(name, bool(ok), None)


def _at_least(name: str, slack: float) -> Check:
    """An inequality whose relative slack must not fall below -REL_TOL."""
    return Check(name, bool(slack >= -REL_TOL), float(slack))


def _match(name: str, got: float, want: float) -> Check:
    """Equality to rounding: slack is minus the relative deviation."""
    dev = abs(got - want) / max(abs(want), 1e-300)
    return Check(name, bool(dev <= REL_TOL), -float(dev))


# ---------------------------------------------------------------------------
# definitions restated from the README, independent of the program


def huberized_value(u: np.ndarray, h: float) -> np.ndarray:
    return np.where(u < 0.0, 0.0, np.where(u <= h, u * u / (2.0 * h), u - h / 2.0))


def huberized_deriv(u: np.ndarray, h: float) -> np.ndarray:
    return np.where(u < 0.0, 0.0, np.where(u <= h, u / h, 1.0))


def logistic_loss(margins: np.ndarray) -> float:
    """Mean of log(1 + exp(-z)) over the margins."""
    return float(np.mean(np.logaddexp(0.0, -np.asarray(margins, dtype=np.float64))))


def gaussian_weights(p: int, L: int, seed: int) -> list[np.ndarray]:
    """The documented initialization: hidden N(0, 2/p) then outer N(0, 1),
    drawn in that order from one seeded generator."""
    rng = np.random.default_rng(seed)
    std = math.sqrt(2.0 / p)
    layers = [rng.normal(0.0, std, size=(p, p)) for _ in range(L)]
    layers.append(rng.normal(0.0, 1.0, size=(1, p)))
    return layers


def forward_batch(layers: Sequence[np.ndarray], X: np.ndarray, h: float) -> list[np.ndarray]:
    """Post-activations of every hidden layer for all rows of X (n x p)."""
    out, cur = [], X
    for W in layers[:-1]:
        cur = huberized_value(cur @ W.T, h)
        out.append(cur)
    return out


def read_trajectory(text: str) -> dict[str, np.ndarray]:
    """Numeric columns of a trajectory CSV, keyed by header name."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    cols = {}
    for name in ("J", "phase"):
        k = header.index(name)
        cols[name] = np.array([float(r[k]) for r in body])
    return cols


# ---------------------------------------------------------------------------
# theorem32 and the tangent class


def tangent_features(layers: Sequence[np.ndarray], X: np.ndarray, h: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gradient of the L=1 network output at each input:
    hidden block (v * sigma'(W x)) x^T, outer block sigma(W x)."""
    W, v = layers[0], layers[1][0]
    out = []
    for x in X:
        u = W @ x
        out.append((np.outer(v * huberized_deriv(u, h), x), huberized_value(u, h)[None, :]))
    return out


def tangent_objective(
    layers: Sequence[np.ndarray],
    feats: Sequence[tuple[np.ndarray, np.ndarray]],
    X: np.ndarray,
    y: np.ndarray,
    h: float,
    point: Sequence[np.ndarray],
) -> float:
    """Logistic loss of the linearized model at `point`:
    f(x) + <feature(x), point - V1>."""
    f0 = forward_batch(layers, X, h)[-1] @ layers[-1][0]
    offsets = [np.asarray(m) - l for m, l in zip(point, layers)]
    lin = np.array([sum(float(np.vdot(fb, o)) for fb, o in zip(f, offsets)) for f in feats])
    return logistic_loss(y * (f0 + lin))


def verify_theorem32(
    X: np.ndarray,
    y: np.ndarray,
    init_seed: int,
    status: int,
    summary: dict,
    csv_text: str,
    features: Sequence[Sequence[np.ndarray]],
    ball_results: Sequence[tuple[float, Sequence[np.ndarray], float]],
    app_zero: float,
    eps_app: float,
    tau: float,
) -> list[Check]:
    """`ball_results` holds (rho, v_star layers, eps_nt) for the rho grid in
    increasing order followed by the tau/3 ball used in the average-loss
    inequality."""
    net = summary["config"]["network"]
    p, L = net["p"], net["L"]
    plan = summary["plan"]
    h, alpha = plan["h_nt"], plan["alpha_nt"]
    layers = gaussian_weights(p, L, init_seed)
    ref = tangent_features(layers, X, h)
    checks = [_exact("t32.exit_status", status == 0)]

    dev = max(
        float(np.linalg.norm(np.asarray(got) - want)) / max(float(np.linalg.norm(want)), 1e-300)
        for f_got, f_ref in zip(features, ref)
        for got, want in zip(f_got, f_ref)
    )
    checks.append(Check("t32.features", bool(len(features) == len(ref) and dev <= REL_TOL), -dev))

    gamma = summary["gamma"]
    cap = min(math.sqrt(sum(float(np.vdot(b, b)) for b in f)) for f in ref) / math.sqrt(p)
    checks.append(Check("t32.gamma", bool(0.0 < gamma and gamma <= cap * (1 + REL_TOL)), (cap - gamma) / cap))

    grid = list(ball_results[:-1])
    f0 = forward_batch(layers, X, h)[-1] @ layers[-1][0]
    checks.append(_match("t32.eps_rho0", grid[0][2], logistic_loss(y * f0)))
    eps = [e for _, _, e in grid]
    rises = [(a - b) / max(abs(a), 1e-300) for a, b in zip(eps, eps[1:])]
    checks.append(_at_least("t32.eps_monotone", min(rises)))

    labels = [f"rho{rho:g}" for rho, _, _ in grid] + ["tau3"]
    for label, (rho, point, value) in zip(labels, ball_results):
        obj = tangent_objective(layers, ref, X, y, h, point)
        checks.append(_match(f"t32.objective_{label}", value, obj))
        far = max(float(np.linalg.norm(np.asarray(m) - l)) for m, l in zip(point, layers))
        room = (rho - far) / rho if rho > 0 else -far
        checks.append(Check(f"t32.ball_{label}", bool(far <= rho * (1 + REL_TOL)), room))

    checks.append(_exact("t32.app_error_tau0", app_zero == 0.0))

    cols = read_trajectory(csv_text)
    J = cols["J"][cols["phase"] == 1]
    T = len(J)
    _, v_star, eps_nt = ball_results[-1]
    dist2 = sum(float(np.vdot(l - np.asarray(m), l - np.asarray(m))) for m, l in zip(v_star, layers))
    avg = float(np.mean(J))
    if summary["phase1_max_drift"] <= tau and eps_app < 0.375:
        rhs = (dist2 + 2.0 * T * alpha * eps_nt) / (T * alpha * (1.5 - 4.0 * eps_app))
        checks.append(Check("t32.average_loss", bool(avg <= rhs), (rhs - avg) / rhs))
    else:
        checks.append(Check("t32.average_loss", False, math.nan))
    return checks


# ---------------------------------------------------------------------------
# initialization diagnostics


def verify_diagnostics(
    X: np.ndarray, init_seed: int, status: int, report: dict, p: int, L: int, h: float
) -> list[Check]:
    tag = f"diag{init_seed}"
    layers = gaussian_weights(p, L, init_seed)
    norms = np.array([np.linalg.norm(a, axis=1) for a in forward_batch(layers, X, h)])
    outer = float(np.linalg.norm(layers[-1])) / math.sqrt(p)
    truth = [math.sqrt(float(np.linalg.eigvalsh(m @ m.T)[-1])) for m in layers[:-1]]

    checks = [
        _match(f"{tag}.norm_min", report["post_activation_norm_min"], float(norms.min())),
        _match(f"{tag}.norm_max", report["post_activation_norm_max"], float(norms.max())),
        _match(f"{tag}.outer_norm", report["outer_norm_over_sqrt_p"], outer),
    ]
    # power iteration gives a Rayleigh quotient, a lower estimate of the norm
    for i, (got, want) in enumerate(zip(report["hidden_operator_norms"], truth)):
        checks.append(_at_least(f"{tag}.operator_norm{i}", (want - got) / want))
    in_range = all(v <= OPERATOR_LIMIT for v in truth)
    checks.append(_exact(f"{tag}.operator_in_range", report["operator_in_range"] == in_range))
    ok = (
        in_range
        and NORM_RANGE[0] <= norms.min()
        and norms.max() <= NORM_RANGE[1]
        and OUTER_RANGE[0] <= outer <= OUTER_RANGE[1]
    )
    checks.append(_exact(f"{tag}.exit_status", status == (0 if ok else 1)))
    return checks
