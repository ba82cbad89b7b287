"""The benchmark workloads.

Each workload has three steps:

- `prepare(seed, workdir)` generates the inputs from the seed and writes
  the configs a user would write. It is part of set-up.
- `execute(inputs)` calls the program through the entry points a user
  calls (`cli.main`, `harness.run`, and the public `ntk` functions) and
  returns the raw outputs. Only this step is timed.
- `verify(inputs, outputs)` hands the outputs to the independent checks in
  `checks.py` and returns their results. It is not timed.

The seed draws each workload's data set. Initialization seeds are fixed
per workload, because how much work the program does depends strongly on
the weights: power iteration takes 355 to 1741 steps over the three p=2048
layers of init seeds 0-5. Drawing weights from the seed would make the wall
time a property of the seed rather than of the code.

Program functions are always reached through their module
(`ntk.nt_class_minimize`, never a name bound at import), so that the
traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from boundbench import activations, cli, harness, network, ntk

import checks


def clustered_samples(p: int, n: int, r: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors within r of +mu (first ceil(n/2), label +1) or -mu."""
    mu = rng.standard_normal(p)
    mu /= np.linalg.norm(mu)
    n_pos = (n + 1) // 2
    y = np.array([1.0] * n_pos + [-1.0] * (n - n_pos))
    X = np.empty((n, p))
    for i, label in enumerate(y):
        center = label * mu
        while True:
            d = rng.standard_normal(p)
            x = center + d * (r * rng.uniform() ** (1.0 / p) / np.linalg.norm(d))
            x /= np.linalg.norm(x)
            if np.linalg.norm(x - center) <= r:
                X[i] = x
                break
    return X, y


def inline_dataset(X: np.ndarray, y: np.ndarray) -> dict:
    return {
        "p": X.shape[1],
        "samples": [{"x": [float(v) for v in x], "y": int(lab)} for x, lab in zip(X, y)],
    }


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc))
    return path


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main with its standard output captured, as a script would."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    return status, buf.getvalue()


# ---------------------------------------------------------------------------
# t32-tangent-p512


@dataclass
class TangentInputs:
    X: np.ndarray
    y: np.ndarray
    config: harness.RunConfig
    data: network.Dataset
    out: Path


@dataclass
class TangentOutputs:
    status: int
    features: list
    ball_results: list
    app_zero: float
    eps_app: float
    tau: float


class Tangent:
    """A theorem32 run at p=512 followed by the tangent-class quantities."""

    name = "t32-tangent-p512"
    p, L, n, r, T = 512, 1, 4, 0.05, 300
    init_seed = 5
    rhos = (0.0, 0.1, 1.0, 10.0)
    n_checks = 17

    def prepare(self, seed: int, workdir: Path) -> TangentInputs:
        X, y = clustered_samples(self.p, self.n, self.r, np.random.default_rng([seed, self.p, self.L]))
        config = harness.parse_config(
            {
                "mode": "theorem32",
                "network": {"p": self.p, "L": self.L, "activation": "huberized", "h": "auto"},
                "data": {"inline": inline_dataset(X, y)},
                "phase_plan": {"gamma": "estimate", "T": self.T},
                "seeds": {"init": self.init_seed, "data": 21, "probes": 22},
                "output": {"csv": True, "json": True},
            }
        )
        return TangentInputs(X, y, config, harness.build_dataset(config), workdir / "t32")

    def execute(self, inp: TangentInputs) -> TangentOutputs:
        runlog, status = harness.run(inp.config, out_dir=inp.out)
        V1 = ntk.gaussian_init(ntk.InitSpec(p=self.p, L=self.L, seed=self.init_seed))
        act = activations.huberized(runlog.config_echo["plan"]["h_nt"])
        features = [list(f.layers()) for f in ntk.ntk_features(V1, act, inp.data)]
        results = []
        for rho in self.rhos:
            v_star, eps = ntk.nt_class_minimize(V1, act, inp.data, ntk.NtBallConfig(rho=rho, steps=400))
            results.append((rho, list(v_star.layers()), eps))
        app_zero = ntk.approx_error_sample(V1, act, inp.data, tau=0.0)
        tau = 2.0 * runlog.config_echo["phase1_max_drift"]
        eps_app = ntk.approx_error_sample(V1, act, inp.data, tau, k_pairs=12, seed=9)
        v_star, eps = ntk.nt_class_minimize(V1, act, inp.data, ntk.NtBallConfig(rho=tau / 3.0, steps=600))
        results.append((tau / 3.0, list(v_star.layers()), eps))
        return TangentOutputs(status, features, results, app_zero, eps_app, tau)

    def verify(self, inp: TangentInputs, out: TangentOutputs) -> list[checks.Check]:
        summary = json.loads((inp.out / "summary.json").read_text())
        return checks.verify_theorem32(
            inp.X,
            inp.y,
            self.init_seed,
            out.status,
            summary,
            (inp.out / "trajectory.csv").read_text(),
            out.features,
            out.ball_results,
            out.app_zero,
            out.eps_app,
            out.tau,
        )


# ---------------------------------------------------------------------------
# diag-p2048


@dataclass
class DiagCase:
    init_seed: int
    config: Path
    out: Path


class Diagnostics:
    """`boundbench diagnostics` at p=2048, L=3 over a fixed panel of
    initializations."""

    name = "diag-p2048"
    p, L, n = 2048, 3, 8
    init_seeds = (0, 1, 2)
    n_checks = 3 * 8

    def prepare(self, seed: int, workdir: Path) -> tuple[np.ndarray, list[DiagCase]]:
        rng = np.random.default_rng([seed, self.p, self.L])
        X = rng.standard_normal((self.n, self.p))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        y = np.array([1.0, -1.0] * (self.n // 2))
        cases = []
        for s in self.init_seeds:
            config = {
                "mode": "diagnostics",
                "network": {"p": self.p, "L": self.L, "activation": "huberized", "h": "auto"},
                "data": {"inline": inline_dataset(X, y)},
                "seeds": {"init": s, "data": 1, "probes": 2},
            }
            path = _write_json(workdir / f"diag{s}.json", config)
            cases.append(DiagCase(s, path, workdir / f"diag{s}"))
        return X, cases

    def execute(self, inputs: tuple[np.ndarray, list[DiagCase]]) -> list[tuple[int, dict]]:
        out = []
        for case in inputs[1]:
            status, printed = _quiet_cli(["diagnostics", "--config", str(case.config), "--out", str(case.out)])
            out.append((status, json.loads(printed)))
        return out

    def verify(self, inputs, outputs: list[tuple[int, dict]]) -> list[checks.Check]:
        X, cases = inputs
        found = []
        for case, (status, report) in zip(cases, outputs):
            h = json.loads((case.out / "summary.json").read_text())["resolved"]["h"]
            found += checks.verify_diagnostics(X, case.init_seed, status, report, self.p, self.L, h)
        return found


WORKLOADS = {w.name: w for w in (Tangent(), Diagnostics())}
