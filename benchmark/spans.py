"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces each public function listed in `TARGETS` with a
wrapper, in every `boundbench` module namespace that holds it (methods are
replaced on their class). Each call records a span: the function, start,
end, and the enclosing traced span. Spans stay in memory in flat arrays and
are written out once, at the end of the traced run.

A span's self time is its duration minus the durations of its direct child
spans, which nest inside it. A function's total time sums only its
outermost spans, so a call nested in another call of the same function is
not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute path, metric prefix)
TARGETS = (
    ("activations", "Activation.value", "activations.value"),
    ("activations", "Activation.deriv", "activations.deriv"),
    ("linalg", "WeightStack.__post_init__", "linalg.WeightStack.init"),
    ("linalg", "stack_axpy", "linalg.stack_axpy"),
    ("linalg", "frobenius_norm", "linalg.frobenius_norm"),
    ("linalg", "stack_dot", "linalg.stack_dot"),
    ("linalg", "operator_norm", "linalg.operator_norm"),
    ("network", "forward", "network.forward"),
    ("network", "output_gradient", "network.output_gradient"),
    ("network", "loss_and_gradient", "network.loss_and_gradient"),
    ("bounds", "monitor_transition", "bounds.monitor_transition"),
    ("bounds", "summarize", "bounds.summarize"),
    ("bounds", "write_csv", "bounds.write_csv"),
    ("bounds", "write_summary_json", "bounds.write_summary_json"),
    ("harness", "run", "harness.run"),
    ("ntk", "gaussian_init", "ntk.gaussian_init"),
    ("ntk", "ntk_features", "ntk.ntk_features"),
    ("ntk", "margin_estimate_subgradient", "ntk.margin_estimate_subgradient"),
    ("ntk", "run_phase", "ntk.run_phase"),
    ("ntk", "two_phase_train", "ntk.two_phase_train"),
    ("ntk", "nt_class_minimize", "ntk.nt_class_minimize"),
    ("ntk", "approx_error_sample", "ntk.approx_error_sample"),
    ("ntk", "init_diagnostics", "ntk.init_diagnostics"),
    ("cli", "main", "cli.main"),
)
ITERATIONS = "linalg.operator_norm.iterations"
OVERHEAD = "trace.overhead_s"
METRICS = tuple(f"{t[2]}.{k}" for t in TARGETS for k in ("calls", "total_s", "self_s")) + (ITERATIONS, OVERHEAD)
UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "iterations": "count", "overhead_s": "s"}


class Tracer:
    def __init__(self):
        self.names = [t[2] for t in TARGETS]
        self.fn = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.iterations = 0
        self._open: list[int] = []
        self._depth = [0] * len(TARGETS)
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, idx: int, fn):
        fn_ids, parents, outers = self.fn, self.parent, self.outer
        starts, ends, open_, depth = self.start, self.end, self._open, self._depth
        clock = time.perf_counter
        counts_iterations = self.names[idx] == "linalg.operator_norm"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            fn_ids.append(idx)
            parents.append(open_[-1] if open_ else -1)
            outers.append(depth[idx] == 0)
            ends.append(0.0)
            open_.append(i)
            depth[idx] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                depth[idx] -= 1
                open_.pop()
            if counts_iterations:
                self.iterations += result.iterations
            return result

        return traced

    def install(self) -> "Tracer":
        for idx, (module, path, _) in enumerate(TARGETS):
            owner = importlib.import_module(f"boundbench.{module}")
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                original = owner.__dict__[attr]
                self._replace(owner, attr, original, self._wrap(idx, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(idx, original)
            for name, mod in list(sys.modules.items()):
                if name == "boundbench" or name.startswith("boundbench."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, original, wrapper)
        return self

    def _replace(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "fn": np.frombuffer(self.fn, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "outer": np.frombuffer(self.outer, dtype=np.int8).astype(bool),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path: Path) -> None:
        tmp = path.with_suffix(".tmp.npz")
        np.savez(tmp, **self.arrays())
        tmp.replace(path)

    def metrics(self) -> dict[str, float]:
        """calls, total_s and self_s per traced function, plus iterations."""
        a = self.arrays()
        per = per_function(a["fn"], a["parent"], a["outer"], a["start"], a["end"], len(self.names))
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(per["calls"][i])
            out[f"{name}.total_s"] = float(per["total_s"][i])
            out[f"{name}.self_s"] = float(per["self_s"][i])
        out[ITERATIONS] = self.iterations
        return out


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - child


def per_function(fn, parent, outer, start, end, n_functions: int) -> dict[str, np.ndarray]:
    dur = end - start
    return {
        "calls": np.bincount(fn, minlength=n_functions),
        "total_s": np.bincount(fn[outer], weights=dur[outer], minlength=n_functions),
        "self_s": np.bincount(fn, weights=self_times(parent, start, end), minlength=n_functions),
    }
