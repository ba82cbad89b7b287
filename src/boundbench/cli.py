"""Command-line entry points.

    boundbench run --config cfg.json [--out DIR] [--seed-override K]
    boundbench certify-activation --kind huberized|swish --h 0.1
    boundbench diagnostics --config cfg.json [--out DIR]

`run` executes the config's mode: theorem31 (one monitored descent from a
small-loss initialization), theorem32 (the two-phase schedule) or
diagnostics (initialization concentration). Every mode reads the sections
network, data, seeds and output; theorem31 also reads optimizer and init,
theorem32 phase_plan, and diagnostics diagnostics. `diagnostics` parses the
config with its mode set to diagnostics, so it accepts the shared sections
and a diagnostics section only.

Exit status:
    0  every monitored check passed or was not applicable
    1  a monitored inequality failed
    2  a bad config or input: an invalid or truncated JSON file, an unknown
       mode, section or key, a section its mode does not read, a mistyped or
       out-of-range field (a string where a number belongs, a data.clustered.r
       above 1/16), a malformed inline or file sample, a data set whose width
       is not network.p, a theorem32 gamma estimate that finds no positive
       tangent margin, a gamma that puts the automatic rho beyond the float
       range, a phase-2 step size that needs phase_plan.alpha_phase2, an unread
       phase_plan.delta (rho given) or alpha_phase2 (phase2_steps 0), a null
       phase_plan.stop_loss (its default 0 is no early stop), a theorem31
       network.h above the admissible width h_max, an "auto"
       network.h (theorem32 or diagnostics) for a single sample (log n = 0), an
       init.target_loss below the normal double range (an "auto" target 0.5
       n^-(1+24L) that underflows), a negative --seed-override, or a file or
       directory that cannot be read or written (a missing or non-UTF-8 config,
       a directory given as a file, an --out that is a file or lies under one);
       an unusable --out fails before training
    3  the run could not be carried out: no derived seed classified every
       sample at the resolved width, the outer-layer scale search failed,
       or training hit a non-finite loss or gradient

Standard output holds the report, the same for `run` and `diagnostics`; a
reader that closes it early leaves the exit status unchanged.

The network is evaluated in one batched pass over all samples; neither
that pass nor the norms of weight stacks depend on the BLAS thread count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .activations import Activation, ActivationKind, certify_h_smooth
from .harness import ConfigError, parse_config, read_json, run
from .ntk import RunAbortedError


def _cmd_run(args: argparse.Namespace) -> tuple[int, str]:
    """`run`, or `diagnostics`: the config parsed and run in that mode."""
    doc = read_json(args.config)
    if args.command == "diagnostics" and isinstance(doc, dict):
        doc = {**doc, "mode": "diagnostics"}
    config = parse_config(doc)
    if args.command == "run" and args.seed_override is not None:
        # seeds K, K+1, K+2, checked by the same schema as a config file
        k = args.seed_override
        config = parse_config({**config.to_json_dict(), "seeds": {"init": k, "data": k + 1, "probes": k + 2}})
    runlog, status = run(config, out_dir=args.out)
    return status, _report(runlog)


def _cmd_certify(args: argparse.Namespace) -> tuple[int, str]:
    report = certify_h_smooth(Activation(ActivationKind(args.kind), args.h))
    doc = {
        "kind": args.kind,
        "h": args.h,
        "max_abs_deriv": report.max_abs_deriv,
        "max_lipschitz_quotient": report.max_lipschitz_quotient,
        "max_taylor_gap": report.max_taylor_gap,
        "samples_used": report.samples_used,
        "pass": report.pass_,
    }
    return (0 if report.pass_ else 1), json.dumps(doc, indent=2)


def _report(runlog) -> str:
    """A diagnostics run's report, or one verdict line per monitored check;
    neither holds the wall time, so reruns print the same bytes."""
    if "diagnostics" in runlog.summary:
        return json.dumps(runlog.summary["diagnostics"], indent=2, sort_keys=True)
    lines = []
    for key, info in runlog.summary["invariants"].items():
        counts = info["counts"]
        state = "FAIL" if info["first_violation_step"] is not None else (
            "pass" if counts["pass"] else "n/a"
        )
        worst = info["worst_slack"]
        worst_txt = "" if worst is None else f" worst_slack={worst:.3e} at t={info['worst_slack_step']}"
        lines.append(f"{key:>10}: {state}  (pass={counts['pass']} fail={counts['fail']} na={counts['na']}){worst_txt}")
    if "final_loss" in runlog.summary:
        lines.append(f"final loss {runlog.summary['final_loss']:.6e} after {runlog.summary['steps']} steps")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="boundbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="override the output directory")
    p_run.add_argument("--seed-override", type=int, default=None)
    p_run.set_defaults(fn=_cmd_run)

    p_cert = sub.add_parser("certify-activation", help="check the activation properties")
    p_cert.add_argument("--kind", choices=[kind.value for kind in ActivationKind], required=True)
    p_cert.add_argument("--h", type=float, required=True)
    p_cert.set_defaults(fn=_cmd_certify)

    p_diag = sub.add_parser("diagnostics", help="initialization concentration report")
    p_diag.add_argument("--config", required=True)
    p_diag.add_argument("--out", default=None)
    p_diag.set_defaults(fn=_cmd_run)

    args = parser.parse_args(argv)
    try:
        status, report = args.fn(args)
    except (ConfigError, OSError) as exc:  # OSError: a file or directory that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RunAbortedError as exc:
        print(f"error: the run could not be carried out: {exc}", file=sys.stderr)
        return 3
    try:
        print(report, flush=True)
    except BrokenPipeError:
        # the reader has gone: the status stands; stdout is pointed at devnull
        # so that the flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
