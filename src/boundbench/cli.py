"""Command-line entry points.

    boundbench run --config cfg.json [--out DIR] [--seed-override K]
    boundbench certify-activation --kind huberized|swish --h 0.1
    boundbench diagnostics --config cfg.json [--out DIR]

`run` executes the config's mode: theorem31 (one monitored descent from a
small-loss initialization), theorem32 (the two-phase schedule) or
diagnostics (initialization concentration).

Exit status:
    0  every monitored check passed or was not applicable
    1  a monitored inequality failed
    2  a bad config or input: an invalid or truncated JSON file, an unknown
       mode, section or key, a mistyped or out-of-range field (a string
       where a number belongs, a data.clustered.r above 1/16), a malformed
       inline or file sample, a data set whose width is not network.p, a
       theorem32 gamma estimate that finds no positive tangent margin, a
       phase-2 step size that needs phase_plan.alpha_phase2, an "auto"
       network.h or phase_plan.h_nt for a single sample (log n = 0), an
       init.target_loss below the normal double range (an "auto" target
       0.5 n^-(1+24L) that underflows), a negative --seed-override, or a
       missing file
    3  the run could not be carried out: no derived seed classified every
       sample at the resolved width, the outer-layer scale search failed,
       or training hit a non-finite loss or gradient

The network is evaluated in one batched pass over all samples; neither
that pass nor the norms of weight stacks depend on the BLAS thread count.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .activations import huberized, swish
from .harness import ConfigError, RunConfig, parse_config, run
from .ntk import RunAbortedError


def _load_config(path: str) -> RunConfig:
    with open(path) as fh:
        text = fh.read()
    try:
        return parse_config(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON ({exc})") from exc


def _apply_seed_override(config: RunConfig, seed: int) -> RunConfig:
    """The config with seeds K, K+1, K+2, checked by the same schema as a config file."""
    seeds = {"init": seed, "data": seed + 1, "probes": seed + 2}
    return parse_config({**config.to_json_dict(), "seeds": seeds})


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    if args.seed_override is not None:
        config = _apply_seed_override(config, args.seed_override)
    runlog, status = run(config, out_dir=args.out)
    _print_verdict_lines(runlog)
    return status


def _cmd_diagnostics(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    if config.mode != "diagnostics":
        config = replace(config, mode="diagnostics")
    runlog, status = run(config, out_dir=args.out)
    print(json.dumps(runlog.summary.get("diagnostics", {}), indent=2, sort_keys=True))
    return status


def _cmd_certify(args: argparse.Namespace) -> int:
    from .activations import certify_h_smooth

    act = huberized(args.h) if args.kind == "huberized" else swish(args.h)
    report = certify_h_smooth(act)
    print(
        json.dumps(
            {
                "kind": args.kind,
                "h": args.h,
                "max_abs_deriv": report.max_abs_deriv,
                "max_lipschitz_quotient": report.max_lipschitz_quotient,
                "max_taylor_gap": report.max_taylor_gap,
                "samples_used": report.samples_used,
                "pass": report.pass_,
            },
            indent=2,
        )
    )
    return 0 if report.pass_ else 1


def _print_verdict_lines(runlog) -> None:
    invariants = runlog.summary.get("invariants")
    if not invariants:
        print(json.dumps(runlog.summary, indent=2, sort_keys=True, default=str))
        return
    for key, info in invariants.items():
        counts = info["counts"]
        state = "FAIL" if info["first_violation_step"] is not None else (
            "pass" if counts["pass"] else "n/a"
        )
        worst = info["worst_slack"]
        worst_txt = "" if worst is None else f" worst_slack={worst:.3e} at t={info['worst_slack_step']}"
        print(f"{key:>10}: {state}  (pass={counts['pass']} fail={counts['fail']} na={counts['na']}){worst_txt}")
    if "final_loss" in runlog.summary:
        print(f"final loss {runlog.summary['final_loss']:.6e} after {runlog.summary['steps']} steps")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="boundbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="override the output directory")
    p_run.add_argument("--seed-override", type=int, default=None)
    p_run.set_defaults(fn=_cmd_run)

    p_cert = sub.add_parser("certify-activation", help="check the activation properties")
    p_cert.add_argument("--kind", choices=("huberized", "swish"), required=True)
    p_cert.add_argument("--h", type=float, required=True)
    p_cert.set_defaults(fn=_cmd_certify)

    p_diag = sub.add_parser("diagnostics", help="initialization concentration report")
    p_diag.add_argument("--config", required=True)
    p_diag.add_argument("--out", default=None)
    p_diag.set_defaults(fn=_cmd_diagnostics)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RunAbortedError as exc:
        print(f"error: the run could not be carried out: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
