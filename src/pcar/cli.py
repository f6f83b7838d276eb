"""Command line interface.

Subcommands:
  run     simulate a study from a JSON config and write the log
  report  turn a saved log into summary CSVs and plot data
  oracle  benchmark the learner against the brute-force planner
  sweep   re-run the study across values of one config parameter

Errors print a single JSON line on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .study import (
    load_config,
    load_log,
    oracle_check,
    report,
    run_study,
    sweep,
    write_sweep_csv,
)


def _fail(message: str, code: int = 2) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return code


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out) if args.out else Path(cfg["output_dir"] or "study_out")
    log = run_study(cfg)
    paths = log.save(out_dir)
    if not args.no_report:
        paths.update(report(log, out_dir))
    print(
        json.dumps(
            {
                "log_hash": log.meta["log_hash"],  # recorded by save
                "records": len(log.records),
                "out": str(out_dir),
                "files": {k: str(v) for k, v in paths.items()},
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_report(args) -> int:
    log = load_log(args.log)
    paths = report(log, args.out)
    print(
        json.dumps(
            {"out": args.out, "files": {k: str(v) for k, v in paths.items()}},
            sort_keys=True,
        )
    )
    return 0


def cmd_oracle(args) -> int:
    result = oracle_check(
        k=args.k,
        tau_max=args.tau_max,
        horizon=args.horizon,
        seeds=args.seeds,
        episodes=args.episodes,
        threshold=args.threshold,
        required=args.required,
    )
    print(
        json.dumps(
            {
                "optimal_total": result.optimal_total,
                "optimal_sequence": list(result.optimal_sequence),
                "fractions": [round(f, 6) for f in result.fractions],
                "reaching_threshold": sum(
                    f >= result.threshold for f in result.fractions
                ),
                "required": result.required,
                "passed": result.passed,
            },
            sort_keys=True,
        )
    )
    return 0 if result.passed else 1


def cmd_sweep(args) -> int:
    values = json.loads(f"[{args.values}]")
    rows = sweep(args.config, args.param, values)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(rows, out)
    print(json.dumps({"rows": len(rows), "out": str(out)}, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcar",
        description="Simulated micro-intervention study runner and analysis tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a study from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the study config")
    p_run.add_argument("--out", help="output directory (default from config)")
    p_run.add_argument(
        "--no-report", action="store_true", help="write only the raw log"
    )
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="summarize a saved study log")
    p_rep.add_argument("--log", required=True, help="run directory or records.csv")
    p_rep.add_argument("--out", required=True, help="output directory")
    p_rep.set_defaults(func=cmd_report)

    p_or = sub.add_parser(
        "oracle", help="compare the learner against brute-force planning"
    )
    p_or.add_argument("--k", type=int, required=True)
    p_or.add_argument("--tau-max", dest="tau_max", type=int, required=True)
    p_or.add_argument("--horizon", type=int, required=True)
    p_or.add_argument("--seeds", type=int, default=20)
    p_or.add_argument("--episodes", type=int, default=5000)
    p_or.add_argument("--threshold", type=float, default=0.95)
    p_or.add_argument("--required", type=int, default=None)
    p_or.set_defaults(func=cmd_oracle)

    p_sw = sub.add_parser("sweep", help="run the study across parameter values")
    p_sw.add_argument("--config", required=True)
    p_sw.add_argument("--param", required=True, help="dotted path, e.g. agent.lambda")
    p_sw.add_argument(
        "--values", required=True, help="JSON values, comma-separated as in a JSON "
        "list, so an object's commas stay in it: e.g. 0,0.6,0.9",
    )
    p_sw.add_argument("--out", default="sweep.csv")
    p_sw.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # ConfigError is a ValueError; OSError covers missing, directory and
    # unwritable paths; AssertionError comes from the final budget re-check
    try:
        return args.func(args)
    except (ValueError, TypeError, OSError, AssertionError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
