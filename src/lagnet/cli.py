"""Command-line entry point.

Subcommands: ``run`` (solve and write artifacts), ``certify`` (emit a
spectral certificate as JSON), ``oracle`` (centralized ground truth as
JSON), ``sweep`` (grid study over alpha/c/c_max), ``check-gradients``.
Exit codes: 0 success, a certificate with ``verdict: false`` included;
1 solver failure (a diverged run, an a3 inner divergence included, or a
failed oracle); 2 config error naming its key path, or a bad flag naming
the flag.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import analysis, harness, oracle


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lagnet")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment, write trace and summary")
    run.add_argument("--config", required=True)
    run.add_argument("--out", required=True)

    certify = sub.add_parser("certify", help="emit a spectral certificate as JSON")
    certify.add_argument("--config", required=True)
    certify.add_argument("--out", help="also write the JSON to this file")

    orc = sub.add_parser("oracle", help="centralized ground-truth solution as JSON")
    orc.add_argument("--config", required=True)

    swp = sub.add_parser("sweep", help="grid study over one parameter")
    swp.add_argument("--config", required=True)
    swp.add_argument("--param", required=True, choices=["alpha", "c", "c_max"])
    swp.add_argument("--grid", required=True, help="comma-separated values")
    swp.add_argument("--out", required=True)

    grad = sub.add_parser("check-gradients", help="finite-difference derivative check")
    grad.add_argument("--config", required=True)
    grad.add_argument("--samples", type=int, default=10)
    return parser


def _writable(out: str, command: str) -> bool:
    """A file in an existing directory for ``certify``, else a directory
    that exists or can be made."""
    path = Path(out)
    if command == "certify":
        return path.parent.is_dir() and not path.is_dir()
    return next(q for q in (path, *path.parents) if q.exists()).is_dir()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "check-gradients" and args.samples < 1:
        parser.error(f"argument --samples: must be >= 1, got {args.samples}")
    if getattr(args, "out", None) and not _writable(args.out, args.command):
        parser.error(f"argument --out: cannot write to {args.out!r}")
    try:
        cfg = harness.load_config(args.config)
        if args.command == "run":
            outcome = harness.run_experiment(cfg, args.out)
            print(json.dumps(outcome.summary, sort_keys=True, indent=2))
            return 0 if outcome.status != "diverged" else 1
        if args.command == "certify":
            text = json.dumps(harness.certificate_report(cfg), sort_keys=True, indent=2)
            print(text)
            if args.out:
                with open(args.out, "w", newline="\n") as fh:
                    fh.write(text + "\n")
            return 0
        if args.command == "oracle":
            print(json.dumps(harness.oracle_report(cfg), sort_keys=True, indent=2))
            return 0
        if args.command == "sweep":
            try:
                grid = [float(v) for v in args.grid.split(",") if v.strip()]
            except ValueError:
                parser.error(f"argument --grid: expected numbers, got {args.grid!r}")
            harness.sweep(cfg, args.param, grid, args.out)
            return 0
        if args.command == "check-gradients":
            print(json.dumps(harness.gradient_report(cfg, args.samples),
                             sort_keys=True, indent=2))
            return 0
    except harness.ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (analysis.AnalysisError, oracle.OracleError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
