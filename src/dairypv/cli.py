"""Command-line entry points: run, calibrate, monte-carlo.

Results go to --out or stdout; all diagnostics go to stderr. Exit codes:
0 success, 1 validation/parse/usage error, 2 runtime or calibration failure.
"""

import argparse
import functools
import sys
from dataclasses import replace

from .calibration import calibrate
from .domain import ADOPTION_SEMANTICS, MODES
from .engine import run_monte_carlo, run_simulation
from .errors import CalibrationFailedError, CoverageGapError, SeriesError, ValidationError
from .io import load_scenario, read_target, render_result, write_result


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits 1 (not 2) on usage errors."""

    def exit(self, status=0, message=None):
        if message:
            self._print_message(message, sys.stderr)
        raise SystemExit(1 if status else 0)


@functools.cache  # built on first use, then reused by every cli_main call
def build_parser():
    parser = _Parser(
        prog="dairypv",
        description="Simulate and calibrate solar PV adoption on dairy farms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one simulation")
    run.add_argument("--config", required=True, help="scenario YAML file")
    run.add_argument("--out", help="output file (default: stdout)")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--mode", choices=MODES, help="override the scenario's mode")
    run.add_argument("--seed", type=int, help="override the scenario's seed")
    run.add_argument("--semantics", dest="adoption_semantics", choices=ADOPTION_SEMANTICS,
                     help="override the scenario's adoption semantics")
    run.set_defaults(func=_cmd_run)

    cal = sub.add_parser("calibrate", help="fit alpha/beta to observed adoption")
    cal.add_argument("--config", required=True, help="scenario YAML file")
    cal.add_argument("--target", required=True, help="target CSV (year,cumulative_adopters)")
    cal.add_argument("--budget", type=int, default=2000,
                     help="max objective evaluations (default 2000)")
    cal.add_argument("--out", help="output file (default: stdout); JSON")
    cal.set_defaults(func=_cmd_calibrate)

    mc = sub.add_parser("monte-carlo", help="replicate the stochastic simulation")
    mc.add_argument("--config", required=True, help="scenario YAML file")
    mc.add_argument("--replications", type=int, required=True)
    mc.add_argument("--seed", type=int, required=True, help="base seed")
    mc.add_argument("--out", help="output file (default: stdout); CSV")
    mc.set_defaults(func=_cmd_monte_carlo)

    return parser


def _emit(result, format, out):
    if out:
        write_result(result, format, out)
    else:
        sys.stdout.write(render_result(result, format))


def _cmd_run(args):
    params, prices, subsidies, _ = load_scenario(args.config)
    overrides = {
        name: getattr(args, name) for name in ("mode", "seed", "adoption_semantics")
        if getattr(args, name) is not None
    }
    if overrides:
        params = replace(params, **overrides)
    result = run_simulation(params, prices, subsidies)
    _emit(result, args.format, args.out)
    return 0


def _cmd_calibrate(args):
    params, prices, subsidies, _ = load_scenario(args.config)
    target = read_target(args.target, params)
    result = calibrate(params, prices, subsidies, target, budget=args.budget)
    _emit(result, "json", args.out)
    return 0


def _cmd_monte_carlo(args):
    params, prices, subsidies, _ = load_scenario(args.config)
    params = replace(params, mode="stochastic", seed=args.seed)
    summary = run_monte_carlo(
        params, prices, subsidies, replications=args.replications, base_seed=args.seed
    )
    _emit(summary, "csv", args.out)
    return 0


def cli_main(argv=None):
    """Parse arguments, dispatch, and map exceptions to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValidationError, SeriesError, CoverageGapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CalibrationFailedError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
