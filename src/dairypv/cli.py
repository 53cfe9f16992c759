"""Command-line entry points: run, calibrate, monte-carlo.

Every command is one pipeline: cli_main loads the scenario (and the
--target file, if given), calls the command's function of (args, scenario),
which does no I/O and returns the result, and writes that result once.
Results go to --out or stdout; all diagnostics go to stderr. Exit codes:
0 success or --help, 1 validation/parse/usage error, 2 runtime or calibration failure.
"""

import argparse
import functools
import sys
import warnings
from dataclasses import replace

from .calibration import DEFAULT_BUDGET, calibrate
from .domain import ADOPTION_SEMANTICS, MODES
from .engine import run_monte_carlo, run_simulation
from .errors import CalibrationFailedError, DairyPvError, ValidationError
from .io import load_scenario, render_result, write_result


def _run(args, scenario):
    overrides = {name: getattr(args, name) for name in ("mode", "seed", "adoption_semantics")
                 if getattr(args, name) is not None}
    return run_simulation(replace(scenario.params, **overrides), scenario.prices,
                          scenario.subsidies)


def _calibrate(args, scenario):
    if scenario.target is None:
        raise ValidationError(f"{args.config}: calibrate needs --target or a target_series")
    return calibrate(*scenario, budget=args.budget)


def _monte_carlo(args, scenario):
    return run_monte_carlo(*scenario[:3], args.replications, args.seed)


@functools.cache  # built on first use, then reused by every cli_main call
def build_parser():
    parser = argparse.ArgumentParser(
        prog="dairypv",
        description="Simulate and calibrate solar PV adoption on dairy farms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, **defaults):
        cmd = sub.add_parser(name, help=help, description=help)
        cmd.add_argument("--config", required=True, help="scenario YAML file")
        cmd.add_argument("--out", help="output file (default: stdout)")
        cmd.set_defaults(func=func, target=None, **defaults)
        return cmd

    run = command("run", _run, "run one simulation")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--mode", choices=MODES, help="override the scenario's mode")
    run.add_argument("--seed", type=int, help="override the scenario's seed")
    run.add_argument("--semantics", dest="adoption_semantics", choices=ADOPTION_SEMANTICS,
                     help="override the scenario's adoption semantics")

    cal = command("calibrate", _calibrate, "fit alpha/beta to observed adoption; JSON",
                  format="json")
    cal.add_argument("--target", help="target CSV (year,cumulative_adopters; "
                     "default: the scenario's target_series)")
    cal.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                     help="max (alpha, beta) points scored (default %(default)s)")

    mc = command("monte-carlo", _monte_carlo, "replicate the stochastic simulation; CSV",
                 format="csv")
    mc.add_argument("--replications", type=int, required=True)
    mc.add_argument("--seed", type=int, required=True, help="base seed")

    return parser


def cli_main(argv=None):
    """Parse arguments, load the scenario, run the command, write its result once;
    map exceptions to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    try:
        with warnings.catch_warnings():  # a warning is one stderr line, like an error
            warnings.showwarning = lambda w, *_: print(f"warning: {w}", file=sys.stderr)
            result = args.func(args, load_scenario(args.config, args.target))
        if args.out:
            write_result(result, args.format, args.out)
        else:
            sys.stdout.write(render_result(result, args.format))
        return 0
    except CalibrationFailedError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return 2
    except (DairyPvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
