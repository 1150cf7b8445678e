"""Command-line interface: `run` a scenario, `check` the fast verification
oracles, or print the resolved `defaults`."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, ScenarioConfig, load_config, render_defaults
from .model import ContractError
from .pde import IntegrationError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_CHECK = 3
EXIT_OUTPUT = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqeiar",
        description="Spatiotemporal SQEIAR epidemic simulation with "
                    "adjoint-based quarantine/treatment optimization.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve the configured scenario(s)")
    run.add_argument("--config", type=Path, default=None,
                     help="scenario file (omit for the default scenario)")
    run.add_argument("--mode", choices=("baseline", "optimal", "both"),
                     default=None, help="override the configured mode")
    run.add_argument("--out", type=Path, default=None,
                     help="override the configured output directory")

    check = sub.add_parser("check", help="run the small-grid verification oracles")
    check.add_argument("--config", type=Path, default=None,
                       help="scenario file supplying model parameters/weights")

    sub.add_parser("defaults", help="print the fully-resolved default configuration")
    return parser


def _load(config_path: Path | None) -> ScenarioConfig:
    if config_path is None:
        return ScenarioConfig()
    return load_config(config_path)


def _cmd_run(args) -> int:
    from .runner import run_scenario

    try:
        config = _load(args.config)
        if args.mode is not None:
            config = replace(config, mode=args.mode)
        if args.out is not None:
            config = replace(config, output_dir=args.out)
    except (ConfigError, ContractError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        summary = run_scenario(config)
    except (IntegrationError, RuntimeError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT

    problems = []
    for result in (summary.baseline, summary.optimal):
        if result is None:
            continue
        print(f"{result.name}: J = {result.cost:.6g}, "
              f"deaths = {result.metrics.deaths:.4g}")
        for report in result.checks:
            status = "PASS" if report.passed else "FAIL"
            print(f"  {report.name}: {status} (measured {report.measured:.3g},"
                  f" bound {report.bound:.3g})")
            if not report.passed:
                problems.append(f"{result.name} {report.name} check failed")
        if result.sweep is not None and not result.sweep.converged:
            problems.append(f"{result.name} sweep did not converge in "
                            f"{result.sweep.iterations} iterations")
    if summary.deaths_averted is not None:
        print(f"deaths averted: {summary.deaths_averted:.4g}")
    print(f"outputs written to {config.output_dir}")
    if problems:
        print(f"verification failure: {'; '.join(problems)}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def _cmd_check(args) -> int:
    from .control import ControlPair
    from .pde import Grid, forward_solve
    from .verify import (
        gradient_oracle,
        mass_balance_check,
        positivity_check,
        sensitivity_oracle,
    )

    try:
        config = _load(args.config)
        grid = Grid(x_min=config.grid.x_min, x_max=config.grid.x_max,
                    nx=21, tau=3.0, nt=300)
        small = replace(config, grid=grid)  # checks CFL on the check grid
    except (ConfigError, ContractError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    initial = small.initial_array()
    base = ControlPair.constant(0.3, 0.3 * small.regions.v_max, grid, small.regions)

    try:
        reports = []
        traj = forward_solve(initial, base, small.params, small.regions, grid)
        reports.append(mass_balance_check(traj, small.params, grid))
        reports.append(positivity_check(traj))
        reports.append(gradient_oracle(initial, base, small.params, small.weights,
                                       small.regions, grid, seed=small.seed))
        reports.append(sensitivity_oracle(initial, base, small.params,
                                          small.regions, grid, seed=small.seed))
    except (IntegrationError, RuntimeError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    failed = False
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        print(f"{report.name}: {status} (measured {report.measured:.3g}, "
              f"bound {report.bound:.3g})")
        if not report.passed:
            failed = True
            print(f"  {report.detail}")
    return EXIT_CHECK if failed else EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "defaults":
        print(render_defaults(), end="")
        return EXIT_OK
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
