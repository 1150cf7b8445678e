"""Command-line interface: `run` a scenario, `check` the fast verification
oracles, or print the resolved `defaults`."""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import (ConfigError, ScenarioConfig, evaluate_profile, load_config,
                     render_defaults)
from .model import ContractError
from .pde import Grid, IntegrationError

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

    config = _load(args.config)
    overrides = {"mode": args.mode, "output_dir": args.out}
    overrides = {key: value for key, value in overrides.items() if value is not None}
    if overrides:
        config = replace(config, **overrides)
    summary = run_scenario(config)

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


def _check_profiles(config: ScenarioConfig, grid: Grid) -> np.ndarray:
    """The initial profiles on the check grid: named ones evaluated at its
    nodes, `file:` ones (values on the config's grid) read once and
    interpolated linearly."""
    def row(spec: str) -> np.ndarray:
        if spec.startswith("file:"):
            return np.interp(grid.x, config.grid.x, evaluate_profile(spec, config.grid.x))
        return evaluate_profile(spec, grid.x)
    names = ("s", "q", "e", "a", "i", "r")
    return np.vstack([row(config.profiles[name]) for name in names])


def _cmd_check(args) -> int:
    from .control import ControlPair
    from .pde import forward_solve
    from .verify import (
        gradient_oracle,
        mass_balance_check,
        positivity_check,
        sensitivity_oracle,
    )

    config = _load(args.config)
    grid = Grid(x_min=config.grid.x_min, x_max=config.grid.x_max, nx=21, tau=3.0, nt=300)
    small = replace(config, grid=grid)  # checks CFL on the check grid
    initial = _check_profiles(config, grid)
    small.positivity_step_warning(initial)
    base = ControlPair.constant(0.3, 0.3 * small.regions.v_max, grid, small.regions)
    traj = forward_solve(initial, base, small.params, small.regions, grid)
    reports = [
        mass_balance_check(traj, small.params, grid),
        positivity_check(traj),
        gradient_oracle(traj, base, small.params, small.weights, small.regions,
                        grid, seed=small.seed),
        sensitivity_oracle(traj, base, small.params, small.regions, grid,
                           seed=small.seed),
    ]

    failed = False
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        print(f"{report.name}: {status} (measured {report.measured:.3g}, "
              f"bound {report.bound:.3g})")
        if not report.passed:
            failed = True
            print(f"  {report.detail}")
    return EXIT_CHECK if failed else EXIT_OK


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one command; every expected failure ends in one stderr line and
    its documented exit code, and every warning is one `warning:` line."""
    args = _build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            if args.command == "run":
                return _cmd_run(args)
            if args.command == "check":
                return _cmd_check(args)
        print(render_defaults(), end="")
        return EXIT_OK
    except (ConfigError, ContractError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"configuration error: the grid does not fit in memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT

if __name__ == "__main__":
    sys.exit(main())
