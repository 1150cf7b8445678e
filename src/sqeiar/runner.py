"""Scenario orchestration and file outputs: baseline and optimally
controlled runs, verification checks, CSV trajectories, and a run summary."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, ScenarioConfig
from .control import ControlPair, SweepReport, cost_functional, fbsm_solve
from .model import COMPARTMENTS, QuarantineRegions
from .pde import Grid, Trajectory, forward_solve
from .verify import (
    CheckReport,
    RunMetrics,
    extract_metrics,
    mass_balance_check,
    positivity_check,
)

_CSV_VALUES = 1024  # CSV values formatted per % operation (at least one row)


@dataclass(frozen=True)
class ScenarioResult:
    """One solved scenario: trajectory, controls, cost, metrics, checks."""

    name: str
    trajectory: Trajectory
    controls: ControlPair
    cost: float
    metrics: RunMetrics
    checks: list[CheckReport]
    sweep: SweepReport | None = None


@dataclass(frozen=True)
class RunSummary:
    baseline: ScenarioResult | None
    optimal: ScenarioResult | None
    deaths_averted: float | None


def _result(name: str, config: ScenarioConfig, traj: Trajectory,
            controls: ControlPair, sweep: SweepReport | None = None) -> ScenarioResult:
    """Cost, trajectory checks and metrics of one solved scenario."""
    grid = config.grid
    cost = cost_functional(traj, controls, config.weights, config.regions, grid)
    checks = [mass_balance_check(traj, config.params, grid), positivity_check(traj)]
    return ScenarioResult(name, traj, controls, cost, extract_metrics(traj, grid),
                          checks, sweep)


def _solve_baseline(config: ScenarioConfig, initial: np.ndarray) -> ScenarioResult:
    controls = ControlPair.zeros(config.grid, config.regions)
    traj = forward_solve(initial, controls, config.params, config.regions, config.grid)
    return _result("baseline", config, traj, controls)


def _solve_optimal(config: ScenarioConfig, initial: np.ndarray) -> ScenarioResult:
    start = ControlPair.zeros(config.grid, config.regions)
    state, _adjoint, controls, report = fbsm_solve(
        initial, start, config.params, config.weights, config.regions, config.grid,
        config.sweep)
    return _result("optimal", config, state, controls, report)


def _tree(root: Path) -> set[Path]:
    return {root, *root.rglob("*")} if root.exists() else set()


def run_scenario(config: ScenarioConfig) -> RunSummary:
    """Solve the configured scenario(s), run the trajectory checks, and
    write all outputs.  If writing fails, what this call created is
    removed and nothing that existed before is.  A quarantine region that
    holds no node of the grid is a ConfigError: its control could not act."""
    grid = config.grid
    for region in config.regions.regions:
        if not QuarantineRegions((region,)).mask(grid.x).any():
            raise ConfigError(f"region {region} holds no node of the "
                              f"{grid.nx} x {grid.nt} grid")
    initial = config.initial_array()  # read once, so both modes start alike
    config.positivity_step_warning(initial)
    baseline = (_solve_baseline(config, initial)
                if config.mode in ("baseline", "both") else None)
    optimal = (_solve_optimal(config, initial)
               if config.mode in ("optimal", "both") else None)
    deaths_averted = None
    if baseline is not None and optimal is not None:
        deaths_averted = baseline.metrics.deaths - optimal.metrics.deaths
    summary = RunSummary(baseline, optimal, deaths_averted)
    out_dir = Path(config.output_dir)
    root = out_dir  # the highest directory this call may create
    while not root.parent.exists():
        root = root.parent
    before = _tree(root)
    try:
        write_outputs(summary, config, out_dir)
    except Exception:
        # a path sorts after its parent, so reverse order empties
        # directories before removing them
        for path in sorted(_tree(root) - before, reverse=True):
            with contextlib.suppress(OSError):
                if path.is_dir() and not path.is_symlink():
                    path.rmdir()
                else:
                    path.unlink()
        raise
    return summary


def _format(value: float) -> str:
    return f"{value:.17g}"


def _write_csv(path: Path, header: str, *columns: np.ndarray) -> None:
    """Write the columns side by side under a one-line header, each value as
    `%.17g`, which round-trips every float64: the bytes np.savetxt writes
    with that format, with one `%` operation per block of rows instead of
    one per row.  A block holds about _CSV_VALUES values, so the text held
    at once stays small on wide grids."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    rows = max(1, _CSV_VALUES // table.shape[1])
    with open(path, "w") as out:
        out.write(header + "\n")
        for lo in range(0, len(table), rows):
            block = table[lo:lo + rows]
            out.write((row * len(block)) % tuple(block.ravel().tolist()))


def _write_scenario(result: ScenarioResult, grid: Grid, stride: int,
                    directory: Path) -> None:
    """Field CSVs: header `t,x_0,...,x_{nx-1}`, one row per stored time
    sample (every stride-th step and the last).  aggregates.csv: every step."""
    directory.mkdir(parents=True, exist_ok=True)
    header = "t," + ",".join(_format(x) for x in grid.x)
    rows = np.unique(np.append(np.arange(0, grid.nt + 1, stride), grid.nt))
    fields = dict(zip(COMPARTMENTS, np.moveaxis(result.trajectory.values, 1, 0)))
    fields.update(u=result.controls.u, v=result.controls.v)
    for name, values in fields.items():
        _write_csv(directory / f"{name}.csv", header, grid.t[rows], values[rows])
    aggregates = result.metrics.aggregates
    _write_csv(directory / "aggregates.csv", "t," + ",".join(COMPARTMENTS) + ",N",
               grid.t, *(aggregates[c] for c in COMPARTMENTS),
               result.metrics.total_population)


def _summary_lines(result: ScenarioResult) -> list[str]:
    lines = [f"[{result.name}]", f"cost J = {_format(result.cost)}"]
    for name in COMPARTMENTS:
        lines.append(f"peak {name} = {_format(result.metrics.peak_value[name])}"
                     f" at t = {_format(result.metrics.peak_time[name])}")
    lines.append(f"final total population = "
                 f"{_format(result.metrics.final_total_population)}")
    lines.append(f"deaths = {_format(result.metrics.deaths)}")
    if result.sweep is not None:
        sweep = result.sweep
        lines.append(f"sweep: iterations={sweep.iterations} "
                     f"coarse_iterations={sweep.coarse_iterations} "
                     f"converged={sweep.converged} "
                     f"residual={_format(sweep.residual)}")
        lines.append("cost history: "
                     + ", ".join(_format(j) for j in sweep.cost_history))
    for check in result.checks:
        status = "PASS" if check.passed else "FAIL"
        lines.append(f"check {check.name}: {status} measured={check.measured:.6g}"
                     f" bound={check.bound:.6g} ({check.detail})")
    return lines


def write_outputs(summary: RunSummary, config: ScenarioConfig,
                  output_dir: Path) -> None:
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    lines: list[str] = []
    for result in (summary.baseline, summary.optimal):
        if result is None:
            continue
        _write_scenario(result, config.grid, config.stride, output_dir / result.name)
        lines.extend(_summary_lines(result))
        lines.append("")
    if summary.deaths_averted is not None:
        lines.append(f"deaths averted (baseline - optimal) = "
                     f"{_format(summary.deaths_averted)}")
    (output_dir / "summary.txt").write_text("\n".join(lines) + "\n")
