"""Scenario orchestration and file outputs: baseline and optimally
controlled runs, verification checks, CSV trajectories, and a run summary."""

from __future__ import annotations

import contextlib
import os
import tempfile
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, ScenarioConfig
from .control import ControlPair, SweepReport, _state_cost, _state_weights, fbsm_solve
from .model import COMPARTMENTS, QuarantineRegions
from .pde import Grid, _integrals, _lowest
from .verify import (CheckReport, RunMetrics, extract_metrics, mass_balance_check,
                     positivity_check)

# The baseline streams its levels into _Levels instead of holding its trajectory.  The
# checks and extract_metrics read a _Levels as they read a Trajectory; the cost and the
# streamed solve are cores, called under the public names that benchmarks/tracing.py wraps.
from .control import _cost as cost_functional
from .pde import _forward_stream as forward_solve

_CSV_VALUES = 1024  # CSV values formatted per % operation (at least one row)


@dataclass(frozen=True)
class ScenarioResult:
    """One solved scenario as `run` writes it: the stored time levels, the
    rows of S..R, u and v at those levels, cost, metrics and checks.  It
    holds no trajectory; forward_solve and fbsm_solve return the full
    fields."""

    name: str
    levels: list[int]            # stored time levels: 0, stride, ... and nt
    rows: dict[str, np.ndarray]  # S..R, u, v -> (len(levels), nx)
    cost: float
    metrics: RunMetrics
    checks: list[CheckReport]
    sweep: SweepReport | None = None


@dataclass(frozen=True)
class RunSummary:
    baseline: ScenarioResult | None
    optimal: ScenarioResult | None
    deaths_averted: float | None


class _Levels:
    """What a result keeps of its solve's levels, handed over in blocks, in order:
    the rows `run` writes and each level's state cost, beside what the checks read
    of a Trajectory: each level's compartment integrals, the least value and the
    grid."""

    def __init__(self, config: ScenarioConfig):
        self.grid = grid = config.grid
        self.integrals = np.empty((len(COMPARTMENTS), grid.nt + 1))
        self.state_cost = np.empty(grid.nt + 1)
        # the stored levels, Python ints for any stride
        self.levels = sorted({*range(0, grid.nt + 1, config.stride), grid.nt})
        self.rows = np.empty((len(self.levels), len(COMPARTMENTS), grid.nx))
        self.lowest = (np.inf, 0, 0, 0)
        self._wx = grid.space_weights()
        self._state_weights = _state_weights(config.weights, config.regions, grid)

    def __call__(self, lo: int, block: np.ndarray) -> None:
        """Take levels lo, lo + 1, ... of a solve, shape (k, 6, nx), all finite."""
        hi = lo + len(block)
        self.integrals[:, lo:hi] = _integrals(block, self._wx)
        self.state_cost[lo:hi] = _state_cost(block, self._state_weights)
        lowest = _lowest(block, lo)
        if lowest[0] < self.lowest[0]:  # the first of equal minima stays
            self.lowest = lowest
        i, j = bisect_left(self.levels, lo), bisect_left(self.levels, hi)
        self.rows[i:j] = block[[m - lo for m in self.levels[i:j]]]


def _result(name: str, config: ScenarioConfig, seen: _Levels, controls: ControlPair,
            sweep: SweepReport | None = None) -> ScenarioResult:
    """Cost, trajectory checks and metrics of one solved scenario from what
    ``seen`` kept of its levels, and copies of the rows of ``controls`` that
    `run` writes, so the result keeps neither ``seen`` nor ``controls``
    alive."""
    cost = cost_functional(seen.state_cost, controls, config.weights)
    checks = [mass_balance_check(seen, config.params), positivity_check(seen)]
    rows = dict(zip(COMPARTMENTS, np.moveaxis(seen.rows, 1, 0)))
    rows.update(u=controls.u[seen.levels], v=controls.v[seen.levels])
    return ScenarioResult(name, seen.levels, rows, cost, extract_metrics(seen), checks, sweep)


def _solve_baseline(config: ScenarioConfig, initial: np.ndarray) -> ScenarioResult:
    # zeroed by the allocator and only read, so on a large grid no memory backs them
    controls = ControlPair.zeros(config.grid, config.regions)
    seen = _Levels(config)
    forward_solve(initial, controls, config.params, config.grid, seen)
    return _result("baseline", config, seen, controls)


def _solve_optimal(config: ScenarioConfig, initial: np.ndarray) -> ScenarioResult:
    state, _adjoint, controls, report = fbsm_solve(
        initial, config.params, config.weights, config.regions, config.grid, config.sweep)
    seen = _Levels(config)
    seen(0, state.values)
    return _result("optimal", config, seen, controls, report)


def run_scenario(config: ScenarioConfig) -> RunSummary:
    """Solve the configured scenario(s), run the trajectory checks, and
    write all outputs.  A quarantine region that holds no node of the grid
    is a ConfigError: its control could not act.

    write_outputs writes into a hidden `.sqeiar-*` directory made in the
    nearest existing directory on the output path, so every os.replace
    stays on one filesystem.  Each file moves into place only once all are
    written and no target is a non-directory where a directory goes or a
    directory where a file goes.  So a failure before the moves leaves the
    output directory as it was, one during them can leave old and new files
    mixed, and the staging directory is removed either way."""
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
    out_dir = Path(config.output_dir).absolute()
    base = next(path for path in (out_dir, *out_dir.parents) if path.is_dir())
    staging = Path(tempfile.mkdtemp(prefix=".sqeiar-", dir=base))
    try:
        write_outputs(summary, config, staging)
        staged = [path for path in sorted(staging.rglob("*")) if path.is_file()]
        targets = [out_dir / path.relative_to(staging) for path in staged]
        for target in targets:  # every conflict is found before the first move
            for path in (target, *target.parents[:target.parents.index(base)]):
                # a directory where the file goes, or a non-directory where a directory goes
                if os.path.lexists(path) and path.is_dir() == (path == target):
                    raise OSError(f"{path} is {'a' if path == target else 'not a'} directory")
        for path, target in zip(staged, targets):
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
    finally:
        # a path sorts after its parent, so reverse order empties
        # directories before removing them
        for path in [*sorted(staging.rglob("*"), reverse=True), staging]:
            with contextlib.suppress(OSError):
                if path.is_dir():
                    path.rmdir()
                else:
                    path.unlink()
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


def _write_scenario(result: ScenarioResult, grid: Grid, directory: Path) -> None:
    """Field CSVs: header `t,x_0,...,x_{nx-1}`, one row per stored time
    level (every stride-th step and the last).  aggregates.csv: every step."""
    directory.mkdir(parents=True, exist_ok=True)
    header = "t," + ",".join(_format(x) for x in grid.x)
    times = grid.t[result.levels]
    for name, values in result.rows.items():
        _write_csv(directory / f"{name}.csv", header, times, values)
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
        _write_scenario(result, config.grid, output_dir / result.name)
        lines.extend(_summary_lines(result))
        lines.append("")
    if summary.deaths_averted is not None:
        lines.append(f"deaths averted (baseline - optimal) = "
                     f"{_format(summary.deaths_averted)}")
    (output_dir / "summary.txt").write_text("\n".join(lines) + "\n")
