"""Correctness checks on the outputs of one benchmark operation.

Every check recomputes what it expects from a formula, a property of the
numerical method or a band from the paper, never from a stored copy of an
earlier output.  Each check returns a list of failure messages; an empty
list is a pass.  The benchmark reads the scenario values it needs (grid,
removal rate, regions) from the same config file the operation loaded,
with a parser of its own.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

COMPARTMENTS = ("S", "Q", "E", "A", "I", "R")
CHECK_NAMES = ("mass_balance", "positivity", "gradient_oracle", "sensitivity_oracle")

# (a) per-step residual of the population balance, relative to N(0); the
# CSVs carry 17 significant digits, so roundoff is far below this.
BALANCE_BOUND = 1e-8
# (c) the t = 0 row round-trips through 17-digit text; allow a few ulps.
PROFILE_REL_TOL = 1e-12
# (e) forward Euler is first order in dt.  The deaths on the 51 x 1500 grid
# (dt = 0.02) differ from the default 101 x 3000 grid (dt = 0.01) by
# 4.5e-5 relative, so a finer grid must land within twice that of the
# default grid's figure.
GRID_DEATHS_REL_TOL = 1e-4


class Scenario:
    """The values of a scenario config file that the checks need."""

    def __init__(self, path: Path):
        values = {}
        for raw in Path(path).read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                key, _, value = line.partition("=")
                values[key.strip().lower()] = value.strip()
        self.nx = int(values["grid.nx"])
        self.nt = int(values["grid.nt"])
        self.tau = float(values["grid.tau"])
        self.x_min = float(values["grid.x_min"])
        self.x_max = float(values["grid.x_max"])
        self.f = float(values["model.f"])
        self.alpha = float(values["model.alpha"])
        self.stride = int(values["output.stride"])
        self.regions = []
        for key, value in values.items():
            if key.startswith("regions."):
                a, b = (float(part) for part in value.split(","))
                self.regions.append((a, b))
        self.profiles = {name: values[f"initial.{name.lower()}"] for name in COMPARTMENTS}

    @property
    def dt(self) -> float:
        return self.tau / self.nt

    @property
    def v_max(self) -> float:
        return 1.0 / len(self.regions)

    def in_region(self, x: float) -> bool:
        return any(a < x < b for a, b in self.regions)


def paper_profile(name: str, x: float) -> float:
    """The paper's initial profiles, evaluated from their formulas."""
    if name == "paper_s0":
        return 4000.0 * math.sin(math.pi * x) + 8000.0 * (1.0 - 1.0 / math.pi)
    if name == "paper_e0":
        return 100.0 * math.exp(x) + 282.2
    if name in ("paper_a0", "paper_i0"):
        return 500.0 * math.cos(math.pi * x) + 500.0
    if name == "zero":
        return 0.0
    raise ValueError(f"no formula for initial profile {name!r}")


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, rows


def read_aggregates(directory: Path) -> dict[str, list[float]]:
    """Columns of aggregates.csv by name: t, S .. R, N."""
    header, rows = read_csv(Path(directory) / "aggregates.csv")
    return {name: [row[j] for row in rows] for j, name in enumerate(header)}


def read_fields(directory: Path) -> dict[str, tuple[list[float], list[list[float]]]]:
    """Each field CSV as (x nodes, rows), where a row is [t, values...]."""
    fields = {}
    for name in COMPARTMENTS + ("u", "v"):
        header, rows = read_csv(Path(directory) / f"{name}.csv")
        fields[name] = ([float(x) for x in header[1:]], rows)
    return fields


def deaths(agg: dict[str, list[float]]) -> float:
    return agg["N"][0] - agg["N"][-1]


def check_balance(agg: dict[str, list[float]], sc: Scenario) -> list[str]:
    """(a) N(m+1) - N(m) = dt (alpha - 1) f I(m), and N is the sum of S .. R."""
    errors = []
    n = agg["N"]
    if len(n) != sc.nt + 1:
        return [f"aggregates.csv has {len(n)} rows, expected {sc.nt + 1}"]
    scale = max(n[0], 1.0)
    worst_sum = max(abs(sum(agg[c][m] for c in COMPARTMENTS) - n[m]) for m in range(len(n)))
    if worst_sum > 1e-12 * scale:
        errors.append(f"N differs from S+Q+E+A+I+R by {worst_sum:.3g}")
    coef = sc.dt * (sc.alpha - 1.0) * sc.f
    worst = max(abs(n[m + 1] - n[m] - coef * agg["I"][m]) for m in range(sc.nt))
    if worst > BALANCE_BOUND * scale:
        errors.append(f"population balance residual {worst / scale:.3g} of N(0) "
                      f"exceeds {BALANCE_BOUND}")
    return errors


def check_ranges(fields, sc: Scenario) -> list[str]:
    """(b) compartments >= 0, u in [0, 1], v in [0, 1/n] and 0 off the regions."""
    errors = []
    for name in COMPARTMENTS:
        low = min(min(row[1:]) for row in fields[name][1])
        if low < 0.0:
            errors.append(f"{name} has negative value {low:.6g}")
    u_rows = fields["u"][1]
    u_low = min(min(row[1:]) for row in u_rows)
    u_high = max(max(row[1:]) for row in u_rows)
    if u_low < 0.0 or u_high > 1.0:
        errors.append(f"u spans [{u_low:.6g}, {u_high:.6g}], outside [0, 1]")
    x, v_rows = fields["v"]
    v_low = min(min(row[1:]) for row in v_rows)
    v_high = max(max(row[1:]) for row in v_rows)
    if v_low < 0.0 or v_high > sc.v_max:
        errors.append(f"v spans [{v_low:.6g}, {v_high:.6g}], outside [0, {sc.v_max}]")
    off = [j for j, xj in enumerate(x) if not sc.in_region(xj)]
    if any(row[1 + j] != 0.0 for row in v_rows for j in off):
        errors.append("v is nonzero outside the quarantine regions")
    return errors


def check_initial_rows(fields, sc: Scenario) -> list[str]:
    """(c) the t = 0 row of each compartment equals the paper's profile."""
    errors = []
    dx = (sc.x_max - sc.x_min) / (sc.nx - 1)
    for name in COMPARTMENTS:
        x, rows = fields[name]
        if len(x) != sc.nx or any(abs(xj - (sc.x_min + j * dx)) > 1e-12 for j, xj in enumerate(x)):
            errors.append(f"{name}.csv header is not the {sc.nx}-node grid")
            continue
        if rows[0][0] != 0.0:
            errors.append(f"{name}.csv first row is at t = {rows[0][0]}, not 0")
            continue
        worst = max(abs(value - paper_profile(sc.profiles[name], xj))
                    / max(1.0, abs(paper_profile(sc.profiles[name], xj)))
                    for xj, value in zip(x, rows[0][1:]))
        if worst > PROFILE_REL_TOL:
            errors.append(f"{name} at t = 0 differs from {sc.profiles[name]} "
                          f"by {worst:.3g} relative")
    return errors


def _window_max(agg, name, t_lo, t_hi) -> float:
    return max(v for t, v in zip(agg["t"], agg[name]) if t_lo <= t <= t_hi)


def _first_time_below(agg, name, level) -> float | None:
    return next((t for t, v in zip(agg["t"], agg[name]) if v < level), None)


def check_uncontrolled_bands(agg) -> list[str]:
    """(d) the paper's uncontrolled epidemic-curve bands (acceptance criterion 5)."""
    t_collapse = _first_time_below(agg, "S", 80.0)
    bands = {
        "S below 80 by day 10": t_collapse is not None and t_collapse <= 10.0,
        "E above 1800 in days 5-15": _window_max(agg, "E", 5, 15) > 1800.0,
        "A in 2000-4000 in days 5-20": 2000.0 < _window_max(agg, "A", 5, 20) <= 4000.0,
        "I above 1800 in days 8-20": _window_max(agg, "I", 8, 20) > 1800.0,
        "final R above 8000": agg["R"][-1] > 8000.0,
    }
    return [f"uncontrolled band missed: {name}" for name, ok in bands.items() if not ok]


def check_controlled_bands(optimal, baseline, summary_text: str) -> list[str]:
    """(d) the paper's controlled bands (criterion 6), J_opt < J_base, deaths averted."""
    t_clear = _first_time_below(optimal, "I", 50.0)
    averted = deaths(baseline) - deaths(optimal)
    bands = {
        "E peak below 1500": max(optimal["E"]) < 1500.0,
        "A peak below 1500": max(optimal["A"]) < 1500.0,
        "I below 50 by day 25": t_clear is not None and t_clear <= 25.0,
        "Q above 3000 at some time": max(optimal["Q"]) > 3000.0,
        "final R at most 4500": optimal["R"][-1] <= 4500.0,
        "at least 40 deaths averted": averted >= 40.0,
    }
    errors = [f"controlled band missed: {name}" for name, ok in bands.items() if not ok]
    costs = dict(re.findall(r"^\[(\w+)\]\ncost J = (\S+)$", summary_text, re.MULTILINE))
    if set(costs) != {"baseline", "optimal"}:
        errors.append("summary.txt lacks the cost of both runs")
    elif not float(costs["optimal"]) < float(costs["baseline"]):
        errors.append(f"J_optimal {costs['optimal']} is not below J_baseline {costs['baseline']}")
    return errors


def check_grid_consistency(agg, reference_deaths: float) -> list[str]:
    """(e) deaths on a finer grid agree with the default grid's deaths."""
    gap = abs(deaths(agg) - reference_deaths) / reference_deaths
    if gap > GRID_DEATHS_REL_TOL:
        return [f"deaths {deaths(agg):.10g} differ from the default grid's "
                f"{reference_deaths:.10g} by {gap:.3g} relative "
                f"(tolerance {GRID_DEATHS_REL_TOL})"]
    return []


def check_check_output(code: int, stdout: str) -> list[str]:
    """(f) `sqeiar check` exits 0 and prints one PASS line per check."""
    errors = [] if code == 0 else [f"check exited with code {code}"]
    passed = re.findall(r"^(\w+): PASS ", stdout, re.MULTILINE)
    if sorted(passed) != sorted(CHECK_NAMES):
        errors.append(f"PASS lines for {passed}, expected one for each of {list(CHECK_NAMES)}")
    return errors


def check_run_output(out_dir: Path, sc: Scenario, modes: tuple[str, ...],
                     bands: bool, reference_deaths: float | None = None) -> list[str]:
    """Checks (a)-(e) on the output directory of one `sqeiar run`."""
    errors = []
    aggregates = {}
    for mode in modes:
        directory = Path(out_dir) / mode
        agg = read_aggregates(directory)
        fields = read_fields(directory)
        aggregates[mode] = agg
        errors += [f"{mode}: {e}" for e in check_balance(agg, sc)
                   + check_ranges(fields, sc) + check_initial_rows(fields, sc)]
        if bands and mode == "baseline":
            errors += [f"baseline: {e}" for e in check_uncontrolled_bands(agg)]
    if bands and "optimal" in modes:
        summary = (Path(out_dir) / "summary.txt").read_text()
        errors += check_controlled_bands(aggregates["optimal"], aggregates["baseline"], summary)
    if reference_deaths is not None:
        errors += check_grid_consistency(aggregates["baseline"], reference_deaths)
    return errors
