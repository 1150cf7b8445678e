"""Smoke test of the benchmark itself, mostly on tiny grids (about ten seconds):

    python3 benchmarks/run.py --smoke

A traced `run --mode both` and a traced `check` must cover every layer the
per-layer metrics name, every check must pass on their outputs, and each
check must fail on a copy of those outputs with one value corrupted.
"""

from __future__ import annotations

import os
import re
import shutil
from pathlib import Path

import checks
import tracing
from run import CONFIGS, LAYER_METRICS, WORK, cli_op, reference_deaths, verify_op

MODES = ("baseline", "optimal")


def _edit_csv(path: Path, row: int, column: str | int, change) -> None:
    """Replace one cell by change(old value): data row ``row``, and a column
    named in the header (aggregates.csv) or a node index (field CSVs)."""
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    j = lines[0].split(",").index(column) if isinstance(column, str) else column + 1
    cells[j] = repr(change(float(cells[j])))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _scale_column(path: Path, column: str, factor: float) -> None:
    rows = len(path.read_text().splitlines()) - 1
    for row in range(rows):
        _edit_csv(path, row, column, lambda value: value * factor)


def _corruptions(sc, check_record, fine_agg, reference: float):
    """(label, corrupt the copy at ``bad``, run the check on ``bad``) per check."""
    def controlled(bad):
        agg = {m: checks.read_aggregates(bad / m) for m in MODES}
        return checks.check_controlled_bands(agg["optimal"], agg["baseline"],
                                             (bad / "summary.txt").read_text())

    def raise_cost(bad):
        path = bad / "summary.txt"
        path.write_text(re.sub(r"(\[optimal\]\ncost J = )\S+", r"\g<1>1e99",
                               path.read_text()))

    return [
        ("(a) population balance: S and N of one aggregates.csv row raised by 0.01",
         lambda bad: [_edit_csv(bad / "baseline" / "aggregates.csv", 10, column,
                                lambda v: v + 0.01) for column in ("S", "N")],
         lambda bad: checks.check_balance(checks.read_aggregates(bad / "baseline"), sc)),
        ("(b) ranges: one I value set to -1",
         lambda bad: _edit_csv(bad / "optimal" / "I.csv", 2, 5, lambda v: -1.0),
         lambda bad: checks.check_ranges(checks.read_fields(bad / "optimal"), sc)),
        ("(b) ranges: v nonzero at the boundary node, outside the region",
         lambda bad: _edit_csv(bad / "optimal" / "v.csv", 3, 0, lambda v: 1e-3),
         lambda bad: checks.check_ranges(checks.read_fields(bad / "optimal"), sc)),
        ("(c) initial rows: S at t = 0 raised by 1e-9 relative",
         lambda bad: _edit_csv(bad / "baseline" / "S.csv", 0, 3,
                               lambda v: v * (1 + 1e-9)),
         lambda bad: checks.check_initial_rows(checks.read_fields(bad / "baseline"), sc)),
        ("(d) uncontrolled bands: baseline E halved",
         lambda bad: _scale_column(bad / "baseline" / "aggregates.csv", "E", 0.5),
         lambda bad: checks.check_uncontrolled_bands(checks.read_aggregates(bad / "baseline"))),
        ("(d) controlled bands: optimal E raised tenfold",
         lambda bad: _scale_column(bad / "optimal" / "aggregates.csv", "E", 10.0),
         controlled),
        ("(d) J_optimal < J_baseline: optimal cost replaced by 1e99",
         raise_cost, controlled),
        ("(e) grid consistency: reference deaths raised by 1%",
         lambda bad: None,
         lambda bad: checks.check_grid_consistency(fine_agg, reference * 1.01)),
        ("(f) check output: one PASS line turned to FAIL, exit code 3",
         lambda bad: None,
         lambda bad: checks.check_check_output(
             3, check_record["stdout"].replace(": PASS", ": FAIL", 1))),
    ]


def main(sqeiar) -> int:
    work = WORK / f"smoke-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return _smoke(sqeiar, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _smoke(sqeiar, work: Path) -> int:
    config = CONFIGS / "smoke.conf"
    sc = checks.Scenario(config)
    problems = []

    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_record = tracer.run_op("run", lambda: cli_op(sqeiar, [
            "run", "--config", str(config), "--mode", "both", "--out", str(work / "run")]))
        check_record = tracer.run_op("check", lambda: cli_op(sqeiar, [
            "check", "--config", str(config)]))
    finally:
        tracer.uninstall()
    table = tracing.per_op(tracer.spans)
    layers = {layer for layer, _ in LAYER_METRICS.values()}
    seen = set(table["run"]) | set(table["check"])
    if layers - seen:
        problems.append(f"trace lacks layers {sorted(layers - seen)}")
    own = tracing.self_times(tracer.spans)
    wall = sum(s["end"] - s["start"] for s in tracer.spans if s["parent"] is None)
    if abs(sum(own.values()) - wall) > 1e-6 * wall:
        problems.append("self times do not add up to the traced wall time")
    print(f"trace: {len(tracer.spans)} spans over {len(seen)} layers, "
          f"self times sum to the {wall:.3f} s of wall time")

    # Check (e) is about the two workload grids themselves, so it runs on one
    # baseline-fine operation against the default grid, as the workload does.
    reference = reference_deaths(sqeiar, work)
    fine = CONFIGS / "fine.conf"
    fine_record = cli_op(sqeiar, ["run", "--config", str(fine), "--mode", "baseline",
                                  "--out", str(work / "fine")])
    fine_agg = checks.read_aggregates(work / "fine" / "baseline")

    for label, record, errors in [
        ("run on the smoke grid, checks (a)-(d)", run_record,
         verify_op(run_record, sc, MODES, True)),
        ("check, check (f)", check_record, verify_op(check_record, sc, MODES, True)),
        ("one baseline-fine operation, checks (a)-(e)", fine_record,
         verify_op(fine_record, checks.Scenario(fine), ("baseline",), True, reference)),
    ]:
        print(f"{'ok  ' if not errors else 'FAIL'} {label}")
        problems += [f"{label}: {e}" for e in errors]

    for label, corrupt, run_check in _corruptions(sc, check_record, fine_agg, reference):
        bad = work / "bad"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(work / "run", bad)
        corrupt(bad)
        errors = run_check(bad)
        print(f"{'ok  ' if errors else 'FAIL'} {label}: "
              f"{'rejected: ' + errors[0] if errors else 'not rejected'}")
        if not errors:
            problems.append(label)

    print("smoke: " + ("all checks behave" if not problems else "; ".join(problems)))
    return 0 if not problems else 1
