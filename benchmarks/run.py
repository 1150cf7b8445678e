"""Benchmark of the sqeiar command line, run in process.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all [--seconds S] [--trace 0|1]
    python3 benchmarks/run.py --smoke

One process, one caller: the workload's operations (each one CLI command)
run back to back in a closed loop until the next would overrun --seconds.
Every operation's output is checked afterwards (see checks.py); an
operation whose command fails or whose output fails a check counts as
failed.  With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics, with --trace 1 one with the per-layer metrics from a
traced run.  Times are scaled to a reference host speed (SpeedSampler).
The sqeiar package is imported from ../src, so the benchmark
measures the source tree it sits in.  See README.md for the workloads and
what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = HERE / "configs"
WORK = ROOT / ".bench_work"

WORKLOADS = {
    "optimal-default": {"config": "default.conf", "command": "run", "modes": ("baseline", "optimal")},
    "baseline-fine": {"config": "fine.conf", "command": "run", "modes": ("baseline",)},
    "check-small": {"config": "default.conf", "command": "check"},
}
CHECK_GRID = {"nx": 21, "tau": 3.0, "nt": 300}  # the grid `sqeiar check` always uses
SETUP_SPAWNS = 5
PROBE_BATCHES = 7
PROBE_CALLS = 200
COVERAGE_STEPS = 300

# The host's speed drifts by a third or more within minutes on shared
# machines, and CPU time drifts with it.  While operations run, a fixed
# loop of small-array numpy calls (the kind of work one solver step does) is
# timed every SAMPLE_INTERVAL_S from a SIGALRM handler, and each
# operation's times are scaled to the host speed at which that loop takes
# CALIBRATION_REFERENCE_S: time * reference / mean sample during the
# operation.
SAMPLE_INTERVAL_S = 0.02
CALIBRATION_WARMUP = 4
CALIBRATION_LOOPS = 12
CALIBRATION_REFERENCE_S = 1e-4

# A layer the workload's own operations never call is measured on one extra
# traced coverage operation instead: a short `run --mode both` or a `check`.
COVERAGE = {
    "pde.adjoint_solve": "run", "control.fbsm_solve": "run",
    "control.project_controls": "run", "verify.extract_metrics": "run",
    "runner.write_outputs": "run",
    "pde.sensitivity_solve": "check", "verify.gradient_oracle": "check",
    "verify.sensitivity_oracle": "check",
}

# per-layer metric -> (layer span name, quantity)
LAYER_METRICS = {
    "config.load_s": ("config.load_config", "s"),
    "pde.forward_solve.s": ("pde.forward_solve", "s"),
    "pde.forward_solve.calls": ("pde.forward_solve", "calls"),
    "pde.forward_solve.us_per_step": ("pde.forward_solve", "us_per_step"),
    "pde.adjoint_solve.s": ("pde.adjoint_solve", "s"),
    "pde.adjoint_solve.calls": ("pde.adjoint_solve", "calls"),
    "pde.adjoint_solve.us_per_step": ("pde.adjoint_solve", "us_per_step"),
    "pde.sensitivity_solve.s": ("pde.sensitivity_solve", "s"),
    "pde.sensitivity_solve.us_per_step": ("pde.sensitivity_solve", "us_per_step"),
    "control.fbsm_solve.s": ("control.fbsm_solve", "s"),
    "control.sweep.iterations": ("control.fbsm_solve", "iterations"),
    "control.cost_functional.s": ("control.cost_functional", "s"),
    "control.project_controls.s": ("control.project_controls", "s"),
    "verify.gradient_oracle.s": ("verify.gradient_oracle", "s"),
    "verify.sensitivity_oracle.s": ("verify.sensitivity_oracle", "s"),
    "verify.mass_balance_check.s": ("verify.mass_balance_check", "s"),
    "verify.positivity_check.s": ("verify.positivity_check", "s"),
    "verify.extract_metrics.s": ("verify.extract_metrics", "s"),
    "runner.write_outputs.s": ("runner.write_outputs", "s"),
    "runner.write_outputs.bytes": ("runner.write_outputs", "bytes"),
    "runner.write_outputs.mb_per_s": ("runner.write_outputs", "mb_per_s"),
    "cli.self_s": ("cli.main", "s"),
}
QUANTITY_UNITS = {"s": "s", "calls": "count", "us_per_step": "us", "iterations": "count",
                  "bytes": "bytes", "mb_per_s": "MB/s"}


def import_sqeiar():
    """Import sqeiar from this checkout's source tree, or exit non-zero."""
    if not (SRC / "sqeiar" / "__init__.py").is_file():
        sys.exit(f"error: no sqeiar package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import sqeiar
    import sqeiar.cli

    return sqeiar


def environment() -> dict:
    """What a like-for-like comparison needs; thread settings are recorded, not set."""
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ.get(name) for name in thread_vars},
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cli_op(sqeiar, argv: list[str]) -> dict:
    """One CLI command in process: wall and CPU time, exit code, captured output."""
    out, err = io.StringIO(), io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sqeiar.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "exception"
            traceback.print_exc()
    return {"argv": argv, "wall": time.perf_counter() - wall0,
            "cpu": time.process_time() - cpu0, "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def op_argv(workload: str, config: Path, out_dir: Path) -> list[str]:
    spec = WORKLOADS[workload]
    if spec["command"] == "check":
        return ["check", "--config", str(config)]
    mode = "both" if len(spec["modes"]) == 2 else spec["modes"][0]
    return ["run", "--config", str(config), "--mode", mode, "--out", str(out_dir)]


def closed_loop(seconds: float, run_one, round_size: int = 1) -> list[dict]:
    """Run whole rounds of operations until the next would end past ``seconds``."""
    records = []
    start = time.perf_counter()
    while True:
        for _ in range(round_size):
            records.append(run_one(len(records)))
        elapsed = time.perf_counter() - start
        per_round = statistics.median(r["wall"] for r in records) * round_size
        if elapsed + per_round > seconds:
            return records


def verify_op(record: dict, scenario, modes, bands: bool, reference_deaths=None) -> list[str]:
    """Failure messages for one operation; empty when it succeeded and checks pass."""
    if record["argv"][0] == "check":
        return checks.check_check_output(record["code"], record["stdout"])
    if record["code"] != 0:
        return [f"exit code {record['code']}: {record['stderr'].strip()[-500:]}"]
    try:
        return checks.check_run_output(Path(record["argv"][-1]), scenario, modes, bands,
                                       reference_deaths)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]


def reference_deaths(sqeiar, work: Path) -> float:
    """Deaths of the uncontrolled run on the default grid, for check (e)."""
    record = cli_op(sqeiar, ["run", "--config", str(CONFIGS / "default.conf"),
                             "--mode", "baseline", "--out", str(work / "reference")])
    if record["code"] != 0:
        sys.exit(f"error: reference run failed: {record['stderr']}")
    return checks.deaths(checks.read_aggregates(work / "reference" / "baseline"))


class SpeedSampler:
    """Times the calibration loop on every SIGALRM while entered."""

    def __init__(self):
        import numpy as np

        self.samples: list[float] = []
        self.dropped = 0
        self._np = np
        self._a = np.linspace(0.0, 1.0, 126).reshape(6, 21)

    def _loop(self, count: int) -> None:
        np, a = self._np, self._a
        for _ in range(count):
            b = a * 1.5 + a
            b[0] = b[1] - a[2]
            np.all(np.isfinite(b))

    def _sample(self, signum, frame) -> None:
        # Untimed warm-up first, so that the caches the operation left
        # behind do not slow the timed loops.  A sample during which another
        # thread of this process ran (a BLAS worker) is dropped: it would
        # charge the program's own threads to the host.
        self._loop(CALIBRATION_WARMUP)
        start, process, thread = time.perf_counter(), time.process_time(), time.thread_time()
        self._loop(CALIBRATION_LOOPS)
        elapsed = time.perf_counter() - start
        others = (time.process_time() - process) - (time.thread_time() - thread)
        if others < 0.1 * elapsed:
            self.samples.append(elapsed)
        else:
            self.dropped += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale_since(self, index: int) -> float:
        """Reference over the mean sample taken since ``index``."""
        window = self.samples[index:] or self.samples
        return CALIBRATION_REFERENCE_S / statistics.mean(window)


def sampled(sampler: SpeedSampler, fn) -> dict:
    """Run one operation and attach the host-speed scale measured during it."""
    first = len(sampler.samples)
    record = fn()
    return dict(record, scale=sampler.scale_since(first))


def setup_seconds(config: Path) -> float:
    """Median time from process start to a loaded config with its profiles."""
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), str(SRC),
                               str(config)], stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline().strip()
            times.append(time.perf_counter() - start)
            child.stdout.read()
        if line != "ready" or child.returncode != 0:
            sys.exit(f"error: set-up probe failed (exit {child.returncode})")
    return statistics.median(times)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(sqeiar, workload: str, seconds: float, work: Path) -> tuple[dict, list, list]:
    config = CONFIGS / WORKLOADS[workload]["config"]
    setup = setup_seconds(config)
    with SpeedSampler() as sampler:
        records = closed_loop(seconds, lambda k: sampled(
            sampler, lambda: cli_op(sqeiar, op_argv(workload, config, work / f"op{k}"))))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("unscaled " + json.dumps({
        "wall_s": statistics.median(r["wall"] for r in records),
        "cpu_s": statistics.median(r["cpu"] for r in records),
        "scale": statistics.median(r["scale"] for r in records),
        "samples": len(sampler.samples),
        "dropped": sampler.dropped,
    }))
    # Set-up time is not scaled: process start and imports track the loop's
    # speed poorly (scaling doubled the spread of set-up time over ten runs).
    metrics = {
        "wall_s": metric(statistics.median(r["wall"] * r["scale"] for r in records), "s"),
        "cpu_s": metric(statistics.median(r["cpu"] * r["scale"] for r in records), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "setup_s": metric(setup, "s"),
    }
    return metrics, records, []


def probe_us(fn, *args) -> float:
    """Median per-call time of ``fn(*args)`` in microseconds."""
    batches = []
    for _ in range(PROBE_BATCHES):
        start = time.perf_counter()
        for _ in range(PROBE_CALLS):
            fn(*args)
        batches.append((time.perf_counter() - start) / PROBE_CALLS * 1e6)
    return statistics.median(batches)


def model_probes(sqeiar, cfg) -> dict:
    """Per-call cost in µs of the per-step kernels at the workload's (6, nx) shape."""
    import numpy as np

    y = cfg.initial_array()
    nx = cfg.grid.nx
    u = np.full(nx, 0.3)
    v = 0.3 * cfg.regions.v_max * cfg.regions.mask(cfg.grid.x)
    v_max = cfg.regions.v_max
    return {
        "model.reaction_rhs.us": probe_us(sqeiar.reaction_rhs, y, u, v, cfg.params, v_max),
        "model.state_jacobian.us": probe_us(sqeiar.state_jacobian, y, u, v, cfg.params, v_max),
        "pde.neumann_laplacian.us": probe_us(sqeiar.neumann_laplacian, y, cfg.grid.dx),
    }


def coverage_config(config: Path, work: Path) -> Path:
    """The workload's config cut to COVERAGE_STEPS steps at the same dt and nx."""
    cut = {"grid.nt": COVERAGE_STEPS, "grid.tau": checks.Scenario(config).dt * COVERAGE_STEPS}
    lines = []
    for line in config.read_text().splitlines():
        key = line.split("=", 1)[0].strip()
        lines.append(f"{key} = {cut[key]!r}" if key in cut else line)
    path = work / "coverage.conf"
    path.write_text("\n".join(lines) + "\n")
    return path


def layer_value(rows: list[dict], quantity: str):
    """Median over operations of one layer quantity, times at reference speed."""
    if quantity == "s":
        values = [row["s"] * row["scale"] for row in rows]
    elif quantity == "us_per_step":
        values = [row["s"] * row["scale"] / row["steps"] * 1e6 for row in rows]
    elif quantity == "mb_per_s":
        values = [row["bytes"] / 1e6 / (row["s"] * row["scale"]) for row in rows]
    else:
        values = [row[quantity] for row in rows]
    return statistics.median(values)


def traced(sqeiar, workload: str, seconds: float, work: Path) -> tuple[dict, list, list]:
    from dataclasses import replace

    import tracing

    config = CONFIGS / WORKLOADS[workload]["config"]
    cfg = sqeiar.load_config(config)
    if WORKLOADS[workload]["command"] == "check":
        cfg = replace(cfg, grid=sqeiar.Grid(x_min=cfg.grid.x_min, x_max=cfg.grid.x_max, **CHECK_GRID))

    tracer = tracing.Tracer()
    with SpeedSampler() as sampler:
        probes = sampled(sampler, lambda: model_probes(sqeiar, cfg))
        tracer.install()
        try:
            def run_one(k):
                argv = op_argv(workload, config, work / f"op{k}")
                if k % 2 == 0:
                    return sampled(sampler, lambda: cli_op(sqeiar, argv))
                return dict(sampled(sampler, lambda: tracer.run_op(k, lambda: cli_op(sqeiar, argv))),
                            traced=True)

            # Rounds of one untraced and one traced operation; the difference
            # of their medians is the tracing overhead.
            records = closed_loop(seconds, run_one, round_size=2)
            table = tracing.per_op(tracer.spans)
            scales = {k: records[k]["scale"] for k in range(1, len(records), 2)}
            missing = {kind for layer, kind in COVERAGE.items()
                       if not any(layer in table[k] for k in scales)}
            coverage = []
            for kind in sorted(missing):
                k = f"coverage-{kind}"
                if kind == "check":
                    argv = ["check", "--config", str(config)]
                else:
                    argv = ["run", "--config", str(coverage_config(config, work)),
                            "--mode", "both", "--out", str(work / k)]
                coverage.append(dict(sampled(sampler, lambda: tracer.run_op(k, lambda: cli_op(sqeiar, argv))),
                                     traced=True))
                scales[k] = coverage[-1]["scale"]
        finally:
            tracer.uninstall()

    metrics = {name: metric(us * probes["scale"], "us")
               for name, us in probes.items() if name != "scale"}
    nt, nx = cfg.grid.nt, cfg.grid.nx
    metrics["pde.trajectory_bytes"] = metric((nt + 1) * 6 * nx * 8, "bytes")
    table = tracing.per_op(tracer.spans)
    main_ops = [k for k in scales if isinstance(k, int)]
    for name, (layer, quantity) in LAYER_METRICS.items():
        ops = [k for k in main_ops if layer in table[k]] or [f"coverage-{COVERAGE[layer]}"]
        rows = [dict(table[k][layer], scale=scales[k]) for k in ops]
        metrics[name] = metric(layer_value(rows, quantity), QUANTITY_UNITS[quantity])
    untraced_wall = statistics.median(r["wall"] * r["scale"] for r in records if not r.get("traced"))
    traced_wall = statistics.median(r["wall"] * r["scale"] for r in records if r.get("traced"))
    metrics["trace.wall_s"] = metric(traced_wall, "s")
    metrics["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    metrics["trace.overhead_pct"] = metric(100.0 * (traced_wall / untraced_wall - 1.0), "%")

    spans_file = WORK / f"spans-{workload}.json"
    spans_file.write_text(json.dumps({"workload": workload, "environment": environment(),
                                      "spans": tracer.spans}) + "\n")
    return metrics, records, coverage


def run_workload(workload: str, seed: int, seconds: float, trace_mode: bool) -> int:
    sqeiar = import_sqeiar()
    spec = WORKLOADS[workload]
    config = CONFIGS / spec["config"]
    scenario = checks.Scenario(config)
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-{os.getpid()}"
    work.mkdir()
    try:
        reference = reference_deaths(sqeiar, work) if workload == "baseline-fine" else None
        measure = traced if trace_mode else end_to_end
        metrics, records, coverage = measure(sqeiar, workload, seconds, work)
        failures = {}
        for k, record in enumerate(records):
            errors = verify_op(record, scenario, spec.get("modes"), True, reference)
            if errors:
                failures[f"op{k}"] = errors
        coverage_scenario = checks.Scenario(work / "coverage.conf") \
            if (work / "coverage.conf").exists() else None
        for record in coverage:
            errors = verify_op(record, coverage_scenario, ("baseline", "optimal"), False)
            if errors:
                failures[f"coverage {record['argv'][0]}"] = errors
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(records) + len(coverage)
    wrong_output = any(not msg.startswith("exit code") for errors in failures.values()
                       for msg in errors)
    for name, errors in failures.items():
        print(f"FAILED {name}: " + "; ".join(errors), file=sys.stderr)
    print("environment " + json.dumps({**environment(), "seed": seed}))
    print(json.dumps({"correct": not wrong_output, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace_mode: bool) -> int:
    """Each workload in its own process, then one table of the results."""
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace_mode))]
        done = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{workload}: exit code {done.returncode}")
            status = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for name, m in result["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        if result["failed"] or not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: every workload's inputs are fixed (see README)")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every check and the trace on tiny grids, and "
                             "confirm each check rejects a corrupted output")
    args = parser.parse_args(argv)
    if args.smoke:
        import smoke

        return smoke.main(import_sqeiar())
    if args.workload is None:
        parser.error("--workload or --smoke is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
