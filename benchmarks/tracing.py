"""Spans around the public functions of each sqeiar module, recorded from
outside the package.

A function is wrapped at the module attribute its caller looks up, so
``sqeiar.control.forward_solve`` (looked up by ``fbsm_solve``) and
``sqeiar.runner.forward_solve`` (looked up by the baseline run) are wrapped
separately but report under one layer name.  Spans stay in memory; each
holds a name, start, end, parent span and the operation it belongs to.
"""

from __future__ import annotations

import functools
import importlib
import time
from pathlib import Path

# (module, attribute) -> layer name.  The cli imports the runner, pde and
# verify names inside its command functions, so those are looked up on the
# defining modules at call time.
TARGETS = {
    ("sqeiar.cli", "load_config"): "config.load_config",
    ("sqeiar.runner", "run_scenario"): "runner.run_scenario",
    ("sqeiar.runner", "write_outputs"): "runner.write_outputs",
    ("sqeiar.runner", "forward_solve"): "pde.forward_solve",
    ("sqeiar.runner", "cost_functional"): "control.cost_functional",
    ("sqeiar.runner", "fbsm_solve"): "control.fbsm_solve",
    ("sqeiar.runner", "mass_balance_check"): "verify.mass_balance_check",
    ("sqeiar.runner", "positivity_check"): "verify.positivity_check",
    ("sqeiar.runner", "extract_metrics"): "verify.extract_metrics",
    ("sqeiar.control", "forward_solve"): "pde.forward_solve",
    ("sqeiar.control", "adjoint_solve"): "pde.adjoint_solve",
    ("sqeiar.control", "cost_functional"): "control.cost_functional",
    ("sqeiar.control", "project_controls"): "control.project_controls",
    ("sqeiar.pde", "forward_solve"): "pde.forward_solve",
    ("sqeiar.verify", "forward_solve"): "pde.forward_solve",
    ("sqeiar.verify", "adjoint_solve"): "pde.adjoint_solve",
    ("sqeiar.verify", "sensitivity_solve"): "pde.sensitivity_solve",
    ("sqeiar.verify", "cost_functional"): "control.cost_functional",
    ("sqeiar.verify", "cost_gradient"): "control.cost_gradient",
    ("sqeiar.verify", "mass_balance_check"): "verify.mass_balance_check",
    ("sqeiar.verify", "positivity_check"): "verify.positivity_check",
    ("sqeiar.verify", "gradient_oracle"): "verify.gradient_oracle",
    ("sqeiar.verify", "sensitivity_oracle"): "verify.sensitivity_oracle",
}

ROOT = "cli.main"


def _time_steps(args, kwargs) -> int | None:
    """nt of the Grid argument of a solver call."""
    from sqeiar.pde import Grid

    for value in (*args, *kwargs.values()):
        if isinstance(value, Grid):
            return value.nt
    return None


def _bytes_under(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).rglob("*") if p.is_file())


# Extra facts recorded once a call returns, outside its span.
_AFTER = {
    "pde.forward_solve": lambda args, kwargs, result: {"steps": _time_steps(args, kwargs)},
    "pde.adjoint_solve": lambda args, kwargs, result: {"steps": _time_steps(args, kwargs)},
    "pde.sensitivity_solve": lambda args, kwargs, result: {"steps": _time_steps(args, kwargs)},
    "control.fbsm_solve": lambda args, kwargs, result: {"iterations": result[3].iterations},
    "runner.write_outputs": lambda args, kwargs, result: {"bytes": _bytes_under(args[2])},
}


class Tracer:
    """Records spans while installed; ``uninstall`` restores the originals."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def install(self) -> None:
        for (module_name, attr), name in TARGETS.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "op": self.op,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, name: str):
        after = _AFTER.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                span.update(after(args, kwargs, result))
            return result

        return traced

    def run_op(self, op, fn):
        """Call ``fn`` under a root span tagged with operation ``op``."""
        self.op = op
        span = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(span)
            self.op = None


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its child spans."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def per_op(spans: list[dict]) -> dict:
    """op -> layer name -> {"s": self seconds, "calls", "steps", ...} summed."""
    own = self_times(spans)
    table: dict = {}
    for s in spans:
        row = table.setdefault(s["op"], {}).setdefault(
            s["name"], {"s": 0.0, "calls": 0, "steps": 0, "iterations": 0, "bytes": 0})
        row["s"] += own[s["id"]]
        row["calls"] += 1
        for key in ("steps", "iterations", "bytes"):
            row[key] += s.get(key) or 0
    return table
