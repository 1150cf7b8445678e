"""Scenario configuration: flat `section.key = value` files with documented
defaults (COVID-19 parameter set, unit-interval grid, single quarantine
region covering the domain)."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .control import SweepSettings
from .model import ContractError, CostWeights, ModelParams, QuarantineRegions
from .pde import Grid


class ConfigError(ValueError):
    """Bad configuration file or invariant violation, with the key path."""


PROFILE_NAMES = ("paper_s0", "paper_e0", "paper_a0", "paper_i0", "zero")

DEFAULT_PROFILES = {
    "s": "paper_s0",
    "q": "zero",
    "e": "paper_e0",
    "a": "paper_a0",
    "i": "paper_i0",
    "r": "zero",
}

MODES = ("baseline", "optimal", "both")


def evaluate_profile(spec: str, x: np.ndarray) -> np.ndarray:
    """Resolve a named initial profile (or `file:<path>`) on the grid nodes."""
    if spec == "paper_s0":
        return 4000.0 * np.sin(np.pi * x) + 8000.0 * (1.0 - 1.0 / np.pi)
    if spec == "paper_e0":
        return 100.0 * np.exp(x) + 282.2
    if spec in ("paper_a0", "paper_i0"):
        return 500.0 * np.cos(np.pi * x) + 500.0
    if spec == "zero":
        return np.zeros_like(x)
    if spec.startswith("file:"):
        path = Path(spec[len("file:"):])
        if not path.exists():
            raise ConfigError(f"initial profile file not found: {path}")
        values = np.loadtxt(path, dtype=float, ndmin=1)
        if values.ndim != 1 or values.size != x.size:
            raise ConfigError(
                f"profile file {path} must hold one column of {x.size} values")
        return values
    raise ConfigError(
        f"unknown initial profile '{spec}' (expected one of {PROFILE_NAMES} or file:<path>)")


@dataclass(frozen=True)
class ScenarioConfig:
    params: ModelParams = ModelParams()
    weights: CostWeights = CostWeights()
    regions: QuarantineRegions = QuarantineRegions(((0.0, 1.0),))
    grid: Grid = Grid()
    profiles: dict = field(default_factory=lambda: dict(DEFAULT_PROFILES))
    sweep: SweepSettings = SweepSettings()
    mode: str = "both"
    seed: int = 42
    output_dir: Path = Path("out")
    stride: int = 100

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"output.mode must be one of {MODES}, got '{self.mode}'")
        if self.stride < 1:
            raise ConfigError(f"output.stride must be >= 1, got {self.stride}")
        missing = set(DEFAULT_PROFILES) - set(self.profiles)
        if missing:
            raise ConfigError(f"initial profiles missing for: {sorted(missing)}")
        self.grid.check_cfl(self.params)
        self.regions.check_inside(self.grid.x_min, self.grid.x_max)
        self.positivity_step_warning()

    def positivity_step_warning(self) -> str | None:
        """Advisory bound on dt for a positivity-preserving reaction update.

        The force-of-infection bound is estimated from the initial total
        population; a violation is reported, not rejected.
        """
        import warnings

        p = self.params
        wx = self.grid.space_weights()
        initial = self.initial_array()
        n0 = float(initial.sum(axis=0) @ wx)
        lam_max = p.delta * n0 + (1.0 - p.q) * n0 + p.mu * n0
        rate = (p.beta + lam_max + self.regions.v_max + p.k + p.eta + p.f
                + 1.0 + p.xi)
        if self.grid.dt * rate >= 1.0:
            message = (f"dt * (beta + Lambda_max + 1/n + k + eta + f + 1 + xi)"
                       f" = {self.grid.dt * rate:.3g} >= 1; compartments may"
                       f" go negative")
            warnings.warn(message, stacklevel=2)
            return message
        return None

    def initial_array(self) -> np.ndarray:
        """The six initial profiles evaluated on the grid, shape (6, nx)."""
        x = self.grid.x
        rows = [evaluate_profile(self.profiles[name], x)
                for name in ("s", "q", "e", "a", "i", "r")]
        return np.vstack(rows)


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got '{raw}'") from None


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got '{raw}'") from None


_MODEL_KEYS = [f.name for f in fields(ModelParams) if f.name != "diffusion"]
_WEIGHT_KEYS = [f.name for f in fields(CostWeights)]
_GRID_KEYS = ("x_min", "x_max", "nx", "nt", "tau")  # in rendered order
_GRID_INT_KEYS = {"nx", "nt"}


def parse_config_text(text: str, base_dir: Path | None = None) -> ScenarioConfig:
    """Parse the flat key-value format; unknown keys are errors."""
    model_kw: dict = {}
    diffusion = [None] * 6
    diffusion_all = None
    weight_kw: dict = {}
    grid_kw: dict = {}
    regions: dict[int, tuple[float, float]] = {}
    profiles = dict(DEFAULT_PROFILES)
    sweep_kw: dict = {}
    mode = "both"
    seed = 42
    output_dir = Path("out")
    stride = 100

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if "." not in key:
            raise ConfigError(f"line {lineno}: key '{key}' lacks a section prefix")
        section, _, name = key.partition(".")

        if section == "model":
            if name in _MODEL_KEYS:
                model_kw[name] = _parse_float(key, value)
            elif name == "diffusion":
                diffusion_all = _parse_float(key, value)
            elif name in {f"d{i}" for i in range(1, 7)}:
                diffusion[int(name[1]) - 1] = _parse_float(key, value)
            else:
                raise ConfigError(f"unknown key '{key}'")
        elif section == "weights":
            if name not in _WEIGHT_KEYS:
                raise ConfigError(f"unknown key '{key}'")
            weight_kw[name] = _parse_float(key, value)
        elif section == "grid":
            if name in _GRID_INT_KEYS:
                grid_kw[name] = _parse_int(key, value)
            elif name in _GRID_KEYS:
                grid_kw[name] = _parse_float(key, value)
            else:
                raise ConfigError(f"unknown key '{key}'")
        elif section == "regions":
            if not name.isdigit():
                raise ConfigError(f"unknown key '{key}' (use regions.<index> = a, b)")
            parts = [p.strip() for p in value.split(",")]
            if len(parts) != 2:
                raise ConfigError(f"{key}: expected 'a, b', got '{value}'")
            regions[int(name)] = (_parse_float(key, parts[0]),
                                  _parse_float(key, parts[1]))
        elif section == "initial":
            if name not in DEFAULT_PROFILES:
                raise ConfigError(f"unknown key '{key}'")
            if value.startswith("file:") and base_dir is not None:
                path = Path(value[len("file:"):].strip())
                if not path.is_absolute():
                    value = f"file:{base_dir / path}"
            profiles[name] = value
        elif section == "sweep":
            if name in ("tolerance", "relaxation"):
                sweep_kw[name] = _parse_float(key, value)
            elif name == "max_iterations":
                sweep_kw[name] = _parse_int(key, value)
            else:
                raise ConfigError(f"unknown key '{key}'")
        elif section == "output":
            if name == "mode":
                mode = value.lower()
            elif name == "dir":
                path = Path(value)
                output_dir = path if path.is_absolute() or base_dir is None \
                    else base_dir / path
            elif name == "stride":
                stride = _parse_int(key, value)
            elif name == "seed":
                seed = _parse_int(key, value)
            else:
                raise ConfigError(f"unknown key '{key}'")
        else:
            raise ConfigError(f"unknown section '{section}' in key '{key}'")

    if diffusion_all is not None or any(d is not None for d in diffusion):
        base = diffusion_all if diffusion_all is not None else 0.001
        model_kw["diffusion"] = tuple(base if d is None else d for d in diffusion)

    try:
        params = ModelParams(**model_kw)
        weights = CostWeights(**weight_kw)
        grid = Grid(**grid_kw)
        if regions:
            region_list = QuarantineRegions(
                tuple(regions[i] for i in sorted(regions)))
        else:
            region_list = QuarantineRegions(((0.0, 1.0),))
        sweep = SweepSettings(**sweep_kw)
        return ScenarioConfig(params=params, weights=weights, regions=region_list,
                              grid=grid, profiles=profiles, sweep=sweep, mode=mode,
                              seed=seed, output_dir=output_dir, stride=stride)
    except ContractError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"configuration file not found: {path}")
    return parse_config_text(path.read_text(), base_dir=path.parent)


def render_defaults() -> str:
    """The fully-resolved default configuration in the accepted file format."""
    cfg = ScenarioConfig()
    lines = ["# fully-resolved default scenario"]
    lines += [f"model.{name} = {getattr(cfg.params, name)}" for name in _MODEL_KEYS]
    lines.append(f"model.diffusion = {cfg.params.diffusion[0]}")
    lines += [f"weights.{name} = {getattr(cfg.weights, name)}" for name in _WEIGHT_KEYS]
    lines += [f"regions.{idx} = {a}, {b}"
              for idx, (a, b) in enumerate(cfg.regions.regions, start=1)]
    lines += [f"grid.{name} = {getattr(cfg.grid, name)}" for name in _GRID_KEYS]
    lines += [f"initial.{name} = {spec}" for name, spec in cfg.profiles.items()]
    lines += [f"sweep.{f.name} = {getattr(cfg.sweep, f.name)}" for f in fields(cfg.sweep)]
    lines += [
        f"output.mode = {cfg.mode}",
        f"output.dir = {cfg.output_dir}",
        f"output.stride = {cfg.stride}",
        f"output.seed = {cfg.seed}",
    ]
    return "\n".join(lines) + "\n"
