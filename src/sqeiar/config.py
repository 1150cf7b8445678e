"""Scenario configuration: flat `section.key = value` files with documented
defaults (COVID-19 parameter set, unit-interval grid, single quarantine
region covering the domain)."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .control import SweepSettings
from .model import ContractError as ConfigError  # one error type for rejected input
from .model import CostWeights, ModelParams, QuarantineRegions
from .pde import Grid, positivity_bound

PROFILE_NAMES = ("paper_s0", "paper_e0", "paper_a0", "paper_i0", "zero")

# keyed in the state's compartment order, S Q E A I R, which initial_array stacks
DEFAULT_PROFILES = {
    "s": "paper_s0",
    "q": "zero",
    "e": "paper_e0",
    "a": "paper_a0",
    "i": "paper_i0",
    "r": "zero",
}

MODES = ("baseline", "optimal", "both")


def _require_known_profile(spec: str) -> None:
    if spec not in PROFILE_NAMES and not spec.startswith("file:"):
        raise ConfigError(f"unknown initial profile '{spec}' "
                          f"(expected one of {PROFILE_NAMES} or file:<path>)")


def evaluate_profile(spec: str, x: np.ndarray) -> np.ndarray:
    """Resolve a named initial profile (or `file:<path>`) on the grid nodes."""
    _require_known_profile(spec)
    if spec == "paper_s0":
        return 4000.0 * np.sin(np.pi * x) + 8000.0 * (1.0 - 1.0 / np.pi)
    if spec == "paper_e0":
        return 100.0 * np.exp(x) + 282.2
    if spec in ("paper_a0", "paper_i0"):
        return 500.0 * np.cos(np.pi * x) + 500.0
    if spec == "zero":
        return np.zeros_like(x)
    path = Path(spec[len("file:"):])
    try:
        # an empty file is reported below as a ConfigError, not as numpy's warning
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            values = np.loadtxt(path, dtype=float, ndmin=1)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read initial profile file {path}: {exc}") from exc
    if values.ndim != 1 or values.size != x.size:
        raise ConfigError(
            f"profile file {path} must hold one column of {x.size} values")
    # before the positivity advisory reads them: an inf would warn, then fail
    if not (values.min() >= 0 and values.max() < np.inf):  # NaN fails both
        raise ConfigError(f"profile file {path} must hold finite, nonnegative values")
    return values


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
        if self.seed < 0:
            raise ConfigError(f"output.seed must be >= 0, got {self.seed}")
        missing = set(DEFAULT_PROFILES) - set(self.profiles)
        if missing:
            raise ConfigError(f"initial profiles missing for: {sorted(missing)}")
        for spec in self.profiles.values():
            _require_known_profile(spec)
        self.grid.check_cfl(self.params)
        self.regions.check_inside(self.grid.x_min, self.grid.x_max)

    def positivity_step_warning(self, initial: np.ndarray) -> None:
        """Warn when an explicit Euler step may drive a compartment negative,
        that is when ``pde.positivity_bound`` of the evaluated initial
        profiles is at least 1.  A violation is reported, not rejected."""
        grid = self.grid
        bound = positivity_bound(initial, self.params, self.regions, grid)
        if bound >= 1.0:
            warnings.warn(
                f"on the {grid.nx} x {grid.nt} grid, 2 * D*dt/dx^2 + dt * (beta"
                f" + Lambda_max + 1/n + k + eta + f + 1 + xi) = {bound:.3g} >= 1;"
                f" compartments may go negative")

    def initial_array(self) -> np.ndarray:
        """The six initial profiles evaluated on the grid, shape (6, nx)."""
        x = self.grid.x
        return np.vstack([evaluate_profile(self.profiles[name], x) for name in DEFAULT_PROFILES])


# Sections whose keys are the scalar fields of one dataclass, by the
# ScenarioConfig field that holds it.  model.diffusion is a tuple and is
# parsed on its own.
_SECTIONS = {"model": ("params", ModelParams), "weights": ("weights", CostWeights),
             "grid": ("grid", Grid), "sweep": ("sweep", SweepSettings)}
# "section.name" -> (ScenarioConfig field, dataclass field, int or float)
_KEYS = {f"{section}.{f.name}": (attr, f.name, int if isinstance(f.default, int) else float)
         for section, (attr, cls) in _SECTIONS.items()
         for f in fields(cls) if f.name != "diffusion"}
_DIFFUSION_KEYS = {f"model.d{i}": i - 1 for i in range(1, 7)}


def _parse_number(key: str, raw: str, kind: type = float):
    try:
        return kind(raw)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key}: expected {expected}, got '{raw}'") from None


def parse_config_text(text: str, base_dir: Path | None = None) -> ScenarioConfig:
    """Parse the flat key-value format; unknown and repeated keys are errors."""
    scalars: dict[str, dict] = {attr: {} for attr, _ in _SECTIONS.values()}
    diffusion = [None] * 6
    diffusion_all = None
    regions: dict[int, tuple[float, float]] = {}
    profiles = dict(DEFAULT_PROFILES)
    output: dict = {}  # ScenarioConfig keyword arguments from output.*
    seen: dict[str, int] = {}

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
        if key in seen:
            raise ConfigError(f"line {lineno}: key '{key}' already set on line {seen[key]}")
        seen[key] = lineno
        section, _, name = key.partition(".")

        if key in _KEYS:
            attr, _, kind = _KEYS[key]
            scalars[attr][name] = _parse_number(key, value, kind)
        elif key == "model.diffusion":
            diffusion_all = _parse_number(key, value)
        elif key in _DIFFUSION_KEYS:
            diffusion[_DIFFUSION_KEYS[key]] = _parse_number(key, value)
        elif section == "regions":
            if not (name.isascii() and name.isdigit()):  # int() would take '²' or '٣' too
                raise ConfigError(f"unknown key '{key}' (use regions.<index> = a, b)")
            if int(name) in regions:  # regions.01 repeats regions.1
                raise ConfigError(f"line {lineno}: region {int(name)} is set twice")
            parts = [p.strip() for p in value.split(",")]
            if len(parts) != 2:
                raise ConfigError(f"{key}: expected 'a, b', got '{value}'")
            regions[int(name)] = (_parse_number(key, parts[0]),
                                  _parse_number(key, parts[1]))
        elif section == "initial" and name in DEFAULT_PROFILES:
            if value.startswith("file:") and base_dir is not None:
                path = Path(value[len("file:"):].strip())
                if not path.is_absolute():
                    value = f"file:{base_dir / path}"
            profiles[name] = value
        elif key == "output.mode":
            output["mode"] = value.lower()
        elif key == "output.dir":
            if not value:  # Path('') is the config's own directory
                raise ConfigError(f"{key}: expected a path, got ''")
            path = Path(value)
            output["output_dir"] = path if path.is_absolute() or base_dir is None \
                else base_dir / path
        elif key in ("output.stride", "output.seed"):
            output[name] = _parse_number(key, value, int)
        elif section in (*_SECTIONS, "initial", "output"):
            raise ConfigError(f"unknown key '{key}'")
        else:
            raise ConfigError(f"unknown section '{section}' in key '{key}'")

    if diffusion_all is not None or any(d is not None for d in diffusion):
        base = diffusion_all if diffusion_all is not None else ModelParams.diffusion[0]
        scalars["params"]["diffusion"] = tuple(base if d is None else d for d in diffusion)

    parts = {attr: cls(**scalars[attr]) for attr, cls in _SECTIONS.values()}
    if regions:
        parts["regions"] = QuarantineRegions(tuple(regions[i] for i in sorted(regions)))
    return ScenarioConfig(**parts, profiles=profiles, **output)


def load_config(path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc}") from exc
    return parse_config_text(text, base_dir=path.parent)


def render_config(config: ScenarioConfig) -> str:
    """``config`` in the accepted file format, one key per line, so that
    parse_config_text gives it back.  The diffusion is one value when all six
    coefficients agree and model.d1 ... model.d6 otherwise.  A value that the
    format cannot hold raises ConfigError naming its key: one with '#', which
    starts a comment, one with leading or trailing whitespace, which the parser
    strips, and one with a line break (any that str.splitlines splits on)."""
    lines = [f"{key} = {getattr(getattr(config, attr), name)}"
             for key, (attr, name, _) in _KEYS.items()]
    diffusion = config.params.diffusion
    if len(set(diffusion)) == 1:
        lines.append(f"model.diffusion = {diffusion[0]}")
    else:
        lines += [f"{key} = {diffusion[i]}" for key, i in _DIFFUSION_KEYS.items()]
    lines += [f"regions.{idx} = {a}, {b}"
              for idx, (a, b) in enumerate(config.regions.regions, start=1)]
    lines += [f"initial.{name} = {spec}" for name, spec in config.profiles.items()]
    lines += [
        f"output.mode = {config.mode}",
        f"output.dir = {config.output_dir}",
        f"output.stride = {config.stride}",
        f"output.seed = {config.seed}",
    ]
    for line in lines:
        key, _, value = line.partition(" = ")
        if "#" in value:
            raise ConfigError(f"{key}: value '{value}' holds '#', which starts a comment "
                              f"in the config format")
        if value != value.strip() or len(value.splitlines()) > 1:
            raise ConfigError(f"{key}: value {value!r} has leading or trailing whitespace "
                              f"or a line break, which the config format cannot hold")
    return "\n".join(lines) + "\n"


def render_defaults() -> str:
    """The fully-resolved default configuration in the accepted file format."""
    return "# fully-resolved default scenario\n" + render_config(ScenarioConfig())
