"""Independent checks that certify a run: discrete population balance,
positivity, finite-difference gradient and sensitivity oracles, and
aggregate metric extraction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import ControlPair, cost_functional, cost_gradient, directional_derivative
from .model import COMPARTMENTS, CostWeights, ModelParams, QuarantineRegions
from .pde import (Grid, Trajectory, _blocks, _forward_batch, adjoint_solve, require_aligned,
                  sensitivity_solve)
# The oracles take the base state from their caller and solve no base of their
# own.  The module keeps the name forward_solve, which benchmarks/tracing.py wraps.
from .pde import forward_solve

DEFAULT_SEED = 42

MASS_BALANCE_BOUND = 1e-8
POSITIVITY_BOUND = 1e-10
GRADIENT_REL_BOUND = 1e-5
GRADIENT_EPSILONS = (1e-3, 1e-4)  # decreasing: the decay ratio is first / last
GRADIENT_DIRECTIONS = 5
SENSITIVITY_EPSILONS = (1e-2, 1e-3)
DECAY_RATIO_RANGE = (5.0, 20.0)


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    measured: float
    bound: float
    detail: str = ""


@dataclass(frozen=True)
class RunMetrics:
    """Spatially integrated summary of one trajectory."""

    aggregates: dict[str, np.ndarray]  # compartment -> time series of integrals
    peak_value: dict[str, float]
    peak_time: dict[str, float]
    total_population: np.ndarray       # integral of N over time
    final_total_population: float
    deaths: float                      # N(0) - N(tau), integrated


def _integrals(levels: np.ndarray, wx: np.ndarray) -> np.ndarray:
    """Trapezoid integral over space of each compartment at each of ``levels``, shape
    (k, 6, nx): shape (6, k).  A gemv may round a level by its place in the block
    (OpenBLAS: by its group of 4 levels, and the last levels by another path), so each
    caller passes the blocks of pde._blocks, and the levels get the same bits however
    they were solved."""
    return np.stack([levels[:, c, :] @ wx for c in range(len(COMPARTMENTS))])


def _aggregates(traj: Trajectory) -> dict[str, np.ndarray]:
    """Trapezoid integral over space of each compartment, per time level, from the
    blocks of levels that a streamed solve hands over (see pde._forward_stream)."""
    wx = traj.grid.space_weights()
    series = np.hstack([_integrals(traj.values[lo:hi], wx)
                        for lo, hi in _blocks(traj.grid.nt)])
    return dict(zip(COMPARTMENTS, series))


def extract_metrics(traj: Trajectory) -> RunMetrics:
    """Trapezoid aggregates per compartment plus peak/death statistics."""
    return _metrics(_aggregates(traj), traj.grid)


def _metrics(aggregates: dict[str, np.ndarray], grid: Grid) -> RunMetrics:
    """extract_metrics from the aggregates at the levels of ``grid``."""
    total = sum(aggregates.values())
    times = grid.t
    peak_value = {name: float(series.max()) for name, series in aggregates.items()}
    peak_time = {name: float(times[int(series.argmax())])
                 for name, series in aggregates.items()}
    return RunMetrics(
        aggregates=aggregates,
        peak_value=peak_value,
        peak_time=peak_time,
        total_population=total,
        final_total_population=float(total[-1]),
        deaths=float(total[0] - total[-1]),
    )


def mass_balance_check(traj: Trajectory, params: ModelParams) -> CheckReport:
    """Discrete total-population balance: per step, the change of the
    integrated population equals dt * (alpha - 1) * f * integrated I,
    up to roundoff (the reflected stencil has zero weighted sum)."""
    return _balance(_aggregates(traj), params, traj.grid)


def _balance(aggregates: dict[str, np.ndarray], params: ModelParams,
             grid: Grid) -> CheckReport:
    """mass_balance_check from the aggregates at the levels of ``grid``."""
    total = sum(aggregates.values())
    expected = grid.dt * (params.alpha - 1.0) * params.f * aggregates["I"][:-1]
    residual = np.abs(np.diff(total) - expected)
    scale = max(total[0], 1.0)
    measured = float(residual.max() / scale) if residual.size else 0.0
    return CheckReport(
        name="mass_balance",
        passed=measured <= MASS_BALANCE_BOUND,
        measured=measured,
        bound=MASS_BALANCE_BOUND,
        detail=f"max |dN - dt*(alpha-1)*f*I| / N(0), N(0)={total[0]:.6g}",
    )


def positivity_check(traj: Trajectory) -> CheckReport:
    """Most negative compartment value, normalized by the initial population;
    a NaN anywhere fails the check, with measured NaN."""
    return _positivity(_lowest(traj.values), _population(traj.values[0], traj.grid))


def _lowest(levels: np.ndarray, first: int = 0) -> tuple[float, int, int, int]:
    """The least value of ``levels``, shape (k, 6, nx), whose row m is level first + m,
    and its (level, compartment, node): the first minimum, or the first NaN."""
    # one scan; where min would return NaN, argmin points at the first NaN
    m, comp, node = np.unravel_index(levels.argmin(), levels.shape)
    return float(levels[m, comp, node]), first + int(m), int(comp), int(node)


def _population(level: np.ndarray, grid: Grid) -> float:
    """The positivity check's scale: the total population of one level, at least 1."""
    return max(float(level.sum(axis=0) @ grid.space_weights()), 1.0)


def _positivity(lowest: tuple[float, int, int, int], scale: float) -> CheckReport:
    """positivity_check from the least value with its place (see _lowest) and the scale."""
    most_negative, step, comp, node = lowest
    # a NaN fails the check: max(0.0, -nan) would give 0.0
    measured = np.nan if np.isnan(most_negative) else max(0.0, -most_negative) / scale
    return CheckReport(
        name="positivity",
        passed=measured <= POSITIVITY_BOUND,
        measured=measured,
        bound=POSITIVITY_BOUND,
        detail=(f"most negative value {most_negative:.6g} "
                f"({COMPARTMENTS[comp]} at step {step}, node {node}), "
                f"scale {scale:.6g}"),
    )


def _random_directions(grid: Grid, regions: QuarantineRegions, count: int,
                       rng: np.random.Generator) -> list[tuple[np.ndarray, np.ndarray]]:
    """Perturbation directions: uniform in the admissible box, mean-centered.

    Returned as ``count`` pairs (h_u, h_v) of shape (nt + 1, nx), h_v zero
    off the region mask; the entries are signed and are NOT admissible
    controls.
    """
    shape = (grid.nt + 1, grid.nx)
    mask = regions.mask(grid.x).astype(float)
    directions = []
    for _ in range(count):
        du = rng.uniform(0.0, 1.0, shape)
        du -= du.mean()
        dv = rng.uniform(0.0, regions.v_max, shape) * mask
        if mask.any():  # else dv stays zero: no node lies in a region
            dv -= dv[:, mask.astype(bool)].mean()
            dv *= mask
        directions.append((du, dv))
    return directions


def gradient_oracle(state: Trajectory, base: ControlPair, params: ModelParams,
                    weights: CostWeights, regions: QuarantineRegions, grid: Grid,
                    seed: int = DEFAULT_SEED) -> CheckReport:
    """Compare the adjoint cost gradient along seeded random directions with
    the Richardson combination of one-sided divided differences at the two
    epsilons, and check first-order decay of the one-sided errors.

    ``state`` is forward_solve's trajectory at ``base``; the bumped solves start
    from its initial profiles.  A state solved elsewhere fails the check."""
    require_aligned(grid, regions, state, base)
    first, last = epsilons = GRADIENT_EPSILONS
    initial = state.values[0]
    directions = _random_directions(grid, regions, GRADIENT_DIRECTIONS,
                                    np.random.default_rng(seed))

    adjoint = adjoint_solve(state, base, weights, params, regions, grid)
    grad_u, grad_v = cost_gradient(state, adjoint, base, weights, regions, grid)
    j_base = cost_functional(state, base, weights, regions, grid)
    predicted = np.array([[directional_derivative(grad_u, grad_v, base, weights, h_u, h_v)]
                          for h_u, h_v in directions])
    del adjoint, grad_u, grad_v  # room for the batched solves below

    # fd[i]: divided differences along direction i per epsilon, then Richardson's;
    # one batched solve per epsilon, member i along direction i
    fd = np.zeros((GRADIENT_DIRECTIONS, 3))
    for k, eps in enumerate(epsilons):
        pairs = [ControlPair(base.u + eps * h_u, base.v + eps * h_v, grid, regions)
                 for h_u, h_v in directions]
        bumped = _forward_batch(initial, pairs, params, regions, grid)
        costs = [cost_functional(member, pair, weights, regions, grid)
                 for member, pair in zip(bumped, pairs)]
        fd[:, k] = (np.array(costs) - j_base) / eps
        del pairs, bumped  # before the next batch is made
    fd[:, 2] = (first * fd[:, 1] - last * fd[:, 0]) / (first - last)
    errors = np.abs(fd - predicted) / np.maximum(np.abs(fd), 1e-300)
    worst = float(errors[:, 2].max())
    ratios = errors[:, 0] / np.maximum(errors[:, 1], 1e-300)
    lo, hi = DECAY_RATIO_RANGE
    decay_ok = bool(np.all((ratios >= lo) & (ratios <= hi)))
    passed = worst < GRADIENT_REL_BOUND and decay_ok
    detail = (f"seed={seed}, epsilons={list(epsilons)}, "
              f"rel errors (per epsilon, Richardson)={np.array2string(errors, precision=3)}, "
              f"decay ratios={np.array2string(ratios, precision=3)}")
    return CheckReport(name="gradient_oracle", passed=passed, measured=worst,
                       bound=GRADIENT_REL_BOUND, detail=detail)


def sensitivity_oracle(state: Trajectory, base: ControlPair, params: ModelParams,
                       regions: QuarantineRegions, grid: Grid,
                       seed: int = DEFAULT_SEED) -> CheckReport:
    """Compare sensitivity_solve against divided differences of the
    nonlinear solve in the discrete L2 norm along one seeded random
    direction; the error must shrink proportionally to epsilon.  The complex
    step of sensitivity_solve is exact only while the forward step stays
    analytic; these black-box differences catch a step that is not.

    ``state`` is forward_solve's trajectory at ``base``; the linearized and
    bumped solves start from its initial profiles.  A state solved elsewhere
    fails the check."""
    require_aligned(grid, regions, state, base)
    epsilons = SENSITIVITY_EPSILONS
    initial = state.values[0]
    rng = np.random.default_rng(seed)
    [(h_u, h_v)] = _random_directions(grid, regions, 1, rng)

    lin = sensitivity_solve(initial, base, h_u, h_v, params, regions, grid)

    wx = grid.space_weights()
    wt = grid.time_weights()

    def l2(block):
        return float(np.sqrt(wt @ ((block ** 2).sum(axis=1) @ wx)))

    scale = max(l2(lin.values), 1e-300)
    # one batched solve, member k along the direction at epsilons[k]
    pairs = [ControlPair(base.u + eps * h_u, base.v + eps * h_v, grid, regions)
             for eps in epsilons]
    errs = []
    for eps, bumped in zip(epsilons, _forward_batch(initial, pairs, params, regions, grid)):
        divided = np.subtract(bumped.values, state.values)  # in place: one temporary field
        divided /= eps
        divided -= lin.values
        errs.append(l2(divided) / scale)

    lo, hi = DECAY_RATIO_RANGE
    ratio = errs[0] / max(errs[-1], 1e-300)
    detail = (f"seed={seed}, epsilons={list(epsilons)}, errors={errs}, "
              f"ratio errors[0] / errors[-1] must lie in [{lo:g}, {hi:g}]")
    return CheckReport(name="sensitivity_oracle", passed=lo <= ratio <= hi,
                       measured=ratio, bound=hi, detail=detail)
