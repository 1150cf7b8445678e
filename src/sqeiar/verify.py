"""Independent checks that certify a run: discrete population balance,
positivity, finite-difference gradient and sensitivity oracles, and
aggregate metric extraction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import (ControlPair, _cost, _dot, _state_cost, _state_weights, cost_functional,
                      cost_gradient)
from .model import _I, COMPARTMENTS, CostWeights, ModelParams, QuarantineRegions
from .pde import Grid, Trajectory, _forward_batch, require_aligned, sensitivity_solve
# The oracles take the base state from their caller and solve no base of their own,
# and cost_gradient streams the adjoint through sqeiar.control.  The module keeps the
# names forward_solve and adjoint_solve, which benchmarks/tracing.py wraps.
from .pde import adjoint_solve, forward_solve

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

    def __str__(self) -> str:  # the status line that `run` and `check` print
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name}: {status} (measured {self.measured:.3g}, bound {self.bound:.3g})"


@dataclass(frozen=True)
class RunMetrics:
    """Spatially integrated summary of one trajectory."""

    aggregates: dict[str, np.ndarray]  # compartment -> time series of integrals
    peak_value: dict[str, float]
    peak_time: dict[str, float]
    total_population: np.ndarray       # integral of N over time
    final_total_population: float
    deaths: float                      # N(0) - N(tau), integrated


def extract_metrics(traj: Trajectory) -> RunMetrics:
    """Trapezoid aggregates per compartment plus peak/death statistics.  Like the
    checks, it reads only the ``integrals`` and ``grid`` of ``traj`` (positivity also
    its ``lowest``), so a run's record of its streamed levels serves as a Trajectory."""
    integrals = traj.integrals
    aggregates = dict(zip(COMPARTMENTS, integrals))
    total = integrals.sum(axis=0)
    times = traj.grid.t
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
    integrals = traj.integrals
    total = integrals.sum(axis=0)
    expected = traj.grid.dt * (params.alpha - 1.0) * params.f * integrals[_I, :-1]
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
    """Most negative compartment value, normalized by the balance's N(0), at least 1;
    a NaN anywhere fails the check, with measured NaN."""
    most_negative, step, comp, node = traj.lowest
    scale = max(float(traj.integrals.sum(axis=0)[0]), 1.0)
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
    mask = regions.mask(grid.x)
    directions = []
    for _ in range(count):
        du = rng.uniform(0.0, 1.0, shape)
        du -= du.mean()
        dv = rng.uniform(0.0, regions.v_max, shape) * mask
        if mask.any():  # else dv stays zero: no node lies in a region
            dv -= dv[:, mask > 0].mean()
            dv *= mask
        directions.append((du, dv))
    return directions


def _bumped(base: ControlPair, bumps) -> tuple[np.ndarray, np.ndarray]:
    """The controls base + eps * h of each (eps, (h_u, h_v)) of ``bumps``, written straight
    into the stacks u and v, shape (nt + 1, B, nx), that _forward_batch reads.  A bump may
    leave the admissible box: the divided differences need none, so none is checked."""
    grid = base.grid
    u, v = np.empty((2, grid.nt + 1, len(bumps), grid.nx))
    for b, (eps, (h_u, h_v)) in enumerate(bumps):
        np.add(base.u, eps * h_u, out=u[:, b])
        np.add(base.v, eps * h_v, out=v[:, b])
    return u, v


def gradient_oracle(state: Trajectory, base: ControlPair, params: ModelParams,
                    weights: CostWeights, seed: int = DEFAULT_SEED) -> CheckReport:
    """Compare the adjoint cost gradient along seeded random directions with
    the Richardson combination of one-sided divided differences at the two
    epsilons, and check first-order decay of the absolute one-sided errors (relative
    to their differences they saturate near 1 once eps * C outgrows the derivative,
    as for a large sigma or a derivative that nearly cancels).

    ``state`` is forward_solve's trajectory at ``base``, on its grid; the bumped
    solves start from its initial profiles.  A state solved elsewhere fails the
    check.  ``base`` may lie on the edge of its box, where bumps leave it."""
    grid, regions = base.grid, base.regions
    require_aligned(grid, state)
    first, last = epsilons = GRADIENT_EPSILONS
    initial = state.values[0]
    directions = _random_directions(grid, regions, GRADIENT_DIRECTIONS,
                                    np.random.default_rng(seed))

    grad_u, grad_v = cost_gradient(state, base, weights, params)
    j_base = cost_functional(state, base, weights)
    predicted = np.array([[_dot(grad_u, h_u) + _dot(grad_v, h_v)] for h_u, h_v in directions])
    del grad_u, grad_v  # room for the bumped control stacks below

    # one batched solve of every bump, member k * GRADIENT_DIRECTIONS + i along
    # direction i at epsilons[k]; of each member it keeps the state's integrand
    # of the cost per level, from which _cost gives its J
    u, v = _bumped(base, [(eps, h) for eps in epsilons for h in directions])
    del directions
    state_weights = _state_weights(weights, regions, grid)
    state_cost = np.empty((u.shape[1], grid.nt + 1))

    def reduce(lo, levels):
        # einsum sums a strided member view in another order than a contiguous one;
        # from a contiguous copy each member's J is bit for bit its single solve's
        for b, cost in enumerate(state_cost):
            member = np.ascontiguousarray(levels[:, :, b])
            cost[lo:lo + len(member)] = _state_cost(member, state_weights)

    _forward_batch(initial, u, v, params, grid, reduce)
    costs = np.reshape([_cost(cost, u[:, b], v[:, b], weights, grid)
                        for b, cost in enumerate(state_cost)],
                       (len(epsilons), GRADIENT_DIRECTIONS))
    # fd[i]: divided differences along direction i per epsilon, then Richardson's
    fd = np.zeros((GRADIENT_DIRECTIONS, 3))
    for k, eps in enumerate(epsilons):
        fd[:, k] = (costs[k] - j_base) / eps
    fd[:, 2] = (first * fd[:, 1] - last * fd[:, 0]) / (first - last)
    misses = np.abs(fd - predicted)
    errors = misses / np.maximum(np.abs(fd), 1e-300)
    worst = float(errors[:, 2].max())
    ratios = misses[:, 0] / np.maximum(misses[:, 1], 1e-300)
    lo, hi = DECAY_RATIO_RANGE
    decay_ok = bool(np.all((ratios >= lo) & (ratios <= hi)))
    passed = worst < GRADIENT_REL_BOUND and decay_ok
    detail = (f"seed={seed}, epsilons={list(epsilons)}, "
              f"rel errors (per epsilon, Richardson)={np.array2string(errors, precision=3)}, "
              f"decay ratios of the absolute errors={np.array2string(ratios, precision=3)}")
    return CheckReport(name="gradient_oracle", passed=passed, measured=worst,
                       bound=GRADIENT_REL_BOUND, detail=detail)


def sensitivity_oracle(state: Trajectory, base: ControlPair, params: ModelParams,
                       seed: int = DEFAULT_SEED) -> CheckReport:
    """Compare sensitivity_solve against divided differences of the
    nonlinear solve in the discrete L2 norm along one seeded random
    direction; the error must shrink proportionally to epsilon.  The complex
    step of sensitivity_solve is exact only while the forward step stays
    analytic; these black-box differences catch a step that is not.

    ``state`` is forward_solve's trajectory at ``base``, on its grid; the
    linearized and bumped solves start from its initial profiles.  A state
    solved elsewhere fails the check.  ``base`` may lie on the edge of its box."""
    grid, regions = base.grid, base.regions
    require_aligned(grid, state)
    epsilons = SENSITIVITY_EPSILONS
    initial = state.values[0]
    rng = np.random.default_rng(seed)
    [(h_u, h_v)] = _random_directions(grid, regions, 1, rng)

    lin = sensitivity_solve(initial, base, h_u, h_v, params, grid)

    wx = grid.space_weights()
    wt = grid.time_weights()

    def squares(levels):  # the integral over space of the squares, per level
        return (levels ** 2).sum(axis=1) @ wx

    def l2(per_level):
        return float(np.sqrt(_dot(wt, per_level)))

    scale = max(l2(squares(lin.values)), 1e-300)
    # one batched solve, member k along the direction at epsilons[k]; of each member
    # it keeps the squares of its error against state and lin per level
    u, v = _bumped(base, [(eps, (h_u, h_v)) for eps in epsilons])
    errors = np.empty((len(epsilons), grid.nt + 1))

    def reduce(lo, levels):
        hi = lo + len(levels)
        for b, (eps, error) in enumerate(zip(epsilons, errors)):
            divided = np.subtract(levels[:, :, b], state.values[lo:hi])
            divided /= eps
            divided -= lin.values[lo:hi]
            error[lo:hi] = squares(divided)

    _forward_batch(initial, u, v, params, grid, reduce)
    errs = [l2(error) / scale for error in errors]

    lo, hi = DECAY_RATIO_RANGE
    ratio = errs[0] / max(errs[-1], 1e-300)
    detail = (f"seed={seed}, epsilons={list(epsilons)}, errors={errs}, "
              f"ratio errors[0] / errors[-1] must lie in [{lo:g}, {hi:g}]")
    return CheckReport(name="sensitivity_oracle", passed=lo <= ratio <= hi,
                       measured=ratio, bound=hi, detail=detail)
