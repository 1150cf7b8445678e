"""Cost functional, projected control updates, adjoint gradient assembly,
and the forward-backward sweep iteration."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import (ContractError, CostWeights, ModelParams, QuarantineRegions, check_controls,
                    rho_source)
from .pde import (
    Grid,
    Trajectory,
    _check_initial,
    forward_solve,
    positivity_bound,
    require_aligned,
)
# The sweep's states come from forward_solve, so it calls the adjoint core
# without the entry checks.  The module keeps the name adjoint_solve, which
# benchmarks/tracing.py wraps to time the sweep's adjoint solves.
from .pde import _adjoint_solve as adjoint_solve

ANDERSON_DEPTH = 3  # differences of iterates the sweep's update combines
COARSE_FACTOR = 3   # fine time steps per step of the sweep's coarse start


@dataclass(frozen=True)
class ControlPair:
    """Treatment field u and quarantine field v on the full grid.

    u lies in [0, 1] everywhere; v lies in [0, 1/n] and vanishes outside
    the quarantine-region mask.
    """

    u: np.ndarray  # shape (nt + 1, nx)
    v: np.ndarray  # shape (nt + 1, nx)
    grid: Grid
    regions: QuarantineRegions

    def __post_init__(self):
        shape = (self.grid.nt + 1, self.grid.nx)
        if self.u.shape != shape or self.v.shape != shape:
            raise ContractError(f"control fields must have shape {shape}")
        check_controls(self.u, self.v, self.regions.v_max)
        off = ~self.regions.mask(self.grid.x)
        # reductions over the levels, which keep NaN, then the nodes off the regions
        if np.any(self.v.min(axis=0)[off] != 0) or np.any(self.v.max(axis=0)[off] != 0):
            raise ContractError("quarantine control nonzero outside the regions")

    @classmethod
    def zeros(cls, grid: Grid, regions: QuarantineRegions) -> "ControlPair":
        shape = (grid.nt + 1, grid.nx)
        return cls(np.zeros(shape), np.zeros(shape), grid, regions)

    @classmethod
    def constant(cls, u_value: float, v_value: float, grid: Grid,
                 regions: QuarantineRegions) -> "ControlPair":
        shape = (grid.nt + 1, grid.nx)
        mask = regions.mask(grid.x).astype(float)
        return cls(np.full(shape, float(u_value)),
                   np.full(shape, float(v_value)) * mask, grid, regions)


@dataclass(frozen=True)
class SweepSettings:
    """Stopping and relaxation settings of the forward-backward sweep."""

    tolerance: float = 1e-4
    max_iterations: int = 200
    relaxation: float = 0.5

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ContractError(f"sweep.tolerance must be > 0, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ContractError(f"sweep.max_iterations must be >= 1, got {self.max_iterations}")
        if not 0 < self.relaxation <= 1:
            raise ContractError(f"sweep.relaxation must lie in (0, 1], got {self.relaxation}")


@dataclass(frozen=True)
class SweepReport:
    """Record of one forward-backward sweep run."""

    iterations: int             # control updates made on the grid of the run
    coarse_iterations: int      # updates of the coarse start; 0 when skipped
    cost_history: list[float]   # J at the start on the grid and after each update
    residual: float             # max |P(u) - u| at the returned controls
    converged: bool


def cost_functional(state: Trajectory, controls: ControlPair,
                    weights: CostWeights, regions: QuarantineRegions,
                    grid: Grid) -> float:
    """Objective value: weighted epidemic burden plus quadratic control cost.

    Trapezoid quadrature in space and time.  The state pairs with the
    adjoint's source ``rho_source``, and v vanishes off the regions.
    """
    require_aligned(grid, regions, state, controls)
    return _cost(_state_cost(state.values, _state_weights(weights, regions, grid)),
                 controls, weights)


def _state_weights(weights: CostWeights, regions: QuarantineRegions, grid: Grid) -> np.ndarray:
    """The cost's weights of the state on ``grid``, shape (6, nx): rho_source times the
    trapezoid weights in space."""
    return rho_source(grid.x, regions, weights, grid.x_min, grid.x_max) * grid.space_weights()


def _state_cost(levels: np.ndarray, state_weights: np.ndarray) -> np.ndarray:
    """The state's integrand of the cost at each of ``levels``, shape (k, 6, nx): shape (k,).
    Each level's sum is its own, so blocks of levels give the bits of all levels at once."""
    return np.einsum("tcn,cn->t", levels, state_weights)


def _cost(state_cost: np.ndarray, controls: ControlPair, weights: CostWeights) -> float:
    """cost_functional from the state's integrand at every level (see _state_cost), on
    the grid of ``controls``."""
    grid = controls.grid
    wx = grid.space_weights()
    per_level = (state_cost
                 + 0.5 * weights.sigma1 * np.einsum("tn,tn,n->t", controls.u, controls.u, wx)
                 + 0.5 * weights.sigma2 * np.einsum("tn,tn,n->t", controls.v, controls.v, wx))
    return float(grid.time_weights() @ per_level)


def project_controls(state: Trajectory, adjoint: Trajectory,
                     weights: CostWeights, regions: QuarantineRegions,
                     grid: Grid) -> ControlPair:
    """Pointwise optimality formulas clamped onto the admissible box."""
    require_aligned(grid, regions, state, adjoint)
    mask = regions.mask(grid.x).astype(float)
    u = np.subtract(adjoint.i, adjoint.r)
    u *= state.i
    v = np.subtract(adjoint.s, adjoint.q)
    v *= state.s
    v *= mask
    # a tiny sigma overflows a quotient to +-inf, which the clip maps onto the
    # edge of the box: the exact projection
    with np.errstate(over="ignore"):
        u /= weights.sigma1
        v /= weights.sigma2
    np.clip(u, 0.0, 1.0, out=u)
    np.clip(v, 0.0, regions.v_max, out=v)
    return ControlPair(u, v, grid, regions)


def cost_gradient(state: Trajectory, adjoint: Trajectory,
                  controls: ControlPair, weights: CostWeights,
                  regions: QuarantineRegions, grid: Grid
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Integrands of the directional cost derivative w.r.t. (u, v), each of
    shape (nt + 1, nx)."""
    require_aligned(grid, regions, state, adjoint, controls)
    mask = regions.mask(grid.x).astype(float)
    grad_u = weights.sigma1 * controls.u - state.i * (adjoint.i - adjoint.r)
    grad_v = weights.sigma2 * controls.v - mask * state.s * (adjoint.s - adjoint.q)
    return grad_u, grad_v


def directional_derivative(grad_u: np.ndarray, grad_v: np.ndarray,
                           controls: ControlPair, weights: CostWeights,
                           h_u: np.ndarray, h_v: np.ndarray) -> float:
    """Pair the gradient fields with a perturbation direction, on the grid of
    ``controls``.

    The control-cost part integrates with trapezoid weights (matching the
    cost functional); the adjoint part carries one rectangle weight per
    forward step, which is its exact discrete dual, so the result equals the
    divided difference of the cost up to Taylor error in the step size.
    """
    grid = controls.grid
    wx = grid.space_weights()
    wt = grid.time_weights()
    dt = grid.dt
    ctrl_u = weights.sigma1 * controls.u
    ctrl_v = weights.sigma2 * controls.v
    control_part = float(wt @ ((ctrl_u * h_u) @ wx + (ctrl_v * h_v) @ wx))
    adj_u = grad_u - ctrl_u
    adj_v = grad_v - ctrl_v
    adjoint_part = dt * float(((adj_u * h_u)[:-1] @ wx).sum()
                              + ((adj_v * h_v)[:-1] @ wx).sum())
    return control_part + adjoint_part


def fbsm_solve(initial_state: np.ndarray, params: ModelParams, weights: CostWeights,
               regions: QuarantineRegions, grid: Grid,
               sweep: SweepSettings = SweepSettings(), on_iterate=None
               ) -> tuple[Trajectory, Trajectory, ControlPair, SweepReport]:
    """Forward-backward sweep from zero controls to a fixed point u = P(S(u))
    of the projected controls.

    The Anderson-accelerated sweep (see _sweep) first runs on the grid with
    nt / COARSE_FACTOR time steps, from zero controls, and then on ``grid``
    from the coarse controls interpolated linearly in time.  The coarse
    stage is skipped, and the fine stage starts from zero controls, when nt
    is not a multiple of COARSE_FACTOR or when the coarse step fails the CFL
    bound or the positivity advisory.  The fine stage stops when the
    residual max |P(u) - u| is at most ``sweep.tolerance``, the coarse stage
    when it is at most max(tol, sqrt(tol)) for tol = ``sweep.tolerance``;
    either stops after ``sweep.max_iterations`` updates.  The coarse stage
    only supplies a start: the gap between the two time grids puts the fine
    stage's first residual near 6e-2 on the default scenario whatever the
    coarse residual below it, so passes that solve the coarse problem further
    are wasted (the nested-iteration rule of multigrid).  Non-convergence on
    ``grid`` is reported, not raised.  ``on_iterate`` (if given) receives
    each updated ControlPair on ``grid``.
    """
    _check_initial(initial_state, params, regions, grid)
    coarse = _coarse_grid(initial_state, params, regions, grid)
    state, adjoint, controls, iterations, coarse_iterations, history, residual = _sweep(
        initial_state, coarse, params, weights, regions, grid, sweep, on_iterate)
    report = SweepReport(iterations, coarse_iterations, history, residual,
                         residual <= sweep.tolerance)
    return state, adjoint, controls, report


def _coarse_grid(initial: np.ndarray, params: ModelParams,
                 regions: QuarantineRegions, grid: Grid) -> Grid | None:
    """The grid of the coarse start, or None where it is skipped.  The
    advisory's bound is at least 2 * D*dt/dx^2, so a coarse grid under it
    also keeps the CFL bound."""
    if grid.nt % COARSE_FACTOR:
        return None
    coarse = replace(grid, nt=grid.nt // COARSE_FACTOR)
    if positivity_bound(initial, params, regions, coarse) >= 1.0:
        return None
    return coarse


def _to_grid(controls: ControlPair, grid: Grid) -> ControlPair:
    """Controls on the coarse grid interpolated linearly in time onto
    ``grid`` (convex combinations, so the box and the region mask hold)."""
    f = COARSE_FACTOR
    fields = []
    for coarse in (controls.u, controls.v):
        fine = np.empty((grid.nt + 1, grid.nx))
        fine[::f] = coarse
        for r in range(1, f):
            np.multiply(coarse[:-1], (f - r) / f, out=fine[r::f])
            fine[r::f] += coarse[1:] * (r / f)
        fields.append(fine)
    return ControlPair(*fields, grid, controls.regions)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product accumulated in float64, without BLAS threads."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel(), dtype=float))


def _sweep(initial_state: np.ndarray, coarse: Grid | None, params: ModelParams,
           weights: CostWeights, regions: QuarantineRegions, grid: Grid,
           sweep: SweepSettings, on_iterate):
    """Anderson type-II iteration (Walker & Ni 2011) of x -> P(S(x)) on
    ``grid``, from zero controls, or, given a ``coarse`` grid, from the
    controls of this sweep on ``coarse`` from zero, stopped at a residual of
    max(tol, sqrt(tol)), interpolated onto ``grid`` (see _to_grid).

    Each pass solves the state forward, the adjoint backward and projects
    the optimality formulas at the current controls x_k, giving the residual
    f_k = P(x_k) - x_k.  Unless it stops, the next controls are
    x_k + r f_k - sum_j gamma_j (dx_j + r df_j), clipped onto the box with
    v masked to the regions, where r is ``sweep.relaxation``, dx_j and df_j
    are the last ANDERSON_DEPTH differences of iterates and residuals, and
    gamma minimizes |f_k - sum_j gamma_j df_j|.  With no history this is
    the relaxed update (1 - r) x_k + r P(x_k).

    The differences are kept in float32 (only gamma depends on them); f_k
    waits in the slot of its difference until f_{k+1} is known.  Returns
    the state, adjoint and controls of the last pass, the number of updates,
    the number of coarse updates (0 without a coarse stage), the cost at
    each pass and the last residual.  The coarse controls are freed once
    _to_grid has read them, and the start made from them at the first update.
    """
    if coarse is None:
        controls, coarse_iterations = ControlPair.zeros(grid, regions), 0
    else:
        start_sweep = replace(sweep, tolerance=max(sweep.tolerance, sweep.tolerance ** 0.5))
        _, _, start, coarse_iterations, _, _, _ = _sweep(
            initial_state, None, params, weights, regions, coarse, start_sweep, None)
        controls = _to_grid(start, grid)
        del start
    shape = (ANDERSON_DEPTH, 2, grid.nt + 1, grid.nx)
    steps = np.empty(shape, dtype=np.float32)    # x_{j+1} - x_j
    changes = np.empty(shape, dtype=np.float32)  # f_{j+1} - f_j
    gram = np.empty((ANDERSON_DEPTH, ANDERSON_DEPTH))  # df_i . df_j
    mask = regions.mask(grid.x)
    r = sweep.relaxation
    history = []
    for iterations in range(sweep.max_iterations + 1):
        state = forward_solve(initial_state, controls, params, regions, grid)
        history.append(cost_functional(state, controls, weights, regions, grid))
        adjoint = adjoint_solve(state, controls, weights, params, regions, grid)
        projected = project_controls(state, adjoint, weights, regions, grid)
        f = (np.subtract(projected.u, controls.u, out=projected.u),
             np.subtract(projected.v, controls.v, out=projected.v))
        residual = float(max(f[0].max(), -f[0].min(), f[1].max(), -f[1].min()))
        if residual <= sweep.tolerance or iterations == sweep.max_iterations:
            break
        del state, adjoint, projected

        n = min(iterations, ANDERSON_DEPTH)
        if iterations:  # complete the newest df and its row of the Gram matrix
            last = (iterations - 1) % ANDERSON_DEPTH
            for part in (0, 1):
                np.subtract(f[part], changes[last, part], out=changes[last, part])
            for j in range(n):
                gram[last, j] = gram[j, last] = _dot(changes[last], changes[j])
        rhs = [_dot(changes[i, 0], f[0]) + _dot(changes[i, 1], f[1]) for i in range(n)]
        gamma = np.linalg.lstsq(gram[:n, :n], rhs, rcond=None)[0].tolist() if n else []

        u, v = f[0] * r, f[1] * r
        for part, (y, x) in enumerate(((u, controls.u), (v, controls.v))):
            y += x
            for j, g in enumerate(gamma):
                y -= g * steps[j, part]
                y -= (r * g) * changes[j, part]
        np.clip(u, 0.0, 1.0, out=u)
        np.clip(v, 0.0, regions.v_max, out=v)
        v *= mask
        slot = iterations % ANDERSON_DEPTH
        np.subtract(u, controls.u, out=steps[slot, 0])
        np.subtract(v, controls.v, out=steps[slot, 1])
        changes[slot, 0], changes[slot, 1] = f
        del f, x, y  # the projection and the previous controls
        controls = ControlPair(u, v, grid, regions)
        if on_iterate is not None:
            on_iterate(controls)
    return state, adjoint, controls, iterations, coarse_iterations, history, residual
