"""Cost functional, projected control updates, adjoint gradient assembly,
and the forward-backward sweep iteration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ContractError, CostWeights, ModelParams, QuarantineRegions, check_controls
from .pde import Grid, Trajectory, adjoint_solve, forward_solve, require_aligned


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
        if np.any(self.v[:, off] != 0.0):
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

    iterations: int             # mixed control updates made
    cost_history: list[float]   # J at the initial controls and after each update
    residual: float             # max |P(u) - u| at the returned controls
    converged: bool


def cost_functional(state: Trajectory, controls: ControlPair,
                    weights: CostWeights, regions: QuarantineRegions,
                    grid: Grid) -> float:
    """Objective value: weighted epidemic burden plus quadratic control cost.

    Trapezoid quadrature in both space and time; the susceptible penalty and
    the quarantine control cost are integrated over the regions only.
    """
    require_aligned(grid, regions, state, controls)
    wx = grid.space_weights()
    wt = grid.time_weights()
    mask = regions.mask(grid.x).astype(float)

    epidemic = (weights.rho1 * (state.s * (wx * mask)).sum(axis=1)
                + weights.rho3 * (state.e * wx).sum(axis=1)
                + weights.rho4 * (state.a * wx).sum(axis=1)
                + weights.rho5 * (state.i * wx).sum(axis=1))
    effort = (0.5 * weights.sigma1 * (controls.u ** 2 * wx).sum(axis=1)
              + 0.5 * weights.sigma2 * (controls.v ** 2 * (wx * mask)).sum(axis=1))
    return float(wt @ (epidemic + effort))


def project_controls(state: Trajectory, adjoint: Trajectory,
                     weights: CostWeights, regions: QuarantineRegions,
                     grid: Grid) -> ControlPair:
    """Pointwise optimality formulas clamped onto the admissible box."""
    require_aligned(grid, regions, state, adjoint)
    mask = regions.mask(grid.x).astype(float)
    u = np.clip(state.i * (adjoint.i - adjoint.r) / weights.sigma1, 0.0, 1.0)
    v = np.clip(mask * state.s * (adjoint.s - adjoint.q) / weights.sigma2,
                0.0, regions.v_max)
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
                           h_u: np.ndarray, h_v: np.ndarray, grid: Grid) -> float:
    """Pair the gradient fields with a perturbation direction.

    The control-cost part integrates with trapezoid weights (matching the
    cost functional); the adjoint part carries one rectangle weight per
    forward step, which is its exact discrete dual, so the result equals the
    divided difference of the cost up to Taylor error in the step size.
    """
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


def fbsm_solve(initial_state: np.ndarray, initial_controls: ControlPair,
               params: ModelParams, weights: CostWeights,
               regions: QuarantineRegions, grid: Grid,
               sweep: SweepSettings = SweepSettings(), on_iterate=None
               ) -> tuple[Trajectory, Trajectory, ControlPair, SweepReport]:
    """Forward-backward sweep to a fixed point u = P(S(u)) of the projected
    controls.

    Each pass solves the state forward, the adjoint backward and projects
    the optimality formulas at the current controls u.  It stops when the
    residual max |P(u) - u| is at most ``sweep.tolerance``, or after
    ``sweep.max_iterations`` updates; otherwise it mixes P(u) into u with
    the relaxation factor of ``sweep``.  Non-convergence is reported, not
    raised.  ``on_iterate`` (if given) receives each updated ControlPair.
    """
    controls = initial_controls
    history = []
    for iterations in range(sweep.max_iterations + 1):
        state = forward_solve(initial_state, controls, params, regions, grid)
        history.append(cost_functional(state, controls, weights, regions, grid))
        adjoint = adjoint_solve(state, controls, weights, params, regions, grid)
        projected = project_controls(state, adjoint, weights, regions, grid)
        residual = float(max(np.abs(projected.u - controls.u).max(),
                             np.abs(projected.v - controls.v).max()))
        if residual <= sweep.tolerance or iterations == sweep.max_iterations:
            break
        u_next = (1.0 - sweep.relaxation) * controls.u + sweep.relaxation * projected.u
        v_next = (1.0 - sweep.relaxation) * controls.v + sweep.relaxation * projected.v
        controls = ControlPair(u_next, v_next, grid, regions)
        if on_iterate is not None:
            on_iterate(controls)

    report = SweepReport(iterations, history, residual, residual <= sweep.tolerance)
    return state, adjoint, controls, report
