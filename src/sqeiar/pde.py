"""Explicit finite-difference integration of the state, adjoint, and
linearized sensitivity systems on a uniform 1-D grid with zero-flux
(Neumann) boundaries.

Time stepping is forward Euler.  The Laplacian uses ghost-node reflection
at the boundaries, which keeps the trapezoid-weighted sum of the stencil
output exactly zero (discrete divergence theorem); the total-population
balance test relies on that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ContractError,
    CostWeights,
    ModelParams,
    QuarantineRegions,
    _reaction_rhs,
    _state_jacobian,
    rho_source,
)

CFL_LIMIT = 0.5


class IntegrationError(RuntimeError):
    """The explicit scheme produced a non-finite value."""

    def __init__(self, step: int, node: int, what: str = "state"):
        self.step = step
        self.node = node
        super().__init__(f"non-finite {what} value at time step {step}, node {node}")


@dataclass(frozen=True)
class Grid:
    """Uniform space-time grid on [x_min, x_max] x [0, tau]."""

    x_min: float = 0.0
    x_max: float = 1.0
    nx: int = 101
    tau: float = 30.0
    nt: int = 3000

    def __post_init__(self):
        if self.nx < 3:
            raise ContractError(f"grid.nx must be >= 3, got {self.nx}")
        if self.nt < 1:
            raise ContractError(f"grid.nt must be >= 1, got {self.nt}")
        if not self.x_max > self.x_min:
            raise ContractError("grid.x_max must exceed grid.x_min")
        if not self.tau > 0:
            raise ContractError(f"grid.tau must be > 0, got {self.tau}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dt(self) -> float:
        return self.tau / self.nt

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    @property
    def t(self) -> np.ndarray:
        return np.linspace(0.0, self.tau, self.nt + 1)

    def cfl_number(self, params: ModelParams) -> float:
        return max(params.diffusion) * self.dt / self.dx ** 2

    def check_cfl(self, params: ModelParams) -> None:
        number = self.cfl_number(params)
        if number > CFL_LIMIT:
            raise ContractError(
                f"CFL violation: max D*dt/dx^2 = {number:.4g} exceeds {CFL_LIMIT}")

    def space_weights(self) -> np.ndarray:
        """Trapezoid quadrature weights over the spatial nodes."""
        w = np.full(self.nx, self.dx)
        w[0] = w[-1] = 0.5 * self.dx
        return w

    def time_weights(self) -> np.ndarray:
        """Trapezoid quadrature weights over the time levels."""
        w = np.full(self.nt + 1, self.dt)
        w[0] = w[-1] = 0.5 * self.dt
        return w


@dataclass(frozen=True)
class Trajectory:
    """Six fields over the full grid, shape (nt + 1, 6, nx).

    A state trajectory holds the compartments (S, Q, E, A, I, R); an adjoint
    trajectory holds p1..p6 in the same order, so ``adjoint.i`` is p5.
    """

    values: np.ndarray  # shape (nt + 1, 6, nx)
    grid: Grid

    def __post_init__(self):
        expected = (self.grid.nt + 1, 6, self.grid.nx)
        if self.values.shape != expected:
            raise ContractError(
                f"trajectory shape {self.values.shape} does not match grid {expected}")

    @property
    def s(self) -> np.ndarray:
        return self.values[:, 0, :]

    @property
    def q(self) -> np.ndarray:
        return self.values[:, 1, :]

    @property
    def e(self) -> np.ndarray:
        return self.values[:, 2, :]

    @property
    def a(self) -> np.ndarray:
        return self.values[:, 3, :]

    @property
    def i(self) -> np.ndarray:
        return self.values[:, 4, :]

    @property
    def r(self) -> np.ndarray:
        return self.values[:, 5, :]


def require_aligned(grid: Grid, regions: QuarantineRegions, *inputs) -> None:
    """Reject trajectories or controls defined on a grid other than ``grid``,
    and controls defined for quarantine regions other than ``regions``."""
    for obj in inputs:
        if obj.grid != grid:
            raise ContractError(f"{type(obj).__name__} defined on a different grid")
        if getattr(obj, "regions", regions) != regions:
            raise ContractError("controls defined for different quarantine regions")


def neumann_laplacian(row: np.ndarray, dx: float) -> np.ndarray:
    """Second-difference Laplacian with ghost-node reflection at both ends.

    Works on the last axis, so a (6, nx) block is handled in one call.
    """
    row = np.asarray(row, dtype=float)
    nx = row.shape[-1]
    if nx < 3:
        raise ContractError(f"laplacian needs nx >= 3, got {nx}")
    out = np.empty_like(row)
    inv = 1.0 / dx ** 2
    out[..., 1:-1] = (row[..., :-2] - 2.0 * row[..., 1:-1] + row[..., 2:]) * inv
    out[..., 0] = 2.0 * (row[..., 1] - row[..., 0]) * inv
    out[..., -1] = 2.0 * (row[..., -2] - row[..., -1]) * inv
    return out


def _check_finite(block: np.ndarray, step: int, what: str) -> None:
    if not np.all(np.isfinite(block)):
        bad = np.argwhere(~np.isfinite(block))[0]
        raise IntegrationError(step, int(bad[-1]), what)


def _require_finite(state: Trajectory) -> None:
    if not np.all(np.isfinite(state.values)):
        raise ContractError("state trajectory contains non-finite values")


def forward_solve(initial: np.ndarray, controls, params: ModelParams,
                  regions: QuarantineRegions, grid: Grid) -> Trajectory:
    """Integrate the nonlinear state system from the given initial profiles.

    ``initial`` holds six finite, nonnegative rows of length nx.  Controls
    are read at the time level from which each step departs.
    """
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (6, grid.nx):
        raise ContractError(f"initial profiles must have shape (6, {grid.nx})")
    if not (np.all(np.isfinite(initial)) and np.all(initial >= 0)):
        raise ContractError("initial profiles must be finite and nonnegative")
    grid.check_cfl(params)
    require_aligned(grid, regions, controls)
    u, v_eff = controls.u, controls.v * regions.mask(grid.x)

    D = params.diffusion_array[:, None]
    dt = grid.dt
    out = np.empty((grid.nt + 1, 6, grid.nx))
    y = initial.copy()
    out[0] = y
    for m in range(grid.nt):
        rhs = D * neumann_laplacian(y, grid.dx) + _reaction_rhs(
            y, u[m], v_eff[m], params)
        y = y + dt * rhs
        _check_finite(y, m + 1, "state")
        out[m + 1] = y
    return Trajectory(out, grid)


def adjoint_solve(state: Trajectory, controls, weights: CostWeights,
                  params: ModelParams, regions: QuarantineRegions,
                  grid: Grid) -> Trajectory:
    """Integrate the adjoint system backward from a zero terminal condition.

    Each backward step applies the transpose of the state Jacobian with the
    same Neumann stencil and step size as the forward sweep.  Row m of the
    result is aligned with the departure level of forward step m, and the
    trapezoid half-weight of the terminal cost sample is injected into the
    first backward step, so that the recursion is the exact transpose of the
    linearized discrete dynamics paired with the trapezoid-in-time cost.
    The stored terminal row is identically zero.
    """
    require_aligned(grid, regions, state, controls)
    _require_finite(state)
    u, v_eff = controls.u, controls.v * regions.mask(grid.x)
    rho = rho_source(grid.x, regions, weights, grid.x_min, grid.x_max)

    D = params.diffusion_array[:, None]
    dt = grid.dt
    out = np.zeros((grid.nt + 1, 6, grid.nx))
    p = 0.5 * dt * rho  # terminal cost sample carries half trapezoid weight
    out[grid.nt - 1] = p
    for m in range(grid.nt - 1, 0, -1):
        H = _state_jacobian(state.values[m], u[m], v_eff[m], params)
        ht_p = np.einsum("xij,ix->jx", H, p)
        p = p + dt * (D * neumann_laplacian(p, grid.dx) + ht_p + rho)
        _check_finite(p, m - 1, "adjoint")
        out[m - 1] = p
    return Trajectory(out, grid)


def sensitivity_solve(state: Trajectory, controls, h_u: np.ndarray,
                      h_v: np.ndarray, params: ModelParams,
                      regions: QuarantineRegions, grid: Grid) -> Trajectory:
    """Integrate the linearized system for a control perturbation (h_u, h_v).

    The Jacobians are frozen at the supplied state trajectory, so the result
    is the exact derivative of the discrete forward map at ``controls`` in
    that direction; initial data is zero.  ``h_v`` is masked to the regions.
    """
    require_aligned(grid, regions, state, controls)
    _require_finite(state)
    mask = regions.mask(grid.x).astype(float)
    u, v_eff = controls.u, controls.v * mask
    h_u = np.asarray(h_u, dtype=float)
    h_v = np.asarray(h_v, dtype=float) * mask
    if not (np.all(np.isfinite(h_u)) and np.all(np.isfinite(h_v))):
        raise ContractError("perturbation direction contains non-finite values")

    D = params.diffusion_array[:, None]
    dt = grid.dt
    out = np.zeros((grid.nt + 1, 6, grid.nx))
    Y = out[0]
    for m in range(grid.nt):
        y_m = state.values[m]
        H = _state_jacobian(y_m, u[m], v_eff[m], params)
        hy = np.einsum("xij,jx->ix", H, Y)
        # derivative of the reaction terms in the control direction
        gw = np.zeros((6, grid.nx))
        gw[0] = -mask * y_m[0] * h_v[m]
        gw[1] = mask * y_m[0] * h_v[m]
        gw[4] = -y_m[4] * h_u[m]
        gw[5] = y_m[4] * h_u[m]
        Y = Y + dt * (D * neumann_laplacian(Y, grid.dx) + hy + gw)
        _check_finite(Y, m + 1, "sensitivity")
        out[m + 1] = Y
    return Trajectory(out, grid)
