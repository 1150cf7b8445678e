"""Explicit finite-difference integration of the state, adjoint, and
linearized sensitivity systems on a uniform 1-D grid with zero-flux
(Neumann) boundaries.

Time stepping is forward Euler.  The Laplacian uses ghost-node reflection
at the boundaries, which keeps the trapezoid-weighted sum of the stencil
output exactly zero (discrete divergence theorem); the total-population
balance test relies on that.

The solvers step in matrix form: M = I + dt * L for the linear reaction
terms, the stencil, the rank-one exposure and the two control moves (see
model._reaction_split).  The adjoint step is its closed-form transpose, so
no per-node Jacobian is built, and the sensitivity solve runs the forward
step itself on complex values (complex step).  neumann_laplacian,
reaction_rhs and state_jacobian are the per-equation forms the steps are
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    _E,
    _I,
    _Q,
    _R,
    _S,
    ContractError,
    CostWeights,
    ModelParams,
    QuarantineRegions,
    _reaction_split,
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
    if not np.isfinite(block).all():
        bad = np.argwhere(~np.isfinite(block))[0]
        raise IntegrationError(step, int(bad[-1]), what)


class _Stepper:
    """Constants of one explicit Euler step on ``grid``: M = I + dt * L, the
    stencil factors D * dt / dx^2, the contact weights, and the ghost-padded
    work buffers of the stencil, of the given dtype."""

    def __init__(self, params: ModelParams, grid: Grid, dtype=float):
        L, self.contact = _reaction_split(params)
        self.dt = grid.dt
        self.M = np.eye(6) + self.dt * L
        self.c = params.diffusion_array[:, None] * (self.dt / grid.dx ** 2)
        self.pad = np.empty((6, grid.nx + 2), dtype=dtype)
        self.work = np.empty((6, grid.nx), dtype=dtype)

    def diffusion(self, y: np.ndarray) -> np.ndarray:
        """c * (neighbour sum - 2y), the ghost nodes reflecting y[1] and
        y[-2]; a constant row gives exactly zero."""
        pad, out = self.pad, self.work
        pad[:, 1:-1] = y
        pad[:, 0] = y[:, 1]
        pad[:, -1] = y[:, -2]
        np.add(pad[:, :-2], pad[:, 2:], out=out)
        out -= y
        out -= y
        out *= self.c
        return out


def _check_initial(initial, controls, params: ModelParams,
                   regions: QuarantineRegions, grid: Grid) -> None:
    """Entry checks of the forward map at (initial, controls)."""
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (6, grid.nx):
        raise ContractError(f"initial profiles must have shape (6, {grid.nx})")
    if not (np.all(np.isfinite(initial)) and np.all(initial >= 0)):
        raise ContractError("initial profiles must be finite and nonnegative")
    grid.check_cfl(params)
    require_aligned(grid, regions, controls)


def _integrate(initial: np.ndarray, u: np.ndarray, v_eff: np.ndarray,
               params: ModelParams, grid: Grid, what: str) -> np.ndarray:
    """Explicit Euler steps from ``initial`` in the dtype of the controls,
    read at each step's departure level; shape (nt + 1, 6, nx).

    The step must stay analytic in (y, u, v): sums and products only, no abs,
    clip, maximum or comparison on state or controls, or the complex step of
    sensitivity_solve silently gives a wrong derivative.
    """
    out = np.empty((grid.nt + 1, 6, grid.nx), dtype=np.result_type(float, u, v_eff))
    out[0] = initial
    step = _Stepper(params, grid, out.dtype)
    M, dt = step.M, step.dt
    contact_dt, beta_dt = dt * step.contact, dt * params.beta
    for m in range(grid.nt):
        y, nxt = out[m], out[m + 1]
        np.dot(M, y, out=nxt)
        nxt += step.diffusion(y)
        flow = contact_dt @ y
        flow += beta_dt
        flow *= y[_S]  # dt * (beta + Lambda) * S
        nxt[_S] -= flow
        nxt[_E] += flow
        flow = v_eff[m] * y[_S]
        flow *= dt
        nxt[_S] -= flow
        nxt[_Q] += flow
        flow = u[m] * y[_I]
        flow *= dt
        nxt[_I] -= flow
        nxt[_R] += flow
        _check_finite(nxt, m + 1, what)
    return out


def forward_solve(initial: np.ndarray, controls, params: ModelParams,
                  regions: QuarantineRegions, grid: Grid) -> Trajectory:
    """Integrate the nonlinear state system from the given initial profiles.

    ``initial`` holds six finite, nonnegative rows of length nx.  Controls
    are read at the time level from which each step departs.
    """
    _check_initial(initial, controls, params, regions, grid)
    v_eff = controls.v * regions.mask(grid.x)
    return Trajectory(_integrate(initial, controls.u, v_eff, params, grid, "state"), grid)


def adjoint_solve(state: Trajectory, controls, weights: CostWeights,
                  params: ModelParams, regions: QuarantineRegions,
                  grid: Grid) -> Trajectory:
    """Integrate the adjoint system backward from a zero terminal condition.

    Each backward step applies the transpose of the linearized forward step
    at the same state, with the same Neumann stencil and step size.  Row m
    of the result is aligned with the departure level of forward step m,
    and the trapezoid half-weight of the terminal cost sample is injected
    into the first backward step, so that the recursion is the exact
    transpose of the linearized discrete dynamics paired with the
    trapezoid-in-time cost.  The stored terminal row is identically zero.
    """
    require_aligned(grid, regions, state, controls)
    if not np.all(np.isfinite(state.values)):
        raise ContractError("state trajectory contains non-finite values")
    u, v_eff = controls.u, controls.v * regions.mask(grid.x)
    rho = rho_source(grid.x, regions, weights, grid.x_min, grid.x_max)

    step = _Stepper(params, grid)
    MT, dt, contact, beta = np.ascontiguousarray(step.M.T), step.dt, step.contact, params.beta
    contact_eai = contact[_E:_R, None]  # (delta, mu, 1 - q) on rows E, A, I
    rho_dt = dt * rho
    out = np.zeros((grid.nt + 1, 6, grid.nx))
    out[grid.nt - 1] = 0.5 * rho_dt  # terminal cost sample: half trapezoid weight
    for m in range(grid.nt - 1, 0, -1):
        p, nxt, y = out[m], out[m - 1], state.values[m]
        np.dot(MT, p, out=nxt)
        nxt += step.diffusion(p)
        nxt += rho_dt
        # exposure: g = dt * (p_E - p_S) onto S by m*, onto E, A, I by S * c
        g = p[_E] - p[_S]
        g *= dt
        m_star = contact @ y
        m_star += beta
        m_star *= g
        nxt[_S] += m_star
        g *= y[_S]
        nxt[_E:_R] += contact_eai * g
        w = p[_Q] - p[_S]
        w *= v_eff[m]
        w *= dt
        nxt[_S] += w
        w = p[_R] - p[_I]
        w *= u[m]
        w *= dt
        nxt[_I] += w
        _check_finite(nxt, m - 1, "adjoint")
    return Trajectory(out, grid)


def sensitivity_solve(initial: np.ndarray, controls, h_u: np.ndarray,
                      h_v: np.ndarray, params: ModelParams,
                      regions: QuarantineRegions, grid: Grid) -> Trajectory:
    """Derivative of ``forward_solve(initial, .)`` at ``controls`` along the
    finite (nt + 1, nx) arrays (h_u, h_v), h_v masked to the regions.

    The forward step is analytic, so this is the complex step
    Im F(u + i*h*h_u, v + i*h*h_v) / h, exact to roundoff: second-order
    terms are h^2 = 1e-60 below the real values.
    """
    _check_initial(initial, controls, params, regions, grid)
    shape = (grid.nt + 1, grid.nx)
    h_u = np.asarray(h_u, dtype=float)
    h_v = np.asarray(h_v, dtype=float)
    if h_u.shape != shape or h_v.shape != shape:
        raise ContractError(f"perturbation direction must be two arrays of shape {shape}")
    if not (np.all(np.isfinite(h_u)) and np.all(np.isfinite(h_v))):
        raise ContractError("perturbation direction contains non-finite values")
    h = 1e-30
    u = controls.u + 1j * h * h_u
    v_eff = (controls.v + 1j * h * h_v) * regions.mask(grid.x)
    out = _integrate(initial, u, v_eff, params, grid, "sensitivity")
    return Trajectory(out.imag / h, grid)
