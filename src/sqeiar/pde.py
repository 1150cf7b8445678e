"""Explicit finite-difference integration of the state, adjoint, and
linearized sensitivity systems on a uniform 1-D grid with zero-flux
(Neumann) boundaries.

Time stepping is forward Euler.  The Laplacian uses ghost-node reflection
at the boundaries, which keeps the trapezoid-weighted sum of the stencil
output exactly zero (discrete divergence theorem); the total-population
balance test relies on that.

Each explicit step is one product with a constant 6 x K matrix (see
_step_operator): the forward step is [M' | B | diag(c)] @ [y; F; N(y)], with
M' = I + dt * L - 2 * diag(c) (L from model._reaction_split, which holds the
linear exposure beta * S), the flows F = ((dt * contact) @ y * S, v * S, u * I)
moved by the incidence matrix B, c = D*dt/dx^2 and N the reflected neighbour
sum: 8 numpy calls per step.  Each is a direct call of numpy's C code, a ufunc
or ndarray.dot with out passed positionally, bound to a local before the loop;
np.dot would run its Python-level __array_function__ dispatcher on every call.
The forward step carries a batch axis: B scenarios that share the initial
profiles and differ in their controls step together, their rows side by side
in one (15, B * nx) operand, so a step is still one product and 8 calls
whatever B is, and each member is bitwise its own solve.  forward_solve and
sensitivity_solve are the batch of one.  _forward_batch reads bare
(nt + 1, B, nx) control stacks as given: the baseline run passes one
zero-stride member of zeros, and the check oracles their bumps, which may
leave the admissible box.  The step loop writes into a buffer of levels and
checks each block of them before it reuses their slots.  forward_solve holds
all nt + 1 levels; the streamed solves hold a ring of _BLOCK + 1 and hand
each block of levels to a consumer: _forward_batch, so the baseline run
never holds its (nt + 1, 6, nx) trajectory, a sweep pass keeps only the rows
its adjoint and projection read, and the oracles keep only per-level
reductions of each member; and sensitivity_solve, which keeps only the
imaginary part of its complex levels.  The block size is this module's
own: a consumer reduces each level on its own, so its results do not depend
on it.

The adjoint step is the forward step's exact transpose in the same form, 6
numpy calls per step, made the same way: its flows are one product with B^T
(row 0 doubled) times the coefficient rows (Lambda_m, S_m, v_m, u_m), filled
once per block of _BLOCK levels into a (_BLOCK, 4, nx) buffer, and the source
dt * rho rides in the product as two constant operand rows.  The adjoint has
one step loop too, run downward: adjoint_solve holds all nt + 1 levels, and
the projection of the sweep (control.project_controls) streams them through
a ring of _BLOCK + 1, each block handed to its consumer once certified, so a
sweep pass holds no adjoint trajectory.  Of the state, the adjoint reads only
the rows (Lambda_m, S_m) = _adjoint_rows @ y_m: from a Trajectory, one product
per block, or as a sweep pass keeps them from its streamed forward solve (see
control._Rows), so the pass holds no state trajectory either.  Both steps read
N from their operand's copy of y or p (see _stencil).  The sensitivity solve
runs the forward step itself on complex values (complex step).
neumann_laplacian, reaction_rhs and state_jacobian are the per-equation forms
the steps are tested against.
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
_BLOCK = 64  # time levels per block: the adjoint's coefficient rows, a streamed solve's levels


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
        for name in ("x_min", "x_max", "tau"):
            if not np.isfinite(getattr(self, name)):
                raise ContractError(f"grid.{name} must be finite, got {getattr(self, name)}")
        if not self.x_max > self.x_min:
            raise ContractError("grid.x_max must exceed grid.x_min")
        if not self.tau > 0:
            raise ContractError(f"grid.tau must be > 0, got {self.tau}")
        if not 0 < self.dx * self.dx < np.inf:  # dx**2 divides the CFL number
            raise ContractError(f"grid.dx = (grid.x_max - grid.x_min) / (grid.nx - 1) = "
                                f"{self.dx:.4g}: its square must be finite and nonzero")

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
        if number >= CFL_LIMIT:
            raise ContractError(
                f"CFL violation: max D*dt/dx^2 = {number:.4g} is not below {CFL_LIMIT}")

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

    @property
    def integrals(self) -> np.ndarray:
        """Trapezoid integral over space of each field at each level, shape (6, nt + 1)."""
        return _integrals(self.values, self.grid.space_weights())

    @property
    def lowest(self) -> tuple[float, int, int, int]:
        """The least value with its (level, field, node); see _lowest."""
        return _lowest(self.values)


def _integrals(levels: np.ndarray, wx: np.ndarray) -> np.ndarray:
    """Trapezoid integral over space of each compartment at each of ``levels``, shape
    (k, 6, nx): shape (6, k).  Each level's sum is its own (an einsum without
    ``optimize``, which could route it to BLAS), so blocks of levels give the bits of all
    levels at once."""
    return np.einsum("tcn,n->ct", levels, wx)


def _lowest(levels: np.ndarray, first: int = 0) -> tuple[float, int, int, int]:
    """The least value of ``levels``, shape (k, 6, nx), whose row m is level first + m,
    and its (level, compartment, node): the first minimum, or the first NaN."""
    # one scan; where min would return NaN, argmin points at the first NaN
    m, comp, node = np.unravel_index(levels.argmin(), levels.shape)
    return float(levels[m, comp, node]), first + int(m), int(comp), int(node)


def positivity_bound(initial: np.ndarray, params: ModelParams,
                     regions: QuarantineRegions, grid: Grid) -> float:
    """The positivity advisory's bound 2 * D*dt/dx^2 + dt * rate on ``grid``.

    An explicit Euler step keeps every compartment nonnegative when it is
    under 1: rate bounds the total outflow rate of any compartment, and its
    force-of-infection part is estimated from the total population of
    ``initial``, the evaluated initial profiles.
    """
    p = params
    n0 = float(initial.sum(axis=0) @ grid.space_weights())
    lam_max = p.delta * n0 + (1.0 - p.q) * n0 + p.mu * n0
    rate = p.beta + lam_max + regions.v_max + p.k + p.eta + p.f + 1.0 + p.xi
    return 2.0 * grid.cfl_number(p) + grid.dt * rate


def require_aligned(grid: Grid, *inputs) -> None:
    """Reject trajectories or controls defined on a grid other than ``grid``."""
    for obj in inputs:
        if obj.grid != grid:
            raise ContractError(f"{type(obj).__name__} defined on a different grid")


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


def _check_finite(out: np.ndarray, rows: range, what: str, first: int = 0) -> None:
    """Raise IntegrationError at the first non-finite row in computation order ``rows``,
    at its first bad node; in a batch, the member-local node of the first bad entry in
    (compartment, member, node) order.  Row m of ``out`` is time step first + m.  The
    last row decides: each step is one product K @ Z in which every entry of the departure
    row reaches the next row through K's diagonal and, with the factor D*dt/dx^2 > 0, its
    stencil column; IEEE sums and products, 0 * inf included, keep a non-finite operand
    non-finite."""
    if not np.isfinite(out[rows[-1]]).all():
        m = next(m for m in rows if not np.isfinite(out[m]).all())
        raise IntegrationError(first + m, int(np.argwhere(~np.isfinite(out[m]))[0][-1]), what)


def _stencil(rows: np.ndarray, near: np.ndarray):
    """Views by which np.add(left, right, inner), then np.add(edge, edge, ends) (2 * edge, exactly)
    at the row ends it mixed, write the reflected neighbour sum of contiguous ``rows`` into ``near``;
    each row of length nx reflects on its own, so a batch's (6 * B, nx) view works as one."""
    flat, nx = rows.reshape(-1), rows.shape[-1]
    edge = rows[:, 1:nx - 1:max(nx - 3, 1)]
    return flat[:-2], flat[2:], near.reshape(-1)[1:-1], edge, near[:, ::nx - 1]


def _step_operator(params: ModelParams, grid: Grid):
    """Constants of one explicit Euler step on ``grid``: M' = I + dt * L - 2 * diag(c),
    with L from model._reaction_split; the (6, 3) incidence B of the moves
    S -> E, S -> Q and I -> R, dt folded into the last two (the first flow,
    (dt * contact) @ y * S, carries its own); the stencil factors c = D*dt/dx^2;
    and the scaled contact weights dt * contact."""
    L, contact = _reaction_split(params)
    dt, c = grid.dt, params.diffusion_array * (grid.dt / grid.dx ** 2)
    B = np.zeros((6, 3))
    B[[_S, _E], 0] = -1.0, 1.0
    B[[_S, _Q], 1] = -dt, dt
    B[[_I, _R], 2] = -dt, dt
    return np.eye(6) + dt * L - 2.0 * np.diag(c), B, c, dt * contact


def _check_initial(initial, params: ModelParams, grid: Grid, *controls) -> None:
    """Entry checks of the forward map at ``initial``, on ``grid``, with ``controls``."""
    if np.shape(initial) != (6, grid.nx):
        raise ContractError(f"initial profiles must have shape (6, {grid.nx})")
    if not (np.min(initial) >= 0 and np.max(initial) < np.inf):  # NaN fails both
        raise ContractError("initial profiles must be finite and nonnegative")
    grid.check_cfl(params)
    require_aligned(grid, *controls)


def _blocks(nt: int, size: int = _BLOCK):
    """The blocks of levels (lo, hi) in which a streamed solve hands over levels 0..nt:
    levels lo..hi - 1 for lo = 0, size, 2 * size, ..., the last block through level nt."""
    for lo in range(0, nt, size):
        hi = min(lo + size, nt)
        yield lo, hi + (hi == nt)


def _integrate(initial: np.ndarray, u: np.ndarray, v: np.ndarray,
               params: ModelParams, grid: Grid, what: str, consume=None) -> np.ndarray:
    """Explicit Euler steps from ``initial`` of the B control pairs stacked in u and v,
    shape (nt + 1, B, nx), in their dtype, read at each step's departure level.

    The steps fill a buffer of levels, shape (size, 6, B, nx), one block of size - 1 steps
    at a time, and _check_finite certifies each block before its slots are reused.
    Without ``consume`` the buffer holds all nt + 1 levels, filled as one block, and is
    returned.  With it, the buffer is a ring of _BLOCK + 1 levels, and consume(lo, levels)
    receives the levels lo..hi - 1 of each of _blocks(nt) in order, as a view that the
    next block overwrites.

    The step must stay analytic in (y, u, v): sums and products only, no abs,
    clip, maximum or comparison on state or controls, or the complex step of
    sensitivity_solve silently gives a wrong derivative.
    """
    batch, nx = u.shape[1:]
    size = grid.nt + 1 if consume is None else min(grid.nt, _BLOCK) + 1
    out = np.empty((size, 6, batch, nx), dtype=np.result_type(float, u, v))
    out[0] = initial[:, None]
    levels = out.reshape(size, 6, batch * nx)  # level m: members side by side per row
    u, v = u.reshape(grid.nt + 1, batch * nx), v.reshape(grid.nt + 1, batch * nx)
    M, B, c, contact_dt = _step_operator(params, grid)
    # one product per step: out[m + 1] = [M' | B | diag(c)] @ [y; flows; neighbour sum]
    K = np.hstack([M, B, np.diag(c)]).astype(out.dtype)
    contact_dt = contact_dt.astype(out.dtype)
    Z = np.empty((15, batch * nx), dtype=out.dtype)
    y, exposure, quarantine, treatment, near = Z[:6], Z[6], Z[7], Z[8], Z[9:]
    S, I = y[_S], y[_I]
    # a BLAS gemv may round the tail of its row by another path (OpenBLAS: the last
    # length % 4 entries), so a batch makes contact_dt @ y one gemv per member
    # (np.matmul over the member axis): each member is then bitwise its own solve
    members, member_exposure = y.reshape(6, batch, nx).swapaxes(0, 1), exposure.reshape(batch, nx)
    left, right, inner, edge, ends = _stencil(y.reshape(-1, nx), near.reshape(-1, nx))
    # numpy's C entry points, bound once: ufuncs and ndarray.dot take out positionally
    # and run no Python-level dispatcher, as np.dot does on every call
    add, multiply, matmul, step, gemv = np.add, np.multiply, np.matmul, K.dot, contact_dt.dot
    with np.errstate(over="ignore", invalid="ignore"):  # a divergence ends in _check_finite
        for lo, hi in _blocks(grid.nt, size - 1):
            if lo:  # a ring: the last level of the previous block departs this one
                levels[0] = levels[size - 1]
            steps = min(size - 1, grid.nt - lo)  # they fill slots 1..steps
            for departure, arrival, u_m, v_m in zip(levels[:steps], levels[1:steps + 1],
                                                    u[lo:lo + steps], v[lo:lo + steps]):
                y[...] = departure
                add(left, right, inner)
                add(edge, edge, ends)  # 2 * edge, exactly
                if batch == 1:  # ndarray.dot: the same gemv, cheaper per call than matmul
                    gemv(y, exposure)
                else:
                    matmul(contact_dt, members, member_exposure)
                multiply(exposure, S, exposure)
                multiply(v_m, S, quarantine)
                multiply(u_m, I, treatment)
                step(Z, arrival)
            _check_finite(out, range(1, steps + 1), what, lo)
            if consume is not None:
                consume(lo, out[:hi - lo])
    return out


# The solves take ``grid``: benchmarks/tracing.py counts a solve's time steps (its
# *.us_per_step metrics) from the Grid among the arguments of the call.  The public
# ones take it beside the ControlPair that carries it, and check that the two agree.
def forward_solve(initial: np.ndarray, controls, params: ModelParams,
                  grid: Grid) -> Trajectory:
    """Integrate the nonlinear state system on ``grid`` from the given initial
    profiles.

    ``initial`` holds six finite, nonnegative rows of length nx.  Controls
    are read at the time level from which each step departs, v as given:
    ControlPair keeps it zero off its regions.  ``controls`` must lie on
    ``grid``.
    """
    _check_initial(initial, params, grid, controls)
    out = _integrate(initial, controls.u[:, None], controls.v[:, None], params, grid, "state")
    return Trajectory(out[:, :, 0], grid)


def _forward_batch(initial: np.ndarray, u: np.ndarray, v: np.ndarray,
                   params: ModelParams, grid: Grid, consume) -> None:
    """Explicit Euler steps of the B controls stacked in u and v, shape (nt + 1, B, nx),
    read as given: no box or region check.  The steps keep a ring of _BLOCK + 1 levels
    and hand consume(lo, levels) the levels lo..hi - 1 of each of _blocks(nt), in order,
    once _check_finite has certified them, shape (hi - lo, 6, B, nx), member b along
    axis 2, as a view that the next block overwrites."""
    _check_initial(initial, params, grid)
    shape = (grid.nt + 1, u.shape[1], grid.nx)
    if u.shape != shape or v.shape != shape:
        raise ContractError(f"batched control stacks must have shape {shape}")
    _integrate(initial, u, v, params, grid, "state", consume)


def adjoint_solve(state: Trajectory, controls, weights: CostWeights,
                  params: ModelParams, grid: Grid) -> Trajectory:
    """Integrate the adjoint system backward from a zero terminal condition, on
    ``grid``, with the source rho_source of the regions of ``controls``.

    Each backward step applies the transpose of the linearized forward step
    at the same state, with the same Neumann stencil and step size.  Row m
    of the result is aligned with the departure level of forward step m,
    and the trapezoid half-weight of the terminal cost sample is injected
    into the first backward step, so that the recursion is the exact
    transpose of the linearized discrete dynamics paired with the
    trapezoid-in-time cost.  The stored terminal row is identically zero.
    """
    require_aligned(grid, state, controls)
    if not np.all(np.isfinite(state.values)):
        raise ContractError("state trajectory contains non-finite values")
    return _adjoint_solve(state, controls, weights, params, grid)


def _adjoint_rows(params: ModelParams, grid: Grid) -> np.ndarray:
    """The (2, 6) matrix whose product with a state level y_m gives the two rows of it
    that the adjoint step reads, Lambda_m = (dt * contact) @ y_m and S_m."""
    return np.vstack([_step_operator(params, grid)[3], np.eye(6)[_S]])


def _adjoint_solve(state, controls, weights: CostWeights,
                   params: ModelParams, grid: Grid, consume=None) -> Trajectory | None:
    """adjoint_solve without its entry checks, for a state that forward_solve
    returned for ``controls`` on ``grid``: its _check_finite certified it.  ``state`` is
    that Trajectory, or the rows ``state.lam`` and ``state.s`` of it, each
    (nt + 1, nx), that _adjoint_rows gives, as a sweep pass keeps them.

    The steps run down from level nt - 1 in blocks of the departure levels lo..hi - 1:
    _BLOCK levels a block, _BLOCK - 1 in the first, which also holds level nt, and one
    block with no step when nt = 1.  Without ``consume`` the levels fill the
    (nt + 1, 6, nx) Trajectory returned, certified whole by _check_finite.  With it they
    pass through a ring of min(nt, _BLOCK) + 1 levels, _check_finite certifies each block,
    and consume(lo, levels) then receives, block by block going down, the levels lo..nt
    of the first, lo..hi - 1 of the next and 0..hi - 1 of the last, as a view that the
    next block overwrites; nothing is returned.  A block's lowest arrival, level lo - 1,
    departs the next block and is handed with it.
    """
    rho = rho_source(grid, controls.regions, weights)

    M, B, c, contact_dt = _step_operator(params, grid)
    # one product per step, the transpose of the forward step linearized at y_m:
    # out[m - 1] = [M'^T | Q | diag(c) | R] @ [p; F; N(p); r], where the flows
    # F = (B^T p)[0, 0, 1, 2] * (Lambda_m, S_m, v_m, u_m) and Q sends them onto S,
    # E A I, S and I; R @ r = dt * rho from the constant rows r = (dt * rho_S, 1),
    # since rho_source holds rho_S on S and constants on E, A, I
    e = np.eye(6)
    rho_dt = grid.dt * rho
    R = np.column_stack([e[_S], rho_dt[:, 0]])
    R[_S, 1] = 0.0
    K = np.hstack([M.T, np.column_stack([e[_S], contact_dt, e[_S], e[_I]]), np.diag(c), R])
    BT4, lam_s = B.T[[0, 0, 1, 2]], _adjoint_rows(params, grid)  # (Lambda_m, S_m)
    # rows (Lambda_m, S_m, v_m, u_m) of the levels of one block, filled per block
    W, Z = np.empty((_BLOCK, 4, grid.nx)), np.empty((18, grid.nx))
    p, flows, near = Z[:6], Z[6:10], Z[10:16]
    Z[16], Z[17] = rho_dt[_S], 1.0
    u, v, nt = controls.u, controls.v, grid.nt
    ring = consume is not None
    out = np.zeros((min(nt, _BLOCK) + 1 if ring else nt + 1, 6, grid.nx))
    tops = [nt, *range(nt - _BLOCK + 1, 1, -_BLOCK)]  # hi of each block, going down
    left, right, inner, edge, ends = _stencil(p, near)
    add, multiply, step, flow = np.add, np.multiply, K.dot, BT4.dot
    with np.errstate(over="ignore", invalid="ignore"):  # a divergence ends in _check_finite
        for hi, lo in zip(tops, [*tops[1:], 1]):
            base = lo - 1 if ring else 0  # level m sits in out[m - base]
            if hi == nt:  # terminal cost sample: half trapezoid weight; level nt stays 0
                out[hi - 1 - base] = 0.5 * rho_dt
            elif ring:  # the previous block's lowest arrival departs this one
                out[hi - 1 - base] = out[0]
            w = W[:hi - lo]
            if isinstance(state, Trajectory):
                np.matmul(lam_s, state.values[lo:hi], out=w[:, :2])
            else:
                w[:, 0], w[:, 1] = state.lam[lo:hi], state.s[lo:hi]
            w[:, 2], w[:, 3] = v[lo:hi], u[lo:hi]
            # levels m = hi - 1 down to lo: departure m, arrival m - 1, rows w[m - lo]
            for departure, arrival, w_m in zip(out[lo - base:hi - base][::-1],
                                               out[lo - 1 - base:hi - 1 - base][::-1], w[::-1]):
                p[...] = departure
                add(left, right, inner)
                add(edge, edge, ends)
                flow(p, flows)
                multiply(flows, w_m, flows)
                step(Z, arrival)
            if ring or lo == 1:  # a held trajectory is certified once, whole
                _check_finite(out, range((hi if ring else nt) - 1 - base, lo - 2 - base, -1),
                              "adjoint", base)
            if ring:
                first = lo if lo > 1 else 0
                consume(first, out[first - base:(nt + 1 if hi == nt else hi) - base])
    return None if ring else Trajectory(out, grid)


def sensitivity_solve(initial: np.ndarray, controls, h_u: np.ndarray,
                      h_v: np.ndarray, params: ModelParams, grid: Grid) -> Trajectory:
    """Derivative of ``forward_solve(initial, .)`` on ``grid`` at ``controls`` along
    the finite (nt + 1, nx) arrays (h_u, h_v), h_v masked to the regions of
    ``controls``.

    The forward step is analytic, so this is the complex step
    Im F(u + i*h*h_u, v + i*h*h_v) / h, exact to roundoff: second-order
    terms are h^2 = 1e-60 below the real values.  The complex levels stream
    through a ring of _BLOCK + 1, and only Im / h, the Trajectory returned, is
    kept of them.
    """
    _check_initial(initial, params, grid, controls)
    shape = (grid.nt + 1, grid.nx)
    h_u = np.asarray(h_u, dtype=float)
    h_v = np.asarray(h_v, dtype=float)
    if h_u.shape != shape or h_v.shape != shape:
        raise ContractError(f"perturbation direction must be two arrays of shape {shape}")
    if not (np.all(np.isfinite(h_u)) and np.all(np.isfinite(h_v))):
        raise ContractError("perturbation direction contains non-finite values")
    h = 1e-30
    # the complex controls u + i*h*h_u and v + i*h*h_v*mask, filled part by part so
    # that no complex temporary is made
    u, v = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
    u.real, v.real = controls.u, controls.v
    np.multiply(h_u, h, out=u.imag)
    np.multiply(h_v, controls.regions.mask(grid.x), out=v.imag)
    v.imag *= h
    out = np.empty((grid.nt + 1, 6, grid.nx))

    def keep(lo, levels):  # Im / h of each block of levels
        np.divide(levels.imag[:, :, 0], h, out=out[lo:lo + len(levels)])

    _integrate(initial, u[:, None], v[:, None], params, grid, "sensitivity", keep)
    return Trajectory(out, grid)
