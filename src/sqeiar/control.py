"""Cost functional and its discrete gradient dJ/d(u, v), projected control updates, and
the forward-backward sweep iteration.  Both read the optimality system's sources, stated
once in _sources; a held adjoint serves only adjoint_solve.  A sweep pass holds neither a
state nor an adjoint trajectory: its forward solve streams into the rows the adjoint and
the projection read (see _Rows), and its adjoint streams through a ring."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import pde
from .model import (_I, _Q, _R, _S, ContractError, CostWeights, ModelParams, QuarantineRegions,
                    check_controls, rho_source)
from .pde import (
    Grid,
    Trajectory,
    _adjoint_rows,
    _check_initial,
    positivity_bound,
    require_aligned,
)
# _sources reads the adjoint of a state that forward_solve returned, so it calls the
# adjoint core without the entry checks and streams it through its ring; a sweep pass
# streams its forward solve into a _Rows.  The module keeps the names adjoint_solve and
# forward_solve for these cores, which benchmarks/tracing.py wraps to time the solves,
# and looks them up at each call; fbsm_solve's one held state comes from pde.forward_solve.
from .pde import _adjoint_solve as adjoint_solve
from .pde import _forward_batch as forward_solve

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
        off = self.regions.mask(self.grid.x) == 0
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
        mask = regions.mask(grid.x)
        return cls(np.full(shape, float(u_value)),
                   np.full(shape, float(v_value)) * mask, grid, regions)


@dataclass(frozen=True)
class SweepSettings:
    """Stopping and relaxation settings of the forward-backward sweep."""

    tolerance: float = 1e-4
    max_iterations: int = 200
    relaxation: float = 0.5

    def __post_init__(self):
        if not 0 < self.tolerance < np.inf:  # NaN fails too
            raise ContractError(f"sweep.tolerance must be finite and > 0, got {self.tolerance}")
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
                    weights: CostWeights) -> float:
    """Objective value: weighted epidemic burden plus quadratic control cost.

    Trapezoid quadrature in space and time on the grid of ``controls``, which
    ``state`` must share.  The state pairs with the adjoint's source
    ``rho_source`` of the regions of ``controls``, and v vanishes off them.
    """
    grid = controls.grid
    require_aligned(grid, state)
    return _cost(_state_cost(state.values, _state_weights(weights, controls.regions, grid)),
                 controls.u, controls.v, weights, grid)


def _state_weights(weights: CostWeights, regions: QuarantineRegions, grid: Grid) -> np.ndarray:
    """The cost's weights of the state on ``grid``, shape (6, nx): rho_source times the
    trapezoid weights in space."""
    return rho_source(grid, regions, weights) * grid.space_weights()


def _state_cost(levels: np.ndarray, state_weights: np.ndarray) -> np.ndarray:
    """The state's integrand of the cost at each of ``levels``, shape (k, 6, nx): shape (k,).
    Each level's sum is its own, so blocks of levels give the bits of all levels at once."""
    return np.einsum("tcn,cn->t", levels, state_weights)


def _cost(state_cost: np.ndarray, u: np.ndarray | None, v: np.ndarray | None,
          weights: CostWeights, grid: Grid) -> float:
    """cost_functional from the state's integrand at every level (see _state_cost) and the
    control fields u and v, shape (nt + 1, nx), read as given, on ``grid``.  u and v None
    stand for zero controls, which cost exactly nothing: each level's cost is then its
    state's, the bits that adding their +0.0 would give."""
    per_level = state_cost
    if u is not None:
        wx = grid.space_weights()
        per_level = (state_cost
                     + 0.5 * weights.sigma1 * np.einsum("tn,tn,n->t", u, u, wx)
                     + 0.5 * weights.sigma2 * np.einsum("tn,tn,n->t", v, v, wx))
    # einsum, not BLAS: past 10,000 levels OpenBLAS runs a ddot on two threads, and the
    # idle worker then spins for about 0.13 s of CPU
    return _dot(grid.time_weights(), per_level)


class _Rows:
    """What a sweep pass keeps of its forward solve, handed over in blocks, in order: the
    rows that the adjoint and the projection read, Lambda = (dt * contact) @ y and S as
    _adjoint_rows gives them and I, each (nt + 1, nx) and contiguous, and each level's
    state cost (see _state_cost).  Each row is its own array, so Lambda is freed while the
    projection's sources, written over the I and S rows (see _sources), live on."""

    def __init__(self, params: ModelParams, grid: Grid, state_weights: np.ndarray):
        shape = (grid.nt + 1, grid.nx)
        self.grid = grid
        self.lam, self.s, self.i = np.empty(shape), np.empty(shape), np.empty(shape)
        self.state_cost = np.empty(grid.nt + 1)
        self._adjoint_rows = _adjoint_rows(params, grid)
        self._state_weights = state_weights

    def __call__(self, lo: int, levels: np.ndarray) -> None:
        """Take levels lo, lo + 1, ... of a batch of one, shape (k, 6, 1, nx), all finite."""
        block = levels[:, :, 0]
        hi = lo + len(block)
        # the product and row layout of the adjoint's own rows of a Trajectory: the same bits
        rows = np.matmul(self._adjoint_rows, block)
        self.lam[lo:hi], self.s[lo:hi], self.i[lo:hi] = rows[:, 0], rows[:, 1], block[:, _I]
        self.state_cost[lo:hi] = _state_cost(block, self._state_weights)


def _sources(state, controls: ControlPair, weights: CostWeights,
             params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """The sources (p_I - p_R) * I and (p_S - p_Q) * S of the optimality system, shape
    (nt + 1, nx), at the adjoint p of ``state``, the forward solve of ``controls``: the
    Trajectory that forward_solve returns, or the _Rows a sweep pass kept of it, whose I
    and S rows become the sources.  Both are zero at level nt, as p is.  p streams through
    a ring (see pde._adjoint_solve), and each block becomes the sources as it lands, over
    contiguous rows of I and S, once the adjoint has read them, so none is held:
    elementwise ops, so any blocking gives the same bits.  The S row of _Rows is the
    adjoint's, which is S itself up to the sign of a zero."""
    grid = controls.grid
    require_aligned(grid, state)
    src_u, src_v = state.i, state.s
    if isinstance(state, Trajectory):  # strided rows: the sources start as contiguous copies
        src_u, src_v = src_u.copy(), src_v.copy()

    def consume(lo, levels):
        hi = lo + len(levels)
        np.multiply(src_u[lo:hi], levels[:, _I] - levels[:, _R], out=src_u[lo:hi])
        np.multiply(src_v[lo:hi], levels[:, _S] - levels[:, _Q], out=src_v[lo:hi])

    adjoint_solve(state, controls, weights, params, grid, consume=consume)
    return src_u, src_v


def project_controls(state: Trajectory, controls: ControlPair, weights: CostWeights,
                     params: ModelParams) -> ControlPair:
    """P(controls): the pointwise optimality formulas (p_I - p_R) * I / sigma1 and
    (p_S - p_Q) * S / sigma2 at the adjoint of ``state`` (see _sources), clamped onto the
    admissible box of the regions of ``controls``, on their grid.  The sweep passes the
    _Rows of its pass as ``state``, and its I and S rows become the result."""
    grid, regions = controls.grid, controls.regions
    u, v = _sources(state, controls, weights, params)
    # a tiny sigma overflows a quotient to +-inf, which the clip maps onto the
    # edge of the box: the exact projection
    with np.errstate(over="ignore"):
        u /= weights.sigma1
        v /= weights.sigma2
    for field, upper in zip((u, v), _upper_bounds(grid, regions)):
        np.clip(field, 0.0, upper, out=field)
    return ControlPair(u, v, grid, regions)


def _upper_bounds(grid: Grid, regions: QuarantineRegions) -> tuple:
    """The upper bounds of the admissible box of ``regions`` on ``grid``, whose lower
    bounds are 0: 1 for u and v_max * mask node by node for v, so v vanishes off the
    regions."""
    return 1.0, regions.v_max * regions.mask(grid.x)


def cost_gradient(state: Trajectory, controls: ControlPair, weights: CostWeights,
                  params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """dJ/d(u, v): the derivative of the discrete cost J(controls) = cost_functional(
    state, controls) w.r.t. each control value, two (nt + 1, nx) arrays on the grid of
    ``controls``, with the sources at the adjoint of ``state`` (see _sources):

        dJ/du[m, j] = wx_j * (wt_m * sigma1 * u[m, j] - dt * (p_I - p_R) * I)
        dJ/dv[m, j] = wx_j * (wt_m * sigma2 * v[m, j] - dt * mask_j * (p_S - p_Q) * S)

    The cost prices level m with its trapezoid weight wt_m, and u_m, v_m drive the step
    from level m for a whole dt.  The derivative along (h_u, h_v) is the plain sum of
    dJ/du * h_u + dJ/dv * h_v."""
    grid = controls.grid
    src_u, src_v = _sources(state, controls, weights, params)
    dt, wt = grid.dt, grid.time_weights()[:, None]
    wx, mask = grid.space_weights(), controls.regions.mask(grid.x)
    grad_u = wx * (wt * (weights.sigma1 * controls.u) - dt * src_u)
    grad_v = wx * (wt * (weights.sigma2 * controls.v) - dt * (mask * src_v))
    return grad_u, grad_v


def fbsm_solve(initial_state: np.ndarray, params: ModelParams, weights: CostWeights,
               regions: QuarantineRegions, grid: Grid,
               sweep: SweepSettings = SweepSettings(), on_iterate=None
               ) -> tuple[Trajectory, float, ControlPair, SweepReport]:
    """Forward-backward sweep from zero controls to a fixed point u = P(S(u))
    of the projected controls.

    The Anderson-accelerated sweep (see _sweep) first runs on the grid with
    nt / COARSE_FACTOR time steps, from zero controls, and then on ``grid``
    from the coarse controls, each coarse level held for COARSE_FACTOR fine
    levels (see _to_grid).  The coarse stage is skipped, and the fine stage
    starts from zero controls, when nt is not a multiple of COARSE_FACTOR or
    when the coarse step fails the CFL bound or the positivity advisory.  The
    fine stage stops when the
    residual max |P(u) - u| is at most ``sweep.tolerance``, the coarse stage
    when it is at most max(tol, sqrt(tol)) for tol = ``sweep.tolerance``;
    either stops after ``sweep.max_iterations`` updates.  The coarse stage
    only supplies a start: the gap between the two time grids puts the fine
    stage's first residual near 6e-2 on the default scenario whatever the
    coarse residual below it, so passes that solve the coarse problem further
    are wasted (the nested-iteration rule of multigrid).  Non-convergence on
    ``grid`` is reported, not raised.  ``on_iterate`` (if given) receives
    each updated ControlPair on ``grid``.  Returns the state, the cost J and
    the controls of the last pass and the SweepReport; J is the report's last
    cost.  The passes hold no state or adjoint trajectory (see _sweep); once
    the sweep has freed its history, one held forward solve gives the state
    returned.
    """
    _check_initial(initial_state, params, grid)
    coarse = _coarse_grid(initial_state, params, regions, grid)
    controls, report = _sweep(initial_state, coarse, params, weights, regions, grid, sweep,
                              on_iterate)
    state = pde.forward_solve(initial_state, controls, params, grid)
    return state, report.cost_history[-1], controls, report


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


def _to_grid(controls: ControlPair) -> ControlPair:
    """Controls on the coarse grid held onto the grid with COARSE_FACTOR
    times its steps: each coarse level stands for the COARSE_FACTOR fine
    levels from its own on.  Every value is a coarse value, so the box and
    the regions hold."""
    grid = replace(controls.grid, nt=controls.grid.nt * COARSE_FACTOR)
    return ControlPair(*(np.repeat(field, COARSE_FACTOR, axis=0)[:grid.nt + 1]
                         for field in (controls.u, controls.v)), grid, controls.regions)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product accumulated in float64, without BLAS threads."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel(), dtype=float))


def _sweep(initial_state: np.ndarray, coarse: Grid | None, params: ModelParams,
           weights: CostWeights, regions: QuarantineRegions, grid: Grid,
           sweep: SweepSettings, on_iterate) -> tuple[ControlPair, SweepReport]:
    """Anderson type-II iteration (Walker & Ni 2011) of x -> P(S(x)) on
    ``grid``, from zero controls, or, given a ``coarse`` grid, from the
    controls of this sweep on ``coarse`` from zero, stopped at a residual of
    max(tol, sqrt(tol)), held onto ``grid`` (see _to_grid).

    Each pass solves the state forward at the current controls x_k, streamed
    into the rows the adjoint reads and each level's state cost (see _Rows),
    prices x_k, and projects the optimality formulas (see project_controls)
    over those rows, giving the residual f_k = P(x_k) - x_k.  Unless it
    stops, the next controls are x_k + r f_k - sum_j gamma_j (dx_j + r df_j),
    clipped onto the box of project_controls (see _upper_bounds), where r is
    ``sweep.relaxation``, dx_j and df_j are the last ANDERSON_DEPTH
    differences of iterates and residuals, and gamma minimizes
    |f_k - sum_j gamma_j df_j|.  With no history this is the relaxed update
    (1 - r) x_k + r P(x_k).

    The differences are kept in float32 (only gamma depends on them); f_k
    waits in the slot of its difference until f_{k+1} is known.  The update
    builds u, then v: each part's f_k is spent once its part is built, so a
    pass holds the controls, the history and the three rows of _Rows.
    Returns the controls of the last pass and the SweepReport, whose
    coarse_iterations is 0 without a coarse stage.  The coarse
    controls are freed once _to_grid has read them, and the start made from
    them at the first update.
    """
    if coarse is None:
        controls, coarse_iterations = ControlPair.zeros(grid, regions), 0
    else:
        start_sweep = replace(sweep, tolerance=max(sweep.tolerance, sweep.tolerance ** 0.5))
        start, report = _sweep(
            initial_state, None, params, weights, regions, coarse, start_sweep, None)
        controls, coarse_iterations = _to_grid(start), report.iterations
        del start
    shape = (ANDERSON_DEPTH, 2, grid.nt + 1, grid.nx)
    steps = np.empty(shape, dtype=np.float32)    # x_{j+1} - x_j
    changes = np.empty(shape, dtype=np.float32)  # f_{j+1} - f_j
    gram = np.empty((ANDERSON_DEPTH, ANDERSON_DEPTH))  # df_i . df_j
    r = sweep.relaxation
    state_weights, upper = _state_weights(weights, regions, grid), _upper_bounds(grid, regions)
    history = []
    for iterations in range(sweep.max_iterations + 1):
        rows = _Rows(params, grid, state_weights)
        forward_solve(initial_state, controls.u[:, None], controls.v[:, None], params, grid,
                      rows)
        history.append(_cost(rows.state_cost, controls.u, controls.v, weights, grid))
        projected = project_controls(rows, controls, weights, params)  # over rows.i, rows.s
        del rows  # frees Lambda; the I and S rows are the projection's now
        f = [np.subtract(projected.u, controls.u, out=projected.u),
             np.subtract(projected.v, controls.v, out=projected.v)]
        del projected
        residual = float(max(f[0].max(), -f[0].min(), f[1].max(), -f[1].min()))
        if residual <= sweep.tolerance or iterations == sweep.max_iterations:
            break

        n = min(iterations, ANDERSON_DEPTH)
        if iterations:  # complete the newest df and its row of the Gram matrix
            last = (iterations - 1) % ANDERSON_DEPTH
            for part in (0, 1):
                np.subtract(f[part], changes[last, part], out=changes[last, part])
            for j in range(n):
                gram[last, j] = gram[j, last] = _dot(changes[last], changes[j])
        rhs = [_dot(changes[i, 0], f[0]) + _dot(changes[i, 1], f[1]) for i in range(n)]
        gamma = np.linalg.lstsq(gram[:n, :n], rhs, rcond=None)[0].tolist() if n else []

        slot = iterations % ANDERSON_DEPTH
        for part, x in enumerate((controls.u, controls.v)):
            y = f[part] * r
            y += x
            for j, g in enumerate(gamma):
                y -= g * steps[j, part]
                y -= (r * g) * changes[j, part]
            np.clip(y, 0.0, upper[part], out=y)
            np.subtract(y, x, out=steps[slot, part])
            changes[slot, part] = f[part]
            f[part] = y  # f_k's part is spent: the next controls' part takes its place
        del x, y  # the previous controls
        controls = ControlPair(*f, grid, regions)
        if on_iterate is not None:
            on_iterate(controls)
    return controls, SweepReport(iterations, coarse_iterations, history, residual,
                                 residual <= sweep.tolerance)
