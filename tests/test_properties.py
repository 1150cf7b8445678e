"""Property tests of the solver steps over random parameters, regions and
grids, against the per-equation reference forms neumann_laplacian,
reaction_rhs and state_jacobian.  Grids keep the CFL bound and the
positivity advisory's bound 2*D*dt/dx^2 + dt*rate < 1."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import sqeiar as sq
from sqeiar.model import rho_source

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)

unit = st.floats(0.0, 1.0)
params_st = st.builds(
    sq.ModelParams,
    beta=st.floats(0.0, 1e-3), delta=st.floats(0.0, 1e-3), q=unit,
    mu=st.floats(0.0, 1e-3), xi=st.floats(0.0, 0.1), k=st.floats(0.0, 2.0),
    z=unit, eta=unit, p=unit, f=unit, alpha=st.floats(0.5, 0.999),
    diffusion=st.tuples(*[st.floats(1e-4, 1e-2)] * 6))
weights_st = st.builds(sq.CostWeights, *[st.floats(0.1, 10.0)] * 4,
                       *[st.floats(1.0, 200.0)] * 2)


@st.composite
def regions_st(draw):
    n = draw(st.integers(1, 3))
    cuts = sorted(draw(st.lists(unit, min_size=2 * n, max_size=2 * n, unique=True)))
    return sq.QuarantineRegions(tuple(zip(cuts[::2], cuts[1::2])))


@st.composite
def scenarios(draw, nt_range):
    """params, regions, grid, initial state and admissible controls."""
    params, regions = draw(params_st), draw(regions_st())
    nx, nt = draw(st.integers(3, 30)), draw(st.integers(*nt_range))
    fraction = draw(st.floats(0.05, 0.9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    initial = rng.uniform(0.0, draw(st.floats(1.0, 1e4)), (6, nx))

    # dt at which the advisory's bound equals ``fraction``
    dx = 1.0 / (nx - 1)
    n0 = float(initial.sum(axis=0) @ sq.Grid(nx=nx).space_weights())
    rate = (params.beta + (params.delta + 1.0 - params.q + params.mu) * n0
            + regions.v_max + params.k + params.eta + params.f + 1.0 + params.xi)
    dt = fraction / (2.0 * max(params.diffusion) / dx ** 2 + rate)
    grid = sq.Grid(nx=nx, tau=nt * dt, nt=nt)
    config = sq.ScenarioConfig(params=params, regions=regions, grid=grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config.positivity_step_warning(initial)

    shape = (nt + 1, nx)
    mask = regions.mask(grid.x)
    controls = sq.ControlPair(rng.uniform(0.0, 1.0, shape),
                              rng.uniform(0.0, regions.v_max, shape) * mask, grid, regions)
    return params, regions, grid, initial, controls, rng


@PROPERTY
@given(scenarios(nt_range=(1, 1)))
def test_forward_step_matches_reference(scenario):
    params, regions, grid, y, controls, _ = scenario
    traj = sq.forward_solve(y, controls, params, regions, grid)
    D = params.diffusion_array[:, None]
    expected = y + grid.dt * (D * sq.neumann_laplacian(y, grid.dx) + sq.reaction_rhs(
        y, controls.u[0], controls.v[0], params, regions.v_max))
    np.testing.assert_allclose(traj.values[1], expected, rtol=0,
                               atol=1e-12 * np.abs(y).max())


@PROPERTY
@given(scenarios(nt_range=(2, 2)), weights_st)
def test_adjoint_step_matches_reference(scenario, weights):
    params, regions, grid, y, controls, _ = scenario
    state = sq.forward_solve(y, controls, params, regions, grid)
    adjoint = sq.adjoint_solve(state, controls, weights, params, regions, grid)
    p = adjoint.values[1]
    rho = rho_source(grid.x, regions, weights)
    np.testing.assert_allclose(p, 0.5 * grid.dt * rho, rtol=1e-15)
    H = sq.state_jacobian(state.values[1], controls.u[1], controls.v[1], params,
                          regions.v_max)
    D = params.diffusion_array[:, None]
    expected = p + grid.dt * (D * sq.neumann_laplacian(p, grid.dx)
                              + np.einsum("xij,ix->jx", H, p) + rho)
    np.testing.assert_allclose(adjoint.values[0], expected, rtol=0,
                               atol=1e-12 * np.abs(expected).max())


@PROPERTY
@given(scenarios(nt_range=(2, 12)), weights_st)
def test_adjoint_pairing_is_exact(scenario, weights):
    # <J h, rho>: the cost-weighted linearized solve along h = (h_u, h_v);
    # <h, J^T p>: h paired with the adjoint through the control terms
    params, regions, grid, y, controls, rng = scenario
    state = sq.forward_solve(y, controls, params, regions, grid)
    adjoint = sq.adjoint_solve(state, controls, weights, params, regions, grid)
    shape = (grid.nt + 1, grid.nx)
    mask = regions.mask(grid.x)
    h_u, h_v = rng.normal(size=shape), rng.normal(size=shape) * mask
    Y = sq.sensitivity_solve(y, controls, h_u, h_v, params, regions, grid)

    wx, wt = grid.space_weights(), grid.time_weights()
    rho_wx = rho_source(grid.x, regions, weights) * wx
    forward = wt[:, None, None] * rho_wx * Y.values
    backward = grid.dt * wx * (h_u * state.i * (adjoint.r - adjoint.i)
                               + h_v * mask * state.s * (adjoint.q - adjoint.s))[:-1]
    scale = np.abs(forward).sum() + np.abs(backward).sum()
    assert abs(forward.sum() - backward.sum()) <= 1e-10 * scale
