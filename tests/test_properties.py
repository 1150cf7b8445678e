"""Property tests of the solver steps over random parameters, regions and
grids, against the per-equation reference forms neumann_laplacian,
reaction_rhs and state_jacobian, of the positivity advisory, of the cost
functional against its compartment-by-compartment form, of the discrete
population balance, of the box projection, of the sweep, of batched forward
solves against single ones and of the config round trip.  Grids keep the CFL
bound and the positivity advisory's bound 2*D*dt/dx^2 + dt*rate < 1, except
those of the divergence tests, which keep only the CFL bound."""

import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import sqeiar as sq
from sqeiar.config import MODES, PROFILE_NAMES, ConfigError, parse_config_text, render_config
from sqeiar.model import rho_source
from sqeiar.pde import _BLOCK, positivity_bound

from helpers import collect_batch

# no shrinking: a failing example is reported as found, in seconds and on a small heap,
# where a shrink of the solves' inputs could run for minutes on a gigabyte
PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None,
                    phases=[phase for phase in Phase if phase is not Phase.shrink])

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
def scenarios(draw, nt):
    """params, regions, grid, initial state and admissible controls; ``nt``
    draws the number of steps."""
    params, regions = draw(params_st), draw(regions_st())
    nx, nt = draw(st.integers(3, 30)), draw(nt)
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
@given(scenarios(st.integers(1, 12)))
def test_forward_step_matches_reference(scenario):
    # every level, each stepped from the level before it
    params, regions, grid, y, controls, _ = scenario
    traj = sq.forward_solve(y, controls, params, grid)
    D = params.diffusion_array[:, None]
    for m, y in enumerate(traj.values[:-1]):
        expected = y + grid.dt * (D * sq.neumann_laplacian(y, grid.dx) + sq.reaction_rhs(
            y, controls.u[m], controls.v[m], params, regions.v_max))
        np.testing.assert_allclose(traj.values[m + 1], expected, rtol=0,
                                   atol=1e-12 * np.abs(y).max())


@PROPERTY
@given(scenarios(st.integers(1, 40)))
def test_forward_solve_stays_nonnegative(scenario):
    params, regions, grid, y, controls, _ = scenario
    assert positivity_bound(y, params, regions, grid) < 1.0
    traj = sq.forward_solve(y, controls, params, grid)
    assert traj.values.min() >= 0.0


@PROPERTY
@given(scenarios(st.integers(2, 2)), weights_st)
def test_adjoint_step_matches_reference(scenario, weights):
    params, regions, grid, y, controls, _ = scenario
    state = sq.forward_solve(y, controls, params, grid)
    adjoint = sq.adjoint_solve(state, controls, weights, params, grid)
    p = adjoint.values[1]
    rho = rho_source(grid, regions, weights)
    np.testing.assert_allclose(p, 0.5 * grid.dt * rho, rtol=1e-15)
    H = sq.state_jacobian(state.values[1], controls.u[1], controls.v[1], params,
                          regions.v_max)
    D = params.diffusion_array[:, None]
    expected = p + grid.dt * (D * sq.neumann_laplacian(p, grid.dx)
                              + np.einsum("xij,ix->jx", H, p) + rho)
    np.testing.assert_allclose(adjoint.values[0], expected, rtol=0,
                               atol=1e-12 * np.abs(expected).max())


@PROPERTY
@given(scenarios(st.integers(2, 12)), weights_st)
def test_adjoint_pairing_is_exact(scenario, weights):
    # <J h, rho>: the cost-weighted linearized solve along h = (h_u, h_v);
    # <h, J^T p>: h paired with the adjoint through the control terms
    params, regions, grid, y, controls, rng = scenario
    state = sq.forward_solve(y, controls, params, grid)
    adjoint = sq.adjoint_solve(state, controls, weights, params, grid)
    shape = (grid.nt + 1, grid.nx)
    mask = regions.mask(grid.x)
    h_u, h_v = rng.normal(size=shape), rng.normal(size=shape) * mask
    Y = sq.sensitivity_solve(y, controls, h_u, h_v, params, grid)

    wx, wt = grid.space_weights(), grid.time_weights()
    rho_wx = rho_source(grid, regions, weights) * wx
    forward = wt[:, None, None] * rho_wx * Y.values
    backward = grid.dt * wx * (h_u * state.i * (adjoint.r - adjoint.i)
                               + h_v * mask * state.s * (adjoint.q - adjoint.s))[:-1]
    scale = np.abs(forward).sum() + np.abs(backward).sum()
    assert abs(forward.sum() - backward.sum()) <= 1e-10 * scale


def reference_adjoint(state, controls, weights, params, regions, grid):
    """Every level of the adjoint, stepped from state_jacobian and
    neumann_laplacian one level at a time."""
    rho, D = rho_source(grid, regions, weights), params.diffusion_array[:, None]
    out = np.zeros_like(state.values)
    out[grid.nt - 1] = 0.5 * grid.dt * rho
    for m in range(grid.nt - 1, 0, -1):
        p = out[m]
        H = sq.state_jacobian(state.values[m], controls.u[m], controls.v[m], params,
                              regions.v_max)
        out[m - 1] = p + grid.dt * (D * sq.neumann_laplacian(p, grid.dx)
                                    + np.einsum("xij,ix->jx", H, p) + rho)
    return out


@PROPERTY
@given(scenarios(st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])),
       weights_st)
def test_adjoint_matches_reference_across_blocks(scenario, weights):
    # the adjoint reads its coefficient rows per block of _BLOCK levels
    params, regions, grid, y, controls, _ = scenario
    state = sq.forward_solve(y, controls, params, grid)
    adjoint = sq.adjoint_solve(state, controls, weights, params, grid)
    expected = reference_adjoint(state, controls, weights, params, regions, grid)
    np.testing.assert_allclose(adjoint.values, expected, rtol=0,
                               atol=1e-12 * np.abs(expected).max())


@PROPERTY
@given(scenarios(st.integers(1, 20)), weights_st)
def test_projection_is_idempotent(scenario, weights):
    params, regions, grid, y, controls, _ = scenario
    state = sq.forward_solve(y, controls, params, grid)
    projected = sq.project_controls(state, controls, weights, params)
    np.testing.assert_array_equal(np.clip(projected.u, 0.0, 1.0), projected.u)
    np.testing.assert_array_equal(
        np.clip(projected.v, 0.0, regions.v_max) * regions.mask(grid.x), projected.v)


# fine updates of the sweep: at most 7 in 300 draws of these scenarios (median
# 2), median 11 with the Anderson step left out
SWEEP_UPDATES = 8


@PROPERTY
@given(scenarios(st.integers(1, 60)), weights_st)
def test_sweep_converges_inside_the_box(scenario, weights):
    # nt is a multiple of 3 or not, so the coarse start is taken in some draws
    # and skipped in others
    params, regions, grid, y, _, _ = scenario
    iterates, sweep = [], sq.SweepSettings()
    _, _, returned, report = sq.fbsm_solve(
        y, params, weights, regions, grid, sweep, on_iterate=iterates.append)
    assert report.converged and report.iterations <= SWEEP_UPDATES
    state = sq.forward_solve(y, returned, params, grid)
    projected = sq.project_controls(state, returned, weights, params)
    assert max(np.abs(projected.u - returned.u).max(),
               np.abs(projected.v - returned.v).max()) <= sweep.tolerance
    off = regions.mask(grid.x) == 0
    for it in iterates:
        assert it.u.min() >= 0.0 and it.u.max() <= 1.0
        assert it.v.min() >= 0.0 and it.v.max() <= regions.v_max
        assert np.all(it.v[:, off] == 0.0)
    assert np.all(np.isfinite(report.cost_history))


def reference_cost(state, controls, weights, regions, grid):
    """The cost written out compartment by compartment: trapezoid in space
    and time, with the rho1 and sigma2 terms weighted by the region mask."""
    wx, wt = grid.space_weights(), grid.time_weights()
    mask = regions.mask(grid.x)
    epidemic = (weights.rho1 * (state.s * (wx * mask)).sum(axis=1)
                + weights.rho3 * (state.e * wx).sum(axis=1)
                + weights.rho4 * (state.a * wx).sum(axis=1)
                + weights.rho5 * (state.i * wx).sum(axis=1))
    effort = (0.5 * weights.sigma1 * (controls.u ** 2 * wx).sum(axis=1)
              + 0.5 * weights.sigma2 * (controls.v ** 2 * (wx * mask)).sum(axis=1))
    return float(wt @ (epidemic + effort))


@PROPERTY
@given(scenarios(st.integers(1, 20)), weights_st)
def test_cost_functional_matches_reference(scenario, weights):
    params, regions, grid, y, controls, _ = scenario
    state = sq.forward_solve(y, controls, params, grid)
    expected = reference_cost(state, controls, weights, regions, grid)
    assert sq.cost_functional(state, controls, weights) == pytest.approx(
        expected, rel=1e-12)


@PROPERTY
@given(scenarios(st.integers(1, 40)))
def test_forward_solve_balances_population(scenario):
    params, regions, grid, y, controls, _ = scenario
    report = sq.mass_balance_check(sq.forward_solve(y, controls, params, grid),
                                   params)
    assert report.passed, report.detail


@st.composite
def diverging_scenarios(draw):
    """A scenario whose explicit step is unstable: dt * k or dt * beta in [3, 30]
    at D*dt/dx^2 < 0.45, over 1500 steps."""
    nx, nt = draw(st.integers(3, 15)), 1500
    dt, dx = draw(st.floats(1e-3, 0.1)), 1.0 / (nx - 1)
    cfl = draw(st.floats(0.05, 0.45))
    weights = draw(st.tuples(*[st.floats(0.1, 1.0)] * 6))
    rate = draw(st.sampled_from(["k", "beta"]))
    params = replace(draw(params_st), diffusion=tuple(cfl * dx ** 2 / dt * w for w in weights),
                     **{rate: draw(st.floats(3.0, 30.0)) / dt})
    regions, grid = draw(regions_st()), sq.Grid(nx=nx, tau=nt * dt, nt=nt)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    initial = rng.uniform(0.0, draw(st.floats(1.0, 1e4)), (6, nx))
    shape = (nt + 1, nx)
    controls = sq.ControlPair(rng.uniform(0.0, 1.0, shape),
                              rng.uniform(0.0, regions.v_max, shape) * regions.mask(grid.x),
                              grid, regions)
    return params, regions, grid, initial, controls


def first_divergence(y, controls, params, regions, grid):
    """(step, node) of the first non-finite entry, in (compartment, node) order,
    of explicit Euler steps written from neumann_laplacian and reaction_rhs and
    tested after every step; None if all stay finite.  The rates and controls
    are scaled by dt before reaction_rhs, so that each term has the size of a
    step's increment: dt * reaction_rhs(y) overflows up to 1/dt sooner."""
    dt, p = grid.dt, params
    scaled = replace(p, beta=dt * p.beta, delta=dt * p.delta, mu=dt * p.mu,
                     q=1.0 - dt * (1.0 - p.q), xi=dt * p.xi, k=dt * p.k, eta=dt * p.eta,
                     f=dt * p.f)
    c = p.diffusion_array[:, None] * (dt / grid.dx ** 2)
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(grid.nt):
            y = y + c * sq.neumann_laplacian(y, 1.0) + sq.reaction_rhs(
                y, dt * controls.u[m], dt * controls.v[m], scaled, regions.v_max)
            bad = np.argwhere(~np.isfinite(y))
            if len(bad):
                return m + 1, int(bad[0][-1])
    return None


@PROPERTY
@given(diverging_scenarios())
def test_divergence_reported_where_it_first_happens(scenario):
    params, regions, grid, y, controls = scenario
    expected = first_divergence(y, controls, params, regions, grid)
    assert expected is not None
    ones = np.ones((grid.nt + 1, grid.nx))
    solves = {
        "state": lambda: sq.forward_solve(y, controls, params, grid),
        "sensitivity": lambda: sq.sensitivity_solve(y, controls, ones, ones, params, grid),
    }
    for what, solve in solves.items():
        with pytest.raises(sq.IntegrationError) as err:
            solve()
        assert (err.value.step, err.value.node) == expected
        assert str(err.value).startswith(f"non-finite {what} value")


@PROPERTY
@given(scenarios(st.integers(1, 12)), st.integers(1, 6))
def test_batched_members_equal_single_solves(scenario, batch):
    params, regions, grid, y, _, rng = scenario
    shape = (grid.nt + 1, batch, grid.nx)
    u = rng.uniform(0.0, 1.0, shape)
    v = rng.uniform(0.0, regions.v_max, shape) * regions.mask(grid.x)
    pairs = [sq.ControlPair(u[:, b], v[:, b], grid, regions) for b in range(batch)]
    members = collect_batch(y, pairs, params, grid)
    assert members.shape[2] == batch
    for b, pair in enumerate(pairs):
        single = sq.forward_solve(y, pair, params, grid)
        np.testing.assert_allclose(members[:, :, b], single.values, rtol=0,
                                   atol=1e-15 * np.abs(single.values).max())


@st.composite
def one_diverging_batch(draw):
    """2 to 6 control pairs over 1500 steps of dt in [4, 30], all but
    member ``bad`` stable: the rates are scaled so that the positivity advisory's
    sum 2 * D*dt/dx^2 + dt * rates stays below 0.9 at controls of at most 0.04 / dt
    and profiles of at most 1, while member ``bad`` has u in [0.9, 1], whose
    treatment outflow dt * u * I >= 3.6 makes its step unstable."""
    nx, nt, batch = draw(st.integers(3, 15)), 1500, draw(st.integers(2, 6))
    dt, dx = draw(st.floats(4.0, 30.0)), 1.0 / (nx - 1)
    cfl = draw(st.floats(0.05, 0.2))
    weights = draw(st.tuples(*[st.floats(0.1, 1.0)] * 6))
    p, s = draw(params_st), draw(st.floats(0.005, 0.04)) / dt
    params = replace(p, beta=s * p.beta, delta=s * p.delta, mu=s * p.mu, q=1.0 - s * (1.0 - p.q),
                     xi=s * p.xi, k=s * p.k, eta=s * p.eta, f=s * p.f,
                     diffusion=tuple(cfl * dx ** 2 / dt * w for w in weights))
    regions, grid = draw(regions_st()), sq.Grid(nx=nx, tau=nt * dt, nt=nt)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    initial = rng.uniform(0.0, 1.0, (6, nx))
    shape = (nt + 1, batch, nx)
    u = rng.uniform(0.0, s, shape)
    v = rng.uniform(0.0, min(s, regions.v_max), shape) * regions.mask(grid.x)
    bad = draw(st.integers(0, batch - 1))
    u[:, bad] = rng.uniform(0.9, 1.0, (nt + 1, nx))
    pairs = [sq.ControlPair(u[:, b], v[:, b], grid, regions) for b in range(batch)]
    return params, regions, grid, initial, pairs, bad


def raised(solve):
    """(step, node, message) of the IntegrationError that ``solve()`` raises."""
    try:
        solve()
    except sq.IntegrationError as err:
        return err.step, err.node, str(err)
    pytest.fail("the solve did not diverge")


@PROPERTY
@given(one_diverging_batch())
def test_batched_divergence_reported_as_in_its_member(scenario):
    params, regions, grid, y, pairs, bad = scenario
    collect_batch(y, pairs[:bad] + pairs[bad + 1:], params, grid)
    alone = raised(lambda: sq.forward_solve(y, pairs[bad], params, grid))
    assert raised(lambda: collect_batch(y, pairs, params, grid)) == alone


# every character str.splitlines splits on; all are whitespace to str.strip
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@st.composite
def configs(draw):
    """Random ScenarioConfig: six equal or six drawn diffusion coefficients,
    regions inside a domain around [0, 1], and nt drawn above the CFL bound."""
    diffusion = draw(st.one_of(st.floats(1e-4, 1e-2).map(lambda d: (d,) * 6),
                               st.tuples(*[st.floats(1e-4, 1e-2)] * 6)))
    params = replace(draw(params_st), diffusion=diffusion)
    x_min, x_max = draw(st.floats(-1.0, 0.0)), draw(st.floats(1.0, 2.0))
    nx, tau = draw(st.integers(3, 200)), draw(st.floats(0.1, 100.0))
    dx = (x_max - x_min) / (nx - 1)
    nt = draw(st.integers(1, 1000)) + int(2.0 * max(diffusion) * tau / dx ** 2)
    sweep = sq.SweepSettings(draw(st.floats(1e-10, 1.0)), draw(st.integers(1, 1000)),
                             draw(st.floats(0.0, 1.0, exclude_min=True)))
    profiles = {name: draw(st.sampled_from(PROFILE_NAMES)) for name in "sqeair"}
    plain = st.sampled_from("ab1_-./ \t")
    output_dir = Path(draw(st.text(plain, min_size=1, max_size=12)
                           | st.text(plain | st.sampled_from("#" + LINE_BREAKS),
                                     min_size=1, max_size=12)))
    return sq.ScenarioConfig(
        params=params, weights=draw(weights_st), regions=draw(regions_st()),
        grid=sq.Grid(x_min, x_max, nx, tau, nt), profiles=profiles, sweep=sweep,
        mode=draw(st.sampled_from(MODES)), seed=draw(st.integers(0, 2 ** 63)),
        output_dir=output_dir, stride=draw(st.integers(1, 10 ** 6)))


@PROPERTY
@given(configs())
def test_rendered_config_parses_back(config):
    # '#' starts a comment, the parser strips each value and splits the text
    # into lines, so a value with '#', a line break or whitespace at either end
    # cannot be written
    text = str(config.output_dir)
    blank = " \t" + LINE_BREAKS
    if any(c in "#" + LINE_BREAKS for c in text) or text[0] in blank or text[-1] in blank:
        with pytest.raises(ConfigError, match="^output.dir: "):
            render_config(config)
    else:
        assert parse_config_text(render_config(config)) == config
