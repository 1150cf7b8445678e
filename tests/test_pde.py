import tracemalloc

import numpy as np
import pytest

import sqeiar as sq
from sqeiar.model import ContractError, ModelParams, QuarantineRegions, rho_source
from sqeiar.pde import _forward_batch, neumann_laplacian
from sqeiar.verify import _random_directions

from helpers import collect_batch, time_to_threshold

WHOLE = QuarantineRegions(((0.0, 1.0),))
TABLE = ModelParams()


class TestGrid:
    def test_defaults(self):
        grid = sq.Grid()
        assert grid.dx == pytest.approx(0.01)
        assert grid.dt == pytest.approx(0.01)
        assert grid.cfl_number(TABLE) == pytest.approx(0.1)

    def test_too_few_nodes(self):
        with pytest.raises(ContractError):
            sq.Grid(nx=2)

    def test_cfl_rejected(self):
        grid = sq.Grid(nx=101, tau=30.0, nt=30)  # dt = 1.0 -> CFL number 10
        with pytest.raises(ContractError, match="CFL"):
            grid.check_cfl(TABLE)

    def test_cfl_at_half_rejected(self):
        # D*dt/dx^2 is exactly 1/2 here, where the explicit scheme diverges
        grid = sq.Grid(nx=101, nt=600)
        assert grid.cfl_number(TABLE) == 0.5
        with pytest.raises(ContractError, match="CFL"):
            grid.check_cfl(TABLE)

    def test_quadrature_weights_integrate_constants(self):
        grid = sq.Grid(nx=11, tau=2.0, nt=20)
        assert grid.space_weights().sum() == pytest.approx(1.0)
        assert grid.time_weights().sum() == pytest.approx(2.0)


class TestNeumannLaplacian:
    def test_constant_row(self):
        out = neumann_laplacian(np.full(11, 3.7), 0.1)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_cosine_profile(self):
        grid = sq.Grid(nx=101)
        row = np.cos(np.pi * grid.x)
        out = neumann_laplacian(row, grid.dx)
        exact = -np.pi ** 2 * row
        assert np.abs(out - exact).max() < 0.01 * np.pi ** 2

    def test_discrete_divergence_theorem(self):
        rng = np.random.default_rng(2)
        grid = sq.Grid(nx=101)
        row = rng.uniform(-1, 1, grid.nx)
        total = grid.space_weights() @ neumann_laplacian(row, grid.dx)
        assert abs(total) < 1e-9 * np.linalg.norm(row)

    def test_too_short_row(self):
        with pytest.raises(ContractError):
            neumann_laplacian(np.ones(2), 0.1)


def small_setup(tau=3.0, nt=300, nx=21):
    grid = sq.Grid(nx=nx, tau=tau, nt=nt)
    from dataclasses import replace

    cfg = replace(sq.ScenarioConfig(), grid=grid)
    return grid, cfg.initial_array()


class TestForwardSolve:
    def test_zero_initial_zero_everything(self):
        grid = sq.Grid(nx=11, tau=1.0, nt=50)
        controls = sq.ControlPair.zeros(grid, WHOLE)
        traj = sq.forward_solve(np.zeros((6, grid.nx)), controls, TABLE, grid)
        assert np.all(traj.values == 0.0)

    def test_transmission_free_uniform_s_constant(self):
        params = ModelParams(beta=0.0, delta=0.0, mu=0.0, q=1.0, xi=0.0)
        grid = sq.Grid(nx=21, tau=2.0, nt=200)
        initial = np.zeros((6, grid.nx))
        initial[0] = 123.25
        controls = sq.ControlPair.zeros(grid, WHOLE)
        traj = sq.forward_solve(initial, controls, params, grid)
        assert np.all(traj.s == 123.25)

    def test_negative_initial_rejected(self):
        # forward_solve and sensitivity_solve share the entry checks
        grid = sq.Grid(nx=11, tau=1.0, nt=50)
        controls = sq.ControlPair.zeros(grid, WHOLE)
        direction = np.ones((grid.nt + 1, grid.nx))
        solves = (
            lambda initial: sq.forward_solve(initial, controls, TABLE, grid),
            lambda initial: sq.sensitivity_solve(initial, controls, direction, direction, TABLE,
                                                 grid))
        for solve in solves:
            for bad in (-1.0, np.nan, np.inf):
                initial = np.zeros((6, grid.nx))
                initial[0, 3] = bad
                with pytest.raises(ContractError):
                    solve(initial)

    @pytest.mark.parametrize("other", ["grid"])
    def test_batch_member_of_another_setup_rejected(self, other):
        # same shapes, so only the alignment check can tell the pair apart
        grid, initial = small_setup()
        pair = sq.ControlPair.zeros(sq.Grid(nx=21, tau=6.0, nt=300), WHOLE)
        with pytest.raises(ContractError, match="different"):
            collect_batch(initial, [sq.ControlPair.zeros(grid, WHOLE), pair], TABLE, grid)

    def test_batch_stacks_of_another_shape_rejected(self):
        # the steps read the stacks, so they must hold one (nt + 1, nx) field per pair
        grid, initial = small_setup()
        pairs = [sq.ControlPair.zeros(grid, WHOLE) for _ in range(2)]
        stack = np.zeros((grid.nt + 1, 2, grid.nx))
        for u, v in ((stack[:, :1], stack), (stack, stack[:-1])):
            with pytest.raises(ContractError, match="stacks"):
                _forward_batch(initial, u, v, pairs, TABLE, grid, lambda lo, levels: None)

    def test_batch_members_of_other_regions_are_their_own_solves(self):
        # each pair carries its regions: a batch may mix them, and each member
        # is still bitwise the forward_solve of its pair
        grid, initial = small_setup()
        pairs = [sq.ControlPair.constant(0.2, 0.2 * regions.v_max, grid, regions)
                 for regions in (WHOLE, QuarantineRegions(((0.0, 0.5),)),
                                 QuarantineRegions(((0.2, 0.45), (0.6, 0.8))))]
        assert len({pair.v.tobytes() for pair in pairs}) == 3
        members = collect_batch(initial, pairs, TABLE, grid)
        for b, pair in enumerate(pairs):
            single = sq.forward_solve(initial, pair, TABLE, grid)
            assert np.array_equal(members[:, :, b], single.values)

    def test_uncontrolled_susceptibles_collapse(self, baseline_run, default_config):
        traj, _, _ = baseline_run
        metrics = sq.extract_metrics(traj)
        crossing = time_to_threshold(metrics, default_config.grid.t, "S", 0.01 * metrics.aggregates["S"][0])
        assert crossing is not None and crossing <= 10.0

    def test_integration_failure_reports_location(self):
        # CFL fine but reaction blow-up via huge reinfection feeding itself
        params = ModelParams(xi=0.0, diffusion=(1e-4,) * 6)
        grid = sq.Grid(nx=5, tau=2000.0, nt=2000)
        initial = np.zeros((6, grid.nx))
        initial[0] = 1e300
        initial[2] = 1e300
        # no errstate here: a RuntimeWarning from the solve fails the test
        with pytest.raises(sq.IntegrationError) as err:
            sq.forward_solve(initial, sq.ControlPair.zeros(grid, WHOLE), params, grid)
        assert str(err.value) == "non-finite state value at time step 1, node 0"
        assert (err.value.step, err.value.node) == (1, 0)

    def test_state_and_sensitivity_diverge_at_one_location(self):
        # dt * k = 5 makes the explicit step unstable: both overflow at step 18
        params = ModelParams(k=500, diffusion=(1e-3, 2e-3, 1e-3, 3e-3, 1e-3, 1e-3))
        grid = sq.Grid(nx=11, tau=10.0, nt=1000)
        regions = QuarantineRegions(((0.2, 0.6),))
        controls = sq.ControlPair.constant(0.3, 0.5, grid, regions)
        initial = np.full((6, grid.nx), 100.0)
        initial[2, 7] = 1e3
        ones = np.ones((grid.nt + 1, grid.nx))
        solves = {
            "state": lambda: sq.forward_solve(initial, controls, params, grid),
            "sensitivity": lambda: sq.sensitivity_solve(initial, controls, ones, ones, params,
                                                        grid),
        }
        for what, solve in solves.items():
            with pytest.raises(sq.IntegrationError) as err:
                solve()
            assert str(err.value) == f"non-finite {what} value at time step 18, node 7"
            assert (err.value.step, err.value.node) == (18, 7)

    def test_spatial_symmetry(self):
        grid = sq.Grid(nx=41, tau=2.0, nt=200)
        x = grid.x
        initial = np.zeros((6, grid.nx))
        initial[0] = 5000 + 1000 * np.cos(2 * np.pi * x)
        initial[2] = 300 * np.sin(np.pi * x)
        initial[4] = 400 + 100 * np.cos(2 * np.pi * x)
        controls = sq.ControlPair.constant(0.25, 0.25, grid, WHOLE)
        traj = sq.forward_solve(initial, controls, TABLE, grid)
        np.testing.assert_allclose(traj.values, traj.values[:, :, ::-1],
                                   atol=1e-9 * np.abs(traj.values).max())


class TestAdjointSolve:
    def run(self, weights, tau=6.0, nt=600, nx=21):
        grid, initial = small_setup(tau=tau, nt=nt, nx=nx)
        controls = sq.ControlPair.zeros(grid, WHOLE)
        state = sq.forward_solve(initial, controls, TABLE, grid)
        return grid, sq.adjoint_solve(state, controls, weights, TABLE, grid)

    def test_zero_weights_zero_adjoint(self):
        # a zero source cannot be configured through CostWeights (strictly
        # positive); scale an admissible one and check linear response instead
        tiny = sq.CostWeights(rho1=1e-300, rho3=1e-300, rho4=1e-300,
                              rho5=1e-300, sigma1=1, sigma2=1)
        _, adjoint = self.run(tiny)
        assert np.abs(adjoint.values).max() < 1e-290

    def test_divergence_reports_location(self):
        grid = sq.Grid(nx=9, tau=50.0, nt=500)
        values = np.ones((grid.nt + 1, 6, grid.nx))
        values[:, 0, 4] = 1e200
        values[:, 2, 4] = 1e150
        with pytest.raises(sq.IntegrationError) as err:
            sq.adjoint_solve(sq.Trajectory(values, grid), sq.ControlPair.zeros(grid, WHOLE),
                             sq.CostWeights(), TABLE, grid)
        assert str(err.value) == "non-finite adjoint value at time step 495, node 4"
        assert (err.value.step, err.value.node) == (495, 4)

    def test_terminal_row_zero(self):
        _, adjoint = self.run(sq.CostWeights())
        assert np.all(adjoint.values[-1] == 0.0)

    def test_infected_weight_gives_positive_p5(self):
        weights = sq.CostWeights(rho1=1e-12, rho3=1e-12, rho4=1e-12,
                                 rho5=1.0, sigma1=1, sigma2=1)
        _, adjoint = self.run(weights)
        assert adjoint.i[:-1].max() > 0.0

    def test_grid_mismatch_rejected(self):
        grid, initial = small_setup()
        other = sq.Grid(nx=21, tau=3.0, nt=600)
        controls = sq.ControlPair.zeros(grid, WHOLE)
        state = sq.forward_solve(initial, controls, TABLE, grid)
        with pytest.raises(ContractError):
            sq.adjoint_solve(state, controls, sq.CostWeights(), TABLE, other)

    def test_non_finite_state_rejected(self):
        grid, initial = small_setup()
        controls = sq.ControlPair.zeros(grid, WHOLE)
        state = sq.forward_solve(initial, controls, TABLE, grid)
        values = state.values.copy()
        values[grid.nt // 2, 2, 3] = np.nan
        broken = sq.Trajectory(values, grid)
        with pytest.raises(ContractError):
            sq.adjoint_solve(broken, controls, sq.CostWeights(), TABLE, grid)

    @pytest.mark.parametrize("regions", [
        WHOLE, QuarantineRegions(((0.1, 0.4), (0.6, 0.9)))])
    def test_exact_discrete_duality(self, regions):
        # the adjoint pairing equals the derivative of the discrete cost
        # along the linearized forward solve, to roundoff
        grid, initial = small_setup()
        weights = sq.CostWeights(rho1=2.0, rho3=0.5, rho4=3.0, rho5=1.5,
                                 sigma1=40.0, sigma2=70.0)
        controls = sq.ControlPair.constant(0.3, 0.3 * regions.v_max, grid, regions)
        state = sq.forward_solve(initial, controls, TABLE, grid)
        adjoint = sq.adjoint_solve(state, controls, weights, TABLE, grid)
        gradient = sq.cost_gradient(state, adjoint, controls, weights)
        # no flow v*S off the regions, so no gradient there: exactly zero
        assert np.all(gradient[1][:, regions.mask(grid.x) == 0] == 0.0)
        wx, wt = grid.space_weights(), grid.time_weights()
        rho_wx = rho_source(grid, regions, weights) * wx
        rng = np.random.default_rng(3)
        for h_u, h_v in _random_directions(grid, regions, 3, rng):
            Y = sq.sensitivity_solve(initial, controls, h_u, h_v, TABLE, grid)
            control_part = wt @ ((weights.sigma1 * controls.u * h_u) @ wx
                                 + (weights.sigma2 * controls.v * h_v) @ wx)
            state_part = wt @ np.einsum("cx,mcx->m", rho_wx, Y.values)
            paired = sq.directional_derivative(*gradient, controls, weights, h_u, h_v)
            assert paired == pytest.approx(control_part + state_part, rel=1e-10)

    def test_transpose_consistency(self):
        # <H^T p, y> = <p, H y> pointwise for random data
        rng = np.random.default_rng(9)
        block = rng.uniform(0, 1e4, (6, 7))
        H = sq.state_jacobian(block, 0.3, 0.2, TABLE)
        p = rng.normal(size=(6, 7))
        y = rng.normal(size=(6, 7))
        lhs = np.einsum("xij,ix->jx", H, p) * y
        rhs = p * np.einsum("xij,jx->ix", H, y)
        assert lhs.sum() == pytest.approx(rhs.sum(), rel=1e-12)


class TestSensitivitySolve:
    def test_zero_direction_zero_output(self):
        grid, initial = small_setup()
        controls = sq.ControlPair.constant(0.3, 0.3, grid, WHOLE)
        shape = (grid.nt + 1, grid.nx)
        Y = sq.sensitivity_solve(initial, controls, np.zeros(shape), np.zeros(shape),
                                 TABLE, grid)
        assert np.all(Y.values == 0.0)

    def test_treatment_direction_leaves_quarantine_untouched(self):
        grid, initial = small_setup()
        controls = sq.ControlPair.zeros(grid, WHOLE)  # v == 0
        shape = (grid.nt + 1, grid.nx)
        Y = sq.sensitivity_solve(initial, controls, np.full(shape, 0.5), np.zeros(shape),
                                 TABLE, grid)
        assert np.all(Y.q == 0.0)
        assert np.abs(Y.i).max() > 0.0

    @pytest.mark.parametrize("which", ["h_u", "h_v"])
    @pytest.mark.parametrize("bad", ["nx", "nt+1", "scalar", "transposed"])
    def test_direction_shape_rejected(self, which, bad):
        grid = sq.Grid(nx=11, tau=1.0, nt=50)
        controls = sq.ControlPair.zeros(grid, WHOLE)
        wrong = {"nx": np.ones(grid.nx), "nt+1": np.ones(grid.nt + 1),
                 "scalar": 1.0, "transposed": np.ones((grid.nx, grid.nt + 1))}[bad]
        direction = {"h_u": np.ones((grid.nt + 1, grid.nx)),
                     "h_v": np.ones((grid.nt + 1, grid.nx)), which: wrong}
        with pytest.raises(ContractError, match="shape"):
            sq.sensitivity_solve(np.ones((6, grid.nx)), controls, direction["h_u"],
                                 direction["h_v"], TABLE, grid)

    def test_divided_difference_richardson(self, small_config):
        grid = small_config.grid
        base = sq.ControlPair.constant(0.3, 0.3, grid, WHOLE)
        state = sq.forward_solve(small_config.initial_array(), base, TABLE, grid)
        report = sq.sensitivity_oracle(state, base, TABLE, seed=42)
        assert report.passed, report.detail


class TestDiscreteBalance:
    def test_mass_balance_default_run(self, baseline_run, default_config):
        traj, _, _ = baseline_run
        report = sq.mass_balance_check(traj, default_config.params)
        assert report.passed
        assert report.measured < 1e-8

    def test_total_population_monotone(self, baseline_run, default_config):
        traj, _, _ = baseline_run
        metrics = sq.extract_metrics(traj)
        increments = np.diff(metrics.total_population)
        assert increments.max() <= 1e-8 * metrics.total_population[0]

    def test_positivity_default_run(self, baseline_run):
        traj, _, _ = baseline_run
        assert sq.positivity_check(traj).passed


def _extra_peak(call, grid) -> float:
    """Peak bytes ``call`` allocates beyond the array its result holds, in
    (nt + 1) x nx float64 fields of ``grid``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = getattr(result, "values", None)
    return (peak - before - (held.nbytes if held is not None else 0)) / (
        (grid.nt + 1) * grid.nx * 8)


def _memory_calls():
    """Calls on the grid of the allocation tests (nx = 101, nt = 1000), by name."""
    grid = sq.Grid(nx=101, tau=10.0, nt=1000)
    regions = QuarantineRegions(((0.1, 0.4), (0.6, 0.9)))
    config = sq.ScenarioConfig(grid=grid, regions=regions)
    params, weights = config.params, config.weights
    initial = config.initial_array()
    controls = sq.ControlPair.constant(0.3, 0.3 * regions.v_max, grid, regions)
    state = sq.forward_solve(initial, controls, params, grid)
    [(h_u, h_v)] = _random_directions(grid, regions, 1, np.random.default_rng(0))
    return grid, {
        "forward_solve": lambda: sq.forward_solve(initial, controls, params, grid),
        "adjoint_solve": lambda: sq.adjoint_solve(state, controls, weights, params, grid),
        "cost_functional": lambda: sq.cost_functional(state, controls, weights),
        "mass_balance_check": lambda: sq.mass_balance_check(state, params),
        "ControlPair": lambda: sq.ControlPair(controls.u, controls.v, grid, regions),
        "sensitivity_solve": lambda: sq.sensitivity_solve(initial, controls, h_u, h_v, params,
                                                          grid),
        "gradient_oracle": lambda: sq.gradient_oracle(state, controls, params, weights),
        "sensitivity_oracle": lambda: sq.sensitivity_oracle(state, controls, params),
    }


@pytest.mark.parametrize("name", ["forward_solve", "adjoint_solve", "cost_functional",
                                  "mass_balance_check", "ControlPair"])
def test_solves_and_integrals_build_no_field(name):
    # a temporary as large as one control or state field is waste here, and
    # the checks of a ControlPair need only reductions
    grid, calls = _memory_calls()
    assert _extra_peak(calls[name], grid) < (0.1 if name == "ControlPair" else 0.5)


@pytest.mark.parametrize("name, bound", [("sensitivity_solve", 6), ("gradient_oracle", 40),
                                         ("sensitivity_oracle", 20)])
def test_check_solves_hold_no_bumped_or_complex_trajectory(name, bound):
    # the complex controls of the sensitivity solve are 4 fields, and the gradient
    # oracle's directions and bumped control stacks 30; a bumped or complex trajectory
    # (6 fields per member, 12 if complex) would break each bound
    grid, calls = _memory_calls()
    assert _extra_peak(calls[name], grid) < bound
