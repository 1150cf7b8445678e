import numpy as np
import pytest
from dataclasses import replace

import sqeiar as sq
from sqeiar.control import COARSE_FACTOR
from sqeiar.model import ContractError, ModelParams, QuarantineRegions
from sqeiar.pde import positivity_bound

WHOLE = QuarantineRegions(((0.0, 1.0),))
TABLE = ModelParams()


def zero_state(grid):
    controls = sq.ControlPair.zeros(grid, WHOLE)
    return sq.forward_solve(np.zeros((6, grid.nx)), controls, TABLE, grid), controls


class TestControlPair:
    def test_bounds_enforced(self):
        grid = sq.Grid(nx=11, tau=1.0, nt=50)
        shape = (grid.nt + 1, grid.nx)
        for bad in (1.5, np.nan):
            with pytest.raises(ContractError, match="u"):
                sq.ControlPair(np.full(shape, bad), np.zeros(shape), grid, WHOLE)
            with pytest.raises(ContractError, match="v"):
                sq.ControlPair(np.zeros(shape), np.full(shape, bad), grid, WHOLE)

    def test_quarantine_cap_scales_with_region_count(self):
        grid = sq.Grid(nx=11, tau=1.0, nt=50)
        two = QuarantineRegions(((0.0, 0.4), (0.6, 1.0)))
        shape = (grid.nt + 1, grid.nx)
        v = 0.6 * two.mask(grid.x)
        with pytest.raises(ContractError):
            sq.ControlPair(np.zeros(shape), v, grid, two)
        ok = 0.4 * two.mask(grid.x) * np.ones(shape)
        sq.ControlPair(np.zeros(shape), ok, grid, two)

    def test_quarantine_outside_regions_rejected(self):
        grid = sq.Grid(nx=11, tau=1.0, nt=50)
        half = QuarantineRegions(((0.0, 0.5),))
        shape = (grid.nt + 1, grid.nx)
        with pytest.raises(ContractError):
            sq.ControlPair(np.zeros(shape), np.full(shape, 0.5), grid, half)
        v = np.zeros(shape)
        v[7, -1] = -1e-13  # inside the box's slack, but off the region
        with pytest.raises(ContractError, match="outside the regions"):
            sq.ControlPair(np.zeros(shape), v, grid, half)


class TestCostFunctional:
    def test_zero_everything_zero_cost(self):
        grid = sq.Grid(nx=21, tau=1.0, nt=100)
        state, controls = zero_state(grid)
        J = sq.cost_functional(state, controls, sq.CostWeights())
        assert J == 0.0

    def test_pure_treatment_effort(self):
        # u == 1, sigma1 = 2, tau = 1: effort term is sigma1/2 * 1 = 1
        grid = sq.Grid(nx=21, tau=1.0, nt=100)
        state, _ = zero_state(grid)
        controls = sq.ControlPair.constant(1.0, 0.0, grid, WHOLE)
        weights = sq.CostWeights(rho1=1e-12, rho3=1e-12, rho4=1e-12, rho5=1e-12,
                                 sigma1=2.0, sigma2=1.0)
        J = sq.cost_functional(state, controls, weights)
        assert J == pytest.approx(1.0, rel=1e-12)

    def test_pure_quarantine_effort(self):
        # v == 1 on the 7 nodes x = 0.25, ..., 0.55 of (0.22, 0.58), each of trapezoid
        # weight dx = 0.05, sigma2 = 4, tau = 1: effort term is sigma2/2 * 0.35 = 0.7
        grid = sq.Grid(nx=21, tau=1.0, nt=100)
        state, _ = zero_state(grid)
        controls = sq.ControlPair.constant(0.0, 1.0, grid, QuarantineRegions(((0.22, 0.58),)))
        weights = sq.CostWeights(rho1=1e-12, rho3=1e-12, rho4=1e-12, rho5=1e-12,
                                 sigma1=1.0, sigma2=4.0)
        J = sq.cost_functional(state, controls, weights)
        assert J == pytest.approx(0.7, rel=1e-12)

    def test_uniform_exposed_burden(self):
        # E == c with no dynamics over tau = 2 and rho3 = 1 costs 2c
        c = 37.5
        params = ModelParams(beta=0.0, xi=0.0, k=0.0, diffusion=(1e-3,) * 6)
        grid = sq.Grid(nx=21, tau=2.0, nt=200)
        initial = np.zeros((6, grid.nx))
        initial[2] = c
        controls = sq.ControlPair.zeros(grid, WHOLE)
        state = sq.forward_solve(initial, controls, params, grid)
        weights = sq.CostWeights(rho1=1e-12, rho3=1.0, rho4=1e-12, rho5=1e-12,
                                 sigma1=1.0, sigma2=1.0)
        J = sq.cost_functional(state, controls, weights)
        assert J == pytest.approx(2 * c, rel=1e-12)


class TestProjection:
    def setup_small(self):
        grid = sq.Grid(nx=21, tau=3.0, nt=300)
        cfg = replace(sq.ScenarioConfig(), grid=grid)
        controls = sq.ControlPair.zeros(grid, WHOLE)
        state = sq.forward_solve(cfg.initial_array(), controls, TABLE, grid)
        adjoint = sq.adjoint_solve(state, controls, sq.CostWeights(), TABLE, grid)
        return grid, state, adjoint

    def test_projection_respects_box(self):
        grid, state, adjoint = self.setup_small()
        cramped = sq.CostWeights(sigma1=1e-6, sigma2=1e-6)
        proj = sq.project_controls(state, adjoint, cramped, WHOLE)
        assert proj.u.max() == 1.0 and proj.u.min() == 0.0
        assert proj.v.max() == WHOLE.v_max

    def test_projection_formula_unclamped(self):
        grid, state, adjoint = self.setup_small()
        loose = sq.CostWeights(sigma1=1e12, sigma2=1e12)
        proj = sq.project_controls(state, adjoint, loose, WHOLE)
        expected_u = state.i * (adjoint.i - adjoint.r) / 1e12
        np.testing.assert_allclose(proj.u, np.clip(expected_u, 0, None))

    def test_projection_idempotent(self):
        grid, state, adjoint = self.setup_small()
        weights = sq.CostWeights()
        once = sq.project_controls(state, adjoint, weights, WHOLE)
        twice = sq.project_controls(state, adjoint, weights, WHOLE)
        np.testing.assert_array_equal(once.u, twice.u)
        np.testing.assert_array_equal(once.v, twice.v)

    def test_gradient_vanishes_at_projection_interior(self):
        # wherever the projected control lands strictly inside the box the
        # gradient field must vanish there
        grid, state, adjoint = self.setup_small()
        weights = sq.CostWeights()
        proj = sq.project_controls(state, adjoint, weights, WHOLE)
        grad_u, grad_v = sq.cost_gradient(state, adjoint, proj, weights)
        interior_u = (proj.u > 0) & (proj.u < 1)
        interior_v = (proj.v > 0) & (proj.v < WHOLE.v_max)
        assert np.abs(grad_u[interior_u]).max(initial=0.0) < 1e-9
        assert np.abs(grad_v[interior_v]).max(initial=0.0) < 1e-9


class TestGradientConsistency:
    def test_directional_derivative_matches_divided_difference(self, small_config):
        grid = small_config.grid
        initial = small_config.initial_array()
        weights = sq.CostWeights()
        base = sq.ControlPair.constant(0.4, 0.4, grid, WHOLE)
        state = sq.forward_solve(initial, base, TABLE, grid)
        adjoint = sq.adjoint_solve(state, base, weights, TABLE, grid)
        grad_u, grad_v = sq.cost_gradient(state, adjoint, base, weights)
        rng = np.random.default_rng(7)
        shape = base.u.shape
        h_u = rng.uniform(-0.1, 0.1, shape)
        h_v = rng.uniform(-0.1, 0.1, shape) * WHOLE.mask(grid.x)
        predicted = sq.directional_derivative(grad_u, grad_v, base, weights, h_u, h_v)
        eps = 1e-5
        shifted = sq.ControlPair(base.u + eps * h_u, base.v + eps * h_v,
                                 grid, WHOLE)
        state_eps = sq.forward_solve(initial, shifted, TABLE, grid)
        J0 = sq.cost_functional(state, base, weights)
        J1 = sq.cost_functional(state_eps, shifted, weights)
        assert predicted == pytest.approx((J1 - J0) / eps, rel=1e-3)


class TestSweep:
    def test_huge_effort_weights_keep_controls_off(self, small_config):
        grid = small_config.grid
        initial = small_config.initial_array()
        weights = sq.CostWeights(sigma1=1e12, sigma2=1e12)
        state, _, controls, report = sq.fbsm_solve(initial, TABLE, weights, WHOLE, grid)
        assert report.converged
        zero = sq.ControlPair.zeros(grid, WHOLE)
        uncontrolled = sq.forward_solve(initial, zero, TABLE, grid)
        J_unc = sq.cost_functional(uncontrolled, zero, weights)
        assert report.cost_history[-1] == pytest.approx(J_unc, rel=1e-6)

    def test_no_transmission_no_treatment(self, small_config):
        # without any infected inflow the treatment control stays identically 0
        grid = small_config.grid
        params = ModelParams(beta=0.0)
        initial = np.zeros((6, grid.nx))
        initial[0] = 8000.0
        _, _, controls, report = sq.fbsm_solve(initial, params, sq.CostWeights(), WHOLE, grid)
        assert report.converged
        assert np.all(controls.u == 0.0)

    def test_small_grid_convergence_and_descent(self, small_config):
        grid = small_config.grid
        initial = small_config.initial_array()
        iterates = []
        state, adjoint, controls, report = sq.fbsm_solve(
            initial, TABLE, sq.CostWeights(), WHOLE, grid, on_iterate=iterates.append)
        assert report.converged
        assert report.residual <= 1e-4
        assert report.cost_history[-1] < report.cost_history[0]
        assert len(iterates) == report.iterations
        for it in iterates:  # every accepted iterate is admissible
            assert it.u.min() >= 0.0 and it.u.max() <= 1.0
            assert it.v.min() >= 0.0 and it.v.max() <= WHOLE.v_max

    def test_stops_on_residual_of_returned_controls(self, small_config):
        # the relaxed update r * |P(u) - u| falls below the tolerance before
        # the residual |P(u) - u| of the returned controls does
        grid = small_config.grid
        sweep = sq.SweepSettings(tolerance=1e-3, relaxation=0.3)
        state, adjoint, controls, report = sq.fbsm_solve(
            small_config.initial_array(), TABLE, sq.CostWeights(), WHOLE, grid, sweep)
        assert report.converged
        projected = sq.project_controls(state, adjoint, sq.CostWeights(), WHOLE)
        residual = max(np.abs(projected.u - controls.u).max(),
                       np.abs(projected.v - controls.v).max())
        assert residual <= sweep.tolerance
        assert residual == report.residual

    def test_anderson_iterates_admissible(self, small_config):
        # two regions, so the mask of the quarantine control is exercised too
        grid = small_config.grid
        two = QuarantineRegions(((0.1, 0.4), (0.6, 0.9)))
        off = two.mask(grid.x) == 0
        iterates = []
        _, _, controls, report = sq.fbsm_solve(
            small_config.initial_array(), TABLE, sq.CostWeights(), two, grid,
            on_iterate=iterates.append)
        assert report.converged and report.coarse_iterations > 0
        assert len(iterates) == report.iterations > 0
        assert iterates[-1] is controls
        for it in iterates:  # fine iterates only, each inside the box
            assert it.grid == grid
            assert it.u.min() >= 0.0 and it.u.max() <= 1.0
            assert it.v.min() >= 0.0 and it.v.max() <= two.v_max
            assert np.all(it.v[:, off] == 0.0)

    def test_coarse_start_stops_at_root_of_tolerance(self, small_config):
        # the coarse start is the sweep on nt / 3 from zero controls, run to
        # sqrt(tolerance) only; 100 coarse steps are no multiple of 3, so the
        # direct call below makes no coarse start of its own
        grid = small_config.grid
        initial = small_config.initial_array()
        sweep = sq.SweepSettings()
        _, _, _, report = sq.fbsm_solve(initial, TABLE, sq.CostWeights(), WHOLE, grid, sweep)
        coarse = replace(grid, nt=grid.nt // COARSE_FACTOR)
        _, _, _, direct = sq.fbsm_solve(initial, TABLE, sq.CostWeights(), WHOLE, coarse,
                                        replace(sweep, tolerance=sweep.tolerance ** 0.5))
        assert direct.coarse_iterations == 0 and direct.converged
        assert report.converged and report.coarse_iterations == direct.iterations > 0

    def test_coarse_controls_freed_in_the_fine_stage(self, small_config, monkeypatch):
        # only _to_grid reads the coarse controls: they are gone when the fine
        # stage's first solve starts, and the start made from them when its
        # second one does
        import weakref

        import sqeiar.control

        grid = small_config.grid
        refs, alive = [], []

        def to_grid(controls):
            start = hold(controls)
            refs.extend(weakref.ref(a) for a in (controls.u, controls.v, start.u, start.v))
            return start

        def forward_solve(initial, controls, params, on):
            if on == grid:
                alive.append([ref() is not None for ref in refs])
            return solve(initial, controls, params, on)

        hold, solve = sqeiar.control._to_grid, sqeiar.control.forward_solve
        monkeypatch.setattr(sqeiar.control, "_to_grid", to_grid)
        monkeypatch.setattr(sqeiar.control, "forward_solve", forward_solve)
        _, _, _, report = sq.fbsm_solve(small_config.initial_array(), TABLE, sq.CostWeights(),
                                        WHOLE, grid)
        assert report.coarse_iterations > 0 and report.iterations >= 2
        assert alive[0] == [False, False, True, True]
        assert alive[1:] == [[False] * 4] * report.iterations

    @pytest.mark.parametrize("case", ["nt_not_multiple", "coarse_cfl", "coarse_advisory"])
    def test_coarse_start_skipped(self, small_config, case):
        params, grid = {
            "nt_not_multiple": (TABLE, sq.Grid(nx=21, tau=3.0, nt=301)),
            "coarse_cfl": (ModelParams(diffusion=(0.05,) * 6), sq.Grid(nx=21, tau=3.0, nt=300)),
            "coarse_advisory": (TABLE, sq.Grid(nx=21, tau=30.0, nt=300)),
        }[case]
        initial = replace(small_config, grid=grid).initial_array()
        coarse = replace(grid, nt=grid.nt // COARSE_FACTOR)
        if case == "coarse_cfl":
            assert coarse.cfl_number(params) > 0.5 >= grid.cfl_number(params)
        if case == "coarse_advisory":
            assert coarse.cfl_number(params) <= 0.5
            assert positivity_bound(initial, params, WHOLE, coarse) >= 1.0
        iterates = []
        _, _, _, report = sq.fbsm_solve(initial, params, sq.CostWeights(), WHOLE, grid,
                                        on_iterate=iterates.append)
        assert report.coarse_iterations == 0
        assert report.converged and report.residual <= 1e-4
        assert len(iterates) == report.iterations > 0

    def test_bad_sweep_arguments(self, small_config):
        grid = small_config.grid
        initial = small_config.initial_array()
        for bad in ({"tolerance": 0.0}, {"tolerance": float("inf")}, {"relaxation": 1.5},
                    {"max_iterations": 0}):
            with pytest.raises(ContractError):
                sq.fbsm_solve(initial, TABLE, sq.CostWeights(), WHOLE, grid,
                              sq.SweepSettings(**bad))
