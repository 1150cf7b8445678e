import ast
import re
from dataclasses import replace

import numpy as np
import pytest

import sqeiar as sq
from sqeiar.model import COMPARTMENTS, ModelParams, QuarantineRegions
from sqeiar.verify import (
    DECAY_RATIO_RANGE,
    DEFAULT_SEED,
    GRADIENT_DIRECTIONS,
    GRADIENT_EPSILONS,
    GRADIENT_REL_BOUND,
    POSITIVITY_BOUND,
    SENSITIVITY_EPSILONS,
    _random_directions,
)

from helpers import time_to_threshold

WHOLE = QuarantineRegions(((0.0, 1.0),))
TABLE = ModelParams()


def inject_fault(traj, step, compartment, node, magnitude):
    """Copy of the trajectory with one value perturbed."""
    values = traj.values.copy()
    values[step, compartment, node] += magnitude
    return sq.Trajectory(values, traj.grid)


class TestMetrics:
    def test_initial_aggregates_match_profiles(self, default_config, baseline_run):
        traj, _, _ = baseline_run
        metrics = sq.extract_metrics(traj)
        # closed-form integrals of the initial profiles over [0, 1]
        assert metrics.aggregates["S"][0] == pytest.approx(8000.0, rel=1e-3)
        assert metrics.aggregates["A"][0] == pytest.approx(500.0, rel=1e-3)
        assert metrics.aggregates["I"][0] == pytest.approx(500.0, rel=1e-3)
        assert metrics.aggregates["Q"][0] == 0.0
        assert metrics.aggregates["R"][0] == 0.0
        assert metrics.total_population[0] == pytest.approx(9454.0, rel=5e-3)

    def test_zero_trajectory_zero_metrics(self):
        grid = sq.Grid(nx=11, tau=1.0, nt=50)
        traj = sq.forward_solve(np.zeros((6, grid.nx)), sq.ControlPair.zeros(grid, WHOLE),
                                TABLE, grid)
        metrics = sq.extract_metrics(traj)
        assert metrics.deaths == 0.0
        assert metrics.final_total_population == 0.0
        assert all(v == 0.0 for v in metrics.peak_value.values())

    def test_threshold_directions(self, default_config, baseline_run):
        traj, _, _ = baseline_run
        metrics = sq.extract_metrics(traj)
        t_above = time_to_threshold(metrics, default_config.grid.t, "E", 1800.0, direction="above")
        assert t_above is not None and 0.0 < t_above < 30.0
        assert time_to_threshold(metrics, default_config.grid.t, "S", -1.0) is None


class TestMassBalance:
    def test_clean_run_passes(self, default_config, baseline_run):
        traj, _, _ = baseline_run
        report = sq.mass_balance_check(traj, default_config.params)
        assert report.passed and report.measured <= report.bound

    def test_fault_injection_detected(self, small_config):
        grid = small_config.grid
        controls = sq.ControlPair.zeros(grid, WHOLE)
        traj = sq.forward_solve(small_config.initial_array(), controls, TABLE, grid)
        broken = inject_fault(traj, grid.nt // 2, 0, grid.nx // 2, 50.0)
        report = sq.mass_balance_check(broken, TABLE)
        assert not report.passed

    def test_fault_magnitude_scales_residual(self, small_config):
        grid = small_config.grid
        controls = sq.ControlPair.zeros(grid, WHOLE)
        traj = sq.forward_solve(small_config.initial_array(), controls, TABLE, grid)
        residuals = []
        for mag in (10.0, 100.0):
            broken = inject_fault(traj, grid.nt // 2, 0, grid.nx // 2, mag)
            residuals.append(sq.mass_balance_check(broken, TABLE).measured)
        assert residuals[1] == pytest.approx(10 * residuals[0], rel=1e-6)


class TestPositivity:
    def test_clean_run_passes(self, baseline_run):
        traj, _, _ = baseline_run
        assert sq.positivity_check(traj).passed

    def test_negative_value_detected(self, small_config):
        grid = small_config.grid
        controls = sq.ControlPair.zeros(grid, WHOLE)
        traj = sq.forward_solve(small_config.initial_array(), controls, TABLE, grid)
        broken = inject_fault(traj, grid.nt, 4, 0, -1e6)
        report = sq.positivity_check(broken)
        assert not report.passed
        assert "I" in report.detail

    @pytest.mark.parametrize("seed", range(5))
    def test_report_matches_separate_min_and_argmin(self, seed):
        # the report that separate min() and argmin() scans give; every seed
        # holds negative values, and the last two a NaN, which min() returns,
        # argmin() points at, and which fails the check with measured NaN
        rng = np.random.default_rng(seed)
        grid = sq.Grid(nx=11, tau=1.0, nt=20)
        values = rng.uniform(0.0, 1e4, (grid.nt + 1, 6, grid.nx))
        values.flat[rng.integers(values.size, size=3)] = -rng.uniform(0.0, 10.0, 3)
        if seed >= 3:
            values.flat[rng.integers(values.size)] = np.nan
        traj = sq.Trajectory(values, grid)
        scale = max(sq.extract_metrics(traj).total_population[0], 1.0)
        most_negative = float(values.min())
        step, comp, node = np.unravel_index(values.argmin(), values.shape)
        measured = np.nan if seed >= 3 else max(0.0, -most_negative) / scale
        report = sq.positivity_check(traj)
        np.testing.assert_equal(report.measured, measured)
        assert replace(report, measured=0.0) == sq.CheckReport(
            name="positivity", passed=False, measured=0.0, bound=POSITIVITY_BOUND,
            detail=(f"most negative value {most_negative:.6g} "
                    f"({COMPARTMENTS[comp]} at step {step}, node {node}), "
                    f"scale {scale:.6g}"))


def base_state(config, base):
    """The oracles' base state: forward_solve at ``base`` on the config's grid."""
    return sq.forward_solve(config.initial_array(), base, TABLE, config.grid)


class TestGradientOracle:
    def test_passes_on_small_grid(self, small_config):
        grid = small_config.grid
        base = sq.ControlPair.constant(0.3, 0.3, grid, WHOLE)
        report = sq.gradient_oracle(base_state(small_config, base), base, TABLE,
                                    sq.CostWeights())
        assert report.passed, report.detail
        assert report.measured < 1e-2

    def test_deterministic_for_fixed_seed(self, small_config):
        grid = small_config.grid
        base = sq.ControlPair.constant(0.3, 0.3, grid, WHOLE)
        args = (base_state(small_config, base), base, TABLE, sq.CostWeights())
        first = sq.gradient_oracle(*args, seed=123)
        second = sq.gradient_oracle(*args, seed=123)
        assert first.measured == second.measured
        assert first.detail == second.detail


class TestSensitivityOracle:
    def test_passes_on_small_grid(self, small_config):
        grid = small_config.grid
        base = sq.ControlPair.constant(0.3, 0.3, grid, WHOLE)
        report = sq.sensitivity_oracle(base_state(small_config, base), base, TABLE)
        assert report.passed, report.detail

    @pytest.mark.parametrize("at", [(0.3, 0.3), (0.5, 0.2)])
    def test_measured_is_the_ratio_the_bound_limits(self, small_config, at):
        # the pass test, measured and bound are about one quantity: the ratio
        # of the errors at the two epsilons, which must lie in [5, 20]; a
        # state solved at other controls than the base fails it
        grid = small_config.grid
        base = sq.ControlPair.constant(0.3, 0.3, grid, WHOLE)
        state = base_state(small_config, sq.ControlPair.constant(*at, grid, WHOLE))
        report = sq.sensitivity_oracle(state, base, TABLE)
        lo, hi = DECAY_RATIO_RANGE
        assert report.bound == hi
        assert report.passed == (lo <= report.measured <= hi)
        assert report.passed == (at == (0.3, 0.3))


ORACLES = {
    "gradient": lambda state, base: sq.gradient_oracle(state, base, TABLE, sq.CostWeights()),
    "sensitivity": lambda state, base: sq.sensitivity_oracle(state, base, TABLE),
}


class TestForeignBaseState:
    """The oracles take the base state from their caller and check it."""

    @pytest.mark.parametrize("oracle", ORACLES)
    def test_state_on_another_grid_rejected(self, small_config, oracle):
        grid = small_config.grid
        other = replace(small_config, grid=sq.Grid(nx=grid.nx, tau=grid.tau, nt=grid.nt + 1))
        state = base_state(other, sq.ControlPair.constant(0.3, 0.3, other.grid, WHOLE))
        base = sq.ControlPair.constant(0.3, 0.3, grid, WHOLE)
        with pytest.raises(sq.ContractError, match="Trajectory defined on a different grid"):
            ORACLES[oracle](state, base)

    @pytest.mark.parametrize("oracle", ORACLES)
    def test_state_at_other_controls_fails(self, small_config, oracle):
        # an admissible state, solved at other controls than the base: the
        # divided differences then measure the gap, not the derivative
        grid = small_config.grid
        state = base_state(small_config, sq.ControlPair.constant(0.5, 0.2, grid, WHOLE))
        base = sq.ControlPair.constant(0.3, 0.3, grid, WHOLE)
        report = ORACLES[oracle](state, base)
        assert not report.passed, report.detail


def loop_gradient_oracle(initial, base, params, weights, seed):
    """gradient_oracle as one forward_solve per direction and epsilon."""
    grid, regions = base.grid, base.regions
    first, last = epsilons = GRADIENT_EPSILONS
    directions = _random_directions(grid, regions, GRADIENT_DIRECTIONS,
                                    np.random.default_rng(seed))
    state = sq.forward_solve(initial, base, params, grid)
    adjoint = sq.adjoint_solve(state, base, weights, params, grid)
    grad_u, grad_v = sq.cost_gradient(state, adjoint, base, weights)
    j_base = sq.cost_functional(state, base, weights)
    fd = np.zeros((GRADIENT_DIRECTIONS, 3))
    predicted = np.zeros((GRADIENT_DIRECTIONS, 1))
    for i, (h_u, h_v) in enumerate(directions):
        predicted[i] = sq.directional_derivative(grad_u, grad_v, base, weights, h_u, h_v)
        for k, eps in enumerate(epsilons):
            plus = sq.ControlPair(base.u + eps * h_u, base.v + eps * h_v, grid, regions)
            bumped = sq.forward_solve(initial, plus, params, grid)
            fd[i, k] = (sq.cost_functional(bumped, plus, weights) - j_base) / eps
    fd[:, 2] = (first * fd[:, 1] - last * fd[:, 0]) / (first - last)
    errors = np.abs(fd - predicted) / np.maximum(np.abs(fd), 1e-300)
    ratios = errors[:, 0] / np.maximum(errors[:, 1], 1e-300)
    lo, hi = DECAY_RATIO_RANGE
    worst = float(errors[:, 2].max())
    return worst < GRADIENT_REL_BOUND and bool(np.all((ratios >= lo) & (ratios <= hi))), worst


def loop_sensitivity_oracle(initial, base, params, seed):
    """sensitivity_oracle as one forward_solve per epsilon."""
    grid, regions = base.grid, base.regions
    [(h_u, h_v)] = _random_directions(grid, regions, 1, np.random.default_rng(seed))
    state = sq.forward_solve(initial, base, params, grid)
    lin = sq.sensitivity_solve(initial, base, h_u, h_v, params, grid)
    wx, wt = grid.space_weights(), grid.time_weights()

    def l2(block):
        return float(np.sqrt(wt @ ((block ** 2).sum(axis=1) @ wx)))

    errs = []
    for eps in SENSITIVITY_EPSILONS:
        shifted = sq.ControlPair(base.u + eps * h_u, base.v + eps * h_v, grid, regions)
        bumped = sq.forward_solve(initial, shifted, params, grid)
        errs.append(l2((bumped.values - state.values) / eps - lin.values)
                    / max(l2(lin.values), 1e-300))
    lo, hi = DECAY_RATIO_RANGE
    return lo <= errs[0] / max(errs[-1], 1e-300) <= hi, errs


PARTIAL = QuarantineRegions(((0.2, 0.45), (0.6, 0.8)))


@pytest.mark.parametrize("seed, regions", [*((seed, WHOLE) for seed in range(5)),
                                           (DEFAULT_SEED, PARTIAL)])
def test_batched_oracles_match_per_direction_loops(small_config, seed, regions):
    # the oracles' batched bumped solves against one solve per bump, on the
    # grid and base controls of `sqeiar check`
    grid = small_config.grid
    initial = small_config.initial_array()
    base = sq.ControlPair.constant(0.3, 0.3 * regions.v_max, grid, regions)
    state = base_state(small_config, base)
    args = (initial, base, TABLE)
    gradient = sq.gradient_oracle(state, base, TABLE, sq.CostWeights(), seed=seed)
    passed, measured = loop_gradient_oracle(*args, sq.CostWeights(), seed)
    assert gradient.passed == passed
    assert gradient.measured == measured
    sensitivity = sq.sensitivity_oracle(state, base, TABLE, seed=seed)
    passed, errs = loop_sensitivity_oracle(*args, seed)
    assert sensitivity.passed == passed
    reported = ast.literal_eval(re.search(r"errors=(\[.*?\])", sensitivity.detail)[1])
    assert reported == pytest.approx(errs, rel=1e-12, abs=0)
    assert sensitivity.measured == pytest.approx(errs[0] / errs[-1], rel=1e-12, abs=0)
