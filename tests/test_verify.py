import numpy as np
import pytest

import sqeiar as sq
from sqeiar.model import COMPARTMENTS, ModelParams, QuarantineRegions
from sqeiar.verify import POSITIVITY_BOUND

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
        metrics = sq.extract_metrics(traj, default_config.grid)
        # closed-form integrals of the initial profiles over [0, 1]
        assert metrics.aggregates["S"][0] == pytest.approx(8000.0, rel=1e-3)
        assert metrics.aggregates["A"][0] == pytest.approx(500.0, rel=1e-3)
        assert metrics.aggregates["I"][0] == pytest.approx(500.0, rel=1e-3)
        assert metrics.aggregates["Q"][0] == 0.0
        assert metrics.aggregates["R"][0] == 0.0
        assert metrics.total_population[0] == pytest.approx(9454.0, rel=5e-3)

    def test_zero_trajectory_zero_metrics(self):
        grid = sq.Grid(nx=11, tau=1.0, nt=50)
        traj = sq.forward_solve(np.zeros((6, grid.nx)),
                                sq.ControlPair.zeros(grid, WHOLE),
                                TABLE, WHOLE, grid)
        metrics = sq.extract_metrics(traj, grid)
        assert metrics.deaths == 0.0
        assert metrics.final_total_population == 0.0
        assert all(v == 0.0 for v in metrics.peak_value.values())

    def test_threshold_directions(self, default_config, baseline_run):
        traj, _, _ = baseline_run
        metrics = sq.extract_metrics(traj, default_config.grid)
        t_above = time_to_threshold(metrics, default_config.grid.t, "E", 1800.0, direction="above")
        assert t_above is not None and 0.0 < t_above < 30.0
        assert time_to_threshold(metrics, default_config.grid.t, "S", -1.0) is None


class TestMassBalance:
    def test_clean_run_passes(self, default_config, baseline_run):
        traj, _, _ = baseline_run
        report = sq.mass_balance_check(traj, default_config.params,
                                       default_config.grid)
        assert report.passed and report.measured <= report.bound

    def test_fault_injection_detected(self, small_config):
        grid = small_config.grid
        controls = sq.ControlPair.zeros(grid, WHOLE)
        traj = sq.forward_solve(small_config.initial_array(), controls,
                                TABLE, WHOLE, grid)
        broken = inject_fault(traj, grid.nt // 2, 0, grid.nx // 2, 50.0)
        report = sq.mass_balance_check(broken, TABLE, grid)
        assert not report.passed

    def test_fault_magnitude_scales_residual(self, small_config):
        grid = small_config.grid
        controls = sq.ControlPair.zeros(grid, WHOLE)
        traj = sq.forward_solve(small_config.initial_array(), controls,
                                TABLE, WHOLE, grid)
        residuals = []
        for mag in (10.0, 100.0):
            broken = inject_fault(traj, grid.nt // 2, 0, grid.nx // 2, mag)
            residuals.append(sq.mass_balance_check(broken, TABLE, grid).measured)
        assert residuals[1] == pytest.approx(10 * residuals[0], rel=1e-6)


class TestPositivity:
    def test_clean_run_passes(self, baseline_run):
        traj, _, _ = baseline_run
        assert sq.positivity_check(traj).passed

    def test_negative_value_detected(self, small_config):
        grid = small_config.grid
        controls = sq.ControlPair.zeros(grid, WHOLE)
        traj = sq.forward_solve(small_config.initial_array(), controls,
                                TABLE, WHOLE, grid)
        broken = inject_fault(traj, grid.nt, 4, 0, -1e6)
        report = sq.positivity_check(broken)
        assert not report.passed
        assert "I" in report.detail

    @pytest.mark.parametrize("seed", range(5))
    def test_report_matches_separate_min_and_argmin(self, seed):
        # the report that separate min() and argmin() scans give; in the last
        # two seeds a NaN, which min() returns and argmin() points at
        rng = np.random.default_rng(seed)
        grid = sq.Grid(nx=11, tau=1.0, nt=20)
        values = rng.uniform(0.0, 1e4, (grid.nt + 1, 6, grid.nx))
        values.flat[rng.integers(values.size, size=3)] = -rng.uniform(0.0, 10.0, 3)
        if seed >= 3:
            values.flat[rng.integers(values.size)] = np.nan
        traj = sq.Trajectory(values, grid)
        scale = max(float(values[0].sum(axis=0) @ grid.space_weights()), 1.0)
        most_negative = float(values.min())
        step, comp, node = np.unravel_index(values.argmin(), values.shape)
        measured = max(0.0, -most_negative) / scale
        assert sq.positivity_check(traj) == sq.CheckReport(
            name="positivity", passed=measured <= POSITIVITY_BOUND, measured=measured,
            bound=POSITIVITY_BOUND,
            detail=(f"most negative value {most_negative:.6g} "
                    f"({COMPARTMENTS[comp]} at step {step}, node {node}), "
                    f"scale {scale:.6g}"))


class TestGradientOracle:
    def test_passes_on_small_grid(self, small_config):
        grid = small_config.grid
        base = sq.ControlPair.constant(0.3, 0.3, grid, WHOLE)
        report = sq.gradient_oracle(small_config.initial_array(), base,
                                    TABLE, sq.CostWeights(), WHOLE, grid)
        assert report.passed, report.detail
        assert report.measured < 1e-2

    def test_deterministic_for_fixed_seed(self, small_config):
        grid = small_config.grid
        base = sq.ControlPair.constant(0.3, 0.3, grid, WHOLE)
        args = (small_config.initial_array(), base, TABLE, sq.CostWeights(),
                WHOLE, grid)
        first = sq.gradient_oracle(*args, seed=123)
        second = sq.gradient_oracle(*args, seed=123)
        assert first.measured == second.measured
        assert first.detail == second.detail


class TestSensitivityOracle:
    def test_passes_on_small_grid(self, small_config):
        grid = small_config.grid
        base = sq.ControlPair.constant(0.3, 0.3, grid, WHOLE)
        report = sq.sensitivity_oracle(small_config.initial_array(), base,
                                       TABLE, WHOLE, grid)
        assert report.passed, report.detail
