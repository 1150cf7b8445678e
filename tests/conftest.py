import pytest

import sqeiar as sq


@pytest.fixture(scope="session")
def default_config():
    return sq.ScenarioConfig()


@pytest.fixture(scope="session")
def small_grid():
    # oracle-sized grid: 21 nodes, 300 steps over 3 days
    return sq.Grid(nx=21, tau=3.0, nt=300)


@pytest.fixture(scope="session")
def small_config(small_grid):
    from dataclasses import replace

    return replace(sq.ScenarioConfig(), grid=small_grid)


@pytest.fixture(scope="session")
def baseline_run(default_config):
    """Uncontrolled default-scenario trajectory plus its wall time."""
    import time

    cfg = default_config
    controls = sq.ControlPair.zeros(cfg.grid, cfg.regions)
    start = time.perf_counter()
    traj = sq.forward_solve(cfg.initial_array(), controls, cfg.params, cfg.grid)
    elapsed = time.perf_counter() - start
    return traj, controls, elapsed


@pytest.fixture(scope="session")
def optimal_run(default_config):
    """Converged default-scenario sweep, recording every control iterate."""
    import time

    cfg = default_config
    iterates = []
    start = time.perf_counter()
    state, cost, controls, report = sq.fbsm_solve(
        cfg.initial_array(), cfg.params, cfg.weights, cfg.regions, cfg.grid, cfg.sweep,
        on_iterate=iterates.append)
    elapsed = time.perf_counter() - start
    return state, cost, controls, report, iterates, elapsed

