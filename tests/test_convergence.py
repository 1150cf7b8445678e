"""Observed orders of convergence: the discrete solution against itself under
refinement, not against the reference loops.  Each refinement halves the step,
so a scheme of order p shrinks the gap between successive solutions by 2^p;
explicit Euler is first order in dt and the stencil second order in dx, so
with dt = 0.2 * dx^2 the gaps shrink fourfold.
"""

from dataclasses import replace

import numpy as np

import sqeiar as sq
from sqeiar.pde import _forward_stream


def final_level(grid):
    """S..R at t = tau of the uncontrolled default scenario on ``grid``, shape (6, nx),
    streamed, so that a fine grid does not hold its trajectory."""
    cfg = replace(sq.ScenarioConfig(), grid=grid)
    last = []
    _forward_stream(cfg.initial_array(), sq.ControlPair.zeros(grid, cfg.regions), cfg.params,
                    grid, lambda lo, levels: last.append(levels[-1].copy()))
    return last[-1]


def gap_ratios(solutions):
    """Ratios of the max-norm gaps between successive solutions."""
    gaps = [np.abs(coarse - fine).max() for coarse, fine in zip(solutions, solutions[1:])]
    return [coarse / fine for coarse, fine in zip(gaps, gaps[1:])]


def test_first_order_in_time():
    # 21 nodes over 3 days, nt = 300 ... 4800: gaps 5.0, 2.5, 1.25, 0.63
    solutions = [final_level(sq.Grid(nx=21, tau=3.0, nt=nt))
                 for nt in (300, 600, 1200, 2400, 4800)]
    ratios = gap_ratios(solutions)
    assert all(1.8 <= ratio <= 2.2 for ratio in ratios), ratios


def test_second_order_in_space_with_dt_proportional_to_dx_squared():
    # nx = 11 ... 81 with dt = 0.2 * dx^2, compared on the 11 nodes every grid holds
    solutions = []
    for nx in (11, 21, 41, 81):
        dx = 1.0 / (nx - 1)
        grid = sq.Grid(nx=nx, tau=3.0, nt=round(3.0 / (0.2 * dx * dx)))
        solutions.append(final_level(grid)[:, ::(nx - 1) // 10])
    ratios = gap_ratios(solutions)
    assert all(3.5 <= ratio <= 5.0 for ratio in ratios), ratios


def test_optimal_cost_first_order_in_time():
    # the swept optimum's J on 21 nodes over 30 days, nt = 600, 1200, 2400:
    # about 19793.9, 19885.2 and 19931.1, gaps 91.3 and 45.9
    costs = []
    for nt in (600, 1200, 2400):
        cfg = replace(sq.ScenarioConfig(), grid=sq.Grid(nx=21, tau=30.0, nt=nt))
        *_, report = sq.fbsm_solve(cfg.initial_array(), cfg.params, cfg.weights,
                                   cfg.regions, cfg.grid, cfg.sweep)
        costs.append(report.cost_history[-1])
    ratios = gap_ratios(costs)
    assert all(1.8 <= ratio <= 2.2 for ratio in ratios), ratios
