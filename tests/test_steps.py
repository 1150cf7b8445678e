"""The step loops, pinned bit for bit and call for call.

Reference loops here make each step with numpy's plain calls (np.dot with
out=, a multiply by 2.0 at the stencil ends) on top of the solver's own
_step_operator and _stencil; every solve path must give their bits, so a
change of the step that changes rounding fails here.  A second group counts
the Python-level frames a solve opens: none per step.  A third pins the
per-level reductions a run keeps: any blocking of the levels gives their bits.
"""

import gc
import os
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import sqeiar as sq
from sqeiar.control import ControlPair, cost_functional, directional_derivative
from sqeiar.model import _I, _S, QuarantineRegions, rho_source
from sqeiar.pde import (_BLOCK, _blocks, _forward_batch, _forward_stream, _integrals,
                        _stencil, _step_operator, adjoint_solve, forward_solve,
                        sensitivity_solve)
from sqeiar.runner import _Levels
from sqeiar.verify import _random_directions

from helpers import collect_batch, stacked

# nodes -> (tau, nt): D*dt/dx^2 stays at most 0.16 on each grid
GRIDS = {21: (3.0, 300), 33: (3.0, 300), 101: (3.0, 300), 401: (0.3, 300)}


def reference_forward(initial, u, v, params, grid):
    """Explicit Euler steps of the B control pairs stacked in u and v, shape
    (nt + 1, B, nx), with the plain calls: shape (nt + 1, 6, B, nx)."""
    batch, nx = u.shape[1:]
    out = np.empty((grid.nt + 1, 6, batch, nx), dtype=np.result_type(float, u, v))
    out[0] = initial[:, None]
    levels = out.reshape(grid.nt + 1, 6, batch * nx)
    u, v = u.reshape(grid.nt + 1, batch * nx), v.reshape(grid.nt + 1, batch * nx)
    M, B, c, contact_dt = _step_operator(params, grid)
    K = np.hstack([M, B, np.diag(c)]).astype(out.dtype)
    contact_dt = contact_dt.astype(out.dtype)
    Z = np.empty((15, batch * nx), dtype=out.dtype)
    y, exposure, quarantine, treatment, near = Z[:6], Z[6], Z[7], Z[8], Z[9:]
    members, member_exposure = y.reshape(6, batch, nx).swapaxes(0, 1), exposure.reshape(batch, nx)
    left, right, inner, edge, ends = _stencil(y.reshape(-1, nx), near.reshape(-1, nx))
    for m in range(grid.nt):
        y[...] = levels[m]
        np.add(left, right, out=inner)
        np.multiply(edge, 2.0, out=ends)
        if batch == 1:
            np.dot(contact_dt, y, out=exposure)
        else:
            np.matmul(contact_dt, members, out=member_exposure)
        exposure *= y[_S]
        np.multiply(v[m], y[_S], out=quarantine)
        np.multiply(u[m], y[_I], out=treatment)
        np.dot(K, Z, out=levels[m + 1])
    return out


def reference_adjoint(state, controls, weights, params, regions, grid):
    """The adjoint recursion of pde._adjoint_solve with the plain calls."""
    rho_dt = grid.dt * rho_source(grid, regions, weights)
    M, B, c, contact_dt = _step_operator(params, grid)
    e = np.eye(6)
    R = np.column_stack([e[_S], rho_dt[:, 0]])
    R[_S, 1] = 0.0
    K = np.hstack([M.T, np.column_stack([e[_S], contact_dt, e[_S], e[_I]]), np.diag(c), R])
    BT4, lam_s = B.T[[0, 0, 1, 2]], np.vstack([contact_dt, e[_S]])
    W = np.empty((grid.nt + 1, 4, grid.nx))
    np.matmul(lam_s, state.values, out=W[:, :2])
    W[:, 2], W[:, 3] = controls.v, controls.u
    Z = np.empty((18, grid.nx))
    p, flows, near = Z[:6], Z[6:10], Z[10:16]
    Z[16], Z[17] = rho_dt[_S], 1.0
    out = np.zeros((grid.nt + 1, 6, grid.nx))
    out[grid.nt - 1] = 0.5 * rho_dt
    left, right, inner, edge, ends = _stencil(p, near)
    for m in range(grid.nt - 1, 0, -1):
        p[...] = out[m]
        np.add(left, right, out=inner)
        np.multiply(edge, 2.0, out=ends)
        np.dot(BT4, p, out=flows)
        np.multiply(flows, W[m], out=flows)
        np.dot(K, Z, out=out[m - 1])
    return out


def scenario(nx, nt=None):
    tau, steps = GRIDS[nx]
    if nt is not None:
        tau, steps = tau * nt / steps, nt
    grid = sq.Grid(nx=nx, tau=tau, nt=steps)
    cfg = replace(sq.ScenarioConfig(), grid=grid)
    return grid, cfg, cfg.initial_array()


def random_pair(rng, grid, regions):
    shape = (grid.nt + 1, grid.nx)
    return ControlPair(rng.uniform(0.0, 1.0, shape),
                       rng.uniform(0.0, regions.v_max, shape) * regions.mask(grid.x),
                       grid, regions)


@pytest.mark.parametrize("nx", sorted(GRIDS))
class TestStepsArePinned:
    def test_forward_solve(self, nx):
        grid, cfg, initial = scenario(nx)
        pair = random_pair(np.random.default_rng(nx), grid, cfg.regions)
        state = forward_solve(initial, pair, cfg.params, grid)
        expected = reference_forward(initial, pair.u[:, None], pair.v[:, None], cfg.params, grid)
        assert np.array_equal(state.values, expected[:, :, 0])

    def test_batch_members(self, nx):
        grid, cfg, initial = scenario(nx)
        rng = np.random.default_rng(nx + 1)
        pairs = [random_pair(rng, grid, cfg.regions) for _ in range(3)]
        members = collect_batch(initial, pairs, cfg.params, grid)
        expected = reference_forward(initial, np.stack([pair.u for pair in pairs], axis=1),
                                     np.stack([pair.v for pair in pairs], axis=1),
                                     cfg.params, grid)
        for b in range(len(pairs)):
            assert np.array_equal(members[:, :, b], expected[:, :, b])

    @pytest.mark.parametrize("nt", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
    def test_stream_blocks(self, nx, nt):
        grid, cfg, initial = scenario(nx, nt)
        pair = random_pair(np.random.default_rng(nt), grid, cfg.regions)
        expected = reference_forward(initial, pair.u[:, None], pair.v[:, None],
                                     cfg.params, grid)[:, :, 0]
        seen, batch = [], []
        _forward_stream(initial, pair, cfg.params, grid,
                        lambda lo, levels: seen.append((lo, levels.copy())))
        assert [(lo, lo + len(levels)) for lo, levels in seen] == list(_blocks(nt))
        for lo, levels in seen:
            assert np.array_equal(levels, expected[lo:lo + len(levels)])
        # a batch hands over the same blocks, member b along axis 2
        _forward_batch(initial, *stacked([pair, pair]), cfg.params, grid,
                       lambda lo, levels: batch.append((lo, levels.copy())))
        assert [(lo, lo + len(levels)) for lo, levels in batch] == list(_blocks(nt))
        for lo, levels in batch:
            for b in (0, 1):
                assert np.array_equal(levels[:, :, b], expected[lo:lo + len(levels)])

    def test_sensitivity_solve(self, nx):
        grid, cfg, initial = scenario(nx)
        rng = np.random.default_rng(nx + 2)
        pair = random_pair(rng, grid, cfg.regions)
        [(h_u, _)] = _random_directions(grid, cfg.regions, 1, rng)
        # nonzero off the regions too, where the solve must mask it
        h_v = rng.uniform(-cfg.regions.v_max, cfg.regions.v_max, h_u.shape)
        lin = sensitivity_solve(initial, pair, h_u, h_v, cfg.params, grid)
        h = 1e-30
        u = pair.u + 1j * h * h_u
        v = pair.v + 1j * h * (h_v * cfg.regions.mask(grid.x))
        expected = reference_forward(initial, u[:, None], v[:, None], cfg.params, grid)
        assert np.array_equal(lin.values, expected[:, :, 0].imag / h)

    def test_adjoint_solve(self, nx):
        grid, cfg, initial = scenario(nx)
        pair = random_pair(np.random.default_rng(nx + 3), grid, cfg.regions)
        state = forward_solve(initial, pair, cfg.params, grid)
        adjoint = adjoint_solve(state, pair, cfg.weights, cfg.params, grid)
        expected = reference_adjoint(state, pair, cfg.weights, cfg.params, cfg.regions, grid)
        assert np.array_equal(adjoint.values, expected)


def python_calls(solve) -> int:
    """The Python-level frames that ``solve()`` opens: sys.setprofile's "call" events.
    The cyclic garbage collector is off meanwhile: a collection that it starts runs the
    finalizers of whatever it frees, frames that are not the solve's."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        solve()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


class TestNoPythonFramePerStep:
    """Each step calls numpy's C entry points directly: a solve's Python-level calls do
    not grow with nt (a streamed solve's grow by a few per block, not per step)."""

    @staticmethod
    def solves(nt):
        grid, cfg, initial = scenario(21, nt)
        rng = np.random.default_rng(0)
        pair = random_pair(rng, grid, cfg.regions)
        [(h_u, h_v)] = _random_directions(grid, cfg.regions, 1, rng)
        state = forward_solve(initial, pair, cfg.params, grid)
        args = cfg.params, grid
        batch = stacked([pair])
        return {
            "forward": lambda: forward_solve(initial, pair, *args),
            "adjoint": lambda: adjoint_solve(state, pair, cfg.weights, *args),
            "sensitivity": lambda: sensitivity_solve(initial, pair, h_u, h_v, *args),
            "stream": lambda: _forward_stream(initial, pair, *args, lambda lo, levels: None),
            "batch": lambda: _forward_batch(initial, *batch, *args, lambda lo, levels: None),
        }

    def test_calls_do_not_grow_with_steps(self):
        short, long = self.solves(300), self.solves(600)
        for name in ("forward", "adjoint"):
            assert python_calls(short[name]) == python_calls(long[name]), name
        extra_blocks = len(list(_blocks(600))) - len(list(_blocks(300)))
        for name in ("sensitivity", "stream", "batch"):  # streamed solves
            extra_calls = python_calls(long[name]) - python_calls(short[name])
            assert 0 <= extra_calls <= 8 * extra_blocks, name


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="one CPU: no BLAS worker thread to spin")
@pytest.mark.parametrize("reduction", ["cost_functional", "directional_derivative"])
def test_cost_leaves_no_blas_thread_spinning(reduction):
    # past 10,000 entries OpenBLAS runs a ddot on two threads, and its idle worker
    # then spins for a tenth of a second of CPU; the time quadratures avoid BLAS
    grid = sq.Grid(nx=3, tau=30.0, nt=12000)
    regions = QuarantineRegions(((0.0, 1.0),))
    controls = ControlPair.zeros(grid, regions)
    if reduction == "cost_functional":
        state = sq.Trajectory(np.ones((grid.nt + 1, 6, grid.nx)), grid)
        cost_functional(state, controls, sq.CostWeights())
    else:
        field = np.ones((grid.nt + 1, grid.nx))
        directional_derivative(field, field, controls, sq.CostWeights(), field, field)
    process, thread = time.process_time(), time.thread_time()
    end = time.perf_counter() + 0.2
    while time.perf_counter() < end:
        pass
    other_threads = (time.process_time() - process) - (time.thread_time() - thread)
    assert other_threads < 0.02


@pytest.mark.parametrize("nx", [21, 101, 401])
def test_integrals_do_not_depend_on_blocking(nx):
    # a BLAS gemv rounds a level by its place in the block; the reductions must not, so
    # that a streamed solve and a held trajectory report the same bits
    grid, cfg, initial = scenario(nx)
    rng = np.random.default_rng(nx + 4)
    pairs = [random_pair(rng, grid, cfg.regions) for _ in range(3)]
    state = forward_solve(initial, pairs[0], cfg.params, grid).values
    member = collect_batch(initial, pairs, cfg.params, grid)[:, :, 1]  # a strided view
    wx = grid.space_weights()
    for levels in (state, member):
        whole = _integrals(levels, wx)
        for size in (1, 7, 63, 64, 65):
            blocks = [_integrals(levels[lo:lo + size], wx)
                      for lo in range(0, grid.nt + 1, size)]
            assert np.array_equal(np.hstack(blocks), whole), size
    whole, blocked = _Levels(cfg), _Levels(cfg)
    whole(0, state)
    for lo in range(0, grid.nt + 1, 7):
        blocked(lo, state[lo:lo + 7])
    for name in ("integrals", "state_cost", "rows"):
        assert np.array_equal(getattr(blocked, name), getattr(whole, name)), name
    assert blocked.lowest == whole.lowest
