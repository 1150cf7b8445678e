import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sqeiar as sq
from sqeiar.cli import main
from sqeiar.config import _KEYS, ConfigError, parse_config_text, render_defaults
from sqeiar.runner import _CSV_VALUES, _write_csv


def read_field_csv(path):
    """Parse a field CSV back into (times, coordinates, values)."""
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    x = np.array([float(v) for v in header[1:]])
    times = []
    values = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}: ragged row with {len(cells)} cells")
        times.append(float(cells[0]))
        values.append([float(v) for v in cells[1:]])
    return np.array(times), x, np.array(values)


class TestConfigParsing:
    def test_empty_text_yields_defaults(self):
        config = parse_config_text("")
        default = sq.ScenarioConfig()
        assert config.params == default.params
        assert config.grid == default.grid
        assert config.regions.regions == ((0.0, 1.0),)
        assert config.mode == "both"

    def test_comments_and_blank_lines_ignored(self):
        config = parse_config_text("# a comment\n\nmodel.beta = 2e-5  # inline\n")
        assert config.params.beta == 2e-5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="model.gamma"):
            parse_config_text("model.gamma = 0.1")

    def test_missing_section_rejected(self):
        with pytest.raises(ConfigError, match="section"):
            parse_config_text("beta = 1e-5")

    def test_out_of_range_alpha_rejected(self):
        with pytest.raises((ConfigError, sq.ContractError), match="alpha"):
            parse_config_text("model.alpha = 1.5")

    def test_tiny_grid_rejected(self):
        with pytest.raises((ConfigError, sq.ContractError)):
            parse_config_text("grid.nx = 2")

    def test_cfl_violation_rejected(self):
        with pytest.raises((ConfigError, sq.ContractError), match="CFL"):
            parse_config_text("grid.nx = 101\ngrid.nt = 30")

    def test_one_error_type_for_rejected_input(self):
        # the CFL check of Grid raises it too, not only the parser
        assert ConfigError is sq.ContractError
        with pytest.raises(ConfigError, match="CFL"):
            sq.ScenarioConfig(grid=sq.Grid(nx=101, nt=600))

    def test_regions_and_caps(self):
        config = parse_config_text("regions.1 = 0.1, 0.4\nregions.2 = 0.6, 0.9")
        assert config.regions.n == 2
        assert config.regions.v_max == 0.5

    def test_region_outside_domain_rejected(self):
        with pytest.raises((ConfigError, sq.ContractError)):
            parse_config_text("regions.1 = 0.5, 1.5")

    def test_uniform_and_per_compartment_diffusion(self):
        config = parse_config_text("model.diffusion = 0.002")
        assert config.params.diffusion == (0.002,) * 6
        config = parse_config_text("model.d3 = 0.004")
        assert config.params.diffusion[2] == 0.004
        assert config.params.diffusion[0] == 0.001

    def test_profile_names_validated(self):
        with pytest.raises(ConfigError):
            parse_config_text("initial.s = banana")
        config = parse_config_text("initial.e = zero")
        assert np.all(config.initial_array()[2] == 0.0)

    def test_profile_from_file(self, tmp_path):
        path = tmp_path / "profile.csv"
        grid = sq.Grid(nx=11, tau=1.0, nt=100)
        np.savetxt(path, 7.0 * np.ones(grid.nx))
        config = parse_config_text(
            f"grid.nx = 11\ngrid.tau = 1\ngrid.nt = 100\ninitial.a = file:{path.name}",
            base_dir=tmp_path)
        np.testing.assert_allclose(config.initial_array()[3], 7.0)

    @pytest.mark.parametrize("key", sorted(_KEYS))
    def test_table_key_sets_its_field(self, key):
        section, _, name = key.partition(".")
        attr = {"model": "params", "weights": "weights", "grid": "grid",
                "sweep": "sweep"}[section]
        default = getattr(sq.ScenarioConfig(), attr)
        old = getattr(default, name)
        value = {"grid.x_min": -0.5, "grid.x_max": 2.0}.get(key, old * 2 if isinstance(
            old, int) else old / 2)
        config = parse_config_text(f"{key} = {value!r}")
        assert getattr(config, attr) == replace(default, **{name: value})
        assert type(getattr(getattr(config, attr), name)) is type(old)

    @pytest.mark.parametrize("text, message", [
        ("grid.nx = 21\ngrid.nt = 300\ngrid.nx = 41",
         "line 3: key 'grid.nx' already set on line 1"),
        ("regions.1 = 0.1, 0.3\nregions.01 = 0.5, 0.9", "line 2: region 1 is set twice"),
    ])
    def test_repeated_key_rejected(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config_text(text)

    def test_positivity_advisory_counts_diffusion(self):
        # D*dt/dx^2 = 0.492 passes the CFL check, but the advisory's bound is 1.38
        config = replace(sq.ScenarioConfig(), grid=sq.Grid(nx=101, nt=610))
        with pytest.warns(UserWarning, match="101 x 610 grid.*compartments may go negative"):
            config.positivity_step_warning(config.initial_array())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = sq.ScenarioConfig()
            config.positivity_step_warning(config.initial_array())

    def test_render_defaults_round_trips(self):
        config = parse_config_text(render_defaults())
        default = sq.ScenarioConfig()
        assert config.params == default.params
        assert config.weights == default.weights
        assert config.grid == default.grid


class TestOutputs:
    # with stride 7 the last time row, t = tau, is stored outside the stride
    @pytest.mark.parametrize("stride", [10, 7])
    def test_field_csv_round_trip(self, tmp_path, small_config, stride):
        from dataclasses import replace

        config = replace(small_config, output_dir=tmp_path / "run",
                         mode="baseline", stride=stride)
        summary = sq.run_scenario(config)
        t, x, values = read_field_csv(tmp_path / "run" / "baseline" / "S.csv")
        assert x.size == config.grid.nx
        assert t[0] == 0.0 and t[-1] == pytest.approx(config.grid.tau)
        stored = summary.baseline.rows["S"]
        np.testing.assert_array_equal(values[0], stored[0])
        np.testing.assert_array_equal(values[-1], stored[-1])
        grid = config.grid
        np.testing.assert_array_equal(t, grid.t[summary.baseline.levels])
        # the same zero-control baseline, solved apart from the run
        solved = sq.forward_solve(config.initial_array(),
                                  sq.ControlPair.zeros(grid, config.regions),
                                  config.params, grid).s
        np.testing.assert_array_equal(values[0], solved[0])
        np.testing.assert_array_equal(values[-1], solved[-1])

    def test_results_hold_only_the_written_rows(self, tmp_path, small_config, monkeypatch):
        # the baseline's buffer of levels and zero controls are gone before the
        # sweep starts, and neither result holds a field at all 301 levels
        import weakref

        import sqeiar.runner

        baseline = []

        def forward_solve(initial, u, v, *args):
            *args, consume = args

            def keep(lo, levels):
                if lo == 0:  # the streamed solve's ring of levels
                    baseline.append(weakref.ref(levels.base))
                consume(lo, levels)
            solve(initial, u, v, *args, keep)
            baseline.extend(weakref.ref(a) for a in (u, v))

        def fbsm_solve(*args):
            assert [ref() for ref in baseline] == [None] * 3
            return sweep(*args)

        solve, sweep = sqeiar.runner.forward_solve, sqeiar.runner.fbsm_solve
        monkeypatch.setattr(sqeiar.runner, "forward_solve", forward_solve)
        monkeypatch.setattr(sqeiar.runner, "fbsm_solve", fbsm_solve)
        config = replace(small_config, output_dir=tmp_path / "run", mode="both")
        summary = sq.run_scenario(config)
        assert len(baseline) == 3
        grid = config.grid

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, dict):
                for item in value.values():
                    yield from arrays(item)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    yield from arrays(item)
            elif hasattr(value, "__dataclass_fields__"):
                assert not isinstance(value, (sq.Trajectory, sq.ControlPair))
                for name in value.__dataclass_fields__:
                    yield from arrays(getattr(value, name))

        for result in (summary.baseline, summary.optimal):
            assert result.levels == [0, 100, 200, 300]
            assert sorted(result.rows) == sorted(["S", "Q", "E", "A", "I", "R", "u", "v"])
            # every field holds the 4 written levels; what holds all nt + 1
            # levels is the aggregates, one number per level
            assert all(a.shape == (4, grid.nx) for a in arrays(result) if a.ndim > 1)
        np.testing.assert_array_equal(summary.baseline.rows["u"], 0.0)

    def test_no_zero_controls_alive_in_the_fine_stage(self, tmp_path, small_config,
                                                      monkeypatch):
        # the sweep makes its zero start on the grid of its first stage, so no
        # zero pair on the run's grid is held while the fine stage runs
        import weakref

        import sqeiar.control

        made, alive = [], []

        def zeros(cls, grid, regions):
            pair = make_zeros(grid, regions)
            made.append((grid, weakref.ref(pair.u), weakref.ref(pair.v)))
            return pair

        def sweep(*args):
            grid = args[5]
            if grid == config.grid:  # the fine stage starts
                alive.append([g for g, *refs in made
                              if g == grid and any(ref() is not None for ref in refs)])
            return run_sweep(*args)

        make_zeros, run_sweep = sq.ControlPair.zeros, sqeiar.control._sweep
        monkeypatch.setattr(sq.ControlPair, "zeros", classmethod(zeros))
        monkeypatch.setattr(sqeiar.control, "_sweep", sweep)
        config = replace(small_config, output_dir=tmp_path / "run", mode="optimal")
        summary = sq.run_scenario(config)
        assert alive == [[]]
        assert summary.optimal.sweep.coarse_iterations > 0
        assert [grid.nt for grid, *_ in made] == [config.grid.nt // 3]  # the coarse start

    def test_no_coarse_trajectory_alive_in_the_fine_stage(self, tmp_path, small_config,
                                                          monkeypatch):
        # the coarse stage hands only its controls and report to the fine stage; its
        # passes hold no trajectory, and the rows each pass keeps of its state die with it
        import weakref

        import sqeiar.control

        coarse, alive = [], []

        def forward_solve(initial, u, v, params, grid, rows):
            if grid == config.grid:
                alive.append(sum(ref() is not None for ref in coarse))
            else:
                coarse.extend(weakref.ref(a) for a in (rows.lam, rows.s, rows.i))
            return solve(initial, u, v, params, grid, rows)

        solve = sqeiar.control.forward_solve
        monkeypatch.setattr(sqeiar.control, "forward_solve", forward_solve)
        config = replace(small_config, output_dir=tmp_path / "run", mode="optimal")
        summary = sq.run_scenario(config)
        sweep = summary.optimal.sweep
        assert sweep.coarse_iterations > 0 and len(coarse) == 3 * (sweep.coarse_iterations + 1)
        assert len(alive) == sweep.iterations + 1 and set(alive) == {0}

    @pytest.mark.parametrize("rows, columns", [(1, 1), (1, 7), (_CSV_VALUES // 8, 8),
                                               (_CSV_VALUES // 4 + 5, 12), (9, _CSV_VALUES + 3)])
    def test_csv_bytes_match_savetxt(self, tmp_path, rows, columns):
        # zeros, signed zeros, negatives and magnitudes from 1e-300 to 1e300,
        # in one row, in one full block, in more rows than one block, and in
        # rows wider than a block
        rng = np.random.default_rng(rows * columns)
        table = rng.normal(size=(rows, columns)) * 10.0 ** rng.integers(-300, 301,
                                                                       (rows, columns))
        table.flat[::5] = 0.0
        table.flat[1::7] = -0.0
        _write_csv(tmp_path / "block.csv", "t,x", table[:, 0], table[:, 1:])
        np.savetxt(tmp_path / "rows.csv", table, fmt="%.17g", delimiter=",",
                   header="t,x", comments="")
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_aggregates_initial_population(self, tmp_path):
        from dataclasses import replace

        grid = sq.Grid(nx=101, tau=3.0, nt=300)
        config = replace(sq.ScenarioConfig(), grid=grid,
                         output_dir=tmp_path / "run", mode="baseline")
        sq.run_scenario(config)
        path = tmp_path / "run" / "baseline" / "aggregates.csv"
        header = path.read_text().splitlines()[0]
        assert header == "t,S,Q,E,A,I,R,N"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data[0, -1] == pytest.approx(9454.0, rel=5e-3)

    def test_summary_file_written(self, tmp_path, small_config):
        from dataclasses import replace

        config = replace(small_config, output_dir=tmp_path / "run")
        sq.run_scenario(config)
        text = (tmp_path / "run" / "summary.txt").read_text()
        assert "deaths averted" in text
        for name in ("S", "Q", "E", "A", "I", "R", "u", "v"):
            assert (tmp_path / "run" / "optimal" / f"{name}.csv").exists()

    def test_summary_peak_times(self, tmp_path, small_config):
        # each peak time is the first level of the largest integral over space, derived
        # here from the runs' own trajectories; the optimal run peaks inside (0, tau)
        from sqeiar.model import COMPARTMENTS

        config = replace(small_config, output_dir=tmp_path / "run")
        sq.run_scenario(config)
        text = (tmp_path / "run" / "summary.txt").read_text()
        grid, initial = config.grid, config.initial_array()
        zero = sq.ControlPair.zeros(grid, config.regions)
        states = {
            "baseline": sq.forward_solve(initial, zero, config.params, grid),
            "optimal": sq.fbsm_solve(initial, config.params, config.weights, config.regions,
                                     grid, config.sweep)[0],
        }
        interior = 0
        for name, state in states.items():
            section = text.split(f"[{name}]\n")[1].split("\n\n")[0]
            reported = dict(re.findall(r"^peak (\w) = \S+ at t = (\S+)$", section, re.M))
            integrals = (state.values * grid.space_weights()).sum(axis=2)  # (nt + 1, 6)
            peaks = integrals.argmax(axis=0)
            assert {c: float(t) for c, t in reported.items()} == dict(
                zip(COMPARTMENTS, grid.t[peaks].tolist())), name
            interior += int(((peaks > 0) & (peaks < grid.nt)).sum())
        assert interior > 0

    def test_output_snapshot_lists_no_unrelated_tree(self, tmp_path, small_config,
                                                     monkeypatch):
        # the failure cleanup looks only at the paths a run can write, so what
        # else the output directory holds costs nothing to snapshot
        import os

        out = tmp_path / "out"
        unrelated = out / "unrelated"
        (unrelated / "deep").mkdir(parents=True)
        (unrelated / "deep" / "notes.txt").write_text("keep\n")
        scanned, scandir = [], os.scandir
        monkeypatch.setattr(os, "scandir",
                            lambda path=".": scanned.append(Path(path)) or scandir(path))
        sq.run_scenario(replace(small_config, output_dir=out, mode="baseline"))
        assert [p for p in scanned if p == unrelated or unrelated in p.parents] == []
        assert (unrelated / "deep" / "notes.txt").read_text() == "keep\n"

    @pytest.mark.parametrize("failure", ["no_space", "directory"])
    def test_failed_write_keeps_previous_run(self, tmp_path, capsys, monkeypatch, failure):
        # a run whose I.csv cannot be written, after S..A could, leaves every
        # file of the previous run with its bytes
        import builtins
        import errno
        import os

        import sqeiar.runner

        out = tmp_path / "out"
        config = tmp_path / "scenario.conf"
        config.write_text(f"grid.nx = 21\ngrid.tau = 3\ngrid.nt = 300\noutput.dir = {out}\n")
        assert main(["run", "--config", str(config), "--mode", "baseline"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["baseline", "summary.txt"]
        if failure == "directory":
            (out / "baseline" / "I.csv").unlink()
            (out / "baseline" / "I.csv").mkdir()
        else:
            def no_space(path, *args, **kwargs):
                if Path(path).name == "I.csv":
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
                return builtins.open(path, *args, **kwargs)
            monkeypatch.setattr(sqeiar.runner, "open", no_space, raising=False)
        before = {p: p.is_dir() or p.read_bytes() for p in out.rglob("*")}
        capsys.readouterr()
        config.write_text(f"grid.nx = 21\ngrid.tau = 6\ngrid.nt = 600\noutput.dir = {out}\n")
        assert main(["run", "--config", str(config), "--mode", "baseline"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("output error")
        assert {p: p.is_dir() or p.read_bytes() for p in out.rglob("*")} == before
        assert list(tmp_path.glob("**/.sqeiar-*")) == []


class TestStreamedBaseline:
    """A baseline run streams blocks of 64 levels through its reductions
    instead of holding its trajectory; each reduction matches the one made
    on the trajectory that forward_solve returns."""

    @pytest.mark.parametrize("stride", [7, 2 ** 63])
    @pytest.mark.parametrize("nt", [63, 64, 65, 128, 129])
    def test_matches_the_full_trajectory(self, tmp_path, small_config, nt, stride):
        from sqeiar.model import COMPARTMENTS

        grid = sq.Grid(nx=21, tau=0.01 * nt, nt=nt)  # the dt, and CFL number, of 21 x 300
        config = replace(small_config, grid=grid, stride=stride, mode="baseline",
                         output_dir=tmp_path / "run")
        result = sq.run_scenario(config).baseline
        zero = sq.ControlPair.zeros(grid, config.regions)
        traj = sq.forward_solve(config.initial_array(), zero, config.params, grid)

        levels = sorted({*range(0, nt + 1, stride), nt})
        assert result.levels == levels
        for c, name in enumerate(COMPARTMENTS):
            np.testing.assert_array_equal(result.rows[name], traj.values[levels, c])
        for name in ("u", "v"):
            np.testing.assert_array_equal(result.rows[name], np.zeros((len(levels), grid.nx)))

        metrics = sq.extract_metrics(traj)
        wx = grid.space_weights()
        for c, name in enumerate(COMPARTMENTS):
            np.testing.assert_array_equal(result.metrics.aggregates[name],
                                          metrics.aggregates[name])
            # one product over all levels, which may sum in another order
            np.testing.assert_allclose(result.metrics.aggregates[name],
                                       traj.values[:, c] @ wx, rtol=1e-15, atol=0)
        np.testing.assert_array_equal(result.metrics.total_population, metrics.total_population)
        assert (result.metrics.peak_value, result.metrics.peak_time) == \
            (metrics.peak_value, metrics.peak_time)
        assert (result.metrics.final_total_population, result.metrics.deaths) == \
            (metrics.final_total_population, metrics.deaths)
        assert result.cost == sq.cost_functional(traj, zero, config.weights)
        assert result.checks == [sq.mass_balance_check(traj, config.params),
                                 sq.positivity_check(traj)]

    # first non-finite level: 64, the last level of the first block, checked
    # before the ring reuses its slot; 65 and 129, the first level a block
    # computes; 150, inside the third block
    @pytest.mark.parametrize("k, step", [(220.68, 64), (220.14, 65), (208.46, 129),
                                         (207.08, 150)])
    def test_divergence_names_the_same_step_and_node(self, tmp_path, k, step):
        default = sq.ScenarioConfig()
        config = replace(default, params=replace(default.params, k=k),
                         grid=sq.Grid(nx=11, tau=10.0, nt=1000), mode="baseline",
                         output_dir=tmp_path / "out")
        zero = sq.ControlPair.zeros(config.grid, config.regions)
        with pytest.raises(sq.IntegrationError) as full:
            sq.forward_solve(config.initial_array(), zero, config.params, config.grid)
        assert full.value.step == step
        with pytest.warns(UserWarning, match="compartments may go negative"), \
                pytest.raises(sq.IntegrationError) as streamed:
            sq.run_scenario(config)
        assert (streamed.value.step, streamed.value.node) == (full.value.step, full.value.node)
        assert str(streamed.value) == str(full.value)
        assert not (tmp_path / "out").exists()

    def test_peak_memory_below_half_a_trajectory(self, tmp_path):
        import tracemalloc

        config = replace(sq.ScenarioConfig(), mode="baseline", output_dir=tmp_path / "run")
        grid = config.grid  # 101 x 3000: one trajectory is 14.5 MB
        trajectory = (grid.nt + 1) * 6 * grid.nx * 8
        tracemalloc.start()
        try:
            sq.run_scenario(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < trajectory / 2


class TestCli:
    def write_config(self, tmp_path, extra=""):
        path = tmp_path / "scenario.conf"
        path.write_text(
            "grid.nx = 21\ngrid.tau = 3\ngrid.nt = 300\n"
            f"output.dir = {tmp_path / 'out'}\noutput.stride = 50\n" + extra)
        return path

    def test_run_baseline_exit_zero(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        assert main(["run", "--config", str(config), "--mode", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "outputs written" in out

    def test_bad_config_exit_one(self, tmp_path, capsys):
        config = self.write_config(tmp_path, "model.alpha = 1.5\n")
        assert main(["run", "--config", str(config)]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_file_exit_one(self, tmp_path, capsys):
        missing = tmp_path / "nope.conf"
        assert main(["run", "--config", str(missing)]) == 1

    def test_check_exit_zero(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        assert main(["check", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        for name in ("mass_balance", "positivity", "gradient_oracle",
                     "sensitivity_oracle"):
            assert name in out
        assert "FAIL" not in out

    def test_check_solve_budget(self, tmp_path, monkeypatch, capsys):
        # one base solve, shared by the checks and both oracles; one batched
        # solve of the gradient oracle's bumps and one of the sensitivity oracle's;
        # one adjoint solve, which cost_gradient streams through sqeiar.control
        import sqeiar.control
        import sqeiar.pde
        import sqeiar.verify

        calls = {}

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        # the cli looks forward_solve up on sqeiar.pde; sqeiar.verify holds its own name
        count(sqeiar.pde, "forward_solve")
        for name in ("forward_solve", "_forward_batch", "adjoint_solve", "sensitivity_solve"):
            count(sqeiar.verify, name)
        count(sqeiar.control, "adjoint_solve")
        assert main(["check", "--config", str(self.write_config(tmp_path))]) == 0
        assert calls == {"forward_solve": 1, "_forward_batch": 2, "adjoint_solve": 1,
                         "sensitivity_solve": 1}, capsys.readouterr().out

    def test_check_passes_for_seeds(self, tmp_path, capsys):
        failed = []
        for seed in range(20):
            config = self.write_config(tmp_path, f"output.seed = {seed}\n")
            if main(["check", "--config", str(config)]) != 0:
                failed.append(seed)
        assert failed == [], capsys.readouterr().out

    def test_divergence_exit_two_with_one_failure_line(self, tmp_path, capsys):
        config = tmp_path / "scenario.conf"
        config.write_text("grid.nx = 11\ngrid.nt = 1000\ngrid.tau = 10\nmodel.k = 500\n")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "warning: on the 11 x 1000 grid, 2 * D*dt/dx^2 + dt * (beta + Lambda_max + 1/n"
            " + k + eta + f + 1 + xi) = 5.08 >= 1; compartments may go negative",
            "solver failure: non-finite state value at time step 18, node 0",
        ]

    def test_defaults_prints_parseable_config(self, capsys):
        assert main(["defaults"]) == 0
        text = capsys.readouterr().out
        parse_config_text(text)

    def test_check_grid_cfl_violation_exit_one(self, tmp_path, capsys):
        # valid on its own 11-node grid, but D*dt/dx^2 = 0.8 on the check grid
        config = tmp_path / "scenario.conf"
        config.write_text("model.diffusion = 0.2\ngrid.nx = 11\n")
        assert main(["check", "--config", str(config)]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_check_without_region_node_exit_zero(self, tmp_path, capsys):
        # valid for run, but no node of the 21-node check grid lies in (0.51, 0.54)
        config = tmp_path / "scenario.conf"
        config.write_text("regions.1 = 0.51, 0.54\n")
        assert main(["check", "--config", str(config)]) == 0
        assert capsys.readouterr().err == ""

    def test_region_without_run_grid_node_exit_one(self, tmp_path, capsys):
        # (0.511, 0.519) lies between the nodes 0.5 and 0.55 of the 21-node grid:
        # a run rejects it, check keeps running on its own grid
        config = self.write_config(tmp_path, "regions.1 = 0.1, 0.4\nregions.2 = 0.511, 0.519\n")
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "configuration error: region (0.511, 0.519) holds no node of the 21 x 300 grid"]
        assert not (tmp_path / "out").exists()
        assert main(["check", "--config", str(config)]) == 0

    @pytest.mark.parametrize("command, extra, message", [
        ("check", "output.seed = -1\n", "output.seed must be >= 0, got -1"),
        ("run", "grid.nx = 101\ngrid.nt = 600\n", "D\\*dt/dx\\^2 = 0.5 is not below 0.5"),
        ("run", "grid.x_max = inf\n", "grid.x_max must be finite, got inf"),
        ("run", "grid.x_min = -inf\n", "grid.x_min must be finite, got -inf"),
        ("run", "grid.x_min = -1e308\ngrid.x_max = 1e308\n",
         "grid.dx = .* = inf: its square must be finite and nonzero"),
        ("run", "grid.tau = inf\n", "grid.tau must be finite, got inf"),
        # dx ** 2 in the CFL number would raise OverflowError, or divide by zero
        ("run", "grid.x_max = 1e250\n", "grid.dx = .* = 1e\\+248: its square must"),
        ("run", "grid.x_max = 1e-160\n", "grid.dx = .* = 1e-162: its square must"),
        # 42.6 PiB for the per-level integrals, beyond any 64-bit address space: fails at once
        ("run", "grid.nt = 1000000000000000\n",
         "does not fit in memory: Unable to allocate .* \\(6, 1000000000000001\\)"),
        # a digit to str.isdigit, but no ASCII decimal index
        ("run", "regions.\u00b2 = 0.1, 0.2\n",
         "unknown key 'regions.\u00b2' \\(use regions.<index> = a, b\\)"),
    ], ids=["negative_seed", "cfl_at_half", "x_max_inf", "x_min_inf", "dx_overflow",
            "tau_inf", "dx_square_overflow", "dx_square_underflow", "nt_beyond_memory",
            "superscript_region_index"])
    def test_rejected_value_exit_one(self, tmp_path, capsys, command, extra, message):
        config = tmp_path / "scenario.conf"
        config.write_text(f"output.dir = {tmp_path / 'out'}\n" + extra)
        assert main([command, "--config", str(config)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and re.match(f"configuration error: .*{message}", err[0])
        assert not (tmp_path / "out").exists()

    def test_empty_output_dir_exit_one_and_keeps_user_files(self, tmp_path, capsys):
        # an empty value would name the config's own directory
        config = tmp_path / "scenario.conf"
        config.write_text("grid.nx = 21\ngrid.tau = 3\ngrid.nt = 300\noutput.dir =\n")
        (tmp_path / "summary.txt").write_text("keep\n")
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        assert main(["run", "--config", str(config), "--mode", "baseline"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["configuration error: output.dir: expected a path, got ''"]
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before
        # an explicit '.' still names the config's directory
        assert parse_config_text("output.dir = .", tmp_path).output_dir == tmp_path

    @pytest.mark.parametrize("argv, message", [
        (["run", "--config", "{config}", "--mode", "foo"],
         "argument --mode: invalid choice: 'foo'"),
        # an empty --out would name the working directory
        (["run", "--config", "{config}", "--out", ""], "argument --out: expected a path, got ''"),
        ([], "the following arguments are required: command"),
    ], ids=["unknown_mode", "empty_out", "no_command"])
    def test_usage_error_exit_one(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        config = self.write_config(tmp_path, "output.mode = baseline\n")
        before = sorted(tmp_path.iterdir())
        assert main([arg.format(config=config) for arg in argv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"configuration error: {message}"), err
        assert sorted(tmp_path.iterdir()) == before

    def test_help_exit_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_help:
            main(["run", "-h"])
        assert exit_help.value.code == 0
        assert capsys.readouterr().out.startswith("usage: sqeiar run")

    def test_huge_stride_writes_first_and_last_rows(self, tmp_path):
        # a stride past int64: np.arange would give float row indices
        text = self.write_config(tmp_path).read_text()
        written = {}
        for stride in (300, 2 ** 63):
            config = tmp_path / f"stride{stride}.conf"
            config.write_text(text.replace("output.stride = 50", f"output.stride = {stride}"))
            out = tmp_path / f"out{stride}"
            assert main(["run", "--config", str(config), "--mode", "baseline",
                         "--out", str(out)]) == 0
            written[stride] = {path.relative_to(out): path.read_bytes()
                               for path in sorted(out.rglob("*")) if path.is_file()}
        assert written[2 ** 63] == written[300]
        t, _, _ = read_field_csv(tmp_path / "out300" / "baseline" / "S.csv")
        assert t.tolist() == [0.0, 3.0]

    def test_unconverged_sweep_exit_three(self, tmp_path, capsys):
        config = self.write_config(tmp_path, "sweep.max_iterations = 1\n")
        assert main(["run", "--config", str(config), "--mode", "optimal"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "did not converge" in err[0]

    def test_failed_write_keeps_user_files(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        out = tmp_path / "user"
        out.mkdir()
        (out / "notes.txt").write_text("keep\n")
        (out / "baseline").write_text("a plain file\n")
        argv = ["run", "--config", str(config), "--mode", "baseline", "--out", str(out)]
        assert main(argv) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("output error")
        assert sorted(p.name for p in out.iterdir()) == ["baseline", "notes.txt"]
        assert (out / "notes.txt").read_text() == "keep\n"
        # I.csv is a directory: the conflict is found before any file moves, so
        # S..A, written in the staging directory, never arrive; what was there stays
        (out / "baseline").unlink()
        (out / "baseline").mkdir()
        (out / "baseline" / "I.csv").mkdir()
        assert main(argv) == 4
        assert sorted(p.name for p in out.rglob("*")) == ["I.csv", "baseline", "notes.txt"]

    @pytest.mark.parametrize("case", ["config_dir", "not_utf8", "profile_abc",
                                      "profile_dir", "profile_empty", "profile_inf",
                                      "profile_negative", "repeated_key"])
    def test_unreadable_or_invalid_input_exit_one(self, tmp_path, capsys, case):
        (tmp_path / "abc.txt").write_text("abc\n")
        (tmp_path / "empty.txt").write_text("")
        (tmp_path / "dir").mkdir()
        for name, value in (("negative", -1.0), ("inf", np.inf)):
            values = np.full(21, 5.0)
            values[3] = value
            np.savetxt(tmp_path / f"{name}.txt", values)
        extra = {"profile_abc": "initial.a = file:abc.txt\n",
                 "profile_dir": "initial.a = file:dir\n",
                 "profile_empty": "initial.s = file:empty.txt\n",
                 # the positivity advisory would read inf >= 1 and warn first
                 "profile_inf": "initial.s = file:inf.txt\n",
                 "profile_negative": "initial.a = file:negative.txt\n",
                 "repeated_key": "grid.nx = 41\n"}.get(case, "")
        config = self.write_config(tmp_path, extra)
        if case == "config_dir":
            config = tmp_path / "dir"
        elif case == "not_utf8":
            config.write_bytes(b"\xff\xfe")
        for argv in (["run", "--config", str(config), "--mode", "baseline"],
                     ["check", "--config", str(config)]):
            assert main(argv) == 1, argv[0]
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("configuration error"), argv[0]

    def test_tiny_control_cost_no_warning(self, tmp_path, capsys, monkeypatch):
        # v / sigma2 overflows to inf, and the clip puts it on the box's edge
        import sqeiar.runner

        sweep, iterates = sqeiar.runner.fbsm_solve, []
        monkeypatch.setattr(sqeiar.runner, "fbsm_solve",
                            lambda *args: sweep(*args, on_iterate=iterates.append))
        config = self.write_config(tmp_path, "weights.sigma2 = 1e-320\n")
        assert main(["run", "--config", str(config)]) == 0
        assert capsys.readouterr().err == ""
        assert iterates
        for controls in iterates:
            v_max = controls.regions.v_max
            assert controls.u.min() >= 0.0 and controls.u.max() <= 1.0
            assert controls.v.min() >= 0.0 and controls.v.max() <= v_max

    def test_positivity_advisory_one_warning_line(self, tmp_path, capsys):
        config = tmp_path / "scenario.conf"
        config.write_text("grid.nx = 101\ngrid.nt = 610\n")
        # the advisory holds: positivity fails, so the run exits 3
        assert main(["run", "--config", str(config), "--mode", "baseline",
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err.splitlines()
        warned = [line for line in err if "warning" in line.lower()]
        assert len(warned) == 1
        assert warned[0].startswith("warning: on the 101 x 610 grid")

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_profile_file_read_once(self, tmp_path, monkeypatch, command):
        np.savetxt(tmp_path / "a0.txt", np.full(21, 50.0))
        config = self.write_config(tmp_path, "initial.a = file:a0.txt\n")
        loadtxt = np.loadtxt
        reads = []
        monkeypatch.setattr(np, "loadtxt",
                            lambda *args, **kwargs: reads.append(args) or loadtxt(*args, **kwargs))
        argv = {"run": ["run", "--config", str(config), "--mode", "baseline",
                        "--out", str(tmp_path / "out")],
                "check": ["check", "--config", str(config)]}[command]
        assert main(argv) == 0
        assert len(reads) == 1

    def test_check_interpolates_file_profile(self, tmp_path, capsys):
        # the file holds the config grid's 11 values; check runs on 21 nodes
        np.savetxt(tmp_path / "a0.txt", np.linspace(400.0, 600.0, 11))
        config = tmp_path / "scenario.conf"
        config.write_text("grid.nx = 11\ngrid.nt = 300\ninitial.a = file:a0.txt\n")
        assert main(["check", "--config", str(config)]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_runs_are_deterministic(self, tmp_path):
        config = self.write_config(tmp_path)
        main(["run", "--config", str(config), "--mode", "baseline",
              "--out", str(tmp_path / "a")])
        main(["run", "--config", str(config), "--mode", "baseline",
              "--out", str(tmp_path / "b")])
        for name in ("S", "I", "aggregates"):
            first = (tmp_path / "a" / "baseline" / f"{name}.csv").read_bytes()
            second = (tmp_path / "b" / "baseline" / f"{name}.csv").read_bytes()
            assert first == second
