"""Mutation check: each listed mistake in src/sqeiar must fail the test named to kill it.

    python tests/mutants.py

Tier-1 does not collect this file (pytest collects only test_*.py).  The script
copies src/, tests/ and pyproject.toml into a temporary directory and runs every
named test there once unchanged: they must pass.  Then, one mutant at a time, it
replaces the mutant's old text in its file, where the old text must occur exactly
once, runs only the named test, and puts the file back.  A mutant is killed when
that test fails (pytest's exit code 1); an error of collection or a missing test
is not a kill.  The exit status is 1 when an old text is not found exactly once,
when a named test fails unchanged, or when a mutant survives, and 0 otherwise.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file under src/sqeiar, old text, new text, id of the test that kills the mutant)
MUTANTS = [
    # rho4 routed to rho3 in rho_source
    ("model.py", "    out[_A] = weights.rho4\n", "    out[_A] = weights.rho3\n",
     "tests/test_model.py::TestRhoSource::test_outside_region"),
    # the sign of the Anderson step term
    ("control.py", "y -= g * steps[j, part]", "y += g * steps[j, part]",
     "tests/test_control.py::TestSweep::test_anderson_iterates_admissible"),
    # v_max dropped from the positivity advisory's rate
    ("pde.py", "lam_max + regions.v_max + p.k", "lam_max + p.k",
     "tests/test_config_cli.py::TestCli::test_divergence_exit_two_with_one_failure_line"),
    # the CSV time column one level early
    ("runner.py", "times = grid.t[result.levels]", "times = grid.t[result.levels] - grid.dt",
     "tests/test_config_cli.py::TestOutputs::test_field_csv_round_trip"),
    # sigma1 in place of sigma2 in the cost's quadratic term of v
    ("control.py", "0.5 * weights.sigma2 * np.einsum", "0.5 * weights.sigma1 * np.einsum",
     "tests/test_control.py::TestCostFunctional::test_pure_quarantine_effort"),
    # each peak time of summary.txt one level early
    ("verify.py", "times[int(series.argmax())]", "times[int(series.argmax()) - 1]",
     "tests/test_config_cli.py::TestOutputs::test_summary_peak_times"),
    # a one-sided boundary: the end nodes take their one neighbour once, not twice
    ("pde.py", "add(edge, edge, ends)  # 2 * edge, exactly",
     "add(edge, 0.0, ends)  # 2 * edge, exactly",
     "tests/test_convergence.py::test_second_order_in_space_with_dt_proportional_to_dx_squared"),
    # closed region ends in the membership rule
    ("model.py", "out[(x > a) & (x < b)] = 1.0", "out[(x >= a) & (x <= b)] = 1.0",
     "tests/test_model.py::TestRegions::test_mask_open_intervals"),
    # v_max dropped from the box clip
    ("control.py", "np.clip(v, 0.0, regions.v_max * regions.mask(grid.x), out=v)",
     "np.clip(v, 0.0, regions.mask(grid.x), out=v)",
     "tests/test_control.py::TestSweep::test_anderson_iterates_admissible"),
    # rho1 on every node in rho_source
    ("model.py", "out[_S] = weights.rho1 * regions.mask(grid.x)", "out[_S] = weights.rho1",
     "tests/test_model.py::TestRhoSource::test_outside_region"),
    # _random_directions leaves dv nonzero off the regions once it is centred
    ("verify.py", "            dv *= mask\n", "",
     "tests/test_acceptance.py::test_03_gradient_oracle"),
    # cost_gradient leaves grad_v unmasked
    ("control.py", "- mask * state.s * (adjoint.s - adjoint.q)",
     "- state.s * (adjoint.s - adjoint.q)",
     "tests/test_pde.py::TestAdjointSolve::test_exact_discrete_duality"),
    # sensitivity_solve leaves h_v unmasked
    ("pde.py", "np.multiply(h_v, controls.regions.mask(grid.x), out=v.imag)",
     "np.multiply(h_v, 1.0, out=v.imag)",
     "tests/test_steps.py::TestStepsArePinned::test_sensitivity_solve"),
]


def run_tests(tree: Path, *ids: str) -> int:
    """pytest's exit code for the tests ``ids`` of the copy ``tree``.  No bytecode
    is written, so no cached module outlives a change of its source."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *ids],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    start = time.perf_counter()
    failures = 0
    with tempfile.TemporaryDirectory(prefix="sqeiar-mutants-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", tree)
        ids = sorted({test for *_, test in MUTANTS})
        code = run_tests(tree, *ids)
        if code != 0:
            print(f"the named tests fail unchanged (pytest exit {code})")
            return 1
        for number, (name, old, new, test) in enumerate(MUTANTS, 1):
            path = tree / "src" / "sqeiar" / name
            source = path.read_text()
            found = source.count(old)
            if found != 1:
                print(f"{number:2d} {name}: old text found {found} times: {old!r}")
                failures += 1
                continue
            path.write_text(source.replace(old, new))
            try:
                code = run_tests(tree, test)
            finally:
                path.write_text(source)
            verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
            failures += code != 1
            print(f"{number:2d} {verdict}: {name} {old.strip()!r} by {test}")
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
