"""Mutation gate: each mutant is one literal edit of `src/` that named tests must catch.

Run from anywhere, with the test dependencies installed:

    python mutants/run.py

The tests must first pass on an unmutated copy. Then, one mutant and one
process at a time, the runner copies `src/`, `tests/`, `configs/`,
`pyproject.toml` and `README.md` into a fresh temporary directory, replaces
the mutant's old text, which must occur exactly once, with its new text, and
runs the mutant's tests there with `python -m pytest -x -q -p
no:cacheprovider`, hypothesis draws seeded so that a run repeats. A mutant is
killed when that run fails. The exit status is 0 when every mutant is killed,
1 otherwise, and 2 when the tests fail unmutated or a mutant's old text does
not occur exactly once, so the list must follow the code. An equivalent
mutant, one that no test can catch, has no place in the list; none is known.

The directory is not among the tier-1 `testpaths`; the gate cites the tests
that kill each mutant so that a later test edit cannot weaken them unseen
(DeMillo, Lipton and Sayward, IEEE Computer 11(4), 1978).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "configs", "pyproject.toml", "README.md")
PYTEST = ("-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0")


class Mutant(NamedTuple):
    name: str
    file: str                # path under the repository root
    old: str                 # text that must occur exactly once
    new: str
    tests: tuple[str, ...]   # pytest node ids, relative to the repository root


STEANE = "src/daqec/stabilizer_steane.py"
WSTATE = "src/daqec/wstate_code.py"

SS = "tests/test_stabilizer_steane.py::"
WS = "tests/test_wstate_code.py::"
BIT_FOR_BIT = SS + "test_compiled_engine_matches_the_layered_oracle_bit_for_bit"
ANY_CIRCUIT = SS + "test_compiled_engine_matches_the_layered_oracle_on_arbitrary_circuits"
FORMS = WS + "test_every_form_of_an_erasure_gives_the_results_of_its_set"

MUTANTS = (
    Mutant("sample-variance", "src/daqec/bounds_analytics.py",
           "sigma2 = np.var(eps, axis=-1)", "sigma2 = np.var(eps, axis=-1, ddof=1)",
           ("tests/test_bounds_analytics.py::test_advantage_bounds_worked_example",)),
    Mutant("support-counts-of-both-flips", STEANE,
           "(_FLIP[:, None] | _FLIP).ravel()", "(_FLIP[:, None] & _FLIP).ravel()",
           (SS + "test_uniform_weight_tables_match_pattern_enumeration",
            SS + "test_exact_evaluator_matches_pattern_oracle_across_blocks")),
    Mutant("crossover-tie-counts-ahead", "src/daqec/experiments.py",
           '<= lq["success_rate"] + lq["success_ci95"]',
           '< lq["success_rate"] + lq["success_ci95"]',
           ("tests/test_experiments.py::test_crossover_depth_counts_a_tie_as_behind",)),
    Mutant("eta-count-pairs-plus-one", "src/daqec/allocation.py",
           "int((m * (m - 1) // 2).sum())", "int((m * (m + 1) // 2).sum())",
           ("tests/test_allocation.py::test_eta_count_split_slice",)),
    Mutant("no-capacity-check", "src/daqec/allocation.py",
           "    if loads.max() > ell_c:\n        raise ValueError(", "    if False:\n        raise ValueError(",
           ("tests/test_allocation.py::test_eta_count_rejects_bad_ids_and_overfull_processors",)),
    Mutant("preparation-clears-x-only", STEANE,
           "flips[c] = flips[nq + c] = 0", "flips[c] = 0", (ANY_CIRCUIT,)),
    Mutant("cnots-in-op-order", STEANE,
           'order = np.argsort(layer, kind="stable")', "order = np.arange(layer.size)",
           ("tests/test_experiments.py::test_cli_in_range_edge_cases_run[pnl-sweep-100-shallow]",
            BIT_FOR_BIT)),
    Mutant("pauli-15-dropped", STEANE,
           "rng.integers(1, 16, size=i.size)", "rng.integers(1, 15, size=i.size)",
           (SS + "test_pnl_sweep_per_block_rates_match_the_exact_marginals",)),
    # uniform depolarizing noise is symmetric in its two qubits, so no test
    # of distributions can see this; the oracle's seeded hits can
    Mutant("noise-of-control-and-target-swapped", STEANE,
           "rows += flips[c], flips[nq + c], flips[t], flips[nq + t]",
           "rows += flips[t], flips[nq + t], flips[c], flips[nq + c]", (BIT_FOR_BIT,)),
    Mutant("erase-keeps-repeats", WSTATE,
           "erased = {operator.index(i) for i in erased}",
           "erased = [operator.index(i) for i in erased]", (FORMS + "[repeats]",)),
    Mutant("erase-truncates-to-int", WSTATE,
           "erased = {operator.index(i) for i in erased}", "erased = {int(i) for i in erased}",
           (WS + "test_an_erased_site_that_is_no_integer_raises[float]",
            WS + "test_an_erased_site_that_is_no_integer_raises[string]")),
    Mutant("elective-reads-the-erasure-twice", WSTATE,
           "measure_sites(joint, sorted(set(range(total)) - set(survivors)))",
           "measure_sites(joint, sorted(erased))", (FORMS + "[generator]",)),
)


def _copy(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, dest / name)


def _pytest(where: Path, tests) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(where / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-m", "pytest", *PYTEST, *tests], cwd=where,
                          env=env, capture_output=True, text=True)


def run(mutants) -> int:
    with tempfile.TemporaryDirectory(prefix="daqec-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        for m in mutants:
            count = (base / m.file).read_text().count(m.old)
            if count != 1:
                print(f"ERROR {m.name}: its old text occurs {count} times in {m.file}")
                return 2
        every = sorted({t for m in mutants for t in m.tests})
        start = time.perf_counter()
        clean = _pytest(base, every)
        if clean.returncode:
            print(clean.stdout + clean.stderr)
            print("ERROR: the tests fail unmutated")
            return 2
        print(f"unmutated: {len(every)} tests pass ({time.perf_counter() - start:.1f} s)")
        bad = 0
        for i, m in enumerate(mutants):
            where = Path(tmp) / f"m{i}"
            _copy(where)
            path = where / m.file
            path.write_text(path.read_text().replace(m.old, m.new))
            start = time.perf_counter()
            killed = _pytest(where, m.tests).returncode != 0
            shutil.rmtree(where)
            bad += not killed
            print(f"{'ok ' if killed else 'BAD'} {m.name}: "
                  f"{'killed' if killed else 'survived'} in {time.perf_counter() - start:.1f} s")
        print(f"{len(mutants) - bad} of {len(mutants)} mutants killed")
        return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(run(MUTANTS))
