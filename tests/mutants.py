"""Mutation checks of src/: each mutant in MUTANTS must be killed by the tests named for it.

Run it from anywhere with `python tests/mutants.py`; it needs only the
standard library and pytest.  The runner copies the repository, without
.git, to a temporary directory and there

1. checks that every mutant's snippet occurs exactly once in its file,
2. runs every named test on the unmutated copy, each of which must pass,
3. applies one mutant at a time and runs only the tests named for it,
   each of which must then fail.

A named test is a pytest node id; one that names a parametrized test
without its brackets covers all its cases and fails when any of them
does.  The runner exits 1 when a snippet does not match exactly once, a
named test fails unmutated, or a mutant survives one of its tests, so a
change to the code a mutant edits must restate the mutant.  pytest does
not collect this file: its name lacks the test_ prefix.
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

REPO = Path(__file__).resolve().parent.parent
LOG = "mutants.log"  # the outcomes of one pytest run, in its working directory

EXPERIMENTS = "tests/test_experiments.py"
ORACLE = EXPERIMENTS + "::TestSectorOracle::test_branch_states_match_closed_form"
COHERENCE = EXPERIMENTS + "::TestMonteCarlo::test_coherence_equals_the_explicit_control_channel"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    snippet: str  # must occur exactly once in the file
    replacement: str
    kills: tuple[str, ...]  # node ids, each of which must fail on the mutant


MUTANTS = (
    Mutant(
        "the fold doubles the record 2^(s-2)",
        "src/mixshor/experiments.py",
        "kid_probs[c == 1 << s >> 1] *= 2.0",
        "kid_probs[c == 1 << s >> 2] *= 2.0",
        (
            ORACLE + "[6-5]",
            EXPERIMENTS + "::TestTreeProfile::test_tree_steps_equal_full_state_walk[6-5]",
        ),
    ),
    Mutant(
        "the fold keeps the kid 3 2^(s-1) as well",
        "src/mixshor/experiments.py",
        "if not keep.all():",
        "if False:",
        (EXPERIMENTS + "::TestTreeProfile::test_tree_steps_equal_full_state_walk[9-2]",),
    ),
    Mutant(
        "no h2(eps) on the post-gate points after stage 0",
        "src/mixshor/experiments.py",
        "s_av[:, 2::2] = s_av[:, 1:-1:2] + h2",
        "s_av[:, 2::2] = s_av[:, 1:-1:2]",
        (
            EXPERIMENTS + "::TestTreeProfile::test_gates_add_exactly_the_control_mixing_entropy",
            EXPERIMENTS
            + "::TestTreeProfile::test_reports_match_dense_reference[0.25-InitialStateKind.MIXED_N]",
        ),
    ),
    Mutant(
        "the phase correction's sign flipped in the block stage",
        "src/mixshor/circuit.py",
        "phase = np.exp(-2j * np.pi * _phase_angle(outcome, s))",
        "phase = np.exp(2j * np.pi * _phase_angle(outcome, s))",
        (ORACLE + "[15-2]", ORACLE + "[21-2]"),
    ),
    Mutant(
        "the tree's coherence 1 - eps for 1 - 2 eps",
        "src/mixshor/experiments.py",
        "    return 1.0 - 2.0 * epsilon",
        "    return 1.0 - epsilon",
        (ORACLE + "[6-5]", ORACLE + "[15-2]"),
    ),
    Mutant(
        "the coherence kappa applied to the block b only",
        "src/mixshor/circuit.py",
        "        c *= np.reshape(coherence, (-1, 1, 1))\n",
        "",
        (COHERENCE, ORACLE + "[6-5]"),
    ),
    Mutant(
        "kappa not zeroed by a control hit before the Hadamard",
        "src/mixshor/experiments.py",
        "coherence = 1.0 - hits[:, erasing, 0].any(axis=1) if noisy == inst.m else 1.0",
        "coherence = 1.0 - hits[:, -1:, 0].any(axis=1) if noisy == inst.m else 1.0",
        (COHERENCE,),
    ),
    Mutant(
        "a dephasing hit after the Hadamard erases the coherence",
        "src/mixshor/experiments.py",
        "erasing = slice(-1) if measurement else slice(None)",
        "erasing = slice(None)",
        (COHERENCE + "[measurement-15-2]", COHERENCE + "[measurement-21-2]"),
    ),
    Mutant(
        "a Pauli hit after the Hadamard keeps the coherence",
        "src/mixshor/experiments.py",
        "erasing = slice(-1) if measurement else slice(None)",
        "erasing = slice(-1)",
        (COHERENCE + "[pauli-15-2]", COHERENCE + "[pauli-21-2]"),
    ),
    Mutant(
        "a live mask of all ones",
        "src/mixshor/circuit.py",
        "    live0, live1 = _live(p0, p1)\n\n    def branch",
        "    live0, live1 = _live(p0, p1)\n    live0 = live1 = np.ones_like(live0)\n\n    def branch",
        (
            "tests/test_circuit.py::TestMeasureControlStack::test_members_match_alone",
            "tests/test_circuit.py::TestMeasureControlStack::test_outcome_dead_for_every_member",
        ),
    ),
    Mutant(
        "_normalize divides by p (1 + 2^-52)",
        "src/mixshor/circuit.py",
        "parts *= (1.0 / p)[:, None, None]",
        "parts *= (1.0 / (p * (1.0 + 2.0**-52)))[:, None, None]",
        (
            "tests/test_circuit.py::TestNormalization::test_measure_control_equals_division",
            "tests/test_circuit.py::TestNormalization::test_sample_control_equals_division",
        ),
    ),
    Mutant(
        "Philox counters start at j instead of j + 1",
        "src/mixshor/experiments.py",
        "even[0] = np.arange(1, blocks + 1, dtype=np.uint64)",
        "even[0] = np.arange(blocks, dtype=np.uint64)",
        (
            EXPERIMENTS + "::TestMonteCarlo::test_run_uniforms_equal_numpy_philox_bit_for_bit[1]",
            "tests/test_pinned_outputs.py::test_noise15_success_counts[1-pauli]",
        ),
    ),
    Mutant(
        "the trie forks one stage late",
        "src/mixshor/experiments.py",
        "forks.setdefault(circuit.stage_multipliers(group[i])[s], [])",
        "forks.setdefault(circuit.stage_multipliers(group[i])[s - 1], [])",
        (
            EXPERIMENTS
            + "::TestTreeProfile::test_group_walk_shares_exactly_the_agreeing_multiplier_prefixes",
        ),
    ),
    Mutant(
        "an always-split block plan",
        "src/mixshor/entanglement.py",
        "    if split:\n",
        "    if True:\n",
        (
            "tests/test_entanglement.py::TestPositiveBlocks::test_entropy_never_reads_the_diagonal",
            "tests/test_entanglement.py::TestPositiveBlocks::"
            "test_entropy_solves_a_block_positive_by_construction",
        ),
    ),
)


def _log(report):
    with open(LOG, "a", encoding="utf-8") as log:
        log.write(f"{report.outcome} {report.nodeid}\n")


def pytest_runtest_logreport(report):
    """A pytest hook of `-p mutants`: log every failed phase and every passed call."""
    if report.failed or report.when == "call":
        _log(report)


def pytest_collectreport(report):
    """A pytest hook of `-p mutants`: a module that fails to import fails every test in it."""
    if report.failed:
        _log(report)


def run_tests(copy: Path, node_ids) -> dict[str, set[str]]:
    """Run pytest on `node_ids` in `copy`; returns the outcomes of the cases of each node id."""
    log = copy / LOG
    log.write_text("", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(copy / "src"), str(copy / "tests")]))
    # no bytecode, which a mutant and its restored original could share
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "mutants"]
    subprocess.run(command + list(node_ids), cwd=copy, env=env, stdout=subprocess.DEVNULL)
    outcomes = {node_id: set() for node_id in node_ids}
    for line in log.read_text(encoding="utf-8").splitlines():
        outcome, case = line.split(" ", 1)
        for node_id in node_ids:
            if node_id.startswith(case + "::") or case == node_id or case.startswith(
                (node_id + "[", node_id + "::")
            ):
                outcomes[node_id].add(outcome)
    return outcomes


def problems() -> list[str]:
    """Copy the repository, check the snippets and the unmutated tests, then run every mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache")
        shutil.copytree(REPO, copy, ignore=ignore)
        found = []
        for mutant in MUTANTS:
            count = (copy / mutant.path).read_text(encoding="utf-8").count(mutant.snippet)
            if count != 1:
                found.append(f"{mutant.name}: snippet found {count} times in {mutant.path}")
        if found:
            return found
        node_ids = sorted({node_id for mutant in MUTANTS for node_id in mutant.kills})
        for node_id, seen in run_tests(copy, node_ids).items():
            if seen != {"passed"}:
                found.append(f"unmutated: {node_id} {sorted(seen) or 'not run'}")
        if found:
            return found
        for mutant in MUTANTS:
            path = copy / mutant.path
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
            try:
                outcomes = run_tests(copy, mutant.kills)
            finally:
                path.write_text(original, encoding="utf-8")
            survived = [node_id for node_id, seen in outcomes.items() if "failed" not in seen]
            print(f"{'SURVIVED' if survived else 'killed'}: {mutant.name}", flush=True)
            found += [f"{mutant.name}: survives {node_id}" for node_id in survived]
        return found


def main() -> int:
    start = time.perf_counter()
    found = problems()
    print("\n".join(found + [f"{len(found)} problems, {time.perf_counter() - start:.0f} s"]))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
