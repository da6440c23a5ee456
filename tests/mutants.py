"""Mutation checks: each mutant below must fail the tests named beside it.

A mutant is one text substitution in a file under ``src/bnspectral``.  For
each, the script copies ``src/`` to a temporary directory, applies the
substitution there, and runs only the mutant's pytest selector with
``PYTHONPATH`` set to the copy.  The mutant is killed when at least its
minimum number of tests fail; otherwise it survives.  Before any mutant,
every selector runs once on the unmutated copy and must pass, so a
failure is the mutant's doing.

Run from anywhere, stdlib only::

    python tests/mutants.py            # every mutant
    python tests/mutants.py compose    # those whose name contains "compose"

Exits 0 when every mutant is killed, 1 when one survives or its old text is
not found (the table then names code that has moved on), 2 when a selector
fails on the unmutated copy.  A surviving mutant is a finding about the
tests: report it, never delete it from the table.  The file name does not
match pytest's ``test_*.py``, so the tier-1 run does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
NO_BYTECODE = shutil.ignore_patterns("__pycache__")


class Mutant(NamedTuple):
    name: str
    file: str  # under src/bnspectral
    old: str
    new: str
    selector: tuple[str, ...]  # pytest arguments, relative to the repository root
    min_failures: int  # as many as failed when the mutant was added


PACKED_COLLAPSE = ("tests/test_netlang.py::TestPackedCollapse",
                   "tests/test_netlang.py::TestOracles::test_localize_and_collapse_match")

MUTANTS = (
    Mutant("spread moves a variable one position too far", "boolfn.py",
           "t = _move(t, masks, r, positions[r])",
           "t = _move(t, masks, r, positions[r] + 1)",
           PACKED_COLLAPSE, 3),
    Mutant("spread swaps its two literal cases", "boolfn.py",
           "if t == 0b10 else masks[p]",
           "if t == 0b01 else masks[p]",
           ("tests/test_golden.py",), 3),
    Mutant("compact skips its last move", "boolfn.py",
           "for r, p in enumerate(keep):",
           "for r, p in enumerate(keep[:-1]):",
           PACKED_COLLAPSE, 3),
    Mutant("compose swaps the minterm halves", "boolfn.py",
           "product & ~c)\n                | walk(j - 1, t >> half, product & c))",
           "product & c)\n                | walk(j - 1, t >> half, product & ~c))",
           PACKED_COLLAPSE, 3),
    Mutant("random_tables drops the word offset", "sampling.py",
           'int.from_bytes(raw[at:at + 4 * w], "little")',
           'int.from_bytes(raw[:4 * w], "little")',
           ("tests/test_sampling.py::TestRandomTables", "tests/test_golden.py"), 10),
    Mutant("determinative power sums into the wrong rank", "analysis.py",
           "totals[r] += v",
           "totals[r - 1] += v",
           ("tests/test_analysis.py::TestAgainstPerNodeMeasures::test_determinative_power",
            "tests/test_analysis.py::TestDeterminativePower"), 2),
    Mutant("uncertainty curve feeds keyed off by one", "analysis.py",
           "feeds[pos[r]].append(i)",
           "feeds[pos[r] - 1].append(i)",
           ("tests/test_analysis.py::TestAgainstPerNodeMeasures::test_uncertainty_curve",
            "tests/test_analysis.py::TestUncertaintyCurve"), 2),
    Mutant("grouped stage builds m kron f", "boolfn.py",
           "m = (f[:, None, :, None] * m[None, :, None, :])",
           "m = (m[:, None, :, None] * f[None, :, None, :])",
           ("tests/test_boolfn.py::TestKronApply",), 2),
    Mutant("blocked entropy drops the w_high factor", "measures.py",
           "float(np.dot(_product_weights(p[ENTROPY_BLOCK_BITS:]), sums))",
           "float(np.sum(sums))",
           ("tests/test_measures.py::TestBlockedCondEntropy",), 10),
    Mutant("noise factors swap p and q", "measures.py",
           "_factors(q * (1.0 - eps), q * eps, p * eps, p * (1.0 - eps), p.shape)",
           "_factors(p * (1.0 - eps), p * eps, q * eps, q * (1.0 - eps), p.shape)",
           ("tests/test_measures.py::TestNoiseSensitivity",), 6),
    Mutant("one-block entropy keeps the sign of zero", "measures.py",
           "_entropy_of_expectations(cond))) + 0.0",
           "_entropy_of_expectations(cond)))",
           ("tests/test_measures.py::TestBlockedCondEntropy", "tests/test_golden.py"), 2),
    Mutant("lazy masks read one variable off", "boolfn.py",
           "return _low_mask(self.n, j)",
           "return _low_mask(self.n, (j + 1) % self.n)",
           ("tests/test_boolfn.py::TestHalves",), 2),
    Mutant("cond_entropy_spectral reads under any distribution", "measures.py",
           "    _check_spectrum_dist(s, d)\n    cond = ",
           "    cond = ",
           ("tests/test_measures.py::TestSpectrumDistribution",), 1),
    Mutant("spectrum accepts a distribution of other arity", "boolfn.py",
           "        _check_same_arity(self.arity, self.d)\n",
           "",
           ("tests/test_measures.py::TestSpectrumDistribution",), 1),
)


def run_pytest(src: Path, selector: tuple[str, ...], report: Path) -> tuple[int, int]:
    """(tests run, tests failed or in error) for ``selector`` on the
    package under ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                    f"--junitxml={report}", *selector],
                   cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if not report.exists():  # pytest stopped before it could report
        return 0, 0
    suites = ET.parse(report).getroot().iter("testsuite")
    counts = [(int(s.get("tests", 0)), int(s.get("failures", 0)) + int(s.get("errors", 0)))
              for s in suites]
    report.unlink()
    return sum(t for t, _ in counts), sum(f for _, f in counts)


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or any(a in m.name for a in argv)]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        clean = tmp / "clean"
        shutil.copytree(ROOT / "src", clean, ignore=NO_BYTECODE)
        where = subprocess.run(
            [sys.executable, "-c", "import bnspectral; print(bnspectral.__file__)"],
            env={**os.environ, "PYTHONPATH": str(clean)}, capture_output=True, text=True)
        if not where.stdout.startswith(str(clean)):
            print(f"bnspectral imports from {where.stdout.strip() or where.stderr}, "
                  "not from the copy", file=sys.stderr)
            return 2
        selectors = sorted({s for m in chosen for s in m.selector})
        ran, failed = run_pytest(clean, tuple(selectors), tmp / "report.xml")
        if not ran or failed:
            print(f"unmutated: {failed} of {ran} selected tests fail", file=sys.stderr)
            return 2
        survivors = 0
        for m in chosen:
            source = (clean / "bnspectral" / m.file).read_text()
            if source.count(m.old) != 1:
                print(f"MISSING  {m.name}: old text found {source.count(m.old)} times "
                      f"in {m.file}")
                survivors += 1
                continue
            mutant = tmp / "mutant"
            shutil.copytree(clean, mutant, ignore=NO_BYTECODE)
            (mutant / "bnspectral" / m.file).write_text(source.replace(m.old, m.new))
            ran, failed = run_pytest(mutant, m.selector, tmp / "report.xml")
            shutil.rmtree(mutant)
            killed = failed >= m.min_failures
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED'}  {m.name}: "
                  f"{failed} of {ran} tests fail (at least {m.min_failures} wanted)")
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
