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
    python tests/mutants.py prune      # those whose name contains "prune"

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


COLLAPSE = tuple(f"tests/test_netlang.py::{test}" for test in (
    "TestPackedCollapse::test_matches_oracles_across_switch",
    "TestPackedCollapse::test_hypothesis_networks",
    "TestPackedCollapse::test_wide_supports",
    "TestPackedCollapse::test_first_layer_forms",
    "TestPackedCollapse::test_cap_on_a_first_layer_node",
    "TestOracles::test_localize_and_collapse_match"))

BLOCKS = ("tests/test_netlang.py::TestBlocks",)

PRUNE = ("tests/test_netlang.py::TestPrune",)

SUBSET_SUMS = "tests/test_boolfn.py::TestSubsetSumsKernel"

MI_ROWS = "tests/test_measures.py::TestMutualInformationRows"

WEIGHTS = "tests/test_boolfn.py::TestProductDist::test_weights_are_built_once_and_read_only"

TRIAL_BITS = ("tests/test_analysis.py::"
              "test_random_topology_trials_are_the_per_node_collapse_bit_for_bit")

CHAIN = ("tests/test_sampling.py::TestMonotoneChain",
         "tests/test_sampling.py::TestUnateSampler::test_draws_are_pinned")

CURVES = ("tests/test_analysis.py::test_uncertainty_curve_adds_node_entropies_left_to_right",
          "tests/test_analysis.py::test_trial_rankings_and_curves_are_the_per_node_sums_bit_for_bit")

REPORTS = "tests/test_reports.py"

MUTANTS = (
    Mutant("prune keeps every variable", "netlang.py",
           "live[:, j] = (halves[:, :, 0] != halves[:, :, 1]).any(axis=(1, 2))",
           "live[:, j] = True",
           COLLAPSE + BLOCKS + PRUNE, 13),
    Mutant("keep mask reads the relevant side", "netlang.py",
           "keep = (np.arange(1 << u) & ~rel[:, None]) == 0",
           "keep = (np.arange(1 << u) & rel[:, None]) == 0",
           COLLAPSE + BLOCKS + PRUNE, 14),
    Mutant("the final prune skipped", "netlang.py",
           "pieces = [piece for segment in grown for piece in _prune(*segment)]",
           "pieces = grown",
           COLLAPSE + BLOCKS, 8),
    Mutant("projection index read one bit off", "netlang.py",
           "step = (member << np.cumsum(member, axis=-1)) >> 1",
           "step = member << np.cumsum(member, axis=-1)",
           COLLAPSE + BLOCKS, 10),
    Mutant("groups run out of depth order", "netlang.py",
           "groups.sort(key=lambda group: group[0])",
           "groups.sort(key=lambda group: group[1])",
           COLLAPSE + BLOCKS, 6),
    Mutant("a wide-U index built over unpruned supports", "netlang.py",
           "for rows, supports, bits in (pieces if todo else ())",
           "for rows, supports, bits in (grown if todo else ())",
           COLLAPSE, 2),
    Mutant("block rows put back out of definition order", "netlang.py",
           'order = np.argsort(rows, kind="stable")',
           "order = np.arange(len(rows))",
           COLLAPSE + BLOCKS, 6),
    Mutant("relevant-by-halves compares the wrong axis", "netlang.py",
           "halves = bits.reshape(m, -1, 2, 1 << j)",
           "halves = bits.reshape(m, 1 << j, 2, -1)",
           COLLAPSE + BLOCKS, 6),
    Mutant("random function drawn one byte short", "sampling.py",
           "rng.bytes(_table_bytes(k))",
           "rng.bytes(_table_bytes(k) - 1)",
           ("tests/test_sampling.py::TestRandomTables", "tests/test_golden.py",
            # exchange trials draw rows; these compare them with per-table draws
            "tests/test_netlang.py::TestCollapseSoundness::test_baseline_trials[exchange-random]",
            "tests/test_netlang.py::TestPackedCollapse::"
            "test_exchange_trials_are_the_packed_build[random]"), 7),
    Mutant("determinative power sums into the wrong rank", "analysis.py",
           "np.bincount(w.ranks,",
           "np.bincount((w.ranks - 1) % len(s.c.inputs),",
           ("tests/test_analysis.py::TestAgainstPerNodeMeasures::test_determinative_power",
            "tests/test_analysis.py::TestDeterminativePower"), 2),
    Mutant("runs start at pos, not pos + 1", "analysis.py",
           "stop[np.arange(len(known)) + w.node] = pos[known] + 1",
           "stop[np.arange(len(known)) + w.node] = pos[known]",
           ("tests/test_analysis.py::TestAgainstPerNodeMeasures::test_uncertainty_curve",
            "tests/test_analysis.py::TestUncertaintyCurve"), 3),
    Mutant("a node's last run ends at L, not L + 1", "analysis.py",
           "stop = np.full(len(h), L + 2)",
           "stop = np.full(len(h), L + 1)",
           ("tests/test_analysis.py::TestAgainstPerNodeMeasures::test_uncertainty_curve",
            "tests/test_analysis.py::TestUncertaintyCurve", *CURVES), 9),
    Mutant("a block of the curve starts from 0.0, not the last block's sums", "analysis.py",
           "np.repeat(np.concatenate([sums, h[lo:hi]])",
           "np.repeat(np.concatenate([0.0 * sums, h[lo:hi]])",
           CURVES, 5),
    Mutant("random-topology rows read at the wrong word offset", "sampling.py",
           "raw[at[arities == k, None] + np.arange(_table_bytes(k))]",
           "raw[4 * np.flatnonzero(arities == k)[:, None] + np.arange(_table_bytes(k))]",
           (TRIAL_BITS, "tests/test_sampling.py::TestRandomTables"), 7),
    Mutant("flip test ignores the predecessors", "sampling.py",
           "keys.append(above | below << size)",
           "keys.append(above)",
           CHAIN, 20),
    Mutant("a flip sets instead of toggling", "sampling.py",
           "z ^= both << t",
           "z |= both << t",
           CHAIN, 20),
    Mutant("fan-in not in input order", "analysis.py",
           'ranks = np.argsort(targets, kind="stable")',
           'ranks = np.argsort(-targets, kind="stable")[::-1]',
           (TRIAL_BITS, "tests/test_netlang.py::TestCollapseSoundness::test_baseline_trials"), 4),
    Mutant("A(l) j = 1 row read for the wrong input", "analysis.py",
           "h[at[many] + 1] = w.h_given[known[w.start[many]]]",
           "h[at[many] + 1] = w.h_given[w.start[many]]",
           (*CURVES, "tests/test_analysis.py::TestAgainstPerNodeMeasures::test_uncertainty_curve"),
           6),
    Mutant("the curve's fold leaves out the spare column", "analysis.py",
           "sums = np.add.reduce(rows.reshape(-1, L + 2), axis=0)",
           "sums = np.append(np.add.reduce(rows.reshape(-1, L + 2)[:, :-1], axis=0), 0.0)",
           ("tests/test_analysis.py::test_uncertainty_curve_short_of_the_inputs_adds_left_to_right",),
           1),
    Mutant("curve summed pairwise", "analysis.py",
           "np.add.reduce(rows.reshape(-1, L + 2), axis=0)",
           "np.add.reduce(rows.reshape(-1, L + 2).T.copy(), axis=1)",
           CURVES, 5),
    Mutant("grouped stage builds m kron f", "boolfn.py",
           "m = (f[:, None, :, None] * m[None, :, None, :])",
           "m = (m[:, None, :, None] * f[None, :, None, :])",
           ("tests/test_boolfn.py::TestKronApply",), 2),
    Mutant("blocked entropy drops the w_high factor", "measures.py",
           "_row_dot(_product_weights(p[..., ENTROPY_BLOCK_BITS:]), sums)",
           "sums.sum(axis=-1)",
           ("tests/test_measures.py::TestBlockedCondEntropy",), 10),
    Mutant("blocked entropy mixes the rows of its block sums", "measures.py",
           "for h in range(blocks.shape[-2])], axis=-1)",
           "for h in range(blocks.shape[-2])], axis=0)",
           ("tests/test_analysis.py::test_uncertainty_curve_sums_wide_nodes_in_blocks",), 1),
    Mutant("noise factors swap p and q", "measures.py",
           "_factors(q * (1.0 - eps), q * eps, p * eps, p * (1.0 - eps), p.shape)",
           "_factors(p * (1.0 - eps), p * eps, q * eps, q * (1.0 - eps), p.shape)",
           ("tests/test_measures.py::TestNoiseSensitivity",), 6),
    Mutant("one-block entropy keeps the sign of zero", "measures.py",
           "_entropy_of_expectations(cond)) + 0.0",
           "_entropy_of_expectations(cond))",
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
    Mutant("sensitivity kernel weighs variable i at bit i + 1", "boolfn.py",
           "w[..., b:b + 1]",
           "np.roll(w, 1, axis=-1)[..., b:b + 1]",
           ("tests/test_measures.py::TestSubsetSums", "tests/test_measures.py::TestInfluence",
            "tests/test_analysis.py::TestAgainstPerNodeMeasures::test_sensitivity_scatter",
            SUBSET_SUMS, *COLLAPSE), 13),
    Mutant("subset sums drop the base", "boolfn.py",
           "out[..., 0] = base",
           "out[..., 0] = 0",
           (SUBSET_SUMS, *COLLAPSE), 7),
    Mutant("unpacker reads bits big-endian", "boolfn.py",
           'nbytes), axis=1, bitorder="little")',
           'nbytes), axis=1, bitorder="big")',
           ("tests/test_boolfn.py::TestSignRows",
            "tests/test_boolfn.py::TestBoolFn::test_hex_and_unpacker_round_trip"), 2),
    Mutant("inv_var drops the square", "boolfn.py",
           "return _frozen(1.0 / self.sigma ** 2)",
           "return _frozen(1.0 / self.sigma)",
           ("tests/test_boolfn.py::TestProductDist", "tests/test_measures.py::TestInfluence",
            "tests/test_measures.py::TestAvgSensitivity", "tests/test_measures.py::TestSubsetSums"),
           7),
    Mutant("entropy row kernel swaps phi(-1) and phi(+1)", "measures.py",
           "d._inverse[ranks.T]",
           "d._inverse[ranks.T][..., ::-1, :]",
           ("tests/test_measures.py::TestMutualInformation",
            "tests/test_measures.py::TestUnateCoefficients",
            "tests/test_analysis.py::TestAgainstPerNodeMeasures::test_determinative_power",
            "tests/test_analysis.py::TestAgainstPerNodeMeasures::test_uncertainty_curve",
            "tests/test_analysis.py::test_uncertainty_curve_adds_node_entropies_left_to_right"), 5),
    Mutant("probability check drops the p(1 - p) bound", "boolfn.py",
           "if p * (1.0 - p) < MIN_P_VARIANCE:",
           "if False:",
           ("tests/test_boolfn.py::TestProductDist", "tests/test_cli.py::TestExitCodes",
            "tests/test_cli.py::TestAnalyze"), 7),
    Mutant("zero rule tests the wrong side of the mask", "measures.py",
           "if rel & ~mask:",
           "if rel & mask:",
           ("tests/test_measures.py::TestZeroRule", "tests/test_measures.py::TestCondEntropy",
            "tests/test_measures.py::TestMutualInformation"), 10),
    Mutant("batched entropy rows written to the wrong rows", "measures.py",
           "rows = [r for r, _ in batch]",
           "rows = [r for r, _ in batch][::-1]",
           (MI_ROWS,), 13),
    Mutant("zero rule dropped in the batched path", "measures.py",
           "if rel & ~mask:",
           "if rel & ~mask or len(masks) > 1:",
           (MI_ROWS,), 14),
    Mutant("live mask not cut to the relevant variables", "measures.py",
           "live = mask & rel",
           "live = mask",
           (MI_ROWS, "tests/test_measures.py::TestMutualInformation"), 2),
    Mutant("uncertainty curve leaves column k - 1 uncomputed", "analysis.py",
           "for j in range(2, int(w.k.max(initial=0))):",
           "for j in range(2, int(w.k.max(initial=0)) - 1):",
           ("tests/test_analysis.py::TestAgainstPerNodeMeasures::test_uncertainty_curve",
            "tests/test_analysis.py::TestUncertaintyCurve", "tests/test_golden.py"), 6),
    Mutant("cached held masks read one variable off", "boolfn.py",
           "return tuple(_low_mask(n, j) for j in range(n))",
           "return tuple(_low_mask(n, (j + 1) % n) for j in range(n))",
           ("tests/test_boolfn.py::TestHalves", *COLLAPSE), 10),
    Mutant("check_mask accepts one bit above the arity", "boolfn.py",
           "if mask < 0 or mask >> arity:",
           "if mask < 0 or mask >> (arity + 1):",
           ("tests/test_measures.py::test_mask_one_bit_above_the_arity_is_refused",), 12),
    Mutant("readers split lines with str.splitlines", "netlang.py",
           'return re.split(r"\\r\\n?|\\n", text)',
           "return text.splitlines()",
           ("tests/test_netlang.py::TestParse",
            "tests/test_cli.py::TestExitCodes::test_p_file_line_numbers_count_line_ends_only"), 33),
    Mutant("--table-hex without --labels goes unchecked", "cli.py",
           '        if not args.labels:\n            raise ValueError("--table-hex requires --labels")\n',
           "",
           ("tests/test_cli.py::TestExitCodes::test_table_hex_without_labels_is_3",), 2),
    Mutant("header tokenized from after @inputs", "netlang.py",
           "for i, name in enumerate(tokens[1:], 1):",
           'line = line.split("@inputs", 1)[1]\n            for i, name in enumerate(tokens[1:]):',
           ("tests/test_netlang.py::TestParse",
            "tests/test_netlang.py::TestOracles::test_parse_matches_class_parser"), 4),
    Mutant("p-file reader rewrites = to a space", "cli.py",
           'parts = line.split("#", 1)[0].split()',
           'parts = line.split("#", 1)[0].replace("=", " ").split()',
           ("tests/test_cli.py::TestExitCodes::test_p_file_fields_are_split_on_whitespace_only",
            "tests/test_cli.py::test_p_file_round_trip"), 4),
    Mutant("assignment weights left writable", "boolfn.py",
           "return _frozen(_product_weights(self.p))",
           "return _product_weights(self.p)",
           (WEIGHTS,), 1),
    Mutant("weights rebuilt on every call", "boolfn.py",
           "return self._weights",
           "return _product_weights(self.p)",
           (WEIGHTS, "tests/test_measures.py::test_truth_table_measures_share_one_weight_array"), 2),
    Mutant("signs held on the function", "boolfn.py",
           "    @property\n    def signs(self)",
           "    @cached_property\n    def signs(self)",
           ("tests/test_boolfn.py::TestHeldState",), 3),
    Mutant("noise sensitivity clamps without a budget", "measures.py",
           "return _clamp_prob((1.0 - float(np.dot(signs, kron_apply(signs, wt)))) / 2.0)",
           "return max((1.0 - float(np.dot(signs, kron_apply(signs, wt)))) / 2.0, 0.0)",
           ("tests/test_measures.py::TestNoiseSensitivity",), 1),
    Mutant("JSON keys left unsorted", "reports.py",
           "for key, item in sorted(value.items())]",
           "for key, item in value.items()]",
           (REPORTS, "tests/test_golden.py"), 31),
    Mutant("a float written unrounded", "reports.py",
           'text = f"{x:.12g}"',
           "text = repr(float(x))",
           (REPORTS, "tests/test_golden.py"), 15),
    Mutant("references recorded in last-use order", "netlang.py",
           "expr = made.get(word)\n                    if expr is None:\n"
           "                        expr = made[word] = Var(word)",
           "expr = made[word] = made.pop(word, None) or Var(word)",
           ("tests/test_netlang.py::TestOracles::test_recorded_references_are_the_walk",
            "tests/test_netlang.py::TestLocalize", "tests/test_golden.py"), 3),
    Mutant("a constant spelled with the long s read as a name", "netlang.py",
           '({"ſ"} if c == "S" else set())',
           "set()",
           ("tests/test_netlang.py::TestOracles",), 1),
    Mutant("flag-bounds table skips --top", "cli.py",
           '("L", 0), ("top", 0))',
           '("L", 0))',
           ("tests/test_cli.py::TestExitCodes::test_negative_top_is_3",
            "tests/test_cli.py::TestFlagsBeforeWork::test_exits_3_before_parse"), 2),
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
