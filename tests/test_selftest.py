"""The identity suite's reports, pinned.

``run_selftest(2000, 8, 3)`` must give the same report, worst deviations
to the bit, whichever path computes the measures.  The deviations are
float noise: these bits are those of the OpenBLAS kernels with fused
multiply-add (Haswell, Zen, SkylakeX); Sandybridge and Prescott give others.
"""

from bnspectral.selftest import run_selftest

# (identity, worst deviation as float.hex()), in report order
WORST = (
    ("parseval", "0x1.8000000000000p-51"),
    ("cond_entropy_spectral_vs_definitional", "0x1.0600000000000p-48"),
    ("entropy_sandwich", "0x1.8000000000000p-52"),
    ("sensitivity_mi_bound", "0x0.0p+0"),
    ("influence_entropy_ratio", "0x1.0000000000000p-47"),
    ("independence_vs_factorization", "0x0.0p+0"),
    ("conditional_expectation_lemma", "0x1.a000000000000p-50"),
    ("mi_chain_bound", "0x0.0p+0"),
    ("unate_singleton_coefficient", "0x1.8000000000000p-52"),
    ("unate_mi_from_influence", "0x1.2400000000000p-47"),
)


def test_reports_are_pinned():
    reports = run_selftest(2000, max_n=8, seed=3)
    assert [(r.name, r.worst.hex()) for r in reports] == list(WORST)
    assert all(r.instances == 2000 and r.passed for r in reports)
