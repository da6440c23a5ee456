"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The regulatory-network
reproduction (criteria 7 and 8) needs the externally converted dataset file
(see conftest.ecoli_fixture_path); without it those criteria report SKIPPED.
"""

import time

import numpy as np
import pytest

from bnspectral.analysis import (
    BaselineSpec,
    baseline_curves,
    determinative_power,
    node_spectra,
    sensitivity_scatter,
    uncertainty_curve,
)
from bnspectral.boolfn import ProductDist, mask_of, transform
from bnspectral.cli import main
from bnspectral.measures import (
    avg_sensitivity,
    influence,
    mi_single_from_coeffs,
    mutual_information,
    unate_coefficient_check,
    unateness,
)
from bnspectral.netlang import collapse, effective_inputs, out_degree, parse
from bnspectral.reference import transform_naive
from bnspectral.sampling import random_threshold_fn
from bnspectral.selftest import format_reports, run_selftest

from conftest import (
    and_fn,
    ecoli_fixture_path,
    parity_fn,
    random_bool_fn,
    random_network,
    random_product_dist,
)
from oracles import network_cond_entropy, node_tables
from test_netlang import MARA_CLOSED


def _report(num: int, desc: str):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"\n[criterion {num:2d}] {status}  {desc}")
            return False

    return _Ctx()


def _skip(num: int, desc: str, reason: str):
    print(f"\n[criterion {num:2d}] SKIPPED  {desc} ({reason})")
    pytest.skip(reason)


def test_criterion_1_worked_example_spectra():
    with _report(1, "AND2/PARITY2 spectra exact at uniform, < 1 ms"):
        u2 = ProductDist.uniform(2)
        f_and, f_par = and_fn(2), parity_fn(2)
        transform(f_and, u2)  # warm
        best = min(_timed(lambda: (transform(f_and, u2), transform(f_par, u2)))
                   for _ in range(7))
        s_and = transform(f_and, u2)
        s_par = transform(f_par, u2)
        assert np.max(np.abs(s_and.coeffs - np.array([-0.5, 0.5, 0.5, 0.5]))) <= 1e-12
        assert np.max(np.abs(s_par.coeffs - np.array([0.0, 0.0, 0.0, 1.0]))) <= 1e-12
        assert best < 1e-3, f"transform pair took {best * 1e3:.3f} ms"


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_sensitivity_constants():
    with _report(2, "AS constants: AND2=1, PARITY2=2, AND3=0.75, PARITY3=3"):
        u2, u3 = ProductDist.uniform(2), ProductDist.uniform(3)
        assert abs(avg_sensitivity(and_fn(2), u2) - 1.0) <= 1e-12
        assert abs(avg_sensitivity(parity_fn(2), u2) - 2.0) <= 1e-12
        assert abs(avg_sensitivity(and_fn(3), u3) - 0.75) <= 1e-12
        assert abs(avg_sensitivity(parity_fn(3), u3) - 3.0) <= 1e-12


def test_criterion_3_theorem_identity_suite():
    with _report(3, "theorem identities on 10^4 random instances, < 60 s"):
        t0 = time.perf_counter()
        reports = run_selftest(trials=10_000, max_n=8, seed=2024)
        elapsed = time.perf_counter() - t0
        print()
        print(format_reports(reports))
        assert all(r.passed for r in reports), format_reports(reports)
        assert elapsed < 60.0, f"suite took {elapsed:.1f} s"


def test_criterion_4_unate_suite():
    with _report(4, "unate suite on 10^3 random threshold functions"):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            f, _ = random_threshold_fn(n, rng)
            d = random_product_dist(rng, n)
            s = transform(f, d)
            assert unateness(f).is_unate
            for i, coeff, product in unate_coefficient_check(s):
                assert abs(coeff - product) <= 1e-9
                mi = mutual_information(s, 1 << i)
                if influence(f, d, i) > 0.0:
                    assert mi > 1e-12
                via_influence = mi_single_from_coeffs(s.coeff(0), product, d.probs[i])
                assert abs(mi - via_influence) <= 1e-9


def test_criterion_5_collapse_soundness():
    with _report(5, "collapse sound on 500 random networks; mara example"):
        rng = np.random.default_rng(99)
        for _ in range(500):
            net = random_network(rng, max_inputs=12, max_nodes=20, max_depth=4)
            c = collapse(net)
            tables = node_tables(net)
            rank = {name: i for i, name in enumerate(net.inputs)}
            idx = np.arange(1 << len(net.inputs), dtype=np.int64)
            for node in c.nodes:
                sub = np.zeros_like(idx)
                for j, name in enumerate(node.inputs):
                    sub |= ((idx >> rank[name]) & 1) << j
                assert np.array_equal(node.fn.bits[sub], tables[node.name])

        c = collapse(parse(MARA_CLOSED))
        assert ("mara", 1) in c.constants
        _, non_eff = effective_inputs(c)
        assert "salicylate" in non_eff


def test_criterion_6_uncertainty_bound():
    with _report(6, "A(l) upper-bounds exact joint entropy on 100 networks"):
        rng = np.random.default_rng(123)
        for _ in range(100):
            net = random_network(rng, max_inputs=10, max_nodes=6, max_depth=3)
            c = collapse(net)
            d = ProductDist.uniform(len(net.inputs))
            tau = determinative_power(node_spectra(c, d)).tau
            curve = uncertainty_curve(node_spectra(c, d), tau)
            values = curve.values
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
            tables = np.stack([node_tables(net)[name] for name, _ in net.defs])
            rank = {name: i for i, name in enumerate(net.inputs)}
            for l, a_l in curve.points:
                known = mask_of(rank[name] for name in tau[:l])
                assert network_cond_entropy(tables, d, known) <= a_l + 1e-9


ECOLI_TOP4 = {
    "o2_xt": (37.0, 0.5),
    "leu-l_xt": (20.9, 0.1),
    "glc-d_xt": (19.3, 0.1),
    "glcn_xt>0": (17.0, 0.5),
}

ECOLI_OUT_DEGREES = {"glc-d_xt": 99, "glcn_xt>0": 93, "o2_xt": 73}


def test_criterion_7_ecoli_reproduction():
    desc = "regulatory-network fixture reproduction"
    path = ecoli_fixture_path()
    if path is None:
        _skip(7, desc, "dataset file not present")
    with _report(7, desc):
        t0 = time.perf_counter()
        net = parse(path.read_text())
        c = collapse(net)
        eff, _ = effective_inputs(c)
        assert len(eff) == 145
        assert len(c.nodes) == 653
        for node in c.nodes:
            assert node.fn.arity <= 8
            assert unateness(node.fn).is_unate
        for name, degree in ECOLI_OUT_DEGREES.items():
            assert out_degree(net, name) == degree
        d = ProductDist.uniform(len(c.inputs))
        ranking = determinative_power(node_spectra(c, d))
        for name, (value, tol) in ECOLI_TOP4.items():
            assert abs(ranking.d_values[name] - value) <= tol
        for rec in sensitivity_scatter(node_spectra(c, d)):
            bound = 4.0 * rec.prob_one * (1.0 - rec.prob_one)
            assert rec.avg_sensitivity >= bound - 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"analysis took {elapsed:.0f} s"


def test_criterion_8_baselines_above_true_curve():
    desc = "baseline mean curves lie above the true A(l) curve"
    path = ecoli_fixture_path()
    if path is None:
        _skip(8, desc, "dataset file not present")
    with _report(8, desc):
        net = parse(path.read_text())
        c = collapse(net)
        d = ProductDist.uniform(len(c.inputs))
        ranking = determinative_power(node_spectra(c, d))
        L = len(ranking.tau)
        true_curve = uncertainty_curve(node_spectra(c, d), ranking.tau, L)
        for mode in ("exchange-random", "exchange-unate"):
            res = baseline_curves(net, BaselineSpec(mode, trials=25, seed=2012), d, L)
            for (l, true_v), mean_v in zip(true_curve.points, res.mean.values):
                assert mean_v >= true_v - 1e-9, (mode, l)


def test_criterion_9_performance():
    with _report(9, "fast transform n=20 < 2 s; matches naive at n=10"):
        rng = np.random.default_rng(314)
        f20 = random_bool_fn(rng, 20)
        d20 = random_product_dist(rng, 20)
        elapsed = _timed(lambda: transform(f20, d20))
        assert elapsed < 2.0, f"n=20 transform took {elapsed:.2f} s"
        f10 = random_bool_fn(rng, 10)
        d10 = random_product_dist(rng, 10)
        gap = np.max(np.abs(transform(f10, d10).coeffs - transform_naive(f10, d10).coeffs))
        assert gap <= 1e-12


def test_criterion_10_deterministic_reports(tmp_path):
    with _report(10, "same-seed analyze runs produce byte-identical reports"):
        netfile = tmp_path / "net.bnet"
        netfile.write_text(
            "@inputs a b c d e f g h\n"
            + "\n".join(f"y{k} = a AND b OR (c AND NOT d) OR (e AND g)" for k in range(4))
            + "\nz1 = y0 OR h\nz2 = NOT y1\n")
        args = ["analyze", str(netfile), "--seed", "7", "--baseline",
                "exchange-random", "--trials", "5"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("report.json", "curve.csv", "scatter.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
