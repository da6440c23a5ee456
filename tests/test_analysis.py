"""Determinative power, uncertainty curves, scatter, and baselines."""

from collections import Counter

import numpy as np
import pytest

from bnspectral import analysis, netlang
from bnspectral.analysis import (
    BASELINE_MODES,
    BaselineSpec,
    baseline_curves,
    determinative_power,
    node_spectra,
    sensitivity_scatter,
    uncertainty_curve,
)
from bnspectral.boolfn import ArityCapError, BoolFn, ProductDist, mask_of, transform
from bnspectral.cli import main
from bnspectral.measures import (
    avg_sensitivity_spectral,
    binary_entropy,
    cond_entropy_spectral,
    mutual_information,
    prob_one,
)
from bnspectral.netlang import Const, Network, collapse, localize, parse
from bnspectral.reference import (
    cond_entropy_definitional,
    mutual_information_definitional,
    network_cond_entropy,
    node_tables,
)
from bnspectral.sampling import random_tables, sample_random_function

from conftest import random_network, random_product_dist


def toy_network():
    return parse("""\
@inputs a b c d
n1 = a AND b
n2 = a OR (b AND NOT c)
n3 = NOT a
n4 = c AND NOT c
""")


class TestDeterminativePower:
    def test_dictator_copies(self):
        # m copies of a dictatorship on x1: D(x1) = m h(p1)
        m = 5
        text = "\n".join(f"y{k} = x1" for k in range(m)) + "\n"
        c = collapse(parse(text))
        for p in (0.5, 0.3):
            d = ProductDist((p,))
            r = determinative_power(node_spectra(c, d))
            assert r.d_values["x1"] == pytest.approx(m * binary_entropy(p), abs=1e-9)

    def test_input_feeding_constant_scores_zero(self):
        c = collapse(parse("y = x OR NOT x\nz = w\n"))
        r = determinative_power(node_spectra(c, ProductDist.uniform(2)))
        assert r.d_values["x"] == 0.0
        assert r.d_values["w"] == pytest.approx(1.0, abs=1e-12)
        assert r.tau == ("w", "x")

    def test_tie_break_lexicographic(self):
        c = collapse(parse("y1 = b\ny2 = a\n"))
        r = determinative_power(node_spectra(c, ProductDist.uniform(2)))
        assert r.tau == ("a", "b")

    def test_parity_node_contributes_nothing(self):
        c = collapse(parse("y = (a AND NOT b) OR (b AND NOT a)\n"))
        r = determinative_power(node_spectra(c, ProductDist.uniform(2)))
        assert r.d_values == {"a": 0.0, "b": 0.0}

    def test_missing_probabilities(self):
        c = collapse(toy_network())
        with pytest.raises(ValueError, match="declares"):
            determinative_power(node_spectra(c, ProductDist.uniform(3)))


class TestUncertaintyCurve:
    def test_endpoints(self):
        c = collapse(toy_network())
        d = ProductDist.uniform(4)
        r = determinative_power(node_spectra(c, d))
        curve = uncertainty_curve(node_spectra(c, d), r.tau)
        values = curve.values
        assert values[-1] == pytest.approx(0.0, abs=1e-12)
        assert values[0] <= len(c.nodes)
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_a0_is_sum_of_node_entropies(self):
        c = collapse(parse("y = a AND b\nz = NOT a\n"))
        d = ProductDist.uniform(2)
        curve = uncertainty_curve(node_spectra(c, d), ("a", "b"), L=0)
        assert curve.values[0] == pytest.approx(binary_entropy(0.25) + 1.0, abs=1e-12)

    def test_invalid_permutation(self):
        c = collapse(toy_network())
        d = ProductDist.uniform(4)
        with pytest.raises(ValueError):
            uncertainty_curve(node_spectra(c, d), ("a", "a", "b"))
        with pytest.raises(ValueError):
            uncertainty_curve(node_spectra(c, d), ("a", "nope"))
        with pytest.raises(ValueError):
            uncertainty_curve(node_spectra(c, d), ("a",), L=2)

    def test_negative_L(self):
        c = collapse(toy_network())
        with pytest.raises(ValueError, match="L = -1"):
            uncertainty_curve(node_spectra(c, ProductDist.uniform(4)), ("a",), L=-1)

    def test_upper_bounds_exact_joint_entropy(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            net = random_network(rng, max_inputs=8, max_nodes=5, max_depth=3)
            c = collapse(net)
            d = ProductDist.uniform(len(net.inputs))
            tau = determinative_power(node_spectra(c, d)).tau
            curve = uncertainty_curve(node_spectra(c, d), tau)
            tables = np.stack([node_tables(net)[name] for name, _ in net.defs])
            rank = {name: i for i, name in enumerate(net.inputs)}
            for l, a_l in curve.points:
                known = mask_of(rank[name] for name in tau[:l])
                exact = network_cond_entropy(tables, d, known)
                assert exact <= a_l + 1e-9


class TestGoldenThreeNode:
    # hand-computed via the definitional sums at uniform inputs:
    # H(y)=H(z)=h(1/4), H(y|a)=H(z|a)=1/2, w is a dictatorship on a
    H_QUARTER = 0.811278124459133
    MI_ONE = H_QUARTER - 0.5

    def net(self):
        return collapse(parse("y = a AND b\nz = a OR b\nw = NOT a\n"))

    def test_d_values(self):
        r = determinative_power(node_spectra(self.net(), ProductDist.uniform(2)))
        assert r.d_values["a"] == pytest.approx(1.0 + 2 * self.MI_ONE, abs=1e-12)
        assert r.d_values["b"] == pytest.approx(2 * self.MI_ONE, abs=1e-12)
        assert r.tau == ("a", "b")

    def test_curve(self):
        c = self.net()
        d = ProductDist.uniform(2)
        curve = uncertainty_curve(node_spectra(c, d), ("a", "b"))
        assert curve.values[0] == pytest.approx(2 * self.H_QUARTER + 1.0, abs=1e-12)
        assert curve.values[1] == pytest.approx(1.0, abs=1e-12)
        assert curve.values[2] == pytest.approx(0.0, abs=1e-12)

    def test_scatter(self):
        recs = {r.name: r for r in sensitivity_scatter(node_spectra(self.net(), ProductDist.uniform(2)))}
        assert recs["y"].avg_sensitivity == pytest.approx(1.0, abs=1e-12)
        assert recs["y"].prob_one == pytest.approx(0.25, abs=1e-15)
        assert recs["y"].poincare_lower == pytest.approx(0.75, abs=1e-12)
        assert recs["z"].prob_one == pytest.approx(0.75, abs=1e-15)
        assert recs["w"].poincare_lower == pytest.approx(1.0, abs=1e-12)


class TestSensitivityScatter:
    def test_constant_node(self):
        c = collapse(parse("y = 1\n"))
        rec = sensitivity_scatter(node_spectra(c, ProductDist.uniform(0)))[0]
        assert rec.in_degree == 0
        assert rec.avg_sensitivity == 0.0
        assert rec.prob_one in (0.0, 1.0)
        assert rec.poincare_lower == 0.0

    def test_parity3_node(self):
        c = collapse(parse("y = (a AND b AND c) OR (a AND NOT b AND NOT c) "
                           "OR (NOT a AND b AND NOT c) OR (NOT a AND NOT b AND c)\n"))
        rec = sensitivity_scatter(node_spectra(c, ProductDist.uniform(3)))[0]
        assert rec.in_degree == 3
        assert rec.avg_sensitivity == pytest.approx(3.0, abs=1e-9)
        assert rec.prob_one == pytest.approx(0.5, abs=1e-12)
        assert rec.poincare_lower == pytest.approx(1.0, abs=1e-9)
        assert rec.avg_sensitivity >= rec.poincare_lower

    def test_lower_bound_holds_random(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            net = random_network(rng, max_inputs=7, max_nodes=8)
            c = collapse(net)
            d = ProductDist(tuple(rng.uniform(0.1, 0.9, size=len(net.inputs))))
            for rec in sensitivity_scatter(node_spectra(c, d)):
                assert rec.avg_sensitivity >= rec.poincare_lower - 1e-12

    def test_uniform_bound_is_4p1mp(self):
        c = collapse(parse("y = a AND b\n"))
        rec = sensitivity_scatter(node_spectra(c, ProductDist.uniform(2)))[0]
        assert rec.poincare_lower == pytest.approx(4 * 0.25 * 0.75, abs=1e-12)


def _per_node(c, d):
    """(node, marginal distribution, spectrum) for every node, one at a time."""
    rank = {name: i for i, name in enumerate(c.inputs)}
    for node in c.nodes:
        sub = d.marginal([rank[name] for name in node.inputs])
        yield node, sub, transform(node.fn, sub)


class TestAgainstPerNodeMeasures:
    """The arity-batched analyses against the single-node measures, on random
    networks (with an arity-0 node) under random biased distributions."""

    def cases(self):
        rng = np.random.default_rng(29)
        for _ in range(15):
            net = random_network(rng, max_inputs=10, max_nodes=12)
            c = collapse(Network(net.inputs, net.defs + (("k", Const(1)),)))
            assert any(node.fn.arity == 0 for node in c.nodes)
            yield rng, c, random_product_dist(rng, len(c.inputs))

    def test_determinative_power(self):
        # the batched path shares its basis helpers with the per-node
        # measures, so the brute-force oracle is checked as well
        for _, c, d in self.cases():
            want = {name: 0.0 for name in c.inputs}
            brute = {name: 0.0 for name in c.inputs}
            for node, sub, spec in _per_node(c, d):
                for t, name in enumerate(node.inputs):
                    want[name] += mutual_information(spec, 1 << t)
                    brute[name] += mutual_information_definitional(node.fn, sub, 1 << t)
            got = determinative_power(node_spectra(c, d)).d_values
            assert max(abs(got[name] - want[name]) for name in want) < 1e-12
            assert max(abs(got[name] - brute[name]) for name in brute) < 1e-12

    def test_uncertainty_curve(self):
        for rng, c, d in self.cases():
            # one input left out of the order, and L short of its length
            order = [str(name) for name in rng.permutation(c.inputs)][1:]
            L = int(rng.integers(0, len(order)))
            setup = list(_per_node(c, d))
            masks = [0] * len(setup)
            h = [cond_entropy_spectral(spec, sub, 0) for _, sub, spec in setup]
            hb = [cond_entropy_definitional(node.fn, sub, 0) for node, sub, _ in setup]
            want, brute = [sum(h)], [sum(hb)]
            for name in order[:L]:
                for i, (node, sub, spec) in enumerate(setup):
                    if name in node.inputs:
                        masks[i] |= 1 << node.inputs.index(name)
                        h[i] = cond_entropy_spectral(spec, sub, masks[i])
                        hb[i] = cond_entropy_definitional(node.fn, sub, masks[i])
                want.append(sum(h))
                brute.append(sum(hb))
            got = uncertainty_curve(node_spectra(c, d), order, L).values
            assert len(got) == L + 1
            assert np.max(np.abs(np.array(got) - want)) < 1e-12
            assert np.max(np.abs(np.array(got) - brute)) < 1e-12

    def test_sensitivity_scatter(self):
        for _, c, d in self.cases():
            for rec, (node, sub, spec) in zip(sensitivity_scatter(node_spectra(c, d)), _per_node(c, d)):
                assert (rec.name, rec.in_degree) == (node.name, node.fn.arity)
                assert rec.avg_sensitivity == pytest.approx(
                    avg_sensitivity_spectral(spec), abs=1e-12)
                assert rec.prob_one == pytest.approx(prob_one(node.fn, sub), abs=1e-12)


class TestBaselines:
    def test_reproducible(self):
        net = toy_network()
        d = ProductDist.uniform(4)
        spec = BaselineSpec("exchange-random", trials=5, seed=11)
        a = baseline_curves(net, spec, d)
        b = baseline_curves(net, spec, d)
        assert a == b

    def test_modes_run(self):
        net = parse("\n".join(f"y{k} = a AND b" for k in range(8)) + "\n")
        d = ProductDist.uniform(2)
        for mode in ("exchange-random", "exchange-unate",
                     "random-topology-random", "random-topology-unate"):
            res = baseline_curves(net, BaselineSpec(mode, trials=2, seed=5), d, L=2)
            assert len(res.mean.values) == 3
            assert res.resampled >= 0

    @pytest.mark.parametrize("mode", BASELINE_MODES)
    def test_trials_do_not_localize(self, monkeypatch, mode):
        # every mode reads only names and argument lists, never the tables
        def refuse(*args, **kwargs):
            raise AssertionError("baseline_curves tabulated the network")

        monkeypatch.setattr(netlang, "localize", refuse)
        monkeypatch.setattr(analysis, "localize", refuse, raising=False)
        text = "".join(f"y{k} = a AND (b OR NOT c)\n" for k in range(8))
        d = ProductDist.uniform(3)
        res = baseline_curves(parse(text), BaselineSpec(mode, trials=2, seed=5), d)
        assert len(res.mean.values) == 4
        wide = parse(text + "w = " + " OR ".join(f"v{i}" for i in range(7)) + "\n")
        with pytest.raises(ArityCapError) as err:
            baseline_curves(wide, BaselineSpec(mode, trials=2, seed=5),
                            ProductDist.uniform(10), cap=6)
        assert (err.value.arity, err.value.cap, err.value.name) == (7, 6, "w")

    def test_single_trial_zero_stddev(self):
        res = baseline_curves(toy_network(), BaselineSpec("exchange-random", 1, 3),
                              ProductDist.uniform(4), L=2)
        assert res.stddev == (0.0, 0.0, 0.0)

    def test_exchange_preserves_in_degree(self):
        from bnspectral.analysis import _exchanged_local

        ln = localize(toy_network())
        swapped = _exchanged_local(ln.inputs, [(n.name, n.args) for n in ln.nodes],
                                   np.random.default_rng(2), unate=False)
        for before, after in zip(ln.nodes, swapped.nodes):
            assert before.args == after.args
            assert after.table < 1 << (1 << len(after.args))

    def test_random_topology_out_degree(self):
        from bnspectral.analysis import _random_topology_local

        inputs = tuple(f"i{k}" for k in range(5))
        names = tuple(f"y{k}" for k in range(10))
        defs = _random_topology_local(inputs, names, np.random.default_rng(3))
        assert [name for name, _ in defs] == list(names)
        counts = {name: 0 for name in inputs}
        for _, args in defs:
            assert len(set(args)) == len(args)
            for a in args:
                counts[a] += 1
        assert all(v == 8 for v in counts.values())

    def test_random_topology_checks_cap_before_sampling(self, monkeypatch):
        import bnspectral.analysis as analysis

        drawn = []

        def tables(arities, rng):
            drawn.extend(arities)
            return random_tables(arities, rng)

        def sampler(k, rng):
            drawn.append(k)
            return sample_random_function(k, rng)

        monkeypatch.setattr(analysis, "random_tables", tables)
        monkeypatch.setattr(analysis, "sample_random_unate", sampler)
        inputs = tuple(f"i{k}" for k in range(12))
        names = tuple(f"y{k}" for k in range(8))
        with pytest.raises(ArityCapError):
            analysis._random_topology_local(inputs, names, np.random.default_rng(1), cap=10)
        assert drawn == []
        # through the baseline, every node of every trial has fan-in 12: no
        # function is drawn, and the run gives up with the cap error
        net = parse(f"@inputs {' '.join(inputs)}\n" + "".join(
            f"{name} = {' AND '.join(inputs[:k + 1])}\n" for k, name in enumerate(names)))
        for mode in ("random-topology-random", "random-topology-unate"):
            with pytest.raises(ArityCapError, match="gave up after 1001"):
                baseline_curves(net, BaselineSpec(mode, 1, 4),
                                ProductDist.uniform(len(net.inputs)), L=1, cap=10)
        assert drawn == []
        rng = np.random.default_rng(1)
        defs = analysis._random_topology_local(inputs, names, rng, cap=12)
        ln = analysis._exchanged_local(inputs, defs, rng, unate=False)
        assert drawn == [12] * 8 and len(ln.nodes) == 8

    def test_random_topology_needs_enough_nodes(self):
        net = toy_network()  # 4 nodes < 8
        with pytest.raises(ValueError, match="out-degree"):
            baseline_curves(net, BaselineSpec("random-topology-random", 1, 1),
                            ProductDist.uniform(4), L=1)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            BaselineSpec("exchange-random", trials=0, seed=1)
        with pytest.raises(ValueError):
            BaselineSpec("bogus", trials=1, seed=1)


class TestSinglePass:
    """Each network is transformed once: ``sign_rows`` runs once per distinct
    collapsed arity, over every node once, for an ``analyze`` and for each
    baseline trial, however many analyses read the spectra."""

    @staticmethod
    def count_sign_rows(monkeypatch) -> list[int]:
        calls = []
        real = analysis.sign_rows

        def sign_rows(tables, arity):
            calls.append(len(tables))
            return real(tables, arity)

        monkeypatch.setattr(analysis, "sign_rows", sign_rows)
        return calls

    def test_analyze(self, monkeypatch, tmp_path, capsys):
        calls = self.count_sign_rows(monkeypatch)
        path = tmp_path / "net.bnet"
        path.write_text(netlang.to_text(toy_network()) + "n5 = c OR d\nn6 = b AND NOT d\n")
        assert main(["analyze", str(path), "--svg", "--out", str(tmp_path / "out")]) == 0
        c = collapse(parse(path.read_text()))
        assert len(calls) == len({node.fn.arity for node in c.nodes}) == 4
        assert sum(calls) == len(c.nodes) == 6
        # the histogram is read from the arity groups
        degrees = dict(sorted(Counter(node.fn.arity for node in c.nodes).items()))
        assert degrees == {0: 1, 1: 1, 2: 3, 3: 1}
        assert f"collapsed in-degree histogram: {degrees}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", BASELINE_MODES)
    def test_baseline_trials(self, monkeypatch, mode):
        calls = self.count_sign_rows(monkeypatch)
        arities, nodes = [], []
        real = analysis.collapse_local

        def collapse_local(ln, cap=None):
            c = real(ln, cap)
            arities.append(len({node.fn.arity for node in c.nodes}))
            nodes.append(len(c.nodes))
            return c

        monkeypatch.setattr(analysis, "collapse_local", collapse_local)
        text = "".join(f"y{k} = a AND (b OR NOT c)\n" for k in range(8))
        baseline_curves(parse(text), BaselineSpec(mode, trials=2, seed=5), ProductDist.uniform(3))
        assert len(arities) == 2
        assert len(calls) == sum(arities)
        assert sum(calls) == sum(nodes)


@pytest.mark.parametrize("mode", BASELINE_MODES)
def test_trials_build_no_boolfn(monkeypatch, mode):
    """A trial carries every node as input ranks and a packed table: the
    random modes construct no ``BoolFn``, and the unate modes one per node,
    the one ``sample_random_unate`` draws."""
    net = parse(netlang.to_text(toy_network()) + "n5 = n1 OR d\nn6 = n2 AND n3\n"
                "n7 = d\nn8 = NOT n5 AND c\n")
    built = []
    real = BoolFn.__post_init__

    def post_init(self):
        built.append(self.arity)
        real(self)

    monkeypatch.setattr(BoolFn, "__post_init__", post_init)
    baseline_curves(net, BaselineSpec(mode, trials=3, seed=5), ProductDist.uniform(4))
    assert len(built) == (3 * len(net.defs) if mode.endswith("unate") else 0)


def test_spectra_compare_and_hash_by_identity():
    # a coefficient array has no truth value, so equality goes by identity
    c = collapse(toy_network())
    d = ProductDist.uniform(len(c.inputs))
    f = c.nodes[1].fn
    s = transform(f, d.marginal(range(f.arity)))
    ns = node_spectra(c, d)
    assert s == s and ns == ns
    assert s != transform(f, s.d)
    assert ns != node_spectra(c, d)
    assert len({s, ns, s}) == 2
