"""Determinative power, uncertainty curves, scatter, and baselines."""

from collections import Counter

import numpy as np
import pytest

from bnspectral import analysis, measures, netlang
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
    entropy_bounds,
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
from bnspectral.sampling import random_rows

from conftest import (
    LocalNode,
    assert_same_blocks,
    local_network,
    local_nodes,
    netgen,
    per_table_draws,
    random_network,
    random_product_dist,
    random_topology_oracle,
    to_text,
)


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

    def test_negative_mi_beyond_tolerance_raises(self, monkeypatch):
        # the kernel keeps MI >= 0 by concavity, so the guard is reached
        # through stand-in kernels: H(f) = 0, and H(f | x_i) = 1e-6 for every i
        spectra = node_spectra(collapse(parse("y = a AND b\n")), ProductDist.uniform(2))
        monkeypatch.setattr(analysis, "_entropy_of_expectations", lambda cond: np.zeros(cond.shape))
        monkeypatch.setattr(analysis, "_entropy_given", lambda sub, ranks, d: np.full(len(sub), 1e-6))
        with pytest.raises(ValueError) as err:
            determinative_power(spectra)
        assert str(err.value) == "mutual information -1e-06 below zero beyond tolerance"


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


def test_scatter_is_the_per_node_spectral_sum_bit_for_bit():
    """On the seed-1 netgen network, under the uniform distribution as the
    ecoli-synth workload analyses it and under a seed-0 random biased one,
    every scatter row's average sensitivity is ``avg_sensitivity_spectral``
    of that node's own spectrum, to the bit: both are
    ``measures._sensitivity_sum`` with weights from ``ProductDist.inv_var``.
    (When one side took 1/sigma_i^2 from NumPy scalars, whose squares differ
    from an array's in the last bit for about 0.1% of probabilities, 4 of
    the biased rows differed.)"""
    c = collapse(parse(netgen().generate(1)))
    n = len(c.inputs)
    for d in ProductDist.uniform(n), random_product_dist(np.random.default_rng(0), n):
        records = sensitivity_scatter(node_spectra(c, d))
        assert len(records) == len(c.nodes) > 600
        for rec, (node, _, spec) in zip(records, _per_node(c, d)):
            assert rec.name == node.name
            assert rec.avg_sensitivity.hex() == avg_sensitivity_spectral(spec).hex()


def test_determinative_power_is_the_per_node_mi_sum_bit_for_bit():
    """On the seed-1 netgen network, every D(j) is its nodes' own
    ``mutual_information`` on their singletons, added left to right in
    definition order, to the bit: both are rows of
    ``measures._entropy_given``, and a one-input node takes the zero rule.
    (A hand-expanded E[f | x_i] = c_0 + c_i phi_i(x_i) differed in 48 of 150
    totals under the uniform(0.1, 0.9) draw; without the zero rule, 6 totals
    differed under the seed-0 draw.)"""
    c = collapse(parse(netgen().generate(1)))
    n = len(c.inputs)
    for d in (ProductDist.uniform(n),
              ProductDist(tuple(np.random.default_rng(2).uniform(0.1, 0.9, n))),
              random_product_dist(np.random.default_rng(0), n)):
        want = [0.0] * n
        for node, _, spec in _per_node(c, d):
            mi = mutual_information(spec, [1 << t for t in range(len(node.support))])
            for r, v in zip(node.support, mi.tolist()):
                want[r] += v
        got = determinative_power(node_spectra(c, d)).d_values
        assert [got[name].hex() for name in c.inputs] == [v.hex() for v in want]


def test_one_input_nodes_take_the_zero_rule():
    """A node of one input is known given it, so its D is H(f) with the bits
    of ``mutual_information``: the row kernel on (c_0, c_1) leaves float
    noise in H(f | x) for 32 of these 400 probabilities."""
    c = collapse(parse("y = x\nz = NOT x\n"))
    for p in np.random.default_rng(5).uniform(0.01, 0.99, 400).tolist():
        d = ProductDist((p,))
        want = 0.0
        for node in c.nodes:
            want += mutual_information(transform(node.fn, d), 1)
        assert determinative_power(node_spectra(c, d)).d_values["x"].hex() == want.hex()


def test_uncertainty_curve_ends_at_exactly_zero():
    """Once every input is known, every node is known: A(L) is 0.0, not the
    float noise of the entropy of a node's full table (3.1e-12 at p = 0.3
    on this network, when those tables were summed)."""
    c = collapse(parse(netgen().generate(1)))
    n = len(c.inputs)
    for d in ProductDist((0.3,) * n), random_product_dist(np.random.default_rng(0), n):
        s = node_spectra(c, d)
        assert uncertainty_curve(s, determinative_power(s).tau).values[-1] == 0.0


def test_uncertainty_curve_adds_node_entropies_left_to_right():
    """On the seed-1 netgen network, every A(l) equals the per-node
    conditional entropies (``entropy_bounds(...).exact``, zero rule
    included) added one at a time in definition order, under ``==``.
    Builtin ``sum`` adds floats with compensation from Python 3.12 on, and
    gives other last bits for most lists of this length."""
    c = collapse(parse(netgen().generate(1)))
    n = len(c.inputs)
    for d in ProductDist.uniform(n), random_product_dist(np.random.default_rng(2), n):
        s = node_spectra(c, d)
        order = determinative_power(s).tau
        curve = uncertainty_curve(s, order).values
        setup = list(_per_node(c, d))
        masks = [0] * len(setup)
        h = [entropy_bounds(spec, 0).exact for _, _, spec in setup]
        for l in range(n + 1):
            if l:
                for i, (node, _, spec) in enumerate(setup):
                    if order[l - 1] in node.inputs:
                        masks[i] |= 1 << node.inputs.index(order[l - 1])
                        h[i] = entropy_bounds(spec, masks[i]).exact
            total = 0.0
            for v in h:
                total += v
            assert curve[l] == total, l


@pytest.mark.parametrize("mode", BASELINE_MODES)
def test_trial_rankings_and_curves_are_the_per_node_sums_bit_for_bit(mode):
    """On a baseline trial network of each mode, built from the seed-1
    netgen network under a biased distribution, every D(j) is the per-node
    ``mutual_information`` sum and every A(l), l <= 40, the per-node
    ``entropy_bounds(...).exact`` added left to right in definition order,
    to the bit.  Random-topology trials have unfed (arity-0) nodes."""
    net = parse(netgen().generate(1))
    n = len(net.inputs)
    d = ProductDist(tuple(np.random.default_rng(4).uniform(0.1, 0.9, n)))
    rng = np.random.default_rng(7)
    names = tuple(name for name, _ in net.defs)
    if mode.startswith("exchange"):
        rows = random_rows(np.array([len(args) for args in net.args]), rng, mode.endswith("unate"))
        c = netlang.collapse_local(netlang.LocalNetwork(net.program, rows))
    else:
        c = analysis._random_topology(net.inputs, names, rng, mode.endswith("unate"))
        assert c.blocks[0][0] == 0
    s = node_spectra(c, d)
    ranking = determinative_power(s)
    setup = list(_per_node(c, d))
    want = [0.0] * n
    for node, _, spec in setup:
        mi = mutual_information(spec, [1 << t for t in range(len(node.support))])
        for r, v in zip(node.support, mi.tolist()):
            want[r] += v
    assert [ranking.d_values[name].hex() for name in c.inputs] == [v.hex() for v in want]
    order = ranking.tau
    curve = uncertainty_curve(s, order, 40).values
    masks = [0] * len(setup)
    h = [entropy_bounds(spec, 0).exact for _, _, spec in setup]
    for l in range(41):
        if l:
            for i, (node, _, spec) in enumerate(setup):
                if order[l - 1] in node.inputs:
                    masks[i] |= 1 << node.inputs.index(order[l - 1])
                    h[i] = entropy_bounds(spec, masks[i]).exact
        total = 0.0
        for v in h:
            total += v
        assert curve[l] == total, l


@pytest.mark.parametrize("unate", [False, True], ids=["random", "unate"])
def test_random_topology_trials_are_the_per_node_collapse_bit_for_bit(unate):
    """An array-built random-topology trial has the blocks of
    ``collapse_local`` on the trial built per node from the same seed
    (``random_topology_oracle``), under ``np.array_equal`` with dtypes, and
    leaves the generator where that build left it.  30 seeds on the seed-1
    netgen network, each with unfed nodes; for plain tables, 30 more on a
    dense wiring whose tables span up to 128 words of ``rng.bytes``."""
    net = parse(netgen().generate(1))
    wirings = [(net.inputs, tuple(name for name, _ in net.defs))]
    if not unate:
        wirings.append((tuple(f"x{r}" for r in range(12)), tuple(f"y{i}" for i in range(10))))
    arities = []
    for inputs, names in wirings:
        for seed in range(30):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            trial = random_topology_oracle(inputs, names, twin, unate)
            assert_same_blocks(analysis._random_topology(inputs, names, rng, unate),
                               netlang.collapse_local(trial))
            assert rng.integers(1 << 62) == twin.integers(1 << 62)
            arities.append([len(node.args) for node in local_nodes(trial)])
    assert all(0 in a for a in arities[:30])  # unfed nodes on the netgen wiring
    assert max(map(max, arities)) >= (12 if not unate else 6)


def test_uncertainty_curve_sums_wide_nodes_in_blocks(monkeypatch):
    """Two nodes over 17 and 16 inputs, more than ENTROPY_BLOCK_BITS: A(l)
    takes the blocked rows of ``_expected_entropy``, whose weight tables
    never exceed one block, and matches the per-node entropies.  Both nodes
    are summed at j = 15 inputs known (the j = k entropy is never summed),
    so one blocked batch holds two rows."""
    rng = np.random.default_rng(31)
    inputs = tuple(f"x{r}" for r in range(18))
    args = (inputs[:17], tuple(rng.permutation(inputs[2:]).tolist()))
    nodes = tuple(LocalNode(f"y{i}", a, t)
                  for i, (a, t) in enumerate(zip(args, per_table_draws([17, 16], rng))))
    c = netlang.collapse_local(local_network(inputs, nodes))
    assert [len(node.support) for node in c.nodes] == [17, 16]
    d = random_product_dist(rng, len(inputs))
    order = [str(name) for name in rng.permutation(inputs)]
    setup = list(_per_node(c, d))
    masks = [0] * len(setup)
    want = [sum(cond_entropy_spectral(spec, sub, 0) for _, sub, spec in setup)]
    for name in order:
        for i, (node, _, _) in enumerate(setup):
            if name in node.inputs:
                masks[i] |= 1 << node.inputs.index(name)
        want.append(sum(cond_entropy_spectral(spec, sub, m)
                        for (_, sub, spec), m in zip(setup, masks)))
    s = node_spectra(c, d)

    shapes = []

    def weights(p):
        out = real(p)
        shapes.append(out.shape)
        return out

    real = measures._product_weights
    monkeypatch.setattr(measures, "_product_weights", weights)
    got = uncertainty_curve(s, order).values
    assert np.max(np.abs(np.array(got) - want)) < 1e-12
    assert (2, 1 << measures.ENTROPY_BLOCK_BITS) in shapes  # both nodes, one batch
    assert max(shape[-1] for shape in shapes) == 1 << measures.ENTROPY_BLOCK_BITS


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

    def test_exchange_preserves_in_degree(self, monkeypatch):
        """An exchange trial runs the network's own compiled wiring, with
        one new table per definition, of its argument count."""
        net = toy_network()
        ln = localize(net)
        trials = []

        def spy(trial, cap=None):
            trials.append(trial)
            return netlang.collapse_local(trial, cap)

        monkeypatch.setattr(analysis, "collapse_local", spy)
        for mode in ("exchange-random", "exchange-unate"):
            baseline_curves(net, BaselineSpec(mode, 2, 2), ProductDist.uniform(4))
        assert len(trials) == 4
        for trial in trials:
            assert trial.program is ln.program
            assert {k: rows.shape for k, rows in trial.rows.items()} == {
                k: rows.shape for k, rows in ln.rows.items()}
            assert all(rows.dtype == np.uint8 and rows.max(initial=0) <= 1
                       for rows in trial.rows.values())

    def test_random_topology_out_degree(self, monkeypatch):
        """Every input feeds 8 distinct nodes.  Parity tables depend on
        every input they read, so the collapsed supports are the fan-in
        sets; the order of a node's inputs is checked against the per-node
        build in ``test_random_topology_trials_are_the_per_node_collapse_bit_for_bit``."""
        def parities(arities, rng, unate=False):
            rows = random_rows(arities, rng, unate)
            return {k: np.tile(BoolFn.from_callable(k, lambda x: np.prod(x)).bits, (len(r), 1))
                    for k, r in rows.items()}

        monkeypatch.setattr(analysis, "random_rows", parities)
        inputs = tuple(f"i{k}" for k in range(5))
        names = tuple(f"y{k}" for k in range(20))
        c = analysis._random_topology(inputs, names, np.random.default_rng(2), unate=False)
        assert c.names == names
        counts = Counter(r for support in c.supports for r in support)
        assert counts == {r: 8 for r in range(len(inputs))}
        assert any(not support for support in c.supports)  # an unfed node

    def test_random_topology_checks_cap_before_sampling(self, monkeypatch):
        drawn = []

        def rows(arities, rng, unate=False):
            drawn.extend(arities.tolist())
            return random_rows(arities, rng, unate)

        monkeypatch.setattr(analysis, "random_rows", rows)
        inputs = tuple(f"i{k}" for k in range(12))
        names = tuple(f"y{k}" for k in range(8))
        for unate in (False, True):
            with pytest.raises(ArityCapError) as err:
                analysis._random_topology(inputs, names, np.random.default_rng(1), unate, cap=10)
            assert (err.value.name, err.value.arity) == ("y0", 12)
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
        c = analysis._random_topology(inputs, names, np.random.default_rng(1), False, cap=12)
        assert drawn == [12] * 8 and len(c.names) == 8

    @pytest.mark.parametrize("mode", BASELINE_MODES)
    def test_bad_L_and_distribution_refused_before_any_draw(self, monkeypatch, mode):
        """A bad L, or a distribution of another arity, is refused before
        the first trial: spies on every sampler and collapse see no call."""
        seen = []

        def spy(name):
            real = getattr(analysis, name)
            monkeypatch.setattr(analysis, name,
                                lambda *args, **kwargs: seen.append(name) or real(*args, **kwargs))

        for name in ("random_rows", "_random_topology", "collapse_local", "_prune"):
            spy(name)
        net = parse("a = x AND y\nb = a OR z\n" + "".join(f"c{k} = x OR NOT z\n" for k in range(6)))
        with pytest.raises(ValueError, match=r"^L = 5 outside 0\.\.3, the ordered inputs$"):
            baseline_curves(net, BaselineSpec(mode, 2, 1), ProductDist.uniform(3), L=5)
        with pytest.raises(ValueError, match="^distribution covers 4 inputs, network declares 3$"):
            baseline_curves(net, BaselineSpec(mode, 2, 1), ProductDist.uniform(4))
        assert seen == []
        baseline_curves(net, BaselineSpec(mode, 1, 1), ProductDist.uniform(3), L=3)
        assert seen  # the spies are on the path a trial takes

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
    """Each network is transformed once: ``kron_apply`` runs once per
    collapsed block, over every node once, for an ``analyze`` and for each
    baseline trial, however many analyses read the spectra."""

    @staticmethod
    def count_transforms(monkeypatch) -> list[int]:
        calls = []
        real = analysis.kron_apply

        def kron_apply(signs, mats):
            calls.append(len(signs))
            return real(signs, mats)

        monkeypatch.setattr(analysis, "kron_apply", kron_apply)
        return calls

    def test_analyze(self, monkeypatch, tmp_path, capsys):
        calls = self.count_transforms(monkeypatch)
        path = tmp_path / "net.bnet"
        path.write_text(to_text(toy_network()) + "n5 = c OR d\nn6 = b AND NOT d\n")
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
        calls = self.count_transforms(monkeypatch)
        arities, nodes = [], []
        real = analysis.node_spectra

        def node_spectra(c, d):
            arities.append(len({node.fn.arity for node in c.nodes}))
            nodes.append(len(c.nodes))
            return real(c, d)

        monkeypatch.setattr(analysis, "node_spectra", node_spectra)
        text = "".join(f"y{k} = a AND (b OR NOT c)\n" for k in range(8))
        baseline_curves(parse(text), BaselineSpec(mode, trials=2, seed=5), ProductDist.uniform(3))
        assert len(arities) == 2
        assert len(calls) == sum(arities)
        assert sum(calls) == sum(nodes)


@pytest.mark.parametrize("mode", BASELINE_MODES)
def test_trials_build_no_boolfn(monkeypatch, mode):
    """A trial carries every node as input ranks and a packed table, and
    both samplers draw packed tables: no mode constructs a ``BoolFn``."""
    net = parse(to_text(toy_network()) + "n5 = n1 OR d\nn6 = n2 AND n3\n"
                "n7 = d\nn8 = NOT n5 AND c\n")
    built = []
    real = BoolFn.__post_init__

    def post_init(self):
        built.append(self.arity)
        real(self)

    monkeypatch.setattr(BoolFn, "__post_init__", post_init)
    baseline_curves(net, BaselineSpec(mode, trials=3, seed=5), ProductDist.uniform(4))
    assert built == []


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
