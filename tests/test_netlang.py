"""DSL parsing, network validation, and collapse."""

import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnspectral import analysis
from bnspectral.analysis import _exchanged_local, _random_topology_local
from bnspectral.boolfn import (
    HELD_MASKS_MAX_ARITY,
    ArityCapError,
    BoolFn,
    ProductDist,
    _subset_index,
    evaluate,
    relevant_variables,
)
from bnspectral.netlang import (
    KEYWORDS,
    PACKED_MAX_ARGS,
    And,
    CollapsedNetwork,
    CollapsedNode,
    Const,
    LocalNetwork,
    LocalNode,
    NetParseError,
    Network,
    Not,
    Or,
    Var,
    _tokenize_line,
    collapse,
    collapse_local,
    collapsed_to_json,
    effective_inputs,
    localize,
    out_degree,
    parse,
    parse_expression,
    references,
    to_text,
)
from bnspectral.reference import _eval_expr_bits, evaluate_assignment, node_tables
from bnspectral.sampling import sample_random_function

from conftest import random_network

MARA_FRAGMENT = """\
arca = fnr AND NOT oxyr
mara = ((NOT arca OR NOT fnr) OR oxyr OR salicylate)
"""

# The fragment alone does not make mara constant: substituting arca leaves
# mara = NOT fnr OR oxyr OR salicylate.  The published simplification holds
# in the full network, where fnr never fires without oxyr; the closure
# below models that with a shared upstream oxygen input.
MARA_CLOSED = """\
fnr = NOT o2_xt
oxyr = NOT o2_xt
arca = fnr AND NOT oxyr
mara = ((NOT arca OR NOT fnr) OR oxyr OR salicylate)
"""


class TestParse:
    def test_simple(self):
        net = parse("y = x1 AND x2\n")
        assert net.inputs == ("x1", "x2")
        assert net.defs[0][0] == "y"
        assert net.defs[0][1] == And((Var("x1"), Var("x2")))

    def test_mara_fragment(self):
        net = parse(MARA_FRAGMENT)
        assert net.inputs == ("fnr", "oxyr", "salicylate")
        assert [n for n, _ in net.defs] == ["arca", "mara"]

    def test_cycle(self):
        with pytest.raises(NetParseError, match="cycle or forward reference"):
            parse("a = b\nb = a\n")

    def test_self_reference(self):
        with pytest.raises(NetParseError):
            parse("a = a OR b\n")

    def test_duplicate_definition(self):
        with pytest.raises(NetParseError, match="duplicate"):
            parse("a = x\na = y\n")

    def test_syntax_error_carries_position(self):
        with pytest.raises(NetParseError) as err:
            parse("a = x AND\n")
        assert err.value.line == 1

    def test_missing_paren(self):
        with pytest.raises(NetParseError, match="parenthesis"):
            parse("a = (x OR y\n")

    def test_missing_equals(self):
        with pytest.raises(NetParseError, match="name = expr"):
            parse("just some words\n")

    def test_glyph_identifiers_are_atoms(self):
        net = parse("y = glcn_xt>0 AND leu-l_xt\n")
        assert net.inputs == ("glcn_xt>0", "leu-l_xt")

    def test_comments_and_blank_lines(self):
        net = parse("# header\n\ny = a OR b  # trailing\n")
        assert net.inputs == ("a", "b")

    def test_constants(self):
        net = parse("y = 1\nz = FALSE OR x\n")
        assert net.defs[0][1] == Const(1)
        assert net.defs[1][1] == Or((Const(-1), Var("x")))

    def test_keywords_case_insensitive(self):
        net = parse("y = x1 and not x2 or x3\n")
        assert net.defs[0][1] == Or((And((Var("x1"), Not(Var("x2")))), Var("x3")))

    def test_reserved_lhs(self):
        with pytest.raises(NetParseError, match="reserved"):
            parse("not = x\n")

    def test_inputs_header_pins_order(self):
        net = parse("@inputs b a\ny = a AND b\n")
        assert net.inputs == ("b", "a")

    def test_inputs_header_rejects_unknown_names(self):
        with pytest.raises(NetParseError, match="undefined name"):
            parse("@inputs a\ny = a AND b\n")

    def test_inputs_header_allows_unused_input(self):
        net = parse("@inputs a b unused\ny = a AND b\n")
        assert "unused" in net.inputs

    def test_input_also_defined(self):
        with pytest.raises(NetParseError, match="both an input and a definition"):
            parse("@inputs y\ny = x\n")

    def test_operator_precedence(self):
        expr = parse_expression("NOT a AND b OR c")
        assert expr == Or((And((Not(Var("a")), Var("b"))), Var("c")))

    def test_nested_same_op_flattens(self):
        assert parse_expression("(a OR b) OR c") == parse_expression("a OR b OR c")
        assert parse_expression("(a AND b) AND c") == parse_expression("a AND b AND c")


class TestRoundTrip:
    def test_mara_round_trip(self):
        net = parse(MARA_FRAGMENT)
        assert parse(to_text(net)) == net

    def test_random_networks_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            net = parse(to_text(random_network(rng, max_inputs=6, max_nodes=8)))
            assert parse(to_text(net)) == net


class TestOutDegree:
    def test_dedup_within_definition(self):
        net = parse("y = x1 AND x1\n")
        assert out_degree(net, "x1") == 1

    def test_counts_referencing_definitions(self):
        net = parse("a = x\nb = x OR a\nc = NOT a\n")
        assert out_degree(net, "x") == 2
        assert out_degree(net, "a") == 2
        assert out_degree(net, "c") == 0

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            out_degree(parse("a = x\n"), "zzz")


class TestCollapse:
    def test_single_layer_identity(self):
        net = parse("y = x1 AND x2\n")
        c = collapse(net)
        assert c.nodes[0].inputs == ("x1", "x2")
        assert list(c.nodes[0].fn.bits) == [0, 0, 0, 1]

    def test_substitution_prunes(self):
        # z = (x1 AND x2) OR x1 = x1
        c = collapse(parse("y = x1 AND x2\nz = y OR x1\n"))
        z = c.nodes[1]
        assert z.inputs == ("x1",)
        assert list(z.fn.bits) == [0, 1]

    def test_mara_fragment_not_constant(self):
        # sound collapse of the bare fragment: mara = NOT fnr OR oxyr OR sal
        c = collapse(parse(MARA_FRAGMENT))
        mara = c.nodes[1]
        assert mara.inputs == ("fnr", "oxyr", "salicylate")
        assert c.constants == ()
        assert evaluate(mara.fn, (1, -1, -1)) == -1
        assert evaluate(mara.fn, (-1, -1, -1)) == 1

    def test_mara_closure_reproduces_constant(self):
        c = collapse(parse(MARA_CLOSED))
        assert ("mara", 1) in c.constants
        eff, non_eff = effective_inputs(c)
        assert "salicylate" in non_eff
        assert "o2_xt" in eff

    def test_constant_expression(self):
        c = collapse(parse("y = x OR NOT x\n"))
        assert c.constants == (("y", 1),)
        assert effective_inputs(c) == ((), ("x",))

    def test_cap_reports_node(self):
        net = parse("big = " + " AND ".join(f"v{i}" for i in range(6)) + "\n")
        with pytest.raises(ArityCapError) as err:
            collapse(net, cap=5)
        assert err.value.name == "big"
        assert err.value.arity == 6

    def test_collapsed_out_degree(self):
        c = collapse(parse("a = x AND y\nb = x OR z\n"))
        assert c.out_degree("x") == 2
        assert c.out_degree("z") == 1

    def test_all_inputs_effective(self):
        c = collapse(parse("a = x AND y\nb = y AND z\n"))
        assert effective_inputs(c) == (("x", "y", "z"), ())


def assert_matches_node_tables(c, net: Network) -> None:
    """Every collapsed node, read over the full input space, equals the
    layer-by-layer tabulation of ``net``."""
    tables = node_tables(net)
    rank = {name: i for i, name in enumerate(net.inputs)}
    idx = np.arange(1 << len(net.inputs), dtype=np.int64)
    for node in c.nodes:
        sub = np.zeros_like(idx)
        for j, name in enumerate(node.inputs):
            sub |= ((idx >> rank[name]) & 1) << j
        assert np.array_equal(node.fn.bits[sub], tables[node.name])


def as_network(ln: LocalNetwork) -> Network:
    """Each local table written as a disjunction of its minterms, so that
    ``node_tables`` can tabulate it independently of collapse."""
    defs = []
    for node in ln.nodes:
        terms = []
        for b in np.flatnonzero(node.fn.bits):
            lits = [Var(a) if (b >> j) & 1 else Not(Var(a)) for j, a in enumerate(node.args)]
            terms.append(lits[0] if len(lits) == 1 else And(tuple(lits)))
        if not terms or len(terms) == 1 << len(node.args):
            defs.append((node.name, Const(1 if terms else -1)))
        else:
            defs.append((node.name, terms[0] if len(terms) == 1 else Or(tuple(terms))))
    return Network(ln.inputs, tuple(defs))


class TestCollapseSoundness:
    def test_random_networks(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            net = random_network(rng, max_inputs=8, max_nodes=12, max_depth=4)
            assert_matches_node_tables(collapse(net), net)

    @pytest.mark.parametrize("mode", ["exchange-random", "exchange-unate",
                                      "random-topology-random", "random-topology-unate"])
    def test_baseline_trials(self, mode, monkeypatch):
        rng = np.random.default_rng(44)
        pruned = constants = 0
        for _ in range(25):
            net = random_network(rng, max_inputs=8, max_nodes=12, max_depth=4)
            ln = localize(net)
            unate = mode.endswith("unate")
            if mode.startswith("exchange"):
                trial = _exchanged_local(ln.inputs, [(n.name, n.args) for n in ln.nodes],
                                         rng, unate)
            else:
                names = tuple(n.name for n in ln.nodes)
                monkeypatch.setattr(analysis, "RANDOM_TOPOLOGY_OUT_DEGREE", min(2, len(names)))
                trial = _exchanged_local(ln.inputs, _random_topology_local(ln.inputs, names, rng),
                                         rng, unate)
            c = collapse_local(trial)
            assert c == collapse_local_spread(trial)
            assert_matches_node_tables(c, as_network(trial))
            support = {name: {name} for name in trial.inputs}
            for local, node in zip(trial.nodes, c.nodes):
                assert relevant_variables(node.fn) == (1 << node.fn.arity) - 1
                union = set().union(*(support[a] for a in local.args))
                pruned += len(node.inputs) < len(union)
                constants += node.fn.arity == 0
                support[node.name] = set(node.inputs)
        assert pruned and constants

    def test_no_irrelevant_variables_retained(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            net = random_network(rng, max_inputs=8, max_nodes=10)
            for node in collapse(net).nodes:
                assert relevant_variables(node.fn) == (1 << node.fn.arity) - 1

    def test_layerwise_evaluation_matches(self):
        net = parse(MARA_CLOSED)
        values = evaluate_assignment(net, {"o2_xt": 1, "salicylate": -1})
        assert values["mara"] == 1
        assert values["fnr"] == -1


class TestLocalize:
    def test_direct_arity(self):
        ln = localize(parse("y = a AND b AND a\nz = y OR c\n"))
        assert ln.nodes[0].args == ("a", "b")
        assert ln.nodes[1].args == ("y", "c")

    def test_local_tables(self):
        ln = localize(parse("y = NOT a\n"))
        assert list(ln.nodes[0].fn.bits) == [1, 0]

    def test_definitions_walked_once(self, monkeypatch):
        """Localizing and then running a baseline walk each definition at
        most once between them: both read ``Network.args``."""
        import bnspectral.netlang as netlang

        net = parse(to_text(random_network(np.random.default_rng(46), max_nodes=12)))
        walked = []

        def spy(expr):
            walked.append(id(expr))
            return references(expr)

        monkeypatch.setattr(netlang, "references", spy)
        monkeypatch.setattr(analysis, "references", spy, raising=False)
        localize(net)
        analysis.baseline_curves(net, analysis.BaselineSpec("exchange-random", 2, 0),
                                 ProductDist.uniform(len(net.inputs)))
        assert len(walked) == len(set(walked))


class TestJsonDump:
    def test_schema(self):
        payload = collapsed_to_json(collapse(parse(MARA_CLOSED)))
        assert payload["inputs"] == ["o2_xt", "salicylate"]
        assert payload["non_effective_inputs"] == ["salicylate"]
        names = [row["name"] for row in payload["nodes"]]
        assert names == ["fnr", "oxyr", "arca", "mara"]
        mara = payload["nodes"][-1]
        assert mara["inputs"] == []
        assert {"name": "mara", "value": 1} in payload["constants"]
        fnr = payload["nodes"][0]
        assert fnr["inputs"] == ["o2_xt"] and fnr["table_hex"] == "01"


# Oracles: the direct forms that the regex tokenizer, the packed-int
# localize and the single-gather collapse replaced.

def tokenize_walk(text: str, lineno: int) -> list[tuple[str, str, int, int]]:
    """Character walk; every run of name characters has the kind "name"."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "#":
            break
        if ch.isspace():
            i += 1
            continue
        if ch in "()=":
            tokens.append((ch, ch, lineno, i + 1))
            i += 1
            continue
        j = i
        while j < len(text) and not text[j].isspace() and text[j] not in "()=#":
            j += 1
        tokens.append(("name", text[i:j], lineno, i + 1))
        i = j
    return tokens


def localize_columns(net: Network) -> LocalNetwork:
    """Each definition evaluated on NumPy 0/1 columns of its arguments."""
    nodes = []
    for name, expr in net.defs:
        args = references(expr)
        idx = np.arange(1 << len(args), dtype=np.int64)
        columns = {a: ((idx >> j) & 1).astype(np.uint8) for j, a in enumerate(args)}
        bits = _eval_expr_bits(expr, columns, len(idx))
        nodes.append(LocalNode(name, args, BoolFn.from_bit_array(bits, args)))
    return LocalNetwork(net.inputs, tuple(nodes))


def collapse_local_spread(ln: LocalNetwork) -> CollapsedNetwork:
    """Each argument's table spread over the node's support with
    ``np.broadcast_to`` and packed into an index, one argument at a time."""
    rank = {name: i for i, name in enumerate(ln.inputs)}
    memo = {name: ((name,), np.arange(2, dtype=np.uint8)) for name in ln.inputs}
    nodes = []
    for node in ln.nodes:
        support = tuple(sorted({s for a in node.args for s in memo[a][0]}, key=rank.__getitem__))
        node_idx = np.zeros(1 << len(support), dtype=np.int64)
        for j, a in enumerate(node.args):
            sub_support, sub_bits = memo[a]
            axes = [2 if s in sub_support else 1 for s in reversed(support)]
            col = np.broadcast_to(sub_bits.reshape(axes), (2,) * len(support))
            node_idx |= col.reshape(-1).astype(np.int64) << j
        bits = node.fn.bits[node_idx]
        fn = BoolFn.from_bit_array(bits, support)
        rel = relevant_variables(fn)
        if rel != (1 << fn.arity) - 1:
            kept = [i for i in range(fn.arity) if (rel >> i) & 1]
            bits = bits[_subset_index(kept)]
            fn = BoolFn.from_bit_array(bits, [support[i] for i in kept])
        memo[node.name] = (fn.labels, bits)
        nodes.append(CollapsedNode(node.name, fn.labels, fn))
    return CollapsedNetwork(ln.inputs, tuple(nodes))


WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
LINE_PIECES = st.one_of(
    st.sampled_from(WHITESPACE + list("#()=")),
    st.sampled_from(["not", "NOT", "nOt", "And", "aNd", "OR", "oR", "oRx", "1", "True",
                     "glcn_xt>0", "leu-l_xt", "\u01f9ot"]),
    st.text(max_size=3),
)


class TestOracles:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=st.lists(LINE_PIECES, max_size=12).map("".join))
    def test_tokenizer_matches_walk(self, text):
        want = []
        for kind, tok, line, col in tokenize_walk(text, 7):
            if kind == "name" and tok.upper() in KEYWORDS:
                kind = tok.upper()
            want.append((kind, tok, line, col))
        assert _tokenize_line(text, 7) == want

    def test_regex_whitespace_is_isspace(self):
        space = re.compile(r"\s")
        assert all(bool(space.match(ch)) == ch.isspace()
                   for ch in map(chr, range(sys.maxunicode + 1)))

    def test_localize_and_collapse_match(self):
        rng = np.random.default_rng(45)
        nullary = constants = 0
        for _ in range(60):
            net = random_network(rng, max_inputs=8, max_nodes=12, max_depth=4)
            ln = localize(net)
            assert ln == localize_columns(net)
            assert collapse_local(ln) == collapse_local_spread(ln)
            nullary += sum(not node.args for node in ln.nodes)
            constants += sum("Const(" in repr(expr) for _, expr in net.defs)
        assert nullary and constants


def random_local_network(rng: np.random.Generator, n_inputs: int, n_nodes: int,
                         max_args: int) -> LocalNetwork:
    """Uniform random functions on random wiring: each node takes up to
    ``max_args`` distinct arguments among the inputs and earlier nodes."""
    inputs = tuple(f"x{i}" for i in range(n_inputs))
    names = list(inputs)
    nodes = []
    for v in range(n_nodes):
        k = int(rng.integers(0, min(max_args, len(names)) + 1))
        args = tuple(str(a) for a in rng.choice(names, size=k, replace=False))
        nodes.append(LocalNode(f"n{v}", args, sample_random_function(k, rng, args)))
        names.append(f"n{v}")
    return LocalNetwork(inputs, tuple(nodes))


class TestPackedCollapse:
    """Nodes of at most ``PACKED_MAX_ARGS`` arguments are composed on packed
    tables, wider ones by a gather; each kind feeds the other here."""

    def test_matches_oracles_across_switch(self):
        rng = np.random.default_rng(47)
        edges = set()
        outcomes = {6: set(), 10: set()}
        for _ in range(30):
            ln = random_local_network(rng, int(rng.integers(1, 15)), 10, PACKED_MAX_ARGS + 3)
            want = collapse_local_spread(ln)
            assert collapse_local(ln) == want
            assert_matches_node_tables(want, as_network(ln))
            wide = {node.name for node in ln.nodes if len(node.args) > PACKED_MAX_ARGS}
            edges |= {(a in wide, node.name in wide)
                      for node in ln.nodes for a in node.args if a.startswith("n")}
            support = {name: {name} for name in ln.inputs}
            union = {}
            for node, collapsed in zip(ln.nodes, want.nodes):
                union[node.name] = len(set().union(*(support[a] for a in node.args)))
                support[node.name] = set(collapsed.inputs)
            for cap in outcomes:
                over = [name for name, size in union.items() if size > cap]
                if not over:
                    assert collapse_local(ln, cap) == want
                    outcomes[cap].add("collapsed")
                    continue
                with pytest.raises(ArityCapError) as err:
                    collapse_local(ln, cap)
                assert (err.value.name, err.value.arity, err.value.cap) == (
                    over[0], union[over[0]], cap)
                outcomes[cap].add("refused")
        assert edges == {(False, False), (False, True), (True, False), (True, True)}
        assert all(seen == {"collapsed", "refused"} for seen in outcomes.values())

    def test_wide_supports(self):
        """Over ``HELD_MASKS_MAX_ARITY`` inputs each mask is built when it
        is read: spreading, both ways of composing, and compaction."""
        rng = np.random.default_rng(48)
        inputs = tuple(f"x{i}" for i in range(HELD_MASKS_MAX_ARITY + 2))
        thirds = [inputs[v::3] for v in range(3)]
        nodes = [LocalNode(f"a{v}", args, sample_random_function(len(args), rng, args))
                 for v, args in enumerate(thirds)]
        three = ("a0", "a1", "a2")
        wide = three + inputs[:PACKED_MAX_ARGS + 1 - len(three)]
        nodes += [LocalNode("p", three, sample_random_function(3, rng, three)),
                  LocalNode("w", wide, sample_random_function(len(wide), rng, wide)),
                  LocalNode("q", three, BoolFn(3, three, 0x5A))]  # a0 XOR a2
        ln = LocalNetwork(inputs, tuple(nodes))
        c = collapse_local(ln)
        assert c == collapse_local_spread(ln)
        assert_matches_node_tables(c, as_network(ln))
        assert [len(node.inputs) for node in c.nodes[3:]] == [len(inputs)] * 2 + [12]

    def test_cap_error_precedes_later_unknown_name(self):
        wide = tuple(f"x{i}" for i in range(4))
        ln = LocalNetwork(wide, (LocalNode("big", wide, BoolFn(4, wide, 1 << 15)),
                                 LocalNode("bad", ("ghost",), BoolFn(1, ("ghost",), 0b01))))
        with pytest.raises(ArityCapError) as err:
            collapse_local(ln, cap=3)
        assert (err.value.name, err.value.arity) == ("big", 4)
        with pytest.raises(ValueError, match="node 'bad' references unknown name 'ghost'"):
            collapse_local(ln)
