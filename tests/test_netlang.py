"""DSL parsing, network validation, and collapse."""

import copy
import hashlib
import re
import sys
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnspectral import analysis, netlang
from bnspectral.analysis import _random_topology
from bnspectral.boolfn import (
    HELD_MASKS_MAX_ARITY,
    ArityCapError,
    BoolFn,
    ProductDist,
    _subset_index,
    default_labels,
    evaluate,
    relevant_variables,
)
from bnspectral.netlang import (
    COMPILED_MAX_SUPPORT,
    KEYWORDS,
    MAX_NESTING,
    PUNCTUATION,
    And,
    CollapsedNetwork,
    CollapsedNode,
    Const,
    Expr,
    LocalNetwork,
    NetParseError,
    Network,
    Not,
    Or,
    Var,
    _Token,
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
)
from bnspectral.reference import _eval_expr_bits, evaluate_assignment, node_tables
from bnspectral.sampling import random_rows, sample_random_function

from conftest import (
    LocalNode,
    assert_same_blocks,
    exchange_oracle,
    local_network,
    local_nodes,
    netgen,
    random_network,
    random_topology_oracle,
    to_text,
)

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

    @pytest.mark.parametrize("space", ["\u00a0", "\u2003"], ids=["NBSP", "em space"])
    def test_inputs_header_before_any_whitespace(self, space):
        net = parse(f"@inputs{space}b a\ny = a AND b\n")
        assert net.inputs == ("b", "a")

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    @pytest.mark.parametrize("sep", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                     "\u2029"])
    def test_only_line_ends_count_lines(self, sep, end):
        # a separator that str.splitlines would cut at is whitespace here
        with pytest.raises(NetParseError) as err:
            parse(f"a = x{sep}{end}b = (y{end}")
        assert str(err.value) == "line 2, col 5: missing closing parenthesis"

    @pytest.mark.parametrize("text, message", [
        ("@inputs a (\n", "line 1, col 11: only names may follow @inputs"),
        ("  @inputs a a\n", "line 1, col 13: input 'a' declared twice"),
        ("@inputs=x\n", "line 1, col 8: only names may follow @inputs"),
    ], ids=["parenthesis", "indented repeat", "equals sign"])
    def test_inputs_header_errors_count_columns_from_the_line_start(self, text, message):
        with pytest.raises(NetParseError) as err:
            parse(text)
        assert str(err.value) == message

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
    for node in local_nodes(ln):
        terms = []
        minterms = [b for b in range(1 << len(node.args)) if node.table >> b & 1]
        for b in minterms:
            lits = [Var(a) if (b >> j) & 1 else Not(Var(a)) for j, a in enumerate(node.args)]
            terms.append(lits[0] if len(lits) == 1 else And(tuple(lits)))
        if not terms or len(terms) == 1 << len(node.args):
            defs.append((node.name, Const(1 if terms else -1)))
        else:
            defs.append((node.name, terms[0] if len(terms) == 1 else Or(tuple(terms))))
    return Network(ln.program.inputs, tuple(defs))


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
                # the trial of baseline_curves, against the one built per node
                twin = copy.deepcopy(rng)
                arities = np.array([len(args) for args in net.args])
                trial = LocalNetwork(net.program, random_rows(arities, rng, unate))
                assert local_nodes(trial) == local_nodes(exchange_oracle(net, twin, unate))
                assert rng.integers(1 << 62) == twin.integers(1 << 62)
            else:
                names = tuple(n.name for n in local_nodes(ln))
                monkeypatch.setattr(analysis, "RANDOM_TOPOLOGY_OUT_DEGREE", min(2, len(names)))
                twin = copy.deepcopy(rng)
                trial = random_topology_oracle(ln.program.inputs, names, twin, unate)
                assert_same_blocks(_random_topology(ln.program.inputs, names, rng, unate),
                                   collapse_local(trial))
                assert rng.integers(1 << 62) == twin.integers(1 << 62)
            c = collapse_local(trial)
            assert_collapses_as_oracle(c, trial)
            assert_matches_node_tables(c, as_network(trial))
            support = {name: {name} for name in trial.program.inputs}
            for local, node in zip(local_nodes(trial), c.nodes):
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
        assert ln.program.args == (("a", "b"), ("y", "c"))
        assert sorted(ln.rows) == [2]

    def test_local_tables(self):
        ln = localize(parse("y = NOT a\nz = a AND b\nw = b\n"))
        assert ln.rows[1].tolist() == [[1, 0], [0, 1]]
        assert ln.rows[2].tolist() == [[0, 0, 0, 1]]
        assert all(rows.dtype == np.uint8 for rows in ln.rows.values())

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


def localize_columns(net: Network) -> tuple[LocalNode, ...]:
    """Each definition evaluated on NumPy 0/1 columns of its arguments."""
    nodes = []
    for name, expr in net.defs:
        args = references(expr)
        idx = np.arange(1 << len(args), dtype=np.int64)
        columns = {a: ((idx >> j) & 1).astype(np.uint8) for j, a in enumerate(args)}
        bits = _eval_expr_bits(expr, columns, len(idx))
        nodes.append(LocalNode(name, args, BoolFn.from_bit_array(bits, args).table))
    return tuple(nodes)


def collapse_local_spread(ln: LocalNetwork) -> tuple[CollapsedNode, ...]:
    """Each argument's table spread over the node's support with
    ``np.broadcast_to`` and packed into an index, one argument at a time;
    one node record per definition."""
    rank = {name: i for i, name in enumerate(ln.program.inputs)}
    memo = {name: ((name,), np.arange(2, dtype=np.uint8)) for name in ln.program.inputs}
    nodes = []
    for node in local_nodes(ln):
        support = tuple(sorted({s for a in node.args for s in memo[a][0]}, key=rank.__getitem__))
        node_idx = np.zeros(1 << len(support), dtype=np.int64)
        for j, a in enumerate(node.args):
            sub_support, sub_bits = memo[a]
            axes = [2 if s in sub_support else 1 for s in reversed(support)]
            col = np.broadcast_to(sub_bits.reshape(axes), (2,) * len(support))
            node_idx |= col.reshape(-1).astype(np.int64) << j
        # default labels, as an argument may be repeated
        bits = BoolFn(len(node.args), default_labels(len(node.args)), node.table).bits[node_idx]
        fn = BoolFn.from_bit_array(bits, support)
        rel = relevant_variables(fn)
        if rel != (1 << fn.arity) - 1:
            kept = [i for i in range(fn.arity) if (rel >> i) & 1]
            bits = bits[_subset_index(kept)]
            fn = BoolFn.from_bit_array(bits, [support[i] for i in kept])
        memo[node.name] = (fn.labels, bits)
        nodes.append(CollapsedNode(node.name, tuple(map(rank.__getitem__, fn.labels)),
                                   fn.table, ln.program.inputs))
    return tuple(nodes)


def assert_collapses_as_oracle(c: CollapsedNetwork, ln: LocalNetwork) -> None:
    """``c`` holds the oracle's nodes, as read-only blocks of ascending
    arity whose rows are node positions in definition order."""
    assert c.nodes == collapse_local_spread(ln)
    assert c.names == ln.program.names
    assert [k for k, *_ in c.blocks] == sorted({len(s) for s in c.supports})
    assert sorted(r for _, rows, _, _ in c.blocks for r in rows.tolist()) == list(
        range(len(c.names)))
    for k, rows, supports, bits in c.blocks:
        assert rows.dtype == supports.dtype == np.int64 and bits.dtype == np.uint8
        assert supports.shape == (len(rows), k) and bits.shape == (len(rows), 1 << k)
        assert np.all(np.diff(rows) > 0)
        assert not any(a.flags.writeable for a in (rows, supports, bits))


WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
LINE_PIECES = st.one_of(
    st.sampled_from(WHITESPACE + list("#()=")),
    st.sampled_from(["not", "NOT", "nOt", "And", "aNd", "OR", "oR", "oRx", "1", "True",
                     "glcn_xt>0", "leu-l_xt", "\u01f9ot"]),
    st.text(max_size=3),
)


# The parser class and the network parse that ``_parse_tokens`` and its
# set of known names replaced, with the constant names they used.
CONST_TRUE = {"1", "TRUE"}
CONST_FALSE = {"0", "FALSE"}


class ExprParser:
    def __init__(self, tokens: Sequence[_Token], lineno: int):
        self.tokens = list(tokens)
        self.pos = 0
        self.lineno = lineno
        self.depth = 0  # enclosing NOTs and parentheses

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise NetParseError("unexpected end of expression", self.lineno,
                                self.tokens[-1][3] if self.tokens else 1)
        self.pos += 1
        return tok

    def parse(self) -> Expr:
        expr = self.parse_or()
        tok = self.peek()
        if tok is not None:
            raise NetParseError(f"unexpected token {tok[1]!r}", tok[2], tok[3])
        return expr

    def parse_or(self) -> Expr:
        parts = [self.parse_and()]
        while self._at_keyword("OR"):
            self.next()
            parts.append(self.parse_and())
        if len(parts) == 1:
            return parts[0]
        # splice directly nested disjunctions so OR is flat n-ary
        flat: list[Expr] = []
        for p in parts:
            flat.extend(p.children if isinstance(p, Or) else [p])
        return Or(tuple(flat))

    def parse_and(self) -> Expr:
        parts = [self.parse_not()]
        while self._at_keyword("AND"):
            self.next()
            parts.append(self.parse_not())
        if len(parts) == 1:
            return parts[0]
        flat: list[Expr] = []
        for p in parts:
            flat.extend(p.children if isinstance(p, And) else [p])
        return And(tuple(flat))

    def parse_not(self) -> Expr:
        if self.depth > MAX_NESTING:
            _, _, line, col = self.tokens[self.pos - 1]  # the NOT or ( one level too deep
            raise NetParseError(f"NOTs and parentheses nested deeper than {MAX_NESTING}", line, col)
        self.depth += 1
        if self._at_keyword("NOT"):
            self.next()
            expr = Not(self.parse_not())
        else:
            expr = self.parse_atom()
        self.depth -= 1
        return expr

    def parse_atom(self) -> Expr:
        tok = self.next()
        kind, text, line, col = tok
        if kind == "(":
            expr = self.parse_or()
            closing = self.peek()
            if closing is None or closing[0] != ")":
                raise NetParseError("missing closing parenthesis", line, col)
            self.next()
            return expr
        if kind in KEYWORDS:
            raise NetParseError(f"keyword {text!r} cannot start an operand", line, col)
        if kind == "name":
            upper = text.upper()
            if upper in CONST_TRUE:
                return Const(1)
            if upper in CONST_FALSE:
                return Const(-1)
            return Var(text)
        raise NetParseError(f"unexpected token {text!r}", line, col)

    def _at_keyword(self, kw: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == kw


def parse_oracle(text: str) -> Network:
    """``parse`` as it was, on ``ExprParser``."""
    declared_inputs: list[str] = []
    raw_defs: list[tuple[str, Expr, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        header = re.match(r"\s*@inputs(?![^\s()=#])", line)
        if header:
            # the word blanked out, so columns count from the start of the line
            rest = " " * header.end() + line[header.end():]
            for tok in _tokenize_line(rest, lineno):
                if tok[0] in PUNCTUATION:
                    raise NetParseError("only names may follow @inputs", lineno, tok[3])
                if tok[1] in declared_inputs:
                    raise NetParseError(f"input {tok[1]!r} declared twice", lineno, tok[3])
                declared_inputs.append(tok[1])
            continue
        tokens = _tokenize_line(line, lineno)
        if len(tokens) < 2 or tokens[0][0] in PUNCTUATION or tokens[1][0] != "=":
            raise NetParseError("expected 'name = expr'", lineno,
                                tokens[0][3] if tokens else 1)
        name = tokens[0][1]
        if name.upper() in KEYWORDS | CONST_TRUE | CONST_FALSE:
            raise NetParseError(f"{name!r} is reserved", lineno, tokens[0][3])
        expr = ExprParser(tokens[2:], lineno).parse()
        raw_defs.append((name, expr, lineno))

    defined = {}
    for name, _, lineno in raw_defs:
        if name in defined:
            raise NetParseError(f"duplicate definition of {name!r}", lineno, 1)
        defined[name] = lineno
    for name in declared_inputs:
        if name in defined:
            raise NetParseError(f"{name!r} is both an input and a definition",
                                defined[name], 1)

    inputs: list[str] = list(declared_inputs)
    seen_defs: set[str] = set()
    for name, expr, lineno in raw_defs:
        for ref in references(expr):
            if ref in seen_defs or ref in inputs:
                continue
            if ref in defined:
                raise NetParseError(
                    f"{ref!r} used before its definition (cycle or forward reference)",
                    lineno, 1)
            if declared_inputs:
                raise NetParseError(f"undefined name {ref!r}", lineno, 1)
            inputs.append(ref)
        seen_defs.add(name)

    return Network(tuple(inputs), tuple((n, e) for n, e, _ in raw_defs))


ORACLE_NAMES = ["a", "b", "c", "x1", "glcn_xt>0", "f", "g", "tRUE", "0"]
ORACLE_LHS = ["f", "g", "h", "k", "m", "n", "f", "g", "h", "a", "True"]
ORACLE_PIECES = ORACLE_NAMES + ["NOT", "nOt", "AND", "aNd", "OR", "oR", "(", ")", "=", "#",
                                "@inputs"]


@st.composite
def run_lengths(draw, deep: bool):
    """A run length of NOTs or parentheses: 0 to 2, or when ``deep``,
    sometimes near the nesting limit or anywhere up to three times it."""
    k = draw(st.integers(0, 24))  # away from the ends, which hypothesis favours
    if deep and k == 11:
        return draw(st.integers(MAX_NESTING - 2, MAX_NESTING + 1))
    if deep and k == 12:
        return draw(st.integers(0, 3 * MAX_NESTING))
    return k % 3


@st.composite
def expr_tokens(draw, deep: bool, levels: int = 2):
    """Operands joined by mixed-case AND/OR, each behind a run of NOTs and
    sometimes inside a run of parentheses around a sub-expression."""
    tokens = []
    for i in range(draw(st.integers(1, 3))):
        if i:
            tokens.append(draw(st.sampled_from(["AND", "and", "aNd", "OR", "or", "Or"])))
        tokens += [draw(st.sampled_from(["NOT", "not", "nOt"]))] * draw(run_lengths(deep))
        parens = draw(run_lengths(deep)) if levels else 0
        if parens:
            tokens += ["("] * parens + draw(expr_tokens(deep, levels - 1)) + [")"] * parens
        else:
            tokens.append(draw(st.sampled_from(ORACLE_NAMES)))
    return tokens


@st.composite
def dsl_texts(draw):
    """Definitions over a few shared names, so some lines reference later or
    undefined ones, mixed with @inputs headers, token soups, a stray token
    dropped into a definition, comments and blank lines."""
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            tokens = ["@inputs"] + draw(st.lists(st.sampled_from(ORACLE_NAMES + ["("]),
                                                 max_size=4))
        elif kind == 1:
            tokens = draw(st.lists(st.sampled_from(ORACLE_PIECES), max_size=8))
        else:
            deep = draw(st.integers(0, 3)) == 1  # one definition in four
            tokens = [draw(st.sampled_from(ORACLE_LHS)), "="] + draw(expr_tokens(deep))
            if kind == 2:
                tokens.insert(draw(st.integers(0, len(tokens))),
                              draw(st.sampled_from(ORACLE_PIECES)))
        if draw(st.integers(0, 5)) == 0:
            tokens.append("# " + draw(st.sampled_from(ORACLE_PIECES)))
        lines.append(" ".join(tokens))
    return "\n".join(lines)


def parse_outcome(parser, text: str):
    """``repr`` of the network, or the error's message, line and column."""
    try:
        return repr(parser(text))
    except NetParseError as exc:
        return str(exc), exc.line, exc.col


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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=dsl_texts())
    def test_parse_matches_class_parser(self, text):
        assert parse_outcome(parse, text) == parse_outcome(parse_oracle, text)

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
            assert local_nodes(ln) == localize_columns(net)
            assert_collapses_as_oracle(collapse_local(ln), ln)
            nullary += sum(not node.args for node in local_nodes(ln))
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
        nodes.append(LocalNode(f"n{v}", args, sample_random_function(k, rng).table))
        names.append(f"n{v}")
    return local_network(inputs, tuple(nodes))


def assert_derived_attributes(c: CollapsedNetwork) -> None:
    """The input names and ``BoolFn`` a collapsed node builds when first
    read, as reports and the benchmark checks read them."""
    for node in c.nodes:
        assert node.inputs == tuple(c.inputs[r] for r in node.support)
        assert node.fn == BoolFn(len(node.support), node.inputs, node.table)


def union_sizes(ln: LocalNetwork, collapsed: Sequence[CollapsedNode]) -> dict[str, int]:
    """Per node, the number of inputs its arguments' pruned supports span,
    which the cap is judged on."""
    support = {name: {name} for name in ln.program.inputs}
    union = {}
    for node, done in zip(local_nodes(ln), collapsed):
        union[node.name] = len(set().union(*(support[a] for a in node.args)))
        support[node.name] = set(done.inputs)
    return union


def assert_cap_outcome(ln: LocalNetwork, want: Sequence[CollapsedNode], cap: int) -> str:
    """``collapse_local(ln, cap)`` gives the oracle's nodes, or refuses the
    first node, in definition order, whose arguments' pruned supports span
    more than the cap, with that span."""
    over = [(name, size) for name, size in union_sizes(ln, want).items() if size > cap]
    if not over:
        assert collapse_local(ln, cap).nodes == tuple(want)
        return "collapsed"
    with pytest.raises(ArityCapError) as err:
        collapse_local(ln, cap)
    assert (err.value.name, err.value.arity, err.value.cap) == (*over[0], cap)
    return "refused"


@st.composite
def local_networks(draw):
    """Up to 7 inputs and 8 nodes, each reading up to 4 inputs or earlier
    nodes, repeats allowed, with a random table, often a constant."""
    inputs = tuple(f"x{i}" for i in range(draw(st.integers(0, 7))))
    names, nodes = list(inputs), []
    for v in range(draw(st.integers(1, 8))):
        k = draw(st.integers(0, 4)) if names else 0
        args = tuple(draw(st.lists(st.sampled_from(names), min_size=k, max_size=k))) if k else ()
        full = (1 << (1 << k)) - 1
        table = draw(st.one_of(st.sampled_from([0, full]), st.integers(0, full)))
        nodes.append(LocalNode(f"n{v}", args, table))
        names.append(f"n{v}")
    return inputs, tuple(nodes)


class TestPackedCollapse:
    """A node whose unpruned support U spans at most
    ``COMPILED_MAX_SUPPORT`` inputs is collapsed by its network's compiled
    program; a wider one is gathered when the program runs, over its
    arguments' pruned supports.  The bound is lowered here so that small
    networks cross it."""

    def test_matches_oracles_across_switch(self, monkeypatch):
        monkeypatch.setattr(netlang, "COMPILED_MAX_SUPPORT", 4)
        rng = np.random.default_rng(47)
        edges = set()
        outcomes = {3: set(), 6: set()}  # caps below and above the bound
        for _ in range(30):
            ln = random_local_network(rng, int(rng.integers(1, 15)), 10, 6)
            want, got = collapse_local_spread(ln), collapse_local(ln)
            assert_collapses_as_oracle(got, ln)
            assert_matches_node_tables(got, as_network(ln))
            assert_derived_attributes(got)
            wide = {name for name, u in zip(ln.program.names, ln.program.u.tolist()) if u > 4}
            edges |= {(a in wide, node.name in wide)
                      for node in local_nodes(ln) for a in node.args if a.startswith("n")}
            for cap, seen in outcomes.items():
                seen.add(assert_cap_outcome(ln, want, cap))
        # a node that reads a wide node is wide
        assert edges == {(False, False), (False, True), (True, True)}
        assert all(seen == {"collapsed", "refused"} for seen in outcomes.values())

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(network=local_networks(), bound=st.integers(0, 5), cap=st.integers(0, 6))
    def test_hypothesis_networks(self, network, bound, cap):
        """Repeated arguments, constants, arguments that share inputs, nodes
        that prune to a constant, and nodes on both sides of the bound."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(netlang, "COMPILED_MAX_SUPPORT", bound)
            ln = local_network(*network)
            want = collapse_local_spread(ln)
            assert_collapses_as_oracle(collapse_local(ln), ln)
            assert_cap_outcome(ln, want, cap)

    def test_wide_supports(self, monkeypatch):
        """Nodes over ``COMPILED_MAX_SUPPORT`` and ``HELD_MASKS_MAX_ARITY``
        inputs, whose tables' masks are built when they are read, are
        gathered at run time: ``p``, ``w`` and ``q``, which is a0 XOR a2."""
        rng = np.random.default_rng(48)
        inputs = tuple(f"x{i}" for i in range(HELD_MASKS_MAX_ARITY + 2))
        thirds = [inputs[v::3] for v in range(3)]
        nodes = [LocalNode(f"a{v}", args, sample_random_function(len(args), rng).table)
                 for v, args in enumerate(thirds)]
        three = ("a0", "a1", "a2")
        wide = three + inputs[:4]
        nodes += [LocalNode("p", three, sample_random_function(3, rng).table),
                  LocalNode("w", wide, sample_random_function(len(wide), rng).table),
                  LocalNode("q", three, 0x5A)]  # a0 XOR a2
        ln = local_network(inputs, nodes)
        assert ln.program.u.tolist() == [6, 6, 6, 18, 18, 18]
        gathered = []
        real = netlang._wide_node
        monkeypatch.setattr(netlang, "_wide_node", lambda subs, support, table: (
            gathered.append(len(support)) or real(subs, support, table)))
        c = collapse_local(ln)
        assert_collapses_as_oracle(c, ln)
        assert_matches_node_tables(c, as_network(ln))
        assert_derived_attributes(c)
        assert [len(node.inputs) for node in c.nodes[3:]] == [len(inputs)] * 2 + [12]
        assert gathered == [18, 18, 18]  # q over all its arguments, then pruned to 12

    def test_cap_error_precedes_later_unknown_name(self):
        wide = tuple(f"x{i}" for i in range(4))
        ln = local_network(wide, (LocalNode("big", wide, 1 << 15),
                                  LocalNode("bad", ("ghost",), 0b01)))
        with pytest.raises(ArityCapError) as err:
            collapse_local(ln, cap=3)
        assert (err.value.name, err.value.arity) == ("big", 4)
        with pytest.raises(ValueError, match="node 'bad' references unknown name 'ghost'"):
            collapse_local(ln)

    def test_first_layer_forms(self, monkeypatch):
        """A node that reads inputs only runs in a depth-1 group of the
        program, which sorts its variables and drops none: with no
        arguments, nine unordered ones, irrelevant ones, or a repeated one
        (``rep``).  ``mixed`` and ``via``, which read nodes equal to an
        input or its negation, run at depth 2.  None is gathered at run time."""
        rng = np.random.default_rng(49)
        inputs = tuple(f"x{i}" for i in range(9))
        unordered = tuple(str(a) for a in rng.permutation(inputs))
        nodes = (LocalNode("rep", ("x1", "x0", "x1"), sample_random_function(3, rng).table),
                 LocalNode("none", (), 0b1),
                 LocalNode("wide", unordered, sample_random_function(len(inputs), rng).table),
                 LocalNode("cut", ("x5", "x2", "x4"), 0xF0),  # x4 alone
                 LocalNode("not0", ("x0",), 0b01),
                 LocalNode("mixed", ("x1", "x1", "not0"), 0x5A),  # x1 XOR NOT x0
                 LocalNode("id3", ("x3",), 0b10),
                 LocalNode("via", ("id3", "x2"), 0b0110))  # x2 XOR x3
        ln = local_network(inputs, nodes)
        monkeypatch.setattr(netlang, "_wide_node", None)
        c = collapse_local(ln)
        assert_collapses_as_oracle(c, ln)
        assert_matches_node_tables(c, as_network(ln))
        assert_derived_attributes(c)
        assert [node.inputs for node in c.nodes[3:]] == [
            ("x4",), ("x0",), ("x0", "x1"), ("x3",), ("x2", "x3")]
        # (k, nodes) per group in run order: depth 1 by |U| (none; not0 and
        # id3; rep; cut; wide), then depth 2 (via, then mixed)
        assert [(k, len(rows)) for k, rows, _, _ in ln.program.groups] == [
            (0, 1), (1, 2), (3, 1), (3, 1), (9, 1), (2, 1), (3, 1)]

    def test_cap_on_a_first_layer_node(self):
        """The cap is checked on a first-layer node's support before its
        table is pruned: ``big`` depends on x5 alone."""
        inputs = tuple(f"x{i}" for i in range(6))
        ln = local_network(inputs, (LocalNode("small", ("x1", "x0"), 0b0110),
                                    LocalNode("big", ("x5", "x2", "x0", "x3"), 0xAAAA),
                                    LocalNode("bigger", inputs[::-1], 1)))
        with pytest.raises(ArityCapError) as err:
            collapse_local(ln, cap=3)
        assert (err.value.name, err.value.arity, err.value.cap) == ("big", 4, 3)
        assert [node.inputs for node in collapse_local(ln).nodes[:2]] == [
            ("x0", "x1"), ("x5",)]

    @pytest.mark.parametrize("unate", [False, True], ids=["random", "unate"])
    def test_exchange_trials_are_the_packed_build(self, unate):
        """20 exchange trials on each of the seed-1..3 benchmark networks,
        drawn as ``baseline_curves`` draws them, into rows per argument
        count: the tables, and the blocks, of the trial built per node as
        packed tables from a twin generator, which is left where the trial
        left its own.  One trial per network is checked against the oracle."""
        for seed in (1, 2, 3):
            net = parse(netgen().generate(seed))
            arities = np.array([len(args) for args in net.args])
            rng = np.random.default_rng(seed)
            for t in range(20):
                twin = copy.deepcopy(rng)
                trial = LocalNetwork(net.program, random_rows(arities, rng, unate))
                packed = exchange_oracle(net, twin, unate)
                assert local_nodes(trial) == local_nodes(packed)
                assert rng.bit_generator.state == twin.bit_generator.state
                got = collapse_local(trial)
                assert_same_blocks(got, collapse_local(packed))
                if t == 0:
                    assert got.nodes == collapse_local_spread(packed)

    def test_netgen_network_and_its_trials(self, monkeypatch):
        """The seed-1 benchmark network of 150 inputs and 653 nodes, and 5
        baseline trials in each mode, collapse as the oracle does."""
        net = parse(netgen().generate(1))
        ln = localize(net)
        assert_collapses_as_oracle(collapse_local(ln), ln)
        trials = []

        def checked(trial, cap=None):
            got = collapse_local(trial, cap)
            assert_collapses_as_oracle(got, trial)
            trials.append(trial)
            return got

        def drawn(inputs, names, rng, unate, cap=None):
            # a random-topology trial is never a LocalNetwork: check its blocks
            # against the collapse of the one built per node from a twin generator
            twin = copy.deepcopy(rng)
            got = real(inputs, names, rng, unate, cap)
            assert_same_blocks(got, checked(random_topology_oracle(inputs, names, twin, unate), cap))
            return got

        real = analysis._random_topology
        monkeypatch.setattr(analysis, "collapse_local", checked)
        monkeypatch.setattr(analysis, "_random_topology", drawn)
        for mode in analysis.BASELINE_MODES:
            analysis.baseline_curves(net, analysis.BaselineSpec(mode, 5, 1),
                                     ProductDist.uniform(len(net.inputs)))
        assert len(trials) == 20


class TestBlocks:
    """Every form lands in its arity block with the bits the per-node
    collapse gave (recorded from it), whether the compiled program collapses
    it or, over a lowered bound, it is gathered at run time."""

    FORMS = (
        ("zero", (), 0x0),  # arity 0, constant -1
        ("one", (), 0x1),  # arity 0, constant +1
        ("cut0", ("x3", "x1"), 0xF),  # first layer, pruned to no variable
        ("cut1", ("x4", "x2"), 0xA),  # first layer, pruned to x4
        ("nine", ("x4", "x3", "x9", "x5", "x1", "x2", "x8", "x7", "x6"),
         0x5415B4772EF63F2465B69C54A0527336FC973612B036A37B441655A1A7841C6D
         << 256 | 0x6700E667034FC8438E3A5582F5AEA09E10A58C70ABD3B237A59CC4AA4756AF3F),
        ("id5", ("x5",), 0x2),  # equal to an input
        ("reader", ("id5", "x7", "x6"), 0x86),  # reads it
        ("rep", ("x8", "x8", "x9"), 0xDC),  # a repeated input
        ("wide", ("cut1", "nine", "x0", "x1", "x2", "x3", "x4"),
         0xFC0D00A24C4075A21C887F98FFF6EDF9),
    )
    WANT = (
        ("zero", (), 0x0),
        ("one", (), 0x1),
        ("cut0", (), 0x1),
        ("cut1", (4,), 0x2),
        ("nine", tuple(range(1, 10)),
         0x478D276E5CD00470BF8E831F7309AD676B95896FB3667A0922C56518D960C52B
         << 256 | 0x33F106FC1ECA276785C11FA96342039B41C90BD088E6BF3012F618B513FBD7B1),
        ("id5", (5,), 0x2),
        ("reader", (5, 6, 7), 0x92),
        ("rep", (8, 9), 0xE),
        ("wide", tuple(range(10)),
         0x93024EF683028EFF924B4CE7830B8CE7C2424EFFC3028CFE92028EE6C34A8EFE
         << 768 | 0x93424CF6C34A8EFEC2028EFF92438EE683034EF6930A8CE7D24A8EE7D30A8EEE
         << 512 | 0x82024CE683034CF782434EEF83028EFEC30A4EE682424EE693028EEF83024CEE
         << 256 | 0x930A4EE683424CE7C34B4EFFC2428CE782034CFF824B4CF682024CEED2024CE6),
    )

    def collapse_forms(self, monkeypatch) -> tuple[CollapsedNetwork, list[int]]:
        """The forms collapsed and checked against the oracle, and the
        support size of each node gathered at run time."""
        ln = local_network(tuple(f"x{i}" for i in range(10)),
                           tuple(LocalNode(*form) for form in self.FORMS))
        gathered = []
        real = netlang._wide_node
        monkeypatch.setattr(netlang, "_wide_node", lambda subs, support, table: (
            gathered.append(len(support)) or real(subs, support, table)))
        c = collapse_local(ln)
        assert_collapses_as_oracle(c, ln)
        assert_matches_node_tables(c, as_network(ln))
        assert [(n.name, n.support, n.table) for n in c.nodes] == list(self.WANT)
        return c, gathered

    def test_every_form_gathered_at_run_time(self, monkeypatch):
        """Over a bound of 8, nine (9 inputs) and wide (10: its argument
        cut1 is x4 alone) are gathered at run time, with the same bits."""
        monkeypatch.setattr(netlang, "COMPILED_MAX_SUPPORT", 8)
        assert self.collapse_forms(monkeypatch)[1] == [9, 10]

    def test_every_form(self, monkeypatch):
        c, gathered = self.collapse_forms(monkeypatch)
        assert gathered == []
        assert c.constants == (("zero", -1), ("one", 1), ("cut0", 1))
        assert [(k, rows.tolist()) for k, rows, _, _ in c.blocks] == [
            (0, [0, 1, 2]), (1, [3, 5]), (2, [7]), (3, [6]), (9, [4]), (10, [8])]
        assert c.supports == tuple(support for _, support, _ in self.WANT)

    def test_errors_come_in_definition_order(self):
        """A deeper node's error comes before a later first-layer node's,
        though first-layer nodes are collapsed first, and a node defined
        later is an unknown name even when it is a first-layer node."""
        inputs = tuple(f"x{i}" for i in range(4))
        over = LocalNode("over", inputs, 1)  # first layer, 4 inputs
        ln = local_network(inputs, (LocalNode("a", ("x0", "x1"), 0x6),
                                   LocalNode("b", ("a", "x2", "x3"), 0x96), over))
        with pytest.raises(ArityCapError) as err:
            collapse_local(ln, cap=3)
        assert (err.value.name, err.value.arity) == ("b", 4)
        ln = local_network(inputs, (LocalNode("d", ("later", "x0"), 0x6), over,
                                   LocalNode("later", ("x1",), 0b10)))
        with pytest.raises(ValueError, match="node 'd' references unknown name 'later'"):
            collapse_local(ln, cap=3)

    def test_netgen_blocks_keep_their_bits(self):
        """The blocks of the seed-1 benchmark network and of 3 baseline
        trials per mode hash as the per-node collapse's did, regrouped by
        arity in definition order.  Each trial's blocks are read where
        ``node_spectra`` takes them, as random-topology trials are built
        without ``collapse_local``."""
        digest = hashlib.sha256()
        real = analysis.node_spectra

        def hashed(c):
            for k, rows, supports, bits in c.blocks:
                for part in (repr(k).encode(), rows, supports, bits):
                    digest.update(part)
            return c

        net = parse(netgen().generate(1))
        hashed(collapse(net))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "node_spectra", lambda c, d: real(hashed(c), d))
            for mode in analysis.BASELINE_MODES:
                analysis.baseline_curves(net, analysis.BaselineSpec(mode, 3, 1),
                                         ProductDist.uniform(len(net.inputs)))
        assert digest.hexdigest() == (
            "1bd93975bcc3d27f99a8a9d216ff90e7ed828a2742bafb6f798e56cc36452974")


class TestPrune:
    """``netlang._prune`` against a per-row oracle built from
    ``relevant_variables`` and ``_subset_index``."""

    @staticmethod
    def oracle(ranks: np.ndarray, bits: np.ndarray) -> tuple[list[int], np.ndarray]:
        u = ranks.shape[0]
        table = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
        kept = [j for j in range(u) if relevant_variables(BoolFn(u, default_labels(u), table))
                >> j & 1]
        return ranks[kept].tolist(), bits[_subset_index(np.array(kept, dtype=np.int64))]

    def check(self, rows: np.ndarray, ranks: np.ndarray, bits: np.ndarray) -> None:
        pieces = list(netlang._prune(rows, ranks, bits))
        arities = [supports.shape[1] for _, supports, _ in pieces]
        assert arities == sorted(set(arities))  # one piece per output arity, ascending
        seen = []
        for got_rows, supports, got_bits in pieces:
            p = supports.shape[1]
            assert (got_rows.dtype, supports.dtype, got_bits.dtype) == (
                np.int64, np.int64, np.uint8)
            assert got_bits.shape == (len(got_rows), 1 << p)
            for r, support, row_bits in zip(got_rows.tolist(), supports, got_bits):
                i = rows.tolist().index(r)
                want_support, want_bits = self.oracle(ranks[i], bits[i])
                assert support.tolist() == want_support
                assert np.array_equal(row_bits, want_bits)
                seen.append(r)
        assert sorted(seen) == sorted(rows.tolist())  # every row exactly once

    @pytest.mark.parametrize("u", range(4))
    def test_every_table_of_arity(self, u):
        rng = np.random.default_rng(u)
        m = 1 << (1 << u)
        bits = ((np.arange(m)[:, None] >> np.arange(1 << u)) & 1).astype(np.uint8)
        ranks = np.sort(np.array([rng.choice(50, u, replace=False) for _ in range(m)],
                                 dtype=np.int64).reshape(m, u), axis=1)
        self.check(rng.permutation(m).astype(np.int64) + 7, ranks, bits)

    def test_planted_irrelevant_variables(self):
        """u = 13: each row a random table over a planted subset of the
        variables, read through the others, which it ignores."""
        rng = np.random.default_rng(13)
        u, m = 13, 12
        points = np.arange(1 << u)
        bits = np.empty((m, 1 << u), dtype=np.uint8)
        for i in range(m):
            kept = np.sort(rng.choice(u, size=[0, 1, 2, 5, 9, 13][i % 6], replace=False))
            compact = ((points[:, None] >> kept) & 1) @ (1 << np.arange(len(kept)))
            bits[i] = rng.integers(0, 2, 1 << len(kept), dtype=np.uint8)[compact]
        ranks = np.sort(np.array([rng.choice(40, u, replace=False) for _ in range(m)],
                                 dtype=np.int64), axis=1)
        self.check(np.arange(m, dtype=np.int64)[::-1].copy(), ranks, bits)
