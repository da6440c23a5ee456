"""Feed-forward Boolean network DSL: parsing, validation, and collapse.

Grammar, one definition per line::

    name = expr
    expr := or_expr
    or_expr := and_expr (OR and_expr)*
    and_expr := not_expr (AND not_expr)*
    not_expr := NOT not_expr | atom
    atom := '(' expr ')' | identifier

``#`` starts a comment.  Identifiers are any run of characters excluding
whitespace and ``()=#``, so dataset names like ``glcn_xt>0`` or ``leu-l_xt``
are single atoms.  The keywords NOT/AND/OR (case-insensitive) are reserved,
as are the constants ``1``/``TRUE`` and ``0``/``FALSE``.  Names never
appearing on a left-hand side are inputs; an optional ``@inputs`` header,
a line whose first token is ``@inputs``, pins their order.  Definitions may
only reference inputs and previously defined nodes (no feedback).

Collapse re-expresses every node over the inputs, cut to the inputs it
depends on.  The first-layer nodes, those that read only distinct inputs,
are collapsed together per argument count on unpacked table rows: one
gather sorts their variables into ascending input order and one index per
relevant mask prunes them.  For any other node, each argument's table is
spread to the node's support and the node's table is applied to them as
the OR of its minterms on packed tables, with big-int operations only; over
``PACKED_MAX_ARGS`` arguments, by one broadcast gather on unpacked tables.
From ``localize`` on, a node is a packed Python-int table over its argument
names.  A collapsed network is one block per arity: node positions, input
ranks and table rows as arrays, which ``analysis.node_spectra`` transforms
as they are.  A random-topology baseline trial has no ``LocalNetwork``: its
drawn rows go straight to ``_first_layer`` and ``_blocks``.  Per-node
records, with input names and ``BoolFn``, are built on first read.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import chain, repeat
from typing import Mapping, Sequence

import numpy as np

from .boolfn import (
    ARITY_CAP_DEFAULT,
    BoolFn,
    _check_cap,
    _compact,
    _compose,
    _frozen,
    _low_masks,
    _pack_bits,
    _pack_rows,
    _relevant_mask,
    _spread,
    _subset_index,
    _unpack_tables,
    indices_of,
)

KEYWORDS = {"NOT", "AND", "OR"}
CONSTANTS = {"1": 1, "TRUE": 1, "0": -1, "FALSE": -1}  # upper-cased name: sign
# The most arguments of a node composed as the OR of its 2^k minterms on
# packed tables; above it one broadcast gather is cheaper (the measured
# crossover is in the "Collapse on packed truth tables" entry of CHANGES.md).
# Only a node that reads another node, or an input twice, reaches it: a
# first-layer node is collapsed in its block at any argument count.  No
# benchmark network has a definition of more than 6 arguments.
PACKED_MAX_ARGS = 6


class NetParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


# Expression AST.  And/Or are n-ary with at least two children.

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Not:
    child: "Expr"


@dataclass(frozen=True)
class And:
    children: tuple["Expr", ...]


@dataclass(frozen=True)
class Or:
    children: tuple["Expr", ...]


@dataclass(frozen=True)
class Const:
    sign: int


Expr = Var | Not | And | Or | Const


def references(expr: Expr) -> tuple[str, ...]:
    """Names referenced by an expression, deduplicated in first-use order."""
    seen: dict[str, None] = {}

    def walk(e: Expr) -> None:
        if isinstance(e, Var):
            seen.setdefault(e.name)
        elif isinstance(e, Not):
            walk(e.child)
        elif isinstance(e, (And, Or)):
            for c in e.children:
                walk(c)

    walk(expr)
    return tuple(seen)


@dataclass(frozen=True)
class Network:
    """Feed-forward network: declared inputs plus ordered node definitions."""

    inputs: tuple[str, ...]
    defs: tuple[tuple[str, Expr], ...]

    @property
    def names(self) -> tuple[str, ...]:
        return self.inputs + tuple(n for n, _ in self.defs)

    @cached_property
    def args(self) -> tuple[tuple[str, ...], ...]:
        """Each definition's ``references``, in definition order."""
        return tuple(references(expr) for _, expr in self.defs)


# ---------------------------------------------------------------------------
# Tokenizer and parser

# kind, text, line, col; the kind is the punctuation itself, the upper-cased
# keyword, or "name"
_Token = tuple[str, str, int, int]
PUNCTUATION = {"(", ")", "="}
# a lone "#" ends the line; re's \s and str.isspace agree on every code point
_TOKEN_RE = re.compile(r"[()=]|[^\s()=#]+|#")


def _tokenize_line(text: str, lineno: int) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN_RE.finditer(text):
        tok = match.group()
        if tok == "#":
            break
        kind = tok.upper()
        if kind not in KEYWORDS and kind not in PUNCTUATION:
            kind = "name"
        tokens.append((kind, tok, lineno, match.start() + 1))
    return tokens


# NOTs plus parentheses enclosing an operand.  The parser recurses three
# frames per parenthesis level and one per NOT, and each walk of an Expr at
# most three per level, far below the interpreter's default limit of 1000.
MAX_NESTING = 100


def _flat(parts: list[Expr], cls: type[And] | type[Or]) -> Expr:
    """One operand as is, else an n-ary ``cls`` with nested ``cls`` spliced."""
    if len(parts) == 1:
        return parts[0]
    return cls(tuple(c for p in parts for c in (p.children if isinstance(p, cls) else (p,))))


def _parse_tokens(tokens: Sequence[_Token], lineno: int) -> Expr:
    """Recursive descent over one expression's tokens: one closure per
    grammar level, all sharing the position ``pos``."""
    end = len(tokens)
    pos = 0

    def disjunction(depth: int) -> Expr:
        nonlocal pos
        parts = [conjunction(depth)]
        while pos < end and tokens[pos][0] == "OR":
            pos += 1
            parts.append(conjunction(depth))
        return _flat(parts, Or)

    def conjunction(depth: int) -> Expr:
        nonlocal pos
        parts = [operand(depth)]
        while pos < end and tokens[pos][0] == "AND":
            pos += 1
            parts.append(operand(depth))
        return _flat(parts, And)

    def operand(depth: int) -> Expr:
        # depth: the NOTs and parentheses enclosing this operand
        nonlocal pos
        if depth > MAX_NESTING:
            _, _, line, col = tokens[pos - 1]  # the NOT or ( one level too deep
            raise NetParseError(f"NOTs and parentheses nested deeper than {MAX_NESTING}", line, col)
        if pos == end:
            raise NetParseError("unexpected end of expression", lineno,
                                tokens[-1][3] if tokens else 1)
        kind, text, line, col = tokens[pos]
        pos += 1
        if kind == "name":
            sign = CONSTANTS.get(text.upper())
            return Var(text) if sign is None else Const(sign)
        if kind == "NOT":
            return Not(operand(depth + 1))
        if kind == "(":
            expr = disjunction(depth + 1)
            if pos == end or tokens[pos][0] != ")":
                raise NetParseError("missing closing parenthesis", line, col)
            pos += 1
            return expr
        if kind in KEYWORDS:
            raise NetParseError(f"keyword {text!r} cannot start an operand", line, col)
        raise NetParseError(f"unexpected token {text!r}", line, col)

    expr = disjunction(0)
    if pos < end:
        _, text, line, col = tokens[pos]
        raise NetParseError(f"unexpected token {text!r}", line, col)
    return expr


def parse_expression(text: str, lineno: int = 1) -> Expr:
    """Parse a single expression (used for inline CLI specs)."""
    tokens = _tokenize_line(text, lineno)
    if not tokens:
        raise NetParseError("empty expression", lineno, 1)
    return _parse_tokens(tokens, lineno)


def split_lines(text: str) -> list[str]:
    """``text`` cut at LF, CRLF and CR only; ``str.splitlines`` also cuts at
    form feed and other characters that the tokenizer reads as whitespace."""
    return re.split(r"\r\n?|\n", text)


def parse(text: str) -> Network:
    """Parse DSL source into a validated feed-forward network."""
    declared_inputs: list[str] = []
    raw_defs: list[tuple[str, Expr, int]] = []
    for lineno, line in enumerate(split_lines(text), start=1):
        tokens = _tokenize_line(line, lineno)
        if not tokens:
            continue
        if tokens[0][1] == "@inputs":
            for kind, name, _, col in tokens[1:]:
                if kind in PUNCTUATION:
                    raise NetParseError("only names may follow @inputs", lineno, col)
                if name in declared_inputs:
                    raise NetParseError(f"input {name!r} declared twice", lineno, col)
                declared_inputs.append(name)
            continue
        if len(tokens) < 2 or tokens[0][0] in PUNCTUATION or tokens[1][0] != "=":
            raise NetParseError("expected 'name = expr'", lineno, tokens[0][3])
        name = tokens[0][1]
        if name.upper() in KEYWORDS | CONSTANTS.keys():
            raise NetParseError(f"{name!r} is reserved", lineno, tokens[0][3])
        expr = _parse_tokens(tokens[2:], lineno)
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
    known = set(inputs)  # inputs and the definitions read so far
    for name, expr, lineno in raw_defs:
        for ref in references(expr):
            if ref in known:
                continue
            if ref in defined:
                raise NetParseError(
                    f"{ref!r} used before its definition (cycle or forward reference)",
                    lineno, 1)
            if declared_inputs:
                raise NetParseError(f"undefined name {ref!r}", lineno, 1)
            inputs.append(ref)
            known.add(ref)
        known.add(name)

    return Network(tuple(inputs), tuple((n, e) for n, e, _ in raw_defs))


def out_degree(net: Network, name: str) -> int:
    """Number of definitions referencing ``name`` (once per definition)."""
    if name not in net.names:
        raise KeyError(f"unknown node {name!r}")
    return sum(1 for args in net.args if name in args)


# ---------------------------------------------------------------------------
# Localization and collapse

@dataclass(frozen=True)
class LocalNode:
    """A node as a packed truth table over its direct arguments."""

    name: str
    args: tuple[str, ...]
    table: int


@dataclass(frozen=True)
class LocalNetwork:
    inputs: tuple[str, ...]
    nodes: tuple[LocalNode, ...]


@dataclass(frozen=True)
class CollapsedNode:
    """A node as a packed table over input-layer variables, all of them
    relevant; ``support`` holds their ascending ranks in ``network_inputs``."""

    name: str
    support: tuple[int, ...]
    table: int
    network_inputs: tuple[str, ...] = field(repr=False)

    @cached_property
    def inputs(self) -> tuple[str, ...]:
        return tuple(self.network_inputs[r] for r in self.support)

    @cached_property
    def fn(self) -> BoolFn:
        return BoolFn(len(self.support), self.inputs, self.table)


@dataclass(frozen=True, eq=False)
class CollapsedNetwork:
    """A collapsed network as one read-only block (k, rows, supports, bits)
    per arity k, ascending: the definition positions of the nodes that
    depend on k inputs, ascending; their ascending input ranks as an (m, k)
    int64 array; their tables as (m, 2^k) uint8 rows, bit b in column b.
    Per-node views are built the first time they are read.  Compared and
    hashed by identity, as the blocks are arrays."""

    inputs: tuple[str, ...]
    names: tuple[str, ...]
    blocks: tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]

    @cached_property
    def supports(self) -> tuple[tuple[int, ...], ...]:
        """Each node's input ranks, in definition order."""
        out: list[tuple[int, ...]] = [()] * len(self.names)
        for _, rows, supports, _ in self.blocks:
            for r, support in zip(rows.tolist(), supports.tolist()):
                out[r] = tuple(support)
        return tuple(out)

    @cached_property
    def nodes(self) -> tuple[CollapsedNode, ...]:
        tables = [0] * len(self.names)
        for _, rows, _, bits in self.blocks:
            for r, table in zip(rows.tolist(), _pack_rows(bits)):
                tables[r] = table
        return tuple(CollapsedNode(*node, self.inputs)
                     for node in zip(self.names, self.supports, tables))

    @property
    def constants(self) -> tuple[tuple[str, int], ...]:
        return tuple((self.names[r], 1 if bit else -1)
                     for k, rows, _, bits in self.blocks if k == 0
                     for r, bit in zip(rows.tolist(), bits[:, 0].tolist()))


def _eval_expr_table(expr: Expr, columns: Mapping[str, int], full: int) -> int:
    """Evaluate over all assignments at once on packed truth tables; ``full``
    has a bit set for every assignment."""
    if isinstance(expr, Var):
        return columns[expr.name]
    if isinstance(expr, Const):
        return full if expr.sign == 1 else 0
    if isinstance(expr, Not):
        return _eval_expr_table(expr.child, columns, full) ^ full
    parts = [_eval_expr_table(c, columns, full) for c in expr.children]
    return reduce(operator.and_ if isinstance(expr, And) else operator.or_, parts)


def localize(net: Network, cap: int | None = None) -> LocalNetwork:
    """Tabulate each definition over its direct arguments."""
    nodes = []
    for (name, expr), args in zip(net.defs, net.args):
        k = len(args)
        _check_cap(k, cap, name)
        masks = _low_masks(k)
        columns = {a: masks[j] << (1 << j) for j, a in enumerate(args)}
        table = _eval_expr_table(expr, columns, (1 << (1 << k)) - 1)
        nodes.append(LocalNode(name, args, table))
    return LocalNetwork(net.inputs, tuple(nodes))


def collapse_local(ln: LocalNetwork, cap: int | None = None) -> CollapsedNetwork:
    """Express every node over input-layer variables only, as blocks.

    A first-layer node, one whose arguments are distinct inputs, needs no
    composition: its support is its arguments (reported if over the cap),
    and the first-layer nodes of each argument count are collapsed together
    by ``_first_layer``, in NumPy calls per group, not per node.  Every
    other node is collapsed after them, in definition order, by
    ``_collapse_deeper``.  Each result joins its arity's block in definition
    order.  A cap error or an unknown name is the first offending node's in
    definition order.
    """
    nodes = ln.nodes
    rank = {name: r for r, name in enumerate(ln.inputs)}
    args = [node.args for node in nodes]
    count = np.fromiter(map(len, args), np.int64, len(nodes))
    flat = np.fromiter(map(rank.get, chain.from_iterable(args), repeat(-1)), np.int64,
                       int(count.sum()))  # argument ranks, -1 for a name not an input
    start = np.cumsum(count) - count  # each node's first argument in flat
    # first layer: no argument repeated, and every argument an input
    first = np.fromiter(map(len, map(set, args)), np.int64, len(nodes)) == count
    first[np.repeat(np.arange(len(nodes)), count)[flat < 0]] = False
    limit = ARITY_CAP_DEFAULT if cap is None else cap
    stop = min(np.flatnonzero(first & (count > limit)).tolist(), default=len(nodes))
    first[stop:] = False  # nothing from the first node over the cap on

    pieces = []  # (rows, supports, bits)
    for k in sorted(set(count[first].tolist())):
        rows = np.flatnonzero(first & (count == k))
        ranks = flat[start[rows, None] + np.arange(k)]
        bits = _unpack_tables([nodes[i].table for i in rows.tolist()], k)
        pieces += _first_layer(rows, ranks, bits)
    _collapse_deeper(ln, np.flatnonzero(~first[:stop]).tolist(), pieces, cap)
    if stop < len(nodes):
        _check_cap(len(nodes[stop].args), cap, nodes[stop].name)
    return CollapsedNetwork(ln.inputs, tuple(node.name for node in nodes), _blocks(pieces))


def _blocks(pieces: list[tuple[np.ndarray, ...]]) -> tuple[tuple, ...]:
    """The (rows, supports, bits) pieces joined into one read-only block per
    arity, ascending, each block's rows in definition order."""
    blocks = []
    for k in sorted({supports.shape[1] for _, supports, _ in pieces}):
        parts = zip(*(piece for piece in pieces if piece[1].shape[1] == k))
        rows, supports, bits = map(np.concatenate, parts)
        order = np.argsort(rows, kind="stable")
        blocks.append((k, *(_frozen(part[order]) for part in (rows, supports, bits))))
    return tuple(blocks)


def _first_layer(rows: np.ndarray, ranks: np.ndarray, bits: np.ndarray):
    """Collapse the first-layer nodes at positions ``rows`` that read k
    inputs each: their (m, k) argument ranks and (m, 2^k) tables.  One
    gather sorts every row's variables by rank; a variable is relevant where
    the two halves of the table along its axis differ; the rows of each
    relevant mask are cut to their relevant variables by that mask's cached
    compaction index.  Yields (rows, supports, bits) per relevant mask."""
    m, k = ranks.shape
    # stable, the sort uncertainty_curve runs: the default sort's first call
    # added about 0.4 MB to the resident set of a benchmark process
    order = np.argsort(ranks, axis=1, kind="stable")
    ranks = np.take_along_axis(ranks, order, axis=1)
    bits = np.take_along_axis(bits, _subset_index(order), axis=1)
    rel = np.zeros(m, dtype=np.int64)
    for j in range(k):
        halves = bits.reshape(m, -1, 2, 1 << j)
        rel |= (halves[:, :, 0] != halves[:, :, 1]).any(axis=(1, 2)) << j
    for mask in sorted(set(rel.tolist())):
        sel = np.flatnonzero(rel == mask)
        kept, index = _kept(mask)
        yield rows[sel], ranks[sel][:, kept], bits[sel][:, index]


@lru_cache(maxsize=256)
def _kept(mask: int) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the variables in ``mask``, and the index that cuts a
    table that depends on no other variable to them.  The 256 held masks
    cover every mask of up to 8 variables, the widest the benchmark
    networks reach; the index of r variables holds 2^r int64s."""
    kept = np.array(indices_of(mask), dtype=np.int64)
    return _frozen(kept), _frozen(_subset_index(kept))


def _collapse_deeper(ln: LocalNetwork, deeper: list[int],
                     pieces: list[tuple[np.ndarray, ...]], cap: int | None) -> None:
    """Collapse the nodes at positions ``deeper`` in order by
    ``_collapse_node``, from their arguments' (input ranks, packed table),
    and add them to ``pieces``.  An input is the identity table ``0b10``
    over its rank; the first-layer rows in ``pieces`` are packed back to
    ints, one pass per piece.  A name that is neither an input nor an
    earlier node is refused."""
    if not deeper:
        return
    memo = {name: ((r,), 0b10) for r, name in enumerate(ln.inputs)}
    for rows, supports, bits in pieces:
        for i, support, table in zip(rows.tolist(), supports.tolist(), _pack_rows(bits)):
            memo[ln.nodes[i].name] = tuple(support), table
    position = {node.name: i for i, node in enumerate(ln.nodes)}
    done: dict[int, list[tuple[int, tuple[int, ...], int]]] = {}  # by arity
    for i in deeper:
        node = ln.nodes[i]
        for a in node.args:
            if a not in memo or position.get(a, -1) >= i:
                raise ValueError(f"node {node.name!r} references unknown name {a!r}")
        support, table = memo[node.name] = _collapse_node(node, [memo[a] for a in node.args], cap)
        done.setdefault(len(support), []).append((i, support, table))
    for k, results in done.items():
        rows, supports, tables = zip(*results)
        pieces.append((np.array(rows), np.array(supports, dtype=np.int64).reshape(len(rows), k),
                       _unpack_tables(tables, k)))


def _collapse_node(node: LocalNode, subs: list[tuple[Sequence[int], int]],
                   cap: int | None) -> tuple[tuple[int, ...], int]:
    """The input ranks a node depends on and its packed table over them,
    from each argument's (input ranks, packed table).  A function of its
    own, so that its wide temporaries are freed before the next node."""
    support = tuple(sorted({r for sub_support, _ in subs for r in sub_support}))
    n = len(support)
    _check_cap(n, cap, node.name)
    masks = _low_masks(n)
    if len(node.args) <= PACKED_MAX_ARGS:
        position = {r: i for i, r in enumerate(support)}
        columns = [_spread(t, [position[r] for r in sub_support], masks)
                   for sub_support, t in subs]
        table = _compose(node.table, columns, (1 << (1 << n)) - 1)
    else:
        # One axis per variable, highest first: the node's table gets one
        # per argument, and each argument's table one per support input,
        # of length 1 for the inputs it lacks, so one gather broadcasts.
        axes = support[::-1]
        index = tuple(_unpack_tables([t], len(sub_support))
                      .reshape([2 if r in sub_support else 1 for r in axes])
                      for sub_support, t in reversed(subs))
        k = len(node.args)
        table = _pack_bits(_unpack_tables([node.table], k).reshape((2,) * k)[index].ravel())
    rel = _relevant_mask(table, masks)
    if rel == (1 << n) - 1:
        return support, table
    kept = indices_of(rel)
    return tuple(support[i] for i in kept), _compact(table, kept, masks)


def collapse(net: Network, cap: int | None = None) -> CollapsedNetwork:
    """Localize each definition, then substitute bottom-up."""
    return collapse_local(localize(net, cap), cap)


def effective_inputs(c: CollapsedNetwork) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split declared inputs by membership in some node's relevant set."""
    used = set().union(*c.supports)
    return (tuple(name for r, name in enumerate(c.inputs) if r in used),
            tuple(name for r, name in enumerate(c.inputs) if r not in used))


def collapsed_to_json(c: CollapsedNetwork) -> dict:
    """JSON-ready dump: per-node relevant inputs and table hex, plus the
    constants and non-effective input lists."""
    eff, non_eff = effective_inputs(c)
    return {
        "inputs": list(c.inputs),
        "effective_inputs": list(eff),
        "non_effective_inputs": list(non_eff),
        "nodes": [
            {"name": n.name, "inputs": list(n.inputs), "table_hex": n.fn.to_hex()}
            for n in c.nodes
        ],
        "constants": [{"name": name, "value": sign} for name, sign in c.constants],
    }
