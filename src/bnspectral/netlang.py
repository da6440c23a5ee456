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
depends on.  A node's unpruned support U, the union of its arguments',
depends on the wiring alone, so ``Network.program`` compiles the whole
collapse once into static gathers, grouped by (depth, argument count, |U|):
``localize`` tabulates each definition into uint8 rows per argument count,
and an exchange baseline trial draws new rows for the same program.  A run
tabulates each node over U, then prunes every node at once.  A node whose U
exceeds ``COMPILED_MAX_SUPPORT`` is gathered at run time, over its
arguments' pruned supports.  A collapsed network is one block per arity:
node positions, input ranks and table rows as arrays, which
``analysis.node_spectra`` transforms as they are.  A random-topology trial's
drawn rows go straight to ``_prune`` and ``_blocks``.  Per-node records,
with input names and ``BoolFn``, are built on first read.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain, repeat
from typing import Mapping, Sequence

import numpy as np

from .boolfn import (
    ARITY_CAP_DEFAULT,
    BoolFn,
    _check_cap,
    _frozen,
    _low_masks,
    _pack_rows,
    _subset_sums,
    _unpack_tables,
)

KEYWORDS = {"NOT", "AND", "OR"}
CONSTANTS = {"1": 1, "TRUE": 1, "0": -1, "FALSE": -1}  # upper-cased name: sign


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

    @cached_property
    def program(self) -> CollapseProgram:
        """This wiring's ``_compile``, shared by ``localize`` and exchange trials."""
        return _compile(self.inputs, tuple(name for name, _ in self.defs), self.args)


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

# The widest unpruned support U that the program compiles: a group of m
# nodes of k arguments holds an (m, k, 2^|U|) int32 index.  Per node of 3
# arguments (2-core Xeon, NumPy 2.4.6), compiled against gathered at run
# time: |U| = 10 36 / 264 us, index 12.7 KB; 12 111 / 345 us, 50 KB; 14
# 424 / 541 us, 198 KB.  Compiling costs 20-30 us a node up to 12.
COMPILED_MAX_SUPPORT = 12


@dataclass(frozen=True, eq=False)
class CollapseProgram:
    """A wiring's collapse as static gathers, built by ``_compile``.

    Each node whose U has at most ``COMPILED_MAX_SUPPORT`` inputs is
    tabulated over U into a flat uint8 buffer of ``size`` entries; every
    input reads its first two, [0, 1].  ``groups``, in depth order: (k, the
    nodes' first entries in the flat k-argument table rows as (m, 1), the
    (m, k, 2^u) buffer index of each argument at each point of U, the
    group's buffer offset).  ``segments``, per u ascending: (u, node
    positions, U as (m, u) ascending input ranks, buffer offset).  Node i
    reads ``ids[start[i]:]`` (input r as r, node j as len(inputs) + j), has
    |U| = ``u[i]`` and table row ``within[i]`` of its argument count.
    Compiled up to the first definition that reads a name neither an input
    nor an earlier node: ``unknown``, (node, name), or None."""

    inputs: tuple[str, ...]
    names: tuple[str, ...]
    args: tuple[tuple[str, ...], ...]
    size: int
    groups: tuple[tuple[int, np.ndarray, np.ndarray, int], ...]
    segments: tuple[tuple[int, np.ndarray, np.ndarray, int], ...]
    ids: np.ndarray
    start: np.ndarray
    u: np.ndarray
    within: np.ndarray
    unknown: tuple[str, str] | None


@dataclass(frozen=True, eq=False)
class LocalNetwork:
    """Each definition tabulated over its direct arguments: ``rows`` maps an
    argument count k to the (m, 2^k) uint8 tables of the definitions of k
    arguments, in definition order, bit b in column b.  ``program`` is the
    network's compiled wiring."""

    program: CollapseProgram
    rows: Mapping[int, np.ndarray]


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


def _tabulate(name: str, expr: Expr, args: Sequence[str], cap: int | None) -> int:
    """The packed table of definition ``name = expr`` over ``args``, bit b
    its value where bit j of b sets ``args[j]``; more arguments than the
    cap are refused."""
    k = len(args)
    _check_cap(k, cap, name)
    masks = _low_masks(k)
    columns = {a: masks[j] << (1 << j) for j, a in enumerate(args)}
    return _eval_expr_table(expr, columns, (1 << (1 << k)) - 1)


def localize(net: Network, cap: int | None = None) -> LocalNetwork:
    """Tabulate each definition over its direct arguments, into rows per
    argument count."""
    tables: dict[int, list[int]] = {}
    for (name, expr), args in zip(net.defs, net.args):
        tables.setdefault(len(args), []).append(_tabulate(name, expr, args, cap))
    return LocalNetwork(net.program, {k: _unpack_tables(t, k) for k, t in tables.items()})


def _compile(inputs: tuple[str, ...], names: tuple[str, ...],
             args: tuple[tuple[str, ...], ...]) -> CollapseProgram:
    """The ``CollapseProgram`` of nodes ``names[i]`` reading ``args[i]``.

    A node's depth, one more than its deepest argument's (an input's is 0),
    is relaxed over every node at once until it holds.  U, the union of
    the arguments' (an input's is itself), is OR-ed as bit rows level by
    level.  The indices of each |U| come from the dense membership table
    in one ``_gather_index`` call, with no loop per node."""
    n_in = len(inputs)
    count = np.fromiter(map(len, args), np.int64, len(args))
    ident = dict(zip(chain(inputs, names), range(n_in + len(names))))
    ids = np.fromiter(map(ident.get, chain.from_iterable(args), repeat(-1)), np.int64,
                      int(count.sum()))
    owner = np.repeat(np.arange(len(args)), count)
    unknown = np.flatnonzero((ids < 0) | (ids >= n_in + owner))  # not an input or earlier node
    stop = int(owner[unknown[0]]) if len(unknown) else len(args)
    by_k = np.argsort(count, kind="stable")
    within = np.empty_like(count)
    within[by_k] = np.arange(len(args)) - np.searchsorted(count[by_k], count[by_k])
    count = count[:stop]
    start = np.cumsum(count) - count
    ids = ids[:int(count.sum())]

    fed = np.flatnonzero(count)
    depth = np.repeat(np.array([0, 1]), [n_in, stop])
    while len(fed):
        deeper = 1 + np.maximum.reduceat(depth[ids], start[fed])
        if np.array_equal(deeper, depth[n_in + fed]):
            break
        depth[n_in + fed] = deeper
    packed = np.zeros((n_in + stop, (n_in + 7) >> 3), dtype=np.uint8)
    r = np.arange(n_in)
    packed[r, r >> 3] = 1 << (r & 7)
    for level in range(1, int(depth.max(initial=0)) + 1):
        at = fed[depth[n_in + fed] == level]
        if len(at):
            first = np.cumsum(count[at]) - count[at]
            reads = ids[np.repeat(start[at] - first, count[at]) + np.arange(int(count[at].sum()))]
            packed[n_in + at] = np.bitwise_or.reduceat(packed[reads], first)
    member = np.unpackbits(packed, axis=1, count=n_in, bitorder="little").view(bool)
    u = member[n_in:].sum(axis=1)

    # the compiled nodes by |U|, then depth, then argument count, each one's
    # values at its offset in the buffer
    order = np.flatnonzero(u <= COMPILED_MAX_SUPPORT)
    order = order[np.lexsort((order, count[order], depth[n_in + order], u[order]))]
    offset = 2 + np.cumsum(1 << u[order]) - (1 << u[order])
    base = np.zeros(n_in + stop, dtype=np.int32)  # an input's values are at 0
    base[n_in + order] = offset
    first = np.cumsum(count[order]) - count[order]  # each one's first argument in reads
    reads = ids[np.repeat(start[order] - first, count[order]) + np.arange(int(count[order].sum()))]
    every = np.flatnonzero(member[n_in + order]) % n_in  # each one's U, from at
    at = np.cumsum(u[order]) - u[order]
    groups, segments = [], []
    for size in np.flatnonzero(np.bincount(u[order])).tolist():  # np.unique's sort costs memory
        lo, hi = np.searchsorted(u[order], [size, size + 1]).tolist()
        nodes = order[lo:hi]
        ranks = every[at[lo]:at[lo] + (hi - lo) * size].reshape(hi - lo, size)
        segments.append((size, nodes, ranks, int(offset[lo])))
        pairs = reads[first[lo]:first[lo] + int(count[nodes].sum())]
        owner = np.repeat(np.arange(hi - lo), count[nodes])
        index = _gather_index(member[pairs[:, None], ranks[owner]], base[pairs])
        level, k = depth[n_in + nodes], count[nodes]
        cuts = [0, *(np.flatnonzero(np.diff(level) | np.diff(k)) + 1).tolist(), hi - lo]
        for a, b in zip(cuts, cuts[1:]):
            ka, pair = int(k[a]), first[lo + a] - first[lo]
            groups.append((int(level[a]), ka, within[nodes[a:b], None] << ka,
                           index[pair:pair + (b - a) * ka].reshape(b - a, ka, 1 << size),
                           int(offset[lo + a])))
    groups.sort(key=lambda group: group[0])
    return CollapseProgram(
        inputs, names, args, int(2 + (1 << u[order]).sum()), tuple(g[1:] for g in groups),
        tuple(segments), ids, start, u, within,
        (names[stop], args[stop][int(unknown[0]) - len(ids)]) if len(unknown) else None)


def _gather_index(member: np.ndarray, base: np.ndarray | np.integer) -> np.ndarray:
    """The index that reads a table at every point of a support of u
    variables: ``member`` (..., u) marks the positions that the table
    depends on, its b-th marked position being its variable b, and ``base``
    (...) is where the table starts in the buffer read.  Shape (..., 2^u),
    of the dtype of ``base``: the ``_subset_sums`` of the positions' steps."""
    step = (member << np.cumsum(member, axis=-1)) >> 1  # 2^b at variable b's position
    return _subset_sums(step.astype(base.dtype), base)


def collapse_local(ln: LocalNetwork, cap: int | None = None) -> CollapsedNetwork:
    """Express every node over input-layer variables only, as blocks.

    Runs ``ln.program``: per group, in depth order, one gather of the
    arguments' values at every point of U and one of the nodes' table rows,
    then ``_prune`` per |U|.  The nodes over ``COMPILED_MAX_SUPPORT`` follow
    in definition order, each by ``_wide_node``.  The first node in
    definition order whose arguments' pruned supports span more than the
    cap, or that reads an unknown name, is refused.
    """
    p = ln.program
    flat = {k: rows.reshape(-1) for k, rows in ln.rows.items()}
    vals = np.empty(p.size, dtype=np.uint8)
    vals[:2] = 0, 1
    for k, at_rows, index, at in p.groups:
        local = np.matmul(1 << np.arange(k), vals[index])  # each point's column of the table
        np.take(flat[k], at_rows + local, out=vals[at:at + local.size].reshape(local.shape))
    grown = [(rows, ranks, vals[at:at + (len(rows) << u)].reshape(len(rows), 1 << u))
             for u, rows, ranks, at in p.segments]
    pieces = [piece for segment in grown for piece in _prune(*segment)]
    # the nodes whose arguments may span more than the cap, and the wide ones
    limit = ARITY_CAP_DEFAULT if cap is None else cap
    todo = np.flatnonzero(p.u > min(limit, COMPILED_MAX_SUPPORT)).tolist()
    memo = {r: (s, b) for rows, supports, bits in (pieces if todo else ())
            for r, s, b in zip(rows.tolist(), supports.tolist(), bits)}
    for i in todo:
        subs = [([a], _INPUT) if a < len(p.inputs) else memo[a - len(p.inputs)]
                for a in p.ids[p.start[i]:p.start[i] + len(p.args[i])].tolist()]
        support = sorted({r for s, _ in subs for r in s})
        _check_cap(len(support), cap, p.names[i])
        if p.u[i] > COMPILED_MAX_SUPPORT:
            bits = _wide_node(subs, support, ln.rows[len(subs)][p.within[i]])
            pieces.append(next(_prune(np.array([i]), np.array([support], np.int64), bits[None])))
            memo[i] = pieces[-1][1][0].tolist(), pieces[-1][2][0]
    if p.unknown:
        raise ValueError("node {!r} references unknown name {!r}".format(*p.unknown))
    return CollapsedNetwork(p.inputs, p.names, _blocks(pieces))


_INPUT = _frozen(np.array([0, 1], dtype=np.uint8))  # an input's table over itself


def _wide_node(subs: list[tuple[list[int], np.ndarray]], support: list[int],
               table: np.ndarray) -> np.ndarray:
    """The node of table row ``table`` over ``support``, the union of its
    arguments' pruned supports, from ``subs``, each argument's (support,
    table): each argument read through its ``_gather_index`` in turn, as
    one index of them all could take gigabytes."""
    local = np.zeros(1 << len(support), dtype=np.int64)
    for j, (s, bits) in enumerate(subs):
        local |= bits[_gather_index(np.isin(support, s), np.int64(0))].astype(np.int64) << j
    return table[local]


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


def _prune(rows: np.ndarray, ranks: np.ndarray, bits: np.ndarray):
    """Cut the nodes at positions ``rows``, with (m, u) ascending input ranks
    and (m, 2^u) tables, to the inputs they depend on: a variable is
    relevant where the two halves of the table along its axis differ.  A
    table equals itself with any irrelevant variable set, so its entries at
    the points that set none, read in ascending order, are the cut table.
    Yields (rows, supports, bits) per output arity, ascending."""
    m, u = ranks.shape
    live = np.empty((m, u), dtype=bool)
    for j in range(u):
        halves = bits.reshape(m, -1, 2, 1 << j)
        live[:, j] = (halves[:, :, 0] != halves[:, :, 1]).any(axis=(1, 2))
    arity = live.sum(axis=1)
    rel = live @ (1 << np.arange(u))
    keep = (np.arange(1 << u) & ~rel[:, None]) == 0
    for p in np.flatnonzero(np.bincount(arity)).tolist():
        sel = np.flatnonzero(arity == p)
        yield (rows[sel], ranks[sel][live[sel]].reshape(len(sel), p),
               bits[sel][keep[sel]].reshape(len(sel), 1 << p))


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
