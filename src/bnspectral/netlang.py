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
appearing on a left-hand side are inputs; an optional ``@inputs`` header
pins their order.  Definitions may only reference inputs and previously
defined nodes (no feedback).

Collapse re-expresses every node over the inputs on packed truth tables,
the ``boolfn`` layout: each argument's table is spread to the node's
support and the node's table is applied to them as the OR of its minterms,
with big-int operations only.  A node of more than ``PACKED_MAX_ARGS``
arguments is applied by one broadcast gather on unpacked tables instead.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Mapping, Sequence

import numpy as np

from .boolfn import (
    BoolFn,
    _check_cap,
    _compact,
    _compose,
    _low_mask,
    _low_masks,
    _pack_bits,
    _relevant_mask,
    _spread,
    _table_bits,
    indices_of,
)

KEYWORDS = {"NOT", "AND", "OR"}
CONST_TRUE = {"1", "TRUE"}
CONST_FALSE = {"0", "FALSE"}
# The most arguments of a node composed as the OR of its 2^k minterms on
# packed tables; above it one broadcast gather is cheaper (the measured
# crossover is in ROADMAP item 2).
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


# The parser and each walk of an Expr recurse at most four frames per level,
# so this stays far below the interpreter's default recursion limit of 1000.
MAX_NESTING = 100


class _ExprParser:
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


def parse_expression(text: str, lineno: int = 1) -> Expr:
    """Parse a single expression (used for inline CLI specs)."""
    tokens = _tokenize_line(text, lineno)
    if not tokens:
        raise NetParseError("empty expression", lineno, 1)
    return _ExprParser(tokens, lineno).parse()


def parse(text: str) -> Network:
    """Parse DSL source into a validated feed-forward network."""
    declared_inputs: list[str] = []
    raw_defs: list[tuple[str, Expr, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped == "@inputs" or stripped.startswith("@inputs ") or stripped.startswith("@inputs\t"):
            rest = stripped[len("@inputs"):]
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
        expr = _ExprParser(tokens[2:], lineno).parse()
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


def _render(expr: Expr, parent: str = "or") -> str:
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Const):
        return "1" if expr.sign == 1 else "0"
    if isinstance(expr, Not):
        return "NOT " + _render(expr.child, "not")
    if isinstance(expr, And):
        body = " AND ".join(_render(c, "and") for c in expr.children)
        return f"({body})" if parent == "not" else body
    body = " OR ".join(_render(c, "or") for c in expr.children)
    return f"({body})" if parent in ("and", "not") else body


def to_text(net: Network) -> str:
    """Render a network back to DSL source (inputs pinned via @inputs)."""
    lines = []
    if net.inputs:
        lines.append("@inputs " + " ".join(net.inputs))
    for name, expr in net.defs:
        lines.append(f"{name} = {_render(expr)}")
    return "\n".join(lines) + "\n"


def out_degree(net: Network, name: str) -> int:
    """Number of definitions referencing ``name`` (once per definition)."""
    if name not in net.names:
        raise KeyError(f"unknown node {name!r}")
    return sum(1 for args in net.args if name in args)


# ---------------------------------------------------------------------------
# Localization and collapse

@dataclass(frozen=True)
class LocalNode:
    """A node as a truth table over its direct arguments."""

    name: str
    args: tuple[str, ...]
    fn: BoolFn


@dataclass(frozen=True)
class LocalNetwork:
    inputs: tuple[str, ...]
    nodes: tuple[LocalNode, ...]


@dataclass(frozen=True)
class CollapsedNode:
    """A node re-expressed over input-layer variables, all of them relevant."""

    name: str
    inputs: tuple[str, ...]
    fn: BoolFn


@dataclass(frozen=True)
class CollapsedNetwork:
    inputs: tuple[str, ...]
    nodes: tuple[CollapsedNode, ...]

    @property
    def constants(self) -> tuple[tuple[str, int], ...]:
        return tuple((n.name, 1 if n.fn.table & 1 else -1)
                     for n in self.nodes if n.fn.arity == 0)

    def out_degree(self, name: str) -> int:
        """Number of collapsed nodes whose relevant inputs include ``name``."""
        if name not in self.inputs and all(n.name != name for n in self.nodes):
            raise KeyError(f"unknown node {name!r}")
        return sum(1 for n in self.nodes if name in n.inputs)


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
        columns = {a: _low_mask(k, j) << (1 << j) for j, a in enumerate(args)}
        table = _eval_expr_table(expr, columns, (1 << (1 << k)) - 1)
        nodes.append(LocalNode(name, args, BoolFn(k, args, table)))
    return LocalNetwork(net.inputs, tuple(nodes))


def collapse_local(ln: LocalNetwork, cap: int | None = None) -> CollapsedNetwork:
    """Express every node over input-layer variables only.

    Proceeds in definition order on packed truth tables, from every input as
    the identity table ``0b10`` over itself.  A node's support is the union
    of its arguments' relevant inputs (reported if over the cap); each
    argument's table is spread to that support, and the node's own table is
    evaluated on them as the OR of its minterms.  A node of more than
    ``PACKED_MAX_ARGS`` arguments, with its 2^k minterms, is evaluated by
    one broadcast gather on the unpacked tables instead.  The result is then
    cut to the variables it depends on.
    """
    memo = {name: ((r,), 0b10) for r, name in enumerate(ln.inputs)}
    masks: dict[int, Sequence[int]] = {}  # _low_masks by support size
    out = []
    for node in ln.nodes:
        for a in node.args:
            if a not in memo:
                raise ValueError(f"node {node.name!r} references unknown name {a!r}")
        support, table = _collapse_node(node, [memo[a] for a in node.args], masks, cap)
        memo[node.name] = (support, table)
        labels = tuple(ln.inputs[r] for r in support)
        out.append(CollapsedNode(node.name, labels, BoolFn(len(labels), labels, table)))
    return CollapsedNetwork(ln.inputs, tuple(out))


def _collapse_node(node: LocalNode, subs: list[tuple[Sequence[int], int]],
                   masks_by_size: dict[int, Sequence[int]],
                   cap: int | None) -> tuple[list[int], int]:
    """The input ranks a node depends on and its packed table over them,
    from each argument's (input ranks, packed table).  A function of its
    own, so that its wide temporaries are freed before the next node."""
    support = sorted({r for sub_support, _ in subs for r in sub_support})
    n = len(support)
    _check_cap(n, cap, node.name)
    if n not in masks_by_size:
        masks_by_size[n] = _low_masks(n)
    masks = masks_by_size[n]
    if len(node.args) <= PACKED_MAX_ARGS:
        position = {r: i for i, r in enumerate(support)}
        columns = [_spread(t, [position[r] for r in sub_support], masks)
                   for sub_support, t in subs]
        table = _compose(node.fn.table, columns, (1 << (1 << n)) - 1)
    else:
        # One axis per variable, highest first: the node's table gets one
        # per argument, and each argument's table one per support input,
        # of length 1 for the inputs it lacks, so one gather broadcasts.
        axes = support[::-1]
        index = tuple(_table_bits(t, len(sub_support))
                      .reshape([2 if r in sub_support else 1 for r in axes])
                      for sub_support, t in reversed(subs))
        table = _pack_bits(node.fn.bits.reshape((2,) * len(node.args))[index].ravel())
    rel = _relevant_mask(table, masks)
    if rel == (1 << n) - 1:
        return support, table
    kept = indices_of(rel)
    return [support[i] for i in kept], _compact(table, kept, masks)


def collapse(net: Network, cap: int | None = None) -> CollapsedNetwork:
    """Localize each definition, then substitute bottom-up."""
    return collapse_local(localize(net, cap), cap)


def effective_inputs(c: CollapsedNetwork) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split declared inputs by membership in some node's relevant set."""
    used = set()
    for node in c.nodes:
        used.update(node.inputs)
    eff = tuple(name for name in c.inputs if name in used)
    non_eff = tuple(name for name in c.inputs if name not in used)
    return eff, non_eff


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
