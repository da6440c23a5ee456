"""Shared fixtures, strategies, and small function builders."""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path
from types import ModuleType
from typing import Iterable, NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from bnspectral import analysis, netlang
from bnspectral.boolfn import (
    BoolFn,
    ProductDist,
    _check_cap,
    _pack_rows,
    _unpack_tables,
    default_labels,
)
from bnspectral.netlang import (
    And,
    CollapsedNetwork,
    Const,
    Expr,
    LocalNetwork,
    Network,
    Not,
    Or,
    Var,
)
from bnspectral.sampling import sample_random_unate


def and_fn(n: int) -> BoolFn:
    return BoolFn.from_callable(n, lambda x: 1 if all(v == 1 for v in x) else -1)


def or_fn(n: int) -> BoolFn:
    return BoolFn.from_callable(n, lambda x: 1 if any(v == 1 for v in x) else -1)


def parity_fn(n: int) -> BoolFn:
    return BoolFn.from_callable(n, lambda x: int(np.prod(x)) if n else 1)


def dictator_fn(n: int, i: int) -> BoolFn:
    return BoolFn.from_callable(n, lambda x: x[i])


def const_fn(n: int, sign: int) -> BoolFn:
    return BoolFn.from_callable(n, lambda x: sign)


@st.composite
def bool_fns(draw, min_arity=0, max_arity=8):
    n = draw(st.integers(min_arity, max_arity))
    table = draw(st.integers(0, (1 << (1 << n)) - 1))
    return BoolFn(n, default_labels(n), table)


@st.composite
def product_dists(draw, n):
    probs = draw(st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n))
    return ProductDist(tuple(probs))


@st.composite
def fn_dist_pairs(draw, min_arity=1, max_arity=8):
    f = draw(bool_fns(min_arity, max_arity))
    d = draw(product_dists(f.arity))
    return f, d


@st.composite
def fn_dist_mask_triples(draw, min_arity=1, max_arity=8):
    f, d = draw(fn_dist_pairs(min_arity, max_arity))
    mask = draw(st.integers(0, (1 << f.arity) - 1))
    return f, d, mask


def random_product_dist(rng: np.random.Generator, n: int,
                        lo: float = 0.05, hi: float = 0.95) -> ProductDist:
    return ProductDist(tuple(rng.uniform(lo, hi, size=n)))


def random_bool_fn(rng: np.random.Generator, n: int) -> BoolFn:
    raw = rng.bytes(max(1, (1 << n) + 7 >> 3))
    return BoolFn(n, default_labels(n), int.from_bytes(raw, "little") & ((1 << (1 << n)) - 1))


def planted_fn(rng: np.random.Generator, k: int, inner: BoolFn) -> tuple[BoolFn, int]:
    """``inner`` read through a random set of inner.arity of k variables,
    ascending; the other variables are irrelevant.  Returns the function
    and the mask of the variables ``inner`` was planted on."""
    positions = sorted(int(i) for i in rng.choice(k, size=inner.arity, replace=False))
    idx = np.arange(1 << k, dtype=np.int64)
    compact = np.zeros_like(idx)
    for b, pos in enumerate(positions):
        compact |= ((idx >> pos) & 1) << b
    return BoolFn.from_bit_array(inner.bits[compact]), sum(1 << i for i in positions)


def random_network(rng: np.random.Generator, max_inputs: int = 12,
                   max_nodes: int = 20, max_depth: int = 4) -> Network:
    """Random feed-forward network with layered definitions."""
    n_inputs = int(rng.integers(2, max_inputs + 1))
    n_nodes = int(rng.integers(1, max_nodes + 1))
    inputs = tuple(f"i{k}" for k in range(n_inputs))
    layers = sorted(int(rng.integers(1, max_depth + 1)) for _ in range(n_nodes))
    defs = []
    available = list(inputs)
    by_layer: dict[int, list[str]] = {}

    def rand_expr(depth: int, pool: list[str]) -> Expr:
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.05:
                return Const(1 if rng.random() < 0.5 else -1)
            return Var(pool[int(rng.integers(0, len(pool)))])
        kind = rng.random()
        if kind < 0.25:
            return Not(rand_expr(depth - 1, pool))
        k = int(rng.integers(2, 4))
        children = tuple(rand_expr(depth - 1, pool) for _ in range(k))
        return And(children) if kind < 0.6 else Or(children)

    for idx, layer in enumerate(layers):
        pool = list(inputs)
        for lay, names in by_layer.items():
            if lay < layer:
                pool.extend(names)
        name = f"n{idx}"
        defs.append((name, rand_expr(3, pool)))
        by_layer.setdefault(layer, []).append(name)
    return Network(inputs, tuple(defs))


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
    """Render a network back to DSL source (inputs pinned via @inputs), for
    the parse round trip and for networks written to files."""
    lines = []
    if net.inputs:
        lines.append("@inputs " + " ".join(net.inputs))
    for name, expr in net.defs:
        lines.append(f"{name} = {_render(expr)}")
    return "\n".join(lines) + "\n"


def netgen() -> ModuleType:
    """The benchmark's seeded generator of E. coli-shaped networks,
    ``perfbench/netgen.py``, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "netgen.py"
    spec = importlib.util.spec_from_file_location("perfbench_netgen", path)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


class LocalNode(NamedTuple):
    """A definition as a packed table over its argument names, which may
    repeat: bit b of ``table`` is its value where bit j of b sets ``args[j]``."""

    name: str
    args: tuple[str, ...]
    table: int


def local_network(inputs: Iterable[str], nodes: Iterable[LocalNode]) -> LocalNetwork:
    """The ``LocalNetwork`` of per-node definitions: their wiring compiled,
    their tables unpacked into rows per argument count."""
    nodes = tuple(nodes)
    args = tuple(tuple(node.args) for node in nodes)
    rows = {k: _unpack_tables([node.table for node in nodes if len(node.args) == k], k)
            for k in sorted({len(a) for a in args})}
    return LocalNetwork(netlang._compile(tuple(inputs), tuple(node.name for node in nodes), args),
                        rows)


def local_nodes(ln: LocalNetwork) -> tuple[LocalNode, ...]:
    """The per-node definitions of a ``LocalNetwork``, tables packed."""
    tables = {k: iter(_pack_rows(rows)) for k, rows in ln.rows.items()}
    return tuple(LocalNode(name, args, next(tables[len(args)]))
                 for name, args in zip(ln.program.names, ln.program.args))


def per_table_draws(arities: Iterable[int], rng: np.random.Generator) -> list[int]:
    """Uniform packed tables of the given arities, in order, one
    ``rng.bytes`` call per table of its ceil(2^k / 8) bytes, at least one:
    what ``sample_random_function`` draws table by table, and
    ``sampling.random_rows`` in one call."""
    return [int.from_bytes(rng.bytes(max(1, (1 << k) + 7 >> 3)), "little")
            & ((1 << (1 << k)) - 1) for k in arities]


def exchange_oracle(net: Network, rng: np.random.Generator, unate: bool) -> LocalNetwork:
    """An exchange trial built per node, as packed tables: one from
    ``per_table_draws`` or ``sample_random_unate`` per definition, at its
    argument count, in definition order.  An exchange trial of
    ``analysis.baseline_curves`` draws the same tables from the same
    generator state, as rows, and leaves it in the same state."""
    arities = [len(args) for args in net.args]
    tables = ([sample_random_unate(k, rng) for k in arities] if unate
              else per_table_draws(arities, rng))
    return local_network(net.inputs, map(LocalNode, (name for name, _ in net.defs), net.args,
                                         tables))


def random_topology_oracle(inputs: tuple[str, ...], names: tuple[str, ...],
                           rng: np.random.Generator, unate: bool,
                           cap: int | None = None) -> LocalNetwork:
    """A random-topology trial built per node: each input's ``rng.choice``
    of ``analysis.RANDOM_TOPOLOGY_OUT_DEGREE`` nodes appended to their
    argument lists, the cap checked node by node, then one packed table per
    node from ``per_table_draws`` or ``sample_random_unate``, in node order.
    ``collapse_local`` of it is what ``analysis._random_topology`` gives from
    the same generator state, which it leaves in the same state."""
    fan_in: dict[str, list[str]] = {name: [] for name in names}
    for inp in inputs:
        for t in rng.choice(len(names), size=analysis.RANDOM_TOPOLOGY_OUT_DEGREE, replace=False):
            fan_in[names[t]].append(inp)
    for name in names:
        _check_cap(len(fan_in[name]), cap, name)
    args = [tuple(fan_in[name]) for name in names]
    tables = ([sample_random_unate(len(a), rng) for a in args] if unate
              else per_table_draws([len(a) for a in args], rng))
    return local_network(inputs, map(LocalNode, names, args, tables))


def assert_same_blocks(got: CollapsedNetwork, want: CollapsedNetwork) -> None:
    """Equal inputs, names and blocks, every array with its dtype and shape."""
    assert (got.inputs, got.names) == (want.inputs, want.names)
    assert [b[0] for b in got.blocks] == [b[0] for b in want.blocks]
    for g, w in zip(got.blocks, want.blocks):
        for a, b in zip(g[1:], w[1:]):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def ecoli_fixture_path() -> Path | None:
    """Externally converted regulatory-network file, if present."""
    env = os.environ.get("BNSPECTRAL_ECOLI_BNET")
    candidates = [Path(env)] if env else []
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "ecoli.bnet")
    for path in candidates:
        if path.is_file():
            return path
    return None


@pytest.fixture
def uniform2():
    return ProductDist.uniform(2)


@pytest.fixture
def uniform3():
    return ProductDist.uniform(3)
