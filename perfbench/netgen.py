"""Seeded generator for a synthetic network with the E. coli shape.

The converted E. coli regulatory network is not in the repository, so the
``ecoli-synth`` workload analyses a network of the same shape instead:
150 inputs, 653 nodes, collapsed arity at most 8, unate node functions and
three hub inputs with out-degrees 99, 93 and 73.  It is a workload, never a
reproduction of the paper's numbers.

Every input gets one fixed polarity.  First-layer nodes are read-once AND/OR
formulas over polarised input literals; second-layer nodes are AND/OR
formulas over earlier nodes plus at most one literal.  Every node is then
monotone in the polarised literals, so every collapsed node is unate, and
the generator keeps each second-layer support at 8 inputs or fewer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

N_INPUTS = 150
N_NODES = 653
HUB_DEGREES = (99, 93, 73)
MAX_ARITY = 8
FIRST_LAYER_SHARE = 0.7
# Shares of first-layer nodes with direct arity 1..6, taken exactly (then
# shuffled) so that every seed gives the same arity mix; second-layer nodes
# join 2 or 3 earlier nodes.  Chosen so an analyze makes about 2,500
# single-input MI calls; the seed network makes about 2,400.
FIRST_LAYER_ARITY_WEIGHTS = (0.24, 0.26, 0.2, 0.14, 0.1, 0.06)


@dataclass(frozen=True)
class Shape:
    n_inputs: int = N_INPUTS
    n_nodes: int = N_NODES
    hub_degrees: tuple[int, ...] = HUB_DEGREES
    max_arity: int = MAX_ARITY


ECOLI = Shape()
# A small network of the same construction, for the recorded golden check.
SMALL = Shape(n_inputs=24, n_nodes=90, hub_degrees=(14, 12, 10))


def input_names(shape: Shape) -> list[str]:
    return [f"u{i:03d}" for i in range(shape.n_inputs)]


def hub_names(shape: Shape) -> list[str]:
    return input_names(shape)[:len(shape.hub_degrees)]


def _literal(name: str, polarity: int) -> str:
    return name if polarity > 0 else f"NOT {name}"


def _formula(terms: list[str], rng: np.random.Generator, op: str) -> str:
    """Random read-once AND/OR tree over ``terms``, alternating operators."""
    if len(terms) == 1:
        return terms[0]
    groups = int(rng.integers(2, min(3, len(terms)) + 1))
    cuts = sorted(rng.choice(np.arange(1, len(terms)), size=groups - 1, replace=False).tolist())
    parts = [terms[a:b] for a, b in zip([0] + cuts, cuts + [len(terms)])]
    inner = "OR" if op == "AND" else "AND"
    rendered = []
    for part in parts:
        sub = _formula(part, rng, inner)
        rendered.append(f"({sub})" if len(part) > 1 else sub)
    return f" {op} ".join(rendered)


def generate(seed: int, shape: Shape = ECOLI) -> str:
    """Network source text in the DSL; the same seed gives the same bytes."""
    rng = np.random.default_rng(seed)
    inputs = input_names(shape)
    hubs = hub_names(shape)
    others = inputs[len(hubs):]
    polarity = {name: int(rng.choice((-1, 1))) for name in inputs}

    n_first = max(int(round(shape.n_nodes * FIRST_LAYER_SHARE)), max(shape.hub_degrees))
    counts = np.floor(np.array(FIRST_LAYER_ARITY_WEIGHTS) * n_first).astype(int)
    counts[0] += n_first - counts.sum()
    arity = rng.permutation(np.repeat(np.arange(1, len(counts) + 1), counts))
    args: list[list[str]] = [[] for _ in range(n_first)]
    for hub, degree in zip(hubs, shape.hub_degrees):
        for i in rng.choice(n_first, size=degree, replace=False):
            args[int(i)].append(hub)
    # Every non-hub input appears at least once, then free slots fill at random.
    pending = [others[int(i)] for i in rng.permutation(len(others))]
    for i in range(n_first):
        while len(args[i]) < arity[i]:
            if pending and pending[-1] not in args[i]:
                args[i].append(pending.pop())
                continue
            pick = others[int(rng.integers(len(others)))]
            if pick not in args[i]:
                args[i].append(pick)
    if pending:
        raise ValueError(f"shape leaves {len(pending)} inputs unused")

    lines = ["@inputs " + " ".join(inputs)]
    support: list[frozenset[str]] = []
    names: list[str] = []
    for i in range(n_first):
        order = [args[i][int(j)] for j in rng.permutation(len(args[i]))]
        terms = [_literal(a, polarity[a]) for a in order]
        op = "AND" if rng.random() < 0.5 else "OR"
        names.append(f"g{i:03d}")
        support.append(frozenset(order))
        lines.append(f"{names[-1]} = {_formula(terms, rng, op)}")

    for i in range(n_first, shape.n_nodes):
        want = int(rng.integers(2, 4))
        refs: list[int] = []
        union: frozenset[str] = frozenset()
        for _ in range(8 * want):
            j = int(rng.integers(len(names)))
            merged = union | support[j]
            if j not in refs and len(merged) <= shape.max_arity:
                refs.append(j)
                union = merged
                if len(refs) == want:
                    break
        terms = [names[j] for j in refs]
        if rng.random() < 0.3:
            extra = others[int(rng.integers(len(others)))]
            if extra not in union and len(union) < shape.max_arity:
                terms.append(_literal(extra, polarity[extra]))
                union = union | {extra}
        op = "AND" if rng.random() < 0.5 else "OR"
        names.append(f"g{i:03d}")
        support.append(union)
        lines.append(f"{names[-1]} = {_formula(terms, rng, op)}")
    return "\n".join(lines) + "\n"


def shape_stats(net, collapsed, shape: Shape = ECOLI) -> dict:
    """Shape statistics of a parsed and collapsed generated network."""
    from bnspectral.measures import unateness
    from bnspectral.netlang import effective_inputs, out_degree

    eff, _ = effective_inputs(collapsed)
    arities = [node.fn.arity for node in collapsed.nodes]
    return {
        "inputs": len(net.inputs),
        "effective_inputs": len(eff),
        "nodes": len(collapsed.nodes),
        "max_collapsed_arity": max(arities),
        "collapsed_arity_sum": sum(arities),
        "collapsed_in_degree_histogram": {str(k): v for k, v in sorted(Counter(arities).items())},
        "all_unate": all(unateness(node.fn).is_unate for node in collapsed.nodes),
        "hub_out_degrees": {name: out_degree(net, name) for name in hub_names(shape)},
    }


def shape_errors(stats: dict, shape: Shape = ECOLI) -> list[str]:
    """Reasons the statistics miss the target shape; empty when it is met."""
    errors = []
    if stats["inputs"] != shape.n_inputs:
        errors.append(f"{stats['inputs']} inputs, want {shape.n_inputs}")
    if stats["effective_inputs"] != shape.n_inputs:
        errors.append(f"{stats['effective_inputs']} effective inputs, want {shape.n_inputs}")
    if stats["nodes"] != shape.n_nodes:
        errors.append(f"{stats['nodes']} nodes, want {shape.n_nodes}")
    if stats["max_collapsed_arity"] > shape.max_arity:
        errors.append(f"collapsed arity {stats['max_collapsed_arity']} > {shape.max_arity}")
    if not stats["all_unate"]:
        errors.append("a collapsed node is not unate")
    want = dict(zip(hub_names(shape), shape.hub_degrees))
    if stats["hub_out_degrees"] != want:
        errors.append(f"hub out-degrees {stats['hub_out_degrees']}, want {want}")
    return errors
