"""Brute-force oracles that only the tests read.

Like ``bnspectral.reference``, they work from truth tables, joint
enumerations and expression trees, never from the fast transform, the
spectral formulas or collapse, so they check the optimized paths
independently (``test_oracles.py`` holds them to that).  Intended for
small arities only (cost is 2^n or worse).
"""

from __future__ import annotations

import numpy as np

from bnspectral.boolfn import BoolFn, ProductDist, SubsetMask, indices_of
from bnspectral.netlang import And, Const, Expr, Network, Not, Var
from bnspectral.reference import _group_index


def _assignments(n: int) -> list[tuple[int, ...]]:
    return [tuple(1 if (b >> i) & 1 else -1 for i in range(n)) for b in range(1 << n)]


def basis_column(d: ProductDist, mask: SubsetMask) -> np.ndarray:
    """Basis values for one subset at every assignment: the product over i
    in ``mask`` of (x_i - mu_i) / sigma_i, as in ``transform_naive``."""
    column = []
    for x in _assignments(d.arity):
        value = 1.0
        for i in indices_of(mask):
            value *= (x[i] - d.mu[i]) / d.sigma[i]
        column.append(value)
    return np.array(column)


def network_cond_entropy(tables: np.ndarray, d: ProductDist, mask: SubsetMask) -> float:
    """Exact H(Y | X_mask) for a deterministic node vector Y = g(X).

    ``tables`` is an (m, 2^n) 0/1 array, one row of outputs per node.
    Enumerates the joint distribution, so only suitable for small n and m.
    """
    m, size = tables.shape
    n = d.arity
    if size != 1 << n:
        raise ValueError("table width must be 2^arity")
    w = d.weights()
    y_index = np.zeros(size, dtype=np.int64)
    for j in range(m):
        y_index |= tables[j].astype(np.int64) << j
    group = _group_index(n, mask)
    k = bin(mask).count("1")
    total = 0.0
    for a in range(1 << k):
        sel = group == a
        pa = float(np.sum(w[sel]))
        if pa <= 0.0:
            continue
        counts = np.bincount(y_index[sel], weights=w[sel])
        probs = counts[counts > 0.0] / pa
        total += pa * float(-np.sum(probs * np.log2(probs)))
    return total


def noise_sensitivity_definitional(f: BoolFn, d: ProductDist, eps: float) -> float:
    """Pr[f(X) != f(X xor E)] summed over every flip pattern E, O(4^n)."""
    if f.arity != d.arity:
        raise ValueError("arity mismatch between function and distribution")
    n = f.arity
    s = f.bits
    w = d.weights()
    idx = np.arange(1 << n)
    total = 0.0
    for e in range(1 << n):
        k = bin(e).count("1")
        total += eps ** k * (1.0 - eps) ** (n - k) * float(np.dot(w, s != s[idx ^ e]))
    return total


def _eval_expr_bits(expr: Expr, columns: dict[str, np.ndarray], size: int) -> np.ndarray:
    """Evaluate over all assignments at once; columns hold 0/1 arrays."""
    if isinstance(expr, Var):
        return columns[expr.name]
    if isinstance(expr, Const):
        return np.full(size, 1 if expr.sign == 1 else 0, dtype=np.uint8)
    if isinstance(expr, Not):
        return 1 - _eval_expr_bits(expr.child, columns, size)
    parts = [_eval_expr_bits(c, columns, size) for c in expr.children]
    if isinstance(expr, And):
        return np.minimum.reduce(parts)
    return np.maximum.reduce(parts)


def evaluate_assignment(net: Network, assignment: dict[str, int]) -> dict[str, int]:
    """One synchronous forward pass: node states from input states."""
    values: dict[str, int] = {}
    for name in net.inputs:
        v = assignment[name]
        if v not in (-1, 1):
            raise ValueError("input values must be +1 or -1")
        values[name] = v

    def ev(expr: Expr) -> int:
        if isinstance(expr, Var):
            return values[expr.name]
        if isinstance(expr, Const):
            return expr.sign
        if isinstance(expr, Not):
            return -ev(expr.child)
        if isinstance(expr, And):
            return min(ev(c) for c in expr.children)
        return max(ev(c) for c in expr.children)

    for name, expr in net.defs:
        values[name] = ev(expr)
    return values


def node_tables(net: Network) -> dict[str, np.ndarray]:
    """Layer-by-layer outputs of every node over the full input space.

    Brute-force oracle for collapse soundness; cost 2^(number of inputs).
    """
    n = len(net.inputs)
    size = 1 << n
    idx = np.arange(size, dtype=np.int64)
    columns: dict[str, np.ndarray] = {
        name: ((idx >> i) & 1).astype(np.uint8) for i, name in enumerate(net.inputs)
    }
    out = {}
    for name, expr in net.defs:
        bits = _eval_expr_bits(expr, columns, size)
        columns[name] = bits
        out[name] = bits
    return out
