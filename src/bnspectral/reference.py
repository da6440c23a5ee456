"""Brute-force reference computations on small instances.

Everything here works directly from truth tables and joint enumerations,
never from the fast transform or the spectral entropy formulas, so these
functions serve as independent cross-checks for the optimized paths.
Intended for small arities only (cost is 2^n or worse).
"""

from __future__ import annotations

import math

import numpy as np

from .boolfn import (
    BoolFn,
    ProductDist,
    Spectrum,
    SubsetMask,
    basis_eval,
    indices_of,
)


def _assignments(n: int) -> list[tuple[int, ...]]:
    return [tuple(1 if (b >> i) & 1 else -1 for i in range(n)) for b in range(1 << n)]


def basis_column(d: ProductDist, mask: SubsetMask) -> np.ndarray:
    """Basis values for one subset at every assignment."""
    return np.array([basis_eval(mask, x, d) for x in _assignments(d.arity)])


def transform_naive(f: BoolFn, d: ProductDist) -> Spectrum:
    """Each coefficient as a full weighted sum, B^T (w * f), over the whole
    basis matrix B[x, m] = prod_{i in m} (x_i - mu_i) / sigma_i."""
    if f.arity != d.arity:
        raise ValueError("arity mismatch between function and distribution")
    idx = np.arange(1 << f.arity)
    basis = np.ones((idx.size, idx.size))
    for i in range(f.arity):
        bit = (idx >> i) & 1
        phi = (np.where(bit, 1.0, -1.0) - d.mu[i]) / d.sigma[i]
        basis *= np.where(bit, phi[:, None], 1.0)
    return Spectrum(f.arity, basis.T @ (d.weights() * f.signs))


def _group_index(n: int, mask: SubsetMask) -> np.ndarray:
    """Compact index of each assignment's restriction to the masked variables."""
    idx = np.arange(1 << n, dtype=np.int64)
    out = np.zeros(1 << n, dtype=np.int64)
    for j, pos in enumerate(indices_of(mask)):
        out |= ((idx >> pos) & 1) << j
    return out


def cond_entropy_definitional(f: BoolFn, d: ProductDist, mask: SubsetMask) -> float:
    """H(f(X)|X_mask) summed over conditioning assignments from the joint."""
    n = f.arity
    w = d.weights()
    group = _group_index(n, mask)
    k = bin(mask).count("1")
    pr_a = np.bincount(group, weights=w, minlength=1 << k)
    pr_a_one = np.bincount(group, weights=w * f.bits, minlength=1 << k)
    total = 0.0
    for pa, pa1 in zip(pr_a, pr_a_one):
        if pa <= 0.0:
            continue
        q = pa1 / pa
        if 0.0 < q < 1.0:
            total += pa * (-q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q))
    return total


def output_entropy_definitional(f: BoolFn, d: ProductDist) -> float:
    p1 = float(np.dot(d.weights(), f.bits))
    if p1 <= 0.0 or p1 >= 1.0:
        return 0.0
    return -p1 * math.log2(p1) - (1.0 - p1) * math.log2(1.0 - p1)


def mutual_information_definitional(f: BoolFn, d: ProductDist, mask: SubsetMask) -> float:
    return output_entropy_definitional(f, d) - cond_entropy_definitional(f, d, mask)


def conditional_mean_definitional(f: BoolFn, d: ProductDist, mask: SubsetMask,
                                  xa: dict[int, int]) -> float:
    """E[f(X) | X_mask = xa] by direct weighted averaging."""
    w = d.weights()
    s = f.signs
    keep = np.ones(1 << f.arity, dtype=bool)
    idx = np.arange(1 << f.arity)
    for pos, v in xa.items():
        keep &= ((idx >> pos) & 1) == (1 if v == 1 else 0)
    denom = float(np.sum(w[keep]))
    return float(np.sum(w[keep] * s[keep])) / denom


def independent_definitional(f: BoolFn, d: ProductDist, mask: SubsetMask,
                             tol: float = 1e-9) -> bool:
    """Does the joint law of (f(X), X_mask) factor into its marginals?"""
    n = f.arity
    w = d.weights()
    group = _group_index(n, mask)
    k = bin(mask).count("1")
    joint = np.zeros((1 << k, 2))
    np.add.at(joint, (group, f.bits.astype(np.int64)), w)
    pa = joint.sum(axis=1)
    pf = joint.sum(axis=0)
    return bool(np.all(np.abs(joint - np.outer(pa, pf)) <= tol))


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
