"""Perturbation and information measures of Boolean functions.

Influence and average sensitivity are truth-table sums weighted by
``ProductDist.weights()``, built once per distribution.  Their spectral forms,
kept apart so each can check the other, and the network scatter are the one
row kernel ``_sensitivity_sum`` of sum_S c_S^2 sum_{i in S} w_i, w = ``ProductDist.inv_var``,
over the ``boolfn._subset_sums`` table that also builds subset masks and gather indices.
Conditional entropy and mutual information go through the spectral
characterization, in bits, on the relevant variables of the mask alone: a
mask that holds every relevant variable leaves exactly 0 bits, not float noise.
Every H(f | X_A) is the row kernel ``_entropy_given``: one ``kron_apply``
gives E[f | X_A], one ``_expected_entropy`` sums it.  ``_cond_entropy_rows``
runs a spectrum's masks through it (a batch of one as ``cond_entropy_spectral``),
and so do the network's D(j) and A(l), and ``_mi_single``, the kernel of
``mi_single_from_coeffs`` and of the self-test.
``mutual_information`` also takes a sequence of masks, whose rows of one
live size share one batch.
H(f | X_A) is a weighted sum over the 2^|A| entries of E[f | X_A], taken in
blocks of 2^ENTROPY_BLOCK_BITS entries with factored weights: it builds no
2^|A| weight array, and its entropy temporaries hold one block per row: one
row for a spectrum, one per node for a batch of the network curve A(l).

Truth-table measures take ``(f, d)``; spectral forms take the pair's
``Spectrum``, which carries both, so the pair is transformed once, and
``cond_entropy_spectral``'s ``d`` must be the spectrum's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .boolfn import (
    GROUPED_MIN_ARITY,
    BoolFn,
    ProductDist,
    Spectrum,
    SubsetMask,
    _check_cap,
    _check_same_arity,
    _check_spectrum_dist,
    _factors,
    _halves,
    _product_weights,
    _subset_index,
    _subset_sums,
    check_index,
    check_mask,
    conditional_expectation_table,
    indices_of,
    kron_apply,
    relevant_variables,
    subset_coeffs,
    transform,
)

INV_LN4 = 1.0 / math.log(4.0)

# Magnitude of float noise we silently absorb when clamping probabilities
# and mutual informations; anything larger raises.
CLAMP_BUDGET = 1e-9

SMALLEST_SUBNORMAL = np.finfo(np.float64).smallest_subnormal

# H(f | X_A) is summed in blocks of 2^ENTROPY_BLOCK_BITS float64 entries
# (128 KB at 14), so the clip/q/log temporaries of a block stay in L2.
# In-process medians of cond_entropy_spectral on all variables but one
# (2-core Xeon, 2 MB L2) at 12 / 13 / 14 / 15 / 16 bits: n = 16 1.34 / 1.19 /
# 1.16 / 2.05 / 2.09 ms, n = 20 16.1 / 14.4 / 13.9 / 13.8 / 14.0 ms, n = 24
# 331 / 302 / 271 / 279 / 271 ms; one full-table sum took 1.9, 26 and 433 ms.
ENTROPY_BLOCK_BITS = 14


def binary_entropy(p: float) -> float:
    """Entropy in bits of a Bernoulli(p), with 0 log 0 taken as 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0,1]")
    if p in (0.0, 1.0):
        return 0.0
    # np.log2, as in _entropy_arr, so the two agree to the last bit
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def _left_sum(values: Iterable[float]) -> float:
    """The floats added one at a time, left to right.  Builtin ``sum`` adds
    floats with compensation from Python 3.12 on, which changes last bits
    of reported sums between Python versions; this keeps one order."""
    total = 0.0
    for v in values:
        total += v
    return total


def _entropy_arr(p: np.ndarray) -> np.ndarray:
    """Vectorized binary entropy; input may carry <= CLAMP_BUDGET float noise.
    Leaves ``p`` untouched."""
    if p.size and (p.min() < -CLAMP_BUDGET or p.max() > 1.0 + CLAMP_BUDGET):
        raise ValueError("probabilities outside [0,1] beyond tolerance")
    p = np.clip(p, 0.0, 1.0)
    q = 1.0 - p
    # log2 of the smallest subnormal is finite (-1074), so 0 log 0 comes out
    # as a zero without a warning, and every p > 0 keeps its own log2(p)
    log = np.maximum(p, SMALLEST_SUBNORMAL)
    p *= np.log2(log, out=log)
    np.maximum(q, SMALLEST_SUBNORMAL, out=log)
    q *= np.log2(log, out=log)
    p += q
    return np.negative(p, out=p)


def _entropy_of_expectations(cond: np.ndarray) -> np.ndarray:
    """Binary entropy of (1 + c) / 2 for each entry c of a table of
    conditional expectations E[f | X_A], which is overwritten."""
    cond += 1.0
    cond *= 0.5
    return _entropy_arr(cond)


def influence(f: BoolFn, d: ProductDist, i: int) -> float:
    """Probability that flipping input ``i`` changes the output."""
    check_index(i, f.arity)
    _check_same_arity(f.arity, d)
    s = f.bits.reshape(-1, 2, 1 << i)
    w = d.weights().reshape(-1, 2, 1 << i)
    return float(np.sum((w[:, 0, :] + w[:, 1, :]) * (s[:, 0, :] != s[:, 1, :])))


def influence_spectral(s: Spectrum, i: int) -> float:
    """Influence from the coefficients: the average sensitivity over i alone."""
    check_index(i, s.arity)
    return avg_sensitivity_spectral(s, 1 << i)


def avg_sensitivity(f: BoolFn, d: ProductDist, mask: SubsetMask | None = None) -> float:
    """Sum of influences over the variables in ``mask`` (all, if omitted)."""
    if mask is None:
        mask = (1 << f.arity) - 1
    check_mask(mask, f.arity)
    _check_same_arity(f.arity, d)
    return _left_sum(influence(f, d, i) for i in indices_of(mask))


def avg_sensitivity_spectral(s: Spectrum, mask: SubsetMask | None = None) -> float:
    """Spectral form: sum over S of coeff^2 times sum_{i in S and mask} 1/sigma_i^2."""
    if mask is None:
        mask = (1 << s.arity) - 1
    check_mask(mask, s.arity)
    w = np.where([mask >> i & 1 for i in range(s.arity)], s.d.inv_var, 0.0)
    return float(_sensitivity_sum(s.coeffs, w))


def _sensitivity_sum(coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_S c_S^2 sum_{i in S} w_i per row of ``coeffs`` (..., 2^k), with
    float weights ``w`` (..., k); a 1-D row gives a scalar.  The inner sums
    are ``_subset_sums(w)``, one entry per subset S, added in ascending i."""
    return _row_dot(coeffs ** 2, _subset_sums(w))


def output_entropy(f: BoolFn, d: ProductDist) -> float:
    """H(f(X)) in bits."""
    return binary_entropy(_clamp_prob(prob_one(f, d)))


def prob_one(f: BoolFn, d: ProductDist) -> float:
    _check_same_arity(f.arity, d)
    return float(np.dot(d.weights(), f.bits))


def cond_entropy_spectral(s: Spectrum, d: ProductDist, mask: SubsetMask) -> float:
    """H(f(X) | X_mask) from the coefficients of subsets of ``mask``.

    Expected binary entropy of (1 + E[f | X_mask]) / 2 over the masked
    variables' assignments, summed by ``_expected_entropy`` in blocks of
    2^ENTROPY_BLOCK_BITS entries: no 2^|mask| weight array is built, and
    the entropy temporaries hold one block.
    """
    check_mask(mask, s.arity)
    _check_spectrum_dist(s, d)
    cond = conditional_expectation_table(s, mask)
    return float(_expected_entropy(cond, d.p[list(indices_of(mask))]))


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, each summed as ``np.dot`` would."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _expected_entropy(cond: np.ndarray, p: np.ndarray) -> np.ndarray:
    """E_w[H((1 + c) / 2)] per row of ``cond`` (..., 2^j), a table of
    conditional expectations that is overwritten, with w the product weights
    of Pr[X_t = +1] = p[..., t]; a 1-D table is one row and gives a scalar.

    Above ENTROPY_BLOCK_BITS variables the weights factor as w_high (x)
    w_low: the low bits of the index are the first variables, so block h of
    a row's 2^ENTROPY_BLOCK_BITS-entry blocks has weights w_high[h] * w_low.
    A row of one block gives the same bits either way (w_high is [1.0]), but
    the bookkeeping costs about 10 us a call: run through it, the identities
    benchmark's |A| <= 8 calls made its op_rel 5.9% higher over 10 seed
    pairs (2-core Xeon), so one block is summed directly.

    A zero sum is returned as +0.0: the entropy of a certain outcome is
    computed as -(0.0 + -0.0), and np.dot keeps that sign for one entry.
    """
    if p.shape[-1] <= ENTROPY_BLOCK_BITS:
        return _row_dot(_product_weights(p), _entropy_of_expectations(cond)) + 0.0
    w_low = _product_weights(p[..., :ENTROPY_BLOCK_BITS])
    blocks = cond.reshape(*cond.shape[:-1], -1, w_low.shape[-1])
    sums = np.stack([_row_dot(w_low, _entropy_of_expectations(blocks[..., h, :]))
                     for h in range(blocks.shape[-2])], axis=-1)
    return _row_dot(_product_weights(p[..., ENTROPY_BLOCK_BITS:]), sums) + 0.0


def _cond_entropy_rows(s: Spectrum, masks: Sequence[SubsetMask]) -> np.ndarray:
    """H(f(X) | X_mask) per mask, in mask order, over the relevant variables
    of each mask; exactly 0.0 for a mask that holds them all, as f is then
    known, not the sum's noise.

    The rows of one live size j are one batch, as in ``uncertainty_curve``:
    one ``_entropy_given`` call on their gathered subset coefficients.  A
    batch of one row is ``cond_entropy_spectral`` on the live mask, and so
    is every row of GROUPED_MIN_ARITY or more live variables, alone:
    ``kron_apply`` groups the stages of a 1-D table only, so each row keeps
    the bits of a call of its own, and wide tables are never stacked.
    """
    rel = relevant_variables(s.f)
    h = np.zeros(len(masks))
    batches: dict[tuple[int, int], list[tuple[int, SubsetMask]]] = {}
    for r, mask in enumerate(masks):
        check_mask(mask, s.arity)
        if rel & ~mask:  # else f is known
            live = mask & rel
            j = bin(live).count("1")
            batches.setdefault((j, r if j >= GROUPED_MIN_ARITY else -1), []).append((r, live))
    for batch in batches.values():
        if len(batch) == 1:
            (r, live), = batch
            h[r] = cond_entropy_spectral(s, s.d, live)
            continue
        rows = [r for r, _ in batch]
        idx = np.array([indices_of(live) for _, live in batch], dtype=np.int64)
        h[rows] = _entropy_given(s.coeffs[_subset_index(idx)], idx, s.d)
    return h


def _entropy_given(sub: np.ndarray, ranks: np.ndarray, d: ProductDist) -> np.ndarray:
    """H(f | X_A) per row of the subset coefficients ``sub`` (m, 2^j) of f,
    gathered on A, the variables ``ranks`` (m, j) of ``d``; a 1-D row gives
    a scalar.  One ``kron_apply`` with per-row inverse factors gives the
    rows of E[f | X_A], and one ``_expected_entropy`` sums them."""
    # gathered by the transposed ranks, the factors come first, as kron_apply takes them
    return _expected_entropy(kron_apply(sub, d._inverse[ranks.T]), d.p[ranks])


def _cond_entropy_live(s: Spectrum, mask: SubsetMask) -> float:
    """H(f(X) | X_mask) by ``_cond_entropy_rows`` as a batch of one."""
    return float(_cond_entropy_rows(s, (mask,))[0])


def cond_entropy(f: BoolFn, d: ProductDist, mask: SubsetMask) -> float:
    """H(f(X) | X_mask) in bits; 0.0 when ``mask`` holds every relevant variable."""
    return _cond_entropy_live(transform(f, d), mask)


def mutual_information(s: Spectrum, mask: SubsetMask | Sequence[SubsetMask]
                       ) -> float | np.ndarray:
    """MI(f(X); X_mask) = H(f(X)) - H(f(X) | X_mask), in bits.  An int mask
    gives a float; a sequence of masks gives a float64 array in mask order,
    from one ``_cond_entropy_rows`` call."""
    h_out = binary_entropy(_clamp_prob((1.0 + s.coeff(0)) / 2.0))
    if not isinstance(mask, (int, np.integer)):
        return _clamped_mi(h_out - _cond_entropy_rows(s, mask))
    mi = h_out - _cond_entropy_live(s, mask)
    # a nonnegative MI, the common case, passes the rule unchanged
    return mi if mi >= 0.0 else float(_clamped_mi(mi))


def _clamped_mi(mi: float | np.ndarray) -> float | np.ndarray:
    """Mutual information, a float or an array, clamped at 0: float noise may
    take it down to -CLAMP_BUDGET, and anything lower is an error."""
    low = np.min(mi, initial=0.0)
    if low < -CLAMP_BUDGET:
        raise ValueError(f"mutual information {low} below zero beyond tolerance")
    return np.maximum(mi, 0.0)


def _clamp_prob(p: float) -> float:
    if not -CLAMP_BUDGET <= p <= 1.0 + CLAMP_BUDGET:
        raise ValueError(f"probability {p} outside [0,1] beyond tolerance")
    return min(max(p, 0.0), 1.0)


def _mi_single(c_empty: np.ndarray, c_i: np.ndarray, ranks: np.ndarray,
               d: ProductDist) -> np.ndarray:
    """MI(f(X); X_i) per variable i = ``ranks`` (..., k) of ``d``, not clamped
    at 0, from f's empty-set coefficients ``c_empty`` (..., 1) and singleton
    coefficients ``c_i`` (..., k): H(f) less ``_entropy_given`` on each pair."""
    pairs = np.empty((*c_i.shape, 2))
    pairs[..., 0], pairs[..., 1] = c_empty, c_i
    h = _entropy_given(pairs.reshape(-1, 2), ranks.reshape(-1, 1), d).reshape(c_i.shape)
    return _entropy_of_expectations(c_empty.copy()) - h


def mi_single_from_coeffs(c_empty: float, c_i: float, p_i: float) -> float:
    """MI(f(X); X_i) as a function of the empty-set and singleton coefficients.

    Useful for studying how the single-variable mutual information varies
    with the singleton coefficient at fixed bias.
    """
    return float(_mi_single(np.array([c_empty]), np.array([c_i]), np.arange(1),
                            ProductDist((p_i,)))[0])


@dataclass(frozen=True)
class EntropyBound:
    """Sandwich on H(f(X)|X_A) from the subset-restricted spectral weight."""

    lower: float
    exact: float
    upper: float


def entropy_bounds(s: Spectrum, mask: SubsetMask) -> EntropyBound:
    """Lower/upper bounds 1 - W and (1 - W)^(1/ln 4) around the exact value,
    where W is the squared coefficient weight on subsets of ``mask``."""
    weight = float(np.sum(subset_coeffs(s, mask) ** 2))
    gap = _clamp_prob(1.0 - weight)
    return EntropyBound(lower=gap, exact=_cond_entropy_live(s, mask), upper=gap ** INV_LN4)


def psi(x: float) -> float:
    """Entropy-variance gap term x^(1/ln 4) - x, in [0, 0.12) on [0,1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"argument {x} outside [0,1]")
    return x ** INV_LN4 - x


def variance(f: BoolFn, d: ProductDist) -> float:
    """Var f(X) = 4 p (1 - p) from p = ``prob_one(f, d)``, clamped against float noise."""
    p1 = _clamp_prob(prob_one(f, d))
    return 4.0 * p1 * (1.0 - p1)


def mi_influence_bound_check(s: Spectrum, mask: SubsetMask) -> tuple[float, float]:
    """Both sides of the sensitivity lower bound in terms of MI.

    Returns (sensitivity over mask, min 1/sigma^2 times (MI - psi(Var))).
    The caller asserts lhs >= rhs.
    """
    if mask == 0:
        raise ValueError("mask must be nonempty")
    lhs = avg_sensitivity(s.f, s.d, mask)
    mi = mutual_information(s, mask)
    min_inv = s.d.inv_var[list(indices_of(mask))].min()
    rhs = min_inv * (mi - psi(variance(s.f, s.d)))
    return lhs, rhs


def influence_entropy_identity(s: Spectrum, i: int) -> tuple[float, float]:
    """Influence of ``i`` alongside H(f(X)|X_rest) / H(X_i); the two agree."""
    inf = influence(s.f, s.d, i)
    rest = ((1 << s.arity) - 1) ^ (1 << i)
    return inf, _cond_entropy_live(s, rest) / binary_entropy(s.d.probs[i])


def independence_test(s: Spectrum, mask: SubsetMask, tol: float = 1e-9) -> bool:
    """True iff every nonempty subset of ``mask`` has |coefficient| <= tol,
    which holds exactly when f(X) and X_mask are statistically independent."""
    sub = subset_coeffs(s, mask)
    return bool(np.all(np.abs(sub[1:]) <= tol))


@dataclass(frozen=True)
class UnatenessProfile:
    """Per-variable local monotonicity.

    Polarity entries: +1 (nondecreasing), -1 (nonincreasing), None for an
    irrelevant variable (either direction holds), 0 when neither direction
    holds, which witnesses non-unateness.
    """

    is_unate: bool
    polarity: tuple[int | None, ...]


# (nondecreasing, nonincreasing) to polarity
_POLARITY = {(True, True): None, (True, False): 1, (False, True): -1, (False, False): 0}


def unateness(f: BoolFn) -> UnatenessProfile:
    """Compare the two restrictions of each variable pointwise: x_i is
    nondecreasing when the x_i = -1 half of the table lies within the
    x_i = +1 half, and nonincreasing when it contains it."""
    polarity = []
    for i in range(f.arity):
        lo, hi = _halves(f.table, f.arity, i)
        polarity.append(_POLARITY[not lo & ~hi, not hi & ~lo])
    return UnatenessProfile(0 not in polarity, tuple(polarity))


def unate_coefficient_check(s: Spectrum) -> list[tuple[int, float, float]]:
    """Rows (i, singleton coefficient, a_i sigma_i I_i) for a unate function."""
    prof = unateness(s.f)
    if not prof.is_unate:
        raise ValueError("function is not unate")
    a = [1 if pol is None else pol for pol in prof.polarity]
    return [(i, s.coeff(1 << i), a[i] * float(s.d.sigma[i]) * influence(s.f, s.d, i))
            for i in range(s.arity)]


def noise_sensitivity(f: BoolFn, d: ProductDist, eps: float, mode: str = "exact") -> float:
    """Probability the output changes when each input flips independently
    with probability ``eps``; ``mode`` accepts only ``"exact"``.

    It is exact and costs O(n 2^n) at any arity up to the cap: it equals
    (1 - E[f(X) (T f)(X)]) / 2 with T the tensor power of the one-variable
    flip matrix [[1 - eps, eps], [eps, 1 - eps]].  The expectation is the
    bilinear form f . (W T) f with W = diag(Pr[X = x]), and W T is itself
    a tensor product, of [[q (1 - eps), q eps], [p eps, p (1 - eps)]] for
    Pr[X_i = +1] = p and q = 1 - p, so one ``kron_apply`` and one dot give
    it without a 2^n weight array.
    """
    if not 0.0 <= eps <= 0.5:
        raise ValueError(f"flip probability {eps} outside [0, 1/2]")
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    _check_same_arity(f.arity, d)
    _check_cap(f.arity, None)
    p, q = d.p, 1.0 - d.p
    wt = _factors(q * (1.0 - eps), q * eps, p * eps, p * (1.0 - eps), p.shape)
    signs = f.signs
    return _clamp_prob((1.0 - float(np.dot(signs, kron_apply(signs, wt)))) / 2.0)


def noise_sensitivity_mc(f: BoolFn, d: ProductDist, eps: float,
                         samples: int = 10 ** 6, seed: int | None = None) -> tuple[float, float]:
    """Monte-Carlo estimate with its standard error, seedable for reproducibility."""
    if not 0.0 <= eps <= 0.5:
        raise ValueError(f"flip probability {eps} outside [0, 1/2]")
    _check_same_arity(f.arity, d)
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(seed)
    n = f.arity
    pow2 = (1 << np.arange(n)).astype(np.int64)
    x_bits = (rng.random((samples, n)) < d.p).astype(np.int64)
    flips = (rng.random((samples, n)) < eps).astype(np.int64)
    xi = x_bits @ pow2
    yi = (x_bits ^ flips) @ pow2
    s = f.bits
    diff = s[xi] != s[yi]
    est = float(np.mean(diff))
    return est, math.sqrt(max(est * (1.0 - est), 0.0) / samples)
