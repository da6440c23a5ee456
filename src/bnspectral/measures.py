"""Perturbation and information measures of Boolean functions.

Influence and average sensitivity are computed definitionally (weighted
truth-table sums); their spectral forms are provided separately so each can
check the other.  Conditional entropy and mutual information go through the
spectral characterization, with binary entropy in bits throughout.
H(f | X_A) is a weighted sum over the 2^|A| entries of E[f | X_A], taken in
blocks of 2^ENTROPY_BLOCK_BITS entries with factored weights: it builds no
2^|A| weight array, and its entropy temporaries hold one block.

Truth-table measures take ``(f, d)``; spectral forms take the pair's
``Spectrum``, which carries both, so the pair is transformed once, and
``cond_entropy_spectral``'s ``d`` must be the spectrum's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boolfn import (
    BoolFn,
    ProductDist,
    Spectrum,
    SubsetMask,
    _check_cap,
    _check_same_arity,
    _check_spectrum_dist,
    _factors,
    _halves,
    _phi,
    _product_weights,
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
    if not 0 <= i < f.arity:
        raise IndexError(f"variable index {i} out of range for arity {f.arity}")
    _check_same_arity(f.arity, d)
    return _influence(f, d.weights(), i)


def _influence(f: BoolFn, weights: np.ndarray, i: int) -> float:
    """Influence of ``i`` given the 2^n assignment weights of the distribution."""
    s = f.bits.reshape(-1, 2, 1 << i)
    w = weights.reshape(-1, 2, 1 << i)
    differs = s[:, 0, :] != s[:, 1, :]
    return float(np.sum((w[:, 0, :] + w[:, 1, :]) * differs))


def influence_spectral(s: Spectrum, i: int) -> float:
    """Influence from the coefficients: sum of squares over sets containing i,
    divided by sigma_i^2."""
    if not 0 <= i < s.arity:
        raise IndexError(f"variable index {i} out of range for arity {s.arity}")
    masks = np.arange(1 << s.arity, dtype=np.int64)
    sel = (masks >> i) & 1 == 1
    return float(np.sum(s.coeffs[sel] ** 2) / s.d.sigma[i] ** 2)


def avg_sensitivity(f: BoolFn, d: ProductDist, mask: SubsetMask | None = None) -> float:
    """Sum of influences over the variables in ``mask`` (all, if omitted)."""
    if mask is None:
        mask = (1 << f.arity) - 1
    check_mask(mask, f.arity)
    _check_same_arity(f.arity, d)
    w = d.weights()
    return sum(_influence(f, w, i) for i in indices_of(mask))


def avg_sensitivity_spectral(s: Spectrum, mask: SubsetMask | None = None) -> float:
    """Spectral form: sum over S of coeff^2 times sum_{i in S and mask} 1/sigma_i^2."""
    if mask is None:
        mask = (1 << s.arity) - 1
    check_mask(mask, s.arity)
    inv_var = [1.0 / s.d.sigma[i] ** 2 if mask >> i & 1 else 0.0 for i in range(s.arity)]
    return float(np.dot(s.coeffs ** 2, _subset_sums(np.array(inv_var))))


def _subset_sums(w: np.ndarray) -> np.ndarray:
    """The (..., 2^k) table of sum_{i in S} w_i over every subset S of the
    last axis of ``w`` (..., k), added in ascending i."""
    masks = np.arange(1 << w.shape[-1], dtype=np.int64)
    sums = np.zeros(w.shape[:-1] + masks.shape)
    for i in range(w.shape[-1]):
        sums += ((masks >> i) & 1) * w[..., i:i + 1]
    return sums


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
    return _expected_entropy(cond, d.p[list(indices_of(mask))])


def _expected_entropy(cond: np.ndarray, p: np.ndarray) -> float:
    """E_w[H((1 + c) / 2)] over a compact table ``cond`` of 2^j conditional
    expectations, which is overwritten, with w the product weights of
    Pr[X_t = +1] = p[t].

    Above ENTROPY_BLOCK_BITS variables the weights factor as w_high (x)
    w_low: the low bits of the index are the first variables, so block h of
    2^ENTROPY_BLOCK_BITS consecutive entries has weights w_high[h] * w_low.
    A table of one block gives the same bits either way (w_high is [1.0]),
    but the block bookkeeping costs about 10 us a call: run through it, the
    identities benchmark's |A| <= 8 calls made its op_rel 5.9% higher over
    10 seed pairs (2-core Xeon), so one block is summed directly.

    A zero sum is returned as +0.0: the entropy of a certain outcome is
    computed as -(0.0 + -0.0), and a one-entry dot would keep that sign.
    """
    if len(p) <= ENTROPY_BLOCK_BITS:
        return float(np.dot(_product_weights(p), _entropy_of_expectations(cond))) + 0.0
    w_low = _product_weights(p[:ENTROPY_BLOCK_BITS])
    blocks = cond.reshape(-1, len(w_low))
    sums = np.array([np.dot(w_low, _entropy_of_expectations(b)) for b in blocks])
    return float(np.dot(_product_weights(p[ENTROPY_BLOCK_BITS:]), sums)) + 0.0


def cond_entropy(f: BoolFn, d: ProductDist, mask: SubsetMask) -> float:
    """H(f(X) | X_mask) in bits, iterating only over mask & relevant(f)."""
    check_mask(mask, f.arity)
    live = mask & relevant_variables(f)
    return cond_entropy_spectral(transform(f, d), d, live)


def mutual_information(s: Spectrum, mask: SubsetMask) -> float:
    """MI(f(X); X_mask) = H(f(X)) - H(f(X) | X_mask), in bits."""
    check_mask(mask, s.arity)
    h_out = binary_entropy(_clamp_prob((1.0 + s.coeff(0)) / 2.0))
    mi = h_out - cond_entropy_spectral(s, s.d, mask & relevant_variables(s.f))
    if mi < -CLAMP_BUDGET:
        raise ValueError(f"mutual information {mi} below zero beyond tolerance")
    return max(mi, 0.0)


def _clamp_prob(p: float) -> float:
    if not -CLAMP_BUDGET <= p <= 1.0 + CLAMP_BUDGET:
        raise ValueError(f"probability {p} outside [0,1] beyond tolerance")
    return min(max(p, 0.0), 1.0)


def _mi_single(c_empty: np.ndarray, c_i: np.ndarray, p: np.ndarray) -> np.ndarray:
    """MI(f(X); X_i) elementwise from c_empty, c_i and p = Pr[X_i = +1], not
    clamped at 0: E[f | x_i] = c_empty + c_i phi_i(x_i)."""
    lo, hi = _phi(p)
    return _entropy_arr((1.0 + c_empty) / 2.0) - (
        (1.0 - p) * _entropy_arr((1.0 + (c_empty + c_i * lo)) / 2.0)
        + p * _entropy_arr((1.0 + (c_empty + c_i * hi)) / 2.0))


def mi_single_from_coeffs(c_empty: float, c_i: float, p_i: float) -> float:
    """MI(f(X); X_i) as a function of the empty-set and singleton coefficients.

    Useful for studying how the single-variable mutual information varies
    with the singleton coefficient at fixed bias.
    """
    p = ProductDist((p_i,)).p
    return float(_mi_single(np.array([c_empty]), np.array([c_i]), p)[0])


@dataclass(frozen=True)
class EntropyBound:
    """Sandwich on H(f(X)|X_A) from the subset-restricted spectral weight."""

    lower: float
    exact: float
    upper: float


def entropy_bounds(s: Spectrum, mask: SubsetMask) -> EntropyBound:
    """Lower/upper bounds 1 - W and (1 - W)^(1/ln 4) around the exact value,
    where W is the squared coefficient weight on subsets of ``mask``."""
    check_mask(mask, s.arity)
    weight = float(np.sum(subset_coeffs(s, mask) ** 2))
    gap = min(max(1.0 - weight, 0.0), 1.0)
    live = mask & relevant_variables(s.f)
    return EntropyBound(
        lower=gap,
        exact=cond_entropy_spectral(s, s.d, live),
        upper=gap ** INV_LN4,
    )


def psi(x: float) -> float:
    """Entropy-variance gap term x^(1/ln 4) - x, in [0, 0.12) on [0,1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"argument {x} outside [0,1]")
    return x ** INV_LN4 - x


def variance(f: BoolFn, d: ProductDist) -> float:
    """Var f(X) = 1 - coeff(empty)^2, clamped against float noise."""
    p1 = _clamp_prob(prob_one(f, d))
    return 4.0 * p1 * (1.0 - p1)


def mi_influence_bound_check(s: Spectrum, mask: SubsetMask) -> tuple[float, float]:
    """Both sides of the sensitivity lower bound in terms of MI.

    Returns (sensitivity over mask, min 1/sigma^2 times (MI - psi(Var))).
    The caller asserts lhs >= rhs.
    """
    check_mask(mask, s.arity)
    if mask == 0:
        raise ValueError("mask must be nonempty")
    lhs = avg_sensitivity(s.f, s.d, mask)
    mi = mutual_information(s, mask)
    min_inv = min(1.0 / s.d.sigma[i] ** 2 for i in indices_of(mask))
    rhs = min_inv * (mi - psi(variance(s.f, s.d)))
    return lhs, rhs


def influence_entropy_identity(s: Spectrum, i: int) -> tuple[float, float]:
    """Influence of ``i`` alongside H(f(X)|X_rest) / H(X_i); the two agree."""
    if not 0 <= i < s.arity:
        raise IndexError(f"variable index {i} out of range for arity {s.arity}")
    rest = relevant_variables(s.f) & ~(1 << i)  # the live variables but i
    ratio = cond_entropy_spectral(s, s.d, rest) / binary_entropy(s.d.probs[i])
    return influence(s.f, s.d, i), ratio


def independence_test(s: Spectrum, mask: SubsetMask, tol: float = 1e-9) -> bool:
    """True iff every nonempty subset of ``mask`` has |coefficient| <= tol,
    which holds exactly when f(X) and X_mask are statistically independent."""
    check_mask(mask, s.arity)
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
    w = s.d.weights()
    rows = []
    for i in range(s.arity):
        a = prof.polarity[i] if prof.polarity[i] is not None else 1
        rows.append((i, s.coeff(1 << i), a * float(s.d.sigma[i]) * _influence(s.f, w, i)))
    return rows


def noise_sensitivity(f: BoolFn, d: ProductDist, eps: float, mode: str = "exact",
                      samples: int = 10 ** 6, seed: int | None = None) -> float:
    """Probability the output changes when each input flips independently
    with probability ``eps``.

    Exact mode costs O(n 2^n) at any arity up to the cap: it equals
    (1 - E[f(X) (T f)(X)]) / 2 with T the tensor power of the one-variable
    flip matrix [[1 - eps, eps], [eps, 1 - eps]].  The expectation is the
    bilinear form f . (W T) f with W = diag(Pr[X = x]), and W T is itself
    a tensor product, of [[q (1 - eps), q eps], [p eps, p (1 - eps)]] for
    Pr[X_i = +1] = p and q = 1 - p, so one ``kron_apply`` and one dot give
    it without a 2^n weight array.
    """
    if not 0.0 <= eps <= 0.5:
        raise ValueError(f"flip probability {eps} outside [0, 1/2]")
    if mode == "monte-carlo":
        return noise_sensitivity_mc(f, d, eps, samples=samples, seed=seed)[0]
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    _check_same_arity(f.arity, d)
    _check_cap(f.arity, None)
    p, q = d.p, 1.0 - d.p
    wt = _factors(q * (1.0 - eps), q * eps, p * eps, p * (1.0 - eps), p.shape)
    return max((1.0 - float(np.dot(f.signs, kron_apply(f.signs, wt)))) / 2.0, 0.0)


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
