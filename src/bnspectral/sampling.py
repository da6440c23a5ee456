"""Random Boolean function generators for network baselines and tests.

Plain functions are drawn uniformly over all 2^(2^k) truth tables, and
``random_tables`` draws a trial's tables from one ``rng.bytes`` call: as
``Generator.bytes(n)`` takes ceil(n / 4) 32-bit words and keeps n bytes,
each table read at its own word offset is what a call of its own drew.  Unate
functions are drawn exactly uniformly for k <= 4 by enumerating the class;
for larger k a Markov chain over monotone functions (single-point flips
that preserve monotonicity, burned in, then composed with a uniform random
polarity vector) is used.  The chain targets the uniform distribution over
monotone functions, but the polarity composition overweights functions
with irrelevant variables, so the k >= 5 sampler is approximate.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .boolfn import BoolFn, _halves, default_labels

UNATE_ENUM_MAX_ARITY = 4
CHAIN_BLOCK = 1 << 14


def random_tables(arities: Sequence[int], rng: np.random.Generator) -> list[int]:
    """Uniform truth tables of the given arities, in order, from one
    ``rng.bytes`` call of ceil(2^k / 32) words per table.  No tables, no
    call: ``rng.bytes(0)`` takes a word."""
    words = [((1 << k) + 31) >> 5 for k in arities]
    raw = rng.bytes(4 * sum(words)) if words else b""
    tables, at = [], 0
    for k, w in zip(arities, words):
        tables.append(int.from_bytes(raw[at:at + 4 * w], "little") & ((1 << (1 << k)) - 1))
        at += 4 * w
    return tables


def sample_random_function(k: int, rng: np.random.Generator) -> BoolFn:
    """Uniform draw over all Boolean functions of k variables."""
    return BoolFn(k, default_labels(k), random_tables([k], rng)[0])


def _monotone_tables(k: int) -> tuple[int, ...]:
    """All monotone truth tables of arity k (the Dedekind numbers).

    f is monotone iff its restrictions f0 (x_{k-1} = -1, the low half of
    the table) and f1 (the high half) are monotone and f0 <= f1 pointwise.
    """
    if k == 0:
        return (0, 1)
    half = 1 << (k - 1)
    lower = _monotone_tables(k - 1)
    return tuple(f0 | f1 << half for f1 in lower for f0 in lower if not f0 & ~f1)


@lru_cache(maxsize=None)
def enumerate_unate_tables(k: int) -> tuple[int, ...]:
    """All unate truth tables of arity k, ascending (k <= 4 keeps this tractable).

    A function is unate iff negating some set of its variables makes it
    monotone, so the class is every monotone table under every polarity.
    """
    if k > UNATE_ENUM_MAX_ARITY:
        raise ValueError(f"unate enumeration supported up to arity {UNATE_ENUM_MAX_ARITY}")
    return tuple(sorted({_apply_polarities(table, k, neg_mask)
                         for table in _monotone_tables(k)
                         for neg_mask in range(1 << k)}))


def _neighbour_masks(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per point t of the cube: the table bits of its immediate predecessors
    (t with one set bit cleared) and of its immediate successors.  Built per
    draw: k 2^k steps against the chain's 32 k 2^k, and nothing kept after
    it (2 x 2^k ints of up to 2^k bits, about 3 MB at k = 12)."""
    pred, succ = [], []
    for t in range(1 << k):
        below = above = 0
        for j in range(k):
            if (t >> j) & 1:
                below |= 1 << (t & ~(1 << j))
            else:
                above |= 1 << (t | (1 << j))
        pred.append(below)
        succ.append(above)
    return tuple(pred), tuple(succ)


def sample_monotone_mcmc(k: int, rng: np.random.Generator) -> int:
    """Truth table of a monotone function via single-point-flip Glauber steps.

    The proposal (flip a uniformly chosen point if the result stays
    monotone) is symmetric, so the stationary distribution is uniform over
    monotone functions; the burn-in of 32 k 2^k steps from the all-false
    function is a pragmatic mixing budget, not a proven one.
    Clearing point t keeps monotonicity iff all its predecessors are 0;
    setting it, iff all its successors are 1.
    """
    size = 1 << k
    steps = 32 * k * size
    pred, succ = _neighbour_masks(k)
    one = [1 << t for t in range(size)]
    table = 0
    # Points are drawn a block at a time, so memory stays flat (all of them
    # at once take 12.6 MB at k = 12); the values, and the generator's state
    # after the chain, are those of a single draw.
    for start in range(0, steps, CHAIN_BLOCK):
        points = rng.integers(0, size, size=min(CHAIN_BLOCK, steps - start), dtype=np.int64)
        for t in points.tolist():
            if table & one[t]:
                if not table & pred[t]:
                    table ^= one[t]
            elif table & succ[t] == succ[t]:
                table |= one[t]
    return table


def _apply_polarities(table: int, k: int, neg_mask: int) -> int:
    """Negate the variables in neg_mask (new[b] = old[b ^ neg_mask]) by swapping halves."""
    for j in range(k):
        if (neg_mask >> j) & 1:
            lo, hi = _halves(table, k, j)
            table = (lo << (1 << j)) | hi
    return table


def sample_random_unate(k: int, rng: np.random.Generator) -> BoolFn:
    """Draw a unate function of k variables (exact for k <= 4)."""
    if k <= UNATE_ENUM_MAX_ARITY:
        tables = enumerate_unate_tables(k)
        return BoolFn(k, default_labels(k), tables[int(rng.integers(0, len(tables)))])
    monotone = sample_monotone_mcmc(k, rng)
    neg_mask = int(rng.integers(0, 1 << k))
    return BoolFn(k, default_labels(k), _apply_polarities(monotone, k, neg_mask))


def random_threshold_fn(n: int, rng: np.random.Generator) -> tuple[BoolFn, tuple[int, ...]]:
    """Random linear threshold function with random polarities.

    Returns the function and the polarity vector used; the result is unate
    with each polarity matching the sign of its weight.
    """
    weights = rng.standard_normal(n)
    signs_a = np.where(rng.random(n) < 0.5, 1, -1)
    theta = rng.standard_normal() * max(1.0, np.sqrt(n))
    idx = np.arange(1 << n, dtype=np.int64)
    cols = np.stack([(2.0 * ((idx >> i) & 1) - 1.0) for i in range(n)]) if n else np.zeros((0, 1))
    total = (np.abs(weights)[:, None] * signs_a[:, None] * cols).sum(axis=0) if n else np.zeros(1)
    bits = (total >= theta).astype(int)
    return BoolFn.from_bit_array(bits), tuple(int(a) for a in signs_a)
