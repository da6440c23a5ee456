"""Random Boolean function generators for network baselines and tests.

Plain functions are drawn uniformly over all 2^(2^k) truth tables, and
a trial's tables come from one ``rng.bytes`` call: as
``Generator.bytes(n)`` takes ceil(n / 4) 32-bit words and keeps n bytes,
each table read at its own word offset is what a call of its own drew.
``random_rows`` reads them as uint8 rows grouped by arity, with no int
between.  Unate tables, packed alike, are drawn exactly uniformly for
k <= 4 by enumeration; for larger k a Markov chain over monotone
functions (single-point flips that preserve monotonicity, burned in, then
composed with a uniform random polarity vector) is used.  A step at point t toggles t iff every immediate
predecessor of t is 0 and every immediate successor 1, one test of a
per-point key; the keys are built once per arity up to
``CHAIN_KEYS_MAX_ARITY`` and per draw above it.  The chain targets the
uniform distribution over monotone functions, but the polarity composition
overweights functions with irrelevant variables, so the k >= 5 sampler is
approximate.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .boolfn import BoolFn, _halves, _table_bytes, _unpack_tables, default_labels

UNATE_ENUM_MAX_ARITY = 4
CHAIN_BLOCK = 1 << 14
CHAIN_KEYS_MAX_ARITY = 8


def _table_words(k):
    """The 32-bit words of ``rng.bytes`` that a table of arity k takes,
    ceil(2^k / 32), for an int k or an array of them."""
    return ((1 << k) + 31) >> 5


def random_rows(arities: np.ndarray, rng: np.random.Generator,
                unate: bool = False) -> dict[int, np.ndarray]:
    """The tables that ``sample_random_function``, or with ``unate``
    ``sample_random_unate``, draws per arity in order, as uint8 rows by
    arity: k maps to the (m, 2^k) rows of the arity-k tables, in order, bit
    b in column b.  No tables, no call: ``rng.bytes(0)`` takes a word."""
    ks = np.flatnonzero(np.bincount(arities)).tolist()  # np.unique's sort costs resident memory
    if unate:
        tables = [sample_random_unate(k, rng) for k in arities.tolist()]
        return {k: _unpack_tables([tables[i] for i in np.flatnonzero(arities == k).tolist()], k)
                for k in ks}
    size = 4 * _table_words(arities)
    raw = np.frombuffer(rng.bytes(int(size.sum())) if len(size) else b"", dtype=np.uint8)
    at = np.cumsum(size) - size  # each table's first byte
    return {k: np.unpackbits(raw[at[arities == k, None] + np.arange(_table_bytes(k))],
                             axis=1, bitorder="little")[:, :1 << k] for k in ks}


def sample_random_function(k: int, rng: np.random.Generator) -> BoolFn:
    """Uniform draw over all Boolean functions of k variables."""
    table = int.from_bytes(rng.bytes(_table_bytes(k)), "little") & ((1 << (1 << k)) - 1)
    return BoolFn(k, default_labels(k), table)


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


def _chain_keys_built(k: int) -> tuple[int, ...]:
    """Per point t, the chain's key over z = ~S | S << 2^k, S the table in
    2^k bits: the bits of t's immediate successors (t with one clear bit
    set) in ~S and of its immediate predecessors (one set bit cleared) in
    S, so z & keys[t] is 0 iff every successor is 1 and every predecessor 0."""
    size = 1 << k
    keys = []
    for t in range(size):
        below = above = 0
        for j in range(k):
            if (t >> j) & 1:
                below |= 1 << (t & ~(1 << j))
            else:
                above |= 1 << (t | (1 << j))
        keys.append(above | below << size)
    return tuple(keys)


_CHAIN_KEYS: dict[int, tuple[int, ...]] = {}


def _chain_keys(k: int) -> tuple[int, ...]:
    """``_chain_keys_built(k)``, kept from the first draw for k up to
    ``CHAIN_KEYS_MAX_ARITY`` (22 KB at k = 8, 34 KB for k = 5..8 together)
    and built per draw above it (0.9 MB at k = 11: k 2^k steps against the
    chain's 32 k 2^k, and nothing kept after it)."""
    keys = _CHAIN_KEYS.get(k)
    if keys is None:
        keys = _chain_keys_built(k)
        if k <= CHAIN_KEYS_MAX_ARITY:
            _CHAIN_KEYS[k] = keys
    return keys


def sample_monotone_mcmc(k: int, rng: np.random.Generator) -> int:
    """Truth table of a monotone function via single-point-flip Glauber steps.

    The proposal (flip a uniformly chosen point if the result stays
    monotone) is symmetric, so the stationary distribution is uniform over
    monotone functions; the burn-in of 32 k 2^k steps from the all-false
    function is a pragmatic mixing budget, not a proven one.
    Clearing point t keeps monotonicity iff all its predecessors are 0;
    setting it, iff all its successors are 1.  In a monotone table one of
    the two always holds already, so a step tests both at once, one mask
    test on the keys of ``_chain_keys``, and toggles t in both halves of z
    when they hold, without reading bit t.
    """
    size = 1 << k
    steps = 32 * k * size
    keys = _chain_keys(k)
    both = 1 | 1 << size  # bit 0 of ~S and of S
    z = (1 << size) - 1  # the all-false table
    # Points are drawn a block at a time, so memory stays flat (all of them
    # at once take 12.6 MB at k = 12); the values, and the generator's state
    # after the chain, are those of a single draw.
    for start in range(0, steps, CHAIN_BLOCK):
        points = rng.integers(0, size, size=min(CHAIN_BLOCK, steps - start), dtype=np.int64)
        for t in points.tolist():
            if not z & keys[t]:
                z ^= both << t
    return z >> size


def _apply_polarities(table: int, k: int, neg_mask: int) -> int:
    """Negate the variables in neg_mask (new[b] = old[b ^ neg_mask]) by swapping halves."""
    for j in range(k):
        if (neg_mask >> j) & 1:
            lo, hi = _halves(table, k, j)
            table = (lo << (1 << j)) | hi
    return table


def sample_random_unate(k: int, rng: np.random.Generator) -> int:
    """Truth table of a unate function of k variables (exact for k <= 4)."""
    if k <= UNATE_ENUM_MAX_ARITY:
        tables = enumerate_unate_tables(k)
        return tables[int(rng.integers(0, len(tables)))]
    monotone = sample_monotone_mcmc(k, rng)
    return _apply_polarities(monotone, k, int(rng.integers(0, 1 << k)))


def random_threshold_fn(n: int, rng: np.random.Generator) -> tuple[BoolFn, tuple[int, ...]]:
    """Random linear threshold function with random polarities.

    Returns the function and the polarity vector used; the result is unate
    with each polarity matching the sign of its weight.
    """
    weights = rng.standard_normal(n)
    signs_a = np.where(rng.random(n) < 0.5, 1, -1)
    theta = rng.standard_normal() * max(1.0, np.sqrt(n))
    idx = np.arange(1 << n, dtype=np.int64)
    cols = ((idx >> np.arange(n)[:, None]) & 1) * 2.0 - 1.0  # (n, 2^n) of +-1
    total = (np.abs(weights)[:, None] * signs_a[:, None] * cols).sum(axis=0)
    bits = (total >= theta).astype(int)
    return BoolFn.from_bit_array(bits), tuple(int(a) for a in signs_a)
