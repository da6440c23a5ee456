"""Boolean functions over {-1,+1}^n, product input distributions, and the
orthonormal (Bahadur) basis transform.

Conventions used throughout the package:

* Assignment index ``b``: bit ``i`` of ``b`` is 1 iff ``x_i = +1``.
* Truth table: bit ``b`` of ``BoolFn.table`` is 1 iff the function value at
  assignment ``b`` is +1 (0 encodes -1).
* Subset masks: a set ``S`` of variable indices is the int with bit ``i``
  set for each ``i`` in ``S``.  ``Spectrum.coeffs[m]`` is the coefficient
  of the basis function indexed by the subset encoded in ``m``.

Every basis change is a tensor product of 2x2 matrices, one per variable,
applied by ``kron_apply`` in Yates' order: each stage contracts the top
index bit (the highest variable still pending) and writes it back as the
bottom bit, so after ``n`` stages the index order is restored.  A single
function of ``GROUPED_MIN_ARITY`` or more variables is transformed in
grouped stages instead: ``GROUP`` consecutive factors are multiplied out
into one 16x16 matrix, so each stage contracts four bits and the array is
passed over about n/4 times rather than n.  Each group is built by
broadcast products, which cost far less than the stages they save from 13
variables on (the sweep is above ``GROUPED_MIN_ARITY``).  Truth tables
serialize to little-endian hex strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

ARITY_CAP_DEFAULT = 25

# Grouped stages cost their factor build, about 40 us for 16 variables as
# broadcast products (np.kron took about 230 us), plus n/4 passes where the
# 2x2 stages make n.  kron_apply medians, 2x2 against grouped stages (2-core
# Xeon, NumPy 2.4.6): n = 11 36 / 39 us, 12 53 / 48, 13 91 / 69, 14 162 / 97,
# 15 311 / 148, 16 959 / 660, 17 2267 / 1405 us.  From 13 on grouped stages
# won at least 96% of interleaved pairs; at 12 the gain is about 10% and did
# not hold on every machine, so 12 variables stay on 2x2 stages.
GROUPED_MIN_ARITY = 13
GROUP = 4

SubsetMask = int


class ArityCapError(ValueError):
    """Dense 2^n construction refused because n exceeds the configured cap."""

    def __init__(self, arity: int, cap: int, name: str | None = None):
        self.arity = arity
        self.cap = cap
        self.name = name
        where = f" for node {name!r}" if name else ""
        super().__init__(f"arity {arity} exceeds cap {cap}{where}")


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n))


def mask_of(indices: Iterable[int]) -> SubsetMask:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def indices_of(mask: SubsetMask) -> tuple[int, ...]:
    out = []
    i = 0
    m = mask
    while m:
        if m & 1:
            out.append(i)
        m >>= 1
        i += 1
    return tuple(out)


def check_mask(mask: SubsetMask, arity: int) -> None:
    if mask < 0 or mask >> arity:
        raise ValueError(f"mask {mask:#x} has bits outside arity {arity}")


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _check_cap(arity: int, cap: int | None, name: str | None = None) -> None:
    limit = ARITY_CAP_DEFAULT if cap is None else cap
    if arity > limit:
        raise ArityCapError(arity, limit, name)


@dataclass(frozen=True)
class BoolFn:
    """A Boolean function as a bit-packed truth table with labeled inputs."""

    arity: int
    labels: tuple[str, ...]
    table: int

    def __post_init__(self):
        if self.arity < 0:
            raise ValueError("arity must be nonnegative")
        if len(self.labels) != self.arity:
            raise ValueError("labels length must equal arity")
        if len(set(self.labels)) != self.arity:
            raise ValueError("labels must be unique")
        if self.table < 0 or self.table.bit_length() > (1 << self.arity):
            raise ValueError("table does not fit in 2^arity bits")

    @classmethod
    def from_bit_array(cls, bits: np.ndarray, labels: Sequence[str] | None = None) -> BoolFn:
        """Packed-int construction from a 0/1 array of length 2^n."""
        n = (len(bits) - 1).bit_length()
        if len(bits) != 1 << n:
            raise ValueError("bit count must be a power of two")
        table = _pack_bits(bits.astype(np.uint8))
        return cls(n, tuple(labels) if labels is not None else default_labels(n), table)

    @classmethod
    def from_callable(cls, n: int, fn: Callable[[tuple[int, ...]], int],
                      labels: Sequence[str] | None = None) -> BoolFn:
        """Tabulate ``fn`` over all sign assignments of ``n`` variables."""
        _check_cap(n, None)
        bits = []
        for b in range(1 << n):
            x = tuple(1 if (b >> i) & 1 else -1 for i in range(n))
            v = fn(x)
            if v not in (-1, 1):
                raise ValueError("function must return +1 or -1")
            bits.append((v + 1) // 2)
        return cls.from_bit_array(np.array(bits, dtype=np.uint8), labels)

    @classmethod
    def from_hex(cls, hex_str: str, labels: Sequence[str]) -> BoolFn:
        n = len(labels)
        nbytes = max(1, (1 << n) + 7 >> 3)
        raw = bytes.fromhex(hex_str)
        if len(raw) != nbytes:
            raise ValueError(f"expected {nbytes} bytes of table data, got {len(raw)}")
        table = int.from_bytes(raw, "little")
        if table.bit_length() > (1 << n):
            raise ValueError("table data has bits beyond 2^arity")
        return cls(n, tuple(labels), table)

    def to_hex(self) -> str:
        nbytes = max(1, (1 << self.arity) + 7 >> 3)
        return self.table.to_bytes(nbytes, "little").hex()

    @cached_property
    def bits(self) -> np.ndarray:
        """Output bits as a read-only uint8 array of length 2^arity."""
        return _frozen(_table_bits(self.table, self.arity))

    @cached_property
    def signs(self) -> np.ndarray:
        """Outputs as a read-only float64 array of +1/-1 values."""
        return _frozen(self.bits.astype(np.float64) * 2.0 - 1.0)


def _sign_index(x: Sequence[int]) -> int:
    """Assignment index of a sequence of +1/-1 entries."""
    b = 0
    for j, v in enumerate(x):
        if v == 1:
            b |= 1 << j
        elif v != -1:
            raise ValueError("assignment entries must be +1 or -1")
    return b


def evaluate(f: BoolFn, x: Sequence[int]) -> int:
    """Evaluate ``f`` at a full sign assignment, returning +1 or -1."""
    if len(x) != f.arity:
        raise ValueError(f"assignment length {len(x)} != arity {f.arity}")
    return 1 if (f.table >> _sign_index(x)) & 1 else -1


def sign_rows(tables: Sequence[int], arity: int) -> np.ndarray:
    """Packed tables of one arity as an (m, 2^arity) float64 array of +1/-1
    values, row r the signs of ``tables[r]``, unpacked in one pass."""
    size = 1 << arity
    nbytes = max(1, size + 7 >> 3)
    raw = np.frombuffer(b"".join(t.to_bytes(nbytes, "little") for t in tables), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(len(tables), nbytes), axis=1, bitorder="little")[:, :size]
    return bits * 2.0 - 1.0


def _low_mask(n: int, j: int) -> int:
    """The x_j = -1 bit positions of an n-variable truth table, built by
    doubling a run of ones, as big-int division is quadratic in 2^n at
    n >= 20.  Shifted up by 2^j it is the table of x_j itself."""
    width = 2 << j
    m = (1 << (1 << j)) - 1
    while width < 1 << n:
        m |= m << width
        width <<= 1
    return m


def _halves(t: int, n: int, j: int) -> tuple[int, int]:
    """The x_j = -1 and x_j = +1 halves of an n-variable truth table t, both
    at the x_j = -1 bit positions."""
    m = _low_mask(n, j)
    return t & m, (t >> (1 << j)) & m


def _table_bits(t: int, n: int) -> np.ndarray:
    """An n-variable truth table as a fresh uint8 array of its 2^n bits."""
    size = 1 << n
    raw = np.frombuffer(t.to_bytes(max(1, size + 7 >> 3), "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:size].copy()


def _pack_bits(bits: np.ndarray) -> int:
    """A uint8 array of 0/1 values, entry b as bit b of an int."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


# Packed-table surgery.  ``masks`` is ``_low_masks(n)`` for the table's
# n-variable layout; an empty position is an index bit that no set bit of
# the table has.

# The widest layout whose masks are all held at once (n 2^n bits, 128 KB
# at n = 16); a wider one builds each mask when it is read, as n = 24
# would hold 48 MB.
HELD_MASKS_MAX_ARITY = 16


def _low_masks(n: int) -> Sequence[int]:
    """``_low_mask(n, j)`` for every j < n.  Held, each mask is the next one
    up XORed with itself shifted by 2^j, 2n big-int steps in all."""
    if n > HELD_MASKS_MAX_ARITY:
        return _LowMasks(n)
    if not n:
        return []
    masks = [(1 << (1 << (n - 1))) - 1]
    for j in reversed(range(n - 1)):
        masks.append(masks[-1] ^ masks[-1] << (1 << j))
    return masks[::-1]


class _LowMasks(Sequence[int]):
    """The masks of a wide layout, each built when it is read."""

    def __init__(self, n: int):
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, j: int) -> int:
        if not 0 <= j < self.n:
            raise IndexError(j)
        return _low_mask(self.n, j)


def _move(t: int, masks: Sequence[int], src: int, dst: int) -> int:
    """Move variable ``src`` of t to the empty position ``dst``: the bits
    at x_src = +1 shift by 2^dst - 2^src."""
    m = masks[src]
    return t & m | ((t >> (1 << src)) & m) << (1 << dst)


def _spread(t: int, positions: Sequence[int], masks: Sequence[int]) -> int:
    """Lift a table over len(positions) variables to the len(masks)-variable
    layout, variable r going to the ascending ``positions[r]``; the result
    does not depend on the variables at the other positions."""
    n = len(masks)
    if len(positions) == n:
        return t
    if len(positions) == 1 and t in (0b10, 0b01):  # a literal: read off its mask
        p = positions[0]
        return masks[p] << (1 << p) if t == 0b10 else masks[p]
    for r in reversed(range(len(positions))):
        if positions[r] != r:
            t = _move(t, masks, r, positions[r])
    present = mask_of(positions)
    for q in range(n):
        if not (present >> q) & 1:
            t |= t << (1 << q)
    return t


def _compact(t: int, keep: Sequence[int], masks: Sequence[int]) -> int:
    """The inverse of ``_spread``: cut a table that depends on none of the
    variables outside the ascending positions ``keep`` to a table over
    len(keep) variables, ``keep[r]`` going to r."""
    kept = mask_of(keep)
    for q, m in enumerate(masks):
        if not (kept >> q) & 1:
            t &= m
    for r, p in enumerate(keep):
        if p != r:
            t = _move(t, masks, p, r)
    return t


def _relevant_mask(t: int, masks: Sequence[int]) -> SubsetMask:
    """Mask of the variables on which the table t depends."""
    rel = 0
    for j, m in enumerate(masks):
        if t & m != (t >> (1 << j)) & m:
            rel |= 1 << j
    return rel


def _compose(table: int, columns: Sequence[int], full: int) -> int:
    """The function with truth table ``table`` over len(columns) variables,
    applied to the packed tables ``columns`` of one layout whose every bit
    ``full`` has set: the OR of its minterms, minterm b being the AND over j
    of ``columns[j]`` if bit j of b is 1 and its complement if it is 0.
    Minterms are multiplied out from the top variable, depth first, so at
    most one partial product per variable is held, and a block of them that
    ``table`` holds wholly or not at all ends the descent."""
    def walk(j: int, t: int, product: int) -> int:
        # t: the 2^j entries of table whose top variables give product
        if t == 0:
            return 0
        if t == (1 << (1 << j)) - 1:
            return product
        c = columns[j - 1]
        half = 1 << (j - 1)
        return (walk(j - 1, t & ((1 << half) - 1), product & ~c)
                | walk(j - 1, t >> half, product & c))

    return walk(len(columns), table, full)


def relevant_variables(f: BoolFn) -> SubsetMask:
    """Mask of variables whose flip changes the output for some input."""
    return _relevant_mask(f.table, _low_masks(f.arity))


def restrict(f: BoolFn, i: int, v: int) -> BoolFn:
    """Fix ``x_i = v`` and drop the variable, giving an arity n-1 function."""
    if not 0 <= i < f.arity:
        raise IndexError(f"variable index {i} out of range for arity {f.arity}")
    if v not in (-1, 1):
        raise ValueError("restriction value must be +1 or -1")
    sel = 1 if v == 1 else 0
    sub = f.bits.reshape(-1, 2, 1 << i)[:, sel, :].reshape(-1)
    labels = f.labels[:i] + f.labels[i + 1:]
    return BoolFn.from_bit_array(sub, labels)


@dataclass(frozen=True)
class ProductDist:
    """Independent inputs with Pr[X_i = +1] = probs[i], each strictly in (0,1)."""

    probs: tuple[float, ...]

    def __post_init__(self):
        for p in self.probs:
            if not 0.0 < p < 1.0:
                raise ValueError(f"probability {p} outside the open interval (0,1)")

    @classmethod
    def uniform(cls, n: int) -> ProductDist:
        return cls((0.5,) * n)

    @property
    def arity(self) -> int:
        return len(self.probs)

    @cached_property
    def p(self) -> np.ndarray:
        return _frozen(np.array(self.probs, dtype=np.float64))

    @cached_property
    def mu(self) -> np.ndarray:
        return _frozen(2.0 * self.p - 1.0)

    @cached_property
    def sigma(self) -> np.ndarray:
        return _frozen(2.0 * np.sqrt(self.p * (1.0 - self.p)))

    # Built once per distribution: many transforms of tiny functions would
    # otherwise pay more for their factors than for the transform itself.
    @cached_property
    def _forward(self) -> np.ndarray:
        return _frozen(_forward_factors(self.p))

    @cached_property
    def _inverse(self) -> np.ndarray:
        return _frozen(_inverse_factors(self.p))

    def marginal(self, indices: Sequence[int]) -> ProductDist:
        return ProductDist(tuple(self.probs[i] for i in indices))

    def weights(self) -> np.ndarray:
        """Pr[X = x] for every assignment index, as a 2^n array."""
        return _product_weights(self.p)

    def phi(self, i: int, x: int) -> float:
        """Single-variable basis factor (x - mu_i) / sigma_i."""
        return (x - self.mu[i]) / self.sigma[i]


def _product_weights(p: np.ndarray) -> np.ndarray:
    """Pr[X = x] by assignment index for Pr[X_t = +1] = p[..., t], (..., j) to
    (..., 2^j); variable t writes the x_t = +1 half, then scales the other."""
    j = p.shape[-1]
    q = 1.0 - p
    w = np.empty((*p.shape[:-1], 1 << j))
    w[..., :1] = 1.0
    for t in range(j):
        low, high = w[..., :1 << t], w[..., 1 << t:2 << t]
        np.multiply(low, p[..., t:t + 1], out=high)
        low *= q[..., t:t + 1]
    return w


def _check_same_arity(f_arity: int, d: ProductDist) -> None:
    if f_arity != d.arity:
        raise ValueError(f"arity mismatch: function {f_arity}, distribution {d.arity}")


def basis_eval(mask: SubsetMask, x: Sequence[int], d: ProductDist) -> float:
    """Value of the basis function for subset ``mask`` at assignment ``x``.

    The empty set gives the constant 1.
    """
    if len(x) != d.arity:
        raise ValueError(f"assignment length {len(x)} != arity {d.arity}")
    check_mask(mask, d.arity)
    out = 1.0
    for i in indices_of(mask):
        out *= d.phi(i, x[i])
    return out


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Dense coefficient vector of ``f`` in the basis induced by ``d``,
    compared and hashed by identity (an array has no truth value)."""

    f: BoolFn
    d: ProductDist
    coeffs: np.ndarray

    def __post_init__(self):
        _check_same_arity(self.arity, self.d)
        if self.coeffs.shape != (1 << self.arity,):
            raise ValueError("coeffs must have length 2^arity")
        self.coeffs.flags.writeable = False

    @property
    def arity(self) -> int:
        return self.f.arity

    def coeff(self, mask: SubsetMask) -> float:
        check_mask(mask, self.arity)
        return float(self.coeffs[mask])


def _check_spectrum_dist(s: Spectrum, d: ProductDist) -> None:
    """Refuse a ``d`` other than the one ``s`` was computed under."""
    if d is not s.d and d != s.d:
        raise ValueError(f"spectrum of distribution {s.d.probs} read under {d.probs}")


def kron_apply(arr: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """(mats[k-1] kron ... kron mats[0]) applied along the last axis of
    ``arr``, whose length must be 2^k.

    Leading axes of ``arr`` are a batch: each factor is either one (2, 2)
    matrix shared by every row or a stack of per-row (2, 2) matrices whose
    leading shape broadcasts against the batch.  Yates' algorithm: stage
    ``j`` contracts the top index bit with ``mats[k-1-j]`` and writes it
    back as the bottom bit.  A 1-D ``arr`` with k >= ``GROUPED_MIN_ARITY``
    runs the same step on the factors multiplied out ``GROUP`` at a time
    (see ``_grouped``), contracting that many bits per stage; its result
    differs from the 2x2 stages only by rounding.  The first stage reads
    ``arr`` in place, so it is never written; the result is always a new
    array, and the stages ping-pong between two buffers.
    """
    arr = src = np.asarray(arr, dtype=np.float64)
    if arr.shape[-1:] != (1 << len(mats),):
        raise ValueError(f"array of shape {arr.shape} does not match {len(mats)} factors")
    if len(mats) == 0:
        return arr.copy()
    lead = arr.shape[:-1]
    if not lead and len(mats) >= GROUPED_MIN_ARITY:
        mats = _grouped(mats)
    buf = np.empty(arr.shape)
    for m in reversed(mats):
        if lead:
            np.matmul(m, arr.reshape(*lead, 2, -1),
                      out=buf.reshape(*lead, -1, 2).swapaxes(-1, -2))
        else:
            # the single-function form, kept apart: its views are cheapest to build
            np.matmul(m, arr.reshape(len(m), -1), out=buf.reshape(-1, len(m)).T)
        arr, buf = buf, (np.empty(arr.shape) if arr is src else arr)
    return arr


def _grouped(mats: Sequence[np.ndarray]) -> list[np.ndarray]:
    """``mats`` multiplied out ``GROUP`` at a time from the bottom, entry g
    being mats[4g+3] kron ... kron mats[4g]; the top entry holds the k mod 4
    remainder, if any.  Applied top entry first, each is a Yates stage that
    moves its block of bits from the top of the index to the bottom."""
    out = []
    for lo in range(0, len(mats), GROUP):
        m = mats[lo]
        for f in mats[lo + 1:lo + GROUP]:
            # f kron m: the bits of np.kron(f, m) at about a sixth of its cost
            m = (f[:, None, :, None] * m[None, :, None, :]).reshape(2 * len(m), -1)
        out.append(m)
    return out


def _factors(a, b, c, e, shape: tuple[int, ...]) -> np.ndarray:
    """2x2 matrices [[a, b], [c, e]] of shape (*shape, 2, 2)."""
    out = np.empty((*shape, 2, 2))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, e
    return out


def _phi(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Basis factor (x - mu) / sigma at x = -1 and x = +1, for Pr[x = +1] = p."""
    mu = 2.0 * p - 1.0
    sigma = 2.0 * np.sqrt(p * (1.0 - p))
    return (-1.0 - mu) / sigma, (1.0 - mu) / sigma


def _forward_factors(p: np.ndarray) -> np.ndarray:
    """Transform factor [[q, p], [-sigma/2, sigma/2]], q = 1 - p: it maps the
    values (a, b) at x = -1, +1 to their projections onto {1, phi}."""
    h = np.sqrt(p * (1.0 - p))
    return _factors(1.0 - p, p, -h, h, p.shape)


def _inverse_factors(p: np.ndarray) -> np.ndarray:
    """Inverse factor [[1, phi(-1)], [1, phi(+1)]] per variable."""
    lo, hi = _phi(p)
    return _factors(1.0, lo, 1.0, hi, p.shape)


def _subset_entries(arr: np.ndarray, mask: SubsetMask) -> np.ndarray:
    """The entries of a 2^n array at the indices with no bit outside
    ``mask``, as a copy in compact order (bit b of the position selects the
    b-th ascending variable of ``mask``): coefficients of the subsets of
    ``mask``, or a table's values with every other variable at -1.  Equal to
    ``arr[_subset_index(indices_of(mask))]``, by a strided pick that builds
    no index array."""
    n = len(arr).bit_length() - 1
    keep = tuple(slice(None) if (mask >> i) & 1 else slice(1) for i in reversed(range(n)))
    return arr.reshape((2,) * n)[keep].flatten()


def _subset_index(known: Sequence[int] | np.ndarray) -> np.ndarray:
    """Subset mask of every subset of ``known``, shape (..., j) to (..., 2^j):
    compact bit b of entry c selects ``known[..., b]``."""
    known = np.asarray(known, dtype=np.int64)
    j = known.shape[-1]
    compact = np.arange(1 << j, dtype=np.int64)
    full = np.zeros((*known.shape[:-1], 1 << j), dtype=np.int64)
    bit = np.empty_like(full)
    for b in range(j):
        # into a buffer: a broadcast shift that allocates its result is 2-3x slower
        np.left_shift((compact >> b) & 1, known[..., b:b + 1], out=bit)
        full |= bit
    return full


def transform(f: BoolFn, d: ProductDist, cap: int | None = None) -> Spectrum:
    """Coefficients of ``f`` in the basis induced by ``d``, in O(n 2^n)."""
    _check_same_arity(f.arity, d)
    _check_cap(f.arity, cap)
    return Spectrum(f, d, kron_apply(f.signs, d._forward))


def reconstruct(s: Spectrum, x: Sequence[int]) -> float:
    """Evaluate the multilinear polynomial with coefficients ``s`` at ``x``."""
    if len(x) != s.arity:
        raise ValueError(f"assignment length {len(x)} != arity {s.arity}")
    return float(reconstruct_table(s, s.d)[_sign_index(x)])


def reconstruct_table(s: Spectrum, d: ProductDist) -> np.ndarray:
    """Polynomial values at all 2^n assignments (the inverse transform)."""
    _check_spectrum_dist(s, d)
    return kron_apply(s.coeffs, d._inverse)


def subset_coeffs(s: Spectrum, mask: SubsetMask) -> np.ndarray:
    """Coefficients of all subsets of ``mask``, compacted to 2^|mask| entries.

    Entry ``c`` corresponds to the subset whose j-th compact bit selects the
    j-th (ascending) variable of ``mask``.
    """
    check_mask(mask, s.arity)
    return _subset_entries(s.coeffs, mask)


def conditional_expectation_table(s: Spectrum, mask: SubsetMask) -> np.ndarray:
    """E[f | X_mask = x] for every assignment of the masked variables.

    Returned in compact index order (bit j of the index is the sign of the
    j-th ascending variable of ``mask``).  Equals the polynomial restricted
    to coefficients of subsets of ``mask``.
    """
    return kron_apply(subset_coeffs(s, mask), s.d._inverse[list(indices_of(mask))])


def conditional_expectation(s: Spectrum, mask: SubsetMask, xa: Mapping[int, int]) -> float:
    """E[f(X) | X_A = x_A] as the subset-restricted polynomial at ``x_A``."""
    check_mask(mask, s.arity)
    pos = indices_of(mask)
    if set(xa) != set(pos):
        raise ValueError("partial assignment must cover exactly the masked variables")
    c = _sign_index([xa[p] for p in pos])
    return float(conditional_expectation_table(s, mask)[c])
