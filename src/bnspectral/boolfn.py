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
from functools import cache, cached_property
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

# p (1 - p) below this is refused: 1/sigma^2 = 1 / (4 p (1 - p)) stays at most
# 2^998, and a sum of them over fewer than 2^25 variables stays finite.
MIN_P_VARIANCE = 2.0 ** -1000

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
    if mask < 0:
        raise ValueError(f"mask {mask} is negative")
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


def check_index(i: int, arity: int) -> None:
    if not 0 <= i < arity:
        raise IndexError(f"variable index {i} out of range for arity {arity}")


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
        """Packed-int construction from a 0/1 (or bool) array of length 2^n."""
        n = (len(bits) - 1).bit_length()
        if len(bits) != 1 << n:
            raise ValueError("bit count must be a power of two")
        if not ((bits == 0) | (bits == 1)).all():
            raise ValueError("bits must be 0 or 1")
        table = _pack_rows(bits[None].astype(np.uint8))[0]
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
        nbytes = _table_bytes(len(labels))
        # a wrong length is reported as one, not as fromhex's error for an odd length
        raw = bytes.fromhex(hex_str) if len(hex_str) == 2 * nbytes else b""
        if len(raw) != nbytes:
            raise ValueError(f"expected {nbytes} bytes of table data ({2 * nbytes} hex "
                             f"digits), got {len(hex_str)}")
        return cls(len(labels), tuple(labels), int.from_bytes(raw, "little"))

    def to_hex(self) -> str:
        return self.table.to_bytes(_table_bytes(self.arity), "little").hex()

    @cached_property
    def bits(self) -> np.ndarray:
        """Output bits as a read-only uint8 array of length 2^arity."""
        return _frozen(_unpack_tables([self.table], self.arity)[0])

    @property
    def signs(self) -> np.ndarray:
        """Outputs as a read-only float64 array of +1/-1 values, built on
        each read and not held (8 bytes an entry, 128 MB at n = 24)."""
        return _frozen(self.bits.astype(np.float64) * 2.0 - 1.0)


def check_probability(p: float) -> None:
    """Refuse a Pr[X_i = +1] outside (0, 1) or with p (1 - p) < MIN_P_VARIANCE."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability {p} outside the open interval (0,1)")
    if p * (1.0 - p) < MIN_P_VARIANCE:
        raise ValueError(f"probability {p} too close to 0 or 1: p(1 - p) is below 2^-1000")


def _sign_index(x: Sequence[int], arity: int) -> int:
    """Assignment index of a sequence of ``arity`` +1/-1 entries."""
    if len(x) != arity:
        raise ValueError(f"assignment length {len(x)} != arity {arity}")
    b = 0
    for j, v in enumerate(x):
        if v == 1:
            b |= 1 << j
        elif v != -1:
            raise ValueError("assignment entries must be +1 or -1")
    return b


def evaluate(f: BoolFn, x: Sequence[int]) -> int:
    """Evaluate ``f`` at a full sign assignment, returning +1 or -1."""
    return 1 if (f.table >> _sign_index(x, f.arity)) & 1 else -1


def _table_bytes(n: int) -> int:
    """Bytes of an n-variable packed table: 2^n bits, and at least one byte."""
    return max(1, (1 << n) + 7 >> 3)


def _unpack_tables(tables: Sequence[int], n: int) -> np.ndarray:
    """Packed n-variable tables as a new (m, 2^n) uint8 array, row r the
    bits of ``tables[r]``, bit b in column b."""
    nbytes = _table_bytes(n)
    raw = np.frombuffer(b"".join(t.to_bytes(nbytes, "little") for t in tables), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(tables), nbytes), axis=1, bitorder="little")[:, :1 << n]


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
    m = _low_masks(n)[j]
    return t & m, (t >> (1 << j)) & m


def _pack_rows(bits: np.ndarray) -> list[int]:
    """Each row of an (m, 2^n) uint8 array of 0/1 values as an int, entry b
    as bit b, packed in one pass: the inverse of ``_unpack_tables``."""
    raw = np.packbits(bits, axis=1, bitorder="little")
    data, width = raw.tobytes(), raw.shape[1]
    return [int.from_bytes(data[at:at + width], "little") for at in range(0, len(data), width)]


# The widest layout whose masks are held (n 2^n bits, 128 KB at n = 16), for
# the life of the process: about 240 KB for every size up to 16.  A wider
# layout builds each mask when it is read, as n = 24 would hold 48 MB.
HELD_MASKS_MAX_ARITY = 16


@cache
def _low_masks(n: int) -> Sequence[int]:
    """``_low_mask(n, j)`` for every j < n, built once per n and held up to
    ``HELD_MASKS_MAX_ARITY``; above it, each built when it is read."""
    if n > HELD_MASKS_MAX_ARITY:
        return _LowMasks(n)
    return tuple(_low_mask(n, j) for j in range(n))


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


def _relevant_mask(t: int, masks: Sequence[int]) -> SubsetMask:
    """Mask of the variables on which the table t depends."""
    rel = 0
    for j, m in enumerate(masks):
        if t & m != (t >> (1 << j)) & m:
            rel |= 1 << j
    return rel


def relevant_variables(f: BoolFn) -> SubsetMask:
    """Mask of variables whose flip changes the output for some input."""
    return _relevant_mask(f.table, _low_masks(f.arity))


@dataclass(frozen=True)
class ProductDist:
    """Independent inputs with Pr[X_i = +1] = probs[i], each passing ``check_probability``;
    the one owner of the basis parameters mu, sigma, phi(-1), phi(+1), 1/sigma^2 and Pr[X = x]."""

    probs: tuple[float, ...]

    def __post_init__(self):
        for p in self.probs:
            check_probability(p)

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

    @cached_property
    def inv_var(self) -> np.ndarray:
        """1/sigma_i^2, the weight of x_i in the spectral sensitivity sum."""
        return _frozen(1.0 / self.sigma ** 2)

    # Built once per distribution: many transforms of tiny functions would
    # otherwise pay more for their factors than for the transform itself.
    @cached_property
    def _forward(self) -> np.ndarray:
        """Transform factor [[1 - p, p], [-sigma/2, sigma/2]] per variable: it maps
        the values (a, b) at x = -1, +1 to their projections onto {1, phi}."""
        h = 0.5 * self.sigma
        return _frozen(_factors(1.0 - self.p, self.p, -h, h, self.p.shape))

    @cached_property
    def _inverse(self) -> np.ndarray:
        """Inverse factor [[1, phi(-1)], [1, phi(+1)]] per variable."""
        mu, sigma = self.mu, self.sigma
        return _frozen(_factors(1.0, (-1.0 - mu) / sigma, 1.0, (1.0 - mu) / sigma, self.p.shape))

    def marginal(self, indices: Sequence[int]) -> ProductDist:
        return ProductDist(tuple(self.probs[i] for i in indices))

    def weights(self) -> np.ndarray:
        """Pr[X = x] for every assignment index: one read-only 2^n array, built once."""
        return self._weights

    @cached_property
    def _weights(self) -> np.ndarray:
        return _frozen(_product_weights(self.p))

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
    _sign_index(x, d.arity)
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
    half = arr.shape[-1] // 2  # not -1: a batch of no rows has no size to infer it from
    for m in reversed(mats):
        if lead:
            np.matmul(m, arr.reshape(*lead, 2, half),
                      out=buf.reshape(*lead, half, 2).swapaxes(-1, -2))
        else:
            # the single-function form, kept apart: its views are cheapest to build
            # (the batched statement took 8.9 / 22.2 / 58.6 against 7.1 / 17.4 / 51.0
            # us at n = 3 / 8 / 12: medians of 41 rounds of 200 calls, 2-core Xeon)
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
    """Subset mask of every subset of the distinct positions ``known``, shape
    (..., j) to (..., 2^j): compact bit b of entry c selects ``known[..., b]``."""
    return _subset_sums(1 << np.asarray(known, dtype=np.int64))


def _subset_sums(w: np.ndarray, base: np.ndarray | int = 0) -> np.ndarray:
    """``base`` (a scalar or one per row) plus ``w[..., b]`` for each bit b of
    entry c, added in ascending b: (..., j) to (..., 2^j), in ``w``'s dtype."""
    out = np.empty((*w.shape[:-1], 1 << w.shape[-1]), dtype=w.dtype)
    out[..., 0] = base
    for b in range(w.shape[-1]):
        # doubling: entries [2^b, 2^(b+1)) are entries [0, 2^b) plus w_b
        np.add(out[..., :1 << b], w[..., b:b + 1], out=out[..., 1 << b:2 << b])
    return out


def transform(f: BoolFn, d: ProductDist, cap: int | None = None) -> Spectrum:
    """Coefficients of ``f`` in the basis induced by ``d``, in O(n 2^n)."""
    _check_same_arity(f.arity, d)
    _check_cap(f.arity, cap)
    return Spectrum(f, d, kron_apply(f.signs, d._forward))


def reconstruct(s: Spectrum, x: Sequence[int]) -> float:
    """Evaluate the multilinear polynomial with coefficients ``s`` at ``x``."""
    b = _sign_index(x, s.arity)
    return float(reconstruct_table(s, s.d)[b])


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
    c = _sign_index([xa[p] for p in pos], len(pos))
    return float(conditional_expectation_table(s, mask)[c])
