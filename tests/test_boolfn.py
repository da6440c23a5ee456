"""Truth tables, product distributions, and the basis transform."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnspectral.boolfn import (
    GROUP,
    GROUPED_MIN_ARITY,
    HELD_MASKS_MAX_ARITY,
    MIN_P_VARIANCE,
    ArityCapError,
    BoolFn,
    ProductDist,
    Spectrum,
    _grouped,
    _halves,
    _low_masks,
    _pack_rows,
    _product_weights,
    _subset_entries,
    _subset_index,
    _subset_sums,
    _unpack_tables,
    conditional_expectation,
    default_labels,
    indices_of,
    kron_apply,
    mask_of,
    reconstruct_table,
    relevant_variables,
    transform,
)
from bnspectral.measures import noise_sensitivity
from bnspectral.netlang import parse
from bnspectral.reference import conditional_mean_definitional, transform_naive

from conftest import (
    and_fn,
    bool_fns,
    const_fn,
    dictator_fn,
    fn_dist_pairs,
    netgen,
    planted_fn,
    parity_fn,
    product_dists,
    random_bool_fn,
    random_product_dist,
)
from oracles import basis_column


class TestBoolFn:
    def test_evaluate_and2(self):
        f = and_fn(2)
        assert f.bits[0b11] == 1
        assert f.bits[0b10] == 0
        assert f.bits[0b01] == 0

    def test_evaluate_parity2(self):
        f = parity_fn(2)
        assert f.bits[0b00] == 1
        assert f.bits[0b01] == 0

    def test_table_bit_convention(self):
        # bit b of the table is the output at the assignment where
        # x_i = +1 exactly when bit i of b is set
        f = and_fn(2)
        assert f.table == 0b1000

    def test_hex_round_trip(self):
        f = and_fn(3)
        again = BoolFn.from_hex(f.to_hex(), f.labels)
        assert again == f
        assert and_fn(2).to_hex() == "08"

    def test_arity_zero(self):
        f = const_fn(0, 1)
        assert f.bits.tolist() == [1]
        assert f.to_hex() == "01"

    def test_hex_and_unpacker_round_trip(self):
        # every table up to 3 variables, where a table is one byte or less
        # (the one-byte floor), and a sample at 4
        rng = np.random.default_rng(13)
        for n in range(5):
            labels = default_labels(n)
            size = 1 << n
            tables = (range(1 << size) if n <= 3
                      else rng.integers(0, 1 << size, size=40).tolist())
            for t in tables:
                f = BoolFn(n, labels, t)
                text = f.to_hex()
                assert len(text) == 2 * max(1, size // 8)
                assert BoolFn.from_hex(text, labels) == f
                bits = _unpack_tables([t], n)
                assert bits.shape == (1, size) and bits.dtype == np.uint8
                assert bits[0].tolist() == [(t >> b) & 1 for b in range(size)]
                assert _pack_rows(bits) == [t]

    @pytest.mark.parametrize("text, digits", [("8", 1), ("080", 3), ("0800", 4), ("", 0)])
    def test_hex_of_the_wrong_length(self, text, digits):
        with pytest.raises(ValueError, match=fr"^expected 1 bytes of table data "
                                             fr"\(2 hex digits\), got {digits}$"):
            BoolFn.from_hex(text, ("a", "b"))

    def test_hex_of_the_right_length_but_not_hex(self):
        with pytest.raises(ValueError, match="non-hexadecimal"):
            BoolFn.from_hex("0g", ("a", "b"))

    def test_labels_must_be_unique(self):
        with pytest.raises(ValueError):
            BoolFn(2, ("a", "a"), 0)

    def test_table_too_wide(self):
        with pytest.raises(ValueError):
            BoolFn(1, ("a",), 0b100)

    @pytest.mark.parametrize("build, message", [
        (lambda: BoolFn(2, ("a",), 0), "labels length must equal arity"),
        (lambda: BoolFn.from_bit_array(np.zeros(3)), "bit count must be a power of two"),
        (lambda: BoolFn.from_bit_array(np.array([-1, 1, 1, 1])), "bits must be 0 or 1"),
        (lambda: BoolFn.from_bit_array(np.array([0, 2, 0.5, 1])), "bits must be 0 or 1"),
        (lambda: BoolFn.from_callable(1, lambda x: 0), "function must return +1 or -1"),
        (lambda: BoolFn.from_hex("ff", ("a",)), "table does not fit in 2^arity bits"),
        (lambda: Spectrum(and_fn(2), ProductDist.uniform(2), np.zeros(3)),
         "coeffs must have length 2^arity"),
    ], ids=["labels length", "bit count", "signs as bits", "bits not 0 or 1", "callable value",
            "hex beyond 2^arity", "coefficient count"])
    def test_constructor_refuses(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    def test_bits_from_bool_0_1_and_float_arrays(self):
        for bits in ([False, True, True, False], [0, 1, 1, 0], [0.0, 1.0, 1.0, 0.0]):
            assert BoolFn.from_bit_array(np.array(bits)).table == 0b0110

    def test_indices_of_refuses_a_negative_mask(self):
        # -1 >> 1 is -1, so an unchecked shift loop never ends
        with pytest.raises(ValueError, match="negative"):
            indices_of(-1)
        assert indices_of(0) == () and indices_of(0b1011) == (0, 1, 3)


class TestProductDist:
    def test_rejects_degenerate(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                ProductDist((bad, 0.5))

    def test_rejects_p_too_near_0_or_1(self):
        # 1/sigma^2 of 2.3e-308 is finite, but a sum of 20 of them was not
        for bad in (1e-320, 2.3e-308, MIN_P_VARIANCE / 2):
            with pytest.raises(ValueError, match=f"probability {bad} too close to 0 or 1"):
                ProductDist((0.5, bad))
        d = ProductDist((MIN_P_VARIANCE, 1.0 - 2.0 ** -53))
        assert d.inv_var[0] == 2.0 ** 998 and np.all(np.isfinite(d.inv_var))

    def test_inv_var_is_one_over_sigma_squared(self):
        d = ProductDist((0.3, 0.5, 0.91))
        assert np.array_equal(d.inv_var, 1.0 / d.sigma ** 2)
        assert not d.inv_var.flags.writeable

    @given(product_dists(5))
    def test_mu_sigma_identity(self, d):
        assert np.allclose(d.mu ** 2 + d.sigma ** 2, 1.0, atol=1e-12)

    def test_weights_sum_to_one(self):
        d = ProductDist((0.3, 0.9, 0.42))
        w = d.weights()
        assert w.shape == (8,)
        assert abs(w.sum() - 1.0) < 1e-12

    def test_weights_are_built_once_and_read_only(self):
        d = ProductDist((0.3, 0.9, 0.42, 0.05))
        w = d.weights()
        assert d.weights() is w
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.0
        assert np.array_equal(w, _product_weights(d.p))

    def test_marginal(self):
        d = ProductDist((0.1, 0.2, 0.3))
        assert d.marginal([2, 0]).probs == (0.3, 0.1)


class TestBasis:
    def test_empty_set_is_one(self):
        d = ProductDist((0.37, 0.61))
        assert basis_column(d, 0).tolist() == [1.0] * 4

    def test_uniform_singleton(self):
        d = ProductDist.uniform(1)
        assert basis_column(d, 0b1) == pytest.approx([-1.0, 1.0], abs=1e-15)

    def test_uniform_pair(self):
        d = ProductDist.uniform(2)
        assert basis_column(d, 0b11) == pytest.approx([1.0, -1.0, -1.0, 1.0], abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_orthonormality(self, n, data):
        d = data.draw(product_dists(n))
        a = data.draw(st.integers(0, (1 << n) - 1))
        b = data.draw(st.integers(0, (1 << n) - 1))
        w = d.weights()
        inner = float(np.dot(w, basis_column(d, a) * basis_column(d, b)))
        assert inner == pytest.approx(1.0 if a == b else 0.0, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_decomposition(self, n, data):
        d = data.draw(product_dists(n))
        a = data.draw(st.integers(0, (1 << n) - 1))
        s = data.draw(st.integers(0, (1 << n) - 1)) & a
        whole = basis_column(d, a)
        split = basis_column(d, s) * basis_column(d, a & ~s)
        assert whole == pytest.approx(split, abs=1e-12)


class TestSignRows:
    """Packed tables unpacked as the uint8 rows of a collapsed block, and
    their signs as ``node_spectra`` forms them."""

    def test_rows_match_signs(self):
        rng = np.random.default_rng(5)
        for k in range(0, 7):
            fns = [random_bool_fn(rng, k) for _ in range(4)]
            tables = [f.table for f in fns]
            bits = np.array([[(t >> b) & 1 for b in range(1 << k)] for t in tables])
            assert np.array_equal(_unpack_tables(tables, k), bits)
            assert np.array_equal(np.stack([f.bits for f in fns]), bits)
            assert np.array_equal(np.stack([f.signs for f in fns]), bits * 2.0 - 1.0)


def _yates_2x2(arr: np.ndarray, mats) -> np.ndarray:
    """One 2x2 Yates stage per factor, top variable first: the kernel's
    form below the grouped switch, kept as the reference for it."""
    arr = np.array(arr, dtype=np.float64)
    lead = arr.shape[:-1]
    buf = np.empty_like(arr)
    for m in reversed(mats):
        if lead:
            np.matmul(m, arr.reshape(*lead, 2, -1),
                      out=buf.reshape(*lead, -1, 2).swapaxes(-1, -2))
        else:
            np.matmul(m, arr.reshape(2, -1), out=buf.reshape(-1, 2).T)
        arr, buf = buf, arr
    return arr


def _kron_apply_copying(arr: np.ndarray, mats) -> np.ndarray:
    """``kron_apply`` as it was before it read its input in place: the input
    copied once, then one ping-pong buffer."""
    arr = np.array(arr, dtype=np.float64)
    lead = arr.shape[:-1]
    if not lead and len(mats) >= GROUPED_MIN_ARITY:
        mats = _grouped(mats)
    buf = np.empty_like(arr)
    for m in reversed(mats):
        if lead:
            np.matmul(m, arr.reshape(*lead, 2, -1),
                      out=buf.reshape(*lead, -1, 2).swapaxes(-1, -2))
        else:
            np.matmul(m, arr.reshape(len(m), -1), out=buf.reshape(-1, len(m)).T)
        arr, buf = buf, arr
    return arr


def _per_variable(arr: np.ndarray, mats) -> np.ndarray:
    """mats[i] applied to the index bit of variable i, one variable at a
    time from the bottom: an order independent of both kernel forms."""
    out = np.array(arr, dtype=np.float64)
    for i, m in enumerate(mats):
        out = (m @ out.reshape(-1, 2, 1 << i)).reshape(-1)
    return out


class TestKronApply:
    def test_matches_dense_kronecker_product(self):
        rng = np.random.default_rng(3)
        for k in range(0, 7):
            mats = [rng.normal(size=(2, 2)) for _ in range(k)]
            arr = rng.normal(size=1 << k)
            dense = np.ones((1, 1))
            for m in mats:
                dense = np.kron(m, dense)  # mats[k-1] kron ... kron mats[0]
            assert np.max(np.abs(kron_apply(arr, mats) - dense @ arr), initial=0.0) < 1e-12

    def test_batched_rows_match_one_dimensional_calls(self):
        rng = np.random.default_rng(4)
        for k in range(0, 7):
            rows = rng.normal(size=(5, 1 << k))
            per_row = rng.normal(size=(k, 5, 2, 2))
            shared = [rng.normal(size=(2, 2)) for _ in range(k)]
            got = kron_apply(rows, list(per_row))
            for r in range(5):
                assert np.array_equal(got[r], kron_apply(rows[r], [m[r] for m in per_row]))
            got = kron_apply(rows, shared)
            for r in range(5):
                assert np.array_equal(got[r], kron_apply(rows[r], shared))

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0, 4)])
    def test_batch_of_no_rows(self, shape):
        # the half length is written out: a reshape cannot infer -1 at size 0
        for mats in ProductDist.uniform(2)._inverse, np.ones((2, *shape[:-1], 2, 2)):
            got = kron_apply(np.zeros(shape), mats)
            assert got.shape == shape and got.dtype == np.float64

    def test_grouped_stages_match_per_variable_oracle(self):
        # one size below the switch, then four sizes that leave every
        # remainder mod GROUP
        rng = np.random.default_rng(9)
        for k in range(GROUPED_MIN_ARITY - 1, GROUPED_MIN_ARITY + 4):
            mats = [rng.normal(size=(2, 2)) for _ in range(k)]
            arr = rng.normal(size=1 << k)
            want = _per_variable(arr, mats)
            gap = float(np.max(np.abs(kron_apply(arr, mats) - want)))
            assert gap <= 1e-12 * float(np.linalg.norm(want)), k

    def test_two_by_two_stages_unchanged_below_switch_and_batched(self):
        rng = np.random.default_rng(10)
        for k in range(0, GROUPED_MIN_ARITY):
            mats = [rng.normal(size=(2, 2)) for _ in range(k)]
            arr = rng.normal(size=1 << k)
            assert np.array_equal(kron_apply(arr, mats), _yates_2x2(arr, mats)), k
        for k in (8, GROUPED_MIN_ARITY):
            rows = rng.normal(size=(2, 1 << k))
            per_row = rng.normal(size=(k, 2, 2, 2))
            assert np.array_equal(kron_apply(rows, list(per_row)), _yates_2x2(rows, list(per_row)))

    @pytest.mark.parametrize("n", [14, 16, 18, 20])
    def test_grouped_round_trip_and_parseval(self, n):
        rng = np.random.default_rng(n)
        f = random_bool_fn(rng, n)
        d = ProductDist(tuple(float(p) for p in rng.uniform(0.05, 0.95, size=n)))
        s = transform(f, d)
        assert abs(float(np.dot(s.coeffs, s.coeffs)) - 1.0) < 1e-12
        assert float(np.max(np.abs(reconstruct_table(s, d) - f.signs))) < 1e-12

    def test_leaves_input_untouched(self):
        arr = np.array([1.0, 2.0])
        kron_apply(arr, [np.array([[0.0, 1.0], [1.0, 0.0]])])
        assert list(arr) == [1.0, 2.0]

    def test_reads_input_in_place(self):
        """Bitwise the copying form, on both sides of the grouped switch and
        batched; a read-only input is read, never written, and the result
        is always a new writable array, with no factors too."""
        rng = np.random.default_rng(12)
        for k in (0, 1, 3, 8, GROUPED_MIN_ARITY - 1, GROUPED_MIN_ARITY, 21):
            f = random_bool_fn(rng, k)
            mats = [rng.normal(size=(2, 2)) for _ in range(k)]
            got = kron_apply(f.signs, mats)
            assert np.array_equal(got, _kron_apply_copying(f.signs, mats)), k
            assert got.flags.writeable and not np.shares_memory(got, f.signs), k
            assert np.array_equal(f.signs, f.bits * 2.0 - 1.0), k
        for k in (0, 3, 8, GROUPED_MIN_ARITY):
            rows = rng.normal(size=(3, 1 << k))
            before = rows.copy()
            per_row = list(rng.normal(size=(k, 3, 2, 2)))
            got = kron_apply(rows, per_row)
            assert np.array_equal(got, _kron_apply_copying(rows, per_row)), k
            assert not np.shares_memory(got, rows) and np.array_equal(rows, before), k

    def test_grouped_factors_match_kron_chain_bitwise(self):
        """``_grouped`` builds each group by a broadcast product, bit for
        bit the np.kron chain kept here as the oracle, so grouped stages at
        n >= 18 give the bits they gave when groups were built by np.kron."""
        def kron_chain(mats):
            out = []
            for lo in range(0, len(mats), GROUP):
                m = mats[lo]
                for f in mats[lo + 1:lo + GROUP]:
                    m = np.kron(f, m)
                out.append(m)
            return out

        rng = np.random.default_rng(13)
        d = ProductDist(tuple(rng.uniform(0.05, 0.95, size=11)))
        stacks = [list(rng.normal(size=(k, 2, 2))) for k in range(1, GROUP + 1)]
        stacks += [d._forward, d._inverse, d.marginal(range(GROUP))._forward]
        for mats in stacks:  # 11 = 4 + 4 + 3 leaves a remainder group
            got, want = _grouped(mats), kron_chain(mats)
            assert len(got) == len(want) == -(-len(mats) // GROUP)
            for g, w in zip(got, want):
                assert g.shape == w.shape and np.array_equal(g, w)

    def test_length_must_match_factor_count(self):
        with pytest.raises(ValueError):
            kron_apply(np.ones(4), [np.eye(2)])


def _scalar_factors(p: float) -> tuple[np.ndarray, np.ndarray]:
    """Forward and inverse 2x2 factors of one variable, built entry by entry
    from Python floats: the oracle for ``ProductDist._forward`` and
    ``_inverse``."""
    d = ProductDist((p,))
    mu, sigma = float(d.mu[0]), float(d.sigma[0])
    h = sigma / 2.0
    return (np.array([[1.0 - p, p], [-h, h]]),
            np.array([[1.0, (-1.0 - mu) / sigma], [1.0, (1.0 - mu) / sigma]]))


class TestBasisHelpers:
    """The shared basis helpers, on one variable set and on batches of rows."""

    def test_factors_match_per_variable_matrices(self):
        rng = np.random.default_rng(6)
        for k in range(0, 9):
            p = rng.uniform(0.01, 0.99, size=(4, k))
            for r in range(4):
                d = ProductDist(tuple(p[r]))
                assert d._forward.shape == d._inverse.shape == (k, 2, 2)
                for t in range(k):
                    want_fwd, want_inv = _scalar_factors(float(p[r, t]))
                    assert np.array_equal(d._forward[t], want_fwd)
                    assert np.array_equal(d._inverse[t], want_inv)

    def test_subset_index_rows_match_one_dimensional_calls(self):
        rng = np.random.default_rng(7)
        for j in range(0, 7):
            known = np.sort(np.stack([rng.choice(9, size=j, replace=False)
                                      for _ in range(5)]), axis=1)
            got = _subset_index(known)
            assert got.shape == (5, 1 << j)
            for r in range(5):
                row = [int(v) for v in known[r]]
                assert np.array_equal(got[r], _subset_index(row))
                # compact bit b of entry c selects the b-th listed variable
                assert [int(m) for m in got[r]] == [
                    mask_of(v for b, v in enumerate(row) if (c >> b) & 1)
                    for c in range(1 << j)]

    def test_subset_entries_match_index_gather(self):
        rng = np.random.default_rng(11)
        for k in range(0, 9):
            arr = rng.normal(size=1 << k)
            bits = rng.integers(0, 2, size=1 << k, dtype=np.uint8)
            for mask in range(1 << k):
                for a in (arr, bits):
                    got = _subset_entries(a, mask)
                    want = a[_subset_index(indices_of(mask))]
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()
        n = 20
        arr = rng.normal(size=1 << n)
        full = (1 << n) - 1
        for mask in [0, full, full & ~1, 1 << (n - 1)] + [int(m) for m in rng.integers(0, 1 << n, 6)]:
            assert _subset_entries(arr, mask).tobytes() == arr[_subset_index(indices_of(mask))].tobytes()

    def test_product_weights_rows_match_one_dimensional_calls(self):
        rng = np.random.default_rng(8)
        for j in range(0, 7):
            p = rng.uniform(0.01, 0.99, size=(5, j))
            got = _product_weights(p)
            for r in range(5):
                want = np.ones(1)
                for v in p[r].tolist():
                    want = np.concatenate([want * (1.0 - v), want * v])
                assert np.array_equal(got[r], want)
                assert np.array_equal(ProductDist(tuple(p[r])).weights(), want)


class TestSubsetSumsKernel:
    """``_subset_sums``, the one doubling builder of the per-subset tables:
    the subset masks, the collapse gather indices and the sensitivity
    weights."""

    @staticmethod
    def brute(w: np.ndarray, base) -> list[list]:
        """Per row, entry c as base plus w_b over the bits b of c, summed in
        Python in ascending b."""
        rows = w.reshape(int(np.prod(w.shape[:-1])), w.shape[-1]).tolist()
        bases = np.broadcast_to(base, w.shape[:-1]).reshape(-1).tolist()
        out = []
        for row, start in zip(rows, bases):
            entries = []
            for c in range(1 << len(row)):
                acc = start
                for b, v in enumerate(row):
                    if c >> b & 1:
                        acc += v
                entries.append(acc)
            out.append(entries)
        return out

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float64])
    def test_matches_brute_force_sums(self, dtype):
        rng = np.random.default_rng(61)

        def draw(size):
            if dtype == np.float64:
                return rng.standard_normal(size)
            return rng.integers(-1 << 20, 1 << 20, size=size)

        for j in range(11):
            for rows in [(), (2, 3)]:  # 1-D and batched
                w = draw((*rows, j)).astype(dtype)
                for base in (0, 7, draw(rows).astype(dtype)):  # scalar and per-row
                    got = _subset_sums(w, base)
                    assert got.dtype == dtype and got.shape == (*rows, 1 << j)
                    want = np.array(self.brute(w, base), dtype=dtype).reshape(got.shape)
                    # floats bitwise: ascending-b Python sums are the same additions
                    assert got.tobytes() == want.tobytes()

    def test_netgen_gather_indices_are_int32(self):
        # the compiled program's gather indices take the buffer offsets' dtype
        program = parse(netgen().generate(1)).program
        assert program.groups and program.size < 2 ** 31
        for _, _, index, _ in program.groups:
            assert index.dtype == np.int32


class TestTransform:
    def test_and2_uniform(self, uniform2):
        s = transform(and_fn(2), uniform2)
        assert np.allclose(s.coeffs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_parity2_uniform(self, uniform2):
        s = transform(parity_fn(2), uniform2)
        assert np.allclose(s.coeffs, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_and3_uniform(self, uniform3):
        # brute-force weighted sums over all 8 assignments give -3/4 for the
        # empty set and 1/4 everywhere else
        s = transform(and_fn(3), uniform3)
        assert np.allclose(s.coeffs, [-0.75] + [0.25] * 7, atol=1e-12)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            transform(and_fn(2), ProductDist.uniform(3))

    def test_cap(self):
        with pytest.raises(ArityCapError):
            transform(and_fn(4), ProductDist.uniform(4), cap=3)

    def test_fast_equals_naive_exhaustive_small(self):
        for n in range(0, 4):
            d = ProductDist(tuple(0.2 + 0.6 * (i + 1) / (n + 1) for i in range(n)))
            for table in range(1 << (1 << n)):
                f = BoolFn(n, default_labels(n), table)
                fast = transform(f, d).coeffs
                naive = transform_naive(f, d).coeffs
                assert np.max(np.abs(fast - naive)) < 1e-12

    def test_fast_equals_naive_exhaustive_n4(self):
        # all 65536 arity-4 tables against a matrix form of the naive
        # double-loop: coefficients = signs . (weights * basis column)
        n = 4
        d = ProductDist((0.2, 0.35, 0.65, 0.8))
        w = d.weights()
        phi = np.stack([basis_column(d, m) for m in range(1 << n)], axis=1)
        kernel = w[:, None] * phi
        labels = default_labels(n)
        worst = 0.0
        for table in range(1 << (1 << n)):
            f = BoolFn(n, labels, table)
            naive = f.signs @ kernel
            worst = max(worst, float(np.max(np.abs(transform(f, d).coeffs - naive))))
        assert worst < 1e-12

    def test_fast_equals_naive_random_n10(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            f = random_bool_fn(rng, 10)
            d = random_product_dist(rng, 10)
            fast = transform(f, d).coeffs
            naive = transform_naive(f, d).coeffs
            assert np.max(np.abs(fast - naive)) < 1e-12

    @settings(max_examples=80, deadline=None)
    @given(fn_dist_pairs(0, 8))
    def test_parseval(self, pair):
        f, d = pair
        s = transform(f, d)
        assert float(np.sum(s.coeffs ** 2)) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(fn_dist_pairs(0, 8))
    def test_empty_coeff_is_mean(self, pair):
        f, d = pair
        s = transform(f, d)
        assert s.coeff(0) == pytest.approx(float(np.dot(d.weights(), f.signs)), abs=1e-12)


class TestHeldState:
    """A function holds its packed table and, once read, its uint8 ``bits``;
    ``signs`` is built on each read, so no float64 table outlives a call."""

    N = 16
    SLACK = 1 << 14  # the Spectrum object and small allocations; about 2.4 KB measured

    @pytest.mark.parametrize("call", [transform, lambda f, d: noise_sensitivity(f, d, 0.1)],
                             ids=["transform", "noise_sensitivity"])
    def test_no_float_table_held(self, call):
        rng = np.random.default_rng(41)
        f, d = random_bool_fn(rng, self.N), random_product_dist(rng, self.N)
        call(f, d)
        assert [k for k, v in vars(f).items()
                if isinstance(v, np.ndarray) and v.dtype == np.float64] == []
        assert not f.signs.flags.writeable and f.signs is not f.signs

    def test_transform_retains_coeffs_and_bits(self):
        rng = np.random.default_rng(42)
        f, d = random_bool_fn(rng, self.N), random_product_dist(rng, self.N)
        d._forward  # built once per distribution, before the call is measured
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            s = transform(f, d)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert held <= s.coeffs.nbytes + f.bits.nbytes + self.SLACK


class TestReconstruct:
    def test_and2_point(self, uniform2):
        s = transform(and_fn(2), uniform2)
        assert reconstruct_table(s, s.d)[0b11] == pytest.approx(1.0, abs=1e-12)

    def test_parity2_point(self, uniform2):
        s = transform(parity_fn(2), uniform2)
        assert reconstruct_table(s, s.d)[0b01] == pytest.approx(-1.0, abs=1e-12)

    def test_constant_true_spectrum(self):
        d = ProductDist((0.8,))
        s = transform(const_fn(1, 1), d)
        assert np.allclose(s.coeffs, [1.0, 0.0], atol=1e-15)
        assert reconstruct_table(s, s.d)[0] == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_random_up_to_n12(self):
        rng = np.random.default_rng(11)
        for n in range(0, 13):
            f = random_bool_fn(rng, n)
            d = random_product_dist(rng, n)
            values = reconstruct_table(transform(f, d), d)
            assert np.array_equal(np.sign(values), f.signs)
            assert np.max(np.abs(values - f.signs)) < 1e-9


class TestConditionalExpectation:
    def test_parity_given_one_var(self, uniform2):
        s = transform(parity_fn(2), uniform2)
        assert conditional_expectation(s, 0b01, {0: 1}) == pytest.approx(0.0, abs=1e-12)

    def test_empty_mask_gives_mean(self):
        d = ProductDist((0.3, 0.6))
        f = and_fn(2)
        s = transform(f, d)
        assert conditional_expectation(s, 0, {}) == pytest.approx(s.coeff(0), abs=1e-15)

    def test_fully_conditioned(self, uniform2):
        s = transform(and_fn(2), uniform2)
        assert conditional_expectation(s, 0b11, {0: 1, 1: 1}) == pytest.approx(1.0, abs=1e-12)

    def test_assignment_must_match_mask(self, uniform2):
        s = transform(and_fn(2), uniform2)
        with pytest.raises(ValueError):
            conditional_expectation(s, 0b01, {1: 1})

    def test_assignment_key_outside_the_mask(self, uniform2):
        s = transform(and_fn(2), uniform2)
        with pytest.raises(ValueError) as err:
            conditional_expectation(s, 0b01, {0: 1, 1: 1})
        assert str(err.value) == "partial assignment must cover exactly the masked variables"

    def test_assignment_entries_must_be_signs(self, uniform2):
        s = transform(and_fn(2), uniform2)
        for entry in (0, 7):
            with pytest.raises(ValueError) as err:
                conditional_expectation(s, 0b11, {0: 1, 1: entry})
            assert str(err.value) == "assignment entries must be +1 or -1"

    def test_against_direct_averaging(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            f = random_bool_fn(rng, n)
            d = random_product_dist(rng, n)
            mask = int(rng.integers(0, 1 << n))
            xa = {i: (1 if rng.random() < 0.5 else -1)
                  for i in range(n) if (mask >> i) & 1}
            got = conditional_expectation(transform(f, d), mask, xa)
            want = conditional_mean_definitional(f, d, mask, xa)
            assert got == pytest.approx(want, abs=1e-9)


def relevant_by_reshape(f: BoolFn) -> int:
    """The former relevance test: compare the x_i = -1 and x_i = +1 halves of
    the unpacked table through a (-1, 2, 2^i) view."""
    mask = 0
    s = f.bits
    for i in range(f.arity):
        view = s.reshape(-1, 2, 1 << i)
        if np.any(view[:, 0, :] != view[:, 1, :]):
            mask |= 1 << i
    return mask


class TestHalves:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, HELD_MASKS_MAX_ARITY,
                                   HELD_MASKS_MAX_ARITY + 1, 21])
    def test_masks_match_assignment_bits(self, n):
        # the halves of the all-true table are the x_j = -1 mask itself;
        # _low_masks holds them up to HELD_MASKS_MAX_ARITY, builds them above
        idx = np.arange(1 << n, dtype=np.int64)
        wants = []
        for j in range(n):
            want = BoolFn.from_bit_array(((idx >> j) & 1) == 0).table
            assert _halves((1 << (1 << n)) - 1, n, j) == (want, want)
            wants.append(want)
        assert list(_low_masks(n)) == wants

    def test_halves_are_the_restrictions(self):
        rng = np.random.default_rng(6)
        for n in range(1, 9):
            f = random_bool_fn(rng, n)
            idx = np.arange(1 << n, dtype=np.int64)
            for j in range(n):
                low = ((idx >> j) & 1) == 0
                lo, hi = (BoolFn.from_bit_array(np.where(low, f.bits[idx | side], 0)).table
                          for side in (0, 1 << j))
                assert _halves(f.table, n, j) == (lo, hi)


class TestRelevantAndRestrict:
    def test_matches_reshape_exhaustive(self):
        for k in range(5):
            labels = default_labels(k)
            for t in range(1 << (1 << k)):
                f = BoolFn(k, labels, t)
                assert relevant_variables(f) == relevant_by_reshape(f), (k, t)

    def test_matches_reshape_planted(self):
        rng = np.random.default_rng(7)
        for k in range(5, 13):
            for _ in range(20):
                inner = random_bool_fn(rng, int(rng.integers(0, k + 1)))
                f, planted = planted_fn(rng, k, inner)
                rel = relevant_variables(f)
                assert rel == relevant_by_reshape(f)
                assert rel & ~planted == 0

    def test_matches_reshape_n20(self):
        rng = np.random.default_rng(8)
        f, planted = planted_fn(rng, 20, random_bool_fn(rng, 9))
        assert relevant_variables(f) == relevant_by_reshape(f) == planted

    def test_relevant_and2(self):
        assert relevant_variables(and_fn(2)) == 0b11

    def test_relevant_constant(self):
        assert relevant_variables(const_fn(3, 1)) == 0

    def test_relevant_dictator(self):
        assert relevant_variables(dictator_fn(3, 0)) == 0b001


def test_mask_of_round_trip():
    assert mask_of([0, 3]) == 0b1001


class TestSortVariables:
    """A table gathered at ``_subset_index`` of its keys' argsort has its
    variables sorted by key, as ``np.transpose`` of the unpacked bits has:
    the gather that sorts first-layer nodes in collapse."""

    @staticmethod
    def gathered(f: BoolFn, keys) -> int:
        return BoolFn.from_bit_array(f.bits[_subset_index(np.argsort(keys))]).table

    @staticmethod
    def transposed(f: BoolFn, keys) -> int:
        n = f.arity
        order = np.argsort(keys)  # result variable r is variable order[r] of f
        # axis a of the (2,) * n view holds variable n - 1 - a
        axes = [n - 1 - order[n - 1 - a] for a in range(n)]
        return BoolFn.from_bit_array(np.transpose(f.bits.reshape((2,) * n), axes).ravel()).table

    def test_every_permutation(self):
        rng = np.random.default_rng(14)
        for n in range(5):
            for perm in itertools.permutations(range(n)):
                keys = [3 * k + 2 for k in perm]  # distinct, not 0..n-1
                f = random_bool_fn(rng, n)
                assert self.gathered(f, keys) == self.transposed(f, keys)

    @pytest.mark.parametrize("n", [5, 8, 12, HELD_MASKS_MAX_ARITY,
                                   HELD_MASKS_MAX_ARITY + 1, 18])
    def test_random_permutations(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            keys = rng.permutation(4 * n)[:n]
            f = random_bool_fn(rng, n)
            assert self.gathered(f, keys) == self.transposed(f, keys)
