"""Random function and unate samplers."""

import numpy as np
import pytest

from bnspectral.boolfn import BoolFn, _unpack_tables, default_labels
from bnspectral.measures import unateness
from bnspectral.sampling import (
    _apply_polarities,
    _monotone_tables,
    enumerate_unate_tables,
    random_rows,
    random_tables,
    random_threshold_fn,
    sample_monotone_mcmc,
    sample_random_function,
    sample_random_unate,
)


def chi_square_stat(counts, expected):
    counts = np.asarray(counts, dtype=float)
    return float(np.sum((counts - expected) ** 2 / expected))


# chi-square critical values at alpha = 0.01 for the dof used below
CHI2_99 = {3: 11.345, 13: 27.688, 15: 30.578}


class TestRandomFunction:
    def test_arity_zero_constants(self):
        rng = np.random.default_rng(0)
        seen = {sample_random_function(0, rng).table for _ in range(100)}
        assert seen == {0, 1}

    def test_arity_one_uniform(self):
        rng = np.random.default_rng(1)
        counts = np.zeros(4)
        for _ in range(4000):
            counts[sample_random_function(1, rng).table] += 1
        assert chi_square_stat(counts, 1000) < CHI2_99[3]

    def test_arity_two_uniform_chi2(self):
        rng = np.random.default_rng(2)
        counts = np.zeros(16)
        draws = 16_000
        for _ in range(draws):
            counts[sample_random_function(2, rng).table] += 1
        assert chi_square_stat(counts, draws / 16) < CHI2_99[15]


class TestRandomTables:
    """One ``rng.bytes`` call per trial draws what one call per table drew.
    A NumPy change to how ``Generator.bytes`` consumes the stream fails here."""

    @staticmethod
    def per_table(arities, rng):
        return [int.from_bytes(rng.bytes(max(1, (1 << k) + 7 >> 3)), "little")
                & ((1 << (1 << k)) - 1) for k in arities]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_table_draws(self, seed):
        # arities 0..12, twice each, in mixed order: tables of 1 to 512 bytes,
        # odd and even word counts
        arities = [int(k) for k in np.random.default_rng(100 + seed).permutation(
            np.repeat(np.arange(13), 2))][:20 + seed]
        one, per = np.random.default_rng(seed), np.random.default_rng(seed)
        assert random_tables(arities, one) == self.per_table(arities, per)
        # the generator goes on as it would have
        assert one.bytes(7) == per.bytes(7)
        assert one.integers(1 << 62) == per.integers(1 << 62)

    def test_single_arities(self):
        for k in range(13):
            one, per = np.random.default_rng(k), np.random.default_rng(k)
            assert random_tables([k], one) == self.per_table([k], per)
            assert one.bytes(3) == per.bytes(3)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("unate", [False, True], ids=["random", "unate"])
    def test_rows_are_the_tables_unpacked(self, seed, unate):
        """``random_rows`` gives the tables of ``random_tables``, or of
        ``sample_random_unate`` per arity in order, as uint8 rows by arity,
        and leaves the generator as they do."""
        arities = np.random.default_rng(200 + seed).integers(0, 7 if unate else 13, 25)
        rows_rng, tables_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = random_rows(arities, rows_rng, unate)
        tables = ([sample_random_unate(k, tables_rng) for k in arities.tolist()] if unate
                  else random_tables(arities.tolist(), tables_rng))
        assert sorted(rows) == sorted(set(arities.tolist()))
        for k, got in rows.items():
            want = _unpack_tables([t for t, a in zip(tables, arities.tolist()) if a == k], k)
            assert got.dtype == np.uint8 and np.array_equal(got, want)
        assert rows_rng.integers(1 << 62) == tables_rng.integers(1 << 62)

    def test_no_tables_draws_nothing(self):
        one, fresh = np.random.default_rng(9), np.random.default_rng(9)
        assert random_tables([], one) == []
        assert random_rows(np.zeros(0, dtype=np.int64), one) == {}
        assert one.bytes(4) == fresh.bytes(4)


class TestUnateEnumeration:
    def test_arity_one_all_functions(self):
        assert set(enumerate_unate_tables(1)) == {0b00, 0b01, 0b10, 0b11}

    def test_arity_two_excludes_parity(self):
        tables = set(enumerate_unate_tables(2))
        assert len(tables) == 14
        assert 0b1001 not in tables  # XNOR
        assert 0b0110 not in tables  # XOR

    def test_matches_brute_force_filter(self):
        for k in range(0, 4):
            brute = tuple(t for t in range(1 << (1 << k))
                          if unateness(BoolFn(k, default_labels(k), t)).is_unate)
            assert enumerate_unate_tables(k) == brute

    def test_monotone_tables(self):
        # OEIS A000372 (Dedekind numbers): 2, 3, 6, 20, 168 monotone functions
        for k, count in enumerate((2, 3, 6, 20, 168)):
            tables = _monotone_tables(k)
            assert len(set(tables)) == count
            for table in tables:
                polarity = unateness(BoolFn(k, default_labels(k), table)).polarity
                assert set(polarity) <= {1, None}  # nondecreasing in every variable

    def test_arity_four_count(self):
        # OEIS A003183: 2, 4, 14, 104, 2170 unate functions of k variables
        tables = enumerate_unate_tables(4)
        assert len(tables) == 2170
        assert list(tables) == sorted(set(tables))
        labels = default_labels(4)
        assert all(unateness(BoolFn(4, labels, t)).is_unate for t in tables)

    def test_rejects_large_arity(self):
        with pytest.raises(ValueError):
            enumerate_unate_tables(5)


def _is_unate(k: int, table: int) -> bool:
    return unateness(BoolFn(k, default_labels(k), table)).is_unate


class TestUnateSampler:
    def test_arity_one_support(self):
        rng = np.random.default_rng(3)
        seen = {sample_random_unate(1, rng) for _ in range(200)}
        assert seen == {0b00, 0b01, 0b10, 0b11}

    def test_every_sample_is_unate_small(self):
        rng = np.random.default_rng(4)
        for k in range(0, 5):
            for _ in range(50):
                assert _is_unate(k, sample_random_unate(k, rng))

    def test_every_sample_is_unate_mcmc(self):
        rng = np.random.default_rng(5)
        for k in (5, 6):
            for _ in range(5):
                assert _is_unate(k, sample_random_unate(k, rng))

    def test_arity_two_uniform_chi2(self):
        rng = np.random.default_rng(6)
        tables = enumerate_unate_tables(2)
        index = {t: i for i, t in enumerate(tables)}
        counts = np.zeros(len(tables))
        draws = 16_000
        for _ in range(draws):
            counts[index[sample_random_unate(2, rng)]] += 1
        assert chi_square_stat(counts, draws / len(tables)) < CHI2_99[13]

    def test_seeded_reproducibility(self):
        a = sample_random_unate(6, np.random.default_rng(7))
        b = sample_random_unate(6, np.random.default_rng(7))
        assert a == b


def _flip_ok(table: int, t: int, k: int) -> bool:
    """May bit t of a monotone table be flipped without breaking
    monotonicity?  The per-bit form of the chain's bitmask test."""
    if (table >> t) & 1:
        # clearing t: all immediate predecessors must already be 0
        for j in range(k):
            if (t >> j) & 1 and (table >> (t & ~(1 << j))) & 1:
                return False
    else:
        # setting t: all immediate successors must already be 1
        for j in range(k):
            if not (t >> j) & 1 and not (table >> (t | (1 << j))) & 1:
                return False
    return True


def _chain_per_bit(k: int, rng: np.random.Generator) -> int:
    size = 1 << k
    table = 0
    for t in map(int, rng.integers(0, size, size=32 * k * size, dtype=np.int64)):
        if _flip_ok(table, t, k):
            table ^= 1 << t
    return table


class TestMonotoneChain:
    def test_matches_per_bit_chain(self):
        # k = 7, 8 draw their points in several blocks; the oracle in one
        for k in range(5, 9):
            for seed in range(3):
                rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                assert sample_monotone_mcmc(k, rng) == _chain_per_bit(k, oracle_rng)
                assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_samples_are_monotone(self):
        rng = np.random.default_rng(8)
        for k in (3, 5):
            table = sample_monotone_mcmc(k, rng)
            bits = [(table >> b) & 1 for b in range(1 << k)]
            for b in range(1 << k):
                for j in range(k):
                    if not (b >> j) & 1:
                        assert bits[b] <= bits[b | (1 << j)]

    def test_chain_moves(self):
        rng = np.random.default_rng(9)
        tables = {sample_monotone_mcmc(3, rng) for _ in range(30)}
        assert len(tables) > 5


def polarities_per_bit(table: int, k: int, neg_mask: int) -> int:
    """The former polarity map, one table bit at a time."""
    if neg_mask == 0:
        return table
    out = 0
    for b in range(1 << k):
        if (table >> (b ^ neg_mask)) & 1:
            out |= 1 << b
    return out


class TestPolarities:
    def test_matches_per_bit_exhaustive(self):
        for k in range(5):
            for table in range(1 << (1 << k)):
                for neg_mask in range(1 << k):
                    assert _apply_polarities(table, k, neg_mask) == \
                        polarities_per_bit(table, k, neg_mask), (k, table, neg_mask)

    def test_matches_per_bit_random(self):
        rng = np.random.default_rng(10)
        for k in range(5, 13):
            for _ in range(10):
                table = sample_random_function(k, rng).table
                neg_mask = int(rng.integers(0, 1 << k))
                assert _apply_polarities(table, k, neg_mask) == \
                    polarities_per_bit(table, k, neg_mask)

    def test_gather_n20(self):
        # the per-bit loop is quadratic here, so compare with new[b] = old[b ^ neg]
        rng = np.random.default_rng(11)
        f = sample_random_function(20, rng)
        neg_mask = int(rng.integers(0, 1 << 20)) | 1 | 1 << 19
        idx = np.arange(1 << 20, dtype=np.int64)
        want = BoolFn.from_bit_array(f.bits[idx ^ neg_mask]).table
        assert _apply_polarities(f.table, 20, neg_mask) == want


class TestThresholdFn:
    """``random_threshold_fn`` draws from the generator as it always has:
    tables and polarities recorded when its +-1 columns were stacked one
    variable at a time."""

    DRAWS = {  # (seed, n): (table, polarities)
        (0, 0): (0x0,
                 ()),
        (0, 1): (0x0,
                 (1,)),
        (0, 3): (0x0,
                 (1, -1, -1)),
        (0, 6): (0xffffffffffffffff,
                 (-1, -1, -1, -1, -1, 1)),
        (0, 8): (0xffffffff1f0fffffffffffffffffffff01000f0f00000703ffffffffff7fffff,
                 (-1, -1, -1, 1, -1, 1, -1, 1)),
        (1, 0): (0x0,
                 ()),
        (1, 1): (0x1,
                 (-1,)),
        (1, 3): (0xfd,
                 (-1, 1, 1)),
        (1, 6): (0xff04ffdfffccffff,
                 (-1, 1, -1, 1, -1, -1)),
        (1, 8): (0xcdff00dfdfff4cff04ff00ccccff00cd04ff004cccff00cd00cd000404df004c,
                 (-1, 1, -1, -1, 1, -1, 1, 1)),
        (7, 0): (0x0,
                 ()),
        (7, 1): (0x3,
                 (-1,)),
        (7, 3): (0xc,
                 (1, 1, -1)),
        (7, 6): (0xff3fff003f000000,
                 (1, -1, -1, 1, 1, 1)),
        (7, 8): (0xfffffffffffffffcfffffffffffffffcffffffffffffffffffffffffffffffff,
                 (-1, 1, 1, 1, 1, 1, -1, -1)),
    }

    @pytest.mark.parametrize("seed, n", list(DRAWS))
    def test_draws_are_pinned(self, seed, n):
        f, polarities = random_threshold_fn(n, np.random.default_rng(seed))
        assert (f.arity, f.table, polarities) == (n, *self.DRAWS[seed, n])
