"""Random function and unate samplers."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bnspectral import sampling
from bnspectral.boolfn import BoolFn, _unpack_tables, default_labels
from bnspectral.measures import unateness
from bnspectral.sampling import (
    _apply_polarities,
    _monotone_tables,
    enumerate_unate_tables,
    random_rows,
    random_threshold_fn,
    sample_monotone_mcmc,
    sample_random_function,
    sample_random_unate,
)

from conftest import per_table_draws


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
    """``sample_random_function`` and ``random_rows`` draw what
    ``per_table_draws`` draws, one ``rng.bytes`` call per table, and leave
    the generator as it does.  A NumPy change to how ``Generator.bytes``
    consumes the stream fails here."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_table_draws(self, seed):
        # arities 0..12, twice each, in mixed order: tables of 1 to 512 bytes,
        # odd and even word counts
        arities = [int(k) for k in np.random.default_rng(100 + seed).permutation(
            np.repeat(np.arange(13), 2))][:20 + seed]
        one, per = np.random.default_rng(seed), np.random.default_rng(seed)
        assert [sample_random_function(k, one).table for k in arities] == \
            per_table_draws(arities, per)
        # the generator goes on as it would have
        assert one.bytes(7) == per.bytes(7)
        assert one.integers(1 << 62) == per.integers(1 << 62)

    def test_single_arities(self):
        for k in range(13):
            one, per = np.random.default_rng(k), np.random.default_rng(k)
            f = sample_random_function(k, one)
            assert (f.arity, f.labels) == (k, default_labels(k))
            assert [f.table] == per_table_draws([k], per)
            assert one.bytes(3) == per.bytes(3)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("unate", [False, True], ids=["random", "unate"])
    def test_rows_are_the_tables_unpacked(self, seed, unate):
        """``random_rows`` gives the tables of ``per_table_draws``, or of
        ``sample_random_unate`` per arity in order, as uint8 rows by arity,
        and leaves the generator as they do."""
        arities = np.random.default_rng(200 + seed).integers(0, 7 if unate else 13, 25)
        rows_rng, tables_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = random_rows(arities, rows_rng, unate)
        tables = ([sample_random_unate(k, tables_rng) for k in arities.tolist()] if unate
                  else per_table_draws(arities.tolist(), tables_rng))
        assert sorted(rows) == sorted(set(arities.tolist()))
        for k, got in rows.items():
            want = _unpack_tables([t for t, a in zip(tables, arities.tolist()) if a == k], k)
            assert got.dtype == np.uint8 and np.array_equal(got, want)
        assert rows_rng.integers(1 << 62) == tables_rng.integers(1 << 62)

    def test_no_tables_draws_nothing(self):
        one, fresh = np.random.default_rng(9), np.random.default_rng(9)
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

    # (seed, k): (table in hex, the generator's next integers(2**32)),
    # recorded from the two-branch chain that read bit t before testing the
    # predecessors or the successors.  k <= 4 is one enumeration index; k >= 5
    # is the chain's point blocks, then the polarity.
    DRAWS = {
        (0, 0): ("1",
                 2735729615),
        (0, 1): ("3",
                 2735729615),
        (0, 2): ("d",
                 2735729615),
        (0, 3): ("ee",
                 2735729615),
        (0, 4): ("f2b2",
                 2735729615),
        (0, 5): ("dddf4d4f",
                 2889383765),
        (0, 6): ("5000f770f300f7f5",
                 2999047292),
        (0, 7): ("107575f50000001071f7ffff7073f1f7",
                 383901261),
        (0, 8): ("fefffafffaff88eaeeeec8ee88e880e8fafae8eae8fa808880e000c080e00000",
                 3693519510),
        (0, 9): ("aa008880ea00e8a8ea00c8feffc0ec0000000080e8008000880080c0fc80a8"
                 "a0fe00e8fcffa0feecfee8feffffeefe80c800c088fe80e0e0e800e0feffc0fa",
                 2180018666),
        (1, 0): ("0",
                 2198257139),
        (1, 1): ("1",
                 2198257139),
        (1, 2): ("7",
                 2198257139),
        (1, 3): ("75",
                 2198257139),
        (1, 4): ("7511",
                 2198257139),
        (1, 5): ("8880c8",
                 397971636),
        (1, 6): ("4cd0cdd4cdddfff",
                 2669300405),
        (1, 7): ("50005010f000f37051107551f571ff71",
                 2813626230),
        (1, 8): ("f775f71177103000fff7fff1f7737330f310731011101000f7f7f33171103110",
                 44720502),
        (1, 9): ("33ff3fff77ffffff015737ff13577fff0377337f1377ffff0111037f0357577f"
                 "01171f7f57ff5fff0117111f0157177f011311570157135f0001000500030307",
                 1883843740),
        (2, 0): ("1",
                 1123615560),
        (2, 1): ("3",
                 1123615560),
        (2, 2): ("d",
                 1123615560),
        (2, 3): ("ec",
                 1123615560),
        (2, 4): ("f0fb",
                 1123615560),
        (2, 5): ("ddc4dd",
                 411055240),
        (2, 6): ("efcc0e08efcf8e0c",
                 3302681842),
        (2, 7): ("abff0baf2abf0202abff030f022b0202",
                 1321519606),
        (2, 8): ("113131700000001035777ff0003035f0117175f0015051f077f7fff015f075f",
                 3149233616),
        (2, 9): ("20a0f020b0a0ff00000020202020b200a2b0fb22b3bbff0020003320b030fb"
                 "22b2b2f232f3b3ff0000202020f232f222bafbffb3ffffff0032b3fbb2fafbff",
                 2835662101),
    }

    @pytest.mark.parametrize("seed, k", list(DRAWS))
    def test_draws_are_pinned(self, seed, k):
        rng = np.random.default_rng(seed)
        table = sample_random_unate(k, rng)
        assert (f"{table:x}", int(rng.integers(2**32))) == self.DRAWS[seed, k]


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

    @staticmethod
    def fresh_cache(monkeypatch, bound):
        monkeypatch.setattr(sampling, "CHAIN_KEYS_MAX_ARITY", bound)
        monkeypatch.setattr(sampling, "_CHAIN_KEYS", {})

    @pytest.mark.parametrize("bound", [4, 6, 8])
    def test_kept_and_built_keys_match_per_bit_chain(self, monkeypatch, bound):
        """k = 5..8 with every arity built per draw, some kept and some
        built, and every arity kept; the second seed at a kept arity reads
        the keys the first one left."""
        self.fresh_cache(monkeypatch, bound)
        for k in range(5, 9):
            for seed in (20, 21):
                rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                assert sample_monotone_mcmc(k, rng) == _chain_per_bit(k, oracle_rng)
                assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert sorted(sampling._CHAIN_KEYS) == list(range(5, min(bound, 8) + 1))

    def test_keys_built_once_per_kept_arity(self, monkeypatch):
        self.fresh_cache(monkeypatch, 5)
        built, build = [], sampling._chain_keys_built
        monkeypatch.setattr(sampling, "_chain_keys_built", lambda k: built.append(k) or build(k))
        rng = np.random.default_rng(22)
        for k in (5, 5, 6, 6):
            sample_monotone_mcmc(k, rng)
        assert built == [5, 6, 6]  # k = 6 is above the bound: built per draw, not kept
        assert list(sampling._CHAIN_KEYS) == [5]

    def test_no_keys_built_at_import(self):
        code = "import bnspectral.sampling as s; print(len(s._CHAIN_KEYS))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ,
                                  "PYTHONPATH": str(Path(sampling.__file__).parents[1])},
                             check=True)
        assert out.stdout == "0\n"


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
