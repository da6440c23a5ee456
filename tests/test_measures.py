"""Influence, entropy, mutual information, bounds, unateness, noise."""

import importlib
import inspect
import math
import pkgutil
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bnspectral
from bnspectral import boolfn, reference
from bnspectral.boolfn import (
    GROUPED_MIN_ARITY,
    ArityCapError,
    BoolFn,
    ProductDist,
    Spectrum,
    _product_weights,
    _subset_index,
    basis_eval,
    conditional_expectation,
    conditional_expectation_table,
    default_labels,
    indices_of,
    kron_apply,
    reconstruct,
    reconstruct_table,
    subset_coeffs,
    transform,
)
from bnspectral import measures
from bnspectral.measures import (
    CLAMP_BUDGET,
    ENTROPY_BLOCK_BITS,
    _entropy_arr,
    _entropy_given,
    _entropy_of_expectations,
    _expected_entropy,
    _left_sum,
    _row_dot,
    _sensitivity_sum,
    avg_sensitivity,
    avg_sensitivity_spectral,
    binary_entropy,
    cond_entropy,
    cond_entropy_spectral,
    entropy_bounds,
    independence_test,
    influence,
    influence_entropy_identity,
    influence_spectral,
    mi_influence_bound_check,
    mi_single_from_coeffs,
    mutual_information,
    noise_sensitivity,
    noise_sensitivity_mc,
    output_entropy,
    psi,
    unate_coefficient_check,
    unateness,
    variance,
)
from bnspectral.sampling import random_threshold_fn

from conftest import (
    and_fn,
    const_fn,
    dictator_fn,
    fn_dist_mask_triples,
    fn_dist_pairs,
    or_fn,
    parity_fn,
    planted_fn,
    random_bool_fn,
    random_product_dist,
)

H_QUARTER = 0.811278124459133  # binary entropy of 1/4, from the defining sum


def _entropy_arr_masked(p: np.ndarray) -> np.ndarray:
    """Binary entropy with where= guards keeping 0 log 0 at exactly 0: the
    reference for ``_entropy_arr``'s unmasked form."""
    p = np.clip(p, 0.0, 1.0)
    q = 1.0 - p
    term_p = np.zeros_like(p)
    term_q = np.zeros_like(p)
    np.multiply(p, np.log2(p, out=term_p, where=p > 0.0), out=term_p, where=p > 0.0)
    np.multiply(q, np.log2(q, out=term_q, where=q > 0.0), out=term_q, where=q > 0.0)
    return -(term_p + term_q)


ENTROPY_EDGES = np.array([0.0, -0.0, 1.0, 1e-12, -1e-12, 1.0 + 1e-12, 1.0 - 1e-12,
                          5e-324, 1e-310, 1.0 - 5e-324, 0.5, 0.25, 0.75])


def _entropy_probes(rng: np.random.Generator) -> np.ndarray:
    """2^16 probabilities: uniform, down to the subnormals near 0, down to
    the last ulp near 1, and within the clamp budget of 0 and 1."""
    m = 1 << 14
    noise = rng.uniform(-CLAMP_BUDGET, CLAMP_BUDGET, size=m // 2)
    return np.concatenate([rng.random(m), 2.0 ** -rng.uniform(0.0, 1075.0, size=m),
                           1.0 - 2.0 ** -rng.uniform(1.0, 54.0, size=m), noise, 1.0 + noise])


class TestBinaryEntropy:
    def test_half_is_one(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(H_QUARTER, abs=1e-12)

    def test_domain(self):
        for bad in (-0.01, 1.01):
            with pytest.raises(ValueError):
                binary_entropy(bad)

    def test_bitwise_equal_to_vectorized_entropy(self):
        # H(f) and H(f | X_A) take their entropies from these two; a last-bit
        # difference would give an input that carries no information an MI
        # of about 1e-17
        p = np.random.default_rng(41).random(200_000)
        scalar = np.array([binary_entropy(float(v)) for v in p])
        assert np.array_equal(scalar, _entropy_arr(p))

    def test_bytes_equal_to_masked_entropy(self):
        p = np.concatenate([ENTROPY_EDGES, _entropy_probes(np.random.default_rng(42))])
        assert len(p) == len(ENTROPY_EDGES) + (1 << 16)
        for chunk in (ENTROPY_EDGES, p):
            assert _entropy_arr(chunk).tobytes() == _entropy_arr_masked(chunk).tobytes()

    def test_leaves_argument_untouched(self):
        p = np.concatenate([ENTROPY_EDGES, _entropy_probes(np.random.default_rng(43))])
        before = p.tobytes()
        _entropy_arr(p)
        assert p.tobytes() == before

    def test_entropy_of_expectations(self):
        cond = 2.0 * _entropy_probes(np.random.default_rng(44)) - 1.0
        want = _entropy_arr((1.0 + cond) / 2.0)
        assert _entropy_of_expectations(cond.copy()).tobytes() == want.tobytes()


class TestLeftSum:
    """Report sums add their floats left to right on every Python: builtin
    ``sum`` is compensated from Python 3.12 on, and would change last bits."""

    def test_adds_in_order_without_compensation(self):
        assert _left_sum([1e16, 1.0, -1e16]) == 0.0
        assert _left_sum(iter([0.1, 0.2, 0.3])) == (0.1 + 0.2) + 0.3
        assert _left_sum([]) == 0.0 and type(_left_sum([])) is float

    def test_avg_sensitivity_adds_influences_in_order(self):
        rng = np.random.default_rng(45)
        for n in range(9):
            f, d = random_bool_fn(rng, n), random_product_dist(rng, n)
            mask = int(rng.integers(0, 1 << n))
            total = 0.0
            for i in indices_of(mask):
                total += influence(f, d, i)
            assert avg_sensitivity(f, d, mask) == total


class TestInfluence:
    def test_parity2(self, uniform2):
        assert influence(parity_fn(2), uniform2, 0) == pytest.approx(1.0, abs=1e-12)

    def test_and2(self, uniform2):
        # flipping x1 changes AND2 exactly when x2 = +1
        assert influence(and_fn(2), uniform2, 0) == pytest.approx(0.5, abs=1e-12)

    def test_irrelevant_variable(self, uniform3):
        assert influence(dictator_fn(3, 0), uniform3, 2) == 0.0

    def test_index_out_of_range(self, uniform2):
        with pytest.raises(IndexError):
            influence(and_fn(2), uniform2, 2)

    def test_spectral_equals_definitional_random_n10(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            f = random_bool_fn(rng, 10)
            d = random_product_dist(rng, 10)
            s = transform(f, d)
            i = int(rng.integers(0, 10))
            assert influence_spectral(s, i) == pytest.approx(
                influence(f, d, i), abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(fn_dist_pairs(1, 8), st.data())
    def test_spectral_equals_definitional(self, pair, data):
        f, d = pair
        i = data.draw(st.integers(0, f.arity - 1))
        s = transform(f, d)
        assert influence_spectral(s, i) == pytest.approx(influence(f, d, i), abs=1e-9)


class TestAvgSensitivity:
    def test_worked_constants(self, uniform2, uniform3):
        assert avg_sensitivity(parity_fn(2), uniform2) == pytest.approx(2.0, abs=1e-12)
        assert avg_sensitivity(and_fn(2), uniform2) == pytest.approx(1.0, abs=1e-12)
        assert avg_sensitivity(and_fn(3), uniform3) == pytest.approx(0.75, abs=1e-12)
        assert avg_sensitivity(parity_fn(3), uniform3) == pytest.approx(3.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(fn_dist_mask_triples(1, 8))
    def test_spectral_form_agrees(self, triple):
        f, d, mask = triple
        s = transform(f, d)
        assert avg_sensitivity_spectral(s, mask) == pytest.approx(
            avg_sensitivity(f, d, mask), abs=1e-9)

    def test_spectral_form_finite_at_the_probability_bound(self):
        # at the smallest accepted p, 1/sigma^2 = 2^998: the sum over the
        # 20 inputs of OR stays finite (ProductDist((2.3e-308,) * 20) gave nan)
        f, d = or_fn(20), ProductDist((boolfn.MIN_P_VARIANCE,) * 20)
        assert avg_sensitivity_spectral(transform(f, d)) == avg_sensitivity(f, d) == 20.0

    def test_empty_sum_is_a_float(self, uniform2):
        # `measures --A ''` and `--expr 1` print this value beside floats
        for f, d, mask in [(and_fn(2), uniform2, 0), (const_fn(0, 1), ProductDist.uniform(0), None)]:
            got = avg_sensitivity(f, d, mask)
            assert type(got) is float and got == 0.0
        assert type(avg_sensitivity(and_fn(2), uniform2, 0b01)) is float


def _inv_var_masked(sigma: np.ndarray, mask: int, k: int) -> np.ndarray:
    """The table ``avg_sensitivity_spectral`` built before ``_sensitivity_sum``."""
    masks = np.arange(1 << k, dtype=np.int64)
    inv_var = np.zeros(1 << k, dtype=np.float64)
    for i in indices_of(mask):
        inv_var += ((masks >> i) & 1) / sigma[i] ** 2
    return inv_var


def _inv_var_group(sigma: np.ndarray, k: int) -> np.ndarray:
    """The table ``sensitivity_scatter`` built per arity group before it."""
    masks = np.arange(1 << k, dtype=np.int64)
    inv_var = np.zeros((len(sigma), 1 << k))
    for i in range(k):
        inv_var += ((masks >> i) & 1) / sigma[:, i:i + 1] ** 2
    return inv_var


class TestSubsetSums:
    """The subset sums inside ``_sensitivity_sum``, the doubling table of
    ``boolfn._subset_sums``, are bitwise equal to the statements they
    replaced, kept above: a variable left out there added an exact +0.0 to a
    nonnegative sum, so both forms add the same terms in ascending i."""

    @staticmethod
    def weights(sigma: np.ndarray, mask: int) -> np.ndarray:
        # one scalar 1/sigma_i^2 per variable, the form avg_sensitivity_spectral
        # took before it read ProductDist.inv_var
        return np.array([1.0 / sigma[i] ** 2 if mask >> i & 1 else 0.0
                         for i in range(len(sigma))])

    @staticmethod
    def table(w: np.ndarray) -> np.ndarray:
        """The kernel's (..., 2^k) table of sum_{i in S} w_i, read back
        exactly: a unit coefficient row (c_S = 1 at one S) picks one entry."""
        size = 1 << w.shape[-1]
        unit = np.eye(size).reshape((size,) + (1,) * (w.ndim - 1) + (size,))
        return np.moveaxis(_sensitivity_sum(unit, w), 0, -1)

    def test_bitwise_equal_to_old_statements(self):
        rng = np.random.default_rng(53)
        for k in range(9):
            full = (1 << k) - 1
            for _ in range(10):
                sigma = random_product_dist(rng, k).sigma
                masks = [full, int(rng.integers(0, full + 1))]
                for mask in masks:  # unbatched, all variables and a mask
                    got = self.table(self.weights(sigma, mask))
                    assert got.shape == (1 << k,)
                    assert np.array_equal(got, _inv_var_masked(sigma, mask, k))
                # batched over nodes, without a mask, weighed as in sensitivity_scatter
                group = np.stack([random_product_dist(rng, k).sigma for _ in range(5)])
                got = self.table(1.0 / group ** 2)
                assert got.shape == (5, 1 << k)
                assert np.array_equal(got, _inv_var_group(group, k))
                # and the sum over them is the row dot sensitivity_scatter took
                coeffs = rng.standard_normal((5, 1 << k))
                assert np.array_equal(_sensitivity_sum(coeffs, 1.0 / group ** 2),
                                      _row_dot(coeffs ** 2, _inv_var_group(group, k)))
                # batched with a mask per row
                row_masks = rng.integers(0, full + 1, size=5).tolist()
                w = np.stack([self.weights(s, m) for s, m in zip(group, row_masks)])
                want = np.stack([_inv_var_masked(s, m, k) for s, m in zip(group, row_masks)])
                assert np.array_equal(self.table(w), want)

    def test_avg_sensitivity_spectral_unchanged(self):
        # half the probabilities have a sigma whose square as a NumPy scalar
        # and as an array element differ in the last bit, so a weight taken
        # in the scalar form shows: the weights are the array form
        # 1.0 / sigma ** 2 of ProductDist.inv_var, the one the scatter takes
        rng = np.random.default_rng(59)
        pool = random_product_dist(rng, 20000)
        odd = [p for p, x in zip(pool.probs, pool.sigma) if x ** 2 != np.array([x]) ** 2]
        assert len(odd) >= 4
        for k in range(9):
            probs = [odd[i // 2] if i % 2 == 0 else float(rng.uniform(0.05, 0.95))
                     for i in range(k)]
            f, d = random_bool_fn(rng, k), ProductDist(tuple(probs))
            s = transform(f, d)
            for mask in (None, int(rng.integers(0, 1 << k))):
                w = 1.0 / d.sigma ** 2
                sums = np.zeros(1 << k)
                for i in indices_of((1 << k) - 1 if mask is None else mask):
                    sums += ((np.arange(1 << k) >> i) & 1) * w[i]
                assert avg_sensitivity_spectral(s, mask) == float(np.dot(s.coeffs ** 2, sums))

class TestCondEntropy:
    def test_empty_mask_is_output_entropy(self):
        d = ProductDist((0.3, 0.7))
        f = and_fn(2)
        assert cond_entropy(f, d, 0) == pytest.approx(output_entropy(f, d), abs=1e-12)

    def test_parity_given_one(self, uniform2):
        assert cond_entropy(parity_fn(2), uniform2, 0b01) == pytest.approx(1.0, abs=1e-12)

    def test_and_given_one(self, uniform2):
        # 0 bits when x1 = -1, 1 bit when x1 = +1
        assert cond_entropy(and_fn(2), uniform2, 0b01) == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(fn_dist_mask_triples(1, 8))
    def test_spectral_equals_definitional(self, triple):
        f, d, mask = triple
        assert cond_entropy(f, d, mask) == pytest.approx(
            reference.cond_entropy_definitional(f, d, mask), abs=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(fn_dist_mask_triples(1, 8))
    def test_every_relevant_variable_known_leaves_exactly_zero(self, triple):
        f, d, mask = triple
        assert cond_entropy(f, d, mask | boolfn.relevant_variables(f)) == 0.0


class TestZeroRule:
    """Given every variable it reads, a function is known: 0 bits exactly.
    For 88 (a AND b, with c irrelevant) under Pr[+1] = (0.3, 0.6, 0.8), the
    spectral sum over {a, b} gave float noise of about 1e-15, whose bits
    depended on the BLAS kernel that ran the inverse transform."""

    f = BoolFn.from_hex("88", ("a", "b", "c"))
    d = ProductDist((0.3, 0.6, 0.8))

    @pytest.mark.parametrize("mask", [0b011, 0b111], ids=["a,b", "a,b,c"])
    def test_cond_entropy(self, mask):
        assert cond_entropy(self.f, self.d, mask) == 0.0
        assert entropy_bounds(transform(self.f, self.d), mask).exact == 0.0

    def test_identity_of_an_irrelevant_variable(self):
        assert influence_entropy_identity(transform(self.f, self.d), 2) == (0.0, 0.0)

    def test_mutual_information_of_every_variable_is_output_entropy(self):
        s = transform(self.f, self.d)
        assert mutual_information(s, 0b111) == output_entropy(self.f, self.d)


B = ENTROPY_BLOCK_BITS


def _one_block(s: Spectrum, d: ProductDist, mask: int) -> float:
    """H(f | X_mask) as one weighted sum over the whole table."""
    cond = conditional_expectation_table(s, mask)
    p = d.p[list(indices_of(mask))]
    return float(np.dot(_product_weights(p), _entropy_of_expectations(cond)))


class TestBlockedCondEntropy:
    """``cond_entropy_spectral`` sums over blocks of 2^B table entries above
    B conditioning variables, and runs the one-block sum at or below it."""

    @pytest.mark.parametrize("extra, skipped", [(1, (0, -1)), (1, (0, 1)), (2, (1, -2)),
                                                (2, (-2, -1))],
                             ids=["B+1 low and high", "B+1 low", "B+2 low and high",
                                  "B+2 high"])
    def test_matches_definitional(self, extra, skipped):
        rng = np.random.default_rng(100 + extra)
        n = B + extra + 2
        f, d = random_bool_fn(rng, n), random_product_dist(rng, n)
        mask = (1 << n) - 1
        for i in skipped:
            mask &= ~(1 << (i % n))
        assert bin(mask).count("1") == B + extra
        got = cond_entropy_spectral(transform(f, d), d, mask)
        assert got == pytest.approx(reference.cond_entropy_definitional(f, d, mask),
                                    rel=0, abs=1e-12)

    @pytest.mark.parametrize("j", range(B - 1, B + 4))
    def test_matches_one_block(self, j):
        rng = np.random.default_rng(200 + j)
        n = j + 1
        f, d = random_bool_fn(rng, n), random_product_dist(rng, n)
        s = transform(f, d)
        mask = ((1 << n) - 1) & ~(1 << int(rng.integers(n)))
        got, want = cond_entropy_spectral(s, d, mask), _one_block(s, d, mask)
        if j <= B:
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("j", [0, 3, B])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_constant_gives_positive_zero(self, j, sign):
        f, d = const_fn(j, sign), ProductDist.uniform(j)
        s = transform(f, d)
        h = cond_entropy_spectral(s, d, (1 << j) - 1)
        assert h == _one_block(s, d, (1 << j) - 1) == 0.0
        # at j = 0 the one-entry dot gives -0.0; `measures --expr 1` prints h
        assert math.copysign(1.0, h) == 1.0

    @pytest.mark.parametrize("sign", [1, -1])
    def test_positive_zero_whatever_the_row_dot(self, monkeypatch, sign):
        # np.dot keeps the sign of a one-entry product, and a NumPy whose
        # matmul sends a 1 x 1 product to the same routine would too
        def dot_rows(a, b):
            rows = zip(a.reshape(-1, a.shape[-1]), b.reshape(-1, b.shape[-1]))
            return np.array([np.dot(x, y) for x, y in rows]).reshape(a.shape[:-1])

        monkeypatch.setattr(measures, "_row_dot", dot_rows)
        f, d = const_fn(0, sign), ProductDist.uniform(0)
        h = cond_entropy_spectral(transform(f, d), d, 0)
        rows = _expected_entropy(np.full((2, 1), float(sign)), np.empty((2, 0)))
        assert h == 0.0 and math.copysign(1.0, h) == 1.0
        assert rows.tolist() == [0.0, 0.0] and not np.signbit(rows).any()

    def test_builds_no_full_size_array(self, monkeypatch):
        rng = np.random.default_rng(300)
        n = B + 3
        f, d = random_bool_fn(rng, n), random_product_dist(rng, n)
        mask = (1 << n) - 2
        sizes = []

        def spy(fn):
            def wrapped(arr):
                out = fn(arr)
                sizes.append(out.size)
                return out
            return wrapped

        monkeypatch.setattr(measures, "_product_weights", spy(measures._product_weights))
        monkeypatch.setattr(measures, "_entropy_arr", spy(measures._entropy_arr))
        cond_entropy_spectral(transform(f, d), d, mask)
        assert max(sizes) == 1 << B
        assert len(sizes) == 2 + (1 << (n - 1 - B))  # w_low, w_high, one entropy per block

    @pytest.mark.parametrize("bad", [1.0 + 4 * CLAMP_BUDGET, -1.0 - 4 * CLAMP_BUDGET])
    def test_out_of_range_in_last_block_raises(self, bad):
        rng = np.random.default_rng(400)
        j = B + 2
        cond = rng.uniform(-1.0, 1.0, size=1 << j)
        p = rng.uniform(0.05, 0.95, size=j)
        assert 0.0 <= _expected_entropy(cond.copy(), p) <= 1.0
        cond[-1] = bad
        with pytest.raises(ValueError, match="beyond tolerance"):
            _expected_entropy(cond, p)


# every reader of a subset mask, each given the mask of x3 on a 2-input AND
MASK_READERS = {
    "basis_eval": lambda s, m: basis_eval(m, (1, 1), s.d),
    "Spectrum.coeff": lambda s, m: s.coeff(m),
    "subset_coeffs": subset_coeffs,
    "conditional_expectation_table": conditional_expectation_table,
    "avg_sensitivity": lambda s, m: avg_sensitivity(s.f, s.d, m),
    "avg_sensitivity_spectral": avg_sensitivity_spectral,
    "cond_entropy_spectral": lambda s, m: cond_entropy_spectral(s, s.d, m),
    "cond_entropy": lambda s, m: cond_entropy(s.f, s.d, m),
    "mutual_information": mutual_information,
    "entropy_bounds": entropy_bounds,
    "independence_test": independence_test,
    "mi_influence_bound_check": mi_influence_bound_check,
}


@pytest.mark.parametrize("name", MASK_READERS)
def test_mask_one_bit_above_the_arity_is_refused(name, uniform2):
    with pytest.raises(ValueError) as err:
        MASK_READERS[name](transform(and_fn(2), uniform2), 0b100)
    assert str(err.value) == "mask 0x4 has bits outside arity 2"


class TestMutualInformation:
    def test_parity_single_input_is_zero(self, uniform2):
        assert mutual_information(transform(parity_fn(2), uniform2), 0b01) == 0.0

    def test_and2_single(self, uniform2):
        assert mutual_information(transform(and_fn(2), uniform2), 0b01) == pytest.approx(
            H_QUARTER - 0.5, abs=1e-12)

    def test_empty_mask(self, uniform2):
        assert mutual_information(transform(and_fn(2), uniform2), 0) == 0.0

    def test_irrelevant_mask_is_exactly_zero(self):
        # f depends only on the variables in `rel`; a mask of the others
        # carries no information, so MI is 0.0 exactly, not float noise
        rng = np.random.default_rng(43)
        for _ in range(2000):
            n = int(rng.integers(2, 8))
            rel = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            g = rng.integers(0, 2, size=1 << len(rel))
            x = np.arange(1 << n)
            f = BoolFn.from_bit_array(g[sum(((x >> int(v)) & 1) << j for j, v in enumerate(rel))])
            others = [i for i in range(n) if i not in rel]
            mask = sum(1 << i for i in others if rng.random() < 0.5) or 1 << others[0]
            d = random_product_dist(rng, n)
            assert mutual_information(transform(f, d), mask) == 0.0

    def test_constant_under_float_noise(self):
        # these weights of the always-true table sum to 1 + 2.2e-16
        d = ProductDist((0.578125, 0.533351293543044, 0.5, 0.5703125, 1 / 3, 0.5, 0.5))
        f = const_fn(7, 1)
        assert output_entropy(f, d) == 0.0
        assert mutual_information(transform(f, d), (1 << 7) - 1) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(fn_dist_pairs(1, 8))
    def test_full_mask_equals_output_entropy(self, pair):
        f, d = pair
        full = (1 << f.arity) - 1
        assert mutual_information(transform(f, d), full) == pytest.approx(
            output_entropy(f, d), abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(fn_dist_pairs(1, 8))
    # a AND b with c irrelevant: MI(f; x_c) is 0, and the full mask holds
    # every relevant variable plus an irrelevant one
    @example((BoolFn.from_hex("88", ("a", "b", "c")), ProductDist((0.3, 0.6, 0.8))))
    def test_chain_bound(self, pair):
        s = transform(*pair)
        total = mutual_information(s, (1 << s.arity) - 1)
        parts = sum(mutual_information(s, 1 << i) for i in range(s.arity))
        assert parts <= total + 1e-9
        assert total <= 1.0 + 1e-12

    def test_negative_mi_raises_value_error(self):
        # under Pr[x1 = +1] = 2.5e-7, the coefficients a dictator on x1 has
        # at p = 1e-12, mu and sigma there: the conditional probabilities
        # stay within CLAMP_BUDGET of [0, 1], yet the clamped entropies give
        # MI of about -5e-9.  The function is AND, so x2 is relevant and
        # outside the mask, and the sum is taken: a mask of every relevant
        # variable would leave 0 bits and MI = H(f) >= 0
        p = 1e-12
        d = ProductDist((2.5e-7, 0.5))
        coeffs = np.array([2.0 * p - 1.0, 2.0 * math.sqrt(p * (1.0 - p)), 0.0, 0.0])
        with pytest.raises(ValueError, match="below zero"):
            mutual_information(Spectrum(and_fn(2), d, coeffs), 0b01)

    def test_output_probability_beyond_one_raises(self, uniform2):
        # a crafted empty-set coefficient of 1.5 puts Pr[f = +1] at 1.25,
        # which no clamping may absorb
        s = Spectrum(and_fn(2), uniform2, np.array([1.5, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError) as err:
            mutual_information(s, 0b11)
        assert str(err.value) == "probability 1.25 outside [0,1] beyond tolerance"

    def test_monotone_in_singleton_coefficient(self):
        # at fixed bias the single-variable MI grows with the magnitude of
        # the singleton coefficient (separately along each sign branch; the
        # two branches differ when p != 1/2)
        for p in (0.3, 0.5, 0.7):
            d = ProductDist((p,))
            for c0 in (-0.4, 0.0, 0.25):
                limit = (1.0 - abs(c0)) / max(abs(d.phi(0, -1)), abs(d.phi(0, 1)))
                grid = np.linspace(0.0, limit, 25)
                for sign in (1.0, -1.0):
                    values = [mi_single_from_coeffs(c0, sign * c1, p) for c1 in grid]
                    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
                    assert values[0] == pytest.approx(0.0, abs=1e-12)


def _row_masks(rng: np.random.Generator, f: BoolFn) -> list[int]:
    """Masks of every kind the row kernel meets: random ones, 0, the full
    mask, every singleton (irrelevant ones included), every relevant
    variable alone, and a repeat, in an order that mixes live sizes."""
    n, rel = f.arity, boolfn.relevant_variables(f)
    masks = [int(m) for m in rng.integers(0, 1 << n, size=6)]
    masks += [0, (1 << n) - 1, rel, *(1 << i for i in range(n))]
    masks.append(masks[int(rng.integers(len(masks)))])
    return [masks[i] for i in rng.permutation(len(masks))]


class TestMutualInformationRows:
    """``mutual_information(s, masks)`` is one ``_cond_entropy_rows`` call,
    and gives the same bits as one call per mask."""

    @staticmethod
    def assert_rows_equal_calls(s: Spectrum, masks: list[int]) -> np.ndarray:
        rows = mutual_information(s, masks)
        calls = [mutual_information(s, m) for m in masks]
        assert isinstance(rows, np.ndarray) and rows.dtype == np.float64
        assert rows.shape == (len(masks),)
        assert all(type(v) is float for v in calls)
        assert np.array_equal(rows, calls)
        return rows

    @pytest.mark.parametrize("n", range(13))
    def test_random_spectra(self, n):
        rng = np.random.default_rng(500 + n)
        for t in range(12):
            if t < 2:
                f = const_fn(n, 1 - 2 * t)
            elif t < 6 and n >= 2:
                f, _ = planted_fn(rng, n, random_bool_fn(rng, int(rng.integers(1, n))))
            else:
                f = random_bool_fn(rng, n)
            d = random_product_dist(rng, n)
            self.assert_rows_equal_calls(transform(f, d), _row_masks(rng, f))

    def test_zero_rule_per_row(self):
        # 88 reads a and b; given both, its spectral sum is float noise
        f, d = BoolFn.from_hex("88", ("a", "b", "c")), ProductDist((0.3, 0.6, 0.8))
        s = transform(f, d)
        rows = self.assert_rows_equal_calls(s, [0b001, 0b011, 0b100, 0b111, 0b011])
        h = output_entropy(f, d)
        assert rows[1] == rows[3] == rows[4] == h
        assert rows[2] == 0.0 and 0.0 < rows[0] < h

    def test_irrelevant_singletons_are_exactly_zero(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            f, planted = planted_fn(rng, n, random_bool_fn(rng, int(rng.integers(1, n))))
            rel = boolfn.relevant_variables(f)
            rows = self.assert_rows_equal_calls(
                transform(f, random_product_dist(rng, n)), [1 << i for i in range(n)])
            assert [rows[i] == 0.0 for i in range(n)] == [not rel >> i & 1 for i in range(n)]
            assert not rel & ~planted

    def test_constants(self):
        for n in (0, 1, 5):
            for sign in (1, -1):
                s = transform(const_fn(n, sign), ProductDist.uniform(n))
                rows = self.assert_rows_equal_calls(s, [0, (1 << n) - 1, (1 << n) - 1])
                assert rows.tolist() == [0.0, 0.0, 0.0]

    def test_empty_sequence(self, uniform2):
        rows = mutual_information(transform(and_fn(2), uniform2), [])
        assert rows.shape == (0,) and rows.dtype == np.float64

    def test_numpy_integer_mask_is_one_mask(self, uniform2):
        s = transform(and_fn(2), uniform2)
        assert mutual_information(s, np.int64(1)) == mutual_information(s, 1)
        assert type(mutual_information(s, np.int64(1))) is float
        assert np.array_equal(mutual_information(s, np.array([1, 3])),
                              mutual_information(s, [1, 3]))

    def test_bad_mask_in_a_sequence_is_refused(self, uniform2):
        with pytest.raises(ValueError, match="mask 0x4 has bits outside arity 2"):
            mutual_information(transform(and_fn(2), uniform2), [1, 0b100])

    def test_rows_above_the_block_bits(self, monkeypatch):
        # live sizes B + 1 and B (twice each), GROUPED_MIN_ARITY, 3 (twice) and 0
        rng = np.random.default_rng(600)
        n = B + 2
        f, d = random_bool_fn(rng, n), random_product_dist(rng, n)
        s = transform(f, d)
        assert boolfn.relevant_variables(f) == (1 << n) - 1
        full = (1 << n) - 1
        masks = [full ^ 1, full ^ 0b11, 0b111, full ^ 0b110, (1 << GROUPED_MIN_ARITY) - 1,
                 0, full ^ 1, 0b1011]
        tables = []

        def spy(arr, mats):
            tables.append(np.shape(arr))
            return kron_apply(arr, mats)

        monkeypatch.setattr(measures, "kron_apply", spy)
        monkeypatch.setattr(boolfn, "kron_apply", spy)
        rows = self.assert_rows_equal_calls(s, masks)
        # each wide row goes alone, as a 1-D table; narrow rows share a batch
        assert tables[:5] == [(1 << (n - 1),), (1 << (n - 2),), (2, 8), (1 << (n - 2),),
                              (1 << GROUPED_MIN_ARITY,)]
        assert [shape for shape in tables if len(shape) == 2] == [(2, 8)]
        h = output_entropy(f, d)
        want = [h - cond_entropy_spectral(s, d, m) for m in masks]
        assert rows == pytest.approx(want, rel=0, abs=1e-12)


class TestEntropyGiven:
    """``_entropy_given``, the H(f | X_A) row kernel behind the measures,
    D(j) and A(l): a 1-D row is ``cond_entropy_spectral``, and a batch of
    rows gives each row's bits."""

    def test_one_row_is_cond_entropy_spectral(self):
        rng = np.random.default_rng(41)
        for n in range(9):
            f, d = random_bool_fn(rng, n), random_product_dist(rng, n)
            s = transform(f, d)
            for mask in range(1 << n):
                ranks = np.array(indices_of(mask), dtype=np.int64)
                got = _entropy_given(subset_coeffs(s, mask), ranks, d)
                assert got.shape == ()
                assert float(got).hex() == cond_entropy_spectral(s, d, mask).hex()

    def test_rows_are_one_row_each(self):
        rng = np.random.default_rng(42)
        for n in range(1, 9):
            s = transform(random_bool_fn(rng, n), random_product_dist(rng, n))
            for j in range(n + 1):
                ranks = np.sort(np.array([rng.choice(n, j, replace=False) for _ in range(5)],
                                         dtype=np.int64).reshape(5, j), axis=1)
                got = _entropy_given(s.coeffs[_subset_index(ranks)], ranks, s.d)
                assert got.shape == (5,)
                for row, r in zip(got.tolist(), ranks):
                    assert row == _entropy_given(s.coeffs[_subset_index(r)], r, s.d)

    @pytest.mark.parametrize("j", range(3))
    def test_no_rows(self, j):
        got = _entropy_given(np.zeros((0, 1 << j)), np.zeros((0, j), dtype=np.int64),
                             ProductDist.uniform(3))
        assert got.shape == (0,) and got.dtype == np.float64


class TestEntropyBounds:
    def test_full_mask_everything_known(self, uniform2):
        b = entropy_bounds(transform(and_fn(2), uniform2), 0b11)
        assert b.lower == pytest.approx(0.0, abs=1e-12)
        assert b.exact == pytest.approx(0.0, abs=1e-12)
        assert b.upper == pytest.approx(0.0, abs=1e-12)

    def test_parity_single(self, uniform2):
        b = entropy_bounds(transform(parity_fn(2), uniform2), 0b01)
        assert (b.lower, b.exact, b.upper) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)

    def test_and_single(self, uniform2):
        b = entropy_bounds(transform(and_fn(2), uniform2), 0b01)
        assert b.lower == pytest.approx(0.5, abs=1e-12)
        assert b.exact == pytest.approx(0.5, abs=1e-12)
        assert b.upper == pytest.approx(0.5 ** (1.0 / math.log(4)), abs=1e-12)
        assert b.upper == pytest.approx(0.6065306597126334, abs=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(fn_dist_mask_triples(1, 8))
    def test_sandwich(self, triple):
        f, d, mask = triple
        b = entropy_bounds(transform(f, d), mask)
        assert b.lower <= b.exact + 1e-9
        assert b.exact <= b.upper + 1e-9

    def test_parseval_weight_beyond_the_budget_raises(self, uniform2):
        f = and_fn(2)
        coeffs = transform(f, uniform2).coeffs
        noise = Spectrum(f, uniform2, coeffs * math.sqrt(1.0 + 1e-12))
        assert entropy_bounds(noise, 0b11).lower == 0.0  # absorbed within CLAMP_BUDGET
        with pytest.raises(ValueError, match="beyond tolerance"):
            entropy_bounds(Spectrum(f, uniform2, coeffs * math.sqrt(1.0 + 1e-6)), 0b11)


class TestPsi:
    def test_endpoints(self):
        assert psi(0.0) == 0.0
        assert psi(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_global_range(self):
        xs = np.linspace(0.0, 1.0, 2001)
        values = np.array([psi(x) for x in xs])
        assert values.min() >= 0.0
        assert values.max() < 0.12

    def test_small_above_080(self):
        # psi decreases past its maximum; beyond 0.8 it stays near 0.05
        # (0.05132 at 0.8 itself) and drops below 0.05 by 0.81
        assert psi(0.8) == pytest.approx(0.051322677783472215, abs=1e-12)
        assert psi(0.85) < 0.05
        for x in np.linspace(0.81, 1.0, 50):
            assert psi(x) < 0.05

    def test_domain(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                psi(bad)


class TestSensitivityMiBound:
    def test_parity_slack_one(self, uniform2):
        lhs, rhs = mi_influence_bound_check(transform(parity_fn(2), uniform2), 0b01)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_and2_components(self, uniform2):
        lhs, rhs = mi_influence_bound_check(transform(and_fn(2), uniform2), 0b01)
        assert lhs == pytest.approx(0.5, abs=1e-12)
        assert rhs == pytest.approx((H_QUARTER - 0.5) - psi(0.75), abs=1e-9)
        assert lhs >= rhs

    def test_constant_function(self, uniform2):
        lhs, rhs = mi_influence_bound_check(transform(const_fn(2, 1), uniform2), 0b01)
        assert lhs == 0.0
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_empty_mask_rejected(self, uniform2):
        with pytest.raises(ValueError):
            mi_influence_bound_check(transform(and_fn(2), uniform2), 0)

    @settings(max_examples=80, deadline=None)
    @given(fn_dist_mask_triples(1, 8))
    def test_inequality_holds(self, triple):
        f, d, mask = triple
        if mask == 0:
            mask = 1
        lhs, rhs = mi_influence_bound_check(transform(f, d), mask)
        assert lhs >= rhs - 1e-12


class TestInfluenceEntropyIdentity:
    def test_and2(self, uniform2):
        inf, ratio = influence_entropy_identity(transform(and_fn(2), uniform2), 0)
        assert inf == pytest.approx(0.5, abs=1e-12)
        assert ratio == pytest.approx(0.5, abs=1e-12)

    def test_parity2(self, uniform2):
        assert influence_entropy_identity(transform(parity_fn(2), uniform2), 0) == pytest.approx(
            (1.0, 1.0), abs=1e-12)

    def test_dictator_biased(self):
        d = ProductDist((0.85,))
        inf, ratio = influence_entropy_identity(transform(dictator_fn(1, 0), d), 0)
        assert inf == pytest.approx(1.0, abs=1e-12)
        assert ratio == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(fn_dist_pairs(1, 8), st.data())
    def test_identity_holds(self, pair, data):
        f, d = pair
        i = data.draw(st.integers(0, f.arity - 1))
        inf, ratio = influence_entropy_identity(transform(f, d), i)
        assert inf == pytest.approx(ratio, abs=1e-9)


class TestIndependence:
    def test_parity_subsets(self):
        for n in (2, 3, 4):
            f = parity_fn(n)
            d = ProductDist.uniform(n)
            s = transform(f, d)
            for mask in range(1 << n):
                expected = mask != (1 << n) - 1
                assert independence_test(s, mask) == expected

    def test_and2_single_dependent(self, uniform2):
        s = transform(and_fn(2), uniform2)
        assert independence_test(s, 0b01) is False

    def test_empty_mask_vacuous(self, uniform2):
        s = transform(and_fn(2), uniform2)
        assert independence_test(s, 0) is True

    @settings(max_examples=100, deadline=None)
    @given(fn_dist_mask_triples(1, 6))
    def test_matches_joint_factorization(self, triple):
        f, d, mask = triple
        s = transform(f, d)
        assert independence_test(s, mask, tol=1e-9) == \
            reference.independent_definitional(f, d, mask, tol=1e-9)


def unateness_by_signs(f: BoolFn) -> tuple[bool, tuple[int | None, ...]]:
    """The former unateness test: compare the two restrictions of each
    variable pointwise over the float signs, through a (-1, 2, 2^i) view."""
    polarity: list[int | None] = []
    is_unate = True
    for i in range(f.arity):
        view = f.signs.reshape(-1, 2, 1 << i)
        lo, hi = view[:, 0, :], view[:, 1, :]
        up = bool(np.all(lo <= hi))
        down = bool(np.all(hi <= lo))
        if up and down:
            polarity.append(None)
        elif up:
            polarity.append(1)
        elif down:
            polarity.append(-1)
        else:
            polarity.append(0)
            is_unate = False
    return is_unate, tuple(polarity)


def check_against_signs(f: BoolFn) -> None:
    prof = unateness(f)
    assert (prof.is_unate, prof.polarity) == unateness_by_signs(f)


class TestUnateness:
    def test_matches_signs_exhaustive(self):
        for k in range(5):
            labels = default_labels(k)
            for t in range(1 << (1 << k)):
                check_against_signs(BoolFn(k, labels, t))

    def test_matches_signs_planted(self):
        # planted threshold functions are unate with every polarity showing;
        # planted random tables are almost never unate
        rng = np.random.default_rng(11)
        for k in range(5, 13):
            for _ in range(10):
                r = int(rng.integers(0, k + 1))
                check_against_signs(planted_fn(rng, k, random_threshold_fn(r, rng)[0])[0])
                check_against_signs(planted_fn(rng, k, random_bool_fn(rng, r))[0])

    def test_matches_signs_n20(self):
        rng = np.random.default_rng(12)
        inner, signs = random_threshold_fn(8, rng)
        f, planted = planted_fn(rng, 20, inner)
        prof = unateness(f)
        assert (prof.is_unate, prof.polarity) == unateness_by_signs(f)
        assert prof.is_unate and {1, -1} <= set(prof.polarity)
        planted_at = [i for i in range(20) if (planted >> i) & 1]
        assert all(prof.polarity[i] in (None, a) for i, a in zip(planted_at, signs))
        assert all(prof.polarity[i] is None for i in range(20) if i not in planted_at)

    def test_and2(self):
        prof = unateness(and_fn(2))
        assert prof.is_unate
        assert prof.polarity == (1, 1)

    def test_parity_not_unate(self):
        prof = unateness(parity_fn(2))
        assert not prof.is_unate
        assert prof.polarity == (0, 0)

    def test_mixed_polarity(self):
        f = BoolFn.from_callable(2, lambda x: max(-x[0], x[1]))  # NOT x1 OR x2
        prof = unateness(f)
        assert prof.is_unate
        assert prof.polarity == (-1, 1)

    def test_irrelevant_is_unconstrained(self):
        prof = unateness(dictator_fn(2, 0))
        assert prof.is_unate
        assert prof.polarity == (1, None)


class TestUnateCoefficients:
    def test_and2(self, uniform2):
        rows = unate_coefficient_check(transform(and_fn(2), uniform2))
        assert rows[0] == pytest.approx((0, 0.5, 0.5), abs=1e-12)

    def test_dictator(self):
        d = ProductDist.uniform(1)
        rows = unate_coefficient_check(transform(dictator_fn(1, 0), d))
        assert rows[0] == pytest.approx((0, 1.0, 1.0), abs=1e-12)

    def test_and3(self, uniform3):
        rows = unate_coefficient_check(transform(and_fn(3), uniform3))
        # I_1(AND3) = Pr[x2 = x3 = +1] = 1/4
        assert rows[0] == pytest.approx((0, 0.25, 0.25), abs=1e-12)

    def test_rejects_non_unate(self, uniform2):
        with pytest.raises(ValueError):
            unate_coefficient_check(transform(parity_fn(2), uniform2))

    def test_threshold_functions_random(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            f, _ = random_threshold_fn(n, rng)
            d = random_product_dist(rng, n)
            s = transform(f, d)
            rel = 0
            for i, coeff, product in unate_coefficient_check(s):
                assert coeff == pytest.approx(product, abs=1e-9)
                if influence(f, d, i) > 0:
                    rel += 1
                    # relevant variable of a unate function carries information
                    assert mutual_information(s, 1 << i) > 1e-12

    def test_mi_via_influence_matches(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            f, _ = random_threshold_fn(n, rng)
            d = random_product_dist(rng, n)
            s = transform(f, d)
            for i, _, product in unate_coefficient_check(s):
                direct = mutual_information(s, 1 << i)
                via = mi_single_from_coeffs(s.coeff(0), product, d.probs[i])
                assert direct == pytest.approx(via, abs=1e-9)

    def test_converse_witness_search_up_to_n4(self):
        # the singleton identity holding everywhere need not force
        # unateness; search every table of arity <= 4 for a witness.
        # No witness exists in this range at uniform (verified exhaustively
        # here), so the search only asserts consistency of anything found.
        witnesses = []
        for n in (2, 3, 4):
            size = 1 << n
            idx = np.arange(size)
            x_cols = np.stack([2.0 * ((idx >> i) & 1) - 1.0 for i in range(n)], axis=1)
            tables = np.arange(1 << size, dtype=np.uint64)
            bits = ((tables[:, None] >> np.arange(size, dtype=np.uint64)) & 1).astype(np.int8)
            signs = 2.0 * bits - 1.0
            fhat = signs @ x_cols / size
            holds = np.ones(len(tables), dtype=bool)
            for i in range(n):
                inf_i = np.mean(signs != signs[:, idx ^ (1 << i)], axis=1)
                holds &= np.abs(np.abs(fhat[:, i]) - inf_i) < 1e-9
            for t in np.nonzero(holds)[0]:
                f = BoolFn(n, default_labels(n), int(t))
                if not unateness(f).is_unate:
                    witnesses.append(f)
        for f in witnesses:
            assert not unateness(f).is_unate
        assert witnesses == []  # documented outcome of the exhaustive search


class TestNoiseSensitivity:
    def test_zero_eps(self, uniform2):
        assert noise_sensitivity(and_fn(2), uniform2, 0.0) == 0.0

    def test_parity2_closed_form(self, uniform2):
        for eps in (0.05, 0.1, 0.25, 0.5):
            got = noise_sensitivity(parity_fn(2), uniform2, eps)
            assert got == pytest.approx(2 * eps * (1 - eps), abs=1e-12)

    def test_uniform_upper_bound(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            f = random_bool_fn(rng, n)
            d = ProductDist.uniform(n)
            eps = float(rng.uniform(0.0, 0.5))
            ns = noise_sensitivity(f, d, eps)
            assert ns <= eps * avg_sensitivity(f, d) + 1e-12

    def test_eps_range(self, uniform2):
        with pytest.raises(ValueError):
            noise_sensitivity(and_fn(2), uniform2, 0.6)

    def test_form_beyond_the_budget_raises(self, monkeypatch, uniform2):
        def kernel(excess):  # a stand-in whose f . (W T) f is 1 + excess
            return lambda arr, mats: arr * (1.0 + excess) / arr.size

        monkeypatch.setattr(measures, "kron_apply", kernel(1e-12))
        assert noise_sensitivity(and_fn(2), uniform2, 0.2) == 0.0  # absorbed
        monkeypatch.setattr(measures, "kron_apply", kernel(1e-6))
        with pytest.raises(ValueError, match="beyond tolerance"):
            noise_sensitivity(and_fn(2), uniform2, 0.2)

    def test_exact_matches_definitional(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            n = int(rng.integers(0, 9))
            f = random_bool_fn(rng, n)
            d = random_product_dist(rng, n)
            eps = float(rng.uniform(0.0, 0.5))
            want = reference.noise_sensitivity_definitional(f, d, eps)
            assert noise_sensitivity(f, d, eps) == pytest.approx(want, abs=1e-12)

    def test_exact_closed_forms_n16(self):
        n = 16
        idx = np.arange(1 << n)
        ones = sum((idx >> i) & 1 for i in range(n))
        parity = BoolFn.from_bit_array((n - ones) % 2 == 0)
        dictator = BoolFn.from_bit_array((idx >> 3) & 1)
        d = ProductDist(tuple(0.1 + 0.05 * i for i in range(n)))
        for eps in (0.0, 0.03, 0.2, 0.5):
            want = (1.0 - (1.0 - 2.0 * eps) ** n) / 2.0
            assert noise_sensitivity(parity, d, eps) == pytest.approx(want, abs=1e-12)
            assert noise_sensitivity(dictator, d, eps) == pytest.approx(eps, abs=1e-12)

    def test_exact_builds_no_weight_array(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("2^n weight array built")

        monkeypatch.setattr(ProductDist, "weights", refuse)
        monkeypatch.setattr(boolfn, "_product_weights", refuse)
        monkeypatch.setattr(measures, "_product_weights", refuse)
        rng = np.random.default_rng(42)
        for n in (10, GROUPED_MIN_ARITY):
            f, d = random_bool_fn(rng, n), random_product_dist(rng, n)
            assert 0.0 < noise_sensitivity(f, d, 0.1) < 1.0

    @pytest.mark.parametrize("n", [13, 14, 15, 16, 17])
    def test_exact_matches_operator_form(self, n):
        """The folded form f . (W T) f against T applied one flip per
        variable, then a dot weighted by Pr[X = x]."""
        rng = np.random.default_rng(500 + n)
        f, d = random_bool_fn(rng, n), random_product_dist(rng, n, 0.02, 0.3)
        idx = np.arange(1 << n)
        w = np.ones(1 << n)
        for i, p in enumerate(d.probs):
            w *= np.where((idx >> i) & 1, p, 1.0 - p)
        for eps in (0.0, 0.03, 0.5):
            tf = np.array(f.signs)
            for i in range(n):
                view = tf.reshape(-1, 2, 1 << i)
                lo, hi = view[:, 0, :].copy(), view[:, 1, :].copy()
                view[:, 0, :] = (1.0 - eps) * lo + eps * hi
                view[:, 1, :] = eps * lo + (1.0 - eps) * hi
            want = (1.0 - float(np.dot(w, f.signs * tf))) / 2.0
            assert noise_sensitivity(f, d, eps) == pytest.approx(want, rel=0, abs=1e-12), eps

    def test_exact_checks_cap_before_building_tables(self):
        f = BoolFn(26, default_labels(26), 0)
        with pytest.raises(ArityCapError):
            noise_sensitivity(f, ProductDist.uniform(26), 0.1)
        assert "bits" not in vars(f) and "signs" not in vars(f)

    def test_monte_carlo_matches_exact(self, uniform2):
        f = and_fn(2)
        exact = noise_sensitivity(f, uniform2, 0.2)
        est, se = noise_sensitivity_mc(f, uniform2, 0.2, samples=200_000, seed=9)
        assert abs(est - exact) < 5 * se + 1e-9
        est2, _ = noise_sensitivity_mc(f, uniform2, 0.2, samples=200_000, seed=9)
        assert est == est2

    def test_monte_carlo_eps_range(self, uniform2):
        with pytest.raises(ValueError) as err:
            noise_sensitivity_mc(and_fn(2), uniform2, 0.6, samples=10, seed=0)
        assert str(err.value) == "flip probability 0.6 outside [0, 1/2]"

    def test_unknown_mode(self, uniform2):
        with pytest.raises(ValueError) as err:
            noise_sensitivity(and_fn(2), uniform2, 0.2, mode="monte-carlo")
        assert str(err.value) == "unknown mode 'monte-carlo'"

    def test_monte_carlo_rejects_nonpositive_samples(self, uniform2):
        for samples in (0, -5):
            with pytest.raises(ValueError, match="samples"):
                noise_sensitivity_mc(and_fn(2), uniform2, 0.2, samples=samples)


def test_truth_table_measures_share_one_weight_array(monkeypatch):
    """``ProductDist.weights()`` builds Pr[X = x] once per distribution, and
    every truth-table measure of one (f, d) reads that array."""
    f = and_fn(3)
    d = ProductDist((0.3, 0.6, 0.8))
    s = transform(f, d)
    builds = []
    original = boolfn._product_weights

    def counted(p):
        builds.append(p)
        return original(p)

    monkeypatch.setattr(boolfn, "_product_weights", counted)
    for i in range(3):
        influence(f, d, i)
    avg_sensitivity(f, d)
    measures.prob_one(f, d)
    variance(f, d)
    output_entropy(f, d)
    unate_coefficient_check(s)
    assert len(builds) == 1 and builds[0] is d.p


def test_variance_matches_spectrum(uniform3):
    f = and_fn(3)
    s = transform(f, uniform3)
    assert variance(f, uniform3) == pytest.approx(1.0 - s.coeff(0) ** 2, abs=1e-12)


class TestSpectrumDistribution:
    """A spectral form reads its spectrum only under the distribution the
    spectrum was computed under."""

    D45 = ProductDist((0.45, 0.45))
    READS = {
        "cond_entropy_spectral": lambda s, d: cond_entropy_spectral(s, d, 0b01),
        "reconstruct_table": lambda s, d: reconstruct_table(s, d),
    }

    @pytest.mark.parametrize("name", READS)
    def test_other_distribution_raises(self, name, uniform2):
        read = self.READS[name]
        s = transform(and_fn(2), uniform2)
        read(s, s.d)
        read(s, ProductDist.uniform(2))  # an equal distribution is the same one
        for d in (self.D45, ProductDist.uniform(3)):
            with pytest.raises(ValueError, match="spectrum of distribution"):
                read(s, d)

    def test_and2_under_its_own_distribution(self):
        # H(AND | x1) = 0.45 h(0.45) under (0.45, 0.45)
        s = transform(and_fn(2), self.D45)
        assert cond_entropy_spectral(s, self.D45, 0b01) == pytest.approx(
            0.45 * binary_entropy(0.45), abs=1e-12)

    def test_spectrum_refuses_a_distribution_of_other_arity(self):
        with pytest.raises(ValueError, match="arity mismatch"):
            Spectrum(BoolFn(2, ("a", "b"), 8), ProductDist.uniform(3), np.zeros(4))

    def test_only_two_spectral_forms_take_a_distribution(self):
        # every other public function of a spectrum reads the spectrum's own d
        takes_d = set()
        for info in pkgutil.iter_modules(bnspectral.__path__):
            module = importlib.import_module(f"bnspectral.{info.name}")
            for name, fn in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                kinds = [p.annotation for p in inspect.signature(fn, eval_str=True).parameters.values()]
                if kinds[:1] == [Spectrum] and ProductDist in kinds:
                    takes_d.add(name)
        assert takes_d == {"reconstruct_table", "cond_entropy_spectral"}
        assert not hasattr(measures, "mi_spectral")


class TestOneTransformPerPair:
    """Each (function, distribution) pair is transformed once, and every
    measure of it reads that spectrum."""

    @pytest.fixture
    def transforms(self, monkeypatch):
        """The pairs passed to ``transform`` through any binding of it in the
        loaded ``bnspectral`` modules."""
        import bnspectral.cli  # noqa: F401  (loads every module that binds it)
        from bnspectral import boolfn

        pairs = []
        original = boolfn.transform

        def counted(f, d, *args, **kwargs):
            pairs.append((f, d))
            return original(f, d, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "bnspectral" or name.startswith("bnspectral."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counted)
        return pairs

    def test_cli_measures(self, transforms, capsys):
        from bnspectral.cli import main

        assert main(["measures", "--expr", "(a AND b) OR (c AND NOT d) OR e",
                     "--A", "a,c"]) == 0
        assert len(transforms) == 1

    def test_selftest(self, transforms):
        from bnspectral.selftest import run_selftest

        reports = run_selftest(20, max_n=8, seed=0)
        assert all(r.passed for r in reports)
        # the random function and the random unate function of each instance
        assert len(transforms) == 40
        assert len({(f.table, f.arity, d.probs) for f, d in transforms}) == 40
