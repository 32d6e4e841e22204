"""Unit tests for the radix sort and randomness primitives."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.pram.cost import tracking
from repro.primitives import sort as sort_module
from repro.primitives.rand import (
    _argsort_stable_if_tied,
    exponential_shifts,
    hash_randoms,
    random_permutation,
    splitmix64,
    uniform_fractions,
)
from repro.primitives.sort import (
    lsd_argsort,
    radix_argsort,
    radix_sort,
    sort_pairs_by_key,
)


class TestRadixSort:
    def test_sorts_small(self):
        assert radix_sort(np.array([3, 1, 2])).tolist() == [1, 2, 3]

    def test_sorts_with_duplicates(self):
        assert radix_sort(np.array([2, 1, 2, 0, 1])).tolist() == [0, 1, 1, 2, 2]

    def test_matches_numpy_on_wide_keys(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 1 << 48, size=5000)
        assert np.array_equal(radix_sort(keys), np.sort(keys))

    def test_empty(self):
        assert radix_sort(np.array([], dtype=np.int64)).size == 0

    def test_single(self):
        assert radix_sort(np.array([42])).tolist() == [42]

    def test_all_equal(self):
        assert radix_sort(np.full(10, 7)).tolist() == [7] * 10

    def test_argsort_is_stable(self):
        keys = np.array([1, 0, 1, 0, 1])
        perm = radix_argsort(keys)
        # equal keys must appear in input order
        zeros = perm[keys[perm] == 0]
        ones = perm[keys[perm] == 1]
        assert zeros.tolist() == [1, 3]
        assert ones.tolist() == [0, 2, 4]

    def test_rejects_negative_keys(self):
        with pytest.raises(ValueError, match="non-negative"):
            radix_sort(np.array([1, -2]))

    def test_rejects_key_above_declared_max(self):
        with pytest.raises(ValueError, match="max_key"):
            radix_argsort(np.array([10]), max_key=5)

    def test_passes_scale_with_key_width(self):
        small_keys = np.arange(100)  # fits one 16-bit pass
        wide_keys = np.arange(100) << 40  # needs four passes
        with tracking() as t_small:
            radix_sort(small_keys)
        with tracking() as t_wide:
            radix_sort(wide_keys, max_key=int(wide_keys.max()))
        assert t_wide.total_work() > 2 * t_small.total_work()

    def test_sort_pairs_by_key(self):
        keys = np.array([2, 0, 1])
        vals = np.array([20, 0, 10])
        k, v = sort_pairs_by_key(keys, vals)
        assert k.tolist() == [0, 1, 2]
        assert v.tolist() == [0, 10, 20]

    def test_sort_pairs_length_mismatch(self):
        with pytest.raises(ValueError):
            sort_pairs_by_key(np.arange(3), np.arange(2))


@st.composite
def keys_and_bound(draw):
    """Keys spanning 1-4 digits, with duplicates and keys at the bound."""
    passes = draw(st.integers(min_value=1, max_value=4))
    lowest = 1 << (16 * (passes - 1)) if passes > 1 else 0
    highest = min((1 << (16 * passes)) - 1, np.iinfo(np.int64).max)
    max_key = draw(st.integers(min_value=lowest, max_value=highest))
    pool = draw(
        st.lists(st.integers(min_value=0, max_value=max_key), min_size=1, max_size=8)
    )
    keys = draw(
        st.lists(
            st.one_of(
                st.sampled_from(pool),
                st.just(max_key),
                st.integers(min_value=0, max_value=max_key),
            ),
            max_size=400,
        )
    )
    return np.array(keys, dtype=np.int64), max_key


class TestLsdArgsort:
    """The fast backend's digit passes == NumPy's stable argsort."""

    @settings(max_examples=150, deadline=None)
    @given(keys_and_bound())
    def test_matches_stable_argsort(self, case):
        keys, max_key = case
        perm = lsd_argsort(keys, max_key)
        assert perm.dtype == np.int64
        assert np.array_equal(perm, np.argsort(keys, kind="stable"))

    @settings(max_examples=60, deadline=None)
    @given(keys_and_bound())
    def test_shifted_digits_match_the_view(self, case):
        # The fallback for hosts where the uint16 view is not the digit.
        keys, max_key = case
        with mock.patch.object(sort_module, "_LITTLE_ENDIAN", False):
            perm = lsd_argsort(keys, max_key)
        assert np.array_equal(perm, np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("n", [0, 1])
    def test_trivial_sizes(self, n):
        keys = np.full(n, 5, dtype=np.int64)
        assert lsd_argsort(keys, 5).tolist() == list(range(n))

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(3)
        base = rng.integers(0, 1 << 40, size=2000, dtype=np.int64)
        base[::7] = base[3]
        strided = base[::3]
        assert not strided.flags.c_contiguous
        perm = lsd_argsort(strided, 1 << 40)
        assert np.array_equal(perm, np.argsort(strided, kind="stable"))

    def test_other_integer_dtypes(self):
        keys = np.array([9, 3, 9, 0, 3], dtype=np.int32)
        assert lsd_argsort(keys, 9).tolist() == [3, 1, 4, 0, 2]
        top = np.array([2**63 + 5, 3, 2**63, 3], dtype=np.uint64)
        assert lsd_argsort(top, 2**64 - 1).tolist() == [1, 3, 2, 0]
        with mock.patch.object(sort_module, "_LITTLE_ENDIAN", False):
            assert lsd_argsort(top, 2**64 - 1).tolist() == [1, 3, 2, 0]

    def test_sorted_input_is_the_identity(self):
        keys = np.repeat(np.arange(50, dtype=np.int64) << 20, 3)
        assert np.array_equal(lsd_argsort(keys, int(keys.max())), np.arange(150))

    def test_keys_at_max_key_sort_last(self):
        max_key = (1 << 48) - 1
        keys = np.array([max_key, 0, max_key, 1 << 47, 0], dtype=np.int64)
        assert lsd_argsort(keys, max_key).tolist() == [1, 4, 3, 0, 2]

    def test_radix_argsort_charge_is_the_declared_width(self):
        # The passes run to the largest key's digit; the charge follows
        # the declared max_key, as the reference pass loop does.
        keys = np.array([3, 1, 2], dtype=np.int64)
        with tracking() as t:
            radix_argsort(keys, max_key=(1 << 40) - 1)
        assert t.total_work() == 3.0 * 3


class TestHashPRNG:
    def test_splitmix_deterministic(self):
        x = np.arange(10, dtype=np.uint64)
        assert np.array_equal(splitmix64(x), splitmix64(x))

    def test_splitmix_mixes(self):
        out = splitmix64(np.arange(1000, dtype=np.uint64))
        # consecutive counters must map to wildly different values
        assert np.unique(out).size == 1000
        assert np.abs(np.diff(out.astype(np.float64))).min() > 0

    def test_hash_randoms_deterministic_per_seed(self):
        assert np.array_equal(hash_randoms(50, 7), hash_randoms(50, 7))
        assert not np.array_equal(hash_randoms(50, 7), hash_randoms(50, 8))

    def test_hash_randoms_streams_independent(self):
        assert not np.array_equal(
            hash_randoms(50, 7, stream=0), hash_randoms(50, 7, stream=1)
        )

    def test_hash_randoms_rejects_negative_n(self):
        with pytest.raises(ParameterError):
            hash_randoms(-1, 0)

    def test_uniform_fractions_in_unit_interval(self):
        u = uniform_fractions(10_000, 3)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.02


class TestRandomPermutation:
    def test_is_permutation(self):
        p = random_permutation(1000, 5)
        assert np.array_equal(np.sort(p), np.arange(1000))

    def test_deterministic_per_seed(self):
        assert np.array_equal(random_permutation(100, 1), random_permutation(100, 1))

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            random_permutation(100, 1), random_permutation(100, 2)
        )

    def test_edge_sizes(self):
        assert random_permutation(0, 1).size == 0
        assert random_permutation(1, 1).tolist() == [0]

    def test_uniformity_chi_square_lite(self):
        # position of element 0 should be ~uniform across many seeds
        n = 8
        counts = np.zeros(n)
        for seed in range(400):
            p = random_permutation(n, seed)
            counts[np.flatnonzero(p == 0)[0]] += 1
        expected = 400 / n
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 30.0  # df=7, p ~ 1e-4 cutoff


    @pytest.mark.parametrize(
        "keys",
        [
            [5, 3, 5, 1, 3, 5],
            [7] * 40,
            list(range(30, 0, -1)) + [15, 15, 15],
            [2, 1],
            # Long enough that NumPy's default argsort leaves insertion
            # sort and reorders equal keys.
            np.random.default_rng(0).integers(0, 50, size=500).tolist(),
        ],
    )
    def test_tie_check_returns_the_stable_order(self, keys):
        # Equal keys must come back in index order, as the stable
        # per-digit sort of the reference backend orders them.
        k = np.array(keys, dtype=np.int64)
        perm = _argsort_stable_if_tied(k)
        assert perm.dtype == np.int64
        assert perm.tolist() == np.argsort(k, kind="stable").tolist()


class TestExponentialShifts:
    def test_mean_matches_one_over_beta(self):
        s = exponential_shifts(50_000, 0.25, 9)
        assert s.mean() == pytest.approx(4.0, rel=0.05)

    def test_all_nonnegative(self):
        assert exponential_shifts(1000, 0.5, 2).min() >= 0.0

    def test_max_is_order_log_n_over_beta(self):
        n, beta = 10_000, 0.2
        s = exponential_shifts(n, beta, 3)
        assert s.max() < 5.0 * np.log(n) / beta

    def test_rejects_bad_beta(self):
        with pytest.raises(ParameterError):
            exponential_shifts(10, 0.0, 1)
        with pytest.raises(ParameterError):
            exponential_shifts(10, 1.0, 1)

    def test_memorylessness_lite(self):
        # P(X > a+b | X > a) ~ P(X > b)
        s = exponential_shifts(200_000, 0.5, 4)
        a = b = 1.0
        p_cond = np.mean(s[s > a] > a + b)
        p_plain = np.mean(s > b)
        assert p_cond == pytest.approx(p_plain, abs=0.02)
