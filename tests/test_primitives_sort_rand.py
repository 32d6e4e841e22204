"""Unit tests for the radix sort and randomness primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.pram.cost import tracking
from repro.primitives.rand import (
    exponential_shifts,
    hash_randoms,
    random_permutation,
    splitmix64,
    uniform_fractions,
)
from repro.primitives.sort import (
    packed_argsort,
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


#: The widest key range: the start permutation's 63-bit keys.
WIDEST = 2**63 - 1


@st.composite
def colliding_keys(draw):
    """63-bit keys that share long prefixes, with exact ties among them."""
    bases = draw(
        st.lists(st.integers(min_value=0, max_value=WIDEST), min_size=1, max_size=4)
    )
    low_bits = draw(st.integers(min_value=0, max_value=12))
    keys = draw(
        st.lists(
            st.tuples(
                st.sampled_from(bases),
                st.integers(min_value=0, max_value=(1 << low_bits) - 1),
            ),
            max_size=600,
        )
    )
    return np.array([(b >> low_bits << low_bits) | x for b, x in keys], dtype=np.int64)


class TestLsdArgsort:
    """``packed_argsort`` == NumPy's stable argsort.

    The class keeps the name of the 16-bit digit-pass sort that
    ``packed_argsort`` replaced; every case it pinned still applies.
    """

    @settings(max_examples=150, deadline=None)
    @given(keys_and_bound())
    def test_matches_stable_argsort(self, case):
        keys, max_key = case
        perm = packed_argsort(keys, max_key)
        assert perm.dtype == np.int64
        assert np.array_equal(perm, np.argsort(keys, kind="stable"))

    @settings(max_examples=60, deadline=None)
    @given(keys_and_bound())
    def test_shifted_digits_match_the_view(self, case):
        # Declaring the widest max_key drops low key bits from every
        # packed word (s > 0): the runs of equal prefixes are re-sorted
        # by key, which must restore the stable order.
        keys, _ = case
        perm = packed_argsort(keys, WIDEST)
        assert np.array_equal(perm, np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("n", [0, 1])
    def test_trivial_sizes(self, n):
        keys = np.full(n, 5, dtype=np.int64)
        assert packed_argsort(keys, 5).tolist() == list(range(n))

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(3)
        base = rng.integers(0, 1 << 40, size=2000, dtype=np.int64)
        base[::7] = base[3]
        strided = base[::3]
        assert not strided.flags.c_contiguous
        perm = packed_argsort(strided, 1 << 40)
        assert np.array_equal(perm, np.argsort(strided, kind="stable"))

    def test_other_integer_dtypes(self):
        keys = np.array([9, 3, 9, 0, 3], dtype=np.int32)
        assert packed_argsort(keys, 9).tolist() == [3, 1, 4, 0, 2]
        top = np.array([2**63 + 5, 3, 2**63, 3], dtype=np.uint64)
        assert packed_argsort(top, 2**64 - 1).tolist() == [1, 3, 2, 0]

    def test_sorted_input_is_the_identity(self):
        keys = np.repeat(np.arange(50, dtype=np.int64) << 20, 3)
        assert np.array_equal(packed_argsort(keys, int(keys.max())), np.arange(150))

    def test_keys_at_max_key_sort_last(self):
        max_key = (1 << 48) - 1
        keys = np.array([max_key, 0, max_key, 1 << 47, 0], dtype=np.int64)
        assert packed_argsort(keys, max_key).tolist() == [1, 4, 3, 0, 2]

    def test_radix_argsort_charge_is_the_declared_width(self):
        # The sort packs against the largest key; the charge follows
        # the declared max_key, as the reference pass loop does.
        keys = np.array([3, 1, 2], dtype=np.int64)
        with tracking() as t:
            radix_argsort(keys, max_key=(1 << 40) - 1)
        assert t.total_work() == 3.0 * 3

    def test_keys_differing_below_the_prefix(self):
        # 1000 keys pack 10 index bits, so the low 10 key bits are
        # dropped: keys that differ only there tie on the prefix and
        # come back out of order unless the runs are re-sorted.
        rng = np.random.default_rng(11)
        high = rng.integers(0, 1 << 53, size=1000, dtype=np.int64) % 40
        keys = (high << 10) | rng.integers(0, 1 << 10, size=1000, dtype=np.int64)
        keys |= np.int64(1 << 62)
        assert np.unique(keys >> 10).size < np.unique(keys).size
        assert np.array_equal(
            packed_argsort(keys, WIDEST), np.argsort(keys, kind="stable")
        )

    def test_exact_ties_keep_index_order(self):
        keys = np.array([WIDEST, 5, WIDEST, 5, WIDEST - 1, 5], dtype=np.int64)
        assert packed_argsort(keys, WIDEST).tolist() == [1, 3, 5, 4, 0, 2]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 255, 256, 257, 1024, 1025])
    @pytest.mark.parametrize("extra_bits", [-1, 0, 1])
    def test_index_bit_boundaries(self, n, extra_bits):
        # bitlen(max_key) + bitlen(n - 1) at 62, 63 and 64: the words
        # keep every key bit, exactly fill 63 bits, or drop one bit.
        b = (n - 1).bit_length()
        max_key = (1 << (63 - b + extra_bits)) - 1
        rng = np.random.default_rng(n)
        keys = rng.integers(max_key - 3, max_key, size=n, endpoint=True)
        keys[::3] = max_key
        assert np.array_equal(
            packed_argsort(keys, max_key), np.argsort(keys, kind="stable")
        )

    @settings(max_examples=100, deadline=None)
    @given(colliding_keys(), st.booleans())
    def test_colliding_prefixes_match_stable_argsort(self, keys, tight):
        max_key = int(keys.max()) if tight and keys.size else WIDEST
        perm = packed_argsort(keys, max_key)
        assert np.array_equal(perm, np.argsort(keys, kind="stable"))


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

    @pytest.mark.parametrize(
        "seed,stream,expected",
        [
            (0, 0, [0xA706DD2F4D197E6F, 0x2A98F501AF37E97F]),
            (7, 1, [0xA924EA4A1483507A, 0x46316584933D0031]),
            (2**63 + 5, 13, [0x25B113C2D2B041A8, 0xEFD04E843216376D]),
            (2**64 - 1, 11, [0x5C11C939B83C83BF, 0xAE4887FED618144E]),
            (-1, 2, [0x48A95E3C807A286C, 0x80FECF4E51B3A3AD]),
            (-12345, 99, [0x5FFE43C09C54101D, 0xF6B5B7AE2CD865F1]),
        ],
    )
    def test_hash_randoms_pinned_values(self, seed, stream, expected):
        # Every schedule, permutation and generator draws from these
        # streams; a changed value changes every seeded artifact.
        out = hash_randoms(2, seed, stream)
        assert out.dtype == np.uint64
        assert out.tolist() == expected

    def test_splitmix_leaves_its_input_alone(self):
        x = np.arange(2**64 - 8, 2**64, dtype=np.uint64)
        before = x.copy()
        out = splitmix64(x)
        assert np.array_equal(x, before)
        assert out is not x

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
        # per-digit sort of the reference backend orders them.  The
        # start permutation packs its keys against the widest range.
        k = np.array(keys, dtype=np.int64)
        perm = packed_argsort(k, WIDEST)
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
