"""Unit and statistical tests for the shift schedule."""

from unittest import mock

import numpy as np
import pytest

from repro.decomp import decomp_arb, decomp_min
from repro.decomp import shifts as shifts_module
from repro.decomp.shifts import FRAC_BITS, ShiftSchedule
from repro.errors import ParameterError
from repro.graphs import random_gnm
from repro.pram.cost import tracking
from repro.primitives.rand import hash_randoms


class TestScheduleBasics:
    @pytest.mark.parametrize("mode", ["permutation", "exponential"])
    def test_order_is_a_permutation(self, mode):
        s = ShiftSchedule(n=500, beta=0.2, seed=1, mode=mode)
        assert np.array_equal(np.sort(s.order), np.arange(500))

    @pytest.mark.parametrize("mode", ["permutation", "exponential"])
    def test_cumulative_monotone_and_reaches_n(self, mode):
        s = ShiftSchedule(n=300, beta=0.3, seed=2, mode=mode)
        cums = [s.cumulative(t) for t in range(s.max_rounds + 5)]
        assert all(a <= b for a, b in zip(cums, cums[1:]))
        assert cums[-1] == 300

    @pytest.mark.parametrize("mode", ["permutation", "exponential"])
    def test_new_candidates_partition_the_order(self, mode):
        s = ShiftSchedule(n=200, beta=0.25, seed=3, mode=mode)
        seen = []
        consumed = 0
        for t in range(s.max_rounds + 2):
            chunk = s.new_candidates(t, consumed)
            consumed = s.cumulative(t)
            seen.extend(chunk.tolist())
        assert sorted(seen) == list(range(200))

    def test_frac_values_in_range(self):
        s = ShiftSchedule(n=1000, beta=0.2, seed=4)
        assert s.frac.min() >= 0
        assert s.frac.max() < (1 << FRAC_BITS)

    def test_frac_mostly_distinct(self):
        # "drawn from a large enough range to guarantee no ties w.h.p."
        s = ShiftSchedule(n=10_000, beta=0.2, seed=5)
        assert np.unique(s.frac).size > 9_990

    def test_n_zero(self):
        s = ShiftSchedule(n=0, beta=0.2, seed=1)
        assert s.cumulative(0) == 0
        assert s.new_candidates(0, 0).size == 0

    def test_n_one(self):
        s = ShiftSchedule(n=1, beta=0.2, seed=1)
        assert s.cumulative(0) == 1

    def test_rejects_bad_beta(self):
        for beta in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ParameterError):
                ShiftSchedule(n=10, beta=beta, seed=1)

    def test_rejects_bad_mode(self):
        with pytest.raises(ParameterError):
            ShiftSchedule(n=10, beta=0.2, seed=1, mode="bogus")

    def test_rejects_negative_round(self):
        s = ShiftSchedule(n=10, beta=0.2, seed=1)
        with pytest.raises(ParameterError):
            s.cumulative(-1)

    def test_deterministic_per_seed(self):
        a = ShiftSchedule(n=100, beta=0.2, seed=7)
        b = ShiftSchedule(n=100, beta=0.2, seed=7)
        assert np.array_equal(a.order, b.order)
        assert a.cumulative(3) == b.cumulative(3)

    def test_seeds_vary_the_schedule(self):
        a = ShiftSchedule(n=100, beta=0.2, seed=7)
        b = ShiftSchedule(n=100, beta=0.2, seed=8)
        assert not np.array_equal(a.order, b.order)


class TestLazyFrac:
    """``frac`` is charged at construction and drawn on first read."""

    @pytest.mark.parametrize("n", [0, 1, 700])
    def test_snapshot_does_not_depend_on_reading_frac(self, n):
        with tracking() as unread:
            ShiftSchedule(n=n, beta=0.2, seed=3)
        with tracking() as read:
            s = ShiftSchedule(n=n, beta=0.2, seed=3)
        with tracking() as after:
            s.frac
        assert unread.snapshot() == read.snapshot()
        assert after.total_work() == 0.0
        # Four O(n) scans: the frac draw, the start permutation's keys,
        # the exponential draws behind the chunk sizes, and their scan.
        assert unread.work_by_kind().get("scan", 0.0) == 4.0 * n

    def test_frac_is_the_stream_11_draw(self):
        s = ShiftSchedule(n=500, beta=0.2, seed=9)
        expected = (hash_randoms(500, 9, stream=11) >> np.uint64(34)).astype(np.int64)
        assert s.frac.dtype == np.int64
        assert np.array_equal(s.frac, expected)
        assert s.frac is s.frac

    def _count_frac_draws(self, run):
        draws = mock.Mock(wraps=shifts_module._hash_stream)
        with mock.patch.object(shifts_module, "_hash_stream", draws):
            run(random_gnm(300, 900, seed=4), 0.3, seed=4)
        return draws.call_count

    def test_decomp_arb_never_draws_frac(self):
        assert self._count_frac_draws(decomp_arb) == 0

    def test_decomp_min_draws_frac(self):
        assert self._count_frac_draws(decomp_min) == 1

    @pytest.mark.parametrize("read_first", [False, True])
    def test_assignment_is_honoured(self, read_first):
        s = ShiftSchedule(n=3, beta=0.2, seed=1)
        if read_first:
            s.frac
        rigged = np.array([5, 0, 9], dtype=np.int64)
        s.frac = rigged
        assert s.frac is rigged


class TestScheduleStatistics:
    def test_rounds_scale_like_log_n_over_beta(self):
        # max start time ~ delta_max ~ ln(n)/beta w.h.p.
        n = 20_000
        for beta in (0.1, 0.4):
            rounds = []
            for seed in range(5):
                s = ShiftSchedule(n=n, beta=beta, seed=seed)
                # first round where everyone is a candidate
                full = next(
                    t for t in range(s.max_rounds + 1) if s.cumulative(t) >= n
                )
                rounds.append(full)
            bound = np.log(n) / beta
            assert np.mean(rounds) < 2.5 * bound
            assert np.mean(rounds) > 0.3 * bound

    def test_chunks_grow_geometrically_in_aggregate(self):
        # the second half of the rounds must contain far more starts
        # than the first half (exponential growth of chunk sizes)
        s = ShiftSchedule(n=50_000, beta=0.2, seed=3)
        full = next(t for t in range(s.max_rounds + 1) if s.cumulative(t) >= s.n)
        half = s.cumulative(full // 2)
        assert half < 0.2 * s.n

    def test_permutation_and_exponential_agree_in_distribution(self):
        # The raw cumulative curves are offset horizontally by the
        # random delta_max of each draw, so compare the offset-free
        # 10%-to-90% ramp width instead: for Exp(beta) order statistics
        # it concentrates around ln(9)/beta regardless of delta_max.
        n = 30_000
        beta = 0.2
        expected = np.log(9.0) / beta

        def ramp(mode: str, seed: int) -> int:
            s = ShiftSchedule(n=n, beta=beta, seed=seed, mode=mode)
            r10 = next(
                t for t in range(s.max_rounds + 1) if s.cumulative(t) >= 0.1 * n
            )
            r90 = next(
                t for t in range(s.max_rounds + 1) if s.cumulative(t) >= 0.9 * n
            )
            return r90 - r10

        for seed in (11, 12, 13):
            for mode in ("permutation", "exponential"):
                width = ramp(mode, seed)
                assert 0.5 * expected < width < 1.8 * expected, (mode, seed, width)
