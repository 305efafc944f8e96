"""The stabilizing gcd sequence and its closed-form limit."""

import random
from fractions import Fraction

import pytest

from ratrec.dispersion import dispersion
from ratrec.gcdseq import gcd_limit, gcd_term, universal_denominator
from ratrec.polys import Poly, divrem, shift

from oracles import planted_pair

N = Poly.variable()

EX21_B = 2 * (4 * N + 1) * (2 * N + 3)
EX21_A = 4 * N + 5
EX41_P0 = -(N - 1) * (2 * N - 1) * (N + 1)
EX41_P3 = (N + 4) * (2 * N + 1) * (N + 2)


class TestGcdTerm:
    def test_order_one_first_term(self):
        assert gcd_term(EX21_B, EX21_A, 1, 1) == N + Fraction(1, 4)

    def test_order_three_stable_term(self):
        assert gcd_term(EX41_P0, EX41_P3, 3, 3) == N * (N - 1) * (N + 1)

    def test_coprime_at_required_shifts(self):
        assert gcd_term(N, N + 5, 1, 1) == Poly.one()

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            gcd_term(N, N, 1, 0)

    @pytest.mark.parametrize("d", [0, -2])
    def test_order_must_be_positive(self, d):
        with pytest.raises(ValueError, match="the equation order d must be positive"):
            gcd_term(N + 1, N + 3, d, 1)


class TestGcdLimit:
    def test_order_one_case(self):
        limit = gcd_limit(EX21_B, EX21_A, 1)
        assert limit.max_shift == 0
        assert limit.limit == N + Fraction(1, 4)
        assert limit.trace == (N + Fraction(1, 4),)

    def test_order_three_case(self):
        limit = gcd_limit(EX41_P0, EX41_P3, 3)
        assert limit.max_shift == 2
        assert limit.limit == N * (N - 1) * (N + 1)
        assert len(limit.trace) == 3

    def test_negative_dispersion_gives_one(self):
        # shifted pair never shares a factor: the brute scan over shifts
        # of (n-1) against (n+1+k) only matches at k = -2
        limit = gcd_limit(N + 1, N + 1, 2)
        assert limit.max_shift == -1
        assert limit.limit == Poly.one()
        assert limit.trace == ()

    @pytest.mark.parametrize("d", [0, -2])
    def test_order_must_be_positive(self, d):
        # at order 0 this pair's sequence would reach a limit of degree 3
        with pytest.raises(ValueError, match="the equation order d must be positive"):
            gcd_limit(N + 1, N + 3, d)

    def test_trace_is_divisibility_chain_ending_at_limit(self):
        rng = random.Random(41)
        for _ in range(25):
            p0, pd, d = planted_pair(rng)
            limit = gcd_limit(p0, pd, d)
            assert limit.limit == limit.trace[-1]
            for earlier, later in zip(limit.trace, limit.trace[1:]):
                assert divrem(later, earlier)[1].is_zero


class TestUniversalDenominator:
    def test_order_one_induced_equation(self):
        assert universal_denominator((N + 1) * (N + 2), N + 3, 1) == (N + 1) * (N + 2)

    def test_order_three_case(self):
        assert universal_denominator(EX41_P0, EX41_P3, 3) == N * (N - 1) * (N + 1)

    def test_coprime_at_all_shifts_gives_one(self):
        assert universal_denominator(N**2 + 1, N + 3, 1) == Poly.one()

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            universal_denominator(N, N, 0)

    def test_equals_gcd_sequence_limit(self):
        rng = random.Random(42)
        for _ in range(200):
            p0, pd, d = planted_pair(rng)
            assert universal_denominator(p0, pd, d) == gcd_limit(p0, pd, d).limit

    def test_monic_outputs(self):
        rng = random.Random(43)
        for _ in range(25):
            p0, pd, d = planted_pair(rng)
            assert universal_denominator(p0, pd, d).lc == 1
            assert all(g.lc == 1 for g in gcd_limit(p0, pd, d).trace)


class TestStabilization:
    def test_sequence_stops_moving_after_the_dispersion(self):
        rng = random.Random(44)
        for _ in range(25):
            p0, pd, d = planted_pair(rng)
            n_max = dispersion(shift(pd, -d), p0).value
            assert n_max >= 0  # the generator plants a shared factor
            stable = gcd_term(p0, pd, d, n_max + 1)
            assert gcd_term(p0, pd, d, n_max + 2) == stable
            assert gcd_term(p0, pd, d, n_max + 3) == stable

    def test_sequence_still_growing_at_the_dispersion(self):
        # single shared factor planted exactly at the extreme shift: the
        # term one step before the limit must be a proper divisor
        w = N + 1
        k = 4
        p0 = (N + 7) * shift(w, -k)
        pd = (N**2 + 1) * shift(w, 1)
        d = 1
        n_max = dispersion(shift(pd, -d), p0).value
        assert n_max == k
        before = gcd_term(p0, pd, d, n_max)
        stable = gcd_term(p0, pd, d, n_max + 1)
        assert divrem(stable, before)[1].is_zero
        assert stable != before
