"""The integer-coefficient polynomial core against the Fraction oracle, the
cofactor gcd sequence against its definition, the witness-only reductions,
and the CRT prime table."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ratrec.denominators import abramov_reduce, gp_reduce
from ratrec.gcdseq import gcd_limit
from ratrec.intutil import CRT_PRIMES, PrimeStream, is_probable_prime
from ratrec.polys import (
    _KRONECKER_MIN_LEN,
    Poly,
    divrem,
    exact_div,
    falling_product,
    gcd_monic,
    shift,
)

from oracles import FracPoly, gcd_limit_by_products, planted_pair, random_coprime_pair, reduction_at_every_shift

big_ints = st.integers(-(10**30), 10**30)
small_ints = st.integers(-9, 9)
coefficients = st.one_of(
    small_ints,
    big_ints,
    st.fractions(min_value=-50, max_value=50, max_denominator=1000),
)
short = st.lists(coefficients, max_size=5)
long = st.lists(coefficients, min_size=12, max_size=30)
longer = st.lists(coefficients, min_size=30, max_size=120)
shifts = st.one_of(st.integers(-40, 40), st.integers(-(10**6), 10**6))
nonzero_short = st.lists(coefficients, min_size=1, max_size=6).filter(any)


def agree(p: Poly, oracle: FracPoly) -> bool:
    return p.coeffs == oracle.coeffs


def test_length_strategies_straddle_the_cutoff():
    # in products, `short` lists take the schoolbook loops and `long` ones
    # Kronecker substitution; a shift is one synthetic-division pass at any length
    assert 5 < _KRONECKER_MIN_LEN <= 12


class TestRepresentation:
    @given(st.lists(coefficients, max_size=8))
    def test_content_times_primitive_is_the_input(self, cs):
        p = Poly(cs)
        assert agree(p, FracPoly(cs))
        if p.is_zero:
            assert p.primitive == () and p.content == 0
        else:
            assert math.gcd(*p.primitive) == 1 and p.primitive[-1] > 0
            assert tuple(p.content * x for x in p.primitive) == p.coeffs

    @given(st.lists(st.integers(-(10**12), 10**12), max_size=8))
    def test_int_and_fraction_inputs_are_equal_and_hash_alike(self, ints):
        from_ints = Poly(ints)
        from_fractions = Poly([Fraction(x) for x in ints])
        assert from_ints == from_fractions
        assert hash(from_ints) == hash(from_fractions)

    def test_unreduced_fractions_and_scaled_forms(self):
        a = Poly([Fraction(2, 4), Fraction(3, 3)])
        b = Poly([Fraction(1, 2), 1])
        assert a == b and hash(a) == hash(b)
        c = Poly([3, 6]) * Fraction(1, 6)
        assert c == b and hash(c) == hash(b)
        assert Poly([2, 4]) != Poly([1, 2])

    @given(st.lists(coefficients, max_size=6), coefficients)
    def test_evaluation(self, cs, x):
        expected = sum((Fraction(c) * Fraction(x) ** i for i, c in enumerate(cs)), Fraction(0))
        assert Poly(cs)(x) == expected


class TestKernelsAgainstFractionOracle:
    @given(short, short)
    def test_mul_schoolbook(self, a, b):
        assert agree(Poly(a) * Poly(b), FracPoly(a) * FracPoly(b))

    @given(long, long)
    def test_mul_kronecker(self, a, b):
        assert agree(Poly(a) * Poly(b), FracPoly(a) * FracPoly(b))

    @given(long)
    def test_square_kronecker(self, a):
        p = Poly(a)
        assert agree(p * p, FracPoly(a) * FracPoly(a))
        assert p**3 == p * p * p

    @given(st.one_of(short, long, longer), shifts)
    def test_shift(self, a, k):
        assert agree(shift(Poly(a), k), FracPoly(a).shift(k))

    @pytest.mark.parametrize("k", [-7, 1, 30])
    def test_shift_of_a_high_power_is_its_binomial_expansion(self, k):
        expected = Poly([math.comb(1000, i) * k ** (1000 - i) for i in range(1001)])
        assert shift(Poly.monomial(1000), k) == expected

    @given(st.lists(coefficients, max_size=9), nonzero_short)
    def test_divrem(self, a, b):
        q, r = divrem(Poly(a), Poly(b))
        oq, orem = FracPoly(a).divrem(FracPoly(b))
        assert agree(q, oq) and agree(r, orem)

    @given(st.lists(coefficients, max_size=12), nonzero_short)
    def test_exact_div(self, a, b):
        product = Poly(a) * Poly(b)
        assert agree(exact_div(product, Poly(b)), FracPoly(a))
        _, r = divrem(product + 1, Poly(b))
        if not r.is_zero:
            with pytest.raises(RuntimeError):
                exact_div(product + 1, Poly(b))

    @given(nonzero_short, nonzero_short, st.lists(coefficients, max_size=4))
    def test_gcd_monic(self, a, b, common):
        pa, pb = Poly(a), Poly(b)
        if any(common):
            pa, pb = pa * Poly(common), pb * Poly(common)
        oracle = FracPoly(pa.coeffs).gcd(FracPoly(pb.coeffs))
        assert agree(gcd_monic(pa, pb), oracle)

    @given(st.lists(small_ints, min_size=1, max_size=4), st.integers(0, 12))
    def test_falling_product(self, f, k):
        expected = FracPoly([1])
        for j in range(k):
            expected = expected * FracPoly(f).shift(-j)
        assert agree(falling_product(Poly(f), k), expected)


class TestGcdSequence:
    def test_traces_match_the_product_definition(self):
        rng = random.Random(2024)
        for _ in range(60):
            p0, pd, d = planted_pair(rng, max_shift=12)
            assert gcd_limit(p0, pd, d) == gcd_limit_by_products(p0, pd, d)

    def test_traces_with_several_witness_shifts(self):
        # linear factors drawn from a few roots, with repeats, meet at many shifts
        rng = random.Random(2027)
        n = Poly.variable()
        for _ in range(60):
            p0 = Poly.const(rng.choice([1, -2, 3]))
            for _ in range(rng.randint(1, 5)):
                r = rng.randint(-6, 6)
                p0 = p0 * ((n - r) if rng.random() < 0.8 else (2 * n - 2 * r - 1))
            pd = Poly.const(rng.choice([1, 5]))
            for _ in range(rng.randint(1, 5)):
                pd = pd * (n - rng.randint(-6, 12))
            d = rng.randint(1, 3)
            assert gcd_limit(p0, pd, d) == gcd_limit_by_products(p0, pd, d)

    def test_repeated_and_overlapping_factors(self):
        n = Poly.variable()
        p0 = (n + 1) ** 2 * (n + 4) * (2 * n + 3)
        pd = (n + 6) ** 3 * (n + 1) * (2 * n + 9)
        for d in (1, 2, 3):
            assert gcd_limit(p0, pd, d) == gcd_limit_by_products(p0, pd, d)


class TestWitnessOnlyReductions:
    def test_abramov_steps_match_a_gcd_at_every_shift(self):
        rng = random.Random(2025)
        for _ in range(60):
            p0, pd, d = planted_pair(rng, max_shift=10)
            trace = abramov_reduce(p0, pd, d)
            steps, lead, trail = reduction_at_every_shift(
                shift(pd, -d), p0, range(trace.max_shift, -1, -1)
            )
            assert list(trace.step_gcds) == steps
            assert (trace.lead_residual, trace.trail_residual) == (lead, trail)

    def test_gp_steps_match_a_gcd_at_every_shift(self):
        rng = random.Random(2026)
        for _ in range(60):
            a, b = random_coprime_pair(rng)
            trace = gp_reduce(a, b)
            steps, num, den = reduction_at_every_shift(a, b, range(1, trace.max_shift + 2))
            assert list(trace.step_gcds) == steps
            assert (trace.num_residual, trace.den_residual) == (num, den)


class TestPrimeTable:
    def test_entries_are_descending_primes_below_2_61(self):
        assert all(is_probable_prime(p) for p in CRT_PRIMES)
        assert all(a > b for a, b in zip(CRT_PRIMES, CRT_PRIMES[1:]))
        assert CRT_PRIMES[0] < 1 << 61

    def test_table_skips_no_prime(self):
        top = (1 << 61) - 1
        assert [c for c in range(top, CRT_PRIMES[-1] - 1, -2) if is_probable_prime(c)] == list(CRT_PRIMES)

    def test_stream_continues_past_the_table(self):
        stream = PrimeStream()
        drawn = [next(stream) for _ in range(len(CRT_PRIMES) + 5)]
        assert tuple(drawn[: len(CRT_PRIMES)]) == CRT_PRIMES
        expected = [c for c in range(CRT_PRIMES[-1] - 2, drawn[-1] - 1, -2) if is_probable_prime(c)]
        assert drawn[len(CRT_PRIMES) :] == expected
