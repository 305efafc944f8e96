"""Polynomial and rational-function arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ratrec.polys import (
    NEG_INFINITY,
    Poly,
    RatFunc,
    divrem,
    exact_div,
    falling_product,
    gcd_monic,
    shift,
)

from oracles import monic_ers_gcd, rand_poly, rand_ratfunc

N = Poly.variable()

coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4)
polys = st.lists(coefficients, max_size=6).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


class TestPolyBasics:
    def test_trailing_zeros_trimmed(self):
        assert Poly([1, 2, 0, 0]) == Poly([1, 2])
        assert Poly([0, 0]).is_zero

    def test_zero_degree_sentinel(self):
        assert Poly.zero().degree == NEG_INFINITY
        assert Poly.zero().degree < -(10**9)
        assert Poly.const(5).degree == 0

    def test_evaluation(self):
        p = N**2 + 1
        assert p(Fraction(1, 2)) == Fraction(5, 4)

    def test_str_forms(self):
        assert str(Poly.zero()) == "0"
        assert str(N + Fraction(1, 4)) == "n + 1/4"
        assert str(-4 * N - 2) == "-4*n - 2"
        assert str(2 * N**3 - N) == "2*n^3 - n"


class TestDivRem:
    def test_difference_of_squares(self):
        q, r = divrem(N**2 - 1, N - 1)
        assert q == N + 1 and r.is_zero

    def test_monomials(self):
        q, r = divrem(N**2, N)
        assert q == N and r.is_zero

    def test_long_division(self):
        q, r = divrem(N**2 + 1, 2 * N)
        assert q == Poly([0, Fraction(1, 2)]) and r == Poly.one()

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            divrem(N, Poly.zero())

    def test_round_trip_500_random_pairs(self):
        rng = random.Random(20260810)
        for _ in range(500):
            a = rand_poly(rng, 5)
            b = rand_poly(rng, 3)
            q, r = divrem(a, b)
            assert q * b + r == a
            assert r.degree < b.degree

    def test_exact_div_raises_on_remainder(self):
        with pytest.raises(RuntimeError):
            exact_div(N**2 + 1, N)


class TestGcd:
    def test_fractional_root_factor(self):
        assert gcd_monic(2 * (4 * N + 1) * (2 * N + 3), 4 * N + 1) == N + Fraction(1, 4)

    def test_coprime(self):
        assert gcd_monic(N + 3, (N + 1) * (N + 2)) == Poly.one()

    def test_idempotent(self):
        p = 3 * N**2 - 6
        assert gcd_monic(p, p) == p.monic()

    def test_gcd_with_zero(self):
        assert gcd_monic(2 * N + 2, Poly.zero()) == N + 1
        with pytest.raises(ValueError):
            gcd_monic(Poly.zero(), Poly.zero())

    def test_matches_remainder_sequence_oracle(self):
        rng = random.Random(7)
        for _ in range(150):
            a = rand_poly(rng, 4)
            b = rand_poly(rng, 4)
            if rng.random() < 0.5:
                common = rand_poly(rng, 2)
                a = a * common
                b = b * common
            assert gcd_monic(a, b) == monic_ers_gcd(a, b)

    def test_common_factor_is_preserved(self):
        rng = random.Random(8)
        for _ in range(100):
            common = rand_poly(rng, 2)
            a = rand_poly(rng, 3)
            b = rand_poly(rng, 3)
            g = gcd_monic(a * common, b * common)
            assert divrem(g, common.monic())[1].is_zero


class TestShift:
    def test_binomial_expansion(self):
        assert shift(N**2, 1) == N**2 + 2 * N + 1

    def test_example_from_gcd_sequence(self):
        assert shift(4 * N + 5, -1) == 4 * N + 1

    def test_identity_shift(self):
        p = 3 * N**3 - N + 7
        assert shift(p, 0) == p

    @given(polys, st.integers(-4, 4))
    def test_shift_inverts(self, p, k):
        assert shift(shift(p, k), -k) == p

    @given(polys, polys, st.integers(-3, 3))
    def test_shift_is_ring_homomorphism(self, a, b, k):
        assert shift(a * b, k) == shift(a, k) * shift(b, k)
        assert shift(a + b, k) == shift(a, k) + shift(b, k)


class TestFallingProduct:
    def test_three_steps_of_n(self):
        assert falling_product(N, 3) == N * (N - 1) * (N - 2)

    def test_empty_product(self):
        assert falling_product(3 * N + 1, 0) == Poly.one()

    def test_two_steps(self):
        assert falling_product(N + 2, 2) == (N + 2) * (N + 1)

    @given(polys, st.integers(0, 3), st.integers(0, 3))
    def test_splits_at_any_point(self, f, j, k):
        whole = falling_product(f, j + k)
        front = falling_product(f, j)
        back = shift(falling_product(f, k), -j)
        assert whole == front * back


class TestRingAxioms:
    @given(polys, polys, polys)
    def test_mul_associative_and_distributive(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polys, polys)
    def test_add_commutes_mul_commutes(self, a, b):
        assert a + b == b + a
        assert a * b == b * a


@st.composite
def ratfuncs(draw):
    """rand_ratfunc's values, with polynomials, constants and zero forced in."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    value = rand_ratfunc(rng)
    kind = draw(st.sampled_from(["ratio", "poly", "const", "zero"]))
    if kind == "poly":
        return RatFunc.from_poly(value.num)
    if kind == "const":
        return RatFunc.from_poly(Poly.const(Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
    return RatFunc.zero() if kind == "zero" else value


class TestRatFunc:
    @given(ratfuncs(), ratfuncs())
    def test_arithmetic_equals_reducing_the_unreduced_forms(self, x, y):
        # a polynomial summand or a product of polynomials skips the gcd
        (a, b), (c, d) = (x.num, x.den), (y.num, y.den)
        assert x + y == RatFunc.reduced(a * d + c * b, b * d)
        assert x - y == RatFunc.reduced(a * d - c * b, b * d)
        assert x * y == RatFunc.reduced(a * c, b * d)

    def test_cancels_common_factor(self):
        num = (N + 3) * (N + 1)
        den = (N + 1) * (N + 2) * (N + 1)
        r = RatFunc.reduced(num, den)
        assert r.num == N + 3
        assert r.den == (N + 1) * (N + 2)

    def test_zero_numerator_normal_form(self):
        r = RatFunc.reduced(Poly.zero(), N**2)
        assert r.num.is_zero and r.den == Poly.one()

    def test_constant_ratio(self):
        r = RatFunc.reduced(2 * N + 2, 4 * N + 4)
        assert r.num == Poly.const(Fraction(1, 2)) and r.den == Poly.one()

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc.reduced(N, Poly.zero())

    def test_monic_denominator_scalar_in_numerator(self):
        r = RatFunc.reduced(-2 * (2 * N + 1), 4 * N + 1)
        assert r.den == N + Fraction(1, 4)
        assert r.num == Poly([Fraction(-1, 2), -1])

    @given(nonzero_polys, nonzero_polys, nonzero_polys)
    def test_field_arithmetic(self, a, b, c):
        x = RatFunc.reduced(a, b)
        y = RatFunc.reduced(b, c)
        assert (x + y) - y == x
        assert (x * y) / y == x

    def test_shifted_keeps_reduced_form(self):
        r = RatFunc.reduced(N, N + 2)
        s = r.shifted(3)
        assert s == RatFunc.reduced(N + 3, N + 5)
