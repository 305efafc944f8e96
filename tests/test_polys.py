"""Polynomial and rational-function arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ratrec.polys import (
    _HEU_MAX_BITS,
    NEG_INFINITY,
    Poly,
    RatFunc,
    _gf_euclid,
    _gf_gcd,
    _gf_rem_monic,
    _max_bits,
    _mul_ints,
    cofactors,
    divrem,
    exact_div,
    falling_product,
    gcd_monic,
    shift,
)

from oracles import FracPoly, monic_ers_gcd, rand_poly, rand_ratfunc, sylvester_resultant

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


def checked_cofactors(a: Poly, b: Poly) -> Poly:
    """The monic gcd g from cofactors(a, b), after checking it against
    gcd_monic and checking that g (a / g) == a, g (b / g) == b and that the
    two cofactors are coprime."""
    g, qa, qb = cofactors(a, b)
    assert g == gcd_monic(a, b) and g.lc == 1
    assert g * qa == a and g * qb == b
    assert gcd_monic(qa, qb) == Poly.one()
    return g


def first_evaluation_bits(a: Poly, b: Poly) -> int:
    """The size of the heuristic gcd's first evaluation, which chooses the route."""
    pa, pb = a.primitive, b.primitive
    return 8 * (min(_max_bits(pa), _max_bits(pb)) // 8 + 1) * max(len(pa), len(pb))


def linear_product(factors: list[tuple[int, int]]) -> Poly:
    """The product of c n + r over the (c, r) in factors."""
    p = Poly.one()
    for c, r in factors:
        p = p * (c * N + r)
    return p


scales = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)
wide_polys = st.lists(st.integers(-(1 << 120), 1 << 120), min_size=2, max_size=7).map(Poly).filter(
    lambda p: p.degree > 0
)


class TestCofactors:
    @given(nonzero_polys, nonzero_polys, polys)
    def test_against_the_fraction_oracle(self, a, b, common):
        # rational contents; a nonzero common factor plants a gcd
        if not common.is_zero:
            a, b = a * common, b * common
        g = checked_cofactors(a, b)
        assert g.coeffs == FracPoly(a.coeffs).gcd(FracPoly(b.coeffs)).coeffs

    @given(
        st.sampled_from(["planted", "divides", "equal", "constant", "coprime"]),
        wide_polys,
        wide_polys,
        wide_polys,
        scales,
        scales,
    )
    def test_every_shape_below_the_heuristic_limit(self, shape, u, v, w, s, t):
        a, b = {
            "planted": (w * u, w * v),
            "divides": (w * u, w),
            "equal": (w, w),
            "constant": (Poly.const(1), w),
            "coprime": (u, v),
        }[shape]
        for x, y in ((s * a, t * b), (t * b, s * a)):
            assert first_evaluation_bits(x, y) <= _HEU_MAX_BITS
            g = checked_cofactors(x, y)
            assert g.coeffs == FracPoly(x.coeffs).gcd(FracPoly(y.coeffs)).coeffs

    @settings(max_examples=8, deadline=None)
    @given(st.sampled_from(["planted", "divides", "coprime"]), st.randoms(use_true_random=False), scales, scales)
    def test_the_modular_route(self, shape, rng, s, t):
        # products of c n + r with 9-bit c and distinct roots -r/c: degrees
        # 90 to 100 give coefficients of 700 to 800 bits, past _HEU_MAX_BITS.
        # The Fraction gcd does not finish in a minute here, so the planted
        # factors are the oracle.
        roots: dict[Fraction, tuple[int, int]] = {}
        while len(roots) < 200:
            c, r = rng.randint(256, 511), rng.randint(-(1 << 9), 1 << 9)
            roots.setdefault(Fraction(-r, c), (c, r))
        factors = list(roots.values())
        common, only_a, only_b = factors[:40], factors[40:100], factors[100:160]
        a, b, g = {
            "planted": (common + only_a, common + only_b, common),
            "divides": (common + only_a, common + only_a[:50], common + only_a[:50]),
            "coprime": (common + only_a, only_b + factors[160:], []),
        }[shape]
        a, b = s * linear_product(a), t * linear_product(b)
        assert first_evaluation_bits(a, b) > _HEU_MAX_BITS
        # both orders, so that the shorter input is the first one or the second
        assert checked_cofactors(a, b) == checked_cofactors(b, a) == linear_product(g).monic()


# integer polynomials of degree 0 to 5 with a nonzero leading coefficient
int_lists = st.builds(
    lambda low, lead: low + [lead], st.lists(st.integers(-60, 60), max_size=5), st.integers(-60, 60).filter(bool)
)


class TestModularEuclid:
    # a small prime, at which random pairs often share a factor, and a word prime
    @given(st.sampled_from([7, (1 << 61) - 1]), int_lists, int_lists, int_lists, st.booleans())
    def test_one_sequence_gives_the_gcd_and_the_resultant(self, p, f, g, common, planted):
        if planted:
            f, g = list(_mul_ints(tuple(f), tuple(common))), list(_mul_ints(tuple(g), tuple(common)))
        assume(f[-1] % p and g[-1] % p)
        fr, gr = [x % p for x in f], [x % p for x in g]
        r, res = _gf_euclid(fr[:], gr[:], p)
        assert res == sylvester_resultant(Poly(f), Poly(g)) % p
        assert (res == 0) == (len(r) >= 2)
        monic = [x * pow(r[-1], -1, p) % p for x in r]
        assert _gf_gcd(f, g, p) == monic
        assert _gf_rem_monic(fr, monic[:-1], p) == [] == _gf_rem_monic(gr, monic[:-1], p)


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
