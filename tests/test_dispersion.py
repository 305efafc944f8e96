"""Resultants, integer roots, dispersion."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ratrec.dispersion import _gf_shift_resultant, dispersion, integer_roots, resultant
from ratrec.polys import Poly, gcd_monic, shift

from oracles import (
    brute_dispersion,
    dispersion_by_divisors,
    integer_roots_by_divisors,
    rand_poly,
    rand_poly_int_roots,
    sylvester_resultant,
)

N = Poly.variable()


class TestResultant:
    def test_linear_pair(self):
        assert resultant(N - 1, N + 2) == 3

    def test_quadratic_pair_matches_sylvester(self):
        assert resultant(N**2 + 1, N**2 - 2) == 9
        assert sylvester_resultant(N**2 + 1, N**2 - 2) == 9

    def test_constant_convention(self):
        assert resultant(Poly.const(5), N**2 + N) == 25
        assert resultant(N**2 + N, Poly.const(5)) == 25

    def test_zero_inputs_rejected(self):
        with pytest.raises(ValueError):
            resultant(Poly.zero(), N)

    def test_shared_factor_gives_zero(self):
        assert resultant((N + 1) * (N - 2), (N - 2) * (N + 5)) == 0

    def test_agrees_with_sylvester_oracle(self):
        rng = random.Random(31)
        for _ in range(120):
            a = rand_poly(rng, 4)
            b = rand_poly(rng, 4)
            assert resultant(a, b) == sylvester_resultant(a, b)

    def test_shifted_resultant_at_five_random_shifts(self):
        rng = random.Random(32)
        a = rand_poly_int_roots(rng, 3, -4, 4)
        b = rand_poly_int_roots(rng, 3, -4, 4)
        for _ in range(5):
            h = rng.randint(-10, 10)
            assert resultant(a, shift(b, h)) == sylvester_resultant(a, shift(b, h))


class TestIntegerRoots:
    def test_factored_cubic(self):
        assert integer_roots(N**3 + N**2 - 2 * N) == {-2, 0, 1}

    def test_no_real_roots(self):
        assert integer_roots(N**2 + 1) == set()

    def test_fractional_coefficients(self):
        assert integer_roots(Poly([Fraction(-3), Fraction(1, 2)])) == {6}

    def test_pure_power_of_n(self):
        assert integer_roots(N**4 * 7) == {0}

    def test_nonzero_constant(self):
        assert integer_roots(Poly.const(12)) == set()

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            integer_roots(Poly.zero())

    def test_large_smooth_trailing_coefficient(self):
        # all roots recovered even when the constant term is huge
        p = Poly.one()
        for r in (120, -96, 30, 1):
            p = p * (N - r)
        p = p * (N**2 + 3)
        assert integer_roots(p) == {120, -96, 30, 1}

    def test_planted_roots_random(self):
        rng = random.Random(33)
        for _ in range(200):
            roots = {rng.randint(-30, 30) for _ in range(rng.randint(1, 4))}
            p = Poly.const(rng.choice([1, 2, -3]))
            for r in roots:
                p = p * (N - r) ** rng.randint(1, 2)
            if rng.random() < 0.5:
                p = p * (N**2 + rng.randint(1, 5))
            assert integer_roots(p) == roots


class TestDispersion:
    def test_shared_factor_at_two_shifts(self):
        result = dispersion(N + 2, (N + 1) * (N + 2))
        assert result.value == 1
        assert [k for k, _ in result.witnesses] == [0, 1]
        assert all(g == N + 2 for _, g in result.witnesses)

    def test_only_zero_shift(self):
        result = dispersion(4 * N + 1, 2 * (4 * N + 1) * (2 * N + 3))
        assert result.value == 0

    def test_never_shared(self):
        result = dispersion(N, N + 1)
        assert result.value == -1
        assert result.witnesses == ()

    def test_constant_input_short_circuits(self):
        assert dispersion(Poly.const(3), N).value == -1
        assert dispersion(N, Poly.const(3)).value == -1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            dispersion(Poly.zero(), N)

    def test_witnesses_divide_both_sides(self):
        rng = random.Random(34)
        for _ in range(60):
            a = rand_poly_int_roots(rng, 4, -6, 6)
            b = rand_poly_int_roots(rng, 4, -6, 6)
            result = dispersion(a, b)
            for k, g in result.witnesses:
                assert g.lc == 1 and g.degree >= 1
                assert gcd_monic(a, g) == g
                assert gcd_monic(shift(b, k), g) == g

    def test_interpolated_resultant_extrapolates_correctly(self):
        # the shift resultant interpolated mod p must agree with the Sylvester
        # determinant mod p even at shifts outside the sample window
        rng = random.Random(36)
        for _ in range(10):
            a = Poly(rand_poly(rng, 3).primitive)
            b = Poly(rand_poly(rng, 3).primitive)
            for prime in (11, 10007, 2**61 - 1):
                if a.primitive[-1] % prime == 0 or b.primitive[-1] % prime == 0:
                    continue
                interpolated = _gf_shift_resultant(a.primitive, b.primitive, prime)
                for h in (-7, 23, 41):
                    value = sum(c * h**i for i, c in enumerate(interpolated))
                    assert (value - sylvester_resultant(a, shift(b, h))) % prime == 0

    def test_matches_brute_force_scan(self):
        rng = random.Random(35)
        for _ in range(80):
            a = rand_poly_int_roots(rng, 4, -6, 6)
            b = rand_poly_int_roots(rng, 4, -6, 6)
            if rng.random() < 0.3:
                a = a * (N**2 + 1)
            assert dispersion(a, b).value == brute_dispersion(a, b)


# -- the modular root search against the divisor search it replaced -----------

near_roots = st.integers(-30, 30)
far_roots = st.integers(-(10**4), 10**4).filter(lambda r: abs(r) > 30)


@st.composite
def root_factors(draw, max_degree=4, far=True):
    """Integer roots with multiplicities, at most one of them far from 0,
    and a factor with non-integer roots, of total degree at most max_degree.

    The divisor search takes seconds once several far roots meet a factor
    with non-integer roots, so far roots come one at a time.
    """
    factors = []
    degree = 0
    roots = [draw(far_roots)] if far and draw(st.booleans()) else []
    for root in roots + draw(st.lists(near_roots, max_size=3)):
        mult = draw(st.integers(1, 2))
        if degree + mult > max_degree:
            break
        factors.append(Poly((-root, 1)) ** mult)
        degree += mult
    extra = draw(
        st.sampled_from(
            [
                None,
                Poly((1, 2)),  # root -1/2
                Poly((-5, 3)),  # root 5/3
                Poly((3, 0, 1)),  # roots +-sqrt(-3)
                Poly((-2, 0, 1)),  # roots +-sqrt(2)
                Poly((1, 1, 1)),  # complex cube roots of unity
            ]
        )
    )
    if extra is not None and degree + extra.degree <= max_degree:
        factors.append(extra)
    return factors


def product(factors, scale=1):
    out = Poly.const(scale)
    for f in factors:
        out = out * f
    return out


scales = st.sampled_from([1, -1, 2, -3, 6])


@st.composite
def root_polys(draw, max_degree=4):
    return product(draw(root_factors(max_degree)), draw(scales))


@st.composite
def shifted_pairs(draw):
    """(a, b) where b carries some factors of a shifted by up to 60, so the
    dispersion and its witnesses are nontrivial."""
    shared = draw(root_factors(max_degree=2))
    a = product(shared + draw(root_factors(2, far=False)), draw(scales))
    b_factors = [shift(f, -draw(st.integers(0, 60))) for f in shared if draw(st.booleans())]
    b = product(b_factors + draw(root_factors(2, far=False)), draw(scales))
    return a, b


def first_candidate_prime(floor):
    """The smallest prime above floor, by trial division."""
    p = floor + 1
    while any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        p += 1
    return p


def cauchy(p):
    ints = p.primitive
    return 1 + -(-max(abs(c) for c in ints[:-1]) // ints[-1])


class TestAgainstDivisorSearch:
    @given(root_polys())
    def test_integer_roots(self, p):
        assert integer_roots(p) == integer_roots_by_divisors(p)

    @given(st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6).filter(bool))
    def test_integer_roots_of_constant_and_linear_inputs(self, c, lead):
        assert integer_roots(Poly.const(lead)) == set()
        assert integer_roots(Poly((c, lead))) == integer_roots_by_divisors(Poly((c, lead)))

    @given(shifted_pairs())
    def test_dispersion_and_witnesses(self, pair):
        a, b = pair
        assert dispersion(a, b) == dispersion_by_divisors(a, b)

    @given(root_polys(3), root_polys(3))
    def test_dispersion_of_unrelated_pairs(self, a, b):
        assert dispersion(a, b) == dispersion_by_divisors(a, b)

    @given(st.integers(-(10**4), 10**4), st.integers(-(10**4), 10**4), st.integers(1, 9))
    def test_dispersion_of_constant_and_linear_inputs(self, r, s, lead):
        a, b = Poly((-r, lead)), Poly((-s, 1))
        assert dispersion(a, b) == dispersion_by_divisors(a, b)
        assert dispersion(a, Poly.const(lead)) == dispersion_by_divisors(a, Poly.const(lead))

    @given(st.integers(1, 4), st.integers(-9, 9).filter(bool), st.integers(-30, 30), root_factors(max_degree=2))
    def test_integer_roots_when_the_first_prime_divides_the_leading_coefficient(self, m, c, r, rest):
        # f = (n - r)(q m n + c) * rest, with q the smallest prime above twice
        # the Cauchy bound of f itself: the root search must pass over q
        q, fixed = 3, False
        for _ in range(6):
            f = product([Poly((-r, 1)), Poly((c, q * m))] + rest)
            bound_prime = first_candidate_prime(2 * cauchy(f))
            fixed = bound_prime == q
            if fixed:
                break
            q = bound_prime
        assume(fixed and c % q != 0)
        assert f.primitive[-1] % q == 0
        assert integer_roots(f) == integer_roots_by_divisors(f)

    @given(st.integers(1, 4), st.integers(-9, 9).filter(bool), st.integers(0, 40), root_factors(max_degree=2))
    def test_dispersion_when_the_first_prime_divides_a_leading_coefficient(self, m, c, k, rest):
        # a = (q m n + c) * rest and b = a's first factor shifted by -k, with q
        # the smallest prime above max(2B, deg a deg b) for this very pair
        q, fixed = 3, False
        for _ in range(6):
            linear = Poly((c, q * m))
            a, b = product([linear] + rest), shift(linear, -k)
            bound_prime = first_candidate_prime(max(2 * (cauchy(a) + cauchy(b)), int(a.degree * b.degree)))
            fixed = bound_prime == q
            if fixed:
                break
            q = bound_prime
        assume(fixed and c % q != 0)
        assert a.primitive[-1] % q == 0 and b.primitive[-1] % q == 0
        result = dispersion(a, b)
        assert result == dispersion_by_divisors(a, b)
        assert result.value >= k
