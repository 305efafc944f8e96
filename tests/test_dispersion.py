"""Resultants, integer roots, dispersion."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ratrec.dispersion import (
    DispersionResult,
    _gf_shift_resultant,
    _gf_squarefree,
    _gf_sweep_zeros,
    _root_bound,
    _root_prime,
    _sweeps,
    dispersion,
    integer_roots,
    resultant,
)
from ratrec.polys import Poly, gcd_monic, shift

from oracles import (
    brute_dispersion,
    dispersion_by_divisors,
    dispersion_by_interpolation,
    fujiwara_holds,
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


# -- sampling under Fujiwara's bound against the interpolating search ----------


def path_of(a, b):
    """Which way `dispersion` reads off the candidate shifts of (a, b)."""
    pa, pb = a.primitive, b.primitive
    bound = _root_bound(pa) + _root_bound(pb)
    prime = _root_prime(max(2 * bound, int(a.degree * b.degree)), pa[-1], pb[-1])
    # R is the shift resultant of the squarefree parts modulo the prime
    top = (len(_gf_squarefree(pa, prime)) - 1) * (len(_gf_squarefree(pb, prime)) - 1)
    if bound <= top:
        return "samples"
    return "sweep" if _sweeps(bound, top, prime) else "roots"


def linear_factors(roots):
    return [Poly((-r, 1)) for r in roots]


@st.composite
def low_bound_pairs(draw):
    """(a, b) of degree 3 to 6 whose roots have absolute value at most 2,
    b often holding a factor of a shifted by up to 3: the shift bound
    mostly stays within deg a deg b."""
    irreducible = st.sampled_from([None, Poly((1, 0, 1)), Poly((1, 1, 1))])
    a_factors = linear_factors(draw(st.lists(st.integers(-2, 2), min_size=3, max_size=4)))
    extra = draw(irreducible)
    if extra is not None:
        a_factors.append(extra)
    b_factors = [shift(f, -draw(st.integers(0, 3))) for f in a_factors if draw(st.booleans())]
    b_factors += linear_factors(draw(st.lists(st.integers(-2, 2), min_size=max(0, 3 - len(b_factors)), max_size=4)))
    return product(a_factors, draw(scales)), product(b_factors, draw(scales))


@st.composite
def sweep_pairs(draw):
    """(a, b) of degree 2 to 4 with roots near 0, b holding factors of a
    shifted by up to 60: the shift bound exceeds deg a deg b by a little."""
    shared = draw(root_factors(max_degree=2, far=False))
    a = product(shared + draw(root_factors(2, far=False)), draw(scales))
    b_factors = [shift(f, -draw(st.integers(0, 60))) for f in shared if draw(st.booleans())]
    b = product(b_factors + draw(root_factors(2, far=False)), draw(scales))
    return a, b


@st.composite
def far_root_pairs(draw):
    """(a, b) of degree at most 2 with a root beyond 100, b often holding
    a's linear factor shifted by up to 10^4: the shift bound is far above
    deg a deg b."""
    r = draw(st.integers(100, 10**4)) * draw(st.sampled_from([1, -1]))
    lead = draw(st.integers(1, 5))
    linear = Poly((-r, lead))
    a = product([linear] + draw(st.lists(st.sampled_from(linear_factors([0, 1, -3, 7]) + [Poly((1, 2))]), max_size=1)))
    if draw(st.booleans()):
        b = shift(linear, -draw(st.integers(0, 10**4)))
    else:
        b = Poly((-draw(st.integers(-(10**4), 10**4)), draw(st.integers(1, 3))))
    if draw(st.booleans()):
        b = b * Poly((-draw(st.integers(-30, 30)), 1))
    return a * draw(scales), b


@st.composite
def repeated_factor_pairs(draw):
    """(a, b) of degree at most 14 holding a factor to a power from 2 to 6,
    b often holding it shifted by up to 20, to a power of its own."""
    factor = st.sampled_from(linear_factors([0, 1, -3, 7]) + [Poly((1, 2)), Poly((1, 0, 1))])
    shared = draw(factor)
    powers = st.integers(2, 6)
    a = product([shared ** draw(powers), draw(factor)], draw(scales))
    b = product([shift(shared, -draw(st.integers(0, 20))) ** draw(powers), draw(factor)], draw(scales))
    return (a, b) if draw(st.booleans()) else (b, a)


class TestAgainstInterpolation:
    @settings(max_examples=50)
    @given(repeated_factor_pairs())
    def test_repeated_factors(self, pair):
        # the candidates come from the squarefree parts, the oracle's from
        # the resultant of the inputs themselves
        a, b = pair
        assert dispersion(a, b) == dispersion_by_interpolation(a, b)

    @given(low_bound_pairs())
    def test_samples_alone(self, pair):
        a, b = pair
        assume(path_of(a, b) == "samples")
        assert dispersion(a, b) == dispersion_by_interpolation(a, b)

    @given(sweep_pairs())
    def test_sweep(self, pair):
        a, b = pair
        assume(path_of(a, b) == "sweep")
        assert dispersion(a, b) == dispersion_by_interpolation(a, b)

    @given(far_root_pairs())
    def test_roots_of_the_interpolated_resultant(self, pair):
        a, b = pair
        assume(path_of(a, b) == "roots")
        assert dispersion(a, b) == dispersion_by_interpolation(a, b)

    def test_each_path_is_taken(self):
        assert path_of((N - 1) * N * (N + 1), (N - 2) * N * (N + 2)) == "samples"
        assert path_of((N + 1) * (N + 3), (N - 10) * (N + 2)) == "sweep"
        assert path_of(N - 5000, N + 3000) == "roots"

    @given(
        st.sampled_from([11, 101, 10007, 2**31 - 1, 2**61 - 1]),
        st.lists(st.integers(0, 300), max_size=4),
        st.lists(st.integers(0, 2**61), min_size=1, max_size=8),
        st.integers(0, 300),
    )
    def test_sweep_zeros_are_the_zeros_of_the_polynomial(self, p, roots, other, stop):
        # f = prod (n - r) * other over Z; the sweep reads f mod p past the
        # deg f + 1 samples, whether or not p exceeds deg f
        f = product(linear_factors(roots) + [Poly(other)])
        assume(not f.is_zero)
        samples = [int(f(h)) % p for h in range(int(f.degree) + 1)]
        expected = [h for h in range(len(samples), stop + 1) if f(h) % p == 0]
        assert _gf_sweep_zeros(samples, stop, p) == expected


# -- Fujiwara's bound -------------------------------------------------------

rational_roots = st.tuples(st.integers(-(10**6), 10**6), st.integers(1, 50))


class TestRootBound:
    @given(
        st.lists(rational_roots, min_size=1, max_size=5),
        st.sampled_from([None, Poly((3, 0, 1)), Poly((1, 1, 1))]),
        scales,
    )
    def test_bound_covers_planted_roots(self, roots, extra, scale):
        # a root num/den of (den n - num) satisfies |num / den| <= bound
        factors = [Poly((-num, den)) for num, den in roots]
        if extra is not None:
            factors.append(extra)
        bound = _root_bound(product(factors, scale).primitive)
        assert all(abs(num) <= bound * den for num, den in roots)

    @given(
        st.lists(
            st.one_of(st.integers(-9, 9), st.integers(-(10**12), 10**12), st.integers(-(2**400), 2**400)),
            min_size=1,
            max_size=8,
        ),
        st.one_of(st.integers(1, 9), st.integers(1, 2**80)),
        st.sampled_from([1, -1]),
    )
    def test_bound_is_the_smallest_meeting_the_inequalities(self, low, lead, sign):
        ints = tuple(low) + (sign * lead,)
        bound = _root_bound(ints)
        assert fujiwara_holds(ints, bound)
        assert bound == 0 or not fujiwara_holds(ints, bound - 1)
        assert (bound == 0) == (not any(low))

    def test_bound_of_a_pure_power_and_of_linear_inputs(self):
        assert _root_bound((0, 0, 0, 7)) == 0
        assert _root_bound((-6, 3)) == 2
        assert _root_bound((7, 3)) == 3
        # n^2 - 2: |c_0| 2 <= r^2 first holds at r = 2
        assert _root_bound((-2, 0, 1)) == 2

    @given(st.integers(1, 4), st.integers(-9, 9).filter(bool), st.integers(-30, 30), root_factors(max_degree=2))
    def test_integer_roots_when_the_first_prime_divides_the_leading_coefficient(self, m, c, r, rest):
        # f = (n - r)(q m n + c) * rest, with q the smallest prime above twice
        # the root bound of f itself: the root search must pass over q
        q, fixed = 3, False
        for _ in range(6):
            f = product([Poly((-r, 1)), Poly((c, q * m))] + rest)
            bound_prime = first_candidate_prime(max(2 * _root_bound(f.primitive), 2))
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
            bound = _root_bound(a.primitive) + _root_bound(b.primitive)
            bound_prime = first_candidate_prime(max(2 * bound, int(a.degree * b.degree)))
            fixed = bound_prime == q
            if fixed:
                break
            q = bound_prime
        assume(fixed and c % q != 0)
        assert a.primitive[-1] % q == 0 and b.primitive[-1] % q == 0
        result = dispersion(a, b)
        assert result == dispersion_by_divisors(a, b)
        assert result.value >= k


class TestFormerCliffs:
    """Inputs that took seconds to minutes while the shift bound was the sum
    of the Cauchy bounds and every shift came from interpolating R."""

    def test_shifted_fortieth_powers(self):
        # Cauchy put the bound near 10^28; Fujiwara puts it at 562 < deg R
        assert dispersion(N**40 + 1, shift(N**40 + 1, 7)) == DispersionResult(-1, ())

    def test_eightieth_powers(self):
        assert dispersion(N**80 + 1, N**80 + 2) == DispersionResult(-1, ())

    def test_repeated_factors(self):
        # R has degree 484, but the bound is far below it
        result = dispersion((N + 1) ** 20 * (N**2 + 3), N**20 * (N**2 + 5))
        assert result == DispersionResult(1, ((1, (N + 1) ** 20),))
