"""Resultants, integer roots, dispersion."""

import importlib
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ratrec.denominators import abramov_reduce, gp_rep_from_trace
from ratrec.dispersion import (
    _MEMO_ENTRIES,
    DispersionResult,
    _centred,
    _gf_power_sum_resultant,
    _gf_squarefree,
    _gf_zeros,
    _root_bound,
    _root_prime,
    _roots_pay,
    _samples_pay,
    _shift_candidates,
    _window,
    dispersion,
    integer_roots,
    resultant,
)
from ratrec.gcdseq import gcd_limit, universal_denominator
from ratrec.polys import Poly, _gf_gcd, _gf_monic, gcd_monic, shift

from oracles import (
    _gf_shift_resultant,
    brute_dispersion,
    dispersion_by_divisors,
    dispersion_by_interpolation,
    fujiwara_holds,
    integer_roots_by_divisors,
    rand_poly,
    rand_poly_int_roots,
    sylvester_resultant,
)

# `ratrec.dispersion` the attribute is the function; the module is looked up
dispersion_module = importlib.import_module("ratrec.dispersion")

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


# -- the read-off over the centred window against the interpolating search ------


def path_of(a, b):
    """Which way `dispersion` reads off the candidate shifts of (a, b)."""
    if a.degree < 1 or b.degree < 1:
        return "constant"
    pa, pb = a.primitive, b.primitive
    lo, hi = _window(pa, pb)
    if hi < lo:
        return "empty"
    width = hi - lo
    prime = _root_prime(max(2 * width, int(a.degree * b.degree), 2), pa[-1], pb[-1])
    # R is the shift resultant of the squarefree parts modulo the prime
    top = (len(_gf_squarefree(pa, prime)) - 1) * (len(_gf_squarefree(pb, prime)) - 1)
    if _samples_pay(width, top):
        return "samples"
    return "roots" if _roots_pay(width, top, prime) else "horner"


def linear_factors(roots):
    return [Poly((-r, 1)) for r in roots]


@st.composite
def narrow_window_pairs(draw):
    """(a, b) of degree 7 to 9 with coefficients 0 and +-1 below a leading
    1, so that every root lies within 2 of 0, and b = a(n - k) for k up to 3
    or another such polynomial: the window is at most 8 wide while deg R is
    at least 49."""
    small = st.integers(-1, 1)
    degree = draw(st.integers(7, 9))
    a = Poly(tuple(draw(st.lists(small, min_size=degree, max_size=degree))) + (1,))
    if draw(st.booleans()):
        b = shift(a, -draw(st.integers(0, 3)))
    else:
        b = Poly(tuple(draw(st.lists(small, min_size=degree, max_size=degree))) + (1,))
    return a, b


@st.composite
def window_pairs(draw):
    """(a, b) of degree 2 to 4 with roots near 0, b holding factors of a
    shifted by up to 60: the window is wider than deg R by a little."""
    shared = draw(root_factors(max_degree=2, far=False))
    a = product(shared + draw(root_factors(2, far=False)), draw(scales))
    b_factors = [shift(f, -draw(st.integers(0, 60))) for f in shared if draw(st.booleans())]
    b = product(b_factors + draw(root_factors(2, far=False)), draw(scales))
    return a, b


@st.composite
def far_root_pairs(draw):
    """(a, b) of degree at most 2 with a root beyond 100, b often holding
    a's linear factor shifted by up to 10^4: the window is far wider than
    deg R."""
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

    @given(narrow_window_pairs())
    def test_samples_alone(self, pair):
        a, b = pair
        assume(path_of(a, b) == "samples")
        assert dispersion(a, b) == dispersion_by_interpolation(a, b)

    @given(window_pairs())
    def test_power_sums(self, pair):
        a, b = pair
        assume(path_of(a, b) == "horner")
        assert dispersion(a, b) == dispersion_by_interpolation(a, b)

    @given(far_root_pairs())
    def test_roots_of_the_interpolated_resultant(self, pair):
        # the roots of the power-sum resultant against those of the
        # interpolated one
        a, b = pair
        assume(path_of(a, b) == "roots")
        assert dispersion(a, b) == dispersion_by_interpolation(a, b)

    def test_each_path_is_taken(self):
        assert path_of(N**8 + N + 1, N**8 + N + 2) == "samples"
        assert path_of((N + 1) * (N + 3), (N - 10) * (N + 2)) == "horner"
        assert path_of((N + 5000) * (N - 1), N - 3000) == "roots"
        assert path_of(N**40 + 1, shift(N**40 + 1, 7)) == "empty"

    @pytest.mark.parametrize(
        "a, b, lo, width, p, path",
        [
            (N * (N + 2) * (N**2 + 1), (N - 5) * (N**3 + 2), 5, 2, 17, "samples"),
            (N * (N + 20), N - 3, 3, 20, 41, "horner"),
            (N * (N + 100), N, 0, 100, 211, "roots"),
        ],
    )
    def test_each_path_reads_both_ends_of_the_window(self, a, b, lo, width, p, path):
        # a(n) and b(n + lo + j) share the root 0 at j = 0 and -width at
        # j = width; R(lo + j) vanishes mod p exactly where their images
        # mod p have a common factor
        fa, fb = _gf_monic(a.primitive, p), _gf_monic(b.primitive, p)
        top = int(a.degree * b.degree)
        assert path == ("samples" if _samples_pay(width, top) else "roots" if _roots_pay(width, top, p) else "horner")
        expected = [j for j in range(width + 1) if len(_gf_gcd(fa, shift(b, lo + j).primitive, p)) > 1]
        assert expected[0] == 0 and expected[-1] == width
        assert _shift_candidates(fa, fb, lo, width, p) == expected

    @given(
        st.sampled_from([11, 101, 10007, 2**31 - 1, 2**61 - 1]),
        st.lists(st.integers(0, 300), max_size=4),
        st.lists(st.integers(0, 2**61), min_size=1, max_size=8),
        st.integers(0, 300),
    )
    def test_window_zeros_are_the_zeros_of_the_polynomial(self, p, roots, other, stop):
        # f = prod (n - r) * other over Z, read mod p at 0..stop, whether or
        # not p exceeds deg f or stop
        f = product(linear_factors(roots) + [Poly(other)])
        assume(not f.is_zero)
        residues = [int(c) % p for c in f.coeffs]
        expected = [h for h in range(stop + 1) if f(h) % p == 0]
        assert _gf_zeros(residues, stop, p) == expected


# -- the shift resultant from power sums ----------------------------------------


def first_prime_above(floor, *leading):
    p = first_candidate_prime(floor)
    while any(c % p == 0 for c in leading):
        p = first_candidate_prime(p)
    return p


small_factors = st.sampled_from(
    linear_factors([0, 1, -1, 2, -3]) + [Poly((1, 2)), Poly((1, 0, 1)), Poly((1, 1, 1)), Poly((-2, 0, 0, 1))]
)


@st.composite
def resultant_inputs(draw):
    """Integer polynomials of degree 1 to 8 from a few small factors, often
    repeated, scaled by a small integer."""
    factors = draw(st.lists(small_factors, min_size=1, max_size=4))
    power = draw(st.integers(1, 3))
    return product([factors[0] ** power] + factors[1:], draw(st.sampled_from([1, -1, 2, 3])))


class TestPowerSumResultant:
    @settings(max_examples=60)
    @given(resultant_inputs(), resultant_inputs(), st.booleans())
    def test_equals_the_interpolated_resultant_up_to_its_leading_coefficient(self, a, b, just_above):
        # the interpolation samples Res(a(n), b(n+h)) of the inputs
        # themselves; the power sums give the monic prod (h - (beta - alpha))
        pa, pb = a.primitive, b.primitive
        top = (len(pa) - 1) * (len(pb) - 1)
        p = first_prime_above(top if just_above else 10**4, pa[-1], pb[-1])
        interpolated = _gf_shift_resultant(pa, pb, p)
        from_power_sums = _gf_power_sum_resultant(_gf_monic(pa, p), _gf_monic(pb, p), p)
        assert len(from_power_sums) == top + 1 and from_power_sums[-1] == 1
        assert interpolated == [interpolated[-1] * c % p for c in from_power_sums]

    def test_small_case_against_the_sylvester_determinant(self):
        a, b = (N + 1) * (N**2 + 3), (N - 2) ** 2
        p = 101
        coeffs = _gf_power_sum_resultant(_gf_monic(a.primitive, p), _gf_monic(b.primitive, p), p)
        for h in range(-3, 9):
            value = sum(c * h**i for i, c in enumerate(coeffs))
            assert (value - sylvester_resultant(a, shift(b, h))) % p == 0

    def test_prime_just_above_the_degree(self):
        # D = 4 and p = 5: every k <= D is still invertible
        a, b = (N + 1) ** 2, (N - 3) * (N + 4)
        coeffs = _gf_power_sum_resultant(_gf_monic(a.primitive, 5), _gf_monic(b.primitive, 5), 5)
        assert coeffs == [x % 5 for x in ((N - 4) ** 2 * (N + 3) ** 2).primitive]


# -- the centred window -----------------------------------------------------------

irreducible_factors = st.sampled_from(
    [
        Poly((1, 0, 1)),  # n^2 + 1
        Poly((1, 1, 1)),  # n^2 + n + 1
        Poly((-2, 0, 0, 1)),  # n^3 - 2
        Poly((1, 1, 0, 1)),  # n^3 + n + 1
        Poly((-2, 0, 0, 0, 1)),  # n^4 - 2
        Poly((2, 2, 0, 0, 0, 1)),  # n^5 + 2n + 2
        Poly((-2, 0, 0, 0, 0, 0, 1)),  # n^6 - 2
    ]
)


@st.composite
def planted_shift_pairs(draw):
    """(a, b) built from an irreducible factor f of degree 2 to 6 and linear
    factors with roots in [-6, 6]: b holds f(n - k) for k up to 15, or f(n + k)
    for k up to 40, which often leaves the window empty.  Every shift is at
    most 27, within the brute-force scan."""
    f = draw(irreducible_factors)
    k = draw(st.integers(0, 15))
    b_shared = shift(f, -k) if draw(st.booleans()) else shift(f, draw(st.integers(1, 40)))
    a = product([f] + linear_factors(draw(st.lists(st.integers(-6, 6), max_size=2))), draw(scales))
    b = product([b_shared] + linear_factors(draw(st.lists(st.integers(-6, 6), max_size=2))), draw(scales))
    return a, b


class TestWindow:
    @settings(max_examples=60)
    @given(planted_shift_pairs())
    def test_against_brute_force_and_interpolation(self, pair):
        a, b = pair
        result = dispersion(a, b)
        assert result.value == brute_dispersion(a, b)
        assert result == dispersion_by_interpolation(a, b)

    def test_empty_window_takes_no_prime(self, monkeypatch):
        def no_prime(*args):
            raise AssertionError("a prime was searched for")

        monkeypatch.setattr(dispersion_module, "_root_prime", no_prime)
        dispersion_module._dispersion.cache_clear()
        a = N**5 + 2 * N + 2
        assert _window(a.primitive, shift(a, 30).primitive) == (0, -24)
        assert dispersion(a, shift(a, 30)) == DispersionResult(-1, ())

    @settings(max_examples=25)
    @given(shifted_pairs(), st.integers(0, 4000).flatmap(lambda e: st.integers(-(2**e), 2**e)))
    def test_translation_invariance(self, pair, t):
        # a(n + t) and b(n + t + k) share the factor g(n + t) exactly when
        # a(n) and b(n + k) share g(n)
        a, b = pair
        expected = dispersion(a, b)
        moved = dispersion(shift(a, t), shift(b, t))
        assert moved.value == expected.value
        assert moved.witnesses == tuple((k, shift(g, t)) for k, g in expected.witnesses)

    def test_distant_linear_pair(self):
        result = dispersion(N + 2**4095, N)
        assert result == DispersionResult(2**4095, ((2**4095, N + 2**4095),))

    def test_centre_is_the_nearest_integer_to_the_mean_root(self):
        assert _centred(((N - 7) * (N - 8) * (N - 9)).primitive)[0] == 8
        assert _centred((2 * N + 7).primitive) == (-3, (1, 2))
        assert _centred((N**2 + 1).primitive) == (0, (1, 0, 1))


class TestCentredIntegerRoots:
    @given(root_polys(), st.integers(0, 4000).flatmap(lambda e: st.integers(-(2**e), 2**e)))
    def test_translated_roots(self, p, t):
        # the roots of p(n + t) are those of p moved by -t
        assert integer_roots(shift(p, t)) == {r - t for r in integer_roots_by_divisors(p)}

    def test_distant_root_searches_no_large_prime(self, monkeypatch):
        primes = []
        real = dispersion_module._root_prime

        def spy(floor, *leading):
            primes.append(real(floor, *leading))
            return primes[-1]

        monkeypatch.setattr(dispersion_module, "_root_prime", spy)
        assert integer_roots(N + 2**4095) == {-(2**4095)}
        assert primes == [3]


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
        # the root bound of f centred: the root search must pass over q
        q, fixed = 3, False
        for _ in range(6):
            f = product([Poly((-r, 1)), Poly((c, q * m))] + rest)
            bound_prime = first_candidate_prime(max(2 * _root_bound(_centred(f.primitive)[1]), 2))
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
        # the smallest prime above max(2 W, deg a deg b, 2) for this very
        # pair, W the width of its window
        q, fixed = 3, False
        for _ in range(6):
            linear = Poly((c, q * m))
            a, b = product([linear] + rest), shift(linear, -k)
            lo, hi = _window(a.primitive, b.primitive)
            bound_prime = first_candidate_prime(max(2 * (hi - lo), int(a.degree * b.degree), 2))
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


# -- the memo on primitive parts ----------------------------------------------

nonzero_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50).filter(bool)


class TestMemo:
    @given(shifted_pairs())
    def test_cached_results_equal_fresh_ones(self, pair):
        a, b = pair
        first = dispersion(a, b)
        assert dispersion(a, b) == first
        dispersion_module._dispersion.cache_clear()
        assert dispersion(a, b) == first

    @given(shifted_pairs(), nonzero_rationals, nonzero_rationals)
    def test_scalar_multiples_share_a_result(self, pair, c, d):
        a, b = pair
        dispersion_module._dispersion.cache_clear()
        expected = dispersion(a, b)
        dispersion_module._dispersion.cache_clear()
        assert dispersion(c * a, d * b) == expected

    def test_one_equation_computes_one_dispersion(self, monkeypatch):
        # every route of an order-1 equation starts from (pd(n-1), p0(n)):
        # pd(n-1) = (n+6)(2n+3) meets p0(n+5) at n+6
        runs = []
        core = dispersion_module._dispersion.__wrapped__

        def spy(pa, pb):
            runs.append((pa, pb))
            return core(pa, pb)

        monkeypatch.setattr(dispersion_module, "_dispersion", lru_cache(maxsize=_MEMO_ENTRIES)(spy))
        p0 = (N + 1) * (N**2 + 3)
        pd = (N + 7) * (2 * N + 5)
        assert gcd_limit(p0, pd, 1).max_shift == 5
        universal_denominator(p0, pd, 1)
        abramov_reduce(p0, pd, 1)
        gp_rep_from_trace(pd, p0)
        assert runs == [(shift(pd, -1).primitive, p0.primitive)]

    def test_the_memo_holds_at_most_its_size(self):
        for i in range(1, 4 * _MEMO_ENTRIES):
            dispersion(N**2 + i, (N + i) ** 2 + i)
        info = dispersion_module._dispersion.cache_info()
        assert info.maxsize == _MEMO_ENTRIES
        assert info.currsize <= _MEMO_ENTRIES
