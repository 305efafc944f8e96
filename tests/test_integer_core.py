"""The integer-coefficient polynomial core against the Fraction oracle, the
cofactor gcd sequence against its definition, the witness-only reductions,
and the CRT prime table."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ratrec import polys
from ratrec.denominators import abramov_reduce, gp_reduce
from ratrec.gcdseq import gcd_limit, universal_denominator
from ratrec.intutil import CRT_PRIMES, PrimeStream, is_probable_prime
from ratrec.polys import (
    _HEU_MAX_BITS,
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


# coefficients past one CRT prime, so that a gcd pass runs modulo a product
wide_ints = st.integers(61, 400).flatmap(lambda bits: st.integers(-(1 << bits), 1 << bits))
wide = st.lists(wide_ints, min_size=2, max_size=6).filter(lambda cs: cs[-1] != 0)
wide_constants = st.integers(1 << 20, 1 << 30) | st.integers(-(1 << 30), -(1 << 20))


def closed_form_pair(alpha: int, beta: int, c: int, gamma: int, shift_by: int, count: int) -> tuple[Poly, Poly]:
    """The two falling products whose gcd is the closed-form universal
    denominator, for p0 = (alpha n + beta)(n^2 + c) and
    pd = p0(n + shift_by) (alpha n + gamma), d = 1."""
    n = Poly.variable()
    p0 = (alpha * n + beta) * (n * n + c)
    pd = shift(p0, shift_by) * (alpha * n + gamma)
    return falling_product(shift(p0, count - 1), count), falling_product(shift(pd, -1), count)


def agrees_with_oracle(a: Poly, b: Poly) -> bool:
    return agree(gcd_monic(a, b), FracPoly(a.coeffs).gcd(FracPoly(b.coeffs)))


def modular_gcd(a: Poly, b: Poly) -> Poly:
    """The monic gcd of a and b of degree >= 1 by the modular route alone."""
    return Poly(polys._modular_gcd(a.primitive, b.primitive)).monic()


def modular_agrees_with_oracle(a: Poly, b: Poly) -> bool:
    return agree(modular_gcd(a, b), FracPoly(a.coeffs).gcd(FracPoly(b.coeffs)))


def ascending_small_primes():
    """Primes from 101 up: small enough that a product modulus often meets a
    zero divisor or an unlucky prime."""
    c = 101
    while True:
        if is_probable_prime(c):
            yield c
        c += 1


class TestCompositeModulusGcd:
    @given(wide, wide, st.lists(wide_ints, min_size=1, max_size=4).filter(lambda cs: cs[-1] != 0))
    def test_wide_coefficients(self, a, b, common):
        pa, pb, pc = Poly(a), Poly(b), Poly(common)
        assert agrees_with_oracle(pa, pb)
        assert agrees_with_oracle(pa * pc, pb * pc)
        # the gcd is one of the inputs
        assert agrees_with_oracle(pa * pc, pc)

    @settings(max_examples=25)
    @given(
        st.sampled_from([2, 3]),
        wide_constants,
        wide_constants.map(abs),
        wide_constants,
        st.integers(1, 7),
        st.integers(2, 6),
    )
    def test_closed_form_falling_products(self, alpha, beta, c, gamma, shift_by, count):
        # 20- to 30-bit constants give the products coefficients of 100 to 500 bits
        assert agrees_with_oracle(*closed_form_pair(alpha, beta, c, gamma, shift_by, count))

    def test_zero_divisor_and_unlucky_moduli_are_dropped(self, monkeypatch):
        raised = []
        gf_gcd = polys._gf_gcd

        def spy(a, b, m):
            try:
                return gf_gcd(a, b, m)
            except ValueError:
                raised.append(m)
                raise

        monkeypatch.setattr(polys, "PrimeStream", ascending_small_primes)
        monkeypatch.setattr(polys, "_gf_gcd", spy)
        rng = random.Random(2031)
        n = Poly.variable()
        for _ in range(12):
            common = Poly([rng.randint(-(1 << 200), 1 << 200) for _ in range(3)]) + n**3
            a = common * Poly([rng.randint(-(1 << 150), 1 << 150) for _ in range(4)])
            b = common * Poly([rng.randint(-(1 << 150), 1 << 150) for _ in range(5)])
            assert modular_agrees_with_oracle(a, b)
        for shift_by, count in ((3, 5), (5, 6)):
            assert modular_agrees_with_oracle(*closed_form_pair(3, 2, 5, 1, shift_by, count))
        assert raised

    def test_the_first_pass_runs_modulo_one_prime(self, monkeypatch):
        moduli = []
        gf_gcd = polys._gf_gcd

        def spy(a, b, m):
            moduli.append(m)
            return gf_gcd(a, b, m)

        monkeypatch.setattr(polys, "_gf_gcd", spy)
        rng = random.Random(2032)
        n = Poly.variable()

        def wide_poly(length):
            return Poly([rng.randint(-(1 << 150), 1 << 150) for _ in range(length)])

        # a coprime pair is proved coprime by one prime
        assert modular_gcd(wide_poly(6), wide_poly(5)) == Poly.one()
        assert len(moduli) == 1 and is_probable_prime(moduli[0]) and moduli[0] < 1 << 61
        # a gcd with narrow coefficients lifts from that prime's image alone
        moduli.clear()
        g = n * n + 3 * n + 5
        assert modular_gcd(g * wide_poly(6), g * wide_poly(5)) == g
        assert len(moduli) == 1 and is_probable_prime(moduli[0])

    def test_planted_pair_takes_two_passes(self, monkeypatch):
        # p0 = (3n+2)(n^2+5), pd = p0(n+21)(5n+1), d = 1: dispersion N = 20,
        # and the closed form is one gcd of two falling products of degree 63
        # and 84; one 61-bit prime a pass would need four passes
        lengths = []
        gf_gcd = polys._gf_gcd

        def spy(a, b, m):
            lengths.append(min(len(a), len(b)))
            return gf_gcd(a, b, m)

        n = Poly.variable()
        p0 = (3 * n + 2) * (n * n + 5)
        pd = shift(p0, 21) * (5 * n + 1)
        closed_form = universal_denominator(p0, pd, 1)
        assert closed_form.degree == 63
        monkeypatch.setattr(polys, "_gf_gcd", spy)
        lead, trail = falling_product(shift(p0, 20), 21), falling_product(shift(pd, -1), 21)
        # the gcd is the shorter input, which one trial division finds
        assert modular_gcd(lead, trail) == closed_form
        assert lengths == []
        # with a cofactor on that input the passes have to find it
        assert modular_gcd(lead * (7 * n + 2), trail) == closed_form
        assert 1 <= sum(1 for length in lengths if length > 20) <= 2


@st.composite
def int_polys(draw, lengths, bits, lead_bits=0):
    """Integer polynomials with a length drawn from `lengths` and coefficients
    below 2^b in absolute value, b drawn from `bits`; the leading one is at
    least 2^lead_bits."""
    length, b = draw(lengths), draw(bits)
    cs = draw(st.lists(st.integers(-(1 << b), 1 << b), min_size=length - 1, max_size=length - 1))
    lead = draw(st.integers(1 << lead_bits, max(1 << b, 1 << lead_bits)))
    return Poly(cs + [lead * draw(st.sampled_from([1, -1]))])


small_factors = int_polys(st.integers(1, 5), st.integers(1, 200))
cofactors = int_polys(st.integers(1, 8), st.integers(1, 200))


def gcd_agrees_everywhere(a: Poly, b: Poly) -> None:
    """gcd_monic against the Fraction oracle and, for inputs of degree >= 1,
    against the modular route alone."""
    g = gcd_monic(a, b)
    assert agree(g, FracPoly(a.coeffs).gcd(FracPoly(b.coeffs)))
    if a.degree >= 1 and b.degree >= 1:
        assert g == modular_gcd(a, b)


def record_widths(monkeypatch) -> list[int]:
    """The width of every heuristic gcd evaluation made from here on."""
    widths = []
    heu_gcd = polys._heu_gcd

    def spy(a, b, width):
        widths.append(width)
        return heu_gcd(a, b, width)

    monkeypatch.setattr(polys, "_heu_gcd", spy)
    return widths


class TestHeuristicGcd:
    @given(st.lists(big_ints, min_size=1, max_size=12).filter(any), st.integers(1, 6))
    def test_packing_any_size_is_evaluation(self, cs, width):
        xi = 256**width
        assert polys._pack_wide(cs, width) == sum(c * xi**i for i, c in enumerate(cs))

    @given(st.lists(big_ints, min_size=1, max_size=10), st.lists(small_ints, min_size=1, max_size=5).filter(any))
    def test_exact_quotient_or_none(self, a, b):
        b = b[: max(i for i, c in enumerate(b) if c) + 1]
        quo = polys._exact_quo_ints(tuple(a), tuple(b))
        oq, orem = FracPoly(a).divrem(FracPoly(b))
        if orem.coeffs or any(c.denominator != 1 for c in oq.coeffs):
            assert quo is None
        else:
            assert FracPoly(quo).coeffs == oq.coeffs

    @given(small_factors, cofactors, cofactors)
    def test_planted_gcds(self, g, u, v):
        gcd_agrees_everywhere(g * u, g * v)

    @given(int_polys(st.integers(2, 10), st.integers(1, 300)), int_polys(st.integers(2, 10), st.integers(1, 300)))
    def test_coprime_pairs(self, a, b):
        gcd_agrees_everywhere(a, b)

    @settings(max_examples=50)
    @given(
        int_polys(st.integers(1, 4), st.integers(1, 30)),
        int_polys(st.integers(1, 4), st.integers(1, 30)),
        int_polys(st.integers(1, 6), st.integers(200, 600), lead_bits=200),
    )
    def test_norms_far_apart(self, g, u, v):
        # the wider input's coefficients take several slots of the smaller
        # norm's xi, so its value is packed split into digits
        a, b = g * u, g * v
        assume(polys._max_bits(b.primitive) >= polys._max_bits(a.primitive) + 100)
        gcd_agrees_everywhere(a, b)
        gcd_agrees_everywhere(b, a)

    @settings(max_examples=12)
    @given(
        st.integers(2, 4),
        st.integers(2, 8),
        st.sampled_from([_HEU_MAX_BITS // 2, 2 * _HEU_MAX_BITS]),
        st.randoms(use_true_random=False),
    )
    def test_sizes_on_both_sides_of_the_limit(self, g_len, u_len, size, rng):
        # inputs whose first evaluation has about `size` bits: the heuristic
        # answers below the limit and the modular route above it
        length = g_len + u_len - 1
        bits = size // (2 * length)

        def draw(k):
            return Poly([rng.randint(-(1 << bits), 1 << bits) for _ in range(k - 1)] + [rng.randint(1, 1 << bits)])

        g = draw(g_len)
        a, b = g * draw(u_len), g * draw(u_len)
        pa, pb = a.primitive, b.primitive
        first = 8 * (min(polys._max_bits(pa), polys._max_bits(pb)) // 8 + 1) * max(len(pa), len(pb))
        assume((first <= _HEU_MAX_BITS) == (size < _HEU_MAX_BITS))
        gcd_agrees_everywhere(a, b)

    def test_a_spurious_factor_takes_the_next_xi(self, monkeypatch):
        # a = (n+3)(n-s), b = (n+3)(n^2-n) with s = 2^(4w) = sqrt(xi) at the
        # width w the heuristic starts from (b's norm 3 gives one byte, plus
        # the headroom): the cofactors' values xi - s and xi^2 - xi share the
        # spurious factor xi - s, the integer gcd reconstructs a itself, which
        # does not divide b, and the doubled width answers
        width = 1 + polys._HEU_HEADROOM_BYTES
        s = 1 << (4 * width)
        n = Poly.variable()
        a, b = (n + 3) * (n - s), (n + 3) * (n * n - n)
        assert polys._heu_gcd(a.primitive, b.primitive, width) is None
        widths = record_widths(monkeypatch)
        assert gcd_monic(a, b) == n + 3
        assert widths == [width, 2 * width]

    def test_closed_form_gcds_take_one_evaluation(self, monkeypatch):
        # at the smallest xi the cofactors' values share a spurious factor
        # and both of these take a second evaluation
        widths = record_widths(monkeypatch)
        n = Poly.variable()
        p0 = (3 * n + 2) * (n * n + 5)
        for n_max in (5, 10):
            pd = shift(p0, n_max + 1) * (5 * n + 1)
            lead = falling_product(shift(p0, n_max), n_max + 1) * (7 * n + 2)
            trail = falling_product(shift(pd, -1), n_max + 1)
            widths.clear()
            gcd_agrees_everywhere(lead, trail)
            assert len(widths) == 1

    def test_the_headroom_stays_within_the_limit(self, monkeypatch):
        # length 8001 with 4-bit coefficients: one byte a slot is 64,008 bits,
        # within the limit, and 64 bits more a slot would be nine times that
        def no_modular(a, b):
            raise AssertionError("the smallest xi is within the limit")

        widths = record_widths(monkeypatch)
        monkeypatch.setattr(polys, "_modular_gcd", no_modular)
        n = Poly.variable()
        g = n**4000 + 1
        assert gcd_monic(g * (n**4000 + 3), g * (n**4000 + 5)) == g
        assert widths == [1]

    @settings(max_examples=40, deadline=None)
    @given(
        int_polys(st.integers(2, 3), st.integers(1, 8)),
        int_polys(st.integers(1, 3), st.integers(1, 8)),
        int_polys(st.integers(1, 3), st.integers(1, 8)),
        st.integers(0, 6),
        st.integers(1, 6),
    )
    def test_falling_factorial_products(self, f, u, v, k, length):
        # the closed form's shape: gcd of [f u](n+k) and [f v](n) falling
        # `length` times, whose values share many small factors at every xi
        lead = falling_product(shift(f * u, k), length)
        trail = falling_product(f * v, length)
        gcd_agrees_everywhere(lead, trail)


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
