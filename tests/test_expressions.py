"""Expression parsing, evaluation, and formatting."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ratrec import polys
from ratrec.expressions import (
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_NESTING,
    EvalError,
    ParseError,
    _size,
    _tokenize,
    format_value,
    parse_poly,
    parse_ratfunc,
)
from ratrec.polys import Poly, RatFunc
from ratrec.recurrences import SolutionSet

from oracles import rand_poly, rand_ratfunc, tokenize_by_characters

N = Poly.variable()

# literals of up to MAX_COEFF_BITS bits, often near a half or a quarter of
# it, so that one or two operators reach the bound, with n and the
# operators, powers and parentheses of the grammar
_LITERAL_BITS = st.integers(1, MAX_COEFF_BITS) | st.sampled_from(
    [MAX_COEFF_BITS // 4, MAX_COEFF_BITS // 2 - 1, MAX_COEFF_BITS // 2, MAX_COEFF_BITS - 1, MAX_COEFF_BITS]
)
_ATOMS = st.one_of(
    st.just("n"),
    st.integers(0, 9).map(str),
    st.builds(lambda bits, low: str((1 << bits) - low), _LITERAL_BITS, st.integers(0, 3)),
)
_EXPRESSIONS = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.builds("{}{}{}".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("({})^{}".format, inner, st.integers(0, 4)),
        st.builds("({})".format, inner),
        st.builds("-({})".format, inner),
    ),
    max_leaves=8,
)


class TestParse:
    def test_term_ratio_input(self):
        value = parse_ratfunc("(4*n+5)/(2*(4*n+1)*(2*n+3))")
        assert value == RatFunc.reduced(4 * N + 5, 2 * (4 * N + 1) * (2 * N + 3))

    def test_simple_polynomial(self):
        assert parse_poly("n^2-1") == N**2 - 1

    def test_unbalanced_paren_offset(self):
        with pytest.raises(ParseError) as err:
            parse_ratfunc("n/(n")
        assert err.value.offset == 4

    def test_unknown_character_offset(self):
        with pytest.raises(ParseError) as err:
            parse_ratfunc("n + x")
        assert err.value.offset == 4

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_ratfunc("n n")

    def test_exponent_must_be_literal(self):
        with pytest.raises(ParseError):
            parse_ratfunc("n^n")
        with pytest.raises(ParseError):
            parse_ratfunc("n^(2)")
        with pytest.raises(ParseError):
            parse_ratfunc("n^-1")

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse_ratfunc("2n")
        with pytest.raises(ParseError):
            parse_ratfunc("(n+1)(n+2)")

    def test_precedence(self):
        assert parse_poly("1+2*n^2") == 2 * N**2 + 1
        assert parse_ratfunc("3/4*n") == RatFunc.reduced(3 * N, Poly.const(4))
        assert parse_poly("-n^2") == -(N**2)
        assert parse_poly("2^3") == Poly.const(8)

    def test_nesting_limit(self):
        at_limit = "(" * MAX_NESTING + "n" + ")" * MAX_NESTING
        assert parse_poly(at_limit) == N
        assert parse_poly("(" + "-" * (MAX_NESTING - 1) + "n)") == -N
        with pytest.raises(ParseError) as err:
            parse_ratfunc("(" + at_limit + ")")
        assert err.value.offset == MAX_NESTING
        with pytest.raises(ParseError) as err:
            parse_ratfunc("-" * (MAX_NESTING + 1) + "n")
        assert err.value.offset == MAX_NESTING

    def test_long_operator_chains_evaluate(self):
        # a flat chain is a left-deep tree as deep as it is long
        assert parse_poly("+".join(["n"] * 3000)) == 3000 * N
        assert parse_poly("*".join(["2"] * 300)) == Poly.const(2**300)

    def test_degree_bound(self):
        assert parse_poly(f"n^{MAX_DEGREE}") == N**MAX_DEGREE
        assert parse_poly("(n^600)*(n^400)").degree == MAX_DEGREE
        with pytest.raises(ParseError) as err:
            parse_ratfunc(f"n^{MAX_DEGREE + 1}")
        assert err.value.offset == 1
        with pytest.raises(ParseError) as err:
            parse_ratfunc("(n^600)*(n^401)")
        assert err.value.offset == 7
        with pytest.raises(ParseError) as err:
            parse_ratfunc("1/(n^600)/(n^401)")
        assert err.value.offset == 9
        # a sum is checked once built: its numerator is n^1001 + n^1000 + 1
        with pytest.raises(ParseError) as err:
            parse_ratfunc(f"n^{MAX_DEGREE} + 1/(n+1)")
        assert err.value.offset == 7
        assert "degree above" in str(err.value)

    @pytest.mark.parametrize(
        "text, value", [("1^9000", 1), ("(-1)^9000", 1), ("(-1)^9001", -1), ("(n/n)^9000", 1)]
    )
    def test_a_power_of_a_unit_is_a_unit(self, text, value):
        # e times the base's bits is far past the bound, but the value is +-1
        assert parse_poly(text) == Poly.const(value)

    def test_a_power_past_the_bound_is_still_refused(self):
        with pytest.raises(ParseError) as err:
            parse_ratfunc("2^9000")
        assert err.value.offset == 1
        assert f"above {MAX_COEFF_BITS} bits" in str(err.value)

    def test_coefficient_bound(self):
        assert parse_poly("2^2048") == Poly.const(2**2048)
        with pytest.raises(ParseError) as err:
            parse_ratfunc("((2^10)^10)^50")
        assert err.value.offset == 11
        assert f"above {MAX_COEFF_BITS} bits" in str(err.value)
        with pytest.raises(ParseError) as err:
            parse_ratfunc("n + 1/" + str(1 << MAX_COEFF_BITS))
        assert err.value.offset == 6
        with pytest.raises(ParseError) as err:
            parse_ratfunc("n^" + "9" * 5000)
        assert err.value.offset == 2

    def test_power_at_the_coefficient_bound(self):
        # e times the bits of 2 or 3 is within twice the bound, so each power
        # is built and measured, at and just past the bound
        top3 = max(e for e in range(3000) if (3**e).bit_length() <= MAX_COEFF_BITS)
        assert parse_poly(f"2^{MAX_COEFF_BITS - 1}") == Poly.const(2 ** (MAX_COEFF_BITS - 1))
        assert parse_poly("3^2583") == Poly.const(3**2583)
        assert parse_poly(f"3^{top3}") == Poly.const(3**top3)
        assert parse_ratfunc(f"(1/3)^{top3}") == RatFunc.reduced(Poly.one(), Poly.const(3**top3))
        for text in (f"2^{MAX_COEFF_BITS}", f"3^{top3 + 1}", f"(1/3)^{top3 + 1}", f"(2*n)^{MAX_COEFF_BITS}"):
            with pytest.raises(ParseError) as err:
                parse_ratfunc(text)
            assert err.value.offset == text.rindex("^")
        # past the degree bound the power is refused before it is built
        with pytest.raises(ParseError) as err:
            parse_ratfunc(f"(n^{MAX_DEGREE // 2}+1)^3")
        assert "degree above" in str(err.value)

    def test_product_and_quotient_at_the_bounds(self):
        # each product and quotient is measured as built, so operands whose
        # bits add up past the bound still give a value at the bound
        top = 2 ** (MAX_COEFF_BITS - 1)
        assert parse_poly(f"2^{MAX_COEFF_BITS - 1}*n") == N * top
        assert parse_poly("(2^2048)*(2^2047)") == Poly.const(top)
        assert parse_ratfunc(f"2^{MAX_COEFF_BITS - 1}/(2*n)") == RatFunc.reduced(Poly.const(top // 2), N)
        # a quotient's degree is the larger of its numerator's and denominator's
        assert parse_ratfunc(f"(n^{MAX_DEGREE}+5)/(n^{MAX_DEGREE}+7)") == RatFunc.reduced(
            N**MAX_DEGREE + 5, N**MAX_DEGREE + 7
        )
        past = ((f"2^{MAX_COEFF_BITS - 1}", "*(2*n)"), (f"(n^{MAX_DEGREE})", "*n"), (f"(n^{MAX_DEGREE})", "/(1/n)"))
        for left, right in past:
            with pytest.raises(ParseError) as err:
                parse_ratfunc(left + right)
            assert err.value.offset == len(left)

    @pytest.mark.parametrize(
        "text", ["(2^2047*(1+n+n^2+n^3))^2", "(2^2047*(1+n+n^2+n^3))*(2^2047*(1+n+n^2+n^3))"]
    )
    def test_a_square_of_a_sum_past_the_coefficient_bound(self, text):
        # (1+n+n^2+n^3)^2 has the coefficient 4, so the value has 4097 bits
        with pytest.raises(ParseError) as err:
            parse_ratfunc(text)
        assert err.value.offset == 22
        assert f"above {MAX_COEFF_BITS} bits" in str(err.value)

    @given(_EXPRESSIONS)
    def test_every_value_is_within_the_bounds(self, text):
        try:
            value = parse_ratfunc(text)
        except (ParseError, EvalError):  # an EvalError is a division by zero
            return
        assert max(value.num.degree, value.den.degree) <= MAX_DEGREE
        assert _size(value) <= MAX_COEFF_BITS

    @given(st.lists(st.fractions(max_denominator=2**80).filter(bool), min_size=1, max_size=6))
    def test_the_bits_are_those_over_the_least_common_denominator(self, coeffs):
        lcd = math.lcm(*(c.denominator for c in coeffs))
        bits = max(lcd.bit_length(), *((c * lcd).numerator.bit_length() for c in coeffs))
        assert _size(RatFunc.from_poly(Poly(coeffs))) == bits

    def test_a_coefficient_within_the_bound_can_be_past_it_over_the_lcd(self):
        # 2^4095*n + 1/3 = (3*2^4095*n + 1)/3 and n/3 + 1/2^4095 =
        # (2^4095*n + 3)/(3*2^4095) have 4097 bits over their least common
        # denominators, and n/2^4095 + 2^4095 = (n + 2^8190)/2^4095 has 8191,
        # though no reduced coefficient has more than 4096
        for text, offset in (("2^4095*n+1/3", 8), ("n/3+1/2^4095", 3), ("n/2^4095+2^4095", 8)):
            with pytest.raises(ParseError) as err:
                parse_ratfunc(text)
            assert err.value.offset == offset
            assert f"above {MAX_COEFF_BITS} bits" in str(err.value)
        assert parse_poly("2^4094*n+1/3") == Poly([Fraction(1, 3), 2**4094])
        assert parse_poly("n/3+1/2^4094") == Poly([Fraction(1, 2**4094), Fraction(1, 3)])

    def test_past_degree_product_is_refused_before_it_is_built(self, monkeypatch):
        shorter = []
        mul = polys._mul_ints

        def spy(a, b):
            shorter.append(min(len(a), len(b)))
            return mul(a, b)

        monkeypatch.setattr(polys, "_mul_ints", spy)
        text = f"((n+3)^{MAX_DEGREE}+5)*((n+4)^{MAX_DEGREE}+7)"
        with pytest.raises(ParseError) as err:
            parse_ratfunc(text)
        assert err.value.offset == text.index(")*") + 1
        assert "degree above" in str(err.value)
        # the powers were built, but no product of two degree-1000 operands
        assert shorter and max(shorter) <= MAX_DEGREE

    def test_product_within_the_degree_bound_after_cancelling(self):
        # the unreduced numerators have degree 1001; n cancels in both
        expected = N ** (MAX_DEGREE - 1) * (N + 1)
        assert parse_poly(f"(n^{MAX_DEGREE})*((n+1)/n)") == expected
        assert parse_poly(f"(n^{MAX_DEGREE})/(n/(n+1))") == expected

    def test_whitespace_ignored(self):
        assert parse_poly(" n +  1/4 ") == N + Fraction(1, 4)


class TestScanner:
    GRAMMAR = "0123456789n+-*/^() \t\n\r\f\v"
    # characters that neither scanner takes for a digit or for whitespace
    FOREIGN = "x.!é€"

    @given(st.text(alphabet=GRAMMAR + FOREIGN, max_size=40))
    def test_same_tokens_as_the_character_loop(self, text):
        try:
            expected = tokenize_by_characters(text)
        except ParseError as err:
            with pytest.raises(ParseError) as ours:
                _tokenize(text)
            assert ours.value.offset == err.offset
            assert str(ours.value) == str(err)
        else:
            assert _tokenize(text) == expected

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("n^²", 2),  # a superscript digit, which int() refuses
            ("n+٣", 2),  # an Arabic-Indic digit, which int() reads as 3
            ("n\u2003+ x", 1),  # an em space before an unknown character
            ("n +\xa01", 3),
            ("n\x1c", 1),  # an ASCII separator that str.isspace() counts
            ("n + 1)²", 6),  # refused before the stray ')'
        ],
    )
    def test_non_ascii_digits_and_whitespace_are_refused(self, text, offset):
        with pytest.raises(ParseError) as err:
            parse_ratfunc(text)
        assert err.value.offset == offset
        assert "unexpected character" in str(err.value)

    @given(st.text(max_size=30) | st.text(alphabet=GRAMMAR + "²٣\u2003\xa0\x1c", max_size=30))
    def test_any_text_parses_or_is_an_input_error_at_a_byte_offset(self, text):
        try:
            value = parse_ratfunc(text)
        except (ParseError, EvalError) as err:
            # every character before the offset is ASCII, so it counts bytes
            assert text[: err.offset].isascii()
        else:
            assert isinstance(value, RatFunc)


class TestEval:
    def test_reduces_on_evaluation(self):
        value = parse_ratfunc("(n+3)/((n+1)*(n+2))")
        assert value.num == N + 3
        assert value.den == (N + 1) * (N + 2)

    def test_cancellation_to_constant(self):
        assert parse_ratfunc("(2*n+2)/(n+1)") == RatFunc.from_poly(Poly.const(2))

    def test_zero_denominator_reported(self):
        with pytest.raises(EvalError) as err:
            parse_ratfunc("1/(n-n)")
        assert err.value.offset == 1

    def test_leftmost_fault_is_reported(self):
        # the division by zero at offset 1 comes before the stray ')' at offset 7
        with pytest.raises(EvalError) as err:
            parse_ratfunc("1/(n-n))")
        assert err.value.offset == 1

    def test_poly_required(self):
        with pytest.raises(ParseError):
            parse_poly("1/n")


class TestFormat:
    def test_fractional_constant(self):
        assert format_value(N + Fraction(1, 4)) == "n + 1/4"

    def test_reduced_certificate(self):
        y = RatFunc.reduced(-2 * (2 * N + 1), 4 * N + 1)
        assert format_value(y) == "(-n - 1/2)/(n + 1/4)"

    def test_zero(self):
        assert format_value(Poly.zero()) == "0"

    def test_solution_set(self):
        text = format_value(SolutionSet(N**2, (Poly.one(),), 2))
        assert "particular: n^2" in text
        assert "basis[0]: 1" in text
        assert "degree bound: 2" in text

    def test_round_trip_500_random_values(self):
        rng = random.Random(81)
        for _ in range(250):
            p = rand_poly(rng, rng.randint(0, 5), -9, 9) * Fraction(
                rng.randint(1, 5), rng.randint(1, 5)
            )
            assert parse_poly(format_value(p)) == p
        for _ in range(250):
            r = rand_ratfunc(rng)
            assert parse_ratfunc(format_value(r)) == r
