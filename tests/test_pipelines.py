"""End-to-end Gosper summation and rational solving."""

import random
from fractions import Fraction

import pytest

from ratrec.pipelines import gosper, rational_solve, verify_gosper, verify_rational
from ratrec.polys import Poly, RatFunc, divrem, shift
from ratrec.recurrences import LinearRecurrence

from oracles import (
    divides,
    in_affine_family,
    planted_antidifference_ratio,
    planted_rational_instance,
)

N = Poly.variable()

EX21_RATIO = RatFunc.reduced(4 * N + 5, 2 * (4 * N + 1) * (2 * N + 3))
EX41_REC = LinearRecurrence(
    (
        -(N - 1) * (2 * N - 1) * (N + 1),
        N * (N + 2) * (2 * N - 3),
        -(2 * N + 3) * (N + 3) * (N + 1),
        (N + 4) * (2 * N + 1) * (N + 2),
    ),
    Poly.zero(),
)


class TestGosper:
    def test_factorial_over_double_factorial_ratio(self):
        solution = gosper(EX21_RATIO)
        assert solution is not None
        assert solution.max_shift == 0
        assert solution.raw_denominator == N + Fraction(1, 4)
        assert solution.raw_numerator == Poly([Fraction(-1, 2), -1])
        assert solution.certificate == RatFunc.reduced(
            -2 * (2 * N + 1), 4 * N + 1
        )
        assert verify_gosper(solution)

    def test_factorial_ratio_is_not_summable(self):
        assert gosper(RatFunc.reduced(N + 1, Poly.one())) is None

    def test_summing_the_integers(self):
        solution = gosper(RatFunc.reduced(N + 1, N))
        assert solution is not None
        assert solution.max_shift == 0
        assert solution.raw_denominator == N
        assert solution.certificate == RatFunc.reduced(N - 1, Poly.const(2))
        assert verify_gosper(solution)

    def test_zero_ratio_rejected(self):
        with pytest.raises(ValueError):
            gosper(RatFunc.zero())

    def test_round_trip_on_planted_antidifferences(self):
        rng = random.Random(71)
        for _ in range(30):
            ratio = planted_antidifference_ratio(rng)
            solution = gosper(ratio)
            assert solution is not None
            assert verify_gosper(solution)

    def test_certificate_denominator_divides_gcd_limit(self):
        rng = random.Random(72)
        for _ in range(30):
            ratio = planted_antidifference_ratio(rng)
            solution = gosper(ratio)
            assert solution is not None
            if solution.certificate.den.degree > 0:
                assert divides(solution.certificate.den, solution.raw_denominator)

    def test_deterministic(self):
        first = gosper(EX21_RATIO)
        second = gosper(EX21_RATIO)
        assert first == second


class TestRationalSolve:
    def test_order_three_one_parameter_family(self):
        result = rational_solve(EX41_REC)
        assert result.max_shift == 2
        assert result.denominator == N * (N - 1) * (N + 1)
        assert result.numerators.particular == Poly.zero()
        assert len(result.numerators.homogeneous_basis) == 1
        member = result.numerators.homogeneous_basis[0]
        assert member.monic() == (N * (2 * N - 3)).monic()
        y = result.homogeneous[0]
        assert verify_rational(EX41_REC, y)
        # the verified reduced form: a scalar multiple of (2n-3)/(n^2-1)
        assert y.den == N**2 - 1
        assert y.num.monic() == (2 * N - 3).monic()

    def test_polynomial_only_branch(self):
        rec = LinearRecurrence((Poly.const(-1), Poly.one()), 2 * N + 1)
        result = rational_solve(rec)
        assert result.denominator == Poly.one()
        assert result.numerators.particular == N**2
        assert result.particular == RatFunc.reduced(N**2, Poly.one())

    def test_planted_instances(self):
        rng = random.Random(73)
        for _ in range(20):
            rec, planted_y, planted_g = planted_rational_instance(rng)
            result = rational_solve(rec)
            assert divides(planted_g.monic(), result.denominator)
            numerator = planted_y.num * divrem(result.denominator, planted_y.den)[0]
            assert in_affine_family(result.numerators, numerator)
            assert verify_rational(rec, planted_y)

    def test_no_rational_solution(self):
        # y(n+1) (n+1) - y(n) = 1 has no rational solution (factorial growth)
        rec = LinearRecurrence((Poly.const(-1), N + 1), Poly.one())
        result = rational_solve(rec)
        assert result.numerators.particular is None
        assert result.particular is None

    @pytest.mark.parametrize(
        "a0, ad",
        [
            (7 * N**2 + 3 * N + 11, 5 * N**2 - 2 * N + 13),
            ((3 * N + 7) * (N + 40), (2 * N - 9) * (N - 17)),
        ],
    )
    def test_end_coefficients_with_non_integer_or_distant_roots(self, a0, ad):
        # the shift resultant of the end coefficients has degree 49, and its
        # trailing coefficient has too many divisors to search them; the
        # planted solution f/g is the only rational solution
        g = (N + 1) * (N + 3) * (N + 6) * (N + 10) * (N + 12)
        f = N**2 + 1
        ps = (a0, N**2 + 2, ad)
        rhs = Poly.zero()
        for m, p in enumerate(ps):
            rhs = rhs + p * shift(f, m)
        rec = LinearRecurrence(tuple(p * shift(g, m) for m, p in enumerate(ps)), rhs)
        result = rational_solve(rec)
        assert result.max_shift == 11
        assert result.numerators.homogeneous_basis == ()
        assert result.particular == RatFunc.reduced(f, g)
        assert verify_rational(rec, result.particular)

    def test_zero_trailing_coefficient_rejected(self):
        with pytest.raises(ValueError):
            rational_solve(LinearRecurrence((Poly.zero(), N), Poly.one()))

    def test_deterministic(self):
        first = rational_solve(EX41_REC)
        second = rational_solve(EX41_REC)
        assert first.denominator == second.denominator
        assert first.numerators == second.numerators


class TestVerifiers:
    def test_verify_gosper_positive_and_perturbed(self):
        solution = gosper(EX21_RATIO)
        assert verify_gosper(solution)
        from dataclasses import replace

        broken = replace(
            solution, certificate=solution.certificate + RatFunc.one()
        )
        assert not verify_gosper(broken)

    def test_verify_gosper_summing_the_integers(self):
        ratio = RatFunc.reduced(N + 1, N)
        y = RatFunc.reduced(N - 1, Poly.const(2))
        assert ratio * y.shifted(1) - y == RatFunc.one()

    def test_verify_rational_zero_against_homogeneous(self):
        assert verify_rational(EX41_REC, RatFunc.zero())

    def test_verify_rational_rejects_wrong_candidate(self):
        assert not verify_rational(EX41_REC, RatFunc.reduced(2 * N + 1, N**2 - 1))
        assert not verify_rational(EX41_REC, RatFunc.reduced(N, N + 1))

    def test_verified_form_of_order_three_family(self):
        assert verify_rational(EX41_REC, RatFunc.reduced(2 * N - 3, N**2 - 1))
