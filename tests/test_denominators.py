"""Abramov reduction, GP reduction, and the two representations."""

import random
from fractions import Fraction

import pytest

from ratrec.denominators import (
    GosperRep,
    abramov_reduce,
    check_gosper_rep,
    check_gp_rep,
    gosper_rep_from_abramov,
    gp_reduce,
    gp_rep_from_trace,
)
from ratrec.gcdseq import universal_denominator
from ratrec.polys import Poly, RatFunc, divrem, falling_product, gcd_monic, shift

from oracles import planted_pair, random_coprime_pair

N = Poly.variable()


def rep_identity_holds(rep: GosperRep) -> bool:
    lhs = rep.ratio.num * rep.den_factor * rep.shift_factor
    rhs = rep.ratio.den * rep.num_factor * shift(rep.shift_factor, 1)
    return lhs == rhs


class TestAbramovReduce:
    def test_small_factorial_ratio_case(self):
        trace = abramov_reduce((N + 1) * (N + 2), N + 3, 1)
        assert trace.max_shift == 1
        assert trace.step_gcds == (N + 2, Poly.one())
        assert trace.lead_residual == Poly.one()
        assert trace.trail_residual == N + 2
        assert trace.denominator == (N + 1) * (N + 2)

    def test_no_shared_shifts(self):
        trace = abramov_reduce(N**2 + 1, N + 3, 1)
        assert trace.max_shift == -1
        assert trace.step_gcds == ()
        assert trace.denominator == Poly.one()

    def test_order_three_case(self):
        trace = abramov_reduce(
            -(N - 1) * (2 * N - 1) * (N + 1), (N + 4) * (2 * N + 1) * (N + 2), 3
        )
        assert trace.denominator == N * (N - 1) * (N + 1)

    def test_zero_inputs_rejected(self):
        with pytest.raises(ValueError):
            abramov_reduce(Poly.zero(), N, 1)

    def test_residuals_reconstruct_the_inputs(self):
        rng = random.Random(51)
        for _ in range(40):
            p0, pd, d = planted_pair(rng)
            trace = abramov_reduce(p0, pd, d)
            assert all(g.lc == 1 for g in trace.step_gcds)
            assert trace.denominator.lc == 1
            lead = trace.lead_residual
            trail = trace.trail_residual
            for i, g in zip(range(trace.max_shift, -1, -1), trace.step_gcds):
                lead = lead * g
                trail = trail * shift(g, -i)
            assert lead == shift(pd, -d)
            assert trail == p0

    def test_denominator_matches_closed_form(self):
        rng = random.Random(52)
        for _ in range(60):
            p0, pd, d = planted_pair(rng)
            assert abramov_reduce(p0, pd, d).denominator == universal_denominator(p0, pd, d)

    def test_denominator_is_the_falling_product_of_the_steps(self):
        rng = random.Random(53)
        for _ in range(25):
            p0, pd, d = planted_pair(rng)
            trace = abramov_reduce(p0, pd, d)
            product = Poly.one()
            for i, g in zip(range(trace.max_shift, -1, -1), trace.step_gcds):
                product = product * falling_product(g, i + 1)
            assert trace.denominator == product


class TestGPReduce:
    def test_small_factorial_ratio_case(self):
        trace = gp_reduce(N + 3, (N + 1) * (N + 2))
        assert trace.max_shift == 1
        assert trace.step_gcds == (N + 3, Poly.one())
        assert trace.num_residual == Poly.one()
        assert trace.den_residual == N + 1
        assert trace.denominator == N + 2

    def test_coprime_at_all_shifts(self):
        trace = gp_reduce(N**2 + 1, N + 3)
        assert trace.denominator == Poly.one()
        assert trace.num_residual == N**2 + 1
        assert trace.den_residual == N + 3

    def test_adjacent_linear_pair(self):
        trace = gp_reduce(N + 1, N)
        assert trace.max_shift == 0
        assert trace.step_gcds == (N + 1,)
        assert trace.denominator == N
        assert trace.num_residual == Poly.one()
        assert trace.den_residual == Poly.one()

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            gp_reduce(N + 1, (N + 1) * N)

    def test_gp_denominator_divides_abramov_denominator(self):
        rng = random.Random(54)
        for _ in range(60):
            a, b = random_coprime_pair(rng)
            trace = gp_reduce(a, b)
            assert all(g.lc == 1 for g in trace.step_gcds)
            assert trace.denominator.lc == 1
            big = gosper_rep_from_abramov(a, b).shift_factor
            assert divrem(big, trace.denominator)[1].is_zero


class TestRepresentations:
    def test_abramov_rep_for_factorial_ratio(self):
        rep = gosper_rep_from_abramov(N + 3, (N + 1) * (N + 2))
        assert rep.shift_factor == (N + 1) * (N + 2)
        assert rep.num_factor == Poly.one()
        assert rep.den_factor == N + 2
        # a Gosper representation, but not the GP one
        assert gcd_monic(shift(rep.shift_factor, 1), rep.den_factor) == N + 2
        assert check_gosper_rep(rep).ok
        failed = check_gp_rep(rep)
        assert not failed.ok
        assert failed.failed_condition == "den_shift_coprime"
        assert failed.witness == N + 2

    def test_gp_rep_for_factorial_ratio(self):
        rep = gp_rep_from_trace(N + 3, (N + 1) * (N + 2))
        assert rep.shift_factor == N + 2
        assert rep.num_factor == Poly.one()
        assert rep.den_factor == N + 1
        assert check_gp_rep(rep).ok

    def test_gp_rep_with_fractional_factor(self):
        rep = gp_rep_from_trace(4 * N + 5, 2 * (4 * N + 1) * (2 * N + 3))
        assert rep.shift_factor == N + Fraction(1, 4)
        assert rep.den_factor.lc == 1
        assert rep_identity_holds(rep)
        assert check_gp_rep(rep).ok

    def test_trivial_rep_for_coprime_at_all_shifts(self):
        rep = gosper_rep_from_abramov(N**2 + 1, N + 3)
        assert rep.shift_factor == Poly.one()
        assert rep_identity_holds(rep)
        assert check_gosper_rep(rep).ok
        assert check_gp_rep(rep).ok

    def test_both_representations_reproduce_the_ratio(self):
        rng = random.Random(55)
        for _ in range(60):
            a, b = random_coprime_pair(rng)
            for rep in (gosper_rep_from_abramov(a, b), gp_rep_from_trace(a, b)):
                assert rep_identity_holds(rep)
                assert rep.shift_factor.lc == 1
                assert rep.den_factor.lc == 1
                assert check_gosper_rep(rep).ok

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            gosper_rep_from_abramov(N * (N + 1), N)

    @pytest.mark.parametrize("build", [gosper_rep_from_abramov, gp_rep_from_trace])
    def test_input_pair_gcd_taken_once(self, build, monkeypatch):
        import ratrec.denominators
        import ratrec.polys

        calls = []

        def counted(x, y):
            calls.append({x, y})
            return gcd_monic(x, y)

        monkeypatch.setattr(ratrec.denominators, "gcd_monic", counted)
        monkeypatch.setattr(ratrec.polys, "gcd_monic", counted)
        for a, b in ((N + 3, (N + 1) * (N + 2)), (2 * (N + 3), 3 * (N + 1) * (N + 2))):
            calls.clear()
            rep = build(a, b)
            assert calls.count({a, b}) == 1
            assert rep.ratio == RatFunc.reduced(a, b)


class TestRepChecks:
    def test_failing_shift_reported(self):
        rep = GosperRep(RatFunc.reduced(N, N - 3), N, N - 3, Poly.one())
        result = check_gosper_rep(rep)
        assert not result.ok
        assert result.failed_condition == "shift_coprime"
        assert result.failing_shift == 3
        assert result.witness == N

    def test_broken_identity_reported(self):
        rep = GosperRep(RatFunc.reduced(N, N - 3), N + 1, N - 3, Poly.one())
        result = check_gosper_rep(rep)
        assert not result.ok
        assert result.failed_condition == "identity"

    def test_num_coprime_condition(self):
        # shift factor shares a root with the numerator factor:
        # (n+2) written as ((n+1)/1) * (n+2)/(n+1)
        rep = GosperRep(
            RatFunc.reduced(N + 2, Poly.one()),
            N + 1,
            Poly.one(),
            N + 1,
        )
        assert rep_identity_holds(rep)
        assert check_gosper_rep(rep).ok
        result = check_gp_rep(rep)
        assert not result.ok
        assert result.failed_condition == "num_coprime"
        assert result.witness == N + 1

    def test_trivial_rep_passes_both(self):
        rep = GosperRep(RatFunc.reduced(N**2 + 1, N + 4), N**2 + 1, N + 4, Poly.one())
        assert check_gosper_rep(rep).ok
        assert check_gp_rep(rep).ok
