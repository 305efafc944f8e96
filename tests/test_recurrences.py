"""Polynomial solutions of linear difference equations."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratrec import pipelines
from ratrec.gcdseq import gcd_limit
from ratrec.polys import Poly, falling_product
from ratrec.recurrences import (
    LinearRecurrence,
    SolutionSet,
    degree_bound,
    delta_coeffs,
    poly_solutions,
)

from oracles import (
    in_affine_family,
    planted_antidifference_ratio,
    planted_rational_instance,
    poly_solutions_dense,
    rand_poly,
)

N = Poly.variable()


def recurrence(coeffs, rhs) -> LinearRecurrence:
    return LinearRecurrence(tuple(coeffs), rhs)


class TestLinearRecurrence:
    def test_needs_order_at_least_one(self):
        with pytest.raises(ValueError):
            LinearRecurrence((N,), Poly.zero())

    def test_leading_coefficient_must_be_nonzero(self):
        with pytest.raises(ValueError):
            LinearRecurrence((N, Poly.zero()), Poly.zero())

    def test_apply_is_substitution(self):
        rec = recurrence([Poly.const(-1), Poly.one()], N)
        f = N * (N - 1) / 2
        assert rec.apply(f) == N


class TestDeltaCoeffs:
    def test_difference_operator(self):
        rec = recurrence([Poly.const(-1), Poly.one()], Poly.zero())
        assert delta_coeffs(rec) == (Poly.zero(), Poly.one())

    def test_pure_shift_operator(self):
        rec = recurrence([Poly.zero(), Poly.one()], Poly.zero())
        assert delta_coeffs(rec) == (Poly.one(), Poly.one())

    def test_weighted_first_order(self):
        rec = recurrence([-4 * (2 * N + 3), Poly.const(2)], Poly.zero())
        assert delta_coeffs(rec) == (-8 * N - 10, Poly.const(2))


class TestDegreeBound:
    def test_summing_the_identity(self):
        rec = recurrence([Poly.const(-1), Poly.one()], N)
        assert degree_bound(rec) == 2

    def test_weighted_first_order(self):
        rec = recurrence([-4 * (2 * N + 3), Poly.const(2)], (2 * N + 3) * (4 * N + 1))
        assert degree_bound(rec) == 1

    def test_no_candidate_degrees(self):
        rec = recurrence([Poly.const(-1), N + 1], Poly.one())
        assert degree_bound(rec) == -1

    def test_pure_difference_powers_cover_low_degrees(self):
        # second difference annihilates all linear polynomials
        rec = recurrence([Poly.one(), Poly.const(-2), Poly.one()], Poly.zero())
        assert degree_bound(rec) >= 1


class TestPolySolutions:
    def test_weighted_first_order_particular(self):
        rec = recurrence([-4 * (2 * N + 3), Poly.const(2)], (2 * N + 3) * (4 * N + 1))
        found = poly_solutions(rec)
        assert found.particular == Poly([Fraction(-1, 2), -1])
        assert found.homogeneous_basis == ()

    def test_factorial_ratio_has_no_polynomial_solution(self):
        rec = recurrence([Poly.const(-1), N + 1], Poly.one())
        found = poly_solutions(rec)
        assert found.particular is None
        assert found.homogeneous_basis == ()

    def test_summing_the_odd_numbers(self):
        rec = recurrence([Poly.const(-1), Poly.one()], 2 * N + 1)
        found = poly_solutions(rec)
        assert found.particular is not None
        assert rec.apply(found.particular) == 2 * N + 1
        assert found.homogeneous_basis == (Poly.one(),)

    def test_homogeneous_zero_only(self):
        # f(n+1) = (n+1) f(n) forces degree growth, so only f = 0 works
        rec = recurrence([-(N + 1), Poly.one()], Poly.zero())
        found = poly_solutions(rec)
        assert found.particular == Poly.zero()
        assert found.homogeneous_basis == ()

    def test_inconsistent_but_homogeneous_solutions_exist(self):
        rec = recurrence([Poly.const(-1), Poly.one()], Poly.one())
        found = poly_solutions(rec)
        assert found.particular is not None  # n itself works: (n+1) - n = 1
        # n | left side for every f, so the target 1 is unreachable
        rec2 = recurrence([N, -N], Poly.one())
        found2 = poly_solutions(rec2)
        assert found2.particular is None
        assert found2.homogeneous_basis == (Poly.one(),)

    def test_planted_solutions_recovered(self):
        rng = random.Random(61)
        for _ in range(500):
            d = rng.randint(1, 2)
            coeffs = [rand_poly(rng, 2, -4, 4) for _ in range(d + 1)]
            planted = rand_poly(rng, 3, -5, 5)
            rec = recurrence(coeffs, recurrence(coeffs, Poly.zero()).apply(planted))
            found = poly_solutions(rec)
            assert found.particular is not None
            assert planted.degree <= found.degree_bound
            assert rec.apply(found.particular) == rec.rhs
            for h in found.homogeneous_basis:
                assert rec.apply(h).is_zero
            assert in_affine_family(found, planted)

    def test_zero_rhs_with_zero_bound_is_zero_solution(self):
        rec = recurrence([Poly.const(-1), N + 1], Poly.zero())
        found = poly_solutions(rec)
        assert found.particular == Poly.zero()
        assert found.degree_bound == -1


# -- top-down substitution against the dense elimination it replaced ---------


def from_rebased(rebased: list[Poly]) -> list[Poly]:
    """Shift coefficients with the given forward-difference coefficients:
    Delta^j = (E - 1)^j, so coefficient m is sum_j (-1)^(j-m) C(j, m) q*_j."""
    d = len(rebased) - 1
    return [
        sum((rebased[j] * ((-1) ** (j - m) * comb(j, m)) for j in range(m, d + 1)), Poly.zero())
        for m in range(d + 1)
    ]


def falling_coefficients(p: Poly) -> list[Fraction]:
    """a_j with p(x) = sum_j a_j x(x-1)...(x-j+1), by peeling the top term."""
    out = [Fraction(0)] * (len(p.coeffs) or 1)
    rest = p
    while not rest.is_zero:
        j = rest.degree
        out[j] = rest.lc
        rest = rest - falling_product(N, j) * rest.lc
    return out


small_coeffs = st.integers(-4, 4)


@st.composite
def planted_indicator(draw):
    """An order-1..3 equation whose indicator phi has planted nonnegative
    integer roots: free columns at the top, below it, or several at once.

    phi = c * prod (x - r) is written in the falling-factorial basis, its
    coefficients a_j lead the rebased coefficients q*_j = a_j n^(b*+j) +
    lower terms, and the shift coefficients follow from the q*_j.  b* runs
    from -1 (q*_0 = 0, so phi(0) = 0) to 2; c may be a fraction.
    """
    order = draw(st.integers(1, 3))
    offset = draw(st.integers(-1, 2))
    roots = set(draw(st.lists(st.integers(0, 7), max_size=order, unique=True)))
    if offset < 0:
        roots.add(0)
    roots = sorted(roots)[:order]  # keeps 0 when it was added
    phi = Poly.const(draw(st.sampled_from([1, -2, 3, Fraction(1, 2), Fraction(-5, 3)])))
    for r in roots:
        phi = phi * (N - r)
    extra = order - len(roots)
    if extra and draw(st.booleans()):
        # a root that is not a nonnegative integer leaves no free column
        phi = phi * (2 * N + draw(st.sampled_from([1, 3, 7])))
    leading = falling_coefficients(phi)
    rebased = []
    for j in range(order + 1):
        top = offset + j
        lower = Poly(draw(st.lists(small_coeffs, max_size=max(top, 0)))) if top > 0 else Poly.zero()
        lead = leading[j] if j < len(leading) else 0
        rebased.append(lower + Poly.monomial(top, lead) if lead else lower)
    if rebased[-1].is_zero:
        rebased[-1] = Poly.one()  # degree 0 < b* + order: phi is unchanged
    coeffs = tuple(from_rebased(rebased))
    operator = LinearRecurrence(coeffs, Poly.zero())
    assert delta_coeffs(operator) == tuple(rebased)
    kind = draw(st.sampled_from(["zero", "planted", "perturbed", "random"]))
    if kind == "zero":
        rhs = Poly.zero()
    elif kind == "random":
        rhs = Poly(draw(st.lists(small_coeffs, max_size=8)))
    else:
        top = max([*roots, 0]) + draw(st.integers(0, 2))
        planted = Poly(draw(st.lists(small_coeffs, min_size=top + 1, max_size=top + 1)))
        rhs = operator.apply(planted)
        if kind == "perturbed":
            rhs = rhs + Poly.monomial(draw(st.integers(0, 3)), draw(small_coeffs.filter(bool)))
    return LinearRecurrence(coeffs, rhs)


def cleared_solutions_match(rec: LinearRecurrence, monkeypatch) -> SolutionSet:
    """Solve rec over its universal denominator, as the pipelines do, with
    both solvers; return the (equal) solution set of the cleared equation."""
    g = gcd_limit(rec.coeffs[0], rec.coeffs[-1], rec.order).limit
    got = pipelines._cleared_solutions(rec, g)
    with monkeypatch.context() as patch:
        patch.setattr(pipelines, "poly_solutions", poly_solutions_dense)
        assert pipelines._cleared_solutions(rec, g) == got
    return got


class TestAgainstDenseOracle:
    """The `SolutionSet` is the dense elimination's, entry for entry."""

    @settings(max_examples=300, deadline=None)
    @given(planted_indicator())
    def test_planted_roots_of_the_indicator(self, rec):
        assert poly_solutions(rec) == poly_solutions_dense(rec)

    def test_several_free_columns_below_the_top(self):
        # phi(x) = x (x - 2) (x - 5): free columns 0, 2 and 5, under a
        # right side of degree 7 + b*
        rebased = [Poly.zero(), N * 4, N**2 * -4, N**3]
        assert falling_coefficients(N * (N - 2) * (N - 5)) == [0, 4, -4, 1]
        coeffs = tuple(from_rebased(rebased))
        for rhs in (Poly.zero(), N**7 * 3 + 1, N**8 + N):
            rec = LinearRecurrence(coeffs, rhs)
            found = poly_solutions(rec)
            assert found == poly_solutions_dense(rec)
        homogeneous = poly_solutions(LinearRecurrence(coeffs, Poly.zero()))
        assert len(homogeneous.homogeneous_basis) == 3

    def test_offset_below_zero(self):
        # Delta f = rhs and Delta^2 f = rhs: q*_0 = 0, so b* < 0
        for coeffs in ((Poly.const(-1), Poly.one()), (Poly.one(), Poly.const(-2), Poly.one())):
            for rhs in (Poly.zero(), Poly.one(), N**3 - 2 * N):
                rec = LinearRecurrence(coeffs, rhs)
                assert poly_solutions(rec) == poly_solutions_dense(rec)

    def test_inconsistent_right_side_keeps_the_homogeneous_basis(self):
        rec = LinearRecurrence((N, -N), Poly.one())
        found = poly_solutions(rec)
        assert found == poly_solutions_dense(rec)
        assert found.particular is None and found.homogeneous_basis == (Poly.one(),)

    @pytest.mark.parametrize("k", [1, 3, 5, 20, 60])
    def test_gosper_key_equations(self, k, monkeypatch):
        # the key equation of gosper((n+1)/(n+k)): a certificate of degree k - 1
        found = cleared_solutions_match(LinearRecurrence((-(N + k), N + 1), N + k), monkeypatch)
        assert found.particular is not None and found.degree_bound >= k - 1

    def test_acceptance_corpora(self, monkeypatch):
        rng_gosper, rng_rational = random.Random(90007), random.Random(90008)
        for _ in range(100):
            ratio = planted_antidifference_ratio(rng_gosper)
            cleared_solutions_match(LinearRecurrence((-ratio.den, ratio.num), ratio.den), monkeypatch)
            cleared_solutions_match(planted_rational_instance(rng_rational)[0], monkeypatch)
