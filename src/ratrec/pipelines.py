"""End-to-end algorithms: Gosper's indefinite summation and rational
solutions of order-d linear difference equations, plus exact verifiers.

Both solve sum_m coeffs[m](n) y(n+m) = rhs(n) for rational y = f/G, given
a denominator G that every solution's denominator divides: multiplied by
L = lcm(G(n), ..., G(n+d)), it becomes an equation for the polynomial f,
with coefficients coeffs[m] L / G(n+m) and right side L rhs.

Gosper: for the term ratio r = t_{n+1}/t_n = a/b in lowest terms, the
certificate y solves a(n) y(n+1) - b(n) y(n) = b(n), and the stabilized
gcd sequence of (b, a) at order 1 supplies G; z_n = y(n) t_n is an
antidifference of t_n, and no f means no hypergeometric antidifference
exists at all.

Rational solving: the stabilized gcd sequence of the trailing and leading
coefficients supplies G, as for Gosper, and the f give all rational
solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .gcdseq import GcdLimit, gcd_limit
from .polys import Poly, RatFunc, exact_div, gcd_monic, shift
from .recurrences import LinearRecurrence, SolutionSet, poly_solutions


@dataclass(frozen=True)
class GosperSolution:
    """Certificate of summability: ratio * certificate(n+1) - certificate = 1.

    raw_numerator / raw_denominator are the solver's f and the gcd-limit g
    before reduction; they need not be coprime, and certificate is their
    reduced quotient.
    """

    ratio: RatFunc
    certificate: RatFunc
    raw_numerator: Poly
    raw_denominator: Poly
    max_shift: int
    gcd_trace: GcdLimit


@dataclass(frozen=True)
class RationalSolutions:
    """All rational solutions of a recurrence, as numerators over a single
    universal denominator."""

    denominator: Poly
    max_shift: int
    numerators: SolutionSet

    @cached_property
    def particular(self) -> RatFunc | None:
        if self.numerators.particular is None:
            return None
        return RatFunc.reduced(self.numerators.particular, self.denominator)

    @cached_property
    def homogeneous(self) -> tuple[RatFunc, ...]:
        return tuple(
            RatFunc.reduced(h, self.denominator) for h in self.numerators.homogeneous_basis
        )


def _cleared_solutions(rec: LinearRecurrence, denominator: Poly) -> SolutionSet:
    """The polynomials f such that y = f / denominator solves rec.

    Coefficient m is multiplied by L / G(n+m) and the right side by L, for
    G the denominator and L = lcm(G(n), ..., G(n+d)).
    """
    shifts = [shift(denominator, j) for j in range(rec.order + 1)]
    common = shifts[0]
    for s in shifts[1:]:
        common = common * exact_div(s, gcd_monic(common, s))
    cleared = LinearRecurrence(
        tuple(q * exact_div(common, s) for q, s in zip(rec.coeffs, shifts)),
        rec.rhs * common,
    )
    return poly_solutions(cleared)


def gosper(ratio: RatFunc) -> GosperSolution | None:
    """Solve z_{n+1} - z_n = t_n for hypergeometric z given r = t_{n+1}/t_n.

    Returns None when no hypergeometric antidifference exists.  When the
    key equation has free constants, they are set to zero, which picks one
    valid certificate among many.
    """
    if ratio.is_zero:
        raise ValueError("the term ratio of a hypergeometric term is nonzero")
    a, b = ratio.num, ratio.den
    trace = gcd_limit(b, a, 1)
    g = trace.limit
    found = _cleared_solutions(LinearRecurrence((-b, a), b), g)
    if found.particular is None:
        return None
    f = found.particular
    return GosperSolution(
        ratio=ratio,
        certificate=RatFunc.reduced(f, g),
        raw_numerator=f,
        raw_denominator=g,
        max_shift=trace.max_shift,
        gcd_trace=trace,
    )


def rational_solve(rec: LinearRecurrence) -> RationalSolutions:
    """All rational solutions of sum_m coeffs[m](n) y(n+m) = rhs(n).

    Takes the universal denominator G as the limit of the gcd sequence of
    the trailing and leading coefficients, clears the equation by the lcm
    of the shifts of G, and solves the resulting polynomial equation.  An
    absent particular solution means the equation has no rational solution
    at all.
    """
    if rec.coeffs[0].is_zero:
        raise ValueError("rational solving needs a nonzero trailing coefficient")
    trace = gcd_limit(rec.coeffs[0], rec.coeffs[-1], rec.order)
    return RationalSolutions(trace.limit, trace.max_shift, _cleared_solutions(rec, trace.limit))


def verify_gosper(ratio: GosperSolution | RatFunc, certificate: RatFunc | None = None) -> bool:
    """Exact check of ratio * certificate(n+1) - certificate(n) = 1, for a
    GosperSolution alone or for a term ratio and a candidate certificate."""
    if certificate is None:
        ratio, certificate = ratio.ratio, ratio.certificate
    return ratio * certificate.shifted(1) - certificate == RatFunc.one()


def verify_rational(rec: LinearRecurrence, y: RatFunc) -> bool:
    """Exact check that y solves the recurrence, after clearing denominators."""
    return rec.apply_rational(y) == RatFunc.from_poly(rec.rhs)
