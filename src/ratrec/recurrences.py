"""Polynomial solutions of linear difference equations with polynomial
coefficients, by undetermined coefficients up to an explicit degree bound.

The bound comes from rewriting the shift operator in the forward-difference
basis: if q*_j are the rebased coefficients, any polynomial solution f of
degree k makes the equation's left side have degree b* + k with a leading
coefficient phi(k), where b* = max_j (deg q*_j - j) and phi collects the
falling-factorial leading terms of the maximizing j's.  A solution degree
therefore either matches deg(rhs) - b* or is a nonnegative integer root
of phi.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, lcm

from .dispersion import integer_roots
from .linalg import solve_exact
from .polys import Poly, RatFunc, exact_div, falling_product, gcd_monic, shift


@dataclass(frozen=True)
class LinearRecurrence:
    """The equation sum_m coeffs[m](n) * f(n+m) = rhs(n).

    The leading coefficient must be nonzero (it defines the order, which
    must be at least 1).  Algorithms that also need a nonzero trailing
    coefficient check for it themselves.
    """

    coeffs: tuple[Poly, ...]
    rhs: Poly

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ValueError("a recurrence needs order at least 1")
        if self.coeffs[-1].is_zero:
            raise ValueError("the leading coefficient must be nonzero")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def apply(self, f: Poly) -> Poly:
        """Left side evaluated at a polynomial f."""
        out = Poly.zero()
        for m, q in enumerate(self.coeffs):
            if not q.is_zero:
                out = out + q * shift(f, m)
        return out

    def apply_rational(self, y: RatFunc) -> RatFunc:
        """Left side evaluated at a rational function y."""
        out = RatFunc.zero()
        for m, q in enumerate(self.coeffs):
            if not q.is_zero:
                out = out + RatFunc.from_poly(q) * y.shifted(m)
        return out


@dataclass(frozen=True)
class SolutionSet:
    """Affine family of polynomial solutions.

    particular is None exactly when no polynomial solution exists; the
    homogeneous basis is echelon-normalized over coefficient vectors and
    spans all polynomial solutions of the homogeneous equation.
    """

    particular: Poly | None
    homogeneous_basis: tuple[Poly, ...]
    degree_bound: int


def delta_coeffs(rec: LinearRecurrence) -> tuple[Poly, ...]:
    """Coefficients after rebasing shifts to forward differences.

    Entry j is sum_{m >= j} C(m, j) * coeffs[m]; the rebased operator
    applied to f is sum_j entry_j * (j-th forward difference of f).
    """
    d = rec.order
    out = []
    for j in range(d + 1):
        acc = Poly.zero()
        for m in range(j, d + 1):
            acc = acc + rec.coeffs[m] * comb(m, j)
        out.append(acc)
    return tuple(out)


def degree_bound(rec: LinearRecurrence) -> int:
    """Upper bound for the degree of any polynomial solution; -1 if the
    only candidate is the zero polynomial."""
    rebased = delta_coeffs(rec)
    offsets = [q.degree - j for j, q in enumerate(rebased) if not q.is_zero]
    top = max(offsets)
    # falling-factorial leading polynomial of the degree-maximizing terms
    indicator = Poly.zero()
    for j, q in enumerate(rebased):
        if not q.is_zero and q.degree - j == top:
            indicator = indicator + falling_product(Poly.variable(), j) * q.lc
    candidates = [k for k in integer_roots(indicator) if k >= 0]
    if not rec.rhs.is_zero:
        from_rhs = rec.rhs.degree - top
        if from_rhs >= 0:
            candidates.append(from_rhs)
    return max(candidates, default=-1)


def _strip_common_factor(rec: LinearRecurrence) -> LinearRecurrence:
    """Divide the whole equation by the monic gcd of all its polynomials."""
    g: Poly | None = None
    for p in (*rec.coeffs, rec.rhs):
        if p.is_zero:
            continue
        g = p.monic() if g is None else gcd_monic(g, p)
        if g.degree == 0:
            return rec
    if g is None or g.degree == 0:
        return rec
    coeffs = tuple(q if q.is_zero else exact_div(q, g) for q in rec.coeffs)
    rhs = rec.rhs if rec.rhs.is_zero else exact_div(rec.rhs, g)
    return LinearRecurrence(coeffs, rhs)


def poly_solutions(rec: LinearRecurrence) -> SolutionSet:
    """All polynomial solutions, as particular + span(homogeneous basis).

    Sets up the linear system for the coefficients of a candidate of
    degree <= degree_bound: column j holds the coefficients of the image
    of n^j, and the target those of the right side.  One common multiple
    of their content denominators clears every row, so the system is
    built from their primitive integer parts and solved by
    fraction-free elimination over the integers.  No solution is an
    ordinary outcome, not an error.
    """
    rec = _strip_common_factor(rec)
    bound = degree_bound(rec)
    if bound < 0:
        if rec.rhs.is_zero:
            return SolutionSet(Poly.zero(), (), bound)
        return SolutionSet(None, (), bound)
    images = [rec.apply(Poly.monomial(i)) for i in range(bound + 1)]
    height = max(1, *[len(p.primitive) for p in (*images, rec.rhs)])
    scale = lcm(*[p.content.denominator for p in (*images, rec.rhs)])

    def column(p: Poly) -> list[int]:
        factor = p.content.numerator * (scale // p.content.denominator)
        return [factor * x for x in p.primitive] + [0] * (height - len(p.primitive))

    matrix = [list(row) for row in zip(*[column(im) for im in images])]
    particular_vec, nullspace = solve_exact(matrix, column(rec.rhs))
    particular = Poly(particular_vec) if particular_vec is not None else None
    basis = tuple(Poly(vec) for vec in nullspace)
    return SolutionSet(particular, basis, bound)
