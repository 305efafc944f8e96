"""Polynomial solutions of linear difference equations with polynomial
coefficients, by undetermined coefficients up to an explicit degree bound.

The bound comes from rewriting the shift operator in the forward-difference
basis: if q*_j are the rebased coefficients, any polynomial solution f of
degree k makes the equation's left side have degree b* + k with a leading
coefficient phi(k), where b* = max_j (deg q*_j - j) and phi collects the
falling-factorial leading terms of the maximizing j's.  A solution degree
therefore either matches deg(rhs) - b* or is a nonnegative integer root
of phi.

The same fact makes the undetermined-coefficient system triangular from
the top (Abramov, Bronstein & Petkovsek, ISSAC 1995): the image of n^i has
degree at most i + b*, and its coefficient there is phi(i).  So the
coefficients c_bound, ..., c_0 of a solution follow one after the other
by substitution, each from row i + b*, except at the nonnegative integer
roots of phi, where c_i is a free parameter.  The rows no c_i was taken
from, those below b* and those at the roots of phi, then form a system in
the few free parameters alone, and only that system is eliminated.
Multiplying the equation by a polynomial changes neither the degree bound
nor the solution set, so the equation is solved as given.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import comb, gcd, lcm
from operator import mul

from .dispersion import integer_roots
from .linalg import solve_exact
from .polys import Poly, RatFunc, falling_product, shift


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


def _integer_columns(rec: LinearRecurrence, bound: int) -> tuple[list[list[int]], list[int]]:
    """The images of 1, n, ..., n^bound and the right side as ascending
    integer coefficient lists without trailing zeros, all multiplied by one
    common multiple of the content denominators.

    Term m of the image of n^i is coeffs[m] * (n+m)^i; each term is kept
    and multiplied by n + m for the next column, so no column takes a shift.
    """
    polys = (*rec.coeffs, rec.rhs)
    scale = lcm(*[p.content.denominator for p in polys])

    def ints(p: Poly) -> list[int]:
        factor = p.content.numerator * (scale // p.content.denominator)
        return [factor * x for x in p.primitive]

    terms = [(m, ints(q)) for m, q in enumerate(rec.coeffs) if not q.is_zero]
    columns = []
    for _ in range(bound + 1):
        column = [sum(entries) for entries in zip_longest(*[t for _, t in terms], fillvalue=0)]
        while column and not column[-1]:
            column.pop()
        columns.append(column)
        terms = [(m, [a + m * b for a, b in zip([0, *t], [*t, 0])]) for m, t in terms]
    return columns, ints(rec.rhs)


def _combine(vectors: list[list[int]], den: int, weights: list[Fraction]) -> Poly:
    """The polynomial with coefficients sum_t weights[t] * vectors[t][j] / den."""
    common = lcm(*[w.denominator for w in weights])
    scaled = [w.numerator * (common // w.denominator) for w in weights]
    return Poly([sum(map(mul, scaled, entries)) for entries in zip(*vectors)]) / (den * common)


def poly_solutions(rec: LinearRecurrence) -> SolutionSet:
    """All polynomial solutions, as particular + span(homogeneous basis).

    The unknowns are the coefficients c_0, ..., c_bound of a candidate of
    degree <= degree_bound, and column i of the system is the image of n^i.
    Going from i = bound down to 0, the last row of column i gives c_i in
    terms of the c_j above it; at a root of phi, c_i is a new free
    parameter instead.  Each c_i is an integer vector (a constant, then one
    entry per parameter) over one common denominator.  The rows that fixed
    no c_i form a small system in the parameters, and only that system goes
    to `solve_exact`.  No solution is an ordinary outcome, not an error.
    """
    bound = degree_bound(rec)
    if bound < 0:
        if rec.rhs.is_zero:
            return SolutionSet(Poly.zero(), (), bound)
        return SolutionSet(None, (), bound)
    columns, rhs = _integer_columns(rec, bound)
    # b*, read off the columns: column i ends at row i + b* at the latest,
    # and there exactly when phi(i) != 0; that row is then its pivot row,
    # which no column left of it reaches.  (Should every nonzero column sit
    # at a root of phi, top is below b*, and the argument still holds.)
    top = max((len(c) - 1 - i for i, c in enumerate(columns) if c), default=None)
    pivots = [bool(c) and len(c) - 1 - i == top for i, c in enumerate(columns)]
    free = [i for i in range(bound + 1) if not pivots[i]]
    height = max(1, len(rhs), *[len(c) for c in columns])
    rows = list(zip(*[c + [0] * (height - len(c)) for c in columns]))
    rhs += [0] * (height - len(rhs))

    # den * c_j = vectors[0][j] + sum_t vectors[t][j] * (parameter t), where
    # parameter t (from 1) is c at the free column free[t - 1]
    vectors = [[0] * (bound + 1) for _ in range(len(free) + 1)]
    den = 1
    param = len(free)
    for i in range(bound, -1, -1):
        if not pivots[i]:
            vectors[param][i] = den
            param -= 1
            continue
        k = len(columns[i]) - 1
        pivot = rows[k][i]
        above = rows[k][i + 1 :]
        num = [-sum(map(mul, above, v[i + 1 :])) for v in vectors]
        num[0] += den * rhs[k]
        g = gcd(pivot, *num)
        if pivot < 0:
            g = -g
        step = pivot // g
        if step != 1:
            for v in vectors:
                v[i + 1 :] = [step * x for x in v[i + 1 :]]
            den *= step
        for v, x in zip(vectors, num):
            v[i] = x // g

    pivot_rows = {len(c) - 1 for c, is_pivot in zip(columns, pivots) if is_pivot}
    rest = [k for k in range(height) if k not in pivot_rows]
    if not free:
        particular = vectors[0]
        if all(sum(map(mul, rows[k], particular)) == den * rhs[k] for k in rest):
            return SolutionSet(Poly(particular) / den, (), bound)
        return SolutionSet(None, (), bound)
    matrix, target = [], []
    for k in rest:
        sums = [sum(map(mul, rows[k], v)) for v in vectors]
        matrix.append(sums[1:])
        target.append(den * rhs[k] - sums[0])
    # with no row left every parameter is free, as in an all-zero row
    params, nullspace = solve_exact(matrix or [[0] * len(free)], target or [0])
    # the parameters are c's entries at the free columns, in column order, so
    # the reduced echelon form of their system is that of the whole system:
    # identity on the free columns in the basis, zero there in the particular
    particular = None if params is None else _combine(vectors, den, [Fraction(1), *params])
    basis = tuple(_combine(vectors, den, [Fraction(0), *vec]) for vec in nullspace)
    return SolutionSet(particular, basis, bound)
