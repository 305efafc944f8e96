"""Resultants, integer roots, and the dispersion of two polynomials.

The dispersion of a and b is the largest k >= 0 such that a(n) and b(n+k)
share a nonconstant factor, or -1 when no such k exists.  It is computed
from the integer roots of the single-variable resultant R(h) of a(n) and
b(n+h), which we obtain by evaluating scalar resultants at enough integer
values of h and interpolating.  Candidate roots are always re-verified by
an explicit gcd, so an interpolation bug cannot produce a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .intutil import divisors_up_to
from .polys import Poly, divrem, gcd_monic, shift


def resultant(a: Poly, b: Poly) -> Fraction:
    """Resultant of two nonzero polynomials over Q.

    Follows the usual conventions: with a constant c, Res(c, b) = c^deg(b)
    and Res(a, c) = c^deg(a); the empty case Res(c, c') is 1.
    """
    if a.is_zero or b.is_zero:
        raise ValueError("resultant of a zero polynomial is undefined")
    acc = Fraction(1)
    f, g = a, b
    while True:
        if f.degree == 0:
            return acc * f.lc ** g.degree
        if g.degree == 0:
            return acc * g.lc ** f.degree
        _, r = divrem(f, g)
        if r.is_zero:
            return Fraction(0)
        sign = -1 if (f.degree * g.degree) % 2 else 1
        acc *= sign * g.lc ** (f.degree - r.degree)
        f, g = g, r


def integer_roots(p: Poly) -> set[int]:
    """All integer roots of a nonzero polynomial.

    Works on the primitive integer coefficients: the power of n is
    stripped (contributing the root 0), and the divisors of the trailing
    coefficient are tested with both signs.  Divisors are pruned
    by the Cauchy root bound before testing.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has every integer as a root")
    ints = p.primitive
    low = 0
    while ints[low] == 0:
        low += 1
    roots: set[int] = {0} if low > 0 else set()
    ints = ints[low:]
    if len(ints) == 1:
        return roots

    def value_at(x: int) -> int:
        acc = 0
        for c in reversed(ints):
            acc = acc * x + c
        return acc

    # any integer root r satisfies |r| <= bound, r | ints[0],
    # (r - 1) | p(1) and (r + 1) | p(-1)
    bound = 1 + max(abs(c) for c in ints[:-1]) // abs(ints[-1])
    at_one = value_at(1)
    at_minus_one = value_at(-1)
    for d in divisors_up_to(abs(ints[0]), bound):
        for r in (d, -d):
            if r != 1 and at_one % (r - 1) != 0:
                continue
            if r != -1 and at_minus_one % (r + 1) != 0:
                continue
            if value_at(r) == 0:
                roots.add(r)
    return roots


@dataclass(frozen=True)
class DispersionResult:
    """Dispersion value plus, for each shift k with a nontrivial common
    factor, the witnessing monic gcd of a(n) and b(n+k)."""

    value: int
    witnesses: tuple[tuple[int, Poly], ...]


def _interpolate(points: list[tuple[int, Fraction]]) -> Poly:
    """Newton-form interpolation through distinct integer abscissae."""
    xs = [Fraction(x) for x, _ in points]
    divided = [y for _, y in points]
    for level in range(1, len(points)):
        for i in range(len(points) - 1, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / (xs[i] - xs[i - level])
    result = Poly.zero()
    basis = Poly.one()
    for i, coefficient in enumerate(divided):
        result = result + basis * coefficient
        basis = basis * Poly((-xs[i], 1))
    return result


def dispersion(a: Poly, b: Poly) -> DispersionResult:
    """Largest k >= 0 with deg gcd(a(n), b(n+k)) >= 1, or -1 if none."""
    if a.is_zero or b.is_zero:
        raise ValueError("dispersion of a zero polynomial is undefined")
    if a.degree == 0 or b.degree == 0:
        return DispersionResult(-1, ())
    sample_count = a.degree * b.degree + 1
    points = [(h, resultant(a, shift(b, h))) for h in range(sample_count)]
    shift_resultant = _interpolate(points)
    if shift_resultant.is_zero:  # cannot happen for nonzero inputs; stay safe
        raise ArithmeticError("degenerate resultant interpolation")
    witnesses = []
    for k in sorted(integer_roots(shift_resultant)):
        if k < 0:
            continue
        g = gcd_monic(a, shift(b, k))
        if g.degree >= 1:
            witnesses.append((k, g))
    value = witnesses[-1][0] if witnesses else -1
    return DispersionResult(value, tuple(witnesses))
