"""Resultants, integer roots, and the dispersion of two polynomials.

The dispersion of a and b is the largest k >= 0 such that a(n) and b(n+k)
share a nonconstant factor, or -1 when no such k exists.  Every such k is
a root of the shift resultant R(h) = Res_n(a(n), b(n+h)), and, being the
difference of a root of b and a root of a, it is at most B, the sum of the
two Cauchy root bounds (Man & Wright, ISSAC 1994).

The roots of R are found modulo the smallest prime p above max(2B, deg R)
that divides neither leading coefficient (von zur Gathen & Gerhard,
*Modern Computer Algebra*, ch. 14).  R mod p is interpolated in GF(p) from
deg R + 1 modular resultants, its distinct roots are split off by
gcd(R, h^p - h) and then by equal-degree splitting with the fixed offsets
1, 2, ....  Since p keeps deg R, every root of R in [0, B] is a root of
R mod p, and since p > 2B a residue in [0, B] is that root itself while a
negative root lands above B.  Each residue in [0, B] is then verified by
the gcd that becomes its witness.

`integer_roots` uses the same root finder with symmetric residues modulo
a prime above twice the Cauchy bound, and checks every candidate by exact
evaluation over Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .intutil import is_probable_prime
from .polys import Poly, _gf_gcd, _gf_rem, divrem, gcd_monic, shift


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


# -- roots over GF(p) ---------------------------------------------------------
# Polynomials mod p are lists of residues in ascending degree with no
# trailing zero; the empty list is zero.


def _cauchy_bound(ints: tuple[int, ...]) -> int:
    """Ceiling of 1 + max |c_i| / c_d, which bounds the absolute value of
    every complex root of a primitive polynomial of degree d >= 1."""
    return 1 - (-max(map(abs, ints[:-1])) // ints[-1])


def _root_prime(floor: int, *leading: int) -> int:
    """The smallest prime above floor that divides none of `leading`."""
    p = floor + 1
    while not (is_probable_prime(p) and all(c % p for c in leading)):
        p += 1
    return p


def _gf_mul(f: list[int], g: list[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                out[i + j] += x * y
    return [x % p for x in out]


def _gf_powmod(c: int, e: int, m: list[int], p: int) -> list[int]:
    """(h + c)^e mod m over GF(p), for e >= 1 and m of degree >= 1."""
    acc = _gf_rem([c % p, 1], m, p)
    for bit in bin(e)[3:]:
        if not acc:
            break
        acc = _gf_rem(_gf_mul(acc, acc, p), m, p)
        if bit == "1" and acc:
            # times h + c
            acc = _gf_rem([(x + c * y) % p for x, y in zip([0] + acc, acc + [0])], m, p)
    return acc


def _gf_common(g: list[int], f: list[int], p: int) -> list[int]:
    """gcd(g, f) over GF(p) for monic g and any integer list f; g when f = 0 mod p."""
    return _gf_gcd(g, f, p) or g


def _gf_roots(f: list[int], p: int) -> list[int]:
    """The distinct roots in GF(p), for odd p, of a nonzero polynomial mod p."""
    if len(f) < 2:
        return []
    inv = pow(f[-1], -1, p)
    monic = [x * inv % p for x in f]
    # gcd(f, h^p - h) is the product of the distinct linear factors of f
    frobenius = _gf_powmod(0, p, monic, p) + [0, 0]
    frobenius[1] -= 1
    linear = _gf_common(monic, frobenius, p)
    half = (p - 1) // 2
    roots: list[int] = []
    stack = [(linear, 1)]
    while stack:
        g, delta = stack.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
        if len(g) <= 2:
            continue
        while True:
            # at a root r of g, w = (r + delta)^((p-1)/2) is 1, -1, or 0 when r = -delta
            w = _gf_powmod(delta, half, g, p) + [0]
            w[0] -= 1
            squares = _gf_common(g, w, p)
            w[0] += 2
            others = _gf_common(g, w, p)
            if len(squares) < len(g) and len(others) < len(g):
                break
            delta += 1
        # the offsets tried so far cannot split either part further
        stack.append((squares, delta + 1))
        stack.append((others, delta + 1))
        if len(squares) + len(others) <= len(g):
            roots.append(-delta % p)
    return roots


def _gf_resultant(f: list[int], g: list[int], p: int) -> int:
    """Res(f, g) over GF(p) for nonzero polynomials mod p, by the Euclidean
    remainder sequence."""
    acc = 1
    f, g = f[:], g[:]
    while len(g) > 1:
        df = len(f) - 1
        r = _gf_rem(f, g, p)
        if not r:
            return 0
        if df & (len(g) - 1) & 1:
            acc = -acc
        acc = acc * pow(g[-1], df - len(r) + 1, p) % p
        f, g = g, r
    return acc * pow(g[0], len(f) - 1, p) % p


def _gf_shift_resultant(a: tuple[int, ...], b: tuple[int, ...], p: int) -> list[int]:
    """R(h) = Res_n(a(n), b(n+h)) mod p, for integer coefficient tuples whose
    leading entries p does not divide and p > deg a * deg b.

    Samples R at h = 0, 1, ..., deg a * deg b, shifting b by one between
    samples, and interpolates in Newton form.
    """
    fa = [x % p for x in a]
    fb = [x % p for x in b]
    top = (len(a) - 1) * (len(b) - 1)
    values = []
    for h in range(top + 1):
        values.append(_gf_resultant(fa, fb, p))
        if h < top:
            # Taylor shift by one
            for i in range(len(fb) - 1):
                for j in range(len(fb) - 2, i - 1, -1):
                    fb[j] += fb[j + 1]
            fb = [x % p for x in fb]
    # divided differences at the abscissae 0..top: the gap at level l is l
    for level in range(1, top + 1):
        inv = pow(level, -1, p)
        for i in range(top, level - 1, -1):
            values[i] = (values[i] - values[i - 1]) * inv % p
    # R = values[0] + (h - 0)(values[1] + (h - 1)(values[2] + ...))
    out = [values[top]]
    for i in range(top - 1, -1, -1):
        out = [(prev - i * cur) % p for prev, cur in zip([0] + out, out + [0])]
        out[0] = (out[0] + values[i]) % p
    return out


def _value_at(ints: tuple[int, ...], x: int) -> int:
    acc = 0
    for c in reversed(ints):
        acc = acc * x + c
    return acc


def integer_roots(p: Poly) -> set[int]:
    """All integer roots of a nonzero polynomial.

    The roots modulo the smallest prime above twice the Cauchy bound that
    keeps the degree, read as symmetric residues, are the only candidates;
    each is checked by exact evaluation of the primitive integer
    coefficients.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has every integer as a root")
    ints = p.primitive
    if len(ints) == 1:
        return set()
    prime = _root_prime(2 * _cauchy_bound(ints), ints[-1])
    roots = set()
    for r in _gf_roots([x % prime for x in ints], prime):
        if r > prime // 2:
            r -= prime
        if _value_at(ints, r) == 0:
            roots.add(r)
    return roots


@dataclass(frozen=True)
class DispersionResult:
    """Dispersion value plus, for each shift k with a nontrivial common
    factor, the witnessing monic gcd of a(n) and b(n+k)."""

    value: int
    witnesses: tuple[tuple[int, Poly], ...]


def dispersion(a: Poly, b: Poly) -> DispersionResult:
    """Largest k >= 0 with deg gcd(a(n), b(n+k)) >= 1, or -1 if none."""
    if a.is_zero or b.is_zero:
        raise ValueError("dispersion of a zero polynomial is undefined")
    if a.degree == 0 or b.degree == 0:
        return DispersionResult(-1, ())
    pa, pb = a.primitive, b.primitive
    bound = _cauchy_bound(pa) + _cauchy_bound(pb)
    prime = _root_prime(max(2 * bound, (len(pa) - 1) * (len(pb) - 1)), pa[-1], pb[-1])
    witnesses = []
    for k in sorted(_gf_roots(_gf_shift_resultant(pa, pb, prime), prime)):
        if k > bound:
            break
        g = gcd_monic(a, shift(b, k))
        if g.degree >= 1:
            witnesses.append((k, g))
    value = witnesses[-1][0] if witnesses else -1
    return DispersionResult(value, tuple(witnesses))
