"""Resultants, integer roots, and the dispersion of two polynomials.

The dispersion of a and b is the largest k >= 0 such that a(n) and b(n+k)
share a nonconstant factor, or -1 when no such k exists.  Every such k is
a root of the shift resultant R(h) = Res_n(a(n), b(n+h)), a polynomial of
degree deg a * deg b in h, and, being the difference of a root of b and a
root of a, it is at most B, the sum of the Fujiwara root bounds of a and
b.  Fujiwara's bound (Tohoku Math. J. 10, 1916) for c_d n^d + ... + c_0 is
computed exactly, as the smallest integer r with |c_{d-i}| 2^i <= |c_d| r^i
for 0 < i < d and |c_0| 2^(d-1) <= |c_d| r^d.

The candidates are the h in [0, B] at which R vanishes modulo p, the
smallest prime above max(2B, deg R) that divides neither leading
coefficient, so that R mod p keeps its degree.  They are read off in one of
three ways (von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 5 and
14):

- Samples.  R(h) mod p is the modular resultant of a and of b shifted by
  h, one Taylor step from the last, for h = 0 .. min(B, deg R).  When
  B <= deg R these samples are all there is to read.
- Sweep.  Otherwise the backward differences of R at deg R, taken from the
  samples, step on to B.  Each step replaces them by their prefix sums,
  deg R additions, and the last sum is the next value R(h) mod p.
- Roots.  When B is so far above deg R that the sweep would cost more, R
  mod p is interpolated from its samples, its distinct roots are split off
  by gcd(R, h^p - h) and then by equal-degree splitting with the fixed
  offsets 1, 2, ..., and each residue in [0, B] is a candidate: since
  p > 2B a residue in [0, B] is the root itself, while a negative root
  lands above B.  Finding the roots takes about deg R^2 operations per bit
  of p, so the sweep is taken while B - deg R is at most a constant times
  deg R times the bits of p (`_sweeps`).

Each candidate is verified by the gcd that becomes its witness.

`integer_roots` bounds the roots the same way and finds them with the same
root finder, as symmetric residues modulo a prime above twice the bound,
and checks every candidate by evaluating the polynomial at it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .intutil import is_probable_prime
from .polys import Poly, _gf_gcd, _gf_monic_low, _gf_rem, _gf_rem_monic, _mul_ints, _shift_ints, divrem, gcd_monic, shift


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


def _root_bound(ints: tuple[int, ...]) -> int:
    """Fujiwara's bound on the absolute value of every complex root of the
    integer polynomial `ints` (ascending, degree d >= 1): the smallest
    integer r >= 0 with |c_{d-i}| 2^i <= |c_d| r^i for 0 < i < d and
    |c_0| 2^(d-1) <= |c_d| r^d."""
    d = len(ints) - 1
    lead = abs(ints[-1])
    # (i, |c_{d-i}| 2^i), with 2^(d-1) for the constant term
    terms = [(i, abs(c) << (i - (i == d))) for i, c in enumerate(reversed(ints[:-1]), 1) if c]
    if not terms:
        return 0

    def holds(r: int) -> bool:
        return all(c <= lead * r**i for i, c in terms)

    # holds(0) is false: double until it holds, then bisect
    lo, hi = 0, 1
    while not holds(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _root_prime(floor: int, *leading: int) -> int:
    """The smallest prime above floor that divides none of `leading`."""
    p = floor + 1
    while not (is_probable_prime(p) and all(c % p for c in leading)):
        p += 1
    return p


def _gf_powmod(c: int, e: int, m: list[int], p: int) -> list[int]:
    """(h + c)^e mod m over GF(p), for e >= 1 and m of degree >= 1."""
    low = _gf_monic_low(m, p)
    acc = _gf_rem_monic([c % p, 1], low, p)
    for bit in bin(e)[3:]:
        if not acc:
            break
        acc = _gf_rem_monic([x % p for x in _mul_ints(acc, acc)], low, p)
        if bit == "1" and acc:
            # times h + c
            acc = _gf_rem_monic([(x + c * y) % p for x, y in zip([0] + acc, acc + [0])], low, p)
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


def _gf_samples(a: tuple[int, ...], b: tuple[int, ...], p: int, count: int) -> list[int]:
    """R(h) = Res_n(a(n), b(n+h)) mod p at h = 0, 1, ..., count - 1, for
    integer coefficient tuples whose leading entries p does not divide;
    b is shifted by one between samples."""
    fa = [x % p for x in a]
    fb = [x % p for x in b]
    values = []
    for h in range(count):
        if h:
            fb = [x % p for x in _shift_ints(fb, 1)]
        values.append(_gf_resultant(fa, fb, p))
    return values


def _gf_shift_resultant(a: tuple[int, ...], b: tuple[int, ...], p: int) -> list[int]:
    """R(h) = Res_n(a(n), b(n+h)) mod p, for integer coefficient tuples whose
    leading entries p does not divide and p > deg a * deg b.

    Samples R at h = 0, 1, ..., deg a * deg b and interpolates in Newton
    form.
    """
    top = (len(a) - 1) * (len(b) - 1)
    values = _gf_samples(a, b, p, top + 1)
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


# The sweep's prefix sums grow with every step; they are reduced mod p once
# the largest passes this (2^30 to 2^250 timed alike).
_SWEEP_REDUCE_ABOVE = 1 << 60


def _gf_sweep_zeros(values: list[int], stop: int, p: int) -> list[int]:
    """The h in [len(values), stop] at which the polynomial of degree below
    len(values) through the residues values[h] at h = 0, 1, ... vanishes
    mod p."""
    # backward differences at the last sample, highest order first, so
    # that diffs[-1] is the value there
    diffs = []
    row = values
    while row:
        diffs.append(row[-1])
        row = [(y - x) % p for x, y in zip(row, row[1:])]
    diffs.reverse()
    zeros = []
    for h in range(len(values), stop + 1):
        # the differences at h + 1 are the prefix sums of those at h
        diffs = list(accumulate(diffs))
        last = diffs[-1]
        if last % p == 0:
            zeros.append(h)
        # the entries are nonnegative, so the prefix sums rise to the last
        if last > _SWEEP_REDUCE_ABOVE:
            diffs = [x % p for x in diffs]
    return zeros


# The sweep is taken while B - deg R <= this times deg R times the bits of
# p.  Timed path by path on the dispersion calls of the three benchmark
# workloads, the sweep won 586 of 587 calls up to 4, 3 of 4 up to 6, 5 of
# 16 from 6 to 12 and none above 12.
_SWEEP_STEPS_PER_ROOT_WORK = 6


def _sweeps(bound: int, top: int, p: int) -> bool:
    """Whether sweeping R mod p from top to bound costs less than
    interpolating R, of degree top, and finding its roots."""
    return bound - top <= _SWEEP_STEPS_PER_ROOT_WORK * top * p.bit_length()


def _shift_candidates(a: tuple[int, ...], b: tuple[int, ...], bound: int, p: int) -> list[int]:
    """The h in [0, bound] with Res_n(a(n), b(n+h)) = 0 mod p, ascending, for
    p > max(2 bound, deg a * deg b) dividing neither leading entry."""
    top = (len(a) - 1) * (len(b) - 1)
    if bound > top and not _sweeps(bound, top, p):
        return [k for k in sorted(_gf_roots(_gf_shift_resultant(a, b, p), p)) if k <= bound]
    values = _gf_samples(a, b, p, min(bound, top) + 1)
    zeros = [h for h, v in enumerate(values) if v == 0]
    if bound > top:
        zeros += _gf_sweep_zeros(values, bound, p)
    return zeros


def integer_roots(p: Poly) -> set[int]:
    """All integer roots of a nonzero polynomial.

    The roots modulo the smallest odd prime above twice the root bound that
    keeps the degree, read as symmetric residues, are the only candidates;
    each is checked by evaluating p at it exactly.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has every integer as a root")
    ints = p.primitive
    if len(ints) == 1:
        return set()
    prime = _root_prime(max(2 * _root_bound(ints), 2), ints[-1])
    roots = set()
    for r in _gf_roots([x % prime for x in ints], prime):
        if r > prime // 2:
            r -= prime
        if p(r) == 0:
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
    bound = _root_bound(pa) + _root_bound(pb)
    prime = _root_prime(max(2 * bound, (len(pa) - 1) * (len(pb) - 1)), pa[-1], pb[-1])
    witnesses = []
    for k in _shift_candidates(pa, pb, bound, prime):
        g = gcd_monic(a, shift(b, k))
        if g.degree >= 1:
            witnesses.append((k, g))
    value = witnesses[-1][0] if witnesses else -1
    return DispersionResult(value, tuple(witnesses))
