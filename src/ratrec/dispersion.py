"""Resultants, integer roots, and the dispersion of two polynomials.

The dispersion of a and b is the largest k >= 0 such that a(n) and b(n+k)
share a nonconstant factor, or -1 when no such k exists.  Every such k is
a root of the shift resultant R(h) = Res_n(a(n), b(n+h)), a polynomial of
degree deg a * deg b in h, and the difference beta - alpha of a root of b
and a root of a.

Window.  Each input is centred at c = round(-c_(d-1) / (d c_d)), the
integer nearest the mean of its roots, by one Taylor shift, and Fujiwara's
bound r of the centred polynomial (Tohoku Math. J. 10, 1916) bounds the
distance of every root from c.  It is computed exactly, as the smallest
integer r with |c_(d-i)| 2^i <= |c_d| r^i for 0 < i < d and |c_0| 2^(d-1)
<= |c_d| r^d.  So every shift lies in the window [lo, hi] = [max(0, c_b -
c_a - r_a - r_b), c_b - c_a + r_a + r_b]; when hi < lo the dispersion is
-1 at once.  The window is translation invariant: n + 2^4095 against n has
the window [2^4095, 2^4095], and the expanded (n+3)^300 sits within 1 of
its centre -3 (von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 5
and 6).

The candidates are the j in [0, W], W = hi - lo, at which R(lo + j)
vanishes modulo p, the smallest prime above max(2W, deg a deg b) that
divides neither leading coefficient, however large lo is.  R stands for
the shift resultant of the monic squarefree parts f / gcd(f, f') of a and
b over GF(p), with b's moved by lo: it has the same roots, and repeated
factors do not raise its degree D.  R is read off one of three ways:

- Samples.  R(lo + j) mod p is the resultant of a and of b shifted by
  lo + j, one Taylor step from the last, read off the Euclidean sequence
  modulo p that the gcds of `polys` run too: W + 1 resultants of about D
  steps each.
- Power sums and Horner's rule.  Newton's identities give the power sums
  of the roots of both squarefree parts up to D, one product of their
  exponential generating series gives those of the differences beta -
  alpha, and Newton's identities run backwards give R's coefficients
  (Bostan, Flajolet, Salvy & Schost, J. Symbolic Comput. 41, 2006): about
  D^2 / 2 steps.  R is then evaluated at the W + 1 points of the window.
- Power sums and roots.  In a window far wider than D, the distinct roots
  of R mod p are split off by gcd(R, h^p - h) and then by equal-degree
  splitting with the fixed offsets 1, 2, ..., and each residue in [0, W]
  is a candidate.  That takes about D^2 operations per bit of p.

The samples are taken while (W + 1) 5 <= D (`_samples_pay`), the roots
while W > 4 D bits(p) (`_roots_pay`), and Horner's rule between.  Both
constants are crossovers timed path against path on the same window and
prime.  On the 948 dispersion calls of the seed-1 benchmark requests,
where D / (W + 1) stays below 4 and W / (D bits(p)) below 4, the power
sums won about 783 of the 822 calls with a nonempty window, and a
samples constant of 2 or less lost; on pairs beyond that range the
samples won from D / (W + 1) of about 5 up, and the roots from W / (D
bits(p)) of 3 to 5 up.

Each candidate is verified by the gcd over Z that becomes its witness.
`dispersion` memoizes its results on the primitive parts of its inputs.

`integer_roots` centres its input the same way and finds the roots of the
centred polynomial with the same root finder, as symmetric residues modulo
a prime above twice its bound, then moves them back and checks every
candidate by evaluating the polynomial at it exactly.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .intutil import is_probable_prime
from .polys import (
    InputError,
    Poly,
    _gf_euclid,
    _gf_gcd,
    _gf_monic,
    _gf_monic_low,
    _gf_rem_monic,
    _make,
    _mul_ints,
    _shift_ints,
    divrem,
    gcd_monic,
    shift,
)


def resultant(a: Poly, b: Poly) -> Fraction:
    """Resultant of two nonzero polynomials over Q.

    Follows the usual conventions: with a constant c, Res(c, b) = c^deg(b)
    and Res(a, c) = c^deg(a); the empty case Res(c, c') is 1.
    """
    if a.is_zero or b.is_zero:
        raise InputError("resultant of a zero polynomial is undefined")
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


def _gf_roots(f: list[int], p: int) -> list[int]:
    """The distinct roots in GF(p), for odd p, of a nonzero polynomial mod p."""
    if len(f) < 2:
        return []
    monic = _gf_monic(f, p)
    # gcd(f, h^p - h) is the product of the distinct linear factors of f
    frobenius = _gf_powmod(0, p, monic, p) + [0, 0]
    frobenius[1] -= 1
    linear = _gf_gcd(monic, frobenius, p) or monic
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
            squares = _gf_gcd(g, w, p) or g
            w[0] += 2
            others = _gf_gcd(g, w, p) or g
            if len(squares) < len(g) and len(others) < len(g):
                break
            delta += 1
        # the offsets tried so far cannot split either part further
        stack.append((squares, delta + 1))
        stack.append((others, delta + 1))
        if len(squares) + len(others) <= len(g):
            roots.append(-delta % p)
    return roots


def _gf_squarefree(f: tuple[int, ...], p: int) -> list[int]:
    """The monic f / gcd(f, f') modulo a prime p above deg f >= 1 that does
    not divide lc f: its squarefree part, as f' keeps its leading term."""
    rem = _gf_monic(f, p)
    low = _gf_gcd(rem, [i * x for i, x in enumerate(rem)][1:], p)[:-1]
    quo = []  # divided by the monic gcd h^len(low) + low, highest term first
    while len(rem) > len(low):
        c = rem.pop()
        quo.append(c)
        off = len(rem) - len(low)
        rem[off:] = [(x - c * y) % p for x, y in zip(rem[off:], low)]
    return quo[::-1]


def _gf_samples(a: Sequence[int], b: Sequence[int], p: int, count: int) -> list[int]:
    """R(h) = Res_n(a(n), b(n+h)) mod p at h = 0, 1, ..., count - 1, for
    integer coefficient sequences whose leading entries p does not divide;
    b is shifted by one between samples."""
    fa = [x % p for x in a]
    fb = [x % p for x in b]
    values = []
    for h in range(count):
        if h:
            fb = [x % p for x in _shift_ints(fb, 1)]
        values.append(_gf_euclid(fa[:], fb[:], p)[1])
    return values


def _gf_power_sums(f: list[int], count: int, p: int) -> list[int]:
    """The power sums s_0, ..., s_(count-1) of the roots of the monic
    residue list f of degree m, by Newton's identities: s_k = -(k c_(m-k)
    + c_(m-1) s_(k-1) + ... + c_(m-t) s_(k-t)), t = min(k - 1, m), with
    c_j = 0 below 0."""
    m = len(f) - 1
    sums = [m % p]
    for k in range(1, count):
        t = min(k - 1, m)
        acc = sum(map(mul, f[m - t : m], sums[k - t : k]))
        if k <= m:
            acc += k * f[m - k]
        sums.append(-acc % p)
    return sums


def _gf_power_sum_resultant(a: list[int], b: list[int], p: int) -> list[int]:
    """R(h) = Res_n(a(n), b(n+h)) mod p = prod (h - (beta - alpha)) over the
    roots alpha of a and beta of b, for monic residue lists a and b and a
    prime p above D = deg a deg b; monic of degree D, ascending.

    The power sums of the differences beta - alpha are one product of
    exponential generating series, S_k / k! = sum_t (s_t(beta) / t!)
    ((-1)^(k-t) s_(k-t)(alpha) / (k-t)!), and Newton's identities run
    backwards turn them into R's coefficients e_k (R = sum e_k h^(D-k)):
    k e_k = -(S_1 e_(k-1) + S_2 e_(k-2) + ... + S_k e_0).
    """
    top = (len(a) - 1) * (len(b) - 1)
    fact = [1]
    for k in range(1, top + 1):
        fact.append(fact[-1] * k % p)
    inv_fact = [pow(fact[top], -1, p)]
    for k in range(top, 0, -1):
        inv_fact.append(inv_fact[-1] * k % p)
    inv_fact.reverse()
    from_a = [s * w % p for s, w in zip(_gf_power_sums(a, top + 1, p), inv_fact)]
    from_a[1::2] = [-x % p for x in from_a[1::2]]
    from_b = [s * w % p for s, w in zip(_gf_power_sums(b, top + 1, p), inv_fact)]
    composed = _mul_ints(tuple(from_b), tuple(from_a))
    # S_top, ..., S_1: the dot product with e_0 .. e_(k-1) reads its last k
    sums = [composed[k] * fact[k] % p for k in range(top, 0, -1)]
    coeffs = [1]
    for k in range(1, top + 1):
        acc = sum(map(mul, coeffs, sums[top - k :]))
        coeffs.append(-acc * inv_fact[k] * fact[k - 1] % p)
    coeffs.reverse()
    return coeffs


def _gf_zeros(f: list[int], width: int, p: int) -> list[int]:
    """The j in [0, width] at which the residue list f vanishes mod p, by
    Horner's rule at every point at once."""
    points = range(width + 1)
    values = [0] * (width + 1)
    for c in reversed(f):
        values = [(v * j + c) % p for v, j in zip(values, points)]
    return [j for j, v in enumerate(values) if not v]


# The crossovers between the three read-offs, each timed path against path
# on the recorded dispersion calls of the benchmark workloads and on pairs
# beyond their range (see the module docstring).
_SAMPLE_WORK_PER_POINT = 5
_ROOT_WORK_PER_POINT = 4


def _samples_pay(width: int, top: int) -> bool:
    """Whether width + 1 Euclidean samples cost less than the power sums of
    R, of degree top, and Horner's rule: a sample takes about top steps, the
    backward Newton step alone top^2 / 2."""
    return (width + 1) * _SAMPLE_WORK_PER_POINT <= top


def _roots_pay(width: int, top: int, p: int) -> bool:
    """Whether finding the roots of R mod p, of degree top, costs less than
    Horner's rule at width + 1 points: about top^2 steps per bit of p
    against top steps per point."""
    return width > _ROOT_WORK_PER_POINT * top * p.bit_length()


def _shift_candidates(a: list[int], b: list[int], lo: int, width: int, p: int) -> list[int]:
    """The j in [0, width] with Res_n(a(n), b(n + lo + j)) = 0 mod p,
    ascending, for monic residue lists a and b and a prime p above
    max(2 width, deg a deg b)."""
    if lo % p:
        b = [x % p for x in _shift_ints(b, lo % p)]
    top = (len(a) - 1) * (len(b) - 1)
    if _samples_pay(width, top):
        return [j for j, v in enumerate(_gf_samples(a, b, p, width + 1)) if not v]
    resultant_mod_p = _gf_power_sum_resultant(a, b, p)
    if _roots_pay(width, top, p):
        return sorted(j for j in _gf_roots(resultant_mod_p, p) if j <= width)
    return _gf_zeros(resultant_mod_p, width, p)


def _centred(ints: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(c, ints(n + c)) for an integer polynomial of degree d >= 1 with a
    positive leading entry, where c = round(-c_(d-1) / (d c_d)) is the
    integer nearest the mean of its roots."""
    d = len(ints) - 1
    c = (d * ints[-1] - 2 * ints[-2]) // (2 * d * ints[-1])
    return c, (_shift_ints(ints, c) if c else ints)


def _window(pa: tuple[int, ...], pb: tuple[int, ...]) -> tuple[int, int]:
    """[lo, hi] holding every h >= 0 at which the primitive polynomials pa(n)
    and pb(n+h) of degree >= 1 share a root: with pa centred at ca, pb at cb
    and Fujiwara bounds ra, rb of the centred polynomials, every shift is
    within ra + rb of cb - ca.  hi < lo when there is none."""
    ca, centred_a = _centred(pa)
    cb, centred_b = _centred(pb)
    reach = _root_bound(centred_a) + _root_bound(centred_b)
    return max(0, cb - ca - reach), cb - ca + reach


def integer_roots(p: Poly) -> set[int]:
    """All integer roots of a nonzero polynomial.

    The roots of p(n + c), c the integer nearest the mean of p's roots,
    modulo the smallest odd prime above twice their root bound that keeps
    the degree, read as symmetric residues and moved back by c, are the
    only candidates; each is checked by evaluating p at it exactly.
    """
    if p.is_zero:
        raise InputError("the zero polynomial has every integer as a root")
    ints = p.primitive
    if len(ints) == 1:
        return set()
    c, centred = _centred(ints)
    prime = _root_prime(max(2 * _root_bound(centred), 2), ints[-1])
    roots = set()
    for r in _gf_roots([x % prime for x in centred], prime):
        if r > prime // 2:
            r -= prime
        if p(r + c) == 0:
            roots.add(r + c)
    return roots


@dataclass(frozen=True)
class DispersionResult:
    """Dispersion value plus, for each shift k with a nontrivial common
    factor, the witnessing monic gcd of a(n) and b(n+k)."""

    value: int
    witnesses: tuple[tuple[int, Poly], ...]


# The memo's entries.  One equation's routes ask for two pairs: the
# coefficient pair (pd(n-d), p0(n)), shared by `gcd_limit`,
# `universal_denominator`, `abramov_reduce` and, at order 1,
# `gp_rep_from_trace`, and the pair `check_gp_rep` tests for shift
# coprimality.  Eight entries keep those of the last four equations: the
# memo shares work within an equation, it is not a cache of past requests.
_MEMO_ENTRIES = 8


def dispersion(a: Poly, b: Poly) -> DispersionResult:
    """Largest k >= 0 with deg gcd(a(n), b(n+k)) >= 1, or -1 if none.

    The value and the monic witness gcds depend only on the primitive parts
    of a and b, so the work is memoized on those (`_MEMO_ENTRIES` of the
    most recent pairs): the routes to a universal denominator all start
    from the same pair and share one computation.  A `DispersionResult` is
    immutable, so every caller may hold the same one.
    """
    if a.is_zero or b.is_zero:
        raise InputError("dispersion of a zero polynomial is undefined")
    if a.degree == 0 or b.degree == 0:
        return DispersionResult(-1, ())
    return _dispersion(a.primitive, b.primitive)


@lru_cache(maxsize=_MEMO_ENTRIES)
def _dispersion(pa: tuple[int, ...], pb: tuple[int, ...]) -> DispersionResult:
    """The dispersion of the primitive polynomials pa and pb of degree >= 1."""
    lo, hi = _window(pa, pb)
    if hi < lo:
        return DispersionResult(-1, ())
    width = hi - lo
    prime = _root_prime(max(2 * width, (len(pa) - 1) * (len(pb) - 1), 2), pa[-1], pb[-1])
    a, b = _make(Fraction(1), pa), _make(Fraction(1), pb)
    witnesses = []
    for j in _shift_candidates(_gf_squarefree(pa, prime), _gf_squarefree(pb, prime), lo, width, prime):
        g = gcd_monic(a, shift(b, lo + j))
        if g.degree >= 1:
            witnesses.append((lo + j, g))
    value = witnesses[-1][0] if witnesses else -1
    return DispersionResult(value, tuple(witnesses))
