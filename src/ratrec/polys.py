"""Exact univariate polynomial and rational-function arithmetic over Q.

A nonzero polynomial in the variable n is stored as a rational content c
times a primitive integer coefficient tuple P in ascending degree: the
entries of P have gcd 1, no trailing zero, and a positive leading entry.
The pair (c, P) is unique, so equality and hashing compare it directly.
The zero polynomial has content 0 and the empty tuple, and its degree is
-inf so that every degree comparison against an integer behaves sensibly.

By Gauss's lemma a product of primitive polynomials is primitive, and a
Taylor shift or an exact quotient of primitive polynomials is primitive
too, so multiplication, `shift` and `exact_div` run on Python ints and
never take a coefficient gcd.  Long products use Kronecker substitution:
both factors are packed into one integer with byte-aligned slots, CPython
multiplies the two integers, and the product is unpacked in linear time.
Only products pack: a shift is a Taylor pass by repeated synthetic
division, quadratic in the length, at every length.

`Poly.coeffs` is the ascending tuple of Fraction coefficients c * P[i],
built on first use and cached; it is a view for printing and for callers
outside the arithmetic.

GCDs are always returned monic.  The gcd kernel works on the primitive
parts and first tries the heuristic gcd of Char, Geddes & Gonnet (GCDHEU,
J. Symbolic Computation 7, 1989): both inputs are evaluated at xi = 256^w
by packing their coefficients into w-byte slots; the integer gcd of the
two values is split back into symmetric xi-adic digits, and the primitive
part of that polynomial is the gcd when it divides both inputs exactly.
An integer gcd below xi / 2 is a single digit, so the inputs are coprime
and nothing is unpacked.  Short inputs, the many small gcds of the gcd
sequence among them, are packed by shift-and-add Horner and read back by
mask and shift, which cost less there than byte strings
(`_PACK_BYTES_MIN_LEN`).
The smallest admissible w, with xi at least twice the smaller input's
largest coefficient plus 2, chooses the route: the heuristic runs only
while that packed value, w bytes times the longer input's length, stays
within `_HEU_MAX_BITS`; past it one CPython integer gcd costs more than
Euclid in Python modulo word primes, and the modular gcd takes over.  The
first evaluation is 64 bits wider than that smallest xi
(`_HEU_HEADROOM_BYTES`, cut to what the size limit leaves), so that a
small factor the cofactors' values share seldom spoils it; on a failed
check w doubles, while the value stays within the limit.  The modular gcd
first tries the shorter input as the answer by one exact division.  Its
first Euclidean pass runs modulo one prime just below 2^61, which proves
most coprime pairs coprime; the later ones run modulo a product of such
primes, as many as half the smaller input's coefficient bits call for (at
most four), and every image is merged by CRT until the lifted candidate
divides both inputs exactly.  Euclid modulo a squarefree product is
Euclid modulo each of its primes at once while every leading coefficient
is a unit; a modulus that meets a zero divisor is dropped, as an unlucky
prime is.  Every gcd modulo p and the resultant samples of `dispersion`
run one Euclidean remainder sequence, `_gf_euclid`, which yields the last
nonzero remainder and the resultant together.  Both routes return the
classical monic gcd g exactly, and the exact divisions that accept g
compute a / g and b / g: `cofactors` returns them with g, so a caller that
divides g out never divides again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .intutil import PrimeStream

Rational = Fraction
Scalar = Union[int, Fraction]

NEG_INFINITY = float("-inf")

_F0 = Fraction(0)
_new = object.__new__


class InputError(ValueError):
    """An argument outside what a ratrec function accepts: a zero
    polynomial where a nonzero one is needed, an order below 1, a pair that
    is not coprime.  Every argument check in the package raises it."""


# from this many coefficients in the shorter factor on, a product packs both
# factors into one integer rather than running the schoolbook loops
_KRONECKER_MIN_LEN = 12

# A modular gcd pass after the first, one-prime pass runs modulo a product
# of CRT primes meant to hold the answer in one pass: at least the smaller
# input's coefficient bits divided by _GCD_INPUT_BITS_PER_ANSWER_BIT, plus
# the bits of the leading-coefficient bound and 2, but never more than
# _GCD_MODULUS_MAX_BITS (and never less than one prime).  On the 120 closed-form gcds of seed-1
# `denominators-wide` requests (degree about 60), the answer had a median
# 0.54 times the smaller input's bits, and one pass modulo 61 / 122 / 183 /
# 244 bits took 1.1-1.7 / 1.6-2.4 / 2.3-3.1 / 2.5-3.7 ms (2-vCPU Xeon VM,
# Python 3.11.7).  A wider modulus costs less per bit, but a gcd whose
# answer needs far fewer bits than the estimate pays for the surplus in
# every step, hence the cap: the closed form at N = 120,
# `universal_denominator(p0, p0(n+121)(5n+1), 1)` with p0 = (3n+2)(n^2+5)(2n+7),
# took 1.49-1.57 s with one prime a pass, 0.86-1.08 s with the cap and
# 1.42-1.50 s without.
_GCD_INPUT_BITS_PER_ANSWER_BIT = 2
_GCD_MODULUS_MAX_BITS = 240

# A list shorter than this is packed into one integer by shift-and-add Horner
# and read back by mask and shift; from this length on both go through one
# byte string.  Horner against byte strings, per call (2-vCPU Xeon VM, Python
# 3.11.7): packing 8 coefficients into 9-byte slots 0.4 against 1.6 us,
# reading them back 1.1 against 1.8 us; 16 coefficients 1.0 against 2.8 and
# 2.3 against 2.9 us.  Byte strings win from about 20 to 30 coefficients on,
# sooner in wider slots: 24 digits of 32 bytes read back in 6.4 against
# 5.6 us, 24 coefficients packed into 64 bytes in 7.9 against 6.8 us.
_PACK_BYTES_MIN_LEN = 16

# The heuristic gcd runs only while 8 w * max(len(a), len(b)), the bits of a
# packed evaluation at xi = 256^w, is at most this; larger gcds take the
# modular route.  Heuristic over modular time on planted pairs (g*u, g*v,
# random factors) was 0.15-0.72 up to 72 kbit at degrees 16 to 1000 (and
# below 0.6 up to 1 Mbit with coefficients of at most 1000 bits), but
# 1.10-1.13 from 132 kbit at degree 16-32 with 4000-8000-bit coefficients
# and 1.2-2.0 from 200 kbit with 4000 bits.  Coprime pairs favour the
# modular route sooner when coefficients are wide, since its first pass,
# modulo one prime, proves them coprime: 1.0-1.1 against 0.2 ms (34 kbit)
# and 3.7 against 0.5 ms (66 kbit) with 2000 bits at degree 16 / 32, but
# 0.06-0.33 with 64-256 bits at degrees 50 to 1000.  Nearly all of the
# heuristic's time on such a pair is the integer gcd of the two values, so
# its early return on a coprime pair, before any unpacking, does not move
# these ratios.  The largest first evaluation among the seed-1 benchmark
# requests has 30,832 bits.  (2-vCPU Xeon VM, Python 3.11.7.)
_HEU_MAX_BITS = 1 << 16

# The heuristic gcd starts this many bytes wider than the smallest admissible
# xi; the size rule above still reads the smallest, so no gcd changes route.
# At the smallest xi the cofactors' values often share a small factor, which
# pushes the reconstruction past xi / 2 and costs a second evaluation at
# twice the width.  Replaying every gcd of seed-1 benchmark requests, 2 % of
# the gosper-cli calls, 14 % of ratsolve-planted and 6 % of
# denominators-wide took two or more, and 39 of the 48 closed-form gcds of
# `universal_denominator`; with 64 bits of headroom none did, and the replays
# took 75 / 91 / 85 ms at the smallest xi against 77 / 80 / 61 ms (best of
# 7), the closed-form gcds 1.73 against 1.13 ms each.  One bit of headroom
# per coefficient of the longer input did about as well there (71 / 75 /
# 63 ms, 1.22 ms), but it grows with the square of the length.  The
# headroom is cut to what the size limit leaves, because on long inputs with
# narrow coefficients it would multiply the evaluation: a degree-8000 gcd
# with 4-bit coefficients took 8 ms at the smallest xi and 154 ms 64 bits
# wider.  (2-vCPU Xeon VM, Python 3.11.7.)
_HEU_HEADROOM_BYTES = 8


class Poly:
    """Dense univariate polynomial over the rationals: content times a
    primitive integer coefficient tuple."""

    __slots__ = ("_content", "_prim", "_coeffs")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        if not cs:
            self._content, self._prim, self._coeffs = _F0, (), ()
            return
        den = math.lcm(*[c.denominator for c in cs])
        g, self._prim = _primitive([c.numerator * (den // c.denominator) for c in cs])
        self._content = Fraction(g, den)
        self._coeffs = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def one() -> "Poly":
        return _ONE

    @staticmethod
    def variable() -> "Poly":
        return _VAR

    @staticmethod
    def const(c: Scalar) -> "Poly":
        return Poly((c,))

    @staticmethod
    def monomial(power: int, c: Scalar = 1) -> "Poly":
        if power < 0:
            raise InputError("monomial power must be nonnegative")
        return Poly((0,) * power + (c,))

    # -- basic queries -------------------------------------------------

    @property
    def content(self) -> Fraction:
        """The rational c with self = c * primitive (0 for the zero polynomial)."""
        return self._content

    @property
    def primitive(self) -> tuple[int, ...]:
        """Primitive integer coefficients, ascending, positive leading entry."""
        return self._prim

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Fraction coefficients in ascending degree, no trailing zero."""
        cs = self._coeffs
        if cs is None:
            c = self._content
            cs = self._coeffs = tuple([c * x for x in self._prim])
        return cs

    @property
    def degree(self) -> "int | float":
        """Degree; -inf for the zero polynomial."""
        return len(self._prim) - 1 if self._prim else NEG_INFINITY

    @property
    def lc(self) -> Fraction:
        """Leading coefficient (0 for the zero polynomial)."""
        return self._content * self._prim[-1] if self._prim else _F0

    @property
    def is_zero(self) -> bool:
        return not self._prim

    def coeff(self, i: int) -> Fraction:
        return self._content * self._prim[i] if 0 <= i < len(self._prim) else _F0

    def __bool__(self) -> bool:
        return bool(self._prim)

    def __call__(self, point: Scalar) -> Fraction:
        if not self._prim:
            return _F0
        x = point if isinstance(point, (int, Fraction)) else Fraction(point)
        num, den = x.numerator, x.denominator
        # homogeneous Horner: acc = sum P[i] num^i den^(deg - i), scale = den^(deg + 1)
        acc = 0
        scale = 1
        for c in reversed(self._prim):
            acc = acc * num + c * scale
            scale *= den
        return self._content * Fraction(acc * den, scale)

    # -- ring operations -----------------------------------------------

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._prim:
            return self
        if not self._prim:
            return other
        ca, cb = self._content, other._content
        da, db = ca.denominator, cb.denominator
        den = da * db // math.gcd(da, db)
        fa, fb = ca.numerator * (den // da), cb.numerator * (den // db)
        g = math.gcd(fa, fb)
        fa //= g
        fb //= g
        a, b = self._prim, other._prim
        if len(a) < len(b):
            a, b, fa, fb = b, a, fb, fa
        out = [fa * x for x in a] if fa != 1 else list(a)
        for i, y in enumerate(b):
            out[i] += fb * y
        return _from_ints(out, Fraction(g, den))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        if not self._prim:
            return self
        return _make(-self._content, self._prim)

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Poly":
        return (-self) + other

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, Poly):
            if not self._prim or not other._prim:
                return _ZERO
            return _make(self._content * other._content, _mul_ints(self._prim, other._prim))
        if isinstance(other, (int, Fraction)):
            if not other or not self._prim:
                return _ZERO
            return _make(self._content * other, self._prim)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "Poly":
        if not scalar:
            raise ZeroDivisionError("division of a polynomial by zero")
        if not self._prim:
            return self
        return _make(self._content / scalar, self._prim)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise InputError("negative polynomial power")
        if k == 0:
            return _ONE
        if not self._prim:
            return _ZERO
        result: tuple[int, ...] = (1,)
        base = self._prim
        e = k
        while e:
            if e & 1:
                result = _mul_ints(result, base)
            e >>= 1
            if e:
                base = _mul_ints(base, base)
        return _make(self._content**k, result)

    def monic(self) -> "Poly":
        if not self._prim:
            raise InputError("the zero polynomial has no monic form")
        content = Fraction(1, self._prim[-1])
        if self._content == content:
            return self
        return _make(content, self._prim)

    # -- equality / display ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self._prim == other._prim and self._content == other._content

    def __hash__(self) -> int:
        return hash((self._content, self._prim))

    def __str__(self) -> str:
        if not self._prim:
            return "0"
        coeffs = self.coeffs
        parts: list[str] = []
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "n" if i == 1 else f"n^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _make(content: Fraction, prim: tuple[int, ...]) -> Poly:
    """A Poly from an already normalized (content, primitive) pair."""
    p = _new(Poly)
    p._content = content
    p._prim = prim
    p._coeffs = None
    return p


def _primitive(ints: list[int]) -> tuple[int, tuple[int, ...]]:
    """(c, P) with ints = c * P and P primitive with a positive leading
    entry, for an integer list whose last entry is nonzero."""
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return g, tuple(ints) if g == 1 else tuple([x // g for x in ints])


def _from_ints(ints: list[int], scale: Fraction) -> Poly:
    """The Poly scale * sum ints[i] n^i, for any integer list."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return _ZERO
    g, prim = _primitive(ints)
    return _make(scale * g if g != 1 else scale, prim)


_ZERO = Poly()
_ONE = Poly((1,))
_VAR = Poly((0, 1))


def _coerce(value: "Poly | Scalar") -> "Poly":
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly((value,))
    return NotImplemented


# -- integer kernels ----------------------------------------------------


def _max_bits(a: "tuple[int, ...] | list[int]") -> int:
    return max(max(a), -min(a)).bit_length()


def _pack(a: "tuple[int, ...] | list[int]", width: int) -> int:
    """sum a[i] * 256^(width*i) for signed a[i] with |a[i]| < 256^width.

    A list shorter than _PACK_BYTES_MIN_LEN is evaluated by shift-and-add
    Horner, which takes entries of any size; a longer one is joined from
    byte strings.
    """
    if len(a) < _PACK_BYTES_MIN_LEN:
        bits = 8 * width
        value = 0
        for x in reversed(a):
            value = (value << bits) + x
        return value
    blank = bytes(width)
    value = int.from_bytes(b"".join([x.to_bytes(width, "little") if x > 0 else blank for x in a]), "little")
    if min(a) < 0:
        value -= int.from_bytes(
            b"".join([(-x).to_bytes(width, "little") if x < 0 else blank for x in a]), "little"
        )
    return value


def _pack_wide(a: "tuple[int, ...] | list[int]", width: int) -> int:
    """sum a[i] * 256^(width*i) for signed a[i] of any size.

    A coefficient wider than a slot takes s consecutive slots, and those of
    a[i] and a[i+s] do not overlap, so the value is the sum of s packings of
    every s-th coefficient into s-slot-wide slots: linear in the input's
    bytes, where Horner's rule multiplies ever longer integers.  A short
    list goes to Horner's rule at once.
    """
    if len(a) < _PACK_BYTES_MIN_LEN:
        return _pack(a, width)
    s = -(-_max_bits(a) // (8 * width))
    if s <= 1:
        return _pack(a, width)
    span = s * width
    return sum([_pack(a[r::s], span) << (8 * width * r) for r in range(min(s, len(a)))])


def _unpack(value: int, width: int, count: int) -> list[int]:
    """The `count` signed digits of base 256^width in value, each of absolute
    value below 256^width / 2.

    Fewer than _PACK_BYTES_MIN_LEN digits are read by mask and shift, with a
    carry into the rest of the value after each negative digit.  More are
    read from one byte string: adding half a slot to every digit makes them
    all nonnegative, so each slot is read on its own with no borrow passing
    between slots.
    """
    bits = 8 * width
    half = 1 << (bits - 1)
    if count < _PACK_BYTES_MIN_LEN:
        mask = (1 << bits) - 1
        digits = []
        for _ in range(count):
            d = value & mask
            value >>= bits
            if d >= half:
                d -= mask + 1
                value += 1
            digits.append(d)
        return digits
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    data = (value + offset).to_bytes(width * count, "little")
    frm = int.from_bytes
    return [frm(data[i : i + width], "little") - half for i in range(0, width * count, width)]


def _mul_ints(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product of two nonempty integer coefficient tuples."""
    la, lb = len(a), len(b)
    if la == 1 or lb == 1:
        if lb == 1:
            a, b = b, a
        c = a[0]
        return b if c == 1 else tuple([c * y for y in b])
    if la < _KRONECKER_MIN_LEN or lb < _KRONECKER_MIN_LEN:
        out = [0] * (la + lb - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return tuple(out)
    bits = _max_bits(a) + _max_bits(b) + min(la, lb).bit_length() + 1
    width = bits // 8 + 1
    pa = _pack(a, width)
    pb = pa if a is b else _pack(b, width)
    return tuple(_unpack(pa * pb, width, la + lb - 1))


def _shift_ints(a: "tuple[int, ...] | list[int]", k: int) -> tuple[int, ...]:
    """Coefficients of P(n + k) for the integer coefficient sequence P, by a
    Taylor pass of repeated synthetic division."""
    c = list(a)
    size = len(c)
    for i in range(size - 1):
        for j in range(size - 2, i - 1, -1):
            c[j] += k * c[j + 1]
    return tuple(c)


def _exact_quo_ints(a: tuple[int, ...], b: tuple[int, ...]) -> "tuple[int, ...] | None":
    """a / b in Z[n] when b divides a there, else None (b nonzero).

    A quotient coefficient past Mignotte's bound on the factors of a,
    2^deg(q) * ||a||_2, proves that b does not divide a, so a failed trial
    stops before its quotient grows.
    """
    lb = b[-1]
    db = len(b) - 1
    if len(a) <= db:
        return None if any(a) else ()
    rem = list(a)
    quo = [0] * (len(a) - db)
    limit = _max_bits(a) + len(quo) + len(a).bit_length()
    low = b[:-1]
    for top in range(len(a) - 1, db - 1, -1):
        lead = rem[top]
        if lead:
            q, r = divmod(lead, lb)
            if r or q.bit_length() > limit:
                return None
            quo[top - db] = q
            off = top - db
            for i, y in enumerate(low):
                rem[off + i] -= q * y
    return tuple(quo) if not any(rem[:db]) else None


# -- division and composition ------------------------------------------------


def divrem(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Euclidean division: a = q*b + r with deg r < deg b, exactly."""
    if not b._prim:
        raise ZeroDivisionError("polynomial division by the zero polynomial")
    if len(a._prim) < len(b._prim):
        return _ZERO, a
    # integer long division with one running denominator `den`:
    # primitive(a) = (quo / den) * primitive(b) + rem / den
    div = b._prim
    dd = len(div) - 1
    lb = div[-1]
    rem = list(a._prim)
    quo = [0] * (len(rem) - dd)
    den = 1
    low = div[:-1]
    for top in range(len(rem) - 1, dd - 1, -1):
        lead = rem[top]
        if not lead:
            continue
        g = math.gcd(lead, lb)
        scale = lb // g
        if scale != 1:
            rem = [x * scale for x in rem]
            quo = [x * scale for x in quo]
            den *= scale
            lead *= scale
        q = lead // lb
        off = top - dd
        quo[off] = q
        rem[top] = 0
        for i, y in enumerate(low):
            rem[off + i] -= q * y
    ca = a._content
    return _from_ints(quo, ca / (b._content * den)), _from_ints(rem[:dd], ca / den)


def exact_div(a: Poly, b: Poly) -> Poly:
    """Division that must be remainder-free; a nonzero remainder is a bug."""
    if not b._prim:
        raise ZeroDivisionError("polynomial division by the zero polynomial")
    if not a._prim:
        return _ZERO
    # b | a in Q[n] iff primitive(b) | primitive(a) in Z[n] (Gauss's lemma)
    quo = _exact_quo_ints(a._prim, b._prim)
    if quo is None:
        raise RuntimeError(f"non-exact polynomial division: ({a}) / ({b})")
    return _make(a._content / b._content, quo)


def shift(a: Poly, k: int) -> Poly:
    """The composed polynomial a(n + k)."""
    if k == 0 or not a._prim:
        return a
    return _make(a._content, _shift_ints(a._prim, k))


def falling_product(f: Poly, k: int) -> Poly:
    """The product f(n) f(n-1) ... f(n-k+1); the empty product (k=0) is 1."""
    if k < 0:
        raise InputError("falling_product needs k >= 0")
    if k == 0:
        return _ONE
    if not f._prim:
        return _ZERO
    # binary method on F_m = prod_{j<m} f(n-j): F_2m = F_m * F_m(n-m), F_m+1 = F_m * f(n-m)
    base = f._prim
    acc = base
    m = 1
    for bit in bin(k)[3:]:
        acc = _mul_ints(acc, _shift_ints(acc, -m))
        m *= 2
        if bit == "1":
            acc = _mul_ints(acc, _shift_ints(base, -m))
            m += 1
    return _make(f._content**k, acc)


# -- gcd ----------------------------------------------------------------


def _gf_monic_low(g: "tuple[int, ...] | list[int]", p: int) -> list[int]:
    """The coefficients below the leading one of g made monic over GF(p),
    which is all `_gf_rem_monic` needs of a modulus."""
    inv = pow(g[-1], -1, p)
    return [x * inv % p for x in g[:-1]]


def _gf_monic(f: "tuple[int, ...] | list[int]", p: int) -> list[int]:
    """f made monic over GF(p), for a nonzero polynomial mod p."""
    return _gf_monic_low(f, p) + [1]


def _gf_rem_monic(f: list[int], low: list[int], p: int) -> list[int]:
    """f mod (h^len(low) + low) over GF(p); f is reduced in place and
    returned.  Callers that reduce by one modulus many times prepare `low`
    once with `_gf_monic_low`."""
    dg = len(low)
    while len(f) > dg:
        c = f.pop()
        if c:
            off = len(f) - dg
            f[off:] = [(x - c * y) % p for x, y in zip(f[off:], low)]
        while f and f[-1] == 0:
            f.pop()
    return f


def _gf_euclid(f: list[int], g: list[int], p: int) -> tuple[list[int], int]:
    """(r, Res(f, g) mod p) for nonzero lists of residues, both reduced in
    place: r is the last nonzero remainder of their Euclidean sequence, a
    gcd up to a unit, and neither is normalized further.  A step f, g ->
    g, f mod g scales the resultant by (-1)^(deg f deg g) lc(g)^(deg f -
    deg(f mod g)); Res(f, c) = c^deg f for a constant c ends the sequence,
    and a zero remainder before it makes the resultant 0.  Raises
    ValueError on a leading coefficient that is not a unit modulo p."""
    acc = 1
    while len(g) > 1:
        df = len(f) - 1
        r = _gf_rem_monic(f, _gf_monic_low(g, p), p)
        if not r:
            return g, 0
        if df & (len(g) - 1) & 1:
            acc = -acc
        acc = acc * pow(g[-1], df - len(r) + 1, p) % p
        f, g = g, r
    return g, acc * pow(g[0], len(f) - 1, p) % p


def _gf_gcd(a: "tuple[int, ...] | list[int]", b: "tuple[int, ...] | list[int]", p: int) -> list[int]:
    """Monic gcd of two integer-coefficient polys modulo p; [] if either is 0 mod p.

    p is a prime or a squarefree product of primes.  Modulo a product the
    result is the CRT image of the monic gcds modulo its primes, of equal
    degree.  Raises ValueError when a leading coefficient met on the way is
    not a unit modulo p, which for a prime p cannot happen."""

    def red(xs) -> list[int]:
        ys = [x % p for x in xs]
        while ys and ys[-1] == 0:
            ys.pop()
        return ys

    f, g = red(a), red(b)
    if not f or not g:
        return []
    return _gf_monic(_gf_euclid(f, g, p)[0], p)


def _heu_gcd(a: tuple[int, ...], b: tuple[int, ...], width: int) -> "tuple[tuple[int, ...], ...] | None":
    """(g, a / g, b / g) for the gcd g of primitive a, b reconstructed from
    their values at xi = 256^width, or None when g does not divide both.

    xi must be at least 2 * min(||a||_inf, ||b||_inf) + 2.  Then a candidate
    P that divides both inputs is their gcd G (Char, Geddes & Gonnet): write
    G = P q.  G(xi) divides the integer gcd, which is c P(xi) for the
    reconstruction's content c, so q(xi) divides c, and |c| < xi / 2.  The
    roots of q are roots of the input of smaller norm, inside its Cauchy
    bound, below xi / 2, so a nonconstant q would have |q(xi)| > xi / 2.
    """
    h = math.gcd(_pack_wide(a, width), _pack_wide(b, width))
    if h.bit_length() < 8 * width:
        return (1,), a, b  # h < xi / 2 is its own single digit: a constant gcd
    g = _unpack(h, width, h.bit_length() // (8 * width) + 2)
    while not g[-1]:
        g.pop()
    _, g = _primitive(g)
    if (qa := _exact_quo_ints(a, g)) is None or (qb := _exact_quo_ints(b, g)) is None:
        return None
    return g, qa, qb


def _int_gcd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """(g, a / g, b / g) for the primitive gcd g of nonzero primitive a, b.

    A constant input, or two equal ones, need no kernel.  Otherwise the
    route is read off the smallest admissible xi = 256^w: the heuristic
    gcd runs when 8 w * max(len(a), len(b)) is at most _HEU_MAX_BITS, and
    the modular gcd answers otherwise.  The heuristic starts
    _HEU_HEADROOM_BYTES wider than that w, or as wide as the limit allows
    if that is less, and doubles the width after each failed check while
    it stays within the limit.  A
    failure means xi met a spurious common factor of the cofactors' values,
    a divisor of their resultant, so a wide enough xi always succeeds."""
    if len(a) == 1 or len(b) == 1:
        return (1,), a, b
    if a == b:
        return a, (1,), (1,)
    width = min(_max_bits(a), _max_bits(b)) // 8 + 1
    length = max(len(a), len(b))
    if 8 * width * length <= _HEU_MAX_BITS:
        width = min(width + _HEU_HEADROOM_BYTES, _HEU_MAX_BITS // (8 * length))
        while True:
            found = _heu_gcd(a, b, width)
            if found is not None:
                return found
            width *= 2
            if 8 * width * length > _HEU_MAX_BITS:
                break
    return _modular_gcd(a, b)


def _modular_gcd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """(g, a / g, b / g) for the primitive gcd g of primitive a, b of degree
    >= 1, by modular CRT.

    The shorter input is the answer when it divides the longer one, which
    one exact division decides.  Otherwise the first Euclidean pass runs
    modulo one word prime: a gcd of 1 there proves the inputs coprime, and
    any other image joins the CRT like every later one.  Each later pass
    runs modulo m, a product of consecutive stream primes sized from the
    inputs (see _GCD_MODULUS_MAX_BITS).  A modulus that meets a zero
    divisor is dropped as an unlucky prime is; the exact trial division
    decides, and its quotients are the cofactors."""
    short, long = (a, b) if len(a) < len(b) else (b, a)
    if len(short) < len(long) and (quo := _exact_quo_ints(long, short)) is not None:
        return (a, (1,), quo) if short is a else (b, quo, (1,))
    la, lb = a[-1], b[-1]
    lc_bound = math.gcd(la, lb)
    estimate = min(_max_bits(a), _max_bits(b)) // _GCD_INPUT_BITS_PER_ANSWER_BIT
    need = min(estimate + lc_bound.bit_length() + 2, _GCD_MODULUS_MAX_BITS)
    acc: list[int] | None = None
    modulus = 1
    primes = PrimeStream()
    for m in primes:
        # the first pass runs modulo one prime, enough to prove coprimality
        while acc is not None and m.bit_length() < need:
            m *= next(primes)
        if math.gcd(la, m) != 1 or math.gcd(lb, m) != 1:
            continue
        try:
            gm = _gf_gcd(a, b, m)
        except ValueError:
            continue  # a leading coefficient is a zero divisor modulo m
        if len(gm) == 1:
            return (1,), a, b  # coprime: the modular degree only ever overshoots
        scaled = [x * lc_bound % m for x in gm]
        if acc is None or len(scaled) < len(acc):
            acc, modulus = scaled, m
        elif len(scaled) == len(acc):
            # coefficientwise CRT merge
            inv = pow(modulus, -1, m)
            acc = [old + modulus * ((new - old) % m * inv % m) for old, new in zip(acc, scaled)]
            modulus *= m
        else:
            continue  # unlucky modulus, degree too high
        half = modulus // 2
        candidate = [c - modulus if c > half else c for c in acc]
        if candidate[-1] == 0:
            continue  # leading bound not yet inside the lift range
        _, g = _primitive(candidate)
        if (qa := _exact_quo_ints(a, g)) is not None and (qb := _exact_quo_ints(b, g)) is not None:
            return g, qa, qb
    raise AssertionError("unreachable: prime stream is infinite")


def cofactors(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, a / g, b / g) for the monic gcd g of a and b, nonzero.  The gcd
    kernel computes both quotients when it checks g, so they cost no
    further division; when g is 1 they are a and b themselves."""
    g, qa, qb = _int_gcd(a._prim, b._prim)
    if len(g) == 1:
        return _ONE, a, b
    lead = g[-1]
    return _make(Fraction(1, lead), g), _make(a._content * lead, qa), _make(b._content * lead, qb)


def gcd_monic(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(x, 0) = monic(x)."""
    if not a._prim or not b._prim:
        if not a._prim and not b._prim:
            raise InputError("gcd of two zero polynomials is undefined")
        return (a or b).monic()
    return cofactors(a, b)[0]


# -- rational functions ---------------------------------------------------


@dataclass(frozen=True)
class RatFunc:
    """A reduced rational function: coprime num/den with monic denominator."""

    num: Poly
    den: Poly

    @staticmethod
    def reduced(num: Poly, den: Poly) -> "RatFunc":
        """Build the reduced representation of num/den (den nonzero)."""
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            return RatFunc(_ZERO, _ONE)
        _, num, den = cofactors(num, den)
        return _monic_ratio(num, den)

    @staticmethod
    def from_poly(p: Poly) -> "RatFunc":
        return RatFunc(p, _ONE)

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc(_ZERO, _ONE)

    @staticmethod
    def one() -> "RatFunc":
        return RatFunc(_ONE, _ONE)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other: "RatFunc") -> "RatFunc":
        x, y = (other, self) if self.den.degree == 0 else (self, other)
        if y.den.degree == 0:
            # a/b + c = (a + c*b)/b is reduced: gcd(a + c*b, b) = gcd(a, b) = 1
            return RatFunc(x.num + y.num * x.den, x.den)
        return RatFunc.reduced(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if self.den.degree == 0 == other.den.degree:
            return RatFunc(self.num * other.num, _ONE)
        return RatFunc.reduced(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc.reduced(self.num * other.den, self.den * other.num)

    def shifted(self, k: int) -> "RatFunc":
        # shifting preserves coprimality and the monic denominator
        return RatFunc(shift(self.num, k), shift(self.den, k))

    def __str__(self) -> str:
        if self.den == _ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def _monic_ratio(num: Poly, den: Poly) -> RatFunc:
    """num/den as a RatFunc for a pair already known to be coprime (den
    nonzero): only the denominator is made monic, with no gcd."""
    lc = den.lc
    if lc != 1:
        num = num / lc
        den = den / lc
    return RatFunc(num, den)
