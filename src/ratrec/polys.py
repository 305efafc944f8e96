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
parts modulo word-sized primes with CRT lifting and an exact divisibility
check, which keeps the large shifted-product gcds used elsewhere in this
package fast; the result is identical to the classical monic remainder
sequence.
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

# from this many coefficients in the shorter factor on, a product packs both
# factors into one integer rather than running the schoolbook loops
_KRONECKER_MIN_LEN = 12


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
        ints = [c.numerator * (den // c.denominator) for c in cs]
        g = math.gcd(*ints)
        if ints[-1] < 0:
            g = -g
        self._content = Fraction(g, den)
        self._prim = tuple([x // g for x in ints]) if g != 1 else tuple(ints)
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
            raise ValueError("monomial power must be nonnegative")
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
            raise ValueError("negative polynomial power")
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
            raise ValueError("the zero polynomial has no monic form")
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


def _from_ints(ints: list[int], scale: Fraction) -> Poly:
    """The Poly scale * sum ints[i] n^i, for any integer list."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return _ZERO
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [x // g for x in ints]
        scale = scale * g
    return _make(scale, tuple(ints))


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
    """sum a[i] * 256^(width*i) for signed a[i] with |a[i]| < 256^width."""
    blank = bytes(width)
    value = int.from_bytes(b"".join([x.to_bytes(width, "little") if x > 0 else blank for x in a]), "little")
    if min(a) < 0:
        value -= int.from_bytes(
            b"".join([(-x).to_bytes(width, "little") if x < 0 else blank for x in a]), "little"
        )
    return value


def _unpack(value: int, width: int, count: int) -> list[int]:
    """The `count` signed digits of base 256^width in value, each of absolute
    value below 256^width / 2.

    Adding half a slot to every digit makes them all nonnegative, so each
    slot is read on its own with no borrow passing between slots.
    """
    half = 1 << (8 * width - 1)
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


def _exact_quo_ints(a: tuple[int, ...], b: tuple[int, ...]) -> "list[int] | None":
    """a / b in Z[n] when b divides a there, else None (b nonzero)."""
    lb = b[-1]
    db = len(b) - 1
    if len(a) <= db:
        return None if any(a) else []
    rem = list(a)
    quo = [0] * (len(a) - db)
    low = b[:-1]
    for top in range(len(a) - 1, db - 1, -1):
        lead = rem[top]
        if lead:
            q, r = divmod(lead, lb)
            if r:
                return None
            quo[top - db] = q
            off = top - db
            for i, y in enumerate(low):
                rem[off + i] -= q * y
    return quo if not any(rem[:db]) else None


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
    return _make(a._content / b._content, tuple(quo))


def shift(a: Poly, k: int) -> Poly:
    """The composed polynomial a(n + k)."""
    if k == 0 or not a._prim:
        return a
    return _make(a._content, _shift_ints(a._prim, k))


def falling_product(f: Poly, k: int) -> Poly:
    """The product f(n) f(n-1) ... f(n-k+1); the empty product (k=0) is 1."""
    if k < 0:
        raise ValueError("falling_product needs k >= 0")
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


def _gf_rem(f: list[int], g: list[int], p: int) -> list[int]:
    """f mod g over GF(p), for lists of residues with no trailing zero and
    g nonempty; f is reduced in place and returned."""
    return _gf_rem_monic(f, _gf_monic_low(g, p), p)


def _gf_monic_low(g: list[int], p: int) -> list[int]:
    """The coefficients below the leading one of g made monic over GF(p),
    which is all `_gf_rem_monic` needs of a modulus."""
    inv = pow(g[-1], -1, p)
    return [x * inv % p for x in g[:-1]]


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


def _gf_gcd(a: "tuple[int, ...] | list[int]", b: "tuple[int, ...] | list[int]", p: int) -> list[int]:
    """Monic gcd of two integer-coefficient polys over GF(p); [] if either is 0 mod p."""

    def red(xs) -> list[int]:
        ys = [x % p for x in xs]
        while ys and ys[-1] == 0:
            ys.pop()
        return ys

    f, g = red(a), red(b)
    if not f or not g:
        return []
    while g:
        f, g = g, _gf_rem(f, g, p)
    inv = pow(f[-1], -1, p)
    return [x * inv % p for x in f]


def _int_gcd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Primitive gcd in Z[n] of primitive a, b of degree >= 1 (modular CRT)."""
    lc_bound = math.gcd(a[-1], b[-1])
    acc: list[int] | None = None
    modulus = 1
    for p in PrimeStream():
        if a[-1] % p == 0 or b[-1] % p == 0:
            continue
        gp = _gf_gcd(a, b, p)
        if len(gp) == 1:
            return (1,)  # coprime: the modular degree only ever overshoots
        scaled = [x * lc_bound % p for x in gp]
        if acc is None or len(scaled) < len(acc):
            acc, modulus = scaled, p
        elif len(scaled) == len(acc):
            # coefficientwise CRT merge
            inv = pow(modulus, -1, p)
            acc = [old + modulus * ((new - old) % p * inv % p) for old, new in zip(acc, scaled)]
            modulus *= p
        else:
            continue  # unlucky prime, degree too high
        half = modulus // 2
        candidate = [c - modulus if c > half else c for c in acc]
        if candidate[-1] == 0:
            continue  # leading bound not yet inside the lift range
        content = math.gcd(*candidate)
        if candidate[-1] < 0:
            content = -content
        g = tuple([c // content for c in candidate])
        if _exact_quo_ints(a, g) is not None and _exact_quo_ints(b, g) is not None:
            return g
    raise AssertionError("unreachable: prime stream is infinite")


def gcd_monic(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(x, 0) = monic(x)."""
    pa, pb = a._prim, b._prim
    if not pa and not pb:
        raise ValueError("gcd of two zero polynomials is undefined")
    if not pa:
        return b.monic()
    if not pb:
        return a.monic()
    if len(pa) == 1 or len(pb) == 1:
        return _ONE
    if pa == pb:
        return a.monic()
    g = _int_gcd(pa, pb)
    if len(g) == 1:
        return _ONE
    return _make(Fraction(1, g[-1]), g)


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
        g = gcd_monic(num, den)
        if g.degree > 0:
            num = exact_div(num, g)
            den = exact_div(den, g)
        lc = den.lc
        if lc != 1:
            num = num / lc
            den = den / lc
        return RatFunc(num, den)

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
        return RatFunc.reduced(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
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
