"""Exact polynomial helpers over Q for the benchmark, independent of ratrec.

The benchmark plants its inputs and checks ratrec's answers with this code
only, so a defect in ratrec's own polynomial layer cannot hide itself.  A
polynomial is a tuple of Fractions in ascending degree with no trailing
zero; the zero polynomial is the empty tuple.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb

Q = tuple  # tuple[Fraction, ...], ascending degree


def norm(cs) -> Q:
    out = [Fraction(c) for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def deg(p: Q) -> int:
    return len(p) - 1


def add(a: Q, b: Q) -> Q:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return norm(out)


def scale(a: Q, c) -> Q:
    return norm(x * c for x in a)


def mul(a: Q, b: Q) -> Q:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return norm(out)


def product(factors) -> Q:
    out: Q = (Fraction(1),)
    for f in factors:
        out = mul(out, f)
    return out


def shift(a: Q, k: int) -> Q:
    """a(n + k), by the binomial expansion of each power."""
    out = [Fraction(0)] * len(a)
    for i, c in enumerate(a):
        for j in range(i + 1):
            out[j] += c * comb(i, j) * k ** (i - j)
    return norm(out)


def evaluate(a: Q, x) -> Fraction:
    """a(x) for rational x, computed in integers: sum c_i u^i v^(d-i) / (den v^d)."""
    if not a:
        return Fraction(0)
    den = 1
    for c in a:
        den = den * c.denominator // math.gcd(den, c.denominator)
    x = Fraction(x)
    u, v = x.numerator, x.denominator
    acc, w = 0, 1
    for c in reversed(a):
        acc = acc * u + c.numerator * (den // c.denominator) * w
        w *= v
    return Fraction(acc, den * w // v)


def divmod_q(a: Q, b: Q) -> tuple[Q, Q]:
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for pos in range(len(a) - len(b), -1, -1):
        c = rem[pos + len(b) - 1] / b[-1]
        quo[pos] = c
        if c:
            for i, d in enumerate(b):
                rem[pos + i] -= c * d
    return norm(quo), norm(rem[: len(b) - 1])


def divides(b: Q, a: Q) -> bool:
    return not divmod_q(a, b)[1]


def monic(a: Q) -> Q:
    return scale(a, 1 / a[-1])


def gcd(a: Q, b: Q) -> Q:
    """Monic gcd by the Euclidean algorithm over Q."""
    while b:
        a, b = b, divmod_q(a, b)[1]
    return monic(a) if a else ()


def root_bound(a: Q) -> int:
    """An integer bound on |root| for every complex root (Fujiwara)."""
    d = deg(a)
    terms = [float(abs(a[d - i] / a[d])) ** (1 / i) for i in range(1, d)]
    terms.append(float(abs(a[0] / (2 * a[d]))) ** (1 / d))
    return 1 + int(2 * max(terms))


def dispersion(a: Q, b: Q) -> int:
    """Largest k >= 0 with deg gcd(a(n), b(n + k)) >= 1, or -1.

    A common root x of a(n) and b(n + k) makes x and x + k roots of a and
    b, so k never exceeds the sum of their root bounds.
    """
    if deg(a) < 1 or deg(b) < 1:
        return -1
    am, bm = _mod_p(a), _mod_p(b)
    for k in range(root_bound(a) + root_bound(b), -1, -1):
        # a common factor over Q survives reduction mod a prime that divides neither
        # leading coefficient, so a trivial gcd mod _P rules k out
        if am and bm and not _shares_factor_mod_p(am, _shift_mod_p(bm, k)):
            continue
        if deg(gcd(a, shift(b, k))) >= 1:
            return k
    return -1


_P = 2**31 - 1


def _mod_p(a: Q) -> list[int] | None:
    """a with its denominators cleared, mod _P; None if _P divides a denominator
    or the leading coefficient."""
    den = math.lcm(*(c.denominator for c in a))
    out = [c.numerator * (den // c.denominator) % _P for c in a]
    return out if den % _P and out[-1] else None


def _shift_mod_p(a: list[int], k: int) -> list[int]:
    out = [0] * len(a)
    for i, c in enumerate(a):
        for j in range(i + 1):
            out[j] = (out[j] + c * comb(i, j) * pow(k, i - j, _P)) % _P
    return out


def _shares_factor_mod_p(a: list[int], b: list[int]) -> bool:
    """Whether a and b, of degree >= 1 with nonzero leading coefficients, have a
    gcd of degree >= 1 over GF(_P)."""
    a = list(a)
    while b:
        inv = pow(b[-1], -1, _P)
        while len(a) >= len(b):
            c = a[-1] * inv % _P
            off = len(a) - len(b)
            for i, d in enumerate(b):
                a[off + i] = (a[off + i] - c * d) % _P
            while a and a[-1] == 0:
                a.pop()
            if not a:
                break
        a, b = b, a
    return len(a) > 1


def linear(alpha: int, beta: int) -> Q:
    """alpha*n + beta."""
    return norm((beta, alpha))


def to_expr(a: Q) -> str:
    """Expression text in the syntax of the ratrec parser."""
    if not a:
        return "0"
    terms = []
    for i, c in enumerate(a):
        if c == 0:
            continue
        coeff = f"({c.numerator})" if c.denominator == 1 else f"({c.numerator}/{c.denominator})"
        power = "" if i == 0 else ("*n" if i == 1 else f"*n^{i}")
        terms.append(coeff + power)
    return "(" + "+".join(terms) + ")"
