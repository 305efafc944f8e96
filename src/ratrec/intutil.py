"""Integer helpers: a Miller-Rabin primality test and the stream of
word-sized primes for modular gcds.

The primality test picks the small primes that integer roots and
dispersions are found modulo, and continues the prime stream past its
fixed table.  `PrimeStream` serves only the modular gcd, which `polys`
runs past the heuristic gcd's size limit, and the benchmark's tracer,
`perfbench/tracer.py`, which counts its draws by name as
`polys.gcd_primes_per_call`.
`factorize` (trial division, then Brent's variant of Pollard's rho) has
no caller in the package: integer roots are found modulo a prime, with
no divisor enumeration.  It stays only because the tracer looks
`factorize` up by name when it installs.  Both lookups go once the
benchmark retires those spans and metrics.
"""

from __future__ import annotations

import math

# Deterministic Miller-Rabin witnesses for n < 3,317,044,064,679,887,385,961,981.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Extra fixed witnesses for larger inputs, where the test is probabilistic;
# failure odds are below 4**-20.
_MR_EXTRA = (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses = _MR_WITNESSES if n < 3317044064679887385961981 else _MR_WITNESSES + _MR_EXTRA
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# `_brent_rho` and `factorize` serve only the benchmark tracer's lookup of
# `factorize` by name (see the module docstring).


def _brent_rho(n: int) -> int:
    """Return a nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    # trial division by 6k+-1 up to a modest bound before falling back to rho
    d = 49
    while d * d <= n and d < 1 << 20:
        for step in (0, 4):
            dd = d + step
            while n % dd == 0:
                factors[dd] = factors.get(dd, 0) + 1
                n //= dd
        d += 6
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        f = _brent_rho(m)
        stack.append(f)
        stack.append(m // f)
    return factors


# The 64 largest primes below 2^61, as 2^61 - d, descending.
CRT_PRIMES = tuple((1 << 61) - d for d in (
    1, 31, 45, 229, 259, 283, 339, 391, 403, 465, 531, 579, 675, 759, 799, 819,
    829, 843, 859, 939, 985, 1015, 1153, 1195, 1215, 1281, 1299, 1351, 1371, 1425, 1489, 1525,
    1533, 1543, 1609, 1621, 1669, 1741, 1753, 1813, 1845, 1849, 1855, 1863, 1869, 1909, 1921, 1923,
    1945, 1959, 2023, 2083, 2115, 2133, 2185, 2371, 2373, 2383, 2385, 2401, 2539, 2551, 2595, 2605,
))


class PrimeStream:
    """Descending primes below 2^61: CRT_PRIMES first, then found by a
    Miller-Rabin search below the last table entry."""

    def __init__(self):
        self._index = 0
        self._next_candidate = CRT_PRIMES[-1] - 2

    def __iter__(self):
        return self

    def __next__(self) -> int:
        i = self._index
        if i < len(CRT_PRIMES):
            self._index = i + 1
            return CRT_PRIMES[i]
        c = self._next_candidate
        while not is_probable_prime(c):
            c -= 2
        self._next_candidate = c - 2
        return c
