"""Independent oracles and corpus generators shared by the test modules.

Everything here deliberately avoids the production code paths it is used
to check: the resultant oracle is a Sylvester determinant, the gcd oracle
is the classical monic remainder sequence, dispersion is brute-forced by
scanning shifts, `FracPoly` is polynomial arithmetic on plain Fraction
coefficient lists, and the gcd sequence is taken from its definition as
one gcd of two full products per term.  `solve_exact_over_q` is the dense
Gauss-Jordan elimination on Fractions that the fraction-free solver
replaced.  `integer_roots_by_divisors` and
`dispersion_by_divisors` are the integer-root search the modular one
replaced: a Fraction shift resultant interpolated over Q, and the divisors
of its trailing coefficient tested as roots.  `dispersion_by_interpolation`
is the modular search the sampling one replaced: the shift bound is the
sum of the Cauchy root bounds, and every shift comes from the roots of the
shift resultant interpolated mod p (`_gf_shift_resultant`, the
interpolation the power-sum resultant of `dispersion` replaced).  It calls
the same GF(p) root finder that `dispersion` keeps for a window far wider
than deg R, so on that path it checks the window and the candidates kept,
while `dispersion_by_divisors` checks the roots.  `fujiwara_holds` is the
definition of Fujiwara's root bound, checked term by term.
`cleared_by_products` is the clearing of a recurrence by its denominator's
shifts that the lcm clearing replaced: coefficient m times the product of
every other shift.  `poly_solutions_dense` is the undetermined-coefficient
solve that top-down substitution replaced: the equation divided by the gcd
of its polynomials, the images of 1, n, ..., n^bound as the columns of one
dense integer system, and fraction-free elimination on all of it.
`tokenize_by_characters` is the expression scanner that the one-regex
scanner replaced: a loop over the characters that takes any `str.isdigit`
character for a digit and any `str.isspace` character for whitespace.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from ratrec.dispersion import DispersionResult, _gf_roots, _gf_samples, _root_prime, dispersion, resultant
from ratrec.expressions import ParseError
from ratrec.gcdseq import GcdLimit
from ratrec.intutil import factorize
from ratrec.linalg import solve_exact
from ratrec.polys import Poly, RatFunc, divrem, exact_div, gcd_monic, shift
from ratrec.recurrences import LinearRecurrence, SolutionSet, degree_bound


class FracPoly:
    """Dense polynomial over Q as a tuple of Fraction coefficients, ascending,
    no trailing zero: the schoolbook arithmetic the integer core replaced."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FracPoly(out)

    def __neg__(self):
        return FracPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FracPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return FracPoly(out)

    def __eq__(self, other):
        return isinstance(other, FracPoly) and self.coeffs == other.coeffs

    def monic(self):
        return FracPoly([c / self.coeffs[-1] for c in self.coeffs])

    def shift(self, k):
        """self(n + k), by expanding the powers of (n + k)."""
        out = FracPoly()
        power = FracPoly([1])
        step = FracPoly([k, 1])
        for c in self.coeffs:
            out = out + power * FracPoly([c])
            power = power * step
        return out

    def divrem(self, other):
        rem = list(self.coeffs)
        div = other.coeffs
        if len(rem) < len(div):
            return FracPoly(), self
        quo = [Fraction(0)] * (len(rem) - len(div) + 1)
        for pos in range(len(quo) - 1, -1, -1):
            c = rem[pos + len(div) - 1] / div[-1]
            quo[pos] = c
            for i, d in enumerate(div):
                rem[pos + i] -= c * d
        return FracPoly(quo), FracPoly(rem[: len(div) - 1])

    def gcd(self, other):
        """Monic gcd by the Euclidean remainder sequence."""
        a, b = self, other
        while b.coeffs:
            a, b = b, a.divrem(b)[1]
        return a.monic()


def gcd_limit_by_products(p0: Poly, pd: Poly, d: int) -> GcdLimit:
    """The gcd sequence by definition: G_k = gcd of the two k-fold products."""
    n_max = dispersion(shift(pd, -d), p0).value
    if n_max < 0:
        return GcdLimit(-1, Poly.one(), ())
    trace = []
    rising = Poly.one()
    falling = Poly.one()
    for j in range(n_max + 1):
        rising = rising * shift(p0, j)
        falling = falling * shift(pd, -d - j)
        trace.append(gcd_monic(rising, falling))
    return GcdLimit(n_max, trace[-1], tuple(trace))


def cleared_by_products(rec: LinearRecurrence, denominator: Poly) -> LinearRecurrence:
    """The polynomial equation for f, y = f / G, with coefficient m
    multiplied by the product of G(n+j) over j != m, from prefix and suffix
    products, and the right side by the product of all G(n+j)."""
    den_shifts = [shift(denominator, j) for j in range(rec.order + 1)]
    prefix = [Poly.one()]
    for s in den_shifts:
        prefix.append(prefix[-1] * s)
    suffix = [Poly.one()]
    for s in reversed(den_shifts):
        suffix.append(suffix[-1] * s)
    suffix.reverse()
    return LinearRecurrence(
        tuple(q * prefix[m] * suffix[m + 1] for m, q in enumerate(rec.coeffs)),
        rec.rhs * prefix[-1],
    )


def reduction_at_every_shift(lead: Poly, trail: Poly, shifts) -> tuple[list[Poly], Poly, Poly]:
    """The extraction loop shared by Abramov's and the GP reduction, taking
    a gcd at every shift: (step gcds, lead residual, trail residual)."""
    steps = []
    for i in shifts:
        g = gcd_monic(lead, shift(trail, i))
        steps.append(g)
        if g.degree > 0:
            lead = exact_div(lead, g)
            trail = exact_div(trail, shift(g, -i))
    return steps, lead, trail


def det_exact(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination."""
    size = len(matrix)
    m = [row[:] for row in matrix]
    det = Fraction(1)
    for c in range(size):
        pivot = next((i for i in range(c, size) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, size):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [v - f * w for v, w in zip(m[i], m[c])]
    return det


def sylvester_resultant(a: Poly, b: Poly) -> Fraction:
    """Res(a, b) as the determinant of the Sylvester matrix."""
    da, db = int(a.degree), int(b.degree)
    if da == 0:
        return a.lc ** db
    if db == 0:
        return b.lc ** da
    size = da + db
    rows = []
    desc_a = [a.coeff(da - i) for i in range(da + 1)]
    desc_b = [b.coeff(db - i) for i in range(db + 1)]
    for i in range(db):
        rows.append([Fraction(0)] * i + desc_a + [Fraction(0)] * (size - da - 1 - i))
    for i in range(da):
        rows.append([Fraction(0)] * i + desc_b + [Fraction(0)] * (size - db - 1 - i))
    return det_exact(rows)


def monic_ers_gcd(a: Poly, b: Poly) -> Poly:
    """Reference gcd by the monic Euclidean remainder sequence."""
    while not b.is_zero:
        _, r = divrem(a, b)
        a, b = b, (r.monic() if not r.is_zero else r)
    return a.monic()


def brute_dispersion(a: Poly, b: Poly, kmax: int = 30) -> int:
    """Largest k in [0, kmax] with a nontrivial gcd(a(n), b(n+k)), else -1."""
    best = -1
    for k in range(kmax + 1):
        if monic_ers_gcd(a, shift(b, k)).degree >= 1:
            best = k
    return best


def divisors_up_to(n: int, bound: int) -> list[int]:
    """All positive divisors of n that are <= bound, ascending."""
    if n < 1:
        raise ValueError("divisors_up_to expects a positive integer")
    if bound < 1:
        return []
    primes = list(factorize(n).items())
    out: list[int] = []

    def walk(idx: int, value: int) -> None:
        if idx == len(primes):
            out.append(value)
            return
        p, e = primes[idx]
        v = value
        for _ in range(e + 1):
            walk(idx + 1, v)
            if v > bound // p:
                break
            v *= p

    walk(0, 1)
    out.sort()
    return out


def integer_roots_by_divisors(p: Poly) -> set[int]:
    """All integer roots of a nonzero polynomial, from the divisors of the
    trailing coefficient of its primitive part that lie within the Cauchy
    bound, filtered by p(1) and p(-1) and tested by evaluation."""
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


def interpolate_over_q(points: list[tuple[int, Fraction]]) -> Poly:
    """Newton-form interpolation over Q through distinct integer abscissae."""
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


def dispersion_by_divisors(a: Poly, b: Poly) -> DispersionResult:
    """Dispersion from the integer roots of the shift resultant R(h), which
    is interpolated over Q from Fraction resultants at h = 0..deg a deg b."""
    if a.degree == 0 or b.degree == 0:
        return DispersionResult(-1, ())
    count = int(a.degree * b.degree) + 1
    shift_resultant = interpolate_over_q([(h, resultant(a, shift(b, h))) for h in range(count)])
    witnesses = []
    for k in sorted(integer_roots_by_divisors(shift_resultant)):
        if k < 0:
            continue
        g = gcd_monic(a, shift(b, k))
        if g.degree >= 1:
            witnesses.append((k, g))
    value = witnesses[-1][0] if witnesses else -1
    return DispersionResult(value, tuple(witnesses))


def cauchy_bound(ints: tuple[int, ...]) -> int:
    """Ceiling of 1 + max |c_i| / c_d, which bounds the absolute value of
    every complex root of a primitive polynomial of degree d >= 1."""
    return 1 - (-max(map(abs, ints[:-1])) // ints[-1])


def fujiwara_holds(ints: tuple[int, ...], r: int) -> bool:
    """Whether r meets Fujiwara's inequalities for the integer polynomial
    c_d n^d + ... + c_0 given ascending: |c_{d-i}| 2^i <= |c_d| r^i for
    0 < i < d, and |c_0| 2^(d-1) <= |c_d| r^d."""
    d = len(ints) - 1
    lead = abs(ints[d])
    for i in range(1, d):
        if abs(ints[d - i]) * 2**i > lead * r**i:
            return False
    return abs(ints[0]) * 2 ** (d - 1) <= lead * r**d


def _gf_shift_resultant(a, b, p: int) -> list[int]:
    """R(h) = Res_n(a(n), b(n+h)) mod p, for integer coefficient sequences
    whose leading entries p does not divide and p > deg a * deg b: sampled
    at h = 0, 1, ..., deg a * deg b by `dispersion._gf_samples` and
    interpolated in Newton form."""
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


def dispersion_by_interpolation(a: Poly, b: Poly) -> DispersionResult:
    """Dispersion from the roots of the shift resultant mod p, with the shift
    bounded by the sum of the two Cauchy bounds: R mod p is interpolated
    from deg a deg b + 1 modular resultants, its roots found by gcd with
    h^p - h and equal-degree splitting, and each one up to the bound is
    confirmed by the gcd."""
    if a.degree == 0 or b.degree == 0:
        return DispersionResult(-1, ())
    pa, pb = a.primitive, b.primitive
    bound = cauchy_bound(pa) + cauchy_bound(pb)
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


def divides(small: Poly, big: Poly) -> bool:
    return divrem(big, small)[1].is_zero


# -- random generators ------------------------------------------------------


def rand_poly(rng: random.Random, max_deg: int, lo: int = -6, hi: int = 6) -> Poly:
    """Random nonzero polynomial with integer coefficients."""
    deg = rng.randint(0, max_deg)
    coeffs = [rng.randint(lo, hi) for _ in range(deg)]
    lead = 0
    while lead == 0:
        lead = rng.randint(lo, hi)
    return Poly(coeffs + [lead])


def rand_poly_int_roots(rng: random.Random, max_deg: int, root_lo: int, root_hi: int) -> Poly:
    """Random polynomial that splits into integer-rooted linear factors."""
    deg = rng.randint(1, max_deg)
    out = Poly.const(rng.choice([1, 1, 2, -1, 3]))
    for _ in range(deg):
        out = out * Poly((-rng.randint(root_lo, root_hi), 1))
    return out


def planted_pair(rng: random.Random, max_shift: int = 8) -> tuple[Poly, Poly, int]:
    """(p0, pd, d) such that pd(n-d) and p0(n+k) share a factor for some
    k in [0, max_shift]; degrees stay <= 5."""
    d = rng.randint(1, 3)
    k = rng.randint(0, max_shift)
    w = rand_poly_int_roots(rng, 2, -3, 3).monic()
    p0 = rand_poly(rng, 3, -4, 4) * shift(w, -k)
    pd = rand_poly(rng, 3, -4, 4) * shift(w, d)
    if rng.random() < 0.3:
        extra = Poly((-rng.randint(-3, 3), 1))
        j = rng.randint(0, max_shift)
        p0 = p0 * shift(extra, -j) if p0.degree <= 4 else p0
        pd = pd * shift(extra, d) if pd.degree <= 4 else pd
    return p0, pd, d


def random_coprime_pair(rng: random.Random) -> tuple[Poly, Poly]:
    """Coprime (a, b), often with nontrivial dispersion between shifts."""
    a = rand_poly(rng, 3, -4, 4)
    b = rand_poly(rng, 3, -4, 4)
    if rng.random() < 0.6:
        w = Poly((-rng.randint(-3, 3), 1))
        a = a * w
        b = b * shift(w, -rng.randint(1, 5))
    g = monic_ers_gcd(a, b)
    if g.degree > 0:
        a = exact_div(a, g)
        b = exact_div(b, g)
    return a, b


def planted_antidifference_ratio(rng: random.Random) -> RatFunc:
    """Term ratio r of t = (difference of z) for a hypergeometric z whose own
    ratio is a random rational function, so a certificate must exist."""
    while True:
        num = rand_poly(rng, 2, -4, 4)
        den = rand_poly(rng, 2, -4, 4)
        rz = RatFunc.reduced(num, den)
        if rz.is_zero or rz == RatFunc.one():
            continue
        ratio = rz * (rz.shifted(1) - RatFunc.one()) / (rz - RatFunc.one())
        if not ratio.is_zero:
            return ratio


def planted_rational_instance(
    rng: random.Random,
) -> tuple[LinearRecurrence, RatFunc, Poly]:
    """(recurrence, planted solution y = f/g, planted g).

    Coefficients are p_m(n) * g(n+m) and the right side is built by
    substitution, so y solves the recurrence by construction.
    """
    deg_g = rng.randint(1, 4)
    base = rng.randint(-3, 3)
    g = Poly.one()
    for _ in range(deg_g):
        g = g * Poly((-(base + rng.randint(0, 6)), 1))
    f = rand_poly(rng, 4, -5, 5)
    d = rng.randint(1, 2)
    ps = [rand_poly(rng, 2, -4, 4) for _ in range(d + 1)]
    coeffs = tuple(ps[m] * shift(g, m) for m in range(d + 1))
    rhs = Poly.zero()
    for m in range(d + 1):
        rhs = rhs + ps[m] * shift(f, m)
    return LinearRecurrence(coeffs, rhs), RatFunc.reduced(f, g), g


def solve_exact_over_q(matrix, rhs):
    """Solve M x = rhs by Gauss-Jordan elimination on Fraction entries;
    same contract as `ratrec.linalg.solve_exact`, which replaced it."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    aug = [[Fraction(v) for v in matrix[i]] + [Fraction(rhs[i])] for i in range(rows)]

    pivot_cols = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break

    particular = None
    if all(aug[i][cols] == 0 for i in range(r, rows)):
        particular = [Fraction(0)] * cols
        for i, c in enumerate(pivot_cols):
            particular[c] = aug[i][cols]

    basis = []
    for f in (c for c in range(cols) if c not in pivot_cols):
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for i, c in enumerate(pivot_cols):
            vec[c] = -aug[i][f]
        basis.append(vec)
    return particular, basis


def in_affine_family(solutions: SolutionSet, candidate: Poly) -> bool:
    """Exact membership of candidate in particular + span(basis)."""
    if solutions.particular is None:
        return False
    target = candidate - solutions.particular
    basis = solutions.homogeneous_basis
    if not basis:
        return target.is_zero
    height = max([target.degree + 1] + [h.degree + 1 for h in basis if not h.is_zero] + [1])
    height = int(height)
    matrix = [[h.coeff(i) for h in basis] for i in range(height)]
    rhs = [target.coeff(i) for i in range(height)]
    particular, _ = solve_exact_over_q(matrix, rhs)
    return particular is not None


def rand_ratfunc(rng: random.Random) -> RatFunc:
    num = rand_poly(rng, 3, -9, 9) if rng.random() < 0.9 else Poly.zero()
    den = rand_poly(rng, 3, -9, 9)
    return RatFunc.reduced(num, den)


def strip_common_factor(rec: LinearRecurrence) -> LinearRecurrence:
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


def poly_solutions_dense(rec: LinearRecurrence) -> SolutionSet:
    """All polynomial solutions from one dense system: column j holds the
    coefficients of the image of n^j, cleared by one common multiple of the
    content denominators, and `solve_exact` eliminates the whole system."""
    rec = strip_common_factor(rec)
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


def tokenize_by_characters(text: str) -> list[tuple[str, str, int]]:
    """The (kind, text, offset) tokens of text, then ("end", "", len(text)),
    read one character at a time."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < len(text) and text[i].isdigit():
                i += 1
            tokens.append(("int", text[start:i], start))
            continue
        if ch == "n" or ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens
