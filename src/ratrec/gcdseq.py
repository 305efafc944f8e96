"""The converging gcd sequence and the explicit universal denominator.

For an order-d difference equation with trailing coefficient p0 and leading
coefficient pd, define

    G_k(n) = gcd( p0(n) p0(n+1) ... p0(n+k-1),
                  pd(n-d) pd(n-d-1) ... pd(n-d-k+1) ).

The sequence G_1, G_2, ... stabilizes at k = N + 1 where N is the
dispersion of pd(n-d) against p0(n); the stable value is a universal
denominator for the rational solutions of the equation.  `gcd_limit`
steps through the sequence with one small gcd per witness shift, on
primitive integer tuples through the integer gcd kernel of `polys`.  The
same limit has a closed form as a single gcd of two falling-factorial
products, and `universal_denominator` computes it along that second,
independent route.  Every entry point refuses an order d below 1 and a
zero trailing or leading coefficient, with one check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dispersion import DispersionResult, dispersion
from .polys import InputError, Poly, _int_gcd, _make, _mul_ints, _shift_ints, falling_product, gcd_monic, shift


@dataclass(frozen=True)
class GcdLimit:
    """Stabilized gcd sequence: its index bound, limit, and full trace.

    max_shift is the dispersion N (-1 when the sequence is identically 1);
    trace holds G_1 .. G_{N+1}, each monic, forming a divisibility chain
    whose last entry equals limit.
    """

    max_shift: int
    limit: Poly
    trace: tuple[Poly, ...]


def gcd_term(p0: Poly, pd: Poly, d: int, k: int) -> Poly:
    """The k-th member G_k of the gcd sequence (k >= 1), monic."""
    _check_pair(p0, pd, d)
    if k < 1:
        raise InputError("gcd sequence index starts at 1")
    rising = Poly.one()
    falling = Poly.one()
    for j in range(k):
        rising = rising * shift(p0, j)
        falling = falling * shift(pd, -d - j)
    return gcd_monic(rising, falling)


def gcd_limit(p0: Poly, pd: Poly, d: int) -> GcdLimit:
    """Stabilized value of the gcd sequence, with the trace G_1 .. G_{N+1}.

    With a_i = p0(n+i) and b_i = pd(n-d-i), G_k is the gcd of the products
    A_k = a_0 ... a_{k-1} and B_k = b_0 ... b_{k-1}.  The coprime cofactors
    U_k = A_k / G_k and V_k = B_k / G_k give the next term from small
    polynomials only:

        G_{k+1} = G_k * gcd(U_k, b_k) * gcd(a_k, V_k)
                      * gcd(a_k / gcd(a_k, V_k), b_k / gcd(U_k, b_k)),

    because a factor shared by U_k a_k and V_k b_k beyond the first two
    gcds must divide both reduced a_k and b_k.  U_k and V_k are kept as
    the lists of what remains of each a_i and b_i.  a_i and b_j share a
    factor only when i + j is a witness shift of the dispersion, so
    gcd(U_k, b_k) is taken piece by piece over the remnants of the a_i with
    i + k a witness, using gcd(xy, b) = gcd(x, b) * gcd(y, b / gcd(x, b));
    gcd(a_k, V_k) likewise, and the last gcd only when 2k is a witness.
    No step forms either product.

    Every G_k is monic and a remnant matters only up to a unit, so the loop
    runs on primitive integer tuples through the integer gcd kernel, with
    no content: G_k is kept as its primitive form, and each trace entry
    becomes a monic Poly once, shared by the entries up to the next
    nontrivial step.
    """
    lead, shifts = _lead_dispersion(p0, pd, d)
    n_max = shifts.value
    if n_max < 0:
        return GcdLimit(-1, Poly.one(), ())
    witnessed = [k for k, _ in shifts.witnesses]
    a0, b0 = p0.primitive, lead.primitive
    rest_a: list[tuple[int, ...]] = []  # U_k, as the remnants of a_0 .. a_{k-1}
    rest_b: list[tuple[int, ...]] = []  # V_k, as the remnants of b_0 .. b_{k-1}
    trace = []
    g: tuple[int, ...] = (1,)
    monic = Poly.one()
    for k in range(n_max + 1):
        partners = [w - k for w in witnessed if k <= w < 2 * k]
        b, from_u = _peel(rest_a, partners, _shift_ints(b0, -k))
        a, from_v = _peel(rest_b, partners, _shift_ints(a0, k))
        step = _mul_ints(from_u, from_v)
        if 2 * k in witnessed:
            fresh, a, b = _int_gcd(a, b)
            step = _mul_ints(step, fresh)
        rest_a.append(a)
        rest_b.append(b)
        if len(step) > 1:
            g = _mul_ints(g, step)
            monic = _make(Fraction(1, g[-1]), g)
        trace.append(monic)
    return GcdLimit(n_max, monic, tuple(trace))


def _peel(
    remnants: list[tuple[int, ...]], indices: list[int], p: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Divide h = gcd(prod of remnants[i] for i in indices, p) out of p and
    out of those remnants, in place, all primitive; returns (p / h, h)."""
    found: tuple[int, ...] = (1,)
    for i in indices:
        h, remnants[i], p = _int_gcd(remnants[i], p)
        found = _mul_ints(found, h)
    return p, found


def _check_pair(p0: Poly, pd: Poly, d: int) -> None:
    """Refuse an equation order below 1, as `LinearRecurrence` does, and a
    zero trailing or leading coefficient."""
    if d < 1:
        raise InputError("the equation order d must be positive")
    if p0.is_zero or pd.is_zero:
        raise InputError("the trailing and leading coefficients must be nonzero")


def _lead_dispersion(p0: Poly, pd: Poly, d: int) -> tuple[Poly, DispersionResult]:
    """pd(n-d) and its dispersion against p0(n), once the pair is checked;
    every route to a universal denominator starts from them."""
    _check_pair(p0, pd, d)
    lead = shift(pd, -d)
    return lead, dispersion(lead, p0)


def universal_denominator(p0: Poly, pd: Poly, d: int) -> Poly:
    """Universal denominator via the closed-form gcd of falling factorials.

    Equals gcd_limit(p0, pd, d).limit, but computed independently as
    gcd([p0(n+N)] falling (N+1), [pd(n-d)] falling (N+1)); returns 1 when
    the dispersion N is -1.
    """
    _, shifts = _lead_dispersion(p0, pd, d)
    return _universal_from_shift(p0, pd, d, shifts.value)


def _universal_from_shift(p0: Poly, pd: Poly, d: int, n_max: int) -> Poly:
    if n_max < 0:
        return Poly.one()
    lead = falling_product(shift(p0, n_max), n_max + 1)
    trail = falling_product(shift(pd, -d), n_max + 1)
    return gcd_monic(lead, trail)
