"""The converging gcd sequence and the explicit universal denominator.

For an order-d difference equation with trailing coefficient p0 and leading
coefficient pd, define

    G_k(n) = gcd( p0(n) p0(n+1) ... p0(n+k-1),
                  pd(n-d) pd(n-d-1) ... pd(n-d-k+1) ).

The sequence G_1, G_2, ... stabilizes at k = N + 1 where N is the
dispersion of pd(n-d) against p0(n); the stable value is a universal
denominator for the rational solutions of the equation.  The same limit
has a closed form as a single gcd of two falling-factorial products, and
`universal_denominator` computes it along that second, independent route.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dispersion import dispersion
from .polys import Poly, exact_div, falling_product, gcd_monic, shift


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
    if p0.is_zero or pd.is_zero:
        raise ValueError("gcd sequence needs nonzero coefficient polynomials")
    if k < 1:
        raise ValueError("gcd sequence index starts at 1")
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
    """
    if p0.is_zero or pd.is_zero:
        raise ValueError("gcd sequence needs nonzero coefficient polynomials")
    lead = shift(pd, -d)
    shifts = dispersion(lead, p0)
    n_max = shifts.value
    if n_max < 0:
        return GcdLimit(-1, Poly.one(), ())
    witnessed = [k for k, _ in shifts.witnesses]
    rest_a: list[Poly] = []  # U_k, as the remnants of a_0 .. a_{k-1}
    rest_b: list[Poly] = []  # V_k, as the remnants of b_0 .. b_{k-1}
    trace = []
    g = Poly.one()
    for k in range(n_max + 1):
        partners = [w - k for w in witnessed if k <= w < 2 * k]
        b, from_u = _peel(rest_a, partners, shift(lead, -k))
        a, from_v = _peel(rest_b, partners, shift(p0, k))
        step = from_u * from_v
        if 2 * k in witnessed:
            fresh = gcd_monic(a, b)
            if fresh.degree > 0:
                a, b = exact_div(a, fresh), exact_div(b, fresh)
                step = step * fresh
        rest_a.append(a)
        rest_b.append(b)
        if step.degree > 0:
            g = g * step
        trace.append(g)
    return GcdLimit(n_max, g, tuple(trace))


def _peel(remnants: list[Poly], indices: list[int], p: Poly) -> tuple[Poly, Poly]:
    """Divide h = gcd(prod of remnants[i] for i in indices, p) out of p and
    out of those remnants, in place; returns (p / h, h)."""
    found = Poly.one()
    for i in indices:
        h = gcd_monic(remnants[i], p)
        if h.degree > 0:
            remnants[i] = exact_div(remnants[i], h)
            p = exact_div(p, h)
            found = found * h
    return p, found


def universal_denominator(p0: Poly, pd: Poly, d: int) -> Poly:
    """Universal denominator via the closed-form gcd of falling factorials.

    Equals gcd_limit(p0, pd, d).limit, but computed independently as
    gcd([p0(n+N)] falling (N+1), [pd(n-d)] falling (N+1)); returns 1 when
    the dispersion N is -1.
    """
    if d < 1:
        raise ValueError("the equation order d must be positive")
    if p0.is_zero or pd.is_zero:
        raise ValueError("universal denominator needs nonzero coefficients")
    n_max = dispersion(shift(pd, -d), p0).value
    return _universal_from_shift(p0, pd, d, n_max)


def _universal_from_shift(p0: Poly, pd: Poly, d: int, n_max: int) -> Poly:
    if n_max < 0:
        return Poly.one()
    lead = falling_product(shift(p0, n_max), n_max + 1)
    trail = falling_product(shift(pd, -d), n_max + 1)
    return gcd_monic(lead, trail)
