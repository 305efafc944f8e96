"""Seeded input generators for the three benchmark workloads.

Every generator takes a `random.Random` built from the run's seed and
returns requests together with what the benchmark knows about their
answers (planted solutions, verdicts, shifts).  ratrec only ever sees the
inputs.  Each request's shape (order, degrees, dispersion target) is a
fixed function of its position, and the seed draws the constants, so two
seeds give the same mix of request sizes with different polynomials; that
keeps the run-to-run spread of the timings small.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from qpoly import (
    Q,
    add,
    deg,
    dispersion,
    divmod_q,
    evaluate,
    gcd,
    linear,
    mul,
    norm,
    product,
    scale,
    shift,
    to_expr,
)

ONE: Q = (Fraction(1),)


@dataclass
class Request:
    """One request: its inputs for ratrec, and the planted facts to check."""

    index: int
    kind: str
    args: dict
    planted: dict = field(default_factory=dict)
    props: dict = field(default_factory=dict)


def _nonzero(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        v = rng.randint(lo, hi)
        if v:
            return v


def _reduce(num: Q, den: Q) -> tuple[Q, Q]:
    g = gcd(num, den)
    if deg(g) > 0:
        num, den = divmod_q(num, g)[0], divmod_q(den, g)[0]
    return scale(num, 1 / den[-1]), scale(den, 1 / den[-1])


# -- gosper-cli -------------------------------------------------------------

# The popularity law is taken from web request traffic: Breslau, Cao, Fan, Phillips
# and Shenker, "Web Caching and Zipf-like Distributions: Evidence and Implications"
# (INFOCOM 1999), measured exponents of 0.64 to 0.83.  No trace of requests to a
# summation service exists to take it from, so the exponent is an assumption, and so
# is the pool size: 600 ratios make about half of the ~1000 requests of a 25 s run
# repeats (three quarters at twice as many requests), where 96 made over 90 %.
GOSPER_POOL = 600
GOSPER_ZIPF_S = 0.8
GOSPER_ZIPF_BLOCK = 1200
# (deg p, deg q, spread of q's roots) of the planted certificate y = s*p/q,
# cycled over the summable pool entries; the spread is the ratio's dispersion
_GOSPER_SHAPES = ((1, 1, 0), (0, 2, 1), (1, 2, 3), (2, 1, 0), (2, 2, 2), (0, 2, 6), (1, 2, 9), (2, 2, 12))


def _gosper_summable(rng: random.Random, shape: tuple[int, int, int]) -> tuple[Q, Q, Q, Q]:
    """A ratio r = (1 + y(n)) / y(n+1) whose Gosper certificate is y = s*p/q.

    q is monic with integer roots and p's roots are not integers, so the
    dispersion is as a rule the spread of q's roots; p + q can still have a
    root that adds a shift, and such draws are redrawn, so that the cost of
    a pool entry depends on its shape and not on the seed.
    """
    dp, dq, spread = shape
    while True:
        base = rng.randint(-12, 12)
        q = product(linear(1, -r) for r in (base, base + spread)[:dq])
        p_factors = []
        for _ in range(dp):
            p_factors.append(linear(2, 2 * rng.randint(-6, 6) + 1))
        s = Fraction(rng.choice((1, -1, 2, -2)), rng.choice((1, 2)))
        sp = scale(product(p_factors), s)
        top = add(q, sp)
        if not top:
            continue
        num, den = _reduce(mul(top, shift(q, 1)), mul(q, shift(sp, 1)))
        if deg(num) <= 4 and deg(den) <= 4 and dispersion(shift(num, -1), den) == spread:
            return num, den, sp, q


# term ratios of classical sums that have no hypergeometric antidifference
def _nosol_harmonic(a: int) -> tuple[Q, Q]:  # t = 1/(n+a)
    return linear(1, a), linear(1, a + 1)


def _nosol_harmonic2(a: int) -> tuple[Q, Q]:  # t = 1/(n+a)^2
    return mul(linear(1, a), linear(1, a)), mul(linear(1, a + 1), linear(1, a + 1))


def _nosol_inv_factorial(a: int) -> tuple[Q, Q]:  # t = 1/(n+a)!
    return ONE, linear(1, a + 1)


def _nosol_factorial(a: int) -> tuple[Q, Q]:  # t = (n+a)!
    return linear(1, a + 1), ONE


def _nosol_central_binomial(a: int) -> tuple[Q, Q]:  # t = binomial(2(n+a), n+a)
    return linear(4, 4 * a + 2), linear(1, a + 1)


_NOSOL = (_nosol_harmonic, _nosol_inv_factorial, _nosol_harmonic2, _nosol_factorial, _nosol_central_binomial)


def gosper_pool(rng: random.Random) -> list[Request]:
    """Distinct term ratios; every third one has no antidifference."""
    pool: list[Request] = []
    seen: set[tuple[Q, Q]] = set()
    rank = 0
    while len(pool) < GOSPER_POOL:
        if rank % 3 == 2:
            num, den = _NOSOL[(rank // 3) % len(_NOSOL)](rng.randint(0, 99))
            planted: dict = {"summable": False}
        else:
            shape = _GOSPER_SHAPES[(rank - rank // 3) % len(_GOSPER_SHAPES)]
            num, den, y_num, y_den = _gosper_summable(rng, shape)
            planted = {"summable": True, "y_num": y_num, "y_den": y_den}
        if (num, den) in seen:
            continue
        rank += 1
        seen.add((num, den))
        text = f"{to_expr(num)}/{to_expr(den)}"
        props = {
            "dispersion": dispersion(shift(num, -1), den),
            "num_degree": deg(num),
            "den_degree": deg(den),
        }
        pool.append(Request(len(pool), "gosper", {"ratio": text, "num": num, "den": den}, planted, props))
    return pool


def zipf_stream(rng: random.Random, size: int):
    """Endless pool indices with P(rank r) proportional to 1/(r+1)^GOSPER_ZIPF_S.

    Each block of about GOSPER_ZIPF_BLOCK requests holds every rank its
    expected number of times (at least once), shuffled; this keeps the mix of
    cheap and costly ratios the same from seed to seed where independent
    draws would not.
    """
    weights = [1 / (r + 1) ** GOSPER_ZIPF_S for r in range(size)]
    total = sum(weights)
    order = [r for r, w in enumerate(weights) for _ in range(max(1, round(GOSPER_ZIPF_BLOCK * w / total)))]
    while True:
        rng.shuffle(order)
        yield from order


# -- ratsolve-planted ----------------------------------------------------------

# (order, deg g, deg f, spread of g's roots) cycled over the requests
_RATSOLVE_SHAPES = (
    (1, 3, 2, 6), (2, 4, 3, 5), (3, 2, 1, 12), (1, 6, 5, 5), (2, 2, 4, 9), (3, 5, 2, 4),
    (1, 4, 0, 9), (2, 6, 1, 5), (3, 3, 3, 10), (1, 2, 4, 12), (2, 5, 5, 6), (3, 4, 0, 7),
)


def ratsolve_request(rng: random.Random, index: int) -> Request:
    """sum_m c_m(n) y(n+m) = rhs(n) with a planted solution y = f/g.

    c_m = a_m(n) * g(n+m) keeps rhs = sum_m a_m(n) f(n+m) polynomial.  g has
    distinct integer roots whose spread is the dispersion of the leading
    against the trailing coefficient.  a_d is a constant; so is a_0, except
    in every fourth request, where it is c*(n - r) with r inside g's root
    span, so that the trailing coefficient is not g times a constant but no
    shift beyond the spread appears.  End coefficients with larger or
    non-integer roots are left out: the integer-root search over their
    resultants took from 0.1 to 40 s on one shape, and one such request
    swamps a run.
    """
    order, dg, df, spread = _RATSOLVE_SHAPES[index % len(_RATSOLVE_SHAPES)]
    base = rng.randint(-8, 8)
    inner = rng.sample(range(base + 1, base + spread), dg - 2)
    roots = sorted({base, base + spread, *inner})
    g = product(linear(1, -r) for r in roots)
    while True:
        f = norm(rng.randint(-5, 5) for _ in range(df + 1))
        if f and deg(f) == df and all(evaluate(f, r) != 0 for r in roots):
            break
    a = [(Fraction(_nonzero(rng, -3, 3)),)]
    if index % 4 == 2:
        a[0] = mul(a[0], linear(1, -rng.randint(roots[0], roots[-1])))
    for _ in range(order - 1):
        a.append(norm((_nonzero(rng, -4, 4), *(rng.randint(-4, 4) for _ in range(rng.randint(0, 2))))))
    a.append((Fraction(_nonzero(rng, -3, 3)),))
    coeffs = [mul(a[m], shift(g, m)) for m in range(order + 1)]
    rhs: Q = ()
    for m in range(order + 1):
        rhs = add(rhs, mul(a[m], shift(f, m)))
    props = {
        # pd(n-d) and p0(n) are g(n) up to constants: the dispersion is g's root spread
        "dispersion": roots[-1] - roots[0],
        "order": order,
        "a0_degree": deg(a[0]),
        "coeff_degree": max(deg(c) for c in coeffs),
        "g_degree": dg,
        "f_degree": df,
    }
    planted = {"f": f, "g": g, "g_roots": roots}
    return Request(index, "ratsolve", {"coeffs": coeffs, "rhs": rhs}, planted, props)


# -- denominators-wide ---------------------------------------------------------

DENOM_SHIFTS = (22, 16, 28, 19, 25, 15, 30, 18, 24, 21, 27, 17, 29, 20, 23, 26)
DENOM_ORDERS = (3, 1, 2)
# alpha of the planted factor (alpha*n + beta): alpha^N grows the coefficients of
# the shifted products, so it is cycled rather than drawn, like the other shape parameters
DENOM_ALPHAS = (1, 2, 1, 3, 2)
# (deg p0, deg pd) cycled over the requests; all at most 4, and the cycle
# lengths are prime to each other so every combination comes up
DENOM_DEGREES = ((3, 3), (2, 4), (4, 2), (3, 2), (2, 3), (2, 2), (3, 3))


def _irreducible_quadratic(rng: random.Random) -> Q:
    """n^2 + b*n + c with no rational root."""
    while True:
        b, c = rng.randint(-4, 4), rng.randint(1, 12)
        if b * b - 4 * c < 0:
            return norm((c, b, 1))


def denominators_request(rng: random.Random, index: int) -> Request:
    """(p0, pd, d) whose dispersion of pd(n-d) against p0(n) is a planted N.

    p0 holds (alpha*n + beta) and pd holds the same factor moved by N + d,
    so they meet at shift N; every other request also shares an irreducible
    quadratic at a smaller shift, and the remaining factors are monic
    linear ones, redrawn until no shift above N appears.  Every third
    request is order 1 with coprime p0, pd and also goes through the GP
    representation.  Any universal denominator vanishes at the N + 1 roots
    of the chain (alpha*(n+i) + beta), 0 <= i <= N.
    """
    n_target = DENOM_SHIFTS[index % len(DENOM_SHIFTS)]
    order = DENOM_ORDERS[index % len(DENOM_ORDERS)]
    deg_p0, deg_pd = DENOM_DEGREES[index % len(DENOM_DEGREES)]
    alpha = DENOM_ALPHAS[index % len(DENOM_ALPHAS)]
    while True:
        beta = rng.randint(-4, 4)
        p0_factors = [linear(alpha, beta)]
        pd_factors = [linear(alpha, beta + alpha * (n_target + order))]
        if index % 2 == 0 and min(deg_p0, deg_pd) >= 3:
            quad = _irreducible_quadratic(rng)
            p0_factors.append(quad)
            pd_factors.append(shift(quad, rng.randint(0, n_target - 1) + order))
        p0_factors += [linear(1, rng.randint(-8, 8)) for _ in range(deg_p0 - sum(deg(f) for f in p0_factors))]
        pd_factors += [linear(1, rng.randint(-8, 8)) for _ in range(deg_pd - sum(deg(f) for f in pd_factors))]
        p0 = scale(product(p0_factors), rng.choice((1, -1)))
        pd = scale(product(pd_factors), rng.choice((1, -1)))
        if order == 1 and deg(gcd(p0, pd)) > 0:
            continue
        n_actual = dispersion(shift(pd, -order), p0)
        if n_actual == n_target:
            break
    props = {"dispersion": n_actual, "order": order, "p0_degree": deg(p0), "pd_degree": deg(pd)}
    chain = [Fraction(-beta, alpha) - i for i in range(n_target + 1)]
    planted = {"shift": n_target, "gp": order == 1, "chain_roots": chain}
    return Request(index, "denominators", {"p0": p0, "pd": pd, "order": order}, planted, props)
