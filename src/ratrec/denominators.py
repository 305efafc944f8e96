"""Abramov's universal-denominator reduction, Petkovsek's GP reduction, and
the Gosper / GP representations of a rational function with their checkers.

Both reductions peel shifted common factors off the pair formed by the
leading and trailing coefficients of a difference equation.  Abramov's loop
runs the shift index downward starting from (pd(n-d), p0(n)); the GP loop
runs it upward starting from (a(n), b(n)).  Each yields a universal
denominator; the GP one always divides the Abramov one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dispersion import dispersion
from .polys import Poly, RatFunc, exact_div, falling_product, gcd_monic, shift


@dataclass(frozen=True)
class AbramovTrace:
    """Full record of Abramov's reduction.

    step_gcds holds the extracted factor for shift i in loop order,
    i.e. step_gcds[0] belongs to i = max_shift and step_gcds[-1] to i = 0.
    lead_residual / trail_residual are what remains of pd(n-d) and p0(n)
    after all factors are removed.
    """

    max_shift: int
    step_gcds: tuple[Poly, ...]
    lead_residual: Poly
    trail_residual: Poly
    denominator: Poly


@dataclass(frozen=True)
class GPTrace:
    """Full record of the GP reduction (loop order i = 1 .. max_shift + 1)."""

    max_shift: int
    step_gcds: tuple[Poly, ...]
    num_residual: Poly
    den_residual: Poly
    denominator: Poly


@dataclass(frozen=True)
class GosperRep:
    """A product form ratio = (num_factor/den_factor) * shift_factor(n+1)/shift_factor(n).

    shift_factor and den_factor are monic; scalars live in num_factor.
    The represented rational function is kept so the checkers can verify
    the cross-multiplied identity.
    """

    ratio: RatFunc
    num_factor: Poly
    den_factor: Poly
    shift_factor: Poly


@dataclass(frozen=True)
class RepCheckResult:
    """Outcome of a representation check, with a counterexample when false."""

    ok: bool
    failed_condition: str | None = None
    failing_shift: int | None = None
    witness: Poly | None = None

    def __bool__(self) -> bool:
        return self.ok

    @property
    def gosper_ok(self) -> bool:
        """Whether the Gosper conditions hold, also after check_gp_rep,
        which tests them before its own."""
        return self.failed_condition not in ("identity", "shift_coprime")


def abramov_reduce(p0: Poly, pd: Poly, d: int) -> AbramovTrace:
    """Abramov's downward reduction of (pd(n-d), p0(n)).

    Extracts, for i = N down to 0, the monic gcd of the current pair taken
    at relative shift i, dividing it out of both sides; the universal
    denominator is the product of the extracted factors expanded as
    falling factorials.  Only the shifts the dispersion names as witnesses
    can give a nontrivial gcd; every other step records 1 without a gcd.
    """
    if p0.is_zero or pd.is_zero:
        raise ValueError("reduction needs nonzero coefficient polynomials")
    lead = shift(pd, -d)
    shifts = dispersion(lead, p0)
    n_max = shifts.value
    witnessed = {k for k, _ in shifts.witnesses}
    trail = p0
    steps: list[Poly] = []
    denominator = Poly.one()
    for i in range(n_max, -1, -1):
        if i not in witnessed:
            # the current pair divides the original one, which is coprime at shift i
            steps.append(Poly.one())
            continue
        g = gcd_monic(lead, shift(trail, i))
        steps.append(g)
        if g.degree > 0:
            lead = exact_div(lead, g)
            trail = exact_div(trail, shift(g, -i))
            denominator = denominator * falling_product(g, i + 1)
    return AbramovTrace(n_max, tuple(steps), lead, trail, denominator)


def gp_reduce(a: Poly, b: Poly) -> GPTrace:
    """Petkovsek's upward reduction of the coprime pair (a(n), b(n)).

    Runs the extraction loop in the direction opposite to Abramov's and is
    seeded with (a(n), b(n)) rather than (a(n-1), b(n)); the product of the
    shifted extracted factors is again a universal denominator, and it
    divides the Abramov one.
    """
    if a.is_zero or b.is_zero:
        raise ValueError("reduction needs nonzero polynomials")
    if gcd_monic(a, b).degree > 0:
        raise ValueError("gp reduction expects a coprime pair")
    shifts = dispersion(shift(a, -1), b)
    n_max = shifts.value
    # a(n-1), b(n+k) share a factor exactly when a(n), b(n+k+1) do
    witnessed = {k + 1 for k, _ in shifts.witnesses}
    num = a
    den = b
    steps: list[Poly] = []
    denominator = Poly.one()
    for i in range(1, n_max + 2):
        if i not in witnessed:
            steps.append(Poly.one())
            continue
        g = gcd_monic(num, shift(den, i))
        steps.append(g)
        if g.degree > 0:
            num = exact_div(num, g)
            den = exact_div(den, shift(g, -i))
            denominator = denominator * falling_product(shift(g, -1), i)
    return GPTrace(n_max, tuple(steps), num, den, denominator)


def _coprime_ratio(a: Poly, b: Poly) -> RatFunc:
    """a/b as a RatFunc for a pair already known to be coprime: only the
    denominator is made monic, with no second gcd."""
    lc = b.lc
    return RatFunc(a, b) if lc == 1 else RatFunc(a / lc, b / lc)


def _normalized_rep(ratio: RatFunc, num_factor: Poly, den_factor: Poly, shift_factor: Poly) -> GosperRep:
    lc = den_factor.lc
    if lc != 1:
        num_factor = num_factor / lc
        den_factor = den_factor / lc
    return GosperRep(ratio, num_factor, den_factor, shift_factor)


def gosper_rep_from_abramov(a: Poly, b: Poly) -> GosperRep:
    """Gosper representation of a/b read off from Abramov's reduction.

    With the reduction seeded by (a(n-1), b(n)), the residual pair gives
    a/b = (denominator(n+1)/denominator(n)) * lead_residual(n+1)/trail_residual(n)
    exactly.  The result is a Gosper representation but in general not the
    GP representation.
    """
    _require_coprime(a, b)
    trace = abramov_reduce(b, a, 1)
    return _normalized_rep(
        _coprime_ratio(a, b),
        shift(trace.lead_residual, 1),
        trace.trail_residual,
        trace.denominator,
    )


def gp_rep_from_trace(a: Poly, b: Poly) -> GosperRep:
    """The GP representation of a/b, from the GP reduction residuals."""
    trace = gp_reduce(a, b)
    return _normalized_rep(
        _coprime_ratio(a, b),
        trace.num_residual,
        trace.den_residual,
        trace.denominator,
    )


def _require_coprime(a: Poly, b: Poly) -> None:
    if a.is_zero or b.is_zero:
        raise ValueError("representation needs nonzero polynomials")
    if gcd_monic(a, b).degree > 0:
        raise ValueError("representation expects a coprime pair")


def _identity_holds(rep: GosperRep) -> bool:
    lhs = rep.ratio.num * rep.den_factor * rep.shift_factor
    rhs = rep.ratio.den * rep.num_factor * shift(rep.shift_factor, 1)
    return lhs == rhs


def check_gosper_rep(rep: GosperRep) -> RepCheckResult:
    """Verify the product identity and gcd(num_factor(n), den_factor(n+h)) = 1
    for every h >= 0, decided finitely through the dispersion."""
    if not _identity_holds(rep):
        return RepCheckResult(False, failed_condition="identity")
    if rep.num_factor.degree > 0 and rep.den_factor.degree > 0:
        shifts = dispersion(rep.num_factor, rep.den_factor)
        if shifts.value >= 0:
            k, witness = shifts.witnesses[0]
            return RepCheckResult(False, failed_condition="shift_coprime", failing_shift=k, witness=witness)
    return RepCheckResult(True)


def check_gp_rep(rep: GosperRep) -> RepCheckResult:
    """check_gosper_rep plus the two extra GP coprimality conditions."""
    base = check_gosper_rep(rep)
    if not base:
        return base
    g = gcd_monic(shift(rep.shift_factor, 1), rep.den_factor)
    if g.degree > 0:
        return RepCheckResult(False, failed_condition="den_shift_coprime", witness=g)
    g = gcd_monic(rep.shift_factor, rep.num_factor)
    if g.degree > 0:
        return RepCheckResult(False, failed_condition="num_coprime", witness=g)
    return RepCheckResult(True)
