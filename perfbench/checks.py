"""Per-request answer checks, in plain Fraction arithmetic.

Each check takes the request (with its planted facts) and the answer as
plain data, polynomials being tuples of Fractions, and raises WrongAnswer
when the answer is wrong.  Nothing here calls ratrec: a polynomial identity
is tested at more integer points than the degree of its cleared form, which
decides it exactly.
"""

from __future__ import annotations

from fractions import Fraction

from qpoly import Q, deg, divides, evaluate, shift


class WrongAnswer(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise WrongAnswer(message)


def _points(count: int, avoid) -> list[int]:
    """`count` integers, nearest to 0 first, at which no poly in avoid vanishes."""
    out: list[int] = []
    x = 0
    while len(out) < count:
        for cand in ((x, -x) if x else (0,)):
            if len(out) < count and all(evaluate(p, cand) != 0 for p in avoid):
                out.append(cand)
        x += 1
    return out


def _rat_at(num: Q, den: Q, x: int) -> Fraction:
    return evaluate(num, x) / evaluate(den, x)


def _solve_span(vectors: list[list[Fraction]], target: list[Fraction]) -> bool:
    """Whether target is a linear combination of vectors (exact elimination)."""
    rows = [[v[i] for v in vectors] + [target[i]] for i in range(len(target))]
    width = len(vectors)
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return all(row[width] == 0 for row in rows[r:])


# -- gosper-cli ----------------------------------------------------------------


def check_gosper(req, answer: dict) -> None:
    """answer: {"code", "status", "verified", "y_num", "y_den"} from the JSON envelope."""
    if not req.planted["summable"]:
        _require(answer["code"] == 1 and answer["status"] == "no_solution",
                 f"expected no_solution, got {answer['status']}")
        return
    _require(answer["code"] == 0 and answer["status"] == "ok", f"expected ok, got {answer['status']}")
    _require(answer["verified"] is True, "the certificate is not marked verified")
    a, b = req.args["num"], req.args["den"]
    u, v = answer["y_num"], answer["y_den"]
    _require(bool(v), "zero certificate denominator")
    # a u(n+1) v(n) - b v(n+1) u(n) - b v(n+1) v(n) is a polynomial of this degree at most
    bound = max(deg(a), deg(b)) + max(deg(u), deg(v), 0) + deg(v)
    for x in _points(bound + 1, [b, v, shift(v, 1)]):
        lhs = _rat_at(a, b, x) * _rat_at(u, v, x + 1) - _rat_at(u, v, x)
        _require(lhs == 1, f"r*y(n+1) - y(n) = {lhs} at n = {x}")


# -- ratsolve-planted ----------------------------------------------------------


def _satisfies(coeffs: list[Q], rhs: Q, num: Q, den: Q) -> bool:
    """Whether y = num/den solves sum_m coeffs[m](n) y(n+m) = rhs(n)."""
    order = len(coeffs) - 1
    # degree of the equation multiplied through by prod_m den(n+m)
    bound = max(max(deg(c) for c in coeffs) + max(deg(num), 0) + order * deg(den),
                max(deg(rhs), 0) + (order + 1) * deg(den))
    for x in _points(bound + 1, [shift(den, m) for m in range(order + 1)]):
        total = sum(evaluate(c, x) * _rat_at(num, den, x + m) for m, c in enumerate(coeffs))
        if total != evaluate(rhs, x):
            return False
    return True


def check_ratsolve(req, answer: dict) -> None:
    """answer: {"denominator", "particular": (num, den) | None, "homogeneous": [(num, den)],
    "numerator_particular", "numerator_basis"}."""
    coeffs, rhs = req.args["coeffs"], req.args["rhs"]
    f, g = req.planted["f"], req.planted["g"]
    den = answer["denominator"]
    _require(answer["particular"] is not None, "no rational solution reported for a solvable equation")
    _require(_satisfies(coeffs, rhs, *answer["particular"]), "the particular solution does not solve the equation")
    for h in answer["homogeneous"]:
        _require(_satisfies(coeffs, (), *h), "a homogeneous solution does not solve the homogeneous equation")
    for r in req.planted["g_roots"]:
        _require(evaluate(den, r) == 0, f"the denominator does not vanish at the planted root {r}")
    # the planted y = f/g lies in particular + span(basis), all over den:
    # f*den - g*(particular + sum lambda_i basis_i) = 0 as polynomials
    part, basis = answer["numerator_particular"], answer["numerator_basis"]
    top = max([deg(f) + deg(den), deg(g) + max(deg(part), 0)] + [deg(g) + deg(b) for b in basis])
    xs = _points(top + 1, [g])
    target = [_rat_at(f, g, x) * evaluate(den, x) - evaluate(part, x) for x in xs]
    vectors = [[evaluate(b, x) for x in xs] for b in basis]
    _require(_solve_span(vectors, target), "the planted solution is not in the returned family")


# -- denominators-wide -----------------------------------------------------------


def check_denominators(req, answer: dict) -> None:
    """answer: {"limit", "limit_shift", "universal", "abramov", "abramov_shift",
    "gp": (num_factor, den_factor, shift_factor) | None, "gp_ok": bool | None}."""
    _require(answer["limit"] == answer["universal"] == answer["abramov"],
             "the gcd limit, the closed form and Abramov's denominator differ")
    shift_planted = req.planted["shift"]
    _require(answer["limit_shift"] >= shift_planted and answer["abramov_shift"] >= shift_planted,
             f"dispersion below the planted shift {shift_planted}")
    den = answer["abramov"]
    for x in req.planted["chain_roots"]:
        _require(evaluate(den, x) == 0, f"the denominator does not vanish at the planted root {x}")
    if not req.planted["gp"]:
        return
    num_factor, den_factor, shift_factor = answer["gp"]
    _require(answer["gp_ok"] is True, "the GP representation is reported as failing its conditions")
    _require(bool(shift_factor) and divides(shift_factor, den), "the GP denominator does not divide Abramov's")
    # pd(n)/p0(n) = num_factor(n)/den_factor(n) * c(n+1)/c(n), cleared:
    # pd * den_factor * c(n) = p0 * num_factor * c(n+1)
    a, b = req.args["pd"], req.args["p0"]
    bound = max(deg(a) + deg(den_factor), deg(b) + deg(num_factor)) + deg(shift_factor)
    for x in _points(bound + 1, []):
        lhs = evaluate(a, x) * evaluate(den_factor, x) * evaluate(shift_factor, x)
        rhs = evaluate(b, x) * evaluate(num_factor, x) * evaluate(shift_factor, x + 1)
        _require(lhs == rhs, f"the GP representation identity fails at n = {x}")
