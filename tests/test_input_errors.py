"""Every argument check in the package raises one type, `InputError`, which
stays a `ValueError` for callers that catch that."""

import pytest

import ratrec
from ratrec import (
    EvalError,
    InputError,
    LinearRecurrence,
    ParseError,
    Poly,
    RatFunc,
    abramov_reduce,
    dispersion,
    falling_product,
    gcd_limit,
    gcd_monic,
    gcd_term,
    gosper,
    gp_reduce,
    integer_roots,
    parse_ratfunc,
    rational_solve,
    resultant,
    universal_denominator,
)

N = Poly.variable()
ZERO = Poly.zero()

CHECKS = {
    "dispersion": lambda: dispersion(ZERO, N),
    "integer_roots": lambda: integer_roots(ZERO),
    "resultant": lambda: resultant(N, ZERO),
    "gcd_term k < 1": lambda: gcd_term(N, N, 1, 0),
    "gcd_term zero": lambda: gcd_term(ZERO, N, 1, 1),
    "gcd_limit d = 0": lambda: gcd_limit(N + 1, N + 3, 0),
    "gcd_limit zero": lambda: gcd_limit(N, ZERO, 1),
    "universal_denominator zero": lambda: universal_denominator(ZERO, N, 1),
    "abramov_reduce d = 0": lambda: abramov_reduce(N, N + 1, 0),
    "gp_reduce not coprime": lambda: gp_reduce(N, N * (N + 1)),
    "gp_reduce zero": lambda: gp_reduce(ZERO, N),
    "gosper zero": lambda: gosper(RatFunc.zero()),
    "rational_solve zero trailing": lambda: rational_solve(LinearRecurrence((ZERO, N), ZERO)),
    "LinearRecurrence order 0": lambda: LinearRecurrence((N,), ZERO),
    "LinearRecurrence zero leading": lambda: LinearRecurrence((N, ZERO), ZERO),
    "Poly.monomial": lambda: Poly.monomial(-1),
    "Poly power": lambda: N ** -1,
    "Poly.monic zero": lambda: ZERO.monic(),
    "falling_product": lambda: falling_product(N, -1),
    "gcd_monic(0, 0)": lambda: gcd_monic(ZERO, ZERO),
}


@pytest.mark.parametrize("call", CHECKS.values(), ids=CHECKS.keys())
def test_each_argument_check_raises_input_error(call):
    with pytest.raises(InputError) as err:
        call()
    assert isinstance(err.value, ValueError)


@pytest.mark.parametrize("text, kind", [("n/(n", ParseError), ("1/(n-n)", EvalError)])
def test_parser_errors_are_input_errors(text, kind):
    with pytest.raises(kind) as err:
        parse_ratfunc(text)
    assert isinstance(err.value, InputError)


def test_input_error_is_exported_as_a_value_error():
    assert "InputError" in ratrec.__all__
    assert issubclass(InputError, ValueError)
