"""Exact summation and rational solving for linear difference equations.

The package computes universal denominators for the rational solutions of
linear difference equations with polynomial coefficients through a
stabilizing gcd sequence, and builds Gosper's indefinite-summation
algorithm, Abramov's reduction and the Gosper-Petkovsek representation on
top of exact rational-coefficient polynomial arithmetic.
"""

from .denominators import (
    AbramovTrace,
    GosperRep,
    GPTrace,
    RepCheckResult,
    abramov_reduce,
    check_gosper_rep,
    check_gp_rep,
    gosper_rep_from_abramov,
    gp_reduce,
    gp_rep_from_trace,
)
from .dispersion import DispersionResult, dispersion, integer_roots, resultant
from .expressions import (
    EvalError,
    ParseError,
    format_value,
    parse_poly,
    parse_ratfunc,
)
from .gcdseq import GcdLimit, gcd_limit, gcd_term, universal_denominator
from .pipelines import (
    GosperSolution,
    RationalSolutions,
    gosper,
    rational_solve,
    verify_gosper,
    verify_rational,
)
from .polys import (
    InputError,
    Poly,
    Rational,
    RatFunc,
    divrem,
    exact_div,
    falling_product,
    gcd_monic,
    shift,
)
from .recurrences import (
    LinearRecurrence,
    SolutionSet,
    degree_bound,
    delta_coeffs,
    poly_solutions,
)

__all__ = [
    "AbramovTrace",
    "DispersionResult",
    "EvalError",
    "GcdLimit",
    "GosperRep",
    "GosperSolution",
    "GPTrace",
    "InputError",
    "LinearRecurrence",
    "ParseError",
    "Poly",
    "Rational",
    "RatFunc",
    "RationalSolutions",
    "RepCheckResult",
    "SolutionSet",
    "abramov_reduce",
    "check_gosper_rep",
    "check_gp_rep",
    "degree_bound",
    "delta_coeffs",
    "dispersion",
    "divrem",
    "exact_div",
    "falling_product",
    "format_value",
    "gcd_limit",
    "gcd_monic",
    "gcd_term",
    "gosper",
    "gosper_rep_from_abramov",
    "gp_reduce",
    "gp_rep_from_trace",
    "integer_roots",
    "parse_poly",
    "parse_ratfunc",
    "poly_solutions",
    "rational_solve",
    "resultant",
    "shift",
    "universal_denominator",
    "verify_gosper",
    "verify_rational",
]

__version__ = "0.1.0"
