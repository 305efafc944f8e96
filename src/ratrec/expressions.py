"""Expression parsing, evaluation and formatting for the CLI.

Grammar (whitespace is skipped; implicit multiplication is not allowed):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' uint)?
    base   := uint | 'n' | '(' expr ')' | '-' factor

'^' binds tightest and takes a bare nonnegative integer literal exponent.
Parentheses and unary minus signs nest at most MAX_NESTING levels deep;
deeper input is a ParseError at the offending token.  Values stay within
MAX_DEGREE and MAX_COEFF_BITS, by an estimate of (degree, bits) that the
parser carries with every value and checks at every operator: literals and
n count exactly, '^e' multiplies the base's estimate by e, '*' and '/' add
the operands' estimates, and '+' and '-' add them plus one bit.  '^'
checks before it builds its result; so do '*' and '/', for a degree past
MAX_DEGREE however much cancels.  An estimate past a bound is made again
from the sizes of the actual values (for '+', '-', '*' and '/', of the
value they built from two operands within the bounds; for '^e', of the
power itself when its degree is within the bound and e times the base's
bits is at most twice the bits bound, so that building it stays cheap);
past a bound again, the input is a ParseError at the operator.  An integer
literal is checked as it is read.
The parser evaluates as it reads: each rule returns an exact reduced
rational function of n with its size estimate, and the '+ -' and '* /'
loops fold their operands from the left, so a long flat chain needs no
deep recursion.  A character outside the grammar is reported first,
wherever it is; otherwise the leftmost fault is reported, a ParseError or
an EvalError for division by zero.  Formatting writes polynomials in
descending powers with rational coefficients, and the output parses back
to the same value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .polys import Poly, RatFunc
from .recurrences import SolutionSet


class ParseError(ValueError):
    """Syntax error with the byte offset where it was detected."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalError(ValueError):
    """Evaluation error (division by zero) with the operator's offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


_OPERATOR_CHARS = "+-*/^()"


@dataclass(frozen=True)
class _Token:
    kind: str  # "int", "n", an operator char, or "end"
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
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
            tokens.append(_Token("int", text[start:i], start))
            continue
        if ch == "n":
            tokens.append(_Token("n", ch, i))
            i += 1
            continue
        if ch in _OPERATOR_CHARS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", len(text)))
    return tokens


# Parentheses and unary minus signs may nest at most this deep; the parser
# recurses once per level, so the bound keeps it inside the interpreter's stack.
MAX_NESTING = 100
# Bounds on every parsed value: the degree of its numerator and denominator,
# and the bits of each numerator and denominator of their coefficients.  The
# cost of later steps grows with both, and a single '^' can raise them
# without limit.
MAX_DEGREE = 1000
MAX_COEFF_BITS = 4096
# a literal with more digits than 2^MAX_COEFF_BITS is past the bound unread
_MAX_LITERAL_DIGITS = len(str(1 << MAX_COEFF_BITS))
_PAST_DEGREE = f"the value would have degree above {MAX_DEGREE}"

# A value with the (degree, bits) estimate the parser carries for it.
_Sized = tuple[RatFunc, int, int]


def _size(value: RatFunc) -> tuple[int, int]:
    """Degree and coefficient bits of a value: the larger degree of its
    numerator and denominator, and a bound on the bit length of every
    numerator and denominator of their rational coefficients."""
    degree = bits = 0
    for p in (value.num, value.den):
        prim = p.primitive
        if prim:
            num, den = p.content.as_integer_ratio()
            degree = max(degree, len(prim) - 1)
            bits = max(bits, (num * max(prim, key=abs)).bit_length(), den.bit_length())
    return degree, bits


def _bounded(degree: int, bits: int, offset: int, exact: Callable[[], tuple[int, int]]) -> tuple[int, int]:
    """The estimate (degree, bits) when it is within both bounds; otherwise
    the one `exact` makes from the sizes of the actual values, and if that
    is past a bound too, a ParseError at offset."""
    if degree <= MAX_DEGREE and bits <= MAX_COEFF_BITS:
        return degree, bits
    degree, bits = exact()
    if degree > MAX_DEGREE:
        raise ParseError(_PAST_DEGREE, offset)
    if bits > MAX_COEFF_BITS:
        raise ParseError(f"the value would have coefficients above {MAX_COEFF_BITS} bits", offset)
    return degree, bits


def _literal(tok: _Token) -> int:
    digits = tok.text.lstrip("0") or "0"
    if len(digits) <= _MAX_LITERAL_DIGITS:
        value = int(digits)
        if value.bit_length() <= MAX_COEFF_BITS:
            return value
    raise ParseError(f"integer literal above {MAX_COEFF_BITS} bits", tok.offset)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        if self.current.kind != kind:
            raise ParseError(f"expected {kind!r}", self.current.offset)
        return self.advance()

    def expr(self) -> _Sized:
        value, degree, bits = self.term()
        while self.current.kind in ("+", "-"):
            op = self.advance()
            right, deg_r, bits_r = self.term()
            value = value + right if op.kind == "+" else value - right
            degree, bits = _bounded(degree + deg_r, bits + bits_r + 1, op.offset, lambda: _size(value))
        return value, degree, bits

    def term(self) -> _Sized:
        value, degree, bits = self.factor()
        while self.current.kind in ("*", "/"):
            op = self.advance()
            right, deg_r, bits_r = self.factor()
            if op.kind == "/" and right.is_zero:
                raise EvalError("division by an expression that is zero", op.offset)
            if degree + deg_r > MAX_DEGREE and not (value.is_zero or right.is_zero):
                top, bottom = (right.num, right.den) if op.kind == "*" else (right.den, right.num)
                # refused before it is built: both pairs are coprime, so what cancels from
                # value.num * top / (value.den * bottom) divides gcd(value.num, bottom) * gcd(top, value.den)
                t, u = value.num.degree, value.den.degree
                cancel = min(t, bottom.degree) + min(top.degree, u)
                if max(t + top.degree, u + bottom.degree) - cancel > MAX_DEGREE:
                    raise ParseError(_PAST_DEGREE, op.offset)
            value = value * right if op.kind == "*" else value / right
            degree, bits = _bounded(degree + deg_r, bits + bits_r, op.offset, lambda: _size(value))
        return value, degree, bits

    def factor(self) -> _Sized:
        value, degree, bits = self.base()
        if self.current.kind == "^":
            op = self.advance()
            if self.current.kind != "int":
                raise ParseError("exponent must be a nonnegative integer literal", self.current.offset)
            exponent = _literal(self.advance())
            power = None

            def exact() -> tuple[int, int]:
                # the degree of a power is exact; its bits are measured on
                # the power itself while building it is cheap
                nonlocal power
                base_degree, base_bits = _size(value)
                if exponent * base_degree <= MAX_DEGREE and exponent * base_bits <= 2 * MAX_COEFF_BITS:
                    power = RatFunc(value.num**exponent, value.den**exponent)
                    return _size(power)
                return exponent * base_degree, exponent * base_bits

            degree, bits = _bounded(exponent * degree, exponent * bits, op.offset, exact)
            if power is None:
                power = RatFunc(value.num**exponent, value.den**exponent)
            value = power
        return value, degree, bits

    def base(self) -> _Sized:
        tok = self.current
        if tok.kind == "int":
            self.advance()
            literal = _literal(tok)
            return RatFunc.from_poly(Poly.const(literal)), 0, literal.bit_length()
        if tok.kind == "n":
            self.advance()
            return RatFunc.from_poly(Poly.variable()), 1, 1
        if tok.kind not in ("(", "-"):
            raise ParseError("expected a number, 'n', '(' or '-'", tok.offset)
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses and unary minus nest deeper than {MAX_NESTING} levels", tok.offset)
        self.advance()
        self.depth += 1
        if tok.kind == "(":
            sized = self.expr()
            self.expect(")")
        else:
            value, degree, bits = self.factor()
            sized = -value, degree, bits
        self.depth -= 1
        return sized


def parse_ratfunc(text: str) -> RatFunc:
    """Parse and evaluate an expression into an exact reduced RatFunc.

    Raises ParseError or EvalError with the byte offset of the fault.
    """
    parser = _Parser(_tokenize(text))
    value, _, _ = parser.expr()
    if parser.current.kind != "end":
        raise ParseError("unexpected trailing input", parser.current.offset)
    return value


def parse_poly(text: str) -> Poly:
    """Parse an expression that must simplify to a polynomial."""
    value = parse_ratfunc(text)
    if value.den != Poly.one():
        raise ParseError("expected a polynomial, got a proper rational function", 0)
    return value.num


def format_value(value: "Poly | RatFunc | SolutionSet") -> str:
    """Deterministic human-readable form; parses back for Poly and RatFunc."""
    if isinstance(value, (Poly, RatFunc)):
        return str(value)
    if isinstance(value, SolutionSet):
        lines = []
        if value.particular is None:
            lines.append("particular: none")
        else:
            lines.append(f"particular: {value.particular}")
        if value.homogeneous_basis:
            for i, h in enumerate(value.homogeneous_basis):
                lines.append(f"basis[{i}]: {h}")
        else:
            lines.append("basis: (empty)")
        lines.append(f"degree bound: {value.degree_bound}")
        return "\n".join(lines)
    raise TypeError(f"cannot format {type(value).__name__}")
