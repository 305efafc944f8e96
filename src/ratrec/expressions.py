"""Expression parsing, evaluation and formatting for the CLI.

Grammar (implicit multiplication is not allowed):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' uint)?
    base   := uint | 'n' | '(' expr ')' | '-' factor

The grammar is ASCII: a uint is a run of the digits 0-9, and space, tab,
newline, carriage return, form feed and vertical tab are skipped.  Any
other character is a ParseError at its offset; every character before it
is ASCII, so that offset counts characters and bytes alike.
'^' binds tightest and takes a bare nonnegative integer literal exponent.
Parentheses and unary minus signs nest at most MAX_NESTING levels deep;
deeper input is a ParseError at the offending token.  Values stay within
MAX_DEGREE and MAX_COEFF_BITS.  Degrees are exact, read off the values:
'+', '-', '*' and '/' check the degree of the value they built, and '^e'
checks e times its base's degree before it builds the power; '*' and '/'
also refuse, before they build it, a result whose degree is past
MAX_DEGREE however much cancels.  Only bits are estimated: the parser
carries an estimate with every value and checks it at every operator.
Literals and n count exactly, '^e' multiplies the base's estimate by e,
'*' and '/' add the operands' estimates, and '+' and '-' add them plus
one.  An estimate past the bound is measured again on the actual value
(for '+', '-', '*' and '/', the value they built; for '^e', the power
itself when the base is 1 or -1 or e times the base's bits is at most
twice the bound, so that building it stays cheap); past the bound again,
the input is a ParseError at the operator.  An integer literal is checked
as it is read.
The parser evaluates as it reads: each rule returns an exact reduced
rational function of n with its bits estimate, and the '+ -' and '* /'
loops fold their operands from the left, so a long flat chain needs no
deep recursion.  A character outside the grammar is reported first,
wherever it is; otherwise the leftmost fault is reported, a ParseError or
an EvalError for division by zero.  Formatting writes polynomials in
descending powers with rational coefficients, and the output parses back
to the same value.
"""

from __future__ import annotations

import re
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


# one match per integer literal, 'n' or operator, run of whitespace, or
# character outside the grammar
_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<op>[-n+*/^()])|[ \t\n\r\f\v]+|(?P<bad>.)", re.DOTALL)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The (kind, text, offset) tokens of text, then ("end", "", len(text));
    kind is "int" for a literal and the token itself otherwise."""
    tokens = []
    for match in _TOKEN.finditer(text):
        group = match.lastgroup
        if group == "bad":
            raise ParseError(f"unexpected character {match.group()!r}", match.start())
        if group is not None:
            token = match.group()
            tokens.append((group if group == "int" else token, token, match.start()))
    tokens.append(("end", "", len(text)))
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

# A value with the bits estimate the parser carries for it.
_Sized = tuple[RatFunc, int]


def _degree(value: RatFunc) -> int:
    """The larger degree of a value's numerator and denominator."""
    return max(value.num.degree, value.den.degree)


def _size(value: RatFunc) -> int:
    """A bound on the bit length of every numerator and denominator of the
    rational coefficients of a value's numerator and denominator."""
    bits = 0
    for p in (value.num, value.den):
        prim = p.primitive
        if prim:
            num, den = p.content.as_integer_ratio()
            bits = max(bits, (num * max(prim, key=abs)).bit_length(), den.bit_length())
    return bits


def _bounded(degree: int, bits: int, offset: int, exact: Callable[[], int]) -> int:
    """The bits estimate of a value of the given exact degree when both are
    within their bounds; past the bits bound, the bits that `exact` measures
    on the actual value.  A degree, or measured bits, past its bound is a
    ParseError at offset."""
    if degree > MAX_DEGREE:
        raise ParseError(_PAST_DEGREE, offset)
    if bits > MAX_COEFF_BITS:
        bits = exact()
        if bits > MAX_COEFF_BITS:
            raise ParseError(f"the value would have coefficients above {MAX_COEFF_BITS} bits", offset)
    return bits


def _literal(token: tuple[str, str, int]) -> int:
    _, text, offset = token
    digits = text.lstrip("0") or "0"
    if len(digits) <= _MAX_LITERAL_DIGITS:
        value = int(digits)
        if value.bit_length() <= MAX_COEFF_BITS:
            return value
    raise ParseError(f"integer literal above {MAX_COEFF_BITS} bits", offset)


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    @property
    def kind(self) -> str:
        return self.tokens[self.pos][0]

    @property
    def offset(self) -> int:
        return self.tokens[self.pos][2]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> None:
        if self.kind != kind:
            raise ParseError(f"expected {kind!r}", self.offset)
        self.pos += 1

    def expr(self) -> _Sized:
        value, bits = self.term()
        while self.kind in ("+", "-"):
            op, _, offset = self.advance()
            right, bits_r = self.term()
            value = value + right if op == "+" else value - right
            bits = _bounded(_degree(value), bits + bits_r + 1, offset, lambda: _size(value))
        return value, bits

    def term(self) -> _Sized:
        value, bits = self.factor()
        while self.kind in ("*", "/"):
            op, _, offset = self.advance()
            right, bits_r = self.factor()
            if op == "/" and right.is_zero:
                raise EvalError("division by an expression that is zero", offset)
            # a zero operand has degree 0, so it never reaches this check
            if _degree(value) + _degree(right) > MAX_DEGREE:
                top, bottom = (right.num, right.den) if op == "*" else (right.den, right.num)
                # refused before it is built: both pairs are coprime, so what cancels from
                # value.num * top / (value.den * bottom) divides gcd(value.num, bottom) * gcd(top, value.den)
                t, u = value.num.degree, value.den.degree
                cancel = min(t, bottom.degree) + min(top.degree, u)
                if max(t + top.degree, u + bottom.degree) - cancel > MAX_DEGREE:
                    raise ParseError(_PAST_DEGREE, offset)
            value = value * right if op == "*" else value / right
            bits = _bounded(_degree(value), bits + bits_r, offset, lambda: _size(value))
        return value, bits

    def factor(self) -> _Sized:
        value, bits = self.base()
        if self.kind == "^":
            _, _, offset = self.advance()
            if self.kind != "int":
                raise ParseError("exponent must be a nonnegative integer literal", self.offset)
            exponent = _literal(self.advance())
            power = None

            def exact() -> int:
                # the bits of the power itself, while building it is cheap
                nonlocal power
                base_bits = _size(value)
                unit = value.num.degree == 0 == value.den.degree and abs(value.num.lc) == 1
                if exponent * base_bits > 2 * MAX_COEFF_BITS and not unit:
                    return exponent * base_bits
                power = RatFunc(value.num**exponent, value.den**exponent)
                return _size(power)

            bits = _bounded(exponent * _degree(value), exponent * bits, offset, exact)
            if power is None:
                power = RatFunc(value.num**exponent, value.den**exponent)
            value = power
        return value, bits

    def base(self) -> _Sized:
        token = self.advance()
        kind, _, offset = token
        if kind == "int":
            literal = _literal(token)
            return RatFunc.from_poly(Poly.const(literal)), literal.bit_length()
        if kind == "n":
            return RatFunc.from_poly(Poly.variable()), 1
        if kind not in ("(", "-"):
            raise ParseError("expected a number, 'n', '(' or '-'", offset)
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses and unary minus nest deeper than {MAX_NESTING} levels", offset)
        self.depth += 1
        if kind == "(":
            sized = self.expr()
            self.expect(")")
        else:
            value, bits = self.factor()
            sized = -value, bits
        self.depth -= 1
        return sized


def parse_ratfunc(text: str) -> RatFunc:
    """Parse and evaluate an expression into an exact reduced RatFunc.

    Raises ParseError or EvalError with the byte offset of the fault.
    """
    parser = _Parser(_tokenize(text))
    value, _ = parser.expr()
    if parser.kind != "end":
        raise ParseError("unexpected trailing input", parser.offset)
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
