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
deeper input is a ParseError at the offending token.
Values stay within MAX_DEGREE and MAX_COEFF_BITS, measured exactly, the
bits of a polynomial being those of N and L when it is written as N(n)/L
over the least common denominator L of its coefficients: an integer
literal is checked as it is read, and every operator checks the degree
and bits of the value it built, a ParseError at the operator past either
bound.  Two refusals come first, so that building stays cheap: '*'
and '/' refuse a degree past MAX_DEGREE however much cancels, and '^e'
refuses e times its base's degree past MAX_DEGREE or, unless the base is
1 or -1, e times its base's bits past twice MAX_COEFF_BITS.
The parser evaluates as it reads: each rule returns an exact reduced
rational function of n, and the '+ -' and '* /' loops fold their operands
from the left, so a long flat chain needs no deep recursion.  A character
outside the grammar is reported first, wherever it is; otherwise the
leftmost fault is reported, a ParseError or an EvalError for division by
zero.  Formatting writes polynomials in descending powers with rational
coefficients, and the output parses back to the same value.
"""

from __future__ import annotations

import re

from .polys import InputError, Poly, RatFunc
from .recurrences import SolutionSet


class ParseError(InputError):
    """Syntax error with the byte offset where it was detected."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalError(InputError):
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
# and the bits of each, written over the least common denominator of its
# coefficients (`_size`).  The cost of later steps grows with both, and a
# single '^' can raise them without limit.
MAX_DEGREE = 1000
MAX_COEFF_BITS = 4096
# a literal with more digits than 2^MAX_COEFF_BITS is past the bound unread
_MAX_LITERAL_DIGITS = len(str(1 << MAX_COEFF_BITS))
_PAST_DEGREE = f"the value would have degree above {MAX_DEGREE}"
_PAST_BITS = f"the value would have coefficients above {MAX_COEFF_BITS} bits"


def _degree(value: RatFunc) -> int:
    """The larger degree of a value's numerator and denominator."""
    return max(value.num.degree, value.den.degree)


def _size(value: RatFunc) -> int:
    """The bits of a value, measured exactly.  Its numerator and denominator
    are each u/L times a primitive form P, the integers every later step
    computes with; L is the least common denominator of the coefficients,
    so the polynomial is N(n)/L with N = u*P.  The bits are the largest bit
    length of L and of the coefficients of N."""
    bits = 0
    for p in (value.num, value.den):
        prim = p.primitive
        if prim:
            num, den = p.content.as_integer_ratio()
            bits = max(bits, (num * max(prim, key=abs)).bit_length(), den.bit_length())
    return bits


def _checked(value: RatFunc, offset: int) -> RatFunc:
    """value, when its degree and bits are within their bounds; otherwise
    a ParseError at offset."""
    if _degree(value) > MAX_DEGREE:
        raise ParseError(_PAST_DEGREE, offset)
    if _size(value) > MAX_COEFF_BITS:
        raise ParseError(_PAST_BITS, offset)
    return value


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

    def expr(self) -> RatFunc:
        value = self.term()
        while self.kind in ("+", "-"):
            op, _, offset = self.advance()
            right = self.term()
            value = _checked(value + right if op == "+" else value - right, offset)
        return value

    def term(self) -> RatFunc:
        value = self.factor()
        while self.kind in ("*", "/"):
            op, _, offset = self.advance()
            right = self.factor()
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
            value = _checked(value * right if op == "*" else value / right, offset)
        return value

    def factor(self) -> RatFunc:
        value = self.base()
        if self.kind == "^":
            _, _, offset = self.advance()
            if self.kind != "int":
                raise ParseError("exponent must be a nonnegative integer literal", self.offset)
            exponent = _literal(self.advance())
            # refused before it is built; a power of 1 or -1 is 1 or -1
            if exponent * _degree(value) > MAX_DEGREE:
                raise ParseError(_PAST_DEGREE, offset)
            unit = _degree(value) == 0 and abs(value.num.lc) == 1
            if not unit and exponent * _size(value) > 2 * MAX_COEFF_BITS:
                raise ParseError(_PAST_BITS, offset)
            value = _checked(RatFunc(value.num**exponent, value.den**exponent), offset)
        return value

    def base(self) -> RatFunc:
        token = self.advance()
        kind, _, offset = token
        if kind == "int":
            return RatFunc.from_poly(Poly.const(_literal(token)))
        if kind == "n":
            return RatFunc.from_poly(Poly.variable())
        if kind not in ("(", "-"):
            raise ParseError("expected a number, 'n', '(' or '-'", offset)
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses and unary minus nest deeper than {MAX_NESTING} levels", offset)
        self.depth += 1
        if kind == "(":
            value = self.expr()
            self.expect(")")
        else:
            value = -self.factor()
        self.depth -= 1
        return value


def parse_ratfunc(text: str) -> RatFunc:
    """Parse and evaluate an expression into an exact reduced RatFunc.

    Raises ParseError or EvalError with the byte offset of the fault.
    """
    parser = _Parser(_tokenize(text))
    value = parser.expr()
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
