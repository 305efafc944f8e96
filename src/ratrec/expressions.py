"""Expression parsing, evaluation and formatting for the CLI.

Grammar (whitespace is skipped; implicit multiplication is not allowed):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' uint)?
    base   := uint | 'n' | '(' expr ')' | '-' factor

'^' binds tightest and takes a bare nonnegative integer literal exponent.
Parentheses and unary minus signs nest at most MAX_NESTING levels deep;
deeper input is a ParseError at the offending token.
The parser evaluates as it reads: each rule returns an exact reduced
rational function of n, and the '+ -' and '* /' loops fold their operands
from the left, so a long flat chain needs no deep recursion.  A character
outside the grammar is reported first, wherever it is; otherwise the
leftmost fault is reported, a ParseError or an EvalError for division by
zero.  Formatting writes polynomials in descending powers with rational
coefficients, and the output parses back to the same value.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def expr(self) -> RatFunc:
        value = self.term()
        while self.current.kind in ("+", "-"):
            op = self.advance()
            right = self.term()
            value = value + right if op.kind == "+" else value - right
        return value

    def term(self) -> RatFunc:
        value = self.factor()
        while self.current.kind in ("*", "/"):
            op = self.advance()
            right = self.factor()
            if op.kind == "*":
                value = value * right
            elif right.is_zero:
                raise EvalError("division by an expression that is zero", op.offset)
            else:
                value = value / right
        return value

    def factor(self) -> RatFunc:
        value = self.base()
        if self.current.kind == "^":
            self.advance()
            if self.current.kind != "int":
                raise ParseError("exponent must be a nonnegative integer literal", self.current.offset)
            exponent = int(self.advance().text)
            value = RatFunc(value.num**exponent, value.den**exponent)
        return value

    def base(self) -> RatFunc:
        tok = self.current
        if tok.kind == "int":
            self.advance()
            return RatFunc.from_poly(Poly.const(int(tok.text)))
        if tok.kind == "n":
            self.advance()
            return RatFunc.from_poly(Poly.variable())
        if tok.kind not in ("(", "-"):
            raise ParseError("expected a number, 'n', '(' or '-'", tok.offset)
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses and unary minus nest deeper than {MAX_NESTING} levels", tok.offset)
        self.advance()
        self.depth += 1
        if tok.kind == "(":
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
