"""Expression parsing, evaluation and formatting for the CLI.

Grammar (whitespace is skipped; implicit multiplication is not allowed):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' uint)?
    base   := uint | 'n' | '(' expr ')' | '-' factor

'^' binds tightest and takes a bare nonnegative integer literal exponent.
Parentheses and unary minus signs nest at most MAX_NESTING levels deep;
deeper input is a ParseError at the offending token.
Parsing yields a small AST; evaluation folds it into an exact reduced
rational function of n.  Formatting writes polynomials in descending
powers with rational coefficients, and the output parses back to the same
value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

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


@dataclass(frozen=True)
class Number:
    value: int
    offset: int


@dataclass(frozen=True)
class Variable:
    offset: int


@dataclass(frozen=True)
class Negate:
    operand: "Expr"
    offset: int


@dataclass(frozen=True)
class BinaryOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"
    offset: int


@dataclass(frozen=True)
class Power:
    base: "Expr"
    exponent: int
    offset: int


Expr = Union[Number, Variable, Negate, BinaryOp, Power]

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

    def expr(self) -> Expr:
        node = self.term()
        while self.current.kind in ("+", "-"):
            op = self.advance()
            node = BinaryOp(op.kind, node, self.term(), op.offset)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.current.kind in ("*", "/"):
            op = self.advance()
            node = BinaryOp(op.kind, node, self.factor(), op.offset)
        return node

    def factor(self) -> Expr:
        node = self.base()
        if self.current.kind == "^":
            op = self.advance()
            if self.current.kind != "int":
                raise ParseError("exponent must be a nonnegative integer literal", self.current.offset)
            exponent = self.advance()
            node = Power(node, int(exponent.text), op.offset)
        return node

    def base(self) -> Expr:
        tok = self.current
        if tok.kind == "int":
            self.advance()
            return Number(int(tok.text), tok.offset)
        if tok.kind == "n":
            self.advance()
            return Variable(tok.offset)
        if tok.kind not in ("(", "-"):
            raise ParseError("expected a number, 'n', '(' or '-'", tok.offset)
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses and unary minus nest deeper than {MAX_NESTING} levels", tok.offset)
        self.advance()
        self.depth += 1
        if tok.kind == "(":
            node = self.expr()
            self.expect(")")
        else:
            node = Negate(self.factor(), tok.offset)
        self.depth -= 1
        return node


def parse(text: str) -> Expr:
    """Parse an expression; raises ParseError with a byte offset."""
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    if parser.current.kind != "end":
        raise ParseError("unexpected trailing input", parser.current.offset)
    return node


def eval_to_ratfunc(node: Expr) -> RatFunc:
    """Exact evaluation of a parsed expression into a reduced RatFunc.

    Walks the tree with an explicit stack, so a long chain of operators
    (a left-deep tree) needs no deep recursion.
    """
    values: list[RatFunc] = []
    todo: list[tuple[Expr, bool]] = [(node, False)]
    while todo:
        item, children_done = todo.pop()
        if isinstance(item, Number):
            values.append(RatFunc.from_poly(Poly.const(item.value)))
        elif isinstance(item, Variable):
            values.append(RatFunc.from_poly(Poly.variable()))
        elif not isinstance(item, (Negate, Power, BinaryOp)):
            raise TypeError(f"not an expression node: {item!r}")
        elif not children_done:
            todo.append((item, True))
            if isinstance(item, BinaryOp):
                todo.append((item.right, False))
                todo.append((item.left, False))
            else:
                todo.append((item.operand if isinstance(item, Negate) else item.base, False))
        elif isinstance(item, Negate):
            values.append(-values.pop())
        elif isinstance(item, Power):
            base = values.pop()
            values.append(RatFunc(base.num**item.exponent, base.den**item.exponent))
        else:
            right = values.pop()
            left = values.pop()
            values.append(_binary(item, left, right))
    return values[0]


def _binary(node: BinaryOp, left: RatFunc, right: RatFunc) -> RatFunc:
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if right.is_zero:
        raise EvalError("division by an expression that is zero", node.offset)
    return left / right


def parse_ratfunc(text: str) -> RatFunc:
    return eval_to_ratfunc(parse(text))


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
