"""Parser for sphere-algebra expressions.

Accepts the surface syntax used by the CLI and by ``NCPoly.__str__``::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := primary ('^' int)*
    primary:= uint | qpow | gen | '(' expr ')'
    qpow   := 'q' ('^' int)?
    gen    := 'z' uint ['s']          # 's' marks the starred generator
    int    := ['-'] uint

Whitespace separates tokens and is otherwise ignored.  A generator index
above the ambient ``n`` is a syntax error, so parse errors and range
errors surface the same way with a character offset attached.
Parentheses nested more than ``MAX_NESTING`` levels deep are a syntax
error too; the cap keeps the recursive descent well inside the
interpreter's recursion limit.
"""

from __future__ import annotations

from typing import NamedTuple

from .rings import LaurentQ
from .sphere import NCPoly

MAX_NESTING = 100  # parenthesis levels


class NCSyntaxError(ValueError):
    """Malformed expression; ``position`` is the 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class _Token(NamedTuple):
    kind: str  # INT, Q, GEN, OP, END
    value: object
    pos: int


_OPS = set("+-*^()")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(_Token("OP", ch, i))
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < size and text[i].isdigit():
                i += 1
            tokens.append(_Token("INT", int(text[start:i]), start))
            continue
        if ch == "q":
            tokens.append(_Token("Q", None, i))
            i += 1
            continue
        if ch == "z":
            start = i
            i += 1
            if i >= size or not text[i].isdigit():
                raise NCSyntaxError("expected an index after 'z'", start)
            num = i
            while i < size and text[i].isdigit():
                i += 1
            index = int(text[num:i])
            starred = i < size and text[i] == "s"
            if starred:
                i += 1
            tokens.append(_Token("GEN", (index, starred), start))
            continue
        raise NCSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("END", None, size))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], n: int):
        self.tokens = tokens
        self.n = n
        self.at = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.at]

    def advance(self) -> _Token:
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    def is_op(self, *symbols: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.value in symbols

    def expect_op(self, symbol: str) -> _Token:
        tok = self.peek()
        if tok.kind != "OP" or tok.value != symbol:
            raise NCSyntaxError(f"expected {symbol!r}", tok.pos)
        return self.advance()

    def parse(self) -> NCPoly:
        result = self.expr()
        tail = self.peek()
        if tail.kind != "END":
            raise NCSyntaxError("unexpected trailing input", tail.pos)
        return result

    def expr(self) -> NCPoly:
        negate = False
        if self.is_op("+", "-"):
            negate = self.advance().value == "-"
        acc = self.term()
        if negate:
            acc = -acc
        while self.is_op("+", "-"):
            op = self.advance().value
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self) -> NCPoly:
        acc = self.factor()
        while self.is_op("*"):
            self.advance()
            acc = acc * self.factor()
        return acc

    def factor(self) -> NCPoly:
        acc = self.primary()
        while self.is_op("^"):
            caret = self.advance()
            e = self.signed_int()
            if e >= 0:
                acc = acc**e
            else:
                acc = self._invert_scalar(acc, e, caret.pos)
        return acc

    def signed_int(self) -> int:
        negate = False
        if self.is_op("-"):
            self.advance()
            negate = True
        tok = self.peek()
        if tok.kind != "INT":
            raise NCSyntaxError("expected an integer exponent", tok.pos)
        self.advance()
        return -tok.value if negate else tok.value

    def _invert_scalar(self, base: NCPoly, e: int, pos: int) -> NCPoly:
        # Negative powers only make sense for the invertible monomials +-q^k.
        terms = dict(base.terms())
        if list(terms) != [()]:
            raise NCSyntaxError("negative exponent on a non-scalar factor", pos)
        coeff = terms[()]
        monos = coeff.terms()
        if len(monos) != 1:
            raise NCSyntaxError("negative exponent on a non-invertible scalar", pos)
        ((exp, k),) = monos.items()
        if k not in (1, -1):
            raise NCSyntaxError("negative exponent on a non-invertible scalar", pos)
        inv = LaurentQ.q_power(-exp, k)
        return NCPoly.scalar(base.n, inv**(-e))

    def primary(self) -> NCPoly:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return NCPoly.scalar(self.n, tok.value)
        if tok.kind == "Q":
            self.advance()
            e = 1
            if self.is_op("^"):
                self.advance()
                e = self.signed_int()
            return NCPoly.scalar(self.n, LaurentQ.q_power(e))
        if tok.kind == "GEN":
            self.advance()
            index, starred = tok.value
            if index > self.n:
                raise NCSyntaxError(
                    f"generator index {index} exceeds n={self.n}", tok.pos
                )
            return NCPoly.gen(self.n, index, starred)
        if tok.kind == "OP" and tok.value == "(":
            if self.depth == MAX_NESTING:
                raise NCSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING} levels", tok.pos
                )
            self.advance()
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect_op(")")
            return inner
        raise NCSyntaxError("expected a number, generator, or '('", tok.pos)


def parse_expr(text: str, n: int) -> NCPoly:
    """Parse ``text`` as an element of the ambient-``n`` sphere algebra."""
    if n < 0:
        raise ValueError("ambient index n must be nonnegative")
    return _Parser(_tokenize(text), n).parse()
