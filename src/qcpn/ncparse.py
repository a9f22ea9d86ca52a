"""Parser for sphere-algebra expressions.

Accepts the surface syntax used by the CLI and by ``NCPoly.__str__``::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := primary ('^' int)*
    primary:= uint | qpow | gen | '(' expr ')'
    qpow   := 'q' ('^' int)?
    gen    := 'z' uint ['s']          # 's' marks the starred generator
    int    := ['-'] uint
    uint   := [0-9]+

Whitespace separates tokens and is otherwise ignored.  A generator index
above the ambient ``n`` is a syntax error, so parse errors and range
errors surface the same way with a character offset attached.
Parentheses nested more than ``MAX_NESTING`` levels deep are a syntax
error too; the cap keeps the recursive descent well inside the
interpreter's recursion limit.  A ``^`` exponent above ``MAX_EXPONENT``
in absolute value is a syntax error at the exponent's offset: a scalar
raised to a huge power would compute an integer of millions of digits
before any budget applies.  ``q^e`` takes any exponent, because it is one
monomial.  A negative power applies only to ``+-q^k``, whose powers stay
monomials.

Nested powers and chains of ``*`` pass those caps at every step, so each
power and each product is budgeted by the sizes ``_size`` of its
operands: the bit length of the sum of the absolute values of the
integer coefficients, and the number of letters of the longest word
(letters need no coefficient bits).  ``acc^e`` with ``e >= 0`` is bounded
by ``e`` times each size of ``acc``, and ``a*b`` by the sum of each size
of ``a`` and ``b``.  These bound the coefficient bits and the longest
word of the free result, since the sum of absolute values is
submultiplicative and word lengths add.  A bound over ``MAX_POWER_BITS``
or ``MAX_WORD_LENGTH`` is a syntax error at the exponent's offset or at
the ``*``.  So ``39^99999`` (6 bits times 99999) passes, while
``(39^99999)^99999`` is refused as soon as its base is known, instead of
squaring a 159k-digit integer on its way to some 5 * 10^10 bits;
``39^99999*39^99999`` is refused at once, and ``((z0^1000)^1000)^1000``
before it builds a word of 10^6 letters, let alone 10^9.

``qpow`` builds ``q^e`` as one scalar; through ``factor`` it would cost a
chain of products, and normal forms fed back to the parser are full of
``q^e``.

``parse_expr`` expands the free product and refuses, with ``ValueError``,
any product of more than ``MAX_FREE_TERMS`` term pairs.  ``nc degree``
cannot avoid the expansion: ``(1+z0)*(z0-1) - z0*z0`` is ``-1``, of
degree 0, although its factors have weights 0, 1 and 2.  The private
``_mul`` hook replaces the product of ``*`` and of every multiply inside
``^``; ``nc reduce`` passes the normal-form product there, so that each
product is reduced as soon as it is formed.
"""

from __future__ import annotations

import re
from operator import add
from typing import NamedTuple

from .rings import binary_power
from .sphere import NCPoly

MAX_NESTING = 100  # parenthesis levels
MAX_EXPONENT = 10**5  # |e| of a '^' exponent
MAX_POWER_BITS = 10**6  # coefficient bits of a power (exponent times base) or a product
MAX_FREE_TERMS = 10**6  # term pairs of one free product
MAX_WORD_LENGTH = 10**5  # letters of a word of a power or a product


class NCSyntaxError(ValueError):
    """Malformed expression; ``position`` is the 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class _Token(NamedTuple):
    kind: str  # INT, Q, GEN, OP, END
    value: object
    pos: int


# One alternative per token kind, after any whitespace (``\s`` is exactly
# ``str.isspace``); the group that matched names the kind.  Some alternative
# matches at every position, and END only at the end of the text.
_TOKEN = re.compile(
    r"""\s*(?:
        (?P<OP>[-+*^()])
      | (?P<INT>[0-9]+)
      | (?P<Q>q)
      | (?P<GEN>z(?P<index>[0-9]+)(?P<star>s?))
      | (?P<Z>z)
      | (?P<END>\Z)
      | (?P<BAD>.))""",
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    new = tuple.__new__  # builds a _Token without the NamedTuple's Python-level __new__
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        pos = m.start(kind)
        if kind == "Z":
            raise NCSyntaxError("expected an index after 'z'", pos)
        if kind == "BAD":
            raise NCSyntaxError(f"unexpected character {m[kind]!r}", pos)
        if kind == "GEN":
            value = (int(m["index"]), m["star"] == "s")
        else:
            value = int(m[kind]) if kind == "INT" else m[kind]
        tokens.append(new(_Token, (kind, value, pos)))
        if kind == "END":
            return tokens


def _infer_n(text: str) -> int:
    """The largest generator index in ``text``, or 0 if it has none."""
    return max((tok.value[0] for tok in _tokenize(text) if tok.kind == "GEN"), default=0)


def _size(p: NCPoly) -> tuple[int, int]:
    """The coefficient bits and the longest word of ``p``: the bit length of
    the sum of the absolute values of its integer coefficients, and the
    number of letters of its longest word (0 for a scalar)."""
    bits = sum(abs(c) for coeff in p._terms.values() for c in coeff.values()).bit_length()
    return bits, max(map(len, p._terms), default=0)


def _check_size(what: str, sizes, pos: int) -> None:
    """Refuse a power or product whose bounds ``(bits, letters)`` exceed a budget."""
    budgets = ((MAX_POWER_BITS, "coefficient bits"), (MAX_WORD_LENGTH, "letters per word"))
    for size, (cap, unit) in zip(sizes, budgets):
        if size > cap:
            raise NCSyntaxError(f"{what} exceeds the budget of {cap} {unit}", pos)


def _free_product(a: NCPoly, b: NCPoly) -> NCPoly:
    if a.term_count() * b.term_count() > MAX_FREE_TERMS:
        raise ValueError(f"free expansion exceeds {MAX_FREE_TERMS} term pairs")
    return a * b


class _Parser:
    def __init__(self, tokens: list[_Token], n: int, mul):
        self.tokens = tokens
        self.n = n
        self.mul = mul
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
            star = self.advance()
            rhs = self.factor()
            _check_size("product", map(add, _size(acc), _size(rhs)), star.pos)
            acc = self.mul(acc, rhs)
        return acc

    def factor(self) -> NCPoly:
        acc = self.primary()
        while self.is_op("^"):
            caret = self.advance()
            at = self.peek().pos
            e = self.signed_int()
            if abs(e) > MAX_EXPONENT:
                raise NCSyntaxError(f"exponent exceeds {MAX_EXPONENT} in absolute value", at)
            if e >= 0:
                _check_size("power", [e * size for size in _size(acc)], at)
                acc = binary_power(acc, e, NCPoly.one(self.n), self.mul)
            else:
                acc = self._invert_scalar(acc, e, caret.pos)
        return acc

    def signed_int(self) -> int:
        negate = self.is_op("-")
        if negate:
            self.advance()
        tok = self.advance()
        if tok.kind != "INT":
            raise NCSyntaxError("expected an integer exponent", tok.pos)
        return -tok.value if negate else tok.value

    def _invert_scalar(self, base: NCPoly, e: int, pos: int) -> NCPoly:
        # Negative powers only make sense for the invertible monomials +-q^k,
        # and (k q^exp)^e is k q^(exp e) for odd e and q^(exp e) for even e.
        if list(base._terms) != [()]:
            raise NCSyntaxError("negative exponent on a non-scalar factor", pos)
        monos = list(base._terms[()].items())
        if len(monos) != 1 or monos[0][1] not in (1, -1):
            raise NCSyntaxError("negative exponent on a non-invertible scalar", pos)
        ((exp, k),) = monos
        return NCPoly.scalar(base.n, {exp * e: k if e % 2 else 1})

    def primary(self) -> NCPoly:
        tok = self.advance()
        if tok.kind == "INT":
            return NCPoly.scalar(self.n, tok.value)
        if tok.kind == "Q":
            e = 1
            if self.is_op("^"):
                self.advance()
                e = self.signed_int()
            return NCPoly.scalar(self.n, {e: 1})
        if tok.kind == "GEN":
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
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            if not self.is_op(")"):
                raise NCSyntaxError("expected ')'", self.peek().pos)
            self.advance()
            return inner
        raise NCSyntaxError("expected a number, generator, or '('", tok.pos)


def parse_expr(text: str, n: int, *, _mul=_free_product) -> NCPoly:
    """Parse ``text`` as an element of the ambient-``n`` sphere algebra."""
    if n < 0:
        raise ValueError("ambient index n must be nonnegative")
    return _Parser(_tokenize(text), n, _mul).parse()
