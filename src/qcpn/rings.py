"""Exact arithmetic foundations.

Two scalar domains, both with arbitrary-precision integer coefficients:

* ``LaurentQ`` -- Laurent polynomials in a formal variable ``q`` over the
  integers.  The deformation parameter is kept symbolic so that every
  computation is exact and the commutative specialisation ``q = 1`` is a
  plain evaluation, not a limit.
* ``TruncatedPoly`` -- the commutative ring ``Z[t] / t^(n+1)``.  Elements
  carry their truncation order ``n`` and never mix different orders.

Both, and ``sphere.NCPoly``, derive from ``_Ring``, the one place that
decides how an ``int`` meets an element and how ``-``, truth and ``**``
follow from ``+``, unary ``-`` and ``*``, and what makes an element a
value: its fields are its ``__slots__``, filled once, compared by ``==``
and rebuilt by ``pickle`` and ``copy``.  One pair of helpers writes an
element as a signed sum of monomials.

A Laurent polynomial is stored as an exponent map ``{e: c}`` with no zero
coefficient.  ``_qadd`` and ``_qmul`` are the sum and product of such
maps; ``LaurentQ`` wraps their results, and ``sphere.NCPoly`` keeps its
coefficients as bare maps and calls them directly.

No floating point is used anywhere; Python integers are exact at any size.
"""

from __future__ import annotations

from operator import index, mul as _times
from typing import Iterable, Mapping


class TruncationMismatchError(ValueError):
    """Raised when two truncated polynomials of different order meet."""


class NotInvertibleError(ValueError):
    """Raised when inversion is requested for a non-unit."""


def binary_power(base, e: int, one, mul=_times):
    """``base ** e`` for ``e >= 0`` by binary powering, starting from ``one``.

    ``mul`` forms every product (default ``*``).  The base is squared only
    while higher bits of ``e`` remain: one square past the top bit would
    cost nothing in a truncated ring but would build ``base^(2^k)`` in the
    free algebra, where its size grows with ``k``.
    """
    acc = one
    while e:
        if e & 1:
            acc = mul(acc, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return acc


def _monomial(c: int, var: str, e: int) -> str:
    """Unsigned text of ``|c| * var^e``: ``3``, ``q``, ``2*q^-1``, ``t^2``."""
    if e == 0:
        return str(abs(c))
    power = var if e == 1 else f"{var}^{e}"
    return power if abs(c) == 1 else f"{abs(c)}*{power}"


def _signed_sum(bodies) -> str:
    """Join ``(c, text)`` pairs as ``a - b + c``, each signed by ``c``; ``0`` if none."""
    parts = []
    for c, body in bodies:
        if parts:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
        else:
            parts.append(f"-{body}" if c < 0 else body)
    return " ".join(parts) if parts else "0"


def _qadd(a: dict, b: dict) -> dict:
    """The exponent map of ``a + b`` as a new dict, zero sums dropped."""
    s = dict(a)
    for e, c in b.items():
        v = s.get(e, 0) + c
        if v:
            s[e] = v
        else:
            del s[e]
    return s


def _qmul(a: dict, b: dict) -> dict:
    """The exponent map of ``a * b`` as a new dict, zero sums dropped."""
    # single-monomial factors dominate in the rewriter
    if len(b) == 1:
        ((e2, c2),) = b.items()
        return {e + e2: c * c2 for e, c in a.items()}
    if len(a) == 1:
        ((e1, c1),) = a.items()
        return {e1 + e: c1 * c for e, c in b.items()}
    prod = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = prod.get(e, 0) + c1 * c2
            if s:
                prod[e] = s
            else:
                del prod[e]
    return prod


class _Ring:
    """An immutable exact ring element whose fields are its class's ``__slots__``.

    ``_raw`` fills the fields unchecked and uncopied, and any assignment
    or deletion raises.  ``__reduce__`` rebuilds an element through
    ``_raw``, which makes ``pickle``, ``copy`` and ``deepcopy`` work.
    ``==`` compares the fields, after coercing a foreign operand through
    ``_constant``.

    A subclass supplies ``_constant(c)`` (the constant element ``c`` of
    this element's ring, or None when ``c`` is not a constant it knows),
    ``is_zero``, ``__add__``, ``__neg__``, ``__mul__``, ``__hash__`` and
    ``__repr__``.  Elements that carry an order ``n`` set ``_mismatch`` to
    the error type and wording raised when two orders meet in arithmetic;
    ``==`` across orders is plain ``False``.  ``_negative_power`` is the
    error type and message of ``x ** -k``.
    """

    __slots__ = ()
    _mismatch = None

    @classmethod
    def _raw(cls, *fields):
        """An instance holding ``fields`` in slot order, unchecked and uncopied."""
        out = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(out, name, value)
        return out

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return self._raw, self._fields()

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            other = self._constant(other)
            if other is None:
                return NotImplemented
        return self._fields() == other._fields()

    def _coerce(self, other):
        """``other`` in this element's ring, or None for a foreign type."""
        if isinstance(other, type(self)):
            if self._mismatch and other.n != self.n:
                error, what = self._mismatch
                raise error(f"mixed {what} {self.n} and {other.n}")
            return other
        return self._constant(other)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __pow__(self, e: int):
        if e < 0:
            error, message = self._negative_power
            raise error(message)
        return binary_power(self, e, self._constant(1))


class LaurentQ(_Ring):
    """A Laurent polynomial ``sum_e c_e * q^e`` with integer coefficients.

    Stored as a map from exponent to coefficient with no explicit zeros,
    which makes equality and hashing structural.  Values are immutable.
    The *-involution of the ambient algebras fixes ``q`` (the deformation
    parameter is real), so conjugation of a ``LaurentQ`` is the identity.
    """

    __slots__ = ("_terms",)
    _negative_power = NotInvertibleError, "negative powers of a general Laurent polynomial"

    def __init__(self, terms: Mapping[int, int] | None = None):
        clean = {}
        if terms:
            for e, c in terms.items():
                e, c = index(e), index(c)
                if c:
                    clean[e] = c
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def zero(cls) -> "LaurentQ":
        return cls()

    @classmethod
    def one(cls) -> "LaurentQ":
        return cls({0: 1})

    @classmethod
    def q_power(cls, e: int, coeff: int = 1) -> "LaurentQ":
        """The monomial ``coeff * q^e``."""
        return cls({e: coeff})

    def _constant(self, c) -> "LaurentQ | None":
        return LaurentQ({0: c}) if isinstance(c, int) else None

    def terms(self) -> dict[int, int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __hash__(self):
        if not self._terms.keys() - {0}:  # a constant hashes like its int
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "LaurentQ":
        return LaurentQ._raw({e: -c for e, c in self._terms.items()})

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return LaurentQ._raw(_qadd(self._terms, other._terms))

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return LaurentQ._raw(_qmul(self._terms, other._terms))

    __rmul__ = __mul__

    def __str__(self) -> str:
        return _signed_sum((c, _monomial(c, "q", e)) for e, c in sorted(self._terms.items()))

    def __repr__(self) -> str:
        return f"LaurentQ({self._terms!r})"


class TruncatedPoly(_Ring):
    """An element of ``Z[t] / t^(n+1)``; K-classes are these elements.

    ``coeffs[k]`` is the coefficient of ``t^k``; the tuple always has
    length ``n + 1``.  Instances are immutable and safe to share.
    """

    __slots__ = ("n", "coeffs")
    _mismatch = TruncationMismatchError, "truncation orders"
    _negative_power = ValueError, "negative exponent; use invert_unit for inverses"

    def __init__(self, n: int, coeffs: Iterable[int] = ()):
        if n < 0:
            raise ValueError("truncation order must be nonnegative")
        cs = [index(c) for c in coeffs]
        if len(cs) > n + 1:
            raise ValueError(
                f"got {len(cs)} coefficients for truncation order {n}; "
                "reduce explicitly instead of constructing an overlong element"
            )
        cs.extend([0] * (n + 1 - len(cs)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls, n: int) -> "TruncatedPoly":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "TruncatedPoly":
        return cls(n, (1,))

    @classmethod
    def t(cls, n: int) -> "TruncatedPoly":
        """The variable ``t``, the Euler class ``[1] - [L_1]`` (zero when ``n = 0``)."""
        if n == 0:
            return cls(0)
        return cls(n, (0, 1))

    def _constant(self, c) -> "TruncatedPoly | None":
        if not isinstance(c, int):
            return None
        return TruncatedPoly._raw(self.n, (index(c),) + (0,) * self.n)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def rank(self) -> int:
        """The constant term: for a K-class, the fibre dimension of the bundle."""
        return self.coeffs[0]

    def __hash__(self):
        if not any(self.coeffs[1:]):  # a constant hashes like its int
            return hash(self.coeffs[0])
        return hash((self.n, self.coeffs))

    def __neg__(self) -> "TruncatedPoly":
        return TruncatedPoly._raw(self.n, tuple([-c for c in self.coeffs]))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return TruncatedPoly._raw(
            self.n, tuple([a + b for a, b in zip(self.coeffs, other.coeffs)])
        )

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = self.n
        a, b = self.coeffs, other.coeffs
        out = [0] * (n + 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j in range(n + 1 - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
        return TruncatedPoly._raw(n, tuple(out))

    __rmul__ = __mul__

    def invert_unit(self) -> "TruncatedPoly":
        """Multiplicative inverse, defined exactly when the constant term is +-1.

        Solved degree by degree: with ``a0 = +-1`` the coefficient ``b_k``
        of the inverse satisfies ``a0*b_k = -(a1*b_{k-1} + ... + a_k*b_0)``.
        """
        a = self.coeffs
        if a[0] not in (1, -1):
            raise NotInvertibleError("not invertible over the integers")
        n = self.n
        b = [0] * (n + 1)
        b[0] = a[0]  # 1/a0 == a0 for a0 = +-1
        for k in range(1, n + 1):
            s = sum(a[i] * b[k - i] for i in range(1, k + 1))
            b[k] = -a[0] * s  # division by a0 is multiplication by a0
        return TruncatedPoly(n, b)

    def as_dict(self) -> dict:
        """JSON form with coefficients as decimal strings (never floats)."""
        return {"n": self.n, "coeffs": [str(c) for c in self.coeffs]}

    def __str__(self) -> str:
        return _signed_sum((c, _monomial(c, "t", k)) for k, c in enumerate(self.coeffs) if c)

    def __repr__(self) -> str:
        return f"TruncatedPoly({self.n}, {self.coeffs!r})"
