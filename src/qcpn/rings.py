"""Exact arithmetic foundations.

Two scalar domains, both with arbitrary-precision integer coefficients:

* ``LaurentQ`` -- Laurent polynomials in a formal variable ``q`` over the
  integers.  The deformation parameter is kept symbolic so that every
  computation is exact and the commutative specialisation ``q = 1`` is a
  plain evaluation, not a limit.
* ``TruncatedPoly`` -- the commutative ring ``Z[t] / t^(n+1)``.  Elements
  carry their truncation order ``n`` and never mix different orders.

No floating point is used anywhere; Python integers are exact at any size.
"""

from __future__ import annotations

from operator import mul as _times
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


class LaurentQ:
    """A Laurent polynomial ``sum_e c_e * q^e`` with integer coefficients.

    Stored as a map from exponent to coefficient with no explicit zeros,
    which makes equality and hashing structural.  Values are immutable.
    The *-involution of the ambient algebras fixes ``q`` (the deformation
    parameter is real), so conjugation of a ``LaurentQ`` is the identity.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        clean = {}
        if terms:
            for e, c in terms.items():
                if c:
                    clean[int(e)] = int(c)
        self._terms = clean

    @classmethod
    def zero(cls) -> "LaurentQ":
        return cls()

    @classmethod
    def one(cls) -> "LaurentQ":
        return cls({0: 1})

    @classmethod
    def from_int(cls, c: int) -> "LaurentQ":
        return cls({0: c})

    @classmethod
    def q_power(cls, e: int, coeff: int = 1) -> "LaurentQ":
        """The monomial ``coeff * q^e``."""
        return cls({e: coeff})

    def terms(self) -> dict[int, int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {0: 1}

    def at_q_one(self) -> int:
        """Evaluate at ``q = 1`` (the classical specialisation)."""
        return sum(self._terms.values())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentQ.from_int(other)
        if not isinstance(other, LaurentQ):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if not self._terms.keys() - {0}:  # a constant hashes like its int
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "LaurentQ":
        out = LaurentQ()
        out._terms = {e: -c for e, c in self._terms.items()}
        return out

    def _coerce(self, other) -> "LaurentQ | None":
        if isinstance(other, LaurentQ):
            return other
        if isinstance(other, int):
            return LaurentQ.from_int(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        merged = dict(self._terms)
        for e, c in other._terms.items():
            s = merged.get(e, 0) + c
            if s:
                merged[e] = s
            else:
                merged.pop(e, None)
        out = LaurentQ()
        out._terms = merged
        return out

    __radd__ = __add__

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

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return LaurentQ()
        # single-monomial factors dominate in the rewrite engine
        if len(b) == 1:
            ((e2, c2),) = b.items()
            prod = {e + e2: c * c2 for e, c in a.items()}
        elif len(a) == 1:
            ((e1, c1),) = a.items()
            prod = {e1 + e: c1 * c for e, c in b.items()}
        else:
            prod = {}
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = e1 + e2
                    s = prod.get(e, 0) + c1 * c2
                    if s:
                        prod[e] = s
                    else:
                        del prod[e]
            prod = {e: c for e, c in prod.items() if c}
        out = LaurentQ()
        out._terms = prod
        return out

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "LaurentQ":
        if e < 0:
            raise NotInvertibleError("negative powers of a general Laurent polynomial")
        return binary_power(self, e, LaurentQ.one())

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms):
            c = self._terms[e]
            if e == 0:
                mono = str(abs(c))
            else:
                var = "q" if e == 1 else f"q^{e}"
                mono = var if abs(c) == 1 else f"{abs(c)}*{var}"
            if not parts:
                parts.append(f"-{mono}" if c < 0 else mono)
            else:
                parts.append(f"- {mono}" if c < 0 else f"+ {mono}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentQ({self._terms!r})"


class TruncatedPoly:
    """An element of ``Z[t] / t^(n+1)``; K-classes are these elements.

    ``coeffs[k]`` is the coefficient of ``t^k``; the tuple always has
    length ``n + 1``.  Instances are immutable and safe to share.
    ``coeffs`` may itself be a ``TruncatedPoly``, but only of order ``n``;
    a lower-order element is rejected rather than padded with zeros.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Iterable[int] = ()):
        if n < 0:
            raise ValueError("truncation order must be nonnegative")
        if isinstance(coeffs, TruncatedPoly):
            if coeffs.n != n:
                raise TruncationMismatchError(
                    f"polynomial order {coeffs.n} does not match n={n}"
                )
            coeffs = coeffs.coeffs
        cs = [int(c) for c in coeffs]
        if len(cs) > n + 1:
            raise ValueError(
                f"got {len(cs)} coefficients for truncation order {n}; "
                "reduce explicitly instead of constructing an overlong element"
            )
        cs.extend([0] * (n + 1 - len(cs)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedPoly is immutable")

    @classmethod
    def zero(cls, n: int) -> "TruncatedPoly":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "TruncatedPoly":
        return cls(n, (1,))

    unit = one  # K-class name: the class of the trivial line bundle

    @classmethod
    def t(cls, n: int) -> "TruncatedPoly":
        """The class of the variable ``t`` (zero when ``n = 0``)."""
        if n == 0:
            return cls(0)
        return cls(n, (0, 1))

    @classmethod
    def from_coeffs(cls, n: int, coeffs: Iterable[int]) -> "TruncatedPoly":
        return cls(n, coeffs)

    def _check_order(self, other: "TruncatedPoly"):
        if self.n != other.n:
            raise TruncationMismatchError(
                f"mixed truncation orders {self.n} and {other.n}"
            )

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def constant_term(self) -> int:
        return self.coeffs[0]

    rank = constant_term  # K-class name: the fibre dimension of a bundle

    @property
    def poly(self) -> "TruncatedPoly":
        """The element itself, for code written against a wrapping K-class."""
        return self

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = TruncatedPoly(self.n, (other,))
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        if not any(self.coeffs[1:]):  # a constant hashes like its int
            return hash(self.coeffs[0])
        return hash((self.n, self.coeffs))

    def __neg__(self) -> "TruncatedPoly":
        return TruncatedPoly(self.n, tuple(-c for c in self.coeffs))

    def _coerce(self, other):
        if isinstance(other, TruncatedPoly):
            self._check_order(other)
            return other
        if isinstance(other, int):
            return TruncatedPoly(self.n, (other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return TruncatedPoly(
            self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return TruncatedPoly(
            self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, int):  # scaling is O(n); skip the convolution
            return TruncatedPoly(self.n, [c * other for c in self.coeffs])
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
        return TruncatedPoly(n, out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "TruncatedPoly":
        if e < 0:
            raise ValueError("negative exponent; use invert_unit for inverses")
        return binary_power(self, e, TruncatedPoly.one(self.n))

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

    def truncate(self, n_target: int) -> "TruncatedPoly":
        """Image in ``Z[t] / t^(n_target+1)`` for ``n_target <= n``."""
        if n_target > self.n:
            raise TruncationMismatchError(
                f"cannot truncate order {self.n} up to order {n_target}"
            )
        return TruncatedPoly(n_target, self.coeffs[: n_target + 1])

    def as_dict(self) -> dict:
        """JSON form with coefficients as decimal strings (never floats)."""
        return {"n": self.n, "coeffs": [str(c) for c in self.coeffs]}

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                mono = str(abs(c))
            elif k == 1:
                mono = "t" if abs(c) == 1 else f"{abs(c)}*t"
            else:
                mono = f"t^{k}" if abs(c) == 1 else f"{abs(c)}*t^{k}"
            if not parts:
                parts.append(f"-{mono}" if c < 0 else mono)
            else:
                parts.append(f"- {mono}" if c < 0 else f"+ {mono}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"TruncatedPoly({self.n}, {self.coeffs!r})"
