"""K-theory classes of quantum projective spaces in the t-basis.

The even K-group of the quantum projective space of dimension ``n`` is the
truncated polynomial ring ``Z[t] / t^(n+1)``, where ``t`` is the Euler
class ``[1] - [L_1]`` of the dual tautological line bundle.  A ``KClass``
wraps a ``TruncatedPoly`` together with the dimension label ``n``.

Sign convention: the degree-``m`` spectral subspace of the sphere algebra
has class ``(1 - t)^m``.  Some references attach the opposite sign to the
spectral label; here ``m = 1`` is the *dual* tautological bundle, so the
tautological bundle itself sits at ``m = -1`` with class ``1 + t + ... + t^n``.
"""

from __future__ import annotations

import warnings

from .rings import TruncatedPoly


class KClass:
    """A K-theory class over the dimension-``n`` quantum projective space."""

    __slots__ = ("n", "poly")

    def __init__(self, n: int, poly: TruncatedPoly):
        if poly.n != n:
            raise ValueError(f"polynomial order {poly.n} does not match n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "poly", poly)

    def __setattr__(self, name, value):
        raise AttributeError("KClass is immutable")

    @classmethod
    def from_coeffs(cls, n: int, coeffs) -> "KClass":
        return cls(n, TruncatedPoly(n, coeffs))

    @classmethod
    def zero(cls, n: int) -> "KClass":
        return cls(n, TruncatedPoly.zero(n))

    @classmethod
    def unit(cls, n: int) -> "KClass":
        """The class of the trivial line bundle."""
        return cls(n, TruncatedPoly.one(n))

    def rank(self) -> int:
        """Constant coefficient; the fibre dimension for actual bundles."""
        return self.poly.constant_term()

    def _wrap(self, poly: TruncatedPoly) -> "KClass":
        return KClass(self.n, poly)

    def _coerce(self, other):
        if isinstance(other, KClass):
            return other.poly
        if isinstance(other, (TruncatedPoly, int)):
            return other
        return None

    def __add__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return self._wrap(self.poly + p)

    __radd__ = __add__

    def __sub__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return self._wrap(self.poly - p)

    def __rsub__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return self._wrap(p - self.poly)

    def __mul__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return self._wrap(self.poly * p)

    __rmul__ = __mul__

    def __neg__(self):
        return self._wrap(-self.poly)

    def __eq__(self, other):
        if not isinstance(other, KClass):
            return NotImplemented
        return self.n == other.n and self.poly == other.poly

    def __hash__(self):
        return hash((self.n, self.poly))

    def as_dict(self) -> dict:
        """JSON form with coefficients as decimal strings (never floats)."""
        return {"n": self.n, "coeffs": [str(c) for c in self.poly.coeffs]}

    def __str__(self) -> str:
        return str(self.poly)

    def __repr__(self) -> str:
        return f"KClass({self.n}, coeffs={self.poly.coeffs!r})"


def euler_class(n: int) -> KClass:
    """The Euler class ``t = [1] - [L_1]`` of the dual tautological bundle.

    For ``n = 0`` the ring is plain ``Z`` and the class vanishes; a warning
    is emitted and the zero class returned.
    """
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    if n == 0:
        warnings.warn(
            "euler class vanishes for n=0 (K-theory ring is Z)",
            RuntimeWarning,
            stacklevel=2,
        )
        return KClass.zero(0)
    return KClass(n, TruncatedPoly.t(n))


def line_class(n: int, m: int) -> KClass:
    """Class of the degree-``m`` spectral subspace line bundle: ``(1 - t)^m``.

    The coefficient of ``t^k`` is the signed generalised binomial
    ``(-1)^k C(m, k)``, built by ``c_k = c_(k-1) * (k-1-m) / k``.  Each
    division is exact because ``c_k`` is an integer, and the same row holds
    for negative ``m``, where it is the expansion of ``(1 - t)^-|m|``.
    """
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    coeffs = [1]
    for k in range(1, n + 1):
        coeffs.append(coeffs[-1] * (k - 1 - m) // k)
    return KClass(n, TruncatedPoly(n, coeffs))


def restrict(c: KClass, n_target: int) -> KClass:
    """Push a class forward to a lower-dimensional quantum projective space.

    Realised on the t-basis as truncation of the expansion to degree
    ``n_target``; it sends ``line_class(n, m)`` to ``line_class(n_target, m)``
    and is a ring homomorphism.
    """
    if not 1 <= n_target <= c.n:
        raise ValueError(
            f"restriction target must satisfy 1 <= n_target <= {c.n}, got {n_target}"
        )
    return KClass(n_target, c.poly.truncate(n_target))
