"""K-theory classes of quantum projective spaces in the t-basis.

The even K-group of the quantum projective space of dimension ``n`` is the
truncated polynomial ring ``Z[t] / t^(n+1)``, where ``t`` is the Euler
class ``[1] - [L_1]`` of the dual tautological line bundle.  A K-class is
an element of that ring, so ``KClass`` is another name for
``TruncatedPoly``; its truncation order is the dimension ``n``.

Sign convention: the degree-``m`` spectral subspace of the sphere algebra
has class ``(1 - t)^m``.  Some references attach the opposite sign to the
spectral label; here ``m = 1`` is the *dual* tautological bundle, so the
tautological bundle itself sits at ``m = -1`` with class ``1 + t + ... + t^n``.
"""

from __future__ import annotations

from operator import index

from .rings import TruncatedPoly

KClass = TruncatedPoly

MAX_BASIS_N = 400  # largest n of kbasis and of every K-class the CLI prints


def line_class(n: int, m: int) -> TruncatedPoly:
    """Class of the degree-``m`` spectral subspace line bundle: ``(1 - t)^m``.

    The coefficient of ``t^k`` is the signed generalised binomial
    ``(-1)^k C(m, k)``, built by ``c_k = c_(k-1) * (k-1-m) / k``.  Each
    division is exact because ``c_k`` is an integer, and the same row holds
    for negative ``m``, where it is the expansion of ``(1 - t)^-|m|``.  For
    ``m >= 0`` the row stops at ``c_(m+1) = 0`` and every later coefficient
    is zero too.  The coefficients are ints by construction, so only ``n``
    and ``m`` are coerced, once.
    """
    n, m = index(n), index(m)
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    coeffs = [1]
    for k in range(1, n + 1 if m < 0 else min(n, m) + 1):
        coeffs.append(coeffs[-1] * (k - 1 - m) // k)
    coeffs += [0] * (n + 1 - len(coeffs))
    return TruncatedPoly._raw(n, tuple(coeffs))


def restrict(c: TruncatedPoly, n_target: int) -> TruncatedPoly:
    """Push a class forward to a lower-dimensional quantum projective space.

    Realised on the t-basis as truncation of the expansion to degree
    ``n_target``; it sends ``line_class(n, m)`` to ``line_class(n_target, m)``
    and is a ring homomorphism.
    """
    if not 1 <= n_target <= c.n:
        raise ValueError(
            f"restriction target must satisfy 1 <= n_target <= {c.n}, got {n_target}"
        )
    return TruncatedPoly._raw(n_target, c.coeffs[: n_target + 1])
