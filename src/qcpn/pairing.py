"""Index pairings of K-classes with the even K-homology generators.

On the t-basis the pairing of the k-th generator with ``t^j`` is
``(-1)^j`` when ``j = k`` and zero otherwise, so pairing a class against
generator ``k`` is coefficient extraction with an alternating sign.  The
pairing with generator 0 is the rank and with generator 1 the first
Chern number.
"""

from __future__ import annotations

from .rings import TruncatedPoly


def index_pairing(k: int, c: TruncatedPoly) -> int:
    """Pair the k-th K-homology generator with the class ``c``.

    Equals ``(-1)^k`` times the degree-``k`` coefficient of ``c``; linear
    in ``c``.
    """
    if not 0 <= k <= c.n:
        raise ValueError(f"pairing index must satisfy 0 <= k <= {c.n}, got {k}")
    coeff = c.coeffs[k]
    return -coeff if k % 2 else coeff


def pairing_vector(c: TruncatedPoly) -> tuple[int, ...]:
    """All ``n + 1`` pairings of ``c``, ordered by generator index."""
    return tuple(index_pairing(k, c) for k in range(c.n + 1))


def pairing_matrix(classes) -> list[list[int]]:
    """Matrix with entry ``(k, j)`` the pairing of generator ``k`` with class ``j``.

    Requires exactly ``n + 1`` classes over a common dimension ``n``.
    """
    classes = list(classes)
    if not classes:
        raise ValueError("need at least one class")
    n = classes[0].n
    if any(c.n != n for c in classes):
        raise ValueError("dimension mismatch: classes live over different spaces")
    if len(classes) != n + 1:
        raise ValueError(
            f"dimension mismatch: expected {n + 1} classes, got {len(classes)}"
        )
    return [[index_pairing(k, c) for c in classes] for k in range(n + 1)]
