"""Constructive basis certificates for the even K-group.

The candidate basis over the dimension-``n`` space consists of the unit
class, the dual-tautological class minus the unit, and for each rank
``2 <= m <= n`` the associated fundamental bundle class minus ``m`` trivial
summands.  Row ``j`` of the basis matrix collects the t-coefficients of the
``j``-th candidate.  Certification writes down an integer inverse in closed
form, multiplies it back to the identity exactly, and takes the determinant
of the inverse; the exact product is the proof that the candidates are a
Z-basis, and it forces both determinants to be the same unit.

Writing ``u = 1 - t``, the candidates are ``b_0 = 1``, ``b_1 = u - 1`` and
``b_m = (m-1)(u^-1 - 1) + u^(m-1) - 1``, so row ``j`` of the inverse holds
the coordinates of ``t^j``: ``t^0 = b_0`` and ``t = -b_1``.  For
``2 <= j < n`` the alternating binomial sum
``sum_i (-1)^i C(j, i) b_(i+1)`` cancels the ``(m-1)`` multiples and the
constants and leaves ``(1 - u)^j = t^j``; for ``j = n`` the top class
``b_(n+1)`` is missing, and ``sum_k (-1)^k C(n, k) b_k`` gives
``t^n u^-1 = t^n`` instead.

``unimodular_inverse`` is a fraction-free Gauss-Jordan elimination over the
integers; certificates do not use it, but the test suite checks the closed
form against it.

The back-multiplication packs each row ``k`` of the inverse ``N`` into one
integer ``R_k = sum_j N[k][j] 2^(j w)`` and checks, for every row ``i`` of
the matrix ``M``, that ``sum_k M[i][k] R_k = 2^(i w)``.  The left side is
``sum_j P[i][j] 2^(j w)`` with ``P = M N``.  The slot width ``w`` is chosen
with ``2^(w-1) > max(1, size max|M| max|N|)``, so every entry of ``P`` and
of the identity lies in ``(-2^(w-1), 2^(w-1))``.  An integer has at most
one expansion ``sum_j d_j 2^(j w)`` with digits in that range: two of them
differ digitwise by less than ``2^w`` in absolute value, and at the lowest
differing digit ``j`` the difference is ``d 2^(j w)`` modulo ``2^((j+1) w)``
with ``0 < |d| < 2^w``, which is not zero.  So the packed rows equal
``2^(i w)`` exactly when ``P`` is the identity; the check is a proof, not a
sample.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import comb
from operator import mul
from typing import NamedTuple

from .corep import associated_class, fundamental_weights
from .kclasses import line_class
from .rings import TruncatedPoly

Matrix = list[list[int]]


class UnimodularityError(ArithmeticError):
    """Raised when a matrix expected to be invertible over Z is not."""


def basis_class(n: int, m: int) -> TruncatedPoly:
    """The ``m``-th candidate basis class, built through the bundle route.

    ``m = 0`` is the unit, ``m = 1`` the dual tautological class minus the
    unit, and ``m >= 2`` the rank-``m`` associated bundle class minus ``m``.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if not 0 <= m <= n:
        raise ValueError(f"basis index must satisfy 0 <= m <= {n}, got {m}")
    if m == 0:
        return TruncatedPoly.one(n)
    if m == 1:
        return line_class(n, 1) - 1
    return associated_class(n, fundamental_weights(m)) - m


def basis_class_closed_form(n: int, m: int) -> TruncatedPoly:
    """Closed form of ``basis_class`` for ``m >= 2``.

    Coefficient of ``t^k`` is ``(m-1) + (-1)^k * C(m-1, k)`` for ``k >= 2``
    and zero below; must agree with the bundle route, which the test suite
    checks as a cross-implementation oracle.
    """
    if not 2 <= m <= n:
        raise ValueError(f"closed form needs 2 <= m <= {n}, got {m}")
    coeffs = [0, 0]
    for k in range(2, n + 1):
        signed = comb(m - 1, k) if k % 2 == 0 else -comb(m - 1, k)
        coeffs.append((m - 1) + signed)
    return TruncatedPoly(n, coeffs)


def basis_matrix(n: int) -> Matrix:
    """Rows are the t-coefficients of the candidate basis classes."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return [list(basis_class(n, j).coeffs) for j in range(n + 1)]


def _check_square(matrix) -> list[list[int]]:
    rows = [list(r) for r in matrix]
    size = len(rows)
    if size == 0 or any(len(r) != size for r in rows):
        raise ValueError("matrix must be square and nonempty")
    return rows


def unimodular_inverse(matrix) -> tuple[int, Matrix]:
    """Exact integer inverse of a unimodular matrix, with its determinant.

    Runs one-step fraction-free Gauss-Jordan on the augmented matrix; the
    eliminated left block ends as det * I and the right block as the
    adjugate, so for determinant +-1 the inverse is the adjugate times the
    determinant.  Raises ``UnimodularityError`` when |det| != 1.
    """
    rows = _check_square(matrix)
    size = len(rows)
    width = 2 * size
    a = [row + [1 if i == j else 0 for j in range(size)] for i, row in enumerate(rows)]
    sign = 1
    denom = 1
    for k in range(size):
        pivot_row = None
        for r in range(k, size):
            if a[r][k] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            raise UnimodularityError("unimodularity violated: matrix is singular")
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        piv = a[k][k]
        top = a[k]
        for i in range(size):
            if i == k:
                continue
            f = a[i][k]
            row = a[i]
            if f == 0 and piv == denom:
                continue
            a[i] = [(piv * row[j] - f * top[j]) // denom for j in range(width)]
        denom = piv
    det = sign * denom
    if det not in (1, -1):
        raise UnimodularityError(f"unimodularity violated: determinant is {det}")
    # inverse = adjugate / det(PA); dividing by +-1 is multiplying by it
    scale = denom  # det of the row-permuted matrix
    inverse = [[scale * a[i][size + j] for j in range(size)] for i in range(size)]
    return det, inverse


def det_hessenberg(matrix) -> int:
    """Exact determinant of a lower Hessenberg matrix in O(size^2) products.

    Lower Hessenberg means ``a[r][c] = 0`` whenever ``c > r + 1``;
    anything else raises ``ArithmeticError``.  Expanding the leading
    ``k x k`` minor along its last row gives, with 1-based indices,
    ``D_k = sum_i (-1)^(k-i) a[k][i] a[i][i+1] ... a[k-1][k] D_(i-1)``
    and ``D_0 = 1``.
    """
    a = _check_square(matrix)
    size = len(a)
    if any(a[r][c] for r in range(size) for c in range(r + 2, size)):
        raise ArithmeticError("matrix is not lower Hessenberg")
    minors = [1]
    for k in range(1, size + 1):
        row = a[k - 1]
        total = 0
        chain = 1  # superdiagonal product a[i][i+1] ... a[k-1][k]
        for i in range(k, 0, -1):
            term = row[i - 1] * chain * minors[i - 1]
            total += -term if (k - i) % 2 else term
            if i > 1:
                chain *= a[i - 2][i - 1]
        minors.append(total)
    return minors[size]


def basis_inverse(n: int) -> Matrix:
    """Closed-form integer inverse of ``basis_matrix(n)``.

    Row ``j`` holds the coordinates of ``t^j`` in the candidate basis (see
    the module docstring): ``1`` and ``-1`` on rows 0 and 1, the signed
    binomials ``(-1)^(k-1) C(j, k-1)`` in columns ``2..j+1`` of row
    ``2 <= j < n``, and ``(-1)^k C(n, k)`` in columns ``2..n`` of row ``n``.
    The result is lower Hessenberg.  Only ``BasisCertificate.verify``
    proves it is the inverse.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    inv = [[0] * (n + 1) for _ in range(n + 1)]
    inv[0][0] = 1
    inv[1][1] = -1
    for j in range(2, n):
        for k in range(2, j + 2):
            inv[j][k] = -comb(j, k - 1) if k % 2 == 0 else comb(j, k - 1)
    for k in range(2, n + 1):
        inv[n][k] = comb(n, k) if k % 2 == 0 else -comb(n, k)
    return inv


class BasisCertificate(NamedTuple):
    """Unimodularity witness: matrix, determinant, and integer inverse."""

    n: int
    matrix: tuple[tuple[int, ...], ...]
    det: int
    inverse: tuple[tuple[int, ...], ...]

    def verify(self) -> bool:
        """Multiply back to the identity, exactly, on packed rows (module docstring)."""
        if self.det not in (1, -1):
            return False
        top = [max(map(abs, chain(*m)), default=0) for m in (self.matrix, self.inverse)]
        w = max(1, len(self.inverse) * top[0] * top[1]).bit_length() + 1
        packed = [sum(x << (j * w) for j, x in enumerate(row) if x) for row in self.inverse]
        products = (sum(map(mul, row, packed)) for row in self.matrix)
        return all(p == 1 << (i * w) for i, p in enumerate(products))

    def coordinates_of(self, c: TruncatedPoly) -> tuple[int, ...]:
        """Coordinates of ``c`` in the certified basis (row vector times inverse)."""
        if c.n != self.n:
            raise ValueError(f"class has n={c.n}, certificate has n={self.n}")
        v = c.coeffs
        return tuple(
            sum(v[k] * self.inverse[k][j] for k in range(self.n + 1))
            for j in range(self.n + 1)
        )

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "matrix": [[str(x) for x in row] for row in self.matrix],
            "det": str(self.det),
            "inverse": [[str(x) for x in row] for row in self.inverse],
        }


def certify_basis(n: int) -> BasisCertificate:
    """Build the basis matrix and certify it invertible over the integers.

    The inverse is the closed form of ``basis_inverse`` and the determinant
    is ``det_hessenberg`` of that inverse; neither is trusted.  The
    certificate is kept only if the matrix times the inverse is exactly the
    identity, which makes the inverse correct and ``det(M) = det(N) = +-1``.
    A failed back-multiplication raises ``ArithmeticError``; it is not
    reachable for valid ``n``.
    """
    m = basis_matrix(n)
    inv = basis_inverse(n)
    cert = BasisCertificate(
        n=n,
        matrix=tuple(tuple(row) for row in m),
        det=det_hessenberg(inv),
        inverse=tuple(tuple(row) for row in inv),
    )
    if not cert.verify():
        raise ArithmeticError("certificate failed back-multiplication check")
    return cert


@lru_cache(maxsize=None)
def _cached_certificate(n: int) -> BasisCertificate:
    return certify_basis(n)


def expand_in_basis(c: TruncatedPoly):
    """Unique integer coordinates of ``c`` in the certified basis."""
    return _cached_certificate(c.n).coordinates_of(c)


def is_leading_block(small, big) -> bool:
    """Is the square matrix ``small`` the upper-left corner of ``big``?"""
    size = len(small)
    return len(big) >= size and all(
        list(big[i][:size]) == list(small[i]) for i in range(size)
    )


def nesting_check(n: int) -> bool:
    """Does the order-``n`` basis matrix sit in the upper-left corner of order ``n+1``?

    Compares the full (n+1) x (n+1) leading block, which is the reading
    consistent with the matrix dimensions.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return is_leading_block(basis_matrix(n), basis_matrix(n + 1))
