"""Constructive basis certificates for the even K-group.

The candidate basis over the dimension-``n`` space consists of the unit
class, the dual-tautological class minus the unit, and for each rank
``2 <= m <= n`` the associated fundamental bundle class minus ``m`` trivial
summands; row ``j`` of the basis matrix ``M`` holds the t-coefficients of
the ``j``-th.  Certification writes down an integer inverse ``N`` in closed
form, takes ``det N``, and checks ``M`` and ``N`` entry by entry against
their closed forms, each rebuilt by a second, independent route; the
closed forms are proved inverse below, so the check proves the candidates
a Z-basis and ``det M = det N = +-1``.

Writing ``u = 1 - t``, the candidates are ``b_0 = 1``, ``b_1 = u - 1`` and
``b_m = (m-1)(u^-1 - 1) + u^(m-1) - 1``, so row ``j`` of ``N`` holds the
coordinates of ``t^j``: ``t^0 = b_0`` and ``t = -b_1``.  For ``2 <= j < n``
the sum ``sum_(1<=i<=j) (-1)^i C(j, i) b_(i+1)`` cancels the ``(m-1)``
multiples and the constants and leaves ``(1 - u)^j = t^j``; for ``j = n``,
where ``b_(n+1)`` is missing, ``sum_(2<=k<=n) (-1)^k C(n, k) b_k`` gives
``t^n u^-1 = t^n``.  So ``N M = I``, and for square integer matrices
``M N = I`` too.  Tests check this against ``unimodular_inverse``, a
fraction-free Gauss-Jordan.

The determinant has a closed form.  For ``n = 1``, ``M = diag(1, -1)``.  For
``n >= 2``, subtracting ``(m-1) b_2`` from ``b_m`` for ``m >= 3`` leaves
``u^(m-1) - 1 - (m-1)(u - 1)``: no term below ``t^2``, degree ``m-1`` in
``t`` and leading coefficient ``(-1)^(m-1)``.  Moving ``b_2 = t^2 + ... + t^n``
to the last row, a cycle of ``n-1`` rows, then leaves ``M`` lower triangular,
so ``det M = -(-1)^(n-2) prod_(m=3..n) (-1)^(m-1) = (-1)^(n(n+1)/2)``, and
``det N = det M`` because ``M N = I``.  ``verify`` requires exactly this sign.

``BasisCertificate.verify`` holds each stored row to its closed form.  Row
``m`` of ``M`` is ``e_0``, ``-e_1`` or ``(m-1) r + s_(m-1)``, where
``r = (0, 1, ..., 1)`` holds the coefficients of ``u^-1 - 1`` and ``s_j``
those of ``u^j - 1``, a signed Pascal row built by subtraction from the row
before it.  Row ``j`` of ``N`` is ``e_0``, ``-e_1``, the coefficients
``(-1)^i C(j, i)``, ``i >= 1``, of ``line_class(j, j)`` from column 2 on,
or for ``j = n`` those with ``i >= 2``.  ``basis_matrix`` builds ``M``
through ``line_class``, whose recurrence is multiplicative, and
``basis_inverse`` builds ``N`` from Pascal's additive rule, so each
comparison pairs the two routes and an error in either one fails it.
The entries are compared as they are read, so a hostile certificate costs
no more memory than its rows already take.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from operator import add, eq, index, mul, sub
from typing import NamedTuple

from .corep import _counted_class
from .kclasses import MAX_BASIS_N, line_class
from .rings import TruncatedPoly

Matrix = list[list[int]]


class UnimodularityError(ArithmeticError):
    """Raised when a matrix expected to be invertible over Z is not."""


def _basis_row(n: int, m: int, lines: dict) -> list[int]:
    """Coefficients of ``basis_class(n, m)``, unchecked.

    The unit at ``m = 0``, ``line(n, 1) - 1`` at ``m = 1`` (the bundle of the
    single weight 1), and the rank-``m`` associated class minus ``m`` above.
    ``lines`` caches line classes as in ``_counted_class``.  The weights
    of ``fundamental_weights(m)`` are passed as their multiplicities.
    """
    if m == 0:
        return [1] + [0] * n
    row = _counted_class(n, {-1: m - 1, m - 1: 1} if m > 1 else {1: 1}, lines)
    row[0] -= m
    return row


def basis_class(n: int, m: int) -> TruncatedPoly:
    """The ``m``-th candidate basis class, built through the bundle route.

    ``m = 0`` is the unit, ``m = 1`` the dual tautological class minus the
    unit, and ``m >= 2`` the rank-``m`` associated bundle class minus ``m``.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if not 0 <= m <= n:
        raise ValueError(f"basis index must satisfy 0 <= m <= {n}, got {m}")
    return TruncatedPoly(n, _basis_row(n, m, {}))


def _signed_pascal_rows():
    """Yield the rows ``(-1)^i C(j, i)``, ``0 <= i <= j``, for ``j = 0, 1, ...``.

    Each row steps from the last by subtraction, Pascal's additive rule.
    """
    row = [1]
    while True:
        yield row
        row = [1, *map(sub, row[1:], row), -row[-1]]


def _closed_form_rows(n: int):
    """Yield the rows of ``basis_matrix(n)`` in closed form, as tuples.

    They are ``e_0``, ``-e_1`` and ``(m-1) r + s_(m-1)`` for ``2 <= m <= n``,
    whose coefficient of ``t^k`` is ``(m-1) + (-1)^k C(m-1, k)`` for
    ``k >= 2`` and zero below, read off the signed Pascal row ``m - 1``.
    Pascal's rule is independent of ``line_class``, which builds its rows
    multiplicatively, so comparing the two is a check.
    """
    yield (1, *repeat(0, n))
    yield (0, -1, *repeat(0, n - 1))
    for m, signed in enumerate(islice(_signed_pascal_rows(), 1, n), 2):
        yield (0, 0, *map(add, repeat(m - 1), signed[2:]), *repeat(m - 1, n + 1 - m))


def basis_class_closed_form(n: int, m: int) -> TruncatedPoly:
    """Closed form ``(m-1) r + s_(m-1)`` of ``basis_class`` for ``m >= 2``.

    Row ``m`` of ``_closed_form_rows``.  ``verify`` holds the stored matrix
    to these rows; tests check them against the bundle route.
    """
    n, m = index(n), index(m)  # then every coefficient is an int
    if not 2 <= m <= n:
        raise ValueError(f"closed form needs 2 <= m <= {n}, got {m}")
    return TruncatedPoly._raw(n, next(islice(_closed_form_rows(n), m, None)))


def basis_matrix(n: int) -> Matrix:
    """Rows are the t-coefficients of the candidate basis classes.

    Every row comes from ``_basis_row``, which ``basis_class`` uses too;
    the line classes are built once for the whole matrix.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    lines = {}  # weight -> line class, shared by every row
    return [_basis_row(n, m, lines) for m in range(n + 1)]


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
    sign = denom = 1
    for k in range(size):
        pivot_row = next((r for r in range(k, size) if a[r][k] != 0), None)
        if pivot_row is None:
            raise UnimodularityError("unimodularity violated: matrix is singular")
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        piv = a[k][k]
        top = a[k]
        for i in range(size):
            f, row = a[i][k], a[i]
            if i != k and (f != 0 or piv != denom):
                a[i] = [(piv * row[j] - f * top[j]) // denom for j in range(width)]
        denom = piv
    det = sign * denom
    if det not in (1, -1):
        raise UnimodularityError(f"unimodularity violated: determinant is {det}")
    # inverse = adjugate / det(PA), and denom = det(PA) = +-1 divides by multiplying
    return det, [[denom * x for x in row[size:]] for row in a]


def det_hessenberg(matrix) -> int:
    """Exact determinant of a lower Hessenberg matrix in O(size^2) products.

    Lower Hessenberg means ``a[r][c] = 0`` whenever ``c > r + 1``;
    anything else raises ``ArithmeticError``.  Expanding the leading
    ``k x k`` minor along its last row gives, with 1-based indices,
    ``D_k = sum_i (-1)^(k-i) a[k][i] a[i][i+1] ... a[k-1][k] D_(i-1)``
    and ``D_0 = 1``.  With 0-based rows this is
    ``D_(k+1) = sum_i a[k][i] W_i`` over the weights
    ``W_i = D_i prod_(i <= j < k) (-a[j][j+1])``, ``0 <= i <= k``; after
    row ``k`` every weight is multiplied by ``-a[k][k+1]`` and
    ``W_(k+1) = D_(k+1)`` is appended.
    """
    a = _check_square(matrix)
    if any(any(row[r + 2:]) for r, row in enumerate(a)):
        raise ArithmeticError("matrix is not lower Hessenberg")
    weights = [1]  # W_0 = D_0
    for k, row in enumerate(a[:-1]):
        minor = sum(map(mul, row, weights))  # D_(k+1)
        weights = [*map(mul, weights, repeat(-row[k + 1])), minor]
    return sum(map(mul, a[-1], weights))


def basis_inverse(n: int) -> Matrix:
    """Closed-form integer inverse of ``basis_matrix(n)``.

    Row ``j`` holds the coordinates of ``t^j`` in the candidate basis (see
    the module docstring): ``1`` and ``-1`` on rows 0 and 1, the signed
    binomials ``(-1)^(k-1) C(j, k-1)`` in columns ``2..j+1`` of row
    ``2 <= j < n``, and ``(-1)^k C(n, k)`` in columns ``2..n`` of row ``n``.
    The result is lower Hessenberg.  ``BasisCertificate.verify`` checks it
    entry by entry against ``_inverse_rows``.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    inv = [[0] * (n + 1) for _ in range(n + 1)]
    inv[0][0], inv[1][1] = 1, -1
    for j, signed in enumerate(islice(_signed_pascal_rows(), 2, n + 1), 2):
        inv[j][2:] = signed[1:] + [0] * (n - j - 1) if j < n else signed[2:]
    return inv


def _inverse_rows(n: int):
    """Yield the rows of ``basis_inverse(n)`` as lazy iterators, from ``line_class``.

    ``line_class`` builds its signed binomials multiplicatively, while
    ``basis_inverse`` uses Pascal's additive rule, so comparing the two is a
    check.
    """
    yield chain((1,), repeat(0, n))
    yield chain((0, -1), repeat(0, n - 1))
    for j in range(2, n):
        yield chain((0, 0), line_class(j, j).coeffs[1:], repeat(0, n - 1 - j))
    if n > 1:
        yield chain((0, 0), line_class(n, n).coeffs[2:])


class BasisCertificate(NamedTuple):
    """Unimodularity witness: matrix, determinant, and integer inverse."""

    n: int
    matrix: tuple[tuple[int, ...], ...]
    det: int
    inverse: tuple[tuple[int, ...], ...]

    def verify(self) -> bool:
        """Hold ``M``, ``N`` and ``det`` to their closed forms (module docstring).

        Every entry and ``det`` pass through ``operator.index``, so a
        non-integer raises ``TypeError``; no row is copied.
        """
        n = self.n
        if n < 1 or index(self.det) != (-1) ** (n * (n + 1) // 2):
            return False
        pairs = chain(zip(self.matrix, _closed_form_rows(n)), zip(self.inverse, _inverse_rows(n)))
        return len(self.matrix) == len(self.inverse) == n + 1 and all(
            len(row) == n + 1 and all(map(eq, map(index, row), ref)) for row, ref in pairs
        )

    def coordinates_of(self, c: TruncatedPoly) -> tuple[int, ...]:
        """Coordinates of ``c`` in the certified basis (row vector times inverse)."""
        if c.n != self.n:
            raise ValueError(f"class has n={c.n}, certificate has n={self.n}")
        return tuple(sum(map(mul, c.coeffs, col)) for col in zip(*self.inverse))

    def as_dict(self) -> dict:
        """JSON form; each row is a one-shot iterator of decimal strings.

        A row's strings are made only when the row is read, so the CLI
        writer holds one row of them at a time, never the whole matrix.
        """
        return {
            "n": self.n,
            "matrix": [map(str, row) for row in self.matrix],
            "det": str(self.det),
            "inverse": [map(str, row) for row in self.inverse],
        }


def certify_basis(n: int) -> BasisCertificate:
    """Build the basis matrix and certify it invertible over the integers.

    The inverse is the closed form of ``basis_inverse`` and the determinant
    is ``det_hessenberg`` of that inverse; neither is trusted.  The
    certificate is kept only if ``verify`` finds the matrix and the inverse
    equal to their closed forms, which are proved inverse, and the
    determinant equal to ``(-1)^(n(n+1)/2)``.  A failed check raises
    ``ArithmeticError``; it is not reachable for valid ``n``.  The work
    grows about as ``n^3``: ``n = 400`` takes about 0.13 s in-process, of
    which the matrix takes 0.045 s, ``det_hessenberg`` 0.013 s and
    ``verify`` 0.046 s (best of seven, three rounds, on a shared 2-vCPU
    Intel Xeon VM, Python 3.11.7).
    ``n`` above ``MAX_BASIS_N`` raises ``ValueError``.
    """
    if n > MAX_BASIS_N:
        raise ValueError(f"dimension must be at most {MAX_BASIS_N}, got {n}")
    m, inv = basis_matrix(n), basis_inverse(n)
    matrix, inverse = tuple(map(tuple, m)), tuple(map(tuple, inv))
    cert = BasisCertificate(n, matrix, det_hessenberg(inv), inverse)
    if not cert.verify():
        raise ArithmeticError("certificate failed the closed-form entry check")
    return cert


def is_leading_block(small, big) -> bool:
    """Is the square matrix ``small`` the upper-left corner of ``big``?"""
    size = len(small)
    return len(big) >= size and all(
        list(big[i][:size]) == list(small[i]) for i in range(size)
    )


def nesting_check(n: int) -> bool:
    """Is the order-``n`` basis matrix the leading (n+1) x (n+1) block of order ``n+1``?"""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return is_leading_block(basis_matrix(n), basis_matrix(n + 1))
