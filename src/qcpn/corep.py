"""Character-graded corepresentation bookkeeping.

A corepresentation of the circle is a finite multiset of integer weights.
Restricting the fundamental corepresentation of the rank-``m`` quantum
special unitary group along the diagonal circle embedding (with the
compensating power on the last slot) gives ``m - 1`` copies of weight
``-1`` plus a single weight ``m - 1``.  In this diagonal situation the
cotensor product with the sphere algebra reduces to weight bookkeeping:
a weight-``lam`` vector contributes the spectral-subspace line bundle of
degree ``lam``, so the class of the associated bundle is a sum of line
classes.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from operator import add, index, mul

from .kclasses import line_class
from .rings import TruncatedPoly


def fundamental_weights(m: int) -> tuple[int, ...]:
    """Circle weights of the restricted rank-``m`` fundamental corepresentation.

    A sorted tuple.  The diagonal entries map to ``u^-1`` except the last,
    which maps to ``u^(m-1)`` so that the quantum determinant lands on ``1``.
    """
    if m < 2:
        raise ValueError(f"rank must be at least 2, got {m}")
    return (-1,) * (m - 1) + (m - 1,)


def satisfies_determinant_condition(weights) -> bool:
    """Necessary condition for a diagonal Hopf surjection to be well defined.

    A diagonal image sends the quantum determinant to ``u`` raised to the
    total weight, which must be the unit, so the integer weights must sum
    to zero.
    """
    return sum(map(index, weights)) == 0


def associated_class(n: int, weights) -> TruncatedPoly:
    """K-class of the vector bundle associated to a multiset of weights.

    ``weights`` is any nonempty iterable of ints, in any order.
    Weightwise cotensor: each weight ``lam`` contributes the line class of
    the degree-``lam`` spectral subspace, and the scaled line rows are
    summed as whole rows, one per distinct weight.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    counts = Counter(map(index, weights))
    if not counts:
        raise ValueError("weight vector must be nonempty")
    return TruncatedPoly._raw(n, tuple(_counted_class(n, counts, {})))


def _counted_class(n: int, counts, lines: dict) -> list[int]:
    """Coefficients of the class of weights with multiplicities ``counts``.

    ``counts`` maps each weight to a positive multiplicity, so a caller
    that knows them lists no weight one by one.  ``lines`` maps weights
    to their line classes of order ``n``; the classes it lacks are built
    and added, so callers that pass one dict build each line class once.
    Returns a new list.
    """
    total = None
    for lam, mult in counts.items():
        if lam not in lines:
            lines[lam] = line_class(n, lam)
        row = lines[lam].coeffs
        scaled = row if mult == 1 else map(mul, repeat(mult), row)
        # a list after every weight, so no chain of lazy maps grows with the weights
        total = list(scaled if total is None else map(add, total, scaled))
    return total


def fundamental_decomposition(n: int, m: int) -> tuple[int, ...]:
    """Line-bundle labels of the associated fundamental bundle.

    The rank-``m`` fundamental bundle over the dimension-``n`` space splits
    as ``m - 1`` copies of the tautological line bundle (label ``-1``) plus
    the degree-``m-1`` bundle.  Valid for ``2 <= m <= n``.
    """
    if not 2 <= m <= n:
        raise ValueError(f"rank must satisfy 2 <= m <= {n}, got {m}")
    return fundamental_weights(m)
