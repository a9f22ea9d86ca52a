"""Basis classes and exact unimodularity certificates.

The elimination routines are checked against two independent oracles:
cofactor expansion (exponential, small sizes) and Gauss-Jordan over
``fractions.Fraction`` (exact rational arithmetic, any size).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcpn.basis import (
    BasisCertificate,
    UnimodularityError,
    basis_class,
    basis_class_closed_form,
    basis_inverse,
    basis_matrix,
    certify_basis,
    det_cofactor,
    det_exact,
    det_hessenberg,
    expand_in_basis,
    is_leading_block,
    nesting_check,
    unimodular_inverse,
)
from qcpn.kclasses import KClass, line_class
from qcpn.rings import TruncatedPoly


def fraction_gauss_jordan(matrix):
    """Oracle: (det, inverse) over exact rationals, or (0, None) if singular."""
    size = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(size)]
         for i, row in enumerate(matrix)]
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col] != 0), None)
        if pivot is None:
            return 0, None
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(size):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    inverse = [row[size:] for row in a]
    return det, inverse


def random_unimodular(rng, size, ops=25):
    """Integer matrix of determinant +-1 built from elementary operations."""
    m = [[int(i == j) for j in range(size)] for i in range(size)]
    det = 1
    for _ in range(ops):
        kind = rng.randrange(3)
        i, j = rng.randrange(size), rng.randrange(size)
        if kind == 0 and i != j:
            c = rng.randint(-4, 4)
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        elif kind == 1 and i != j:
            m[i], m[j] = m[j], m[i]
            det = -det
        elif kind == 2:
            m[i] = [-a for a in m[i]]
            det = -det
    return m, det


small_matrices = st.integers(1, 5).flatmap(
    lambda size: st.lists(
        st.lists(st.integers(-9, 9), min_size=size, max_size=size),
        min_size=size,
        max_size=size,
    )
)


class TestDeterminants:
    def test_identity(self):
        assert det_exact([[1, 0], [0, 1]]) == 1
        assert det_cofactor([[1, 0], [0, 1]]) == 1

    def test_frozen_basis_determinants(self):
        assert det_exact(basis_matrix(2)) == -1
        assert det_cofactor(basis_matrix(2)) == -1
        assert det_exact(basis_matrix(3)) == 1
        assert det_cofactor(basis_matrix(3)) == 1

    def test_singular(self):
        assert det_exact([[1, 2], [2, 4]]) == 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det_exact([[1, 2]])
        with pytest.raises(ValueError):
            det_cofactor([])

    @given(small_matrices)
    def test_elimination_matches_cofactor(self, m):
        assert det_exact(m) == det_cofactor(m)

    @given(small_matrices)
    def test_elimination_matches_fractions(self, m):
        expected, _ = fraction_gauss_jordan(m)
        assert det_exact(m) == expected

    def test_large_entries_stay_exact(self):
        big = 10**30
        m = [[big, big - 1], [big + 1, big]]
        # det = big^2 - (big-1)(big+1) = 1
        assert det_exact(m) == 1


def random_hessenberg(rng, size, spread):
    """Random integer matrix with a[r][c] = 0 for c > r + 1."""
    return [
        [rng.randint(-spread, spread) if c <= r + 1 else 0 for c in range(size)]
        for r in range(size)
    ]


class TestHessenbergDeterminant:
    @settings(max_examples=80)
    @given(st.integers(0, 10**9), st.integers(1, 12), st.sampled_from([1, 9]))
    def test_matches_elimination(self, seed, size, spread):
        # spread 1 puts many zeros on the superdiagonal
        m = random_hessenberg(random.Random(seed), size, spread)
        assert det_hessenberg(m) == det_exact(m)

    def test_large_entries_stay_exact(self):
        big = 10**30
        assert det_hessenberg([[big, big - 1], [big + 1, big]]) == 1

    def test_rejects_entry_above_superdiagonal(self):
        with pytest.raises(ArithmeticError):
            det_hessenberg([[1, 0, 1], [0, 1, 0], [0, 0, 1]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det_hessenberg([[1, 2]])


class TestUnimodularInverse:
    def test_two_by_two(self):
        det, inv = unimodular_inverse([[2, 1], [1, 1]])
        assert det == 1
        assert inv == [[1, -1], [-1, 2]]

    def test_swapped_rows_flip_sign(self):
        det, inv = unimodular_inverse([[0, 1], [1, 0]])
        assert det == -1
        assert inv == [[0, 1], [1, 0]]

    def test_rejects_non_unimodular(self):
        with pytest.raises(UnimodularityError):
            unimodular_inverse([[2, 0], [0, 1]])

    def test_rejects_singular(self):
        with pytest.raises(UnimodularityError):
            unimodular_inverse([[1, 1], [1, 1]])

    @settings(max_examples=60)
    @given(st.integers(0, 10**9), st.integers(1, 7))
    def test_matches_fraction_oracle_on_unimodular(self, seed, size):
        m, expected_det = random_unimodular(random.Random(seed), size)
        det, inv = unimodular_inverse(m)
        frac_det, frac_inv = fraction_gauss_jordan(m)
        assert det == expected_det == frac_det
        assert [[Fraction(x) for x in row] for row in inv] == frac_inv

    @settings(max_examples=60)
    @given(small_matrices)
    def test_agrees_with_fractions_or_raises(self, m):
        frac_det, frac_inv = fraction_gauss_jordan(m)
        if frac_det in (1, -1):
            det, inv = unimodular_inverse(m)
            assert det == frac_det
            assert [[Fraction(x) for x in row] for row in inv] == frac_inv
        else:
            with pytest.raises(UnimodularityError):
                unimodular_inverse(m)


class TestBasisClasses:
    def test_low_indices(self):
        assert basis_class(2, 0).poly.coeffs == (1, 0, 0)
        assert basis_class(2, 1).poly.coeffs == (0, -1, 0)

    def test_frozen_examples(self):
        assert basis_class(2, 2).poly.coeffs == (0, 0, 1)
        assert basis_class(3, 3).poly.coeffs == (0, 0, 3, 2)

    def test_closed_form_matches_construction(self):
        for n in range(2, 13):
            for m in range(2, n + 1):
                assert basis_class_closed_form(n, m) == basis_class(n, m)

    def test_closed_form_frozen_row(self):
        assert basis_class_closed_form(4, 2).poly.coeffs == (0, 0, 1, 1, 1)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            basis_class(3, 4)
        with pytest.raises(ValueError):
            basis_class(3, -1)
        with pytest.raises(ValueError):
            basis_class_closed_form(3, 1)


class TestBasisMatrix:
    def test_frozen_matrices(self):
        assert basis_matrix(1) == [[1, 0], [0, -1]]
        assert basis_matrix(2) == [[1, 0, 0], [0, -1, 0], [0, 0, 1]]
        assert basis_matrix(3) == [
            [1, 0, 0, 0],
            [0, -1, 0, 0],
            [0, 0, 1, 1],
            [0, 0, 3, 2],
        ]

    def test_row_structure(self):
        for n in range(1, 10):
            m = basis_matrix(n)
            assert m[0] == [1] + [0] * n
            assert m[1] == [0, -1] + [0] * (n - 1)
            for j in range(2, n + 1):
                assert m[j][0] == 0 and m[j][1] == 0


class TestCertificates:
    def test_n2_certificate(self):
        cert = certify_basis(2)
        assert cert.det == -1
        assert cert.inverse == ((1, 0, 0), (0, -1, 0), (0, 0, 1))
        assert cert.verify()

    def test_closed_form_inverse_matches_elimination(self):
        for n in range(1, 41):
            det, inv = unimodular_inverse(basis_matrix(n))
            assert basis_inverse(n) == inv, n
            assert certify_basis(n).det == det, n

    def test_failed_back_multiplication_raises(self, monkeypatch):
        import qcpn.basis as basis

        monkeypatch.setattr(basis, "basis_inverse", lambda n: basis_matrix(n))
        with pytest.raises(ArithmeticError):
            basis.certify_basis(3)

    def test_n1_determinant(self):
        assert certify_basis(1).det == -1

    def test_verify_catches_corruption(self):
        cert = certify_basis(3)
        bad = BasisCertificate(
            n=3, matrix=cert.matrix, det=cert.det, inverse=cert.matrix
        )
        assert not bad.verify()

    def test_coordinates_of_tautological(self):
        cert = certify_basis(3)
        assert cert.coordinates_of(line_class(3, -1)) == (1, -1, 1, 0)

    def test_coordinates_dimension_check(self):
        cert = certify_basis(3)
        with pytest.raises(ValueError):
            cert.coordinates_of(line_class(2, 1))

    def test_as_dict_stringifies(self):
        d = certify_basis(1).as_dict()
        assert d["det"] == "-1"
        assert d["matrix"] == [["1", "0"], ["0", "-1"]]

    @given(st.integers(1, 10), st.data())
    def test_expansion_roundtrip(self, n, data):
        coeffs = data.draw(
            st.lists(st.integers(-50, 50), min_size=n + 1, max_size=n + 1)
        )
        c = KClass(n, TruncatedPoly(n, coeffs))
        coords = expand_in_basis(c)
        rebuilt = KClass.zero(n)
        for j, x in enumerate(coords):
            rebuilt = rebuilt + x * basis_class(n, j)
        assert rebuilt == c

    def test_expansion_accepts_explicit_certificate(self):
        cert = certify_basis(2)
        assert expand_in_basis(KClass.unit(2), cert) == (1, 0, 0)


class TestNesting:
    def test_small_range(self):
        for n in range(1, 12):
            assert nesting_check(n)

    def test_range_error(self):
        with pytest.raises(ValueError):
            nesting_check(0)

    def test_leading_block(self):
        big = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        assert is_leading_block([[1, 2], [4, 5]], big)
        assert is_leading_block(((1, 2), (4, 5)), tuple(map(tuple, big)))
        assert not is_leading_block([[1, 2], [4, 6]], big)
        assert not is_leading_block(big, [[1, 2], [4, 5]])
