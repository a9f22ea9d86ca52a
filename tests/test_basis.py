"""Basis classes and exact unimodularity certificates.

The determinant and the elimination routine are checked against an
independent oracle: Gauss-Jordan over ``fractions.Fraction`` (exact rational
arithmetic, any size).
"""

import random
import tracemalloc
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
    det_hessenberg,
    is_leading_block,
    nesting_check,
    unimodular_inverse,
)
from qcpn.kclasses import MAX_BASIS_N, KClass, line_class
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


def is_identity_product(a, b):
    """Oracle: is the plain triple-loop product ``a b`` the identity?"""
    size = len(a)
    if len(b) != size or any(len(r) != size for r in (*a, *b)):
        return False
    return all(
        sum(a[i][k] * b[k][j] for k in range(size)) == int(i == j)
        for i in range(size)
        for j in range(size)
    )


def slot_width(matrix, inverse):
    """The width ``w`` of the packed check: ``2^(w-1) > max(1, size |M| |N|)``."""
    top = [max(abs(x) for row in m for x in row) for m in (matrix, inverse)]
    return max(1, len(inverse) * top[0] * top[1]).bit_length() + 1


def packed_rows_match(matrix, inverse, w):
    """Does ``matrix`` times ``inverse`` packed at slot width ``w`` read as I?"""
    packed = [sum(x << (j * w) for j, x in enumerate(row)) for row in inverse]
    return all(
        sum(x * r for x, r in zip(row, packed)) == 1 << (i * w)
        for i, row in enumerate(matrix)
    )


def with_inverse(cert, inverse):
    return BasisCertificate(
        n=cert.n, matrix=cert.matrix, det=cert.det,
        inverse=tuple(tuple(row) for row in inverse),
    )


def closed_form_det(n):
    """``det`` of the order-``n`` basis matrix and its inverse (``basis`` docstring)."""
    return (-1) ** (n * (n + 1) // 2)


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
        assert det_hessenberg(m) == fraction_gauss_jordan(m)[0]

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
        assert basis_class(2, 0).coeffs == (1, 0, 0)
        assert basis_class(2, 1).coeffs == (0, -1, 0)

    def test_frozen_examples(self):
        assert basis_class(2, 2).coeffs == (0, 0, 1)
        assert basis_class(3, 3).coeffs == (0, 0, 3, 2)

    def test_closed_form_matches_construction(self):
        for n in range(2, 13):
            for m in range(2, n + 1):
                assert basis_class_closed_form(n, m) == basis_class(n, m)

    def test_closed_form_frozen_row(self):
        assert basis_class_closed_form(4, 2).coeffs == (0, 0, 1, 1, 1)

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
            assert certify_basis(n).det == det == closed_form_det(n), n

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
        assert not is_identity_product(bad.matrix, bad.inverse)
        assert not bad.verify()

    def test_verify_agrees_with_triple_loop(self):
        for n in range(1, 41):
            cert = certify_basis(n)
            assert is_identity_product(cert.matrix, cert.inverse), n
            assert cert.verify(), n

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 40])
    def test_verify_rejects_inverse_entry_off_by_one(self, n):
        cert = certify_basis(n)
        size = n + 1
        cells = [(i, j) for i in range(size) for j in range(size)]
        if size > 6:
            cells = random.Random(n).sample(cells, 36)
        for i, j in cells:
            for delta in (1, -1):
                inv = [list(row) for row in cert.inverse]
                inv[i][j] += delta
                bad = with_inverse(cert, inv)
                assert not is_identity_product(bad.matrix, bad.inverse)
                assert not bad.verify(), (n, i, j, delta)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_verify_rejects_every_inverse_entry_off_by_one(self, n):
        # M is invertible, so any change to N breaks M N = I; and any change
        # to M leaves a matrix that is not the basis matrix
        cert = certify_basis(n)
        for field in ("inverse", "matrix"):
            for i in range(n + 1):
                for j in range(n + 1):
                    for delta in (1, -1):
                        rows = [list(row) for row in getattr(cert, field)]
                        rows[i][j] += delta
                        bad = cert._replace(**{field: tuple(map(tuple, rows))})
                        assert not bad.verify(), (n, field, i, j, delta)

    @pytest.mark.parametrize("kind", [float, Fraction])
    @pytest.mark.parametrize("field", ["det", "matrix", "inverse"])
    def test_verify_refuses_non_integers(self, field, kind):
        # each replacement equals the int it replaces, so only its type is wrong
        cert = certify_basis(3)
        if field == "det":
            bad = cert._replace(det=kind(cert.det))
        else:
            rows = [list(row) for row in getattr(cert, field)]
            rows[2][3] = kind(rows[2][3])
            bad = cert._replace(**{field: tuple(map(tuple, rows))})
        with pytest.raises(TypeError):
            bad.verify()

    def test_verify_memory_stays_small_on_a_huge_entry(self):
        # a 100 kB entry is compared where it lies; no row is widened to its size
        cert = certify_basis(32)
        inv = [list(row) for row in cert.inverse]
        inv[32][32] = 1 << 800000
        bad = with_inverse(cert, inv)
        tracemalloc.start()
        try:
            assert not bad.verify()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_verify_accepts_top_of_range(self):
        # the longest rows and largest entries: n = MAX_BASIS_N
        cert = certify_basis(MAX_BASIS_N)
        assert cert.n == 400 and cert.verify()

    @pytest.mark.parametrize("n", [1, 2, 4, 9, 30])
    def test_verify_rejects_cancelling_carry(self, n):
        # M (N + N X) = I + X with X = 2^u at (i, j) and -1 at (i, j+1): packed
        # at slot width u, the carry out of slot j cancels the -1 in slot j+1.
        cert = certify_basis(n)
        size = n + 1
        w = slot_width(cert.matrix, cert.inverse)
        cells = [(i, j) for i in range(size) for j in range(size - 1)]
        if size > 6:
            cells = random.Random(n).sample(cells, 30)
        for u in (w - 1, w):
            for i, j in cells:
                inv = [list(row) for row in cert.inverse]
                for k in range(size):
                    inv[k][j] += cert.inverse[k][i] << u
                    inv[k][j + 1] -= cert.inverse[k][i]
                bad = with_inverse(cert, inv)
                assert packed_rows_match(bad.matrix, bad.inverse, u)
                assert not is_identity_product(bad.matrix, bad.inverse)
                assert not bad.verify(), (n, u, i, j)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_verify_rejects_identity_pair(self, n):
        # I times I is I, but I is not the basis matrix
        eye = tuple(tuple(int(i == j) for j in range(n + 1)) for i in range(n + 1))
        bad = BasisCertificate(n=n, matrix=eye, det=closed_form_det(n), inverse=eye)
        assert is_identity_product(bad.matrix, bad.inverse)
        assert not bad.verify()

    @pytest.mark.parametrize("n", [1, 2, 5, 13])
    def test_verify_rejects_matrix_row_missing_or_extra(self, n):
        # the inverse is the true one; only the stored matrix is wrong
        cert = certify_basis(n)
        zero = (0,) * (n + 1)
        for matrix in (
            cert.matrix[:-1],
            cert.matrix[1:],
            cert.matrix + (zero,),
            cert.matrix + (cert.matrix[-1],),
            (zero,) + cert.matrix,
        ):
            bad = BasisCertificate(n=n, matrix=matrix, det=cert.det, inverse=cert.inverse)
            assert not bad.verify(), len(matrix)

    @pytest.mark.parametrize("n", [1, 3, 8, 21])
    def test_verify_rejects_matrix_entry_off_by_one(self, n):
        cert = certify_basis(n)
        size = n + 1
        cells = [(i, j) for i in range(size) for j in range(size)]
        for i, j in random.Random(n).sample(cells, min(len(cells), 30)):
            for delta in (1, -1):
                matrix = [list(row) for row in cert.matrix]
                matrix[i][j] += delta
                bad = BasisCertificate(
                    n=n, matrix=tuple(map(tuple, matrix)), det=cert.det, inverse=cert.inverse
                )
                assert not is_identity_product(bad.matrix, bad.inverse)
                assert not bad.verify(), (n, i, j, delta)

    @pytest.mark.parametrize("n", [1, 4])
    def test_verify_rejects_inverse_of_wrong_shape(self, n):
        # every entry present still equals its closed form; only the shape is wrong
        cert = certify_basis(n)
        for inverse in (
            [row + (0,) for row in cert.inverse],
            cert.inverse[:-1],
            cert.inverse + ((0,) * (n + 1),),
        ):
            assert not with_inverse(cert, inverse).verify(), len(inverse)

    def test_verify_agrees_with_triple_loop_to_64(self):
        rng = random.Random(64)
        for n in range(1, 65):
            cert = certify_basis(n)
            inv = [list(row) for row in cert.inverse]
            inv[rng.randrange(n + 1)][rng.randrange(n + 1)] += rng.choice((1, -1))
            for candidate in (cert, with_inverse(cert, inv)):
                expected = is_identity_product(candidate.matrix, candidate.inverse)
                assert candidate.verify() == expected, n
            assert cert.verify(), n

    def test_verify_rejects_zero_inverse(self):
        for n in (1, 2, 7):
            cert = certify_basis(n)
            bad = with_inverse(cert, [[0] * (n + 1) for _ in range(n + 1)])
            assert not is_identity_product(bad.matrix, bad.inverse)
            assert not bad.verify()

    def test_verify_requires_unit_determinant(self):
        cert = certify_basis(4)
        for det in (0, 2, -3):
            assert not BasisCertificate(
                n=4, matrix=cert.matrix, det=det, inverse=cert.inverse
            ).verify()

    def test_verify_rejects_negated_determinant(self):
        for n in range(1, 65):
            cert = certify_basis(n)
            assert cert.det == closed_form_det(n) and cert.verify(), n
            assert not cert._replace(det=-cert.det).verify(), n

    def test_closed_form_determinant_matches_hessenberg(self):
        for n in [*range(1, 101), 141, 200, 400]:
            assert det_hessenberg(basis_inverse(n)) == closed_form_det(n), n

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
        assert [list(row) for row in d["matrix"]] == [["1", "0"], ["0", "-1"]]

    @given(st.integers(1, 10), st.data())
    def test_expansion_roundtrip(self, n, data):
        coeffs = data.draw(
            st.lists(st.integers(-50, 50), min_size=n + 1, max_size=n + 1)
        )
        c = TruncatedPoly(n, coeffs)
        coords = certify_basis(n).coordinates_of(c)
        rebuilt = KClass.zero(n)
        for j, x in enumerate(coords):
            rebuilt = rebuilt + x * basis_class(n, j)
        assert rebuilt == c

    def test_expansion_accepts_explicit_certificate(self):
        one = KClass.one(2)
        assert certify_basis(2).coordinates_of(one) == (1, 0, 0)


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
