"""Index pairings as signed coefficient extraction."""

import math
from math import comb

import pytest
from hypothesis import given, strategies as st

from qcpn.kclasses import KClass, line_class
from qcpn.pairing import index_pairing, pairing_matrix, pairing_vector
from qcpn.rings import TruncatedPoly


def t_power(n, j):
    return TruncatedPoly.t(n) ** j


class TestIndexPairing:
    def test_delta_on_t_powers(self):
        for n in range(1, 6):
            for j in range(n + 1):
                for k in range(n + 1):
                    expected = (-1) ** j if j == k else 0
                    assert index_pairing(k, t_power(n, j)) == expected

    def test_binomial_table_for_line_classes(self):
        # nonneg powers pair to binomial coefficients, zero above the power
        for n in range(1, 9):
            for m in range(0, 15):
                for k in range(n + 1):
                    assert index_pairing(k, line_class(n, m)) == comb(m, k)

    def test_alternating_signs_for_tautological(self):
        for n in range(1, 10):
            for k in range(n + 1):
                assert index_pairing(k, line_class(n, -1)) == (-1) ** k

    def test_rank_and_first_chern(self):
        for m in range(-12, 13):
            c = line_class(4, m)
            assert index_pairing(0, c) == 1
            assert index_pairing(1, c) == m
        assert index_pairing(1, TruncatedPoly.t(4)) == -1

    @given(st.integers(1, 12), st.integers(-25, 25), st.integers(0, 12))
    def test_generalized_binomial(self, n, m, k):
        """Every power, negative included, pairs to the falling-factorial binomial."""
        k = k % (n + 1)
        falling = 1
        for i in range(k):
            falling *= m - i
        assert index_pairing(k, line_class(n, m)) == falling // math.factorial(k)

    def test_out_of_range_rejected(self):
        c = line_class(2, 1)
        with pytest.raises(ValueError):
            index_pairing(3, c)
        with pytest.raises(ValueError):
            index_pairing(-1, c)

    @given(
        st.integers(1, 6),
        st.lists(st.integers(-9, 9), max_size=7),
        st.lists(st.integers(-9, 9), max_size=7),
    )
    def test_linear(self, n, cs, ds):
        a = TruncatedPoly(n, cs[: n + 1])
        b = TruncatedPoly(n, ds[: n + 1])
        for k in range(n + 1):
            assert index_pairing(k, a + b) == index_pairing(k, a) + index_pairing(k, b)


class TestPairingVector:
    def test_unit_class(self):
        assert pairing_vector(KClass.one(3)) == (1, 0, 0, 0)

    def test_tautological(self):
        assert pairing_vector(line_class(2, -1)) == (1, -1, 1)

    def test_t_squared(self):
        assert pairing_vector(t_power(2, 2)) == (0, 0, 1)

    def test_accessors(self):
        v = pairing_vector(line_class(3, 5))
        assert v[0] == 1
        assert v[1] == 5


class TestPairingMatrix:
    def test_t_powers_give_signed_identity(self):
        for n in range(1, 6):
            m = pairing_matrix([t_power(n, j) for j in range(n + 1)])
            expected = [
                [(-1) ** k if j == k else 0 for j in range(n + 1)]
                for k in range(n + 1)
            ]
            assert m == expected

    def test_columns_are_pairing_vectors(self):
        classes = [line_class(3, m) for m in (-2, 0, 1, 4)]
        m = pairing_matrix(classes)
        for j, c in enumerate(classes):
            assert tuple(m[k][j] for k in range(4)) == pairing_vector(c)

    def test_dimension_mismatches_rejected(self):
        with pytest.raises(ValueError):
            pairing_matrix([])
        with pytest.raises(ValueError):
            pairing_matrix([line_class(2, 1), line_class(3, 1), line_class(2, 0)])
        with pytest.raises(ValueError):
            pairing_matrix([line_class(2, 1), line_class(2, 0)])
