"""Weight multisets and associated bundle classes."""

import pytest
from hypothesis import given, strategies as st

from qcpn.corep import (
    associated_class,
    fundamental_decomposition,
    fundamental_weights,
    satisfies_determinant_condition,
)
from qcpn.kclasses import KClass, line_class
from qcpn.pairing import index_pairing


class TestFundamentalWeights:
    def test_frozen_examples(self):
        assert fundamental_weights(2) == (-1, 1)
        assert fundamental_weights(3) == (-1, -1, 2)
        assert fundamental_weights(5) == (-1, -1, -1, -1, 4)

    def test_rank_too_small(self):
        for m in (1, 0, -3):
            with pytest.raises(ValueError):
                fundamental_weights(m)

    def test_always_balanced(self):
        for m in range(2, 51):
            assert satisfies_determinant_condition(fundamental_weights(m))


class TestDeterminantCondition:
    def test_plain_cases(self):
        assert satisfies_determinant_condition((-1, 1))
        assert not satisfies_determinant_condition([1, 1])
        assert satisfies_determinant_condition(iter((0,)))
        with pytest.raises(TypeError):
            satisfies_determinant_condition((0.5, -0.5))


class TestAssociatedClass:
    def test_rank_two_example(self):
        c = associated_class(2, fundamental_weights(2))
        assert c.coeffs == (2, 0, 1)

    def test_rank_three_example(self):
        c = associated_class(3, fundamental_weights(3))
        assert c.coeffs == (3, 0, 3, 2)

    def test_trivial_weight(self):
        assert associated_class(3, (0,)) == KClass.one(3)

    def test_matches_sum_of_line_classes(self):
        w = (3, -2, 3, 0)
        expected = (
            line_class(4, -2) + line_class(4, 0) + 2 * line_class(4, 3)
        )
        assert associated_class(4, w) == expected

    def test_rank_equals_multiset_size(self):
        for n in range(2, 8):
            for m in range(2, n + 1):
                c = associated_class(n, fundamental_weights(m))
                assert index_pairing(0, c) == m

    def test_low_degrees_vanish_after_trivial_part(self):
        # subtracting the rank leaves nothing below degree 2
        for n in range(2, 12):
            for m in range(2, n + 1):
                reduced = associated_class(n, fundamental_weights(m)) - m
                assert reduced.coeffs[0] == 0
                assert reduced.coeffs[1] == 0

    @given(
        st.integers(1, 6),
        st.lists(st.integers(-4, 4), min_size=1, max_size=4),
        st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    )
    def test_additive_in_the_weights(self, n, ws1, ws2):
        assert associated_class(n, ws1 + ws2) == associated_class(n, ws1) + associated_class(n, ws2)

    def test_many_distinct_weights(self):
        # one running total per weight: 3000 weights must not nest 3000 lazy maps
        weights = range(-1500, 1500)
        expected = sum((line_class(3, lam) for lam in weights), KClass.zero(3))
        assert associated_class(3, weights) == expected

    def test_dimension_range(self):
        with pytest.raises(ValueError):
            associated_class(0, (1,))

    def test_empty_weights_refused(self):
        for empty in ((), [], iter(())):
            with pytest.raises(ValueError, match="^weight vector must be nonempty$"):
                associated_class(3, empty)


class TestFundamentalDecomposition:
    def test_matches_weights(self):
        assert fundamental_decomposition(2, 2) == (-1, 1)
        assert fundamental_decomposition(5, 3) == (-1, -1, 2)

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            fundamental_decomposition(3, 1)
        with pytest.raises(ValueError):
            fundamental_decomposition(3, 4)

    def test_reassembles_the_class(self):
        for n in range(2, 9):
            for m in range(2, n + 1):
                labels = fundamental_decomposition(n, m)
                total = KClass.zero(n)
                for lam in labels:
                    total = total + line_class(n, lam)
                assert total == associated_class(n, fundamental_weights(m))
