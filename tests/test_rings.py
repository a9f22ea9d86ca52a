"""Exact arithmetic in the two scalar rings."""

import pytest
from hypothesis import given, strategies as st

from qcpn.rings import (
    LaurentQ,
    NotInvertibleError,
    TruncatedPoly,
    TruncationMismatchError,
)


def laurents(max_coeff=50):
    return st.builds(
        LaurentQ,
        st.dictionaries(
            st.integers(-6, 6), st.integers(-max_coeff, max_coeff), max_size=5
        ),
    )


@st.composite
def truncated(draw, max_n=6, max_coeff=30):
    n = draw(st.integers(0, max_n))
    coeffs = draw(
        st.lists(st.integers(-max_coeff, max_coeff), min_size=0, max_size=n + 1)
    )
    return TruncatedPoly(n, coeffs)


@st.composite
def truncated_pair(draw, max_n=6):
    n = draw(st.integers(0, max_n))
    mk = lambda: TruncatedPoly(
        n, draw(st.lists(st.integers(-30, 30), max_size=n + 1))
    )
    return mk(), mk()


@st.composite
def truncated_triple(draw, max_n=5):
    n = draw(st.integers(0, max_n))
    mk = lambda: TruncatedPoly(
        n, draw(st.lists(st.integers(-15, 15), max_size=n + 1))
    )
    return mk(), mk(), mk()


class TestLaurentQ:
    def test_constants(self):
        assert LaurentQ.zero().is_zero()
        assert LaurentQ.one().is_one()
        assert LaurentQ.from_int(7) == 7
        assert LaurentQ.q_power(-2, 3).terms() == {-2: 3}

    def test_zero_coefficients_dropped(self):
        assert LaurentQ({2: 0, 1: 5}).terms() == {1: 5}

    def test_basic_identities(self):
        q = LaurentQ.q_power(1)
        qinv = LaurentQ.q_power(-1)
        assert q * qinv == LaurentQ.one()
        assert (q - q).is_zero()
        assert q + 2 == LaurentQ({1: 1, 0: 2})

    def test_str(self):
        assert str(LaurentQ({-2: 1, 0: -1})) == "q^-2 - 1"
        assert str(LaurentQ()) == "0"
        assert str(LaurentQ({1: -3})) == "-3*q"
        assert str(LaurentQ({0: 2, 3: 1})) == "2 + q^3"

    def test_negative_pow_rejected(self):
        with pytest.raises(NotInvertibleError):
            (LaurentQ.one() + LaurentQ.q_power(1)) ** -1

    @given(laurents(), laurents())
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(laurents(), laurents(), laurents())
    def test_mul_associates_and_distributes(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(laurents())
    def test_neutral_elements(self, a):
        assert a + LaurentQ.zero() == a
        assert a * LaurentQ.one() == a
        assert (a - a).is_zero()

    @given(laurents(), st.integers(0, 5))
    def test_pow_matches_repeated_product(self, a, e):
        expected = LaurentQ.one()
        for _ in range(e):
            expected = expected * a
        assert a**e == expected

    @given(laurents(), laurents())
    def test_q_one_specialisation_is_ring_map(self, a, b):
        assert (a * b).at_q_one() == a.at_q_one() * b.at_q_one()
        assert (a + b).at_q_one() == a.at_q_one() + b.at_q_one()

    @given(laurents())
    def test_equality_is_structural(self, a):
        assert a == LaurentQ(a.terms())
        assert hash(a) == hash(LaurentQ(a.terms()))


class TestTruncatedPoly:
    def test_construction_pads(self):
        p = TruncatedPoly(3, (1, 2))
        assert p.coeffs == (1, 2, 0, 0)

    def test_overlong_rejected(self):
        with pytest.raises(ValueError):
            TruncatedPoly(1, (1, 2, 3))

    def test_t_vanishes_at_order_zero(self):
        assert TruncatedPoly.t(0).is_zero()
        assert TruncatedPoly.t(2).coeffs == (0, 1, 0)

    def test_truncating_product(self):
        # (1 + t)^2 at order 1 loses the square term
        p = TruncatedPoly(1, (1, 1))
        assert (p * p).coeffs == (1, 2)

    def test_mixed_orders_rejected(self):
        with pytest.raises(TruncationMismatchError):
            TruncatedPoly(1, (1,)) + TruncatedPoly(2, (1,))

    def test_invert_unit_frozen_example(self):
        # (1 + 2t)^-1 = 1 - 2t + 4t^2 mod t^3
        p = TruncatedPoly(2, (1, 2))
        assert p.invert_unit().coeffs == (1, -2, 4)

    def test_invert_nonunit_rejected(self):
        with pytest.raises(NotInvertibleError):
            TruncatedPoly(2, (2, 1)).invert_unit()
        with pytest.raises(NotInvertibleError):
            TruncatedPoly(2, (0, 1)).invert_unit()

    def test_truncate_examples(self):
        p = TruncatedPoly(3, (1, 2, 3, 4))
        assert p.truncate(1).coeffs == (1, 2)
        assert p.truncate(3) is not p and p.truncate(3) == p
        with pytest.raises(TruncationMismatchError):
            p.truncate(4)

    def test_str(self):
        assert str(TruncatedPoly(3, (1, 0, -2, 1))) == "1 - 2*t^2 + t^3"
        assert str(TruncatedPoly.zero(2)) == "0"

    def test_immutability(self):
        p = TruncatedPoly(2, (1,))
        with pytest.raises(AttributeError):
            p.coeffs = (9, 9, 9)

    @given(truncated_pair())
    def test_mul_commutes(self, pair):
        a, b = pair
        assert a * b == b * a

    @given(truncated_triple())
    def test_mul_associates_and_distributes(self, triple):
        a, b, c = triple
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(truncated())
    def test_neutral_elements(self, a):
        assert a + TruncatedPoly.zero(a.n) == a
        assert a * TruncatedPoly.one(a.n) == a

    @given(truncated(), st.integers(0, 4))
    def test_pow_matches_repeated_product(self, a, e):
        expected = TruncatedPoly.one(a.n)
        for _ in range(e):
            expected = expected * a
        assert a**e == expected

    @given(truncated(), st.integers(-10**20, 10**20))
    def test_int_scaling_matches_constant_product(self, a, k):
        constant = TruncatedPoly(a.n, (k,))
        assert a * k == a * constant == k * a == constant * a

    @given(truncated(), st.sampled_from([1, -1]))
    def test_invert_unit_inverts(self, a, unit):
        coeffs = (unit,) + a.coeffs[1:]
        u = TruncatedPoly(a.n, coeffs)
        assert u * u.invert_unit() == TruncatedPoly.one(a.n)

    @given(truncated_pair())
    def test_truncate_is_ring_map(self, pair):
        a, b = pair
        for k in range(a.n + 1):
            assert (a * b).truncate(k) == a.truncate(k) * b.truncate(k)
            assert (a + b).truncate(k) == a.truncate(k) + b.truncate(k)

    def test_negative_pow_rejected(self):
        with pytest.raises(ValueError):
            TruncatedPoly(2, (1, 1)) ** -1
