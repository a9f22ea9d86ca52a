"""Line classes and restriction in the t-basis."""

import pytest
from hypothesis import given, strategies as st

from qcpn.basis import basis_class
from qcpn.corep import associated_class, fundamental_weights
from qcpn.kclasses import KClass, line_class, restrict
from qcpn.rings import TruncatedPoly


class TestLineClass:
    def test_frozen_values(self):
        assert line_class(3, 1).coeffs == (1, -1, 0, 0)
        assert line_class(2, 0).coeffs == (1, 0, 0)
        assert line_class(2, -1).coeffs == (1, 1, 1)
        assert line_class(2, 2).coeffs == (1, -2, 1)

    def test_geometric_series_for_tautological(self):
        # inverse of 1 - t is the full geometric series at every order
        for n in range(1, 8):
            assert line_class(n, -1).coeffs == (1,) * (n + 1)

    def test_rank_is_one(self):
        for m in range(-10, 11):
            assert line_class(4, m).rank() == 1

    @given(st.integers(1, 8), st.integers(-20, 20), st.integers(-20, 20))
    def test_multiplicative_in_the_power(self, n, a, b):
        assert line_class(n, a) * line_class(n, b) == line_class(n, a + b)

    @given(st.integers(1, 16))
    def test_pairwise_distinct(self, n):
        seen = {line_class(n, m) for m in range(-20, 21)}
        assert len(seen) == 41

    def test_closed_form_matches_ring_powers(self):
        # oracle: (1 - t)^m by repeated squaring, through the unit inverse for m < 0
        for n in range(31):
            base = TruncatedPoly.one(n) - TruncatedPoly.t(n)
            inverse = base.invert_unit()
            for m in range(-2 * n, 2 * n + 1):
                expected = base**m if m >= 0 else inverse ** (-m)
                assert line_class(n, m) == expected, (n, m)

    def test_first_order_coefficient_detects_power(self):
        for m in range(-20, 21):
            assert line_class(5, m).coeffs[1] == -m


class TestRestrict:
    def test_truncates_line_classes(self):
        for m in range(-6, 7):
            assert restrict(line_class(4, m), 2) == line_class(2, m)

    def test_first_order_view(self):
        for m in range(-8, 9):
            assert restrict(line_class(4, m), 1).coeffs == (1, -m)
        assert restrict(TruncatedPoly(3, (1, 2, 3, 4)), 1).coeffs == (1, 2)

    def test_identity_restriction(self):
        for c in (line_class(3, 5), TruncatedPoly(3, (1, 2, 3, 4))):
            assert restrict(c, 3) == c

    def test_range_errors(self):
        c = line_class(3, 2)
        with pytest.raises(ValueError):
            restrict(c, 0)
        with pytest.raises(ValueError):
            restrict(c, 4)

    @given(
        st.integers(2, 6),
        st.lists(st.integers(-9, 9), max_size=7),
        st.lists(st.integers(-9, 9), max_size=7),
    )
    def test_is_a_ring_map(self, n, cs, ds):
        a = TruncatedPoly(n, cs[: n + 1])
        b = TruncatedPoly(n, ds[: n + 1])
        for target in range(1, n + 1):
            assert restrict(a * b, target) == restrict(a, target) * restrict(b, target)
            assert restrict(a + b, target) == restrict(a, target) + restrict(b, target)


class TestKClassPlumbing:
    def test_classes_are_ring_elements(self):
        assert type(line_class(3, 2)) is TruncatedPoly
        assert type(associated_class(3, fundamental_weights(3))) is TruncatedPoly
        assert type(basis_class(3, 2)) is TruncatedPoly
        assert line_class(3, 0) == 1

    def test_arithmetic_with_ints(self):
        c = line_class(2, 1)
        assert (c - 1).coeffs == (0, -1, 0)
        assert (2 * c).coeffs == (2, -2, 0)
        assert (-c).coeffs == (-1, 1, 0)

    def test_as_dict_uses_decimal_strings(self):
        big = KClass(1, (10**40, -1))
        assert big.as_dict() == {"n": 1, "coeffs": [str(10**40), "-1"]}

    def test_unit_and_zero(self):
        assert KClass.one(3).rank() == 1
        assert KClass.zero(3).is_zero()

    def test_immutable(self):
        c = KClass.one(2)
        with pytest.raises(AttributeError):
            c.n = 5
