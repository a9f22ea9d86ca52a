"""Exact arithmetic in the two scalar rings, and the operator protocol they share with NCPoly."""

import operator

import pytest
from hypothesis import given, strategies as st

from qcpn.corep import associated_class
from qcpn.kclasses import line_class, restrict
from qcpn.rings import (
    LaurentQ,
    NotInvertibleError,
    TruncatedPoly,
    TruncationMismatchError,
)
from qcpn.sphere import NCPoly


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
        assert LaurentQ.one().terms() == {0: 1}
        assert LaurentQ({0: 7}) == 7
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
        table = [
            (LaurentQ({-2: 1, 0: -1}), "q^-2 - 1"),
            (LaurentQ(), "0"),
            (LaurentQ({1: -3}), "-3*q"),
            (LaurentQ({0: 2, 3: 1}), "2 + q^3"),
            (LaurentQ({1: 1}), "q"),
            (LaurentQ({-1: -1, 0: -7, 1: 1}), "-q^-1 - 7 + q"),
            (LaurentQ({-3: 12, 2: -1}), "12*q^-3 - q^2"),
            (LaurentQ({0: -1}), "-1"),
            (LaurentQ({0: 10**30}), "1" + "0" * 30),
        ]
        for x, text in table:
            assert str(x) == text

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

    def test_str(self):
        table = [
            (TruncatedPoly(3, (1, 0, -2, 1)), "1 - 2*t^2 + t^3"),
            (TruncatedPoly.zero(2), "0"),
            (TruncatedPoly(0, (0,)), "0"),
            (TruncatedPoly.t(2), "t"),
            (TruncatedPoly(2, (0, -3, -1)), "-3*t - t^2"),
            (TruncatedPoly(2, (-1, 1, 5)), "-1 + t + 5*t^2"),
            (TruncatedPoly(1, (7,)), "7"),
        ]
        for x, text in table:
            assert str(x) == text

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
    def test_restrict_is_ring_map(self, pair):
        a, b = pair
        for k in range(1, a.n + 1):
            assert restrict(a * b, k) == restrict(a, k) * restrict(b, k)
            assert restrict(a + b, k) == restrict(a, k) + restrict(b, k)

    def test_negative_pow_rejected(self):
        with pytest.raises(ValueError):
            TruncatedPoly(2, (1, 1)) ** -1


@st.composite
def ncpolys(draw, max_n=2):
    n = draw(st.integers(0, max_n))
    words = st.lists(st.integers(0, 2 * n + 1), max_size=3).map(tuple)
    return NCPoly(n, draw(st.dictionaries(words, laurents(9), max_size=4)))


RINGS = {"LaurentQ": laurents(), "TruncatedPoly": truncated(), "NCPoly": ncpolys()}


class TestHashAgreesWithEquality:
    """A constant compares equal to its int (and an NCPoly scalar to its
    LaurentQ), so it must hash like it, and an int must act as that
    constant in every operator of all three rings."""

    @pytest.mark.parametrize("ring", sorted(RINGS))
    @given(data=st.data(), k=st.integers(-10**20, 10**20))
    def test_ints_act_as_constants(self, ring, data, k):
        x = data.draw(RINGS[ring])
        assert k - x == -(x - k)
        assert k + x == x + k
        assert k * x == x * k
        assert x**0 == 1
        assert not x - x and not 0 * x
        assert bool(x) == (x != 0) == (not x.is_zero())

    @pytest.mark.parametrize(
        "make, error",
        [(TruncatedPoly.one, TruncationMismatchError), (NCPoly.one, ValueError)],
        ids=["TruncatedPoly", "NCPoly"],
    )
    def test_orders_never_mix(self, make, error):
        a, b = make(1), make(2)
        assert a != b and not a == b
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(error, match="^mixed (truncation orders|ambient indices) 1 and 2$"):
                op(a, b)

    def test_constants_meet_ints_in_sets_and_dicts(self):
        assert len({line_class(2, 0), 1}) == 1
        assert {1: "a"}.get(LaurentQ.one()) == "a"
        assert hash(NCPoly.scalar(1, 3)) == hash(3)

    @given(st.integers(-10**30, 10**30), st.integers(0, 5))
    def test_constants(self, c, n):
        for x in (LaurentQ({0: c}), TruncatedPoly(n, (c,)), NCPoly.scalar(n, c)):
            assert x == c and hash(x) == hash(c)
        q2 = LaurentQ.q_power(2, c)
        assert NCPoly.scalar(n, q2) == q2 and hash(NCPoly.scalar(n, q2)) == hash(q2)

    def test_non_scalars_hash_alike_in_any_order(self):
        terms = {(0, 3): {-2: 1, 0: -1}, (2,): {1: 4}, (): {0: 7}}
        backwards = {w: dict(reversed(c.items())) for w, c in reversed(terms.items())}
        a, b = NCPoly(1, terms), NCPoly(1, backwards)
        assert list(a._terms) != list(b._terms)
        assert a == b and hash(a) == hash(b)
        x, y = NCPoly.gen(1, 0), LaurentQ({-1: 2, 3: 1}) * NCPoly.gen(1, 1, starred=True)
        assert hash(x + y) == hash(y + x)


def test_constructors_reject_non_integers():
    # a float is refused, never truncated to an int
    for make in (
        lambda: LaurentQ({0: 1.5}),
        lambda: LaurentQ({0.9: 2}),
        lambda: LaurentQ({0: 0.0}),
        lambda: TruncatedPoly(2, [1.7, 2]),
        lambda: NCPoly(1, {(0.0,): 1}),
        lambda: associated_class(1, (1.5,)),
    ):
        with pytest.raises(TypeError):
            make()
