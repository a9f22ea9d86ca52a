"""Expression grammar, error positions, and render round-trips."""

import pytest
from hypothesis import given, strategies as st

from qcpn.ncparse import MAX_NESTING, NCSyntaxError, parse_expr
from qcpn.rings import LaurentQ
from qcpn.sphere import Generator, NCPoly, normal_form


def gen(n, i, starred=False):
    return NCPoly.gen(n, i, starred)


class TestGrammar:
    def test_single_word(self):
        p = parse_expr("z1*z0", 2)
        assert p == gen(2, 1) * gen(2, 0)

    def test_coefficient_monomial(self):
        p = parse_expr("q^-2 * z0 * z0s", 1)
        assert p == LaurentQ.q_power(-2) * (gen(1, 0) * gen(1, 0, True))

    def test_bare_integer(self):
        assert parse_expr("7", 1) == NCPoly.scalar(1, 7)

    def test_q_forms(self):
        assert parse_expr("q", 1) == NCPoly.scalar(1, LaurentQ.q_power(1))
        assert parse_expr("q^3", 1) == NCPoly.scalar(1, LaurentQ.q_power(3))
        assert parse_expr("3*q^-1", 1) == NCPoly.scalar(1, LaurentQ.q_power(-1, 3))

    def test_sums_and_signs(self):
        p = parse_expr("z0 - z1 + 2", 2)
        assert p == gen(2, 0) - gen(2, 1) + 2
        assert parse_expr("-z0", 1) == -gen(1, 0)
        assert parse_expr("+z0", 1) == gen(1, 0)

    def test_parens_and_distribution(self):
        p = parse_expr("(z0 + z1) * z0s", 2)
        assert p == gen(2, 0) * gen(2, 0, True) + gen(2, 1) * gen(2, 0, True)

    def test_powers(self):
        assert parse_expr("z0^3", 1) == gen(1, 0) * gen(1, 0) * gen(1, 0)
        assert parse_expr("2^3", 1) == NCPoly.scalar(1, 8)
        assert parse_expr("(z0*z1)^2", 2) == (gen(2, 0) * gen(2, 1)) ** 2

    def test_chained_powers(self):
        assert parse_expr("z0^2^3", 1) == gen(1, 0) ** 6

    def test_negative_power_of_q_monomial(self):
        assert parse_expr("(q^2)^-1", 1) == NCPoly.scalar(1, LaurentQ.q_power(-2))

    def test_whitespace_insensitive(self):
        assert parse_expr("  z0*z1s ", 2) == parse_expr("z0 * z1s", 2)

    def test_star_suffix(self):
        assert parse_expr("z2s", 3) == gen(3, 2, True)

    def test_multi_digit_index(self):
        assert parse_expr("z12", 15) == gen(15, 12)


class TestErrors:
    def test_index_out_of_range(self):
        with pytest.raises(NCSyntaxError) as exc:
            parse_expr("z3", 2)
        assert exc.value.position == 0

    def test_missing_index(self):
        with pytest.raises(NCSyntaxError) as exc:
            parse_expr("z0 * z", 2)
        assert exc.value.position == 5

    def test_unexpected_character(self):
        with pytest.raises(NCSyntaxError) as exc:
            parse_expr("z0 ~ z1", 2)
        assert exc.value.position == 3

    def test_dangling_operator(self):
        with pytest.raises(NCSyntaxError):
            parse_expr("z0 +", 2)

    def test_unbalanced_paren(self):
        with pytest.raises(NCSyntaxError):
            parse_expr("(z0", 2)

    def test_trailing_input(self):
        with pytest.raises(NCSyntaxError) as exc:
            parse_expr("z0 z1", 2)
        assert exc.value.position == 3

    def test_negative_power_of_word(self):
        with pytest.raises(NCSyntaxError):
            parse_expr("z0^-1", 2)

    def test_negative_power_of_sum(self):
        with pytest.raises(NCSyntaxError):
            parse_expr("(1 + q)^-1", 2)

    def test_bad_exponent(self):
        with pytest.raises(NCSyntaxError):
            parse_expr("z0^q", 2)

    def test_message_carries_offset(self):
        with pytest.raises(NCSyntaxError, match="offset 0"):
            parse_expr("z9", 1)

    def test_nesting_cap(self):
        at_cap = "(" * MAX_NESTING + "z0" + ")" * MAX_NESTING
        assert parse_expr(at_cap, 1) == gen(1, 0)
        with pytest.raises(NCSyntaxError, match=f"offset {MAX_NESTING + 3}$"):
            parse_expr("z0*" + "(" * (MAX_NESTING + 1) + "z0" + ")" * (MAX_NESTING + 1), 1)

    def test_sibling_parentheses_do_not_add_up(self):
        flat = "*".join(["(z0)"] * (2 * MAX_NESTING))
        assert parse_expr(flat, 1) == gen(1, 0) ** (2 * MAX_NESTING)

    def test_negative_ambient_rejected(self):
        with pytest.raises(ValueError):
            parse_expr("z0", -1)


@st.composite
def nc_polys_with_coeffs(draw, max_n=3):
    n = draw(st.integers(1, max_n))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        letters = [
            Generator(i, s)
            for i, s in draw(
                st.lists(st.tuples(st.integers(0, n), st.booleans()), max_size=4)
            )
        ]
        coeff = LaurentQ(
            draw(
                st.dictionaries(
                    st.integers(-4, 4), st.integers(-6, 6), min_size=1, max_size=3
                )
            )
        )
        terms.append((coeff, letters))
    return NCPoly.from_terms(n, terms)


class TestRoundTrip:
    @given(nc_polys_with_coeffs())
    def test_render_then_parse(self, p):
        assert parse_expr(str(p), p.n) == p

    @given(nc_polys_with_coeffs())
    def test_normal_forms_round_trip(self, p):
        nf = normal_form(p)
        assert parse_expr(str(nf), p.n) == nf

    def test_zero_round_trips(self):
        assert parse_expr(str(NCPoly.zero(2)), 2).is_zero()

    def test_frozen_rendering(self):
        p = parse_expr("1 - z1s*z1", 1)
        assert str(p) == "1 - z1s*z1"
