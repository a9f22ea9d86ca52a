"""Expression grammar, error positions, and render round-trips."""

import pytest
from hypothesis import given, strategies as st

from qcpn.ncparse import (
    MAX_FREE_TERMS,
    MAX_NESTING,
    MAX_POWER_BITS,
    MAX_WORD_LENGTH,
    NCSyntaxError,
    _Token,
    _tokenize,
    parse_expr,
)
from qcpn.rings import LaurentQ
from qcpn.sphere import Generator, NCPoly, _NormalProduct, normal_form


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

    @pytest.mark.parametrize("sign", [1, -1])
    def test_negative_powers_keep_sign_and_parity(self, sign):
        for a in range(-3, 4):
            for e in range(1, 5):
                base = f"-q^{a}" if sign < 0 else f"q^{a}"
                expected = LaurentQ.q_power(-a, sign) ** e
                assert parse_expr(f"({base})^-{e}", 1) == NCPoly.scalar(1, expected), (base, e)

    def test_whitespace_insensitive(self):
        assert parse_expr("  z0*z1s ", 2) == parse_expr("z0 * z1s", 2)

    def test_star_suffix(self):
        assert parse_expr("z2s", 3) == gen(3, 2, True)

    def test_multi_digit_index(self):
        assert parse_expr("z12", 15) == gen(15, 12)

    def test_q_power_is_one_scalar(self):
        # ``q^e`` is read as one scalar; through ``factor`` it costs a power chain
        products = []

        def counting(a, b):
            products.append((a, b))
            return a * b

        assert parse_expr("q^5*z0", 1, _mul=counting) == LaurentQ.q_power(5) * gen(1, 0)
        assert len(products) == 1
        products.clear()
        assert parse_expr("(q)^5*z0", 1, _mul=counting) == LaurentQ.q_power(5) * gen(1, 0)
        assert len(products) == 5


class TestTokens:
    def test_kinds_values_and_offsets(self):
        tokens = _tokenize(" z12s^-2 +q*7")
        assert tokens == [
            ("GEN", (12, True), 1),
            ("OP", "^", 5),
            ("OP", "-", 6),
            ("INT", 2, 7),
            ("OP", "+", 9),
            ("Q", "q", 10),
            ("OP", "*", 11),
            ("INT", 7, 12),
            ("END", "", 13),
        ]
        assert {type(tok) for tok in tokens} == {_Token}
        assert (tokens[0].kind, tokens[0].value, tokens[0].pos) == ("GEN", (12, True), 1)


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

    def test_exponent_cap(self):
        with pytest.raises(NCSyntaxError) as exc:
            parse_expr("39^100001", 1)
        assert exc.value.position == 3
        with pytest.raises(NCSyntaxError, match="exceeds 100000 .* offset 4$"):
            parse_expr("(q)^-100001", 1)
        assert parse_expr("1^100000", 1) == 1
        assert parse_expr("q^-1000000", 1) == LaurentQ.q_power(-(10**6))

    def test_nested_power_budget(self):
        # 2^49999 has 50000 bits, so ^20 sits exactly on the budget
        assert 20 * (2**49999).bit_length() == MAX_POWER_BITS
        assert parse_expr("(2^49999)^20", 1) == NCPoly.scalar(1, 2**999980)
        with pytest.raises(NCSyntaxError) as exc:
            parse_expr("(2^50000)^20", 1)
        assert exc.value.position == 10
        assert str(exc.value) == (
            f"power exceeds the budget of {MAX_POWER_BITS} coefficient bits at offset 10"
        )
        # the budget is on the sum of all coefficients, not on the largest one
        two_terms = parse_expr("(2^49998 + 2^49998*z0)^20", 1)
        assert two_terms == NCPoly.scalar(1, 2 ** (49998 * 20)) * (1 + gen(1, 0)) ** 20
        with pytest.raises(NCSyntaxError, match="offset 23$"):
            parse_expr("(2^49999 + 2^49999*z0)^20", 1)

    def test_product_budget(self):
        # factors of 499991 and 500009 bits sit exactly on the budget
        assert (2**499990).bit_length() + (2**500008).bit_length() == MAX_POWER_BITS
        assert parse_expr("(2^49999)^10*(2^62501)^8", 1) == NCPoly.scalar(1, 2**999998)
        with pytest.raises(NCSyntaxError) as exc:
            parse_expr("(2^49999)^10*(2^62502)^8", 1)
        assert exc.value.position == 12
        assert str(exc.value) == (
            f"product exceeds the budget of {MAX_POWER_BITS} coefficient bits at offset 12"
        )

    def test_word_length_budget(self):
        assert MAX_WORD_LENGTH == 100000
        assert parse_expr("z0^100000", 1) == parse_expr("(z0^50000)^2", 1) == gen(1, 0) ** 100000
        assert parse_expr("z0^50000*z0^50000", 1) == gen(1, 0) ** 100000
        with pytest.raises(NCSyntaxError) as exc:
            parse_expr("(z0^100000)^100000", 1)
        assert str(exc.value) == "power exceeds the budget of 100000 letters per word at offset 12"
        with pytest.raises(NCSyntaxError) as exc:
            parse_expr("z0^50000*z0^50001", 1)
        assert str(exc.value) == "product exceeds the budget of 100000 letters per word at offset 8"
        # the budget is on the longest word, not on the total of all words
        assert parse_expr("(z0 + z1)^16", 1).term_count() == 2**16
        with pytest.raises(NCSyntaxError, match="offset 14$"):
            parse_expr("(1 + z0^6250)^17", 1)

    def test_sibling_parentheses_do_not_add_up(self):
        flat = "*".join(["(z0)"] * (2 * MAX_NESTING))
        assert parse_expr(flat, 1) == gen(1, 0) ** (2 * MAX_NESTING)

    def test_negative_ambient_rejected(self):
        with pytest.raises(ValueError):
            parse_expr("z0", -1)

    @pytest.mark.parametrize(
        "text, position",
        [("z\u00b2", 0), ("z0^\u00b2", 3), ("3\u00b2", 1), ("z\u0663", 0)],
    )
    def test_digits_are_ascii(self, text, position):
        # superscript two and Arabic-Indic three are str.isdigit() digits
        with pytest.raises(NCSyntaxError) as exc:
            parse_expr(text, 3)
        assert exc.value.position == position


class TestFreeExpansionCap:
    def test_over_the_cap(self):
        with pytest.raises(ValueError, match=f"^free expansion exceeds {MAX_FREE_TERMS} term pairs$"):
            parse_expr("(z0+z0s)^24", 1)

    def test_bound_is_on_pairs(self, monkeypatch):
        monkeypatch.setattr("qcpn.ncparse.MAX_FREE_TERMS", 16)
        assert parse_expr("(z0+z0s)^4", 1).term_count() == 16  # 4 x 4 pairs, at the cap
        with pytest.raises(ValueError):
            parse_expr("(z0+z0s)^2*(z0+z0s+z1)^2", 1)  # 4 x 9 pairs

    def test_normal_form_product_is_not_capped(self, monkeypatch):
        expected = normal_form(parse_expr("(z0+z0s)^2", 1))
        monkeypatch.setattr("qcpn.ncparse.MAX_FREE_TERMS", 1)
        assert parse_expr("(z0+z0s)^2", 1, _mul=_NormalProduct(1)) == expected


class TestLetterAppendSteps:
    @pytest.mark.parametrize(
        "expr, steps",
        [
            ("z0s^16*z0^16", 1496),
            ("z0s^32*z0^32", 11440),
            ("(z0+z0s)^16", 19638),
            ("z1^3000*z0", 3000),
        ],
    )
    def test_step_counts(self, expr, steps):
        mul = _NormalProduct(1)
        parse_expr(expr, 1, _mul=mul)
        assert mul.steps == steps


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
