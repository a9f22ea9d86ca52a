"""Normal ordering in the quantum sphere algebra.

Independent oracles used here:

* evaluation at q = 1 on an exact rational point of the classical sphere
  (the commutative specialisation turns every rule into an identity the
  point satisfies, so normal forms must evaluate equal to their inputs);
* structural shape of normal words (stars descending, then unstarred
  ascending, never both extreme letters), checked on reduction outputs;
* the junction-rule coefficients re-derived from the other three rules.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from qcpn import cli, sphere
from qcpn.rings import LaurentQ
from qcpn.sphere import (
    ALL_RULES,
    Generator,
    NCPoly,
    StepBudgetExceeded,
    _NormalProduct,
    _reduce,
    defining_relations,
    exhaustive_pair_check,
    fuzz_confluence,
    normal_form,
    project_to_s3,
    sphere_sum,
    verify_defining_relations,
)

R123 = frozenset({"R1", "R2", "R3"})


def gen(n, i, starred=False):
    return NCPoly.gen(n, i, starred)


def word_poly(n, letters):
    p = NCPoly.one(n)
    for i, starred in letters:
        p = p * gen(n, i, starred)
    return p


@st.composite
def nc_polys(draw, max_n=3, max_words=3, max_len=4, min_n=1):
    n = draw(st.integers(min_n, max_n))
    terms = []
    for _ in range(draw(st.integers(1, max_words))):
        letters = draw(
            st.lists(
                st.tuples(st.integers(0, n), st.booleans()), max_size=max_len
            )
        )
        coeff = draw(st.integers(-5, 5))
        terms.append((coeff, [Generator(i, s) for i, s in letters]))
    return NCPoly.from_terms(n, terms)


def left_sides(table):
    """The redex pairs of a rows-form rewrite table, mapped to their replacements."""
    return {
        (a, b): terms
        for a, row in enumerate(table)
        for b, terms in enumerate(row)
        if terms is not None
    }


def set_entry(table, a, b, terms):
    """A copy of the rows of ``table`` whose entry at ``(a, b)`` is ``terms``."""
    rows = [list(row) for row in table]
    rows[a][b] = terms
    return rows


def patch_table(monkeypatch, kind):
    """Make ``sphere._rewrite_table`` build the sound table or one broken on purpose."""
    real = sphere._rewrite_table
    reorder, broken = {-2: 1, 0: -1}, {-4: 1, 0: -1}

    def patched(n, rules):
        rows = real(n, rules)
        if kind == "broken reorder":  # R3 on z0 z0s with q^-4 - 1 instead of q^-2 - 1
            terms = tuple((broken if f == reorder else f, w) for f, w in rows[n + 1][0])
            return set_entry(rows, n + 1, 0, terms)
        if kind == "broken weight":  # R1 on z1 z0 rewritten to the single letter z0s
            return set_entry(rows, n + 2, n + 1, (({-1: 1}, (0,)),))
        return rows

    monkeypatch.setattr(sphere, "_rewrite_table", patched)


def recording(func, calls):
    """``func``, appending each of its results to ``calls``."""

    def record(*args):
        calls.append(func(*args))
        return calls[-1]

    return record


def sphere_point(rng, n):
    """Exact rationals with sum(x_m * y_m) == 1; the classical sphere at q=1."""
    xs = [Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(n + 1)]
    ys = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n + 1)]
    partial = sum(x * y for x, y in zip(xs[:-1], ys[:-1]))
    ys[-1] = (1 - partial) / xs[-1]
    assert sum(x * y for x, y in zip(xs, ys)) == 1
    return xs, ys


def evaluate_q1(p, xs, ys):
    total = Fraction(0)
    for word, coeff in p.terms():
        v = Fraction(sum(coeff.terms().values()))
        for g in word:
            v *= ys[g.index] if g.starred else xs[g.index]
        total += v
    return total


def assert_normal_shape(p):
    for word, _ in p.terms():
        stars = [g.index for g in word if g.starred]
        plains = [g.index for g in word if not g.starred]
        # block order: no unstarred letter before a starred one
        flags = [g.starred for g in word]
        assert flags == sorted(flags, reverse=True), f"blocks mixed in {word}"
        assert stars == sorted(stars, reverse=True), f"stars not descending in {word}"
        assert plains == sorted(plains), f"plain letters not ascending in {word}"
        assert not (0 in stars and 0 in plains), f"junction pair survived in {word}"


class TestRuleExamples:
    def test_plain_swap(self):
        p = word_poly(2, [(1, False), (0, False)])
        assert normal_form(p) == LaurentQ.q_power(-1) * word_poly(
            2, [(0, False), (1, False)]
        )

    def test_star_swap_descends(self):
        p = word_poly(2, [(0, True), (1, True)])
        assert normal_form(p) == LaurentQ.q_power(-1) * word_poly(
            2, [(1, True), (0, True)]
        )
        # descending input is already normal
        q = word_poly(2, [(1, True), (0, True)])
        assert normal_form(q) == q

    def test_mixed_swap(self):
        p = word_poly(2, [(0, False), (1, True)])
        assert normal_form(p) == LaurentQ.q_power(1) * word_poly(
            2, [(1, True), (0, False)]
        )

    def test_top_index_reorder_is_plain(self):
        for n in (1, 2, 3):
            p = word_poly(n, [(n, False), (n, True)])
            assert normal_form(p) == word_poly(n, [(n, True), (n, False)])

    def test_reorder_expands(self):
        p = word_poly(2, [(0, False), (0, True)])
        reorder = LaurentQ({-2: 1, 0: -1})
        expected = (
            word_poly(2, [(0, True), (0, False)])
            + reorder * normal_form(word_poly(2, [(1, False), (1, True)]))
            + reorder * normal_form(word_poly(2, [(2, False), (2, True)]))
        )
        assert normal_form(p) == normal_form(expected)

    def test_junction_elimination(self):
        p = word_poly(2, [(0, True), (0, False)])
        expected = (
            NCPoly.one(2)
            - LaurentQ.q_power(-2) * word_poly(2, [(1, True), (1, False)])
            - LaurentQ.q_power(-4) * word_poly(2, [(2, True), (2, False)])
        )
        assert normal_form(p) == expected

    def test_frozen_two_route_example(self):
        # route 1: direct reduction
        p = word_poly(1, [(0, False), (0, True)])
        direct = normal_form(p)
        assert str(direct) == "1 - z1s*z1"
        # route 2: substitute the sphere relation by hand first
        substituted = NCPoly.one(1) - word_poly(1, [(1, False), (1, True)])
        assert normal_form(substituted) == direct

    def test_sphere_sum_collapses(self):
        for n in range(1, 5):
            assert normal_form(sphere_sum(n)) == NCPoly.one(n)


@st.composite
def nc_poly_pairs(draw):
    a = draw(nc_polys())
    return a, draw(nc_polys(min_n=a.n, max_n=a.n))


class TestEngines:
    """The letter-append product against the pair rewriter ``_reduce``."""

    @pytest.mark.parametrize("rules", [ALL_RULES, R123], ids=["R1-R4", "R1-R3"])
    @pytest.mark.parametrize("n, max_len", [(1, 6), (2, 4)])
    def test_every_short_word_matches_leftmost_rewriting(self, n, max_len, rules):
        table = sphere._rewrite_table(n, rules)
        for length in range(max_len + 1):
            for word in product(range(2 * n + 2), repeat=length):
                start = {word: {0: 1}}
                expected, _, _ = _reduce(start, table, False, 10**6)
                got = normal_form(NCPoly(n, start), rules=rules)
                assert got == NCPoly(n, expected), word

    @given(nc_poly_pairs())
    def test_reducing_factors_first_changes_nothing(self, pair):
        a, b = pair
        nf_a, nf_b = normal_form(a), normal_form(b)
        assert normal_form(a * b) == normal_form(nf_a * nf_b)
        assert _NormalProduct(a.n)(nf_a, nf_b) == normal_form(a * b)

    def test_unreduced_right_factors(self):
        # each factor is the free sphere sum; its words are redexes themselves
        for n, k in ((1, 10), (2, 6), (3, 5)):
            mul = _NormalProduct(n)
            acc = NCPoly.one(n)
            for _ in range(k):
                acc = mul(acc, sphere_sum(n))
            assert acc == NCPoly.one(n)

    def test_budget_spans_every_product(self):
        swap = word_poly(1, [(1, False), (0, False)])  # one R1 step
        z1, z0 = gen(1, 1), gen(1, 0)
        mul = _NormalProduct(1, step_cap=2)
        assert mul(z1, z0) == normal_form(swap)
        assert mul(z1, z0) == normal_form(swap)
        with pytest.raises(StepBudgetExceeded, match="exceeded 2 rewrite steps"):
            mul(z1, z0)

    def test_normal_right_factor_is_appended_whole(self):
        long = gen(1, 0) ** 3000
        mul = _NormalProduct(1, step_cap=0)
        assert mul(long, long) == gen(1, 0) ** 6000


class TestMergeOrder:
    """R3 and R4 list their sums from the top index down, so the words a
    rewrite creates merge into pending entries instead of being re-derived."""

    @pytest.mark.parametrize("n", [1, 2, 5, 30])
    def test_reorder_pair_takes_n_plus_2_steps(self, n):
        p = word_poly(n, [(0, False), (0, True)])
        mul = _NormalProduct(n)
        expected = mul(NCPoly.one(n), p)
        assert (expected.term_count(), mul.steps) == (n + 1, n + 2)
        terms, steps, _ = _reduce(p._terms, sphere._rewrite_table(n, ALL_RULES), False, 1000)
        assert (NCPoly(n, terms), steps) == (expected, n + 2)

    def test_sphere_sum_at_n30(self):
        assert normal_form(sphere_sum(30), step_cap=1000) == NCPoly.one(30)

    def test_relations_at_n24(self):
        assert verify_defining_relations(24, step_cap=1000).passed

    def test_settle_drops_a_cancelled_pending_word(self):
        # z0 z0s is popped first; its z1 z1s term cancels the pending one
        settled = _NormalProduct(1)._settle(
            {(3, 1): [{0: 1, -2: -1}, 0], (2, 0): [{0: 1}, 0]}, {}
        )
        assert settled == {(): {0: 1}, (1, 3): {-2: -1}}
        p = word_poly(1, [(0, False), (0, True)]) + LaurentQ({0: 1, -2: -1}) * word_poly(
            1, [(1, False), (1, True)]
        )
        assert normal_form(p) == NCPoly(1, settled)
        assert str(normal_form(p)) == "1 - q^-2*z1s*z1"

    @pytest.mark.parametrize("n", [1, 2])
    def test_engines_agree_on_one_appended_letter(self, n):
        # every normal word of at most 4 letters, R4 firing mid-word included
        table = sphere._rewrite_table(n, ALL_RULES)
        letters = range(2 * n + 2)
        words = [w for k in range(5) for w in product(letters, repeat=k)]
        normal = [w for w in words if all(table[a][b] is None for a, b in zip(w, w[1:]))]
        for u, x in product(normal, letters):
            mul = _NormalProduct(n)
            got = mul(NCPoly._raw(n, {u: {0: 1}}), NCPoly._raw(n, {(x,): {0: 1}}))
            terms, steps, _ = _reduce({u + (x,): {0: 1}}, table, False, 1000)
            assert (got._terms, mul.steps) == (terms, steps), (u, x)


class TestJunctionDerivation:
    def test_rule_subset_reduction(self):
        # without the junction rule, the sphere sum normal-orders to a
        # geometric combination whose coefficients fix that rule uniquely
        for n in range(1, 5):
            got = normal_form(sphere_sum(n), rules=R123)
            expected = NCPoly.zero(n)
            for k in range(n + 1):
                expected = expected + LaurentQ.q_power(-2 * k) * word_poly(
                    n, [(k, True), (k, False)]
                )
            assert got == expected

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            normal_form(NCPoly.one(1), rules=frozenset({"R9"}))


class TestNormalFormProperties:
    @given(nc_polys())
    def test_idempotent(self, p):
        nf = normal_form(p)
        assert normal_form(nf) == nf

    @given(nc_polys())
    def test_output_shape(self, p):
        assert_normal_shape(normal_form(p))

    @given(nc_polys())
    def test_adjoint_compatible(self, p):
        lhs = normal_form(p.adjoint())
        rhs = normal_form(normal_form(p).adjoint())
        assert lhs == rhs

    def test_adjoint_frozen_example(self):
        p = word_poly(2, [(1, False), (0, False)])
        assert normal_form(p.adjoint()) == normal_form(p).adjoint()
        assert normal_form(p.adjoint()) == LaurentQ.q_power(-1) * word_poly(
            2, [(1, True), (0, True)]
        )

    @settings(max_examples=60)
    @given(nc_polys(), st.integers(0, 10**9))
    def test_q1_evaluation_preserved(self, p, seed):
        xs, ys = sphere_point(random.Random(seed), p.n)
        assert evaluate_q1(normal_form(p), xs, ys) == evaluate_q1(p, xs, ys)

    @given(nc_polys())
    def test_degree_components_preserved(self, p):
        nf = normal_form(p)
        degrees = {
            sum(1 if not g.starred else -1 for g in w) for w, _ in p.terms()
        }
        for m in degrees | {0}:
            assert normal_form(p.spectral_component(m)) == nf.spectral_component(m)

    def test_cancellation_to_zero(self):
        p = word_poly(2, [(1, False), (0, False)]) - LaurentQ.q_power(
            -1
        ) * word_poly(2, [(0, False), (1, False)])
        assert normal_form(p).is_zero()


class TestGradingAndComponents:
    def test_u1_degree_examples(self):
        assert word_poly(2, [(0, False), (1, False)]).u1_degree() == 2
        assert word_poly(2, [(0, True), (1, False)]).u1_degree() == 0
        mixed = gen(2, 0) + gen(2, 0, True)
        assert mixed.u1_degree() is None
        assert NCPoly.zero(2).u1_degree() == 0
        assert NCPoly.one(2).u1_degree() == 0

    def test_spectral_components_reassemble(self):
        p = gen(2, 0) + gen(2, 0, True) + 3 * NCPoly.one(2)
        total = NCPoly.zero(2)
        for m in (-1, 0, 1):
            total = total + p.spectral_component(m)
        assert total == p

    def test_spectral_component_examples(self):
        p = gen(2, 0) + gen(2, 0, True)
        assert p.spectral_component(1) == gen(2, 0)
        assert NCPoly.one(2).spectral_component(0) == NCPoly.one(2)
        w = word_poly(2, [(0, False), (1, True)])
        assert w.spectral_component(-1).is_zero()

    def test_grading_multiplicative(self):
        a = word_poly(2, [(0, False), (1, False)])
        b = gen(2, 2, True)
        assert (a * b).u1_degree() == a.u1_degree() + b.u1_degree()


class TestProjection:
    def test_kills_high_indices(self):
        p = word_poly(2, [(2, False), (0, False)])
        assert project_to_s3(p).is_zero()

    def test_low_indices_reduce_in_target(self):
        p = word_poly(2, [(1, False), (0, False)])
        expected = LaurentQ.q_power(-1) * word_poly(1, [(0, False), (1, False)])
        assert project_to_s3(p) == expected

    def test_sphere_sum_maps_to_one(self):
        for n in range(1, 5):
            assert project_to_s3(sphere_sum(n)) == NCPoly.one(1)

    def test_requires_positive_ambient(self):
        with pytest.raises(ValueError):
            project_to_s3(NCPoly.one(0))

    @given(nc_polys(max_n=2))
    def test_multiplicative_up_to_reduction(self, p):
        q = word_poly(p.n, [(0, False), (1, True)])
        lhs = project_to_s3(p * q)
        rhs = normal_form(project_to_s3(p) * project_to_s3(q))
        assert lhs == rhs

    @given(nc_polys(max_n=2))
    def test_star_equivariant(self, p):
        assert project_to_s3(p.adjoint()) == normal_form(
            project_to_s3(p).adjoint()
        )


class TestRelations:
    def test_all_relations_reduce_to_zero(self):
        for n in (1, 2, 3):
            report = verify_defining_relations(n)
            assert report.passed, report.mismatches
            assert report.words == 2 * len(defining_relations(n))

    def test_relation_count(self):
        # n+1 choose 2 plain swaps, (n+1)n mixed swaps, n+1 reorders, 1 sphere
        rels = defining_relations(2)
        assert len(rels) == 3 + 6 + 3 + 1

    def test_requires_positive_ambient(self):
        with pytest.raises(ValueError):
            defining_relations(0)

    def test_residues_are_reported(self, monkeypatch):
        # R3 on z0 z0s with q^-4 - 1 instead of q^-2 - 1 leaves a residue in
        # the reordering and the sphere relation, and in their s3 images
        real = sphere._rewrite_table
        broken = (({0: 1}, (0, 2)), ({-4: 1, 0: -1}, (3, 1)))
        patched = lambda n, rules: set_entry(real(n, rules), 2, 0, broken)
        monkeypatch.setattr(sphere, "_rewrite_table", patched)
        residue = "(q^-4 - q^-2)*z1s*z1"
        assert verify_defining_relations(1).mismatches == [
            ("z0 z0s reordering", residue, "0"),
            ("s3 image of: z0 z0s reordering", residue, "0"),
            ("sphere relation", residue, "0"),
            ("s3 image of: sphere relation", residue, "0"),
        ]


class TestRewriteTable:
    @pytest.mark.parametrize("n", range(7))
    def test_left_sides_are_the_non_normal_pairs(self, n):
        # R1 and R2 have n(n+1) left sides each, R3 n+1 and R4 one
        sizes = [
            len(left_sides(sphere._rewrite_table(n, frozenset({r}))))
            for r in ("R1", "R2", "R3", "R4")
        ]
        assert sizes == [n * (n + 1), n * (n + 1), n + 1, 1]

        def normal(a, b):
            # stars first, descending; then unstarred, ascending; never z0s z0
            if a.starred != b.starred:
                return a.starred and (a.index, b.index) != (0, 0)
            return a.index >= b.index if a.starred else a.index <= b.index

        letters = [Generator(i, s) for i in range(n + 1) for s in (True, False)]
        expected = {(a, b) for a in letters for b in letters if not normal(a, b)}
        table = left_sides(sphere._rewrite_table(n, ALL_RULES))
        assert {tuple(sphere._decode(c, n) for c in pair) for pair in table} == expected


class TestOverlaps:
    def test_every_ambiguity_resolves(self):
        # an ambiguity is a word abc whose pairs ab and bc are both redexes;
        # rewriting either pair once must lead to the same normal form
        counts = []
        for n in range(1, 9):
            table = sphere._rewrite_table(n, ALL_RULES)
            count = 0
            for (a, b), via_ab in left_sides(table).items():
                for c in range(2 * n + 2):
                    via_bc = table[b][c]
                    if via_bc is None:
                        continue
                    count += 1
                    left = NCPoly(n, {w + (c,): f for f, w in via_ab})
                    right = NCPoly(n, {(a,) + w: f for f, w in via_bc})
                    assert normal_form(left) == normal_form(right), (n, a, b, c)
            counts.append(count)
        assert counts == [8, 26, 64, 130, 232, 378, 576, 834]


class TestFuzz:
    def test_small_campaign_passes(self):
        report = fuzz_confluence(2, 5, 400, seed=11)
        assert report.passed
        assert report.words == 400
        assert report.max_steps > 0

    def test_deterministic_for_fixed_seed(self):
        a = fuzz_confluence(2, 6, 150, seed=3)
        b = fuzz_confluence(2, 6, 150, seed=3)
        assert a.as_dict() == b.as_dict()

    def test_exhaustive_pairs(self):
        for n in (1, 2):
            report = exhaustive_pair_check(n)
            assert report.passed
            assert report.words == (2 * (n + 1)) ** 2

    def test_max_len_validated(self):
        with pytest.raises(ValueError):
            fuzz_confluence(2, 1, 10, seed=0)

    def test_trials_validated(self):
        with pytest.raises(ValueError, match="trials must be non-negative"):
            fuzz_confluence(1, 3, -5, seed=1)
        assert fuzz_confluence(1, 3, 0, seed=1).as_dict()["words"] == 0

    def test_negative_ambient_rejected(self):
        with pytest.raises(ValueError, match="ambient index n must be nonnegative"):
            fuzz_confluence(-1, 3, 2, seed=1)
        with pytest.raises(ValueError, match="ambient index n must be nonnegative"):
            exhaustive_pair_check(-1)
        assert fuzz_confluence(0, 3, 20, seed=1).passed
        assert exhaustive_pair_check(0).words == 4

    def test_report_serialization(self):
        d = fuzz_confluence(1, 3, 5, seed=0).as_dict()
        assert set(d) == {"words", "max_steps", "mismatches", "passed"}
        assert d["passed"] is True and d["mismatches"] == []

    def test_words_do_not_depend_on_the_engine(self, monkeypatch):
        # the seed chooses only the words, so a seed tests the same words
        # however the reductions run
        rng, seen = random.Random(4), []
        expected = [sphere._random_word(rng, 2, 6) for _ in range(200)]
        monkeypatch.setattr(sphere, "_random_word", recording(sphere._random_word, seen))
        assert fuzz_confluence(2, 6, 200, seed=4).passed
        assert seen == expected

    def test_pinned_step_counts(self):
        # any change to the word stream, the strategies or step counting moves these
        assert [fuzz_confluence(n, 6, 500, seed=0).max_steps for n in (1, 2, 3, 4)] == [
            67, 285, 399, 330
        ]
        assert [verify_defining_relations(n).max_steps for n in range(1, 9)] == [
            5, 8, 12, 17, 23, 30, 38, 47
        ]
        assert [exhaustive_pair_check(n).max_steps for n in (1, 2, 3)] == [3, 4, 5]

    def test_pinned_budget_report(self):
        report = fuzz_confluence(2, 6, 40, seed=5, step_cap=3)
        assert (report.words, len(report.mismatches), report.max_steps) == (40, 18, 3)
        assert report.mismatches[0] == ("z0s*z0*z1s*z2*z0s*z1s", "step budget exceeded", "")

    def test_sweep_reports_a_budget_overrun_by_word(self):
        report = exhaustive_pair_check(1, step_cap=1)
        assert report.words == 16 and not report.passed
        assert report.mismatches[0] == ("z0*z0s", "step budget exceeded", "")

    def test_mismatch_is_reported(self, monkeypatch):
        # R3 on z0 z0s with q^-4 - 1 instead of q^-2 - 1 breaks confluence
        patch_table(monkeypatch, "broken reorder")
        report = fuzz_confluence(1, 4, 200, seed=1)
        assert len(report.mismatches) == 19
        assert report.mismatches[0] == (
            "z0s*z0*z0s*z0s",
            "z0s*z0s - z1s*z0s*z0s*z1",
            "z0s*z0s + (q^-6 - q^-2 - 1)*z1s*z0s*z0s*z1",
        )

    def test_weight_change_is_reported(self, monkeypatch):
        # R1 on z1 z0 rewritten to the single letter z0s: both strategies
        # agree, but the weight drops from 2 to -1
        patch_table(monkeypatch, "broken weight")
        assert exhaustive_pair_check(1).mismatches == [("z1*z0", "weight -1", "weight 2")]


def compare_both(word, n, table, cap):
    """``_compare_strategies`` without its shortcut: the rightmost run is always made."""
    start = {word: {0: 1}}
    left, left_steps, _ = _reduce(start, table, False, cap)
    right, right_steps, _ = _reduce(start, table, True, cap)
    steps = max(left_steps, right_steps)
    shift = n + 1
    degree = sphere._weight(word, shift)
    rendered = sphere._render_word(word, n)
    if left != right:
        return steps, ((rendered, str(NCPoly(n, left)), str(NCPoly(n, right))),)
    if left and {sphere._weight(w, shift) for w in left} != {degree}:
        weight = NCPoly(n, left).u1_degree()
        return steps, ((rendered, f"weight {weight}", f"weight {degree}"),)
    return steps, ()


def meets_choice(word, table):
    """Whether the leftmost reduction of ``word`` rewrites a word with two or more redexes."""
    return _reduce({word: {0: 1}}, table, False, sphere.DEFAULT_STEP_CAP)[2]


CHOICE_FREE = {  # (choice-free words, all words) of length at most 4
    ("sound", 1): (207, 341),
    ("sound", 2): (880, 1555),
    ("broken reorder", 1): (207, 341),
    ("broken reorder", 2): (880, 1555),
    ("broken weight", 1): (206, 341),
    ("broken weight", 2): (881, 1555),
}


class TestChoiceFreeShortcut:
    # a word whose leftmost run meets no choice gets no rightmost run; the
    # result must be that of running both
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("table", ["sound", "broken reorder", "broken weight"])
    def test_matches_running_both_strategies(self, monkeypatch, n, table):
        patch_table(monkeypatch, table)
        rows = sphere._rewrite_table(n, ALL_RULES)
        cap = sphere.DEFAULT_STEP_CAP
        words = [w for k in range(5) for w in product(range(2 * n + 2), repeat=k)]
        results = [sphere._compare_strategies(word, n, rows, cap) for word in words]
        assert results == [compare_both(word, n, rows, cap) for word in words]
        choice_free = sum(not meets_choice(word, rows) for word in words)
        # any change to what _reduce reports as a choice moves these
        assert (choice_free, len(words)) == CHOICE_FREE[table, n]
        assert all(not found for _, found in results) == (table == "sound")


def fuzz_every_draw(n, max_len, trials, seed, step_cap=None):
    """``fuzz_confluence`` without its per-word dict: every draw is compared."""
    cap, table = sphere._step_cap(step_cap), sphere._rewrite_table(n, ALL_RULES)
    rng, report = random.Random(seed), sphere.ReductionReport(words=trials)
    for _ in range(trials):
        word = sphere._random_word(rng, n, max_len)
        steps, found = sphere._compare_strategies(word, n, table, cap)
        report.max_steps = max(report.max_steps, steps)
        report.mismatches.extend(found)
    return report


class TestOncePerWord:
    """``fuzz_confluence`` compares each distinct word once per call, and
    its report is that of comparing every draw."""

    @pytest.mark.parametrize("table", ["sound", "broken reorder", "broken weight", "step cap"])
    def test_report_equals_comparing_every_draw(self, monkeypatch, table):
        patch_table(monkeypatch, table)
        cap, draws = (3 if table == "step cap" else None), []
        expected = fuzz_every_draw(1, 4, 200, seed=1, step_cap=cap).as_dict()
        monkeypatch.setattr(sphere, "_random_word", recording(sphere._random_word, draws))
        report = fuzz_confluence(1, 4, 200, seed=1, step_cap=cap)
        assert report.as_dict() == expected
        assert len(set(draws)) < len(draws) == 200
        if table == "sound":
            assert report.passed
        else:  # some failing word was drawn twice and is reported twice
            assert len(set(report.mismatches)) < len(report.mismatches)

    def test_each_distinct_word_is_reduced_once_per_strategy(self, monkeypatch):
        draws, calls = [], []
        real_reduce = sphere._reduce

        def counting(terms, table, rightmost, cap):
            (word,) = terms
            calls.append((word, rightmost))
            return real_reduce(terms, table, rightmost, cap)

        monkeypatch.setattr(sphere, "_random_word", recording(sphere._random_word, draws))
        monkeypatch.setattr(sphere, "_reduce", counting)
        assert fuzz_confluence(2, 5, 400, seed=3).passed
        distinct, table = set(draws), sphere._rewrite_table(2, ALL_RULES)
        assert len(distinct) < len(draws) == 400
        chosen = {w for w in distinct if meets_choice(w, table)}
        assert 0 < len(chosen) < len(distinct)
        expected = [(w, False) for w in distinct] + [(w, True) for w in chosen]
        assert sorted(calls) == sorted(expected)

    def test_no_budget_report_on_confluent_words_at_large_n(self):
        # a random strategy ran past the 10^6-step budget on
        # z4*z4s*z14*z15s*z1*z1s*z9*z9s, which leftmost reduces in 9693 steps
        for n in (16, 200):
            report = fuzz_confluence(n, 12, 100, seed=1)
            assert report.passed and report.words == 100


class TestOneTablePerComputation:
    """Each computation builds the rewrite table it runs on once, and
    nothing keeps a table for the next one."""

    @pytest.fixture
    def builds(self, monkeypatch):
        real, built = sphere._rewrite_table, []

        def counting(n, rules):
            built.append(n)
            return real(n, rules)

        monkeypatch.setattr(sphere, "_rewrite_table", counting)
        return built

    @pytest.mark.parametrize(
        "check, tables",
        [
            (lambda: fuzz_confluence(2, 6, 50, 1), [2]),
            (lambda: exhaustive_pair_check(2), [2]),
            (lambda: verify_defining_relations(3), [1, 3]),  # the source and the S^3 image
            (lambda: verify_defining_relations(1), [1]),
        ],
    )
    def test_each_check_builds_one_table_per_ambient(self, builds, check, tables):
        assert check().passed
        assert sorted(builds) == tables
        check()
        assert sorted(builds) == sorted(tables * 2)

    def test_one_product_builds_one_table(self, builds):
        mul, acc = _NormalProduct(2), NCPoly.one(2)
        for _ in range(5):
            acc = mul(acc, sphere_sum(2))
        assert acc == NCPoly.one(2)
        assert builds == [2]

    def test_nc_reduce_builds_one_table(self, builds, capsys):
        assert cli.run(["nc", "reduce", "--n", "2", "--expr", "(z0*z0s+z1*z1s)^3*z2s*z2"]) == 0
        assert '"normal_form"' in capsys.readouterr().out
        assert builds == [2]


class TestStepBudget:
    @pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
    def test_pair_rewriter_boundary(self, strategy):
        start = {(2, 0, 3, 1): {0: 1}}  # z0 z0s z1 z1s, n=1

        def reduce(cap):
            table = sphere._rewrite_table(1, ALL_RULES)
            return _reduce(start, table, strategy == "rightmost", cap)[:2]

        terms, k = reduce(10**6)
        assert k > 1
        assert reduce(k) == (terms, k)
        with pytest.raises(StepBudgetExceeded, match=f"exceeded {k - 1} rewrite steps"):
            reduce(k - 1)

    def test_explicit_cap_exceeded(self):
        p = word_poly(1, [(1, False), (0, False)])
        with pytest.raises(StepBudgetExceeded):
            normal_form(p, step_cap=0)

    def test_env_cap_honored(self, monkeypatch):
        monkeypatch.setenv("QCPN_STEP_CAP", "1")
        p = word_poly(2, [(0, False), (0, True)])  # needs several steps
        with pytest.raises(StepBudgetExceeded):
            normal_form(p)
        monkeypatch.setenv("QCPN_STEP_CAP", "1000000")
        assert normal_form(p) is not None

    def test_env_cap_validated(self, monkeypatch):
        for raw in ("0", "abc"):
            monkeypatch.setenv("QCPN_STEP_CAP", raw)
            with pytest.raises(ValueError, match=f"must be a positive integer, got '{raw}'$"):
                normal_form(NCPoly.one(1))

    def test_relations_run_under_the_explicit_cap(self, monkeypatch):
        # the s3 images reduce under the caller's cap, not the environment's
        monkeypatch.setenv("QCPN_STEP_CAP", "2")
        report = verify_defining_relations(1, step_cap=10**6)
        assert report.passed and report.max_steps == 5

    def test_relations_raise_on_a_budget_overrun(self, monkeypatch, capsys):
        # unlike the strategy comparisons, the relation check does not record an overrun
        with pytest.raises(StepBudgetExceeded, match="exceeded 1 rewrite steps"):
            verify_defining_relations(2, step_cap=1)
        monkeypatch.setenv("QCPN_STEP_CAP", "1")
        assert cli.run(["nc", "relations", "--n", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: exceeded 1 rewrite steps (set QCPN_STEP_CAP to raise the cap)\n"

    def test_explicit_cap_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("QCPN_STEP_CAP", "1")
        p = word_poly(2, [(0, False), (0, True)])
        assert normal_form(p, step_cap=1000) is not None


class TestNCPolyPlumbing:
    def test_construction_validates_codes(self):
        with pytest.raises(ValueError):
            NCPoly(1, {(5,): LaurentQ.one()})
        with pytest.raises(ValueError):
            NCPoly(-1)

    def test_generator_range_checked(self):
        with pytest.raises(ValueError):
            NCPoly.gen(2, 3)

    def test_scalar_coercion(self):
        p = gen(1, 0)
        assert p + 1 - 1 == p
        assert 0 * p == NCPoly.zero(1)
        assert (LaurentQ.q_power(2) * p).coefficient([Generator(0, False)]) == (
            LaurentQ.q_power(2)
        )

    def test_mixed_ambient_rejected(self):
        with pytest.raises(ValueError):
            gen(1, 0) + gen(2, 0)

    def test_pow(self):
        p = gen(2, 0)
        assert p**3 == p * p * p
        assert p**0 == NCPoly.one(2)
        with pytest.raises(ValueError):
            p**-1
        p = gen(1, 0) - LaurentQ.q_power(1) * gen(1, 1, True) + 2
        expected = NCPoly.one(1)
        for e in range(10):
            assert p**e == expected, e
            expected = expected * p

    def test_pow_uses_logarithmically_many_products(self, monkeypatch):
        mul = NCPoly.__mul__
        products = []  # the word length of each product formed

        def counting(self, other):
            products.append(max(map(len, self._terms)) + max(map(len, other._terms)))
            return mul(self, other)

        monkeypatch.setattr(NCPoly, "__mul__", counting)
        for e in (0, 1, 2, 3, 8, 255, 256, 1000):
            products.clear()
            gen(1, 0) ** e
            assert len(products) <= 2 * e.bit_length(), e
            # no square is formed past the top bit of e
            assert max(products, default=0) <= e, e

    def test_adjoint_involution(self):
        p = word_poly(2, [(0, False), (1, True), (2, False)])
        assert p.adjoint().adjoint() == p

    def test_adjoint_example(self):
        p = word_poly(2, [(0, False), (1, False)])
        assert p.adjoint() == word_poly(2, [(1, True), (0, True)])

    def test_str_rendering(self):
        z0, z1s_z1 = word_poly(1, [(0, False)]), word_poly(1, [(1, True), (1, False)])
        reorder = LaurentQ({-2: 1, 0: -1})
        table = [
            (NCPoly.zero(1), "0"),
            (NCPoly.one(1), "1"),
            (NCPoly.one(1) - z1s_z1, "1 - z1s*z1"),
            (reorder * z0, "(q^-2 - 1)*z0"),
            (NCPoly.scalar(1, reorder), "(q^-2 - 1)"),
            (LaurentQ({0: -1, 2: 1}) * z0 - z1s_z1, "(-1 + q^2)*z0 - z1s*z1"),
            (-z0, "-z0"),
            (NCPoly.scalar(1, -3) + LaurentQ.q_power(1) * z0, "-3 + q*z0"),
            (LaurentQ.q_power(-2, -1) * z1s_z1, "-q^-2*z1s*z1"),
            (2 * z0 + LaurentQ.q_power(3, 5) * z1s_z1, "2*z0 + 5*q^3*z1s*z1"),
            (NCPoly.scalar(1, LaurentQ.q_power(-1)), "q^-1"),
        ]
        for p, text in table:
            assert str(p) == text

    def test_letters_render_as_before(self):
        # each distinct letter is rendered once per call; these strings are
        # those of rendering every letter through its Generator
        G, multi = Generator, LaurentQ({-3: 2, 0: -1, 4: 7})
        table = [
            (0, [], "0"),
            (0, [(1, [])], "1"),
            (0, [(-1, [G(0, True), G(0, False)]), (multi, [G(0, False)] * 3), (LaurentQ({2: -5}), [])],
             "-5*q^2 - z0s*z0 + (2*q^-3 - 1 + 7*q^4)*z0*z0*z0"),
            (1, [(LaurentQ({-1: 1}), [G(1, True), G(0, True), G(0, False), G(1, False)]),
                 (multi, []), (4, [G(1, False), G(0, True)])],
             "(2*q^-3 - 1 + 7*q^4) + 4*z1*z0s + q^-1*z1s*z0s*z0*z1"),
            (11, [(1, [G(11, True), G(10, True), G(0, False), G(11, False)]),
                  (LaurentQ({-2: -1}), [G(10, False), G(1, True), G(11, False)]),
                  (multi, [G(2, True), G(0, True)]), (-3, [])],
             "-3 + (2*q^-3 - 1 + 7*q^4)*z2s*z0s - q^-2*z10*z1s*z11 + z11s*z10s*z0*z11"),
            (11, [(LaurentQ({1: 1, -1: -1}), [G(i, i % 2 == 0) for i in range(12)])],
             "(-q^-1 + q)*z0s*z1*z2s*z3*z4s*z5*z6s*z7*z8s*z9*z10s*z11"),
        ]
        for n, terms, text in table:
            assert str(NCPoly.from_terms(n, terms)) == text
        assert sphere._render_word((0, 23, 11, 12, 23), 11) == "z0s*z11*z11s*z0*z11"
        assert sphere._render_word((), 11) == ""
        # only the letters present are rendered, however large the alphabet
        assert str(NCPoly.gen(10**12, 10**12, starred=True) * 3) == "3*z1000000000000s"

    def test_terms_are_canonically_ordered(self):
        p = gen(2, 1) + gen(2, 0, True) + NCPoly.one(2)
        words = [w for w, _ in p.terms()]
        assert words == [
            (),
            (Generator(0, True),),
            (Generator(1, False),),
        ]
        # coefficients are stored as exponent maps and handed out as LaurentQ
        assert all(type(c) is LaurentQ for _, c in p.terms())
        for word in ([Generator(1, False)], [Generator(2, True)]):
            assert type(p.coefficient(word)) is LaurentQ
        assert p.coefficient([Generator(2, True)]) == 0

    def test_immutability(self):
        p = NCPoly.one(1)
        with pytest.raises(AttributeError):
            p.n = 4

    def test_from_terms_merges(self):
        g = [Generator(0, False)]
        p = NCPoly.from_terms(1, [(2, g), (-2, g)])
        assert p.is_zero()
