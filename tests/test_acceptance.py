"""Acceptance criteria for the artifact, one test per criterion.

Every computation is exact, so apart from the wall-clock budget in
criterion 1 the tolerance everywhere is zero: results must be equal as
integers, polynomials, or words.  Each test prints a single summary line
(visible in the live pytest stream) of the form

    ACCEPTANCE 03 small-space ground truth: PASS (...)

and fails loudly through ordinary assertions otherwise.
"""

import time
from math import comb

import pytest

from qcpn.basis import (
    basis_class,
    basis_class_closed_form,
    basis_matrix,
    certify_basis,
    nesting_check,
)
from qcpn.corep import associated_class, fundamental_decomposition, fundamental_weights
from qcpn.kclasses import line_class
from qcpn.pairing import index_pairing, pairing_matrix
from qcpn.rings import LaurentQ, TruncatedPoly
from qcpn.sphere import (
    NCPoly,
    exhaustive_pair_check,
    fuzz_confluence,
    normal_form,
    sphere_sum,
    verify_defining_relations,
)

CERT_RANGE = range(1, 65)
CERT_BUDGET_SECONDS = 10.0
FUZZ_TRIALS = 10_000
FUZZ_SEED = 42
FUZZ_MAX_LEN = 6


@pytest.fixture
def report(capsys):
    def _run(number, label, check):
        try:
            detail = check()
        except BaseException as exc:  # print FAIL before pytest unwinds
            with capsys.disabled():
                print(f"ACCEPTANCE {number:02d} {label}: FAIL ({exc})")
            raise
        with capsys.disabled():
            print(f"ACCEPTANCE {number:02d} {label}: PASS ({detail})")

    return _run


def test_criterion_01_unimodularity_certificates(report):
    def check():
        start = time.perf_counter()
        for n in CERT_RANGE:
            cert = certify_basis(n)  # fresh, uncached
            assert cert.det in (1, -1), f"n={n} det {cert.det}"
            assert cert.verify(), f"n={n} closed-form entry check failed"
        elapsed = time.perf_counter() - start
        assert elapsed < CERT_BUDGET_SECONDS, f"took {elapsed:.2f}s"
        return f"n=1..64, |det|=1 with verified inverse, {elapsed:.2f}s of {CERT_BUDGET_SECONDS:.0f}s budget"

    report(1, "unimodularity certificates", check)


def test_criterion_02_closed_form_equals_construction(report):
    def check():
        count = 0
        for n in range(2, 33):
            for m in range(2, n + 1):
                assert basis_class_closed_form(n, m) == basis_class(n, m), (n, m)
                count += 1
        return f"{count} (n,m) pairs with 2<=m<=n<=32, exact equality, zero tolerance"

    report(2, "closed form equals bundle construction", check)


def test_criterion_03_small_space_ground_truth(report):
    def check():
        assert fundamental_decomposition(2, 2) == (-1, 1)
        assert basis_class(2, 2).coeffs == (0, 0, 1)
        cert = certify_basis(2)
        assert cert.matrix == ((1, 0, 0), (0, -1, 0), (0, 0, 1))
        assert cert.det == -1
        return "weights (-1,1); third basis class is the square class; matrix diag(1,-1,1), det -1"

    report(3, "small-space ground truth", check)


def test_criterion_04_pairing_identities(report):
    def check():
        checked = 0
        for n in range(1, 17):
            taut = line_class(n, -1)
            powers = [TruncatedPoly.t(n) ** j for j in range(n + 1)]
            for m in range(0, 31):
                c = line_class(n, m)
                for k in range(n + 1):
                    assert index_pairing(k, c) == comb(m, k), (n, m, k)
                    checked += 1
            for k in range(n + 1):
                assert index_pairing(k, taut) == (-1) ** k, (n, k)
                for j in range(n + 1):
                    expected = (-1) ** j if j == k else 0
                    assert index_pairing(k, powers[j]) == expected, (n, j, k)
                    checked += 1
        return f"{checked} exact pairings: binomial table, alternating signs, signed delta"

    report(4, "index pairing identities", check)


def test_criterion_05_pairing_matrix_sign_relation(report):
    def check():
        for n in range(1, 17):
            classes = [basis_class(n, j) for j in range(n + 1)]
            pm = pairing_matrix(classes)
            bm = basis_matrix(n)
            for k in range(n + 1):
                for j in range(n + 1):
                    assert pm[k][j] == (-1) ** k * bm[j][k], (n, k, j)
        return "pairing matrix equals (-1)^k-signed transpose of basis matrix, n<=16, exact"

    report(5, "pairing matrix sign relation", check)


def test_criterion_06_line_class_distinctness(report):
    def check():
        for n in range(1, 17):
            classes = {line_class(n, m) for m in range(-20, 21)}
            assert len(classes) == 41, f"collision at n={n}"
        return "41 distinct classes per space for |m|<=20, n<=16"

    report(6, "line classes pairwise distinct", check)


def test_criterion_07_nesting(report):
    def check():
        for n in range(1, 33):
            assert nesting_check(n), f"nesting broken at n={n}"
        return "each basis matrix is the leading block of the next, n<=32"

    report(7, "basis matrix nesting", check)


def test_criterion_08_defining_relations(report):
    def check():
        words = 0
        for n in range(1, 5):
            rep = verify_defining_relations(n)
            assert rep.passed, rep.mismatches[:3]
            words += rep.words
        for n in range(1, 5):
            assert normal_form(sphere_sum(n)) == NCPoly.one(n)
        return f"{words} relation reductions to zero (source algebra and 3-sphere image), n<=4"

    report(8, "defining relations and projection", check)


def test_criterion_09_confluence_evidence(report):
    def check():
        for n in (1, 2):
            rep = exhaustive_pair_check(n)
            assert rep.passed, rep.mismatches[:3]
        max_steps = 0
        for n in range(1, 5):
            rep = fuzz_confluence(n, FUZZ_MAX_LEN, FUZZ_TRIALS, FUZZ_SEED)
            assert rep.passed, (n, rep.mismatches[:3])
            assert rep.words == FUZZ_TRIALS
            max_steps = max(max_steps, rep.max_steps)
        return (
            f"exhaustive 2-letter words (n<=2) + {FUZZ_TRIALS} fuzz words per n<=4 "
            f"(len<={FUZZ_MAX_LEN}, seed {FUZZ_SEED}): zero mismatches, zero cap hits, "
            f"degree preserved, max {max_steps} steps"
        )

    report(9, "confluence evidence", check)


def test_criterion_10_junction_rule_derivation(report):
    def check():
        restricted = frozenset({"R1", "R2", "R3"})
        for n in range(1, 7):
            derived = normal_form(sphere_sum(n), rules=restricted)
            expected = NCPoly.zero(n)
            for k in range(n + 1):
                expected = expected + LaurentQ.q_power(-2 * k) * (
                    NCPoly.gen(n, k, starred=True) * NCPoly.gen(n, k)
                )
            assert derived == expected, f"n={n}"
            assert normal_form(sphere_sum(n)) == NCPoly.one(n)
        return "first-three-rules reduction of the sphere sum reproduces the junction coefficients q^-2k, n<=6"

    report(10, "junction rule coefficient derivation", check)
