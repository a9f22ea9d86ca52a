"""CLI envelopes, schema conformance, determinism, and exit codes."""

import gc
import hashlib
import io
import json
import re
import subprocess
import sys
import tracemalloc
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, strategies as st

from qcpn.basis import certify_basis
from qcpn.cli import _write_json, build_parser, run
from qcpn.ncparse import MAX_NESTING, parse_expr
from qcpn.sphere import ALL_RULES, NCPoly, _reduce, _rewrite_table, normal_form


def load_schema():
    path = resources.files("qcpn") / "schemas" / "envelope.json"
    return json.loads(path.read_text())


SCHEMA = load_schema()


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    envelope = json.loads(out)
    jsonschema.validate(envelope, SCHEMA)
    return envelope


class TestKBasis:
    def test_json_matches_certificate(self, capsys):
        env = invoke_json(capsys, "kbasis", "--n", "2")
        cert = certify_basis(2)
        assert env["command"] == "kbasis"
        assert env["result"]["det"] == "-1"
        assert env["result"]["matrix"] == [
            ["1", "0", "0"],
            ["0", "-1", "0"],
            ["0", "0", "1"],
        ]
        assert env["result"]["inverse"] == [list(row) for row in cert.as_dict()["inverse"]]

    def test_csv_is_matrix_only(self, capsys):
        code, out, _ = invoke(capsys, "kbasis", "--n", "2", "--format", "csv")
        assert code == 0
        assert out == "1,0,0\n0,-1,0\n0,0,1\n"

    def test_domain_error_exits_one(self, capsys):
        code, out, err = invoke(capsys, "kbasis", "--n", "0")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_dimension_budget(self, capsys, monkeypatch):
        import qcpn.basis

        def refuse_work(n):
            raise AssertionError("the basis matrix was built")

        monkeypatch.setattr(qcpn.basis, "basis_matrix", refuse_work)
        code, out, err = invoke(capsys, "kbasis", "--n", "401")
        assert (code, out, err) == (1, "", "error: dimension must be at most 400, got 401\n")

    # sha256 of the envelopes printed before the certificate was checked
    # through its closed-form rows; the faster check must print the same bytes
    @pytest.mark.parametrize("n, digest", [
        (8, "e11b47f0f17f76a6b75029a1509779539c925f9ae4007b5ab67423426af222c0"),
        (50, "28954caad0f975a06d85b2faf9f549be0ac26c8fe0c4f36390bfae9a8544112f"),
        (200, "781a921991979d88d81cf563dc11a4c102dbc2f76be2a601ba3332cdb1a8102a"),
    ])
    def test_envelope_bytes_pinned(self, capsys, n, digest):
        code, out, _ = invoke(capsys, "kbasis", "--n", str(n))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestKClass:
    def test_line_negative_power(self, capsys):
        env = invoke_json(capsys, "kclass", "line", "--n", "2", "--m", "-1")
        assert env["command"] == "kclass line"
        assert env["result"] == {"n": 2, "coeffs": ["1", "1", "1"]}

    def test_line_csv(self, capsys):
        code, out, _ = invoke(
            capsys, "kclass", "line", "--n", "2", "--m", "2", "--format", "csv"
        )
        assert code == 0
        assert out == "1,-2,1\n"

    def test_assoc(self, capsys):
        env = invoke_json(capsys, "kclass", "assoc", "--n", "3", "--su", "3")
        result = env["result"]
        assert result["weights"] == [-1, -1, 2]
        assert result["decomposition"] == [
            {"m": -1, "multiplicity": 2},
            {"m": 2, "multiplicity": 1},
        ]
        assert result["class"] == {"n": 3, "coeffs": ["3", "0", "3", "2"]}

    def test_assoc_rank_too_small(self, capsys):
        code, _, err = invoke(capsys, "kclass", "assoc", "--n", "3", "--su", "1")
        assert code == 1 and "error:" in err


class TestPair:
    def test_line_selector(self, capsys):
        env = invoke_json(capsys, "pair", "--n", "2", "--line", "-1")
        assert env["result"]["pairings"] == ["1", "-1", "1"]

    def test_basis_selector(self, capsys):
        env = invoke_json(capsys, "pair", "--n", "2", "--basis", "2")
        assert env["result"]["class"] == {"n": 2, "coeffs": ["0", "0", "1"]}
        assert env["result"]["pairings"] == ["0", "0", "1"]

    def test_coeffs_selector(self, capsys):
        env = invoke_json(capsys, "pair", "--n", "2", "--coeffs", "1,2,3")
        assert env["result"]["pairings"] == ["1", "-2", "3"]

    def test_selector_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["pair", "--n", "2"])
        assert exc.value.code == 2

    def test_bad_coeffs_string(self, capsys):
        code, _, err = invoke(capsys, "pair", "--n", "2", "--coeffs", "1,x,3")
        assert code == 1 and "comma-separated" in err


class TestRestrict:
    def test_line_restriction(self, capsys):
        env = invoke_json(
            capsys, "restrict", "--n", "3", "--line", "-1", "--target", "1"
        )
        assert env["result"] == {"n": 1, "coeffs": ["1", "1"]}

    def test_coeffs_csv(self, capsys):
        code, out, _ = invoke(
            capsys,
            "restrict",
            "--n",
            "3",
            "--coeffs",
            "4,5,6,7",
            "--target",
            "2",
            "--format",
            "csv",
        )
        assert code == 0
        assert out == "4,5,6\n"

    def test_target_out_of_range(self, capsys):
        code, _, err = invoke(
            capsys, "restrict", "--n", "2", "--line", "1", "--target", "3"
        )
        assert code == 1 and "error:" in err


class TestClassBudgets:
    @pytest.mark.parametrize("argv", [
        ("kclass", "line", "--n", "401", "--m", "1"),
        ("kclass", "assoc", "--n", "401", "--su", "2"),
        ("pair", "--n", "401", "--line", "1"),
        ("pair", "--n", "401", "--coeffs", "1"),
        ("restrict", "--n", "401", "--line", "1", "--target", "1"),
        ("restrict", "--n", "401", "--coeffs", "1", "--target", "1"),
    ])
    def test_dimension_refused(self, capsys, monkeypatch, argv):
        import qcpn.kclasses

        def refuse_work(n, m):
            raise AssertionError("a line class was built")

        monkeypatch.setattr(qcpn.kclasses, "line_class", refuse_work)
        message = "error: dimension must be at most 400, got 401\n"
        assert invoke(capsys, *argv) == (1, "", message)

    @pytest.mark.parametrize("argv", [
        ("kclass", "line", "--n", "2", "--m", "1000001"),
        ("kclass", "line", "--n", "2", "--m", "-1000001"),
        ("pair", "--n", "2", "--line", "1000001"),
        ("pair", "--n", "2", "--line", "-" + "9" * 1001),
        ("restrict", "--n", "2", "--line", "-1000001", "--target", "1"),
    ])
    def test_line_power_refused(self, capsys, monkeypatch, argv):
        import qcpn.kclasses

        def refuse_work(n, m):
            raise AssertionError("a line class was built")

        monkeypatch.setattr(qcpn.kclasses, "line_class", refuse_work)
        message = "error: line power must be at most 1000000 in absolute value\n"
        assert invoke(capsys, *argv) == (1, "", message)

    @pytest.mark.parametrize("argv", [
        ("kclass", "line", "--n", "400", "--m", "1000000"),
        ("kclass", "assoc", "--n", "400", "--su", "2"),
        ("pair", "--n", "400", "--line", "-1000000"),
        ("restrict", "--n", "400", "--line", "1000000", "--target", "3"),
    ])
    def test_budget_limits_accepted(self, capsys, argv):
        # the caps bound the output: no coefficient has more than 1532 digits
        env = invoke_json(capsys, *argv)
        assert max(map(len, re.findall(r"\d+", json.dumps(env)))) <= 1532

    def test_rank_refused_before_any_weight(self, capsys, monkeypatch):
        import qcpn.corep

        def refuse_work(m):
            raise AssertionError("weights were built")

        monkeypatch.setattr(qcpn.corep, "fundamental_weights", refuse_work)
        message = "error: rank must be at most 1000000, got 1000001\n"
        assert invoke(capsys, "kclass", "assoc", "--n", "3", "--su", "1000001") == (1, "", message)

    def test_rank_limits(self, capsys, monkeypatch):
        import qcpn.cli

        monkeypatch.setattr(qcpn.cli, "MAX_LINE_POWER", 7)
        env = invoke_json(capsys, "kclass", "assoc", "--n", "3", "--su", "7")
        assert env["result"]["weights"] == [-1] * 6 + [6]
        message = "error: rank must be at most 7, got 8\n"
        assert invoke(capsys, "kclass", "assoc", "--n", "3", "--su", "8") == (1, "", message)
        message = "error: rank must be at least 2, got 1\n"
        assert invoke(capsys, "kclass", "assoc", "--n", "3", "--su", "1") == (1, "", message)


class TestNC:
    def test_reduce_frozen_example(self, capsys):
        env = invoke_json(capsys, "nc", "reduce", "--n", "1", "--expr", "z0*z0s")
        assert env["result"] == {"normal_form": "1 - z1s*z1", "degree": 0}

    def test_reduce_inhomogeneous_after_reduction(self, capsys):
        env = invoke_json(capsys, "nc", "reduce", "--n", "1", "--expr", "z0 + 1")
        assert env["result"]["degree"] == "inhomogeneous"

    def test_degree_with_inferred_ambient(self, capsys):
        env = invoke_json(capsys, "nc", "degree", "--expr", "z0*z4*z1s")
        assert env["result"] == {"degree": 1}
        assert "n" not in env["params"]

    def test_degree_with_explicit_ambient(self, capsys):
        env = invoke_json(capsys, "nc", "degree", "--n", "2", "--expr", "z0s")
        assert env["result"] == {"degree": -1}
        code, _, err = invoke(capsys, "nc", "degree", "--n", "2", "--expr", "z5")
        assert code == 1 and "error:" in err

    def test_fuzz_report(self, capsys):
        env = invoke_json(
            capsys,
            "nc",
            "fuzz",
            "--n",
            "1",
            "--max-len",
            "4",
            "--trials",
            "50",
            "--seed",
            "9",
        )
        assert env["result"]["passed"] is True
        assert env["result"]["words"] == 50

    def test_fuzz_rejects_negative_trials(self, capsys):
        code, out, err = invoke(capsys, "nc", "fuzz", "--n", "1", "--max-len", "3",
                                "--trials", "-5", "--seed", "1")
        assert (code, out, err) == (1, "", "error: trials must be non-negative\n")

    def test_fuzz_rejects_negative_ambient(self, capsys):
        code, out, err = invoke(capsys, "nc", "fuzz", "--n", "-1", "--max-len", "3",
                                "--trials", "2", "--seed", "1")
        assert (code, out, err) == (1, "", "error: ambient index n must be nonnegative\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["reduce", "--n", "201", "--expr", "z0"], "ambient index must be at most 200, got 201"),
            (["fuzz", "--n", "201", "--max-len", "3", "--trials", "1", "--seed", "1"],
             "ambient index must be at most 200, got 201"),
            (["fuzz", "--n", "1", "--max-len", "3", "--trials", "10001", "--seed", "1"],
             "trials must be at most 10000, got 10001"),
            (["fuzz", "--n", "1", "--max-len", "13", "--trials", "1", "--seed", "1"],
             "max_len must be at most 12, got 13"),
            (["relations", "--n", "49"], "ambient index must be at most 48, got 49"),
            (["reduce", "--n", "-1", "--expr", "z0"], "ambient index n must be nonnegative"),
        ],
    )
    def test_size_budgets_refuse_before_the_table(self, capsys, monkeypatch, argv, message):
        def no_table(n, rules):
            raise AssertionError(f"rewrite table of n={n} built")

        monkeypatch.setattr("qcpn.sphere._rewrite_table", no_table)
        assert invoke(capsys, "nc", *argv) == (1, "", f"error: {message}\n")

    def test_size_budgets_admit_their_bounds(self, capsys, monkeypatch):
        for cap, value in (("NC_N", 2), ("RELATIONS_N", 2), ("FUZZ_TRIALS", 5), ("FUZZ_LEN", 4)):
            monkeypatch.setattr(f"qcpn.cli.MAX_{cap}", value)
        fuzz = "nc fuzz --n {} --max-len {} --trials {} --seed 1"
        for at, over in [
            ("nc reduce --n 2 --expr z0", "nc reduce --n 3 --expr z0"),
            (fuzz.format(2, 4, 5), fuzz.format(3, 4, 5)),
            (fuzz.format(2, 4, 5), fuzz.format(2, 4, 6)),
            (fuzz.format(2, 4, 5), fuzz.format(2, 5, 5)),
            ("nc relations --n 2", "nc relations --n 3"),
        ]:
            assert invoke(capsys, *at.split())[0] == 0
            assert invoke(capsys, *over.split())[0] == 1

    def test_relations_report(self, capsys):
        env = invoke_json(capsys, "nc", "relations", "--n", "2")
        assert env["result"]["passed"] is True
        assert env["result"]["mismatches"] == []

    def test_syntax_error_exits_one(self, capsys):
        code, _, err = invoke(capsys, "nc", "reduce", "--n", "1", "--expr", "z0 +")
        assert code == 1 and "offset" in err

    @pytest.mark.parametrize("action", [["reduce", "--n", "3"], ["degree"]])
    @pytest.mark.parametrize(
        "expr, message",
        [
            ("z\u00b2", "expected an index after 'z' at offset 0"),
            ("z0^\u00b2", "unexpected character '\u00b2' at offset 3"),
        ],
    )
    def test_non_ascii_digit_exits_one(self, capsys, action, expr, message):
        code, out, err = invoke(capsys, "nc", *action, "--expr", expr)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("action", [["reduce", "--n", "1"], ["degree"]])
    def test_exponent_capped(self, capsys, action):
        code, out, err = invoke(capsys, "nc", *action, "--expr", "z0*39^100001")
        message = "exponent exceeds 100000 in absolute value at offset 6"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("action", [["reduce", "--n", "1"], ["degree"]])
    def test_nested_power_budget(self, capsys, action):
        # 39^99999 has 528535 bits: one more power of it is within the budget, two are not
        code, out, _ = invoke(capsys, "nc", *action, "--expr", "(39^99999)^1")
        assert code == 0 and json.loads(out)["result"]["degree"] == 0
        code, out, err = invoke(capsys, "nc", *action, "--expr", "(39^99999)^2")
        message = "power exceeds the budget of 1000000 coefficient bits at offset 11"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("action", [["reduce", "--n", "1"], ["degree"]])
    def test_nested_power_refused_before_it_is_computed(self, action):
        # 39^(99999^2) would have some 5 * 10^10 bits
        out = subprocess.run(
            [sys.executable, "-m", "qcpn", "nc", *action, "--expr", "(39^99999)^99999"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        message = "power exceeds the budget of 1000000 coefficient bits at offset 11"
        assert (out.returncode, out.stdout, out.stderr) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("action", [["reduce", "--n", "1"], ["degree"]])
    def test_product_budget(self, capsys, action):
        # 39^99999 has 528535 bits: the product of two exceeds the budget
        code, out, err = invoke(capsys, "nc", *action, "--expr", "39^99999*39^99999")
        message = "product exceeds the budget of 1000000 coefficient bits at offset 8"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("action", [["reduce", "--n", "1"], ["degree"]])
    @pytest.mark.parametrize(
        "expr, message",
        [
            ("((z0^1000)^1000)^1000", "power exceeds the budget of 100000 letters per word at offset 11"),
            ("(z0^100000)^100000", "power exceeds the budget of 100000 letters per word at offset 12"),
            ("z0^50000*z0^50001", "product exceeds the budget of 100000 letters per word at offset 8"),
        ],
    )
    def test_word_length_refused_before_it_is_built(self, action, expr, message):
        # z0 needs no rewrite, so neither the step budget nor a coefficient budget applies
        out = subprocess.run(
            [sys.executable, "-m", "qcpn", "nc", *action, "--expr", expr],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert (out.returncode, out.stdout, out.stderr) == (1, "", f"error: {message}\n")

    def test_degree_free_expansion_capped(self, capsys):
        code, out, err = invoke(capsys, "nc", "degree", "--expr", "(z0+z0s)^24")
        assert (code, out, err) == (1, "", "error: free expansion exceeds 1000000 term pairs\n")

    @pytest.mark.parametrize("action", [["reduce", "--n", "1"], ["degree"]])
    @pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1, 1000])
    def test_nesting_depth_capped(self, capsys, action, depth):
        expr = "(" * depth + "z0" + ")" * depth
        code, out, err = invoke(capsys, "nc", *action, "--expr", expr)
        if depth <= MAX_NESTING:
            assert code == 0 and json.loads(out)["result"]["degree"] == 1
        else:
            assert code == 1 and out == ""
            assert err == (
                f"error: parentheses nested deeper than {MAX_NESTING} levels"
                f" at offset {MAX_NESTING}\n"
            )

    def test_step_cap_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("QCPN_STEP_CAP", "1")
        code, _, err = invoke(capsys, "nc", "reduce", "--n", "2", "--expr", "z0*z0s")
        assert code == 1 and "QCPN_STEP_CAP" in err

    def test_step_cap_spans_the_whole_expression(self, capsys, monkeypatch):
        monkeypatch.setenv("QCPN_STEP_CAP", "1")
        for single in ("z1*z0", "z0s*z1s"):  # one rewrite step each
            assert invoke(capsys, "nc", "reduce", "--n", "1", "--expr", single)[0] == 0
        code, out, err = invoke(capsys, "nc", "reduce", "--n", "1", "--expr", "z1*z0 + z0s*z1s")
        assert code == 1 and out == ""
        assert err == "error: exceeded 1 rewrite steps (set QCPN_STEP_CAP to raise the cap)\n"

    def test_step_cap_must_be_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("QCPN_STEP_CAP", "abc")
        code, out, err = invoke(capsys, "nc", "reduce", "--n", "1", "--expr", "z1*z0")
        message = "QCPN_STEP_CAP must be a positive integer, got 'abc'"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_reduce_sphere_sum_power(self, capsys):
        # the free expansion has 3^12 words; expanding it first ran out of steps
        env = invoke_json(capsys, "nc", "reduce", "--n", "2", "--expr", "(z0*z0s+z1*z1s+z2*z2s)^6")
        assert env["result"] == {"normal_form": "1", "degree": 0}

    def test_reduce_power_matches_pair_rewriting(self, capsys):
        env = invoke_json(capsys, "nc", "reduce", "--n", "1", "--expr", "(z0+z0s)^12")
        half = normal_form(parse_expr("(z0+z0s)^6", 1))
        terms, _, _ = _reduce((half * half)._terms, _rewrite_table(1, ALL_RULES), False, 10**7)
        assert env["result"]["normal_form"] == str(NCPoly._raw(1, terms))

    def test_degree_is_of_the_unreduced_input(self, capsys):
        expr = "z0*z1 - q*z1*z0 + 1"
        env = invoke_json(capsys, "nc", "degree", "--n", "1", "--expr", expr)
        assert env["result"] == {"degree": "inhomogeneous"}
        env = invoke_json(capsys, "nc", "reduce", "--n", "1", "--expr", expr)
        assert env["result"] == {"normal_form": "1", "degree": 0}

    def test_negative_power_of_a_reduced_scalar(self, capsys):
        # the sphere sum is 1 in the algebra, so reduce inverts it;
        # degree sees the free two-word sum and rejects the power
        expr = "(z0*z0s + z1*z1s)^-1"
        env = invoke_json(capsys, "nc", "reduce", "--n", "1", "--expr", expr)
        assert env["result"] == {"normal_form": "1", "degree": 0}
        code, _, err = invoke(capsys, "nc", "degree", "--n", "1", "--expr", expr)
        assert code == 1 and "non-scalar factor" in err


@pytest.fixture
def default_digit_limit():
    """CPython's default cap on int/str conversion, as in a fresh interpreter."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield  # the interpreter has no cap
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.mark.usefixtures("default_digit_limit")
class TestLongIntegers:
    def test_long_result_printed_in_full(self, capsys):
        env = invoke_json(capsys, "nc", "reduce", "--n", "1", "--expr", "2^14300")
        assert env["result"]["normal_form"] == str(2**14300)

    def test_long_coeff_read_in_full(self, capsys):
        digits = "9" * 5000
        env = invoke_json(capsys, "pair", "--n", "1", "--coeffs", f"{digits},0")
        assert env["result"]["class"]["coeffs"] == [digits, "0"]
        assert env["result"]["pairings"] == [digits, "0"]


# JSON values of every kind the envelopes use, and strings that need escapes
json_texts = st.text() | st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\u2028", "é", "\U0001f600"])
json_ints = st.integers() | st.integers().map(lambda k: k * 10**60)
json_values = st.recursive(
    st.none() | st.booleans() | json_ints | json_texts,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(json_texts, inner),
    max_leaves=40,
)

ENVELOPE_COMMANDS = [
    ("kbasis", "--n", "3"),
    ("kbasis", "--n", "1"),
    ("kclass", "line", "--n", "3", "--m", "4"),
    ("kclass", "assoc", "--n", "4", "--su", "2"),
    ("pair", "--n", "3", "--line", "2"),
    ("pair", "--n", "2", "--basis", "2"),
    ("restrict", "--n", "3", "--line", "2", "--target", "2"),
    ("nc", "reduce", "--n", "1", "--expr", "z1*z0"),
    ("nc", "degree", "--expr", "z0s*z0s"),
    ("nc", "degree", "--expr", "z0+z0s"),
    ("nc", "fuzz", "--n", "1", "--max-len", "3", "--trials", "20", "--seed", "1"),
    ("nc", "relations", "--n", "1"),
]


class TestEnvelope:
    def test_keys_and_version(self, capsys):
        env = invoke_json(capsys, "kbasis", "--n", "1")
        from qcpn import __version__

        assert set(env) == {"command", "params", "result", "version"}
        assert env["version"] == __version__

    @pytest.mark.parametrize("argv, params", [
        ("kbasis --n 2", {"n": 2, "format": "json"}),
        ("kclass line --n 3 --m -2", {"n": 3, "m": -2, "format": "json"}),
        ("kclass assoc --n 3 --su 2", {"n": 3, "su": 2}),
        ("pair --n 3 --line 0", {"n": 3, "line": 0}),
        ("pair --n 6 --basis 4", {"n": 6, "basis": 4}),
        ("pair --n 3 --coeffs 1,2", {"n": 3, "coeffs": "1,2"}),
        ("restrict --n 5 --line 2 --target 3", {"n": 5, "target": 3, "line": 2}),
        ("restrict --n 5 --coeffs 1,2 --target 3", {"n": 5, "target": 3, "coeffs": "1,2"}),
        ("nc reduce --n 1 --expr z0", {"n": 1, "expr": "z0"}),
        ("nc degree --expr z0", {"expr": "z0"}),
        ("nc degree --expr z0 --n 2", {"n": 2, "expr": "z0"}),
        ("nc fuzz --n 1 --max-len 3 --trials 2 --seed 5",
         {"n": 1, "max_len": 3, "trials": 2, "seed": 5}),
        ("nc relations --n 1", {"n": 1}),
    ])
    def test_params_echo_the_arguments(self, capsys, argv, params):
        env = invoke_json(capsys, *argv.split())
        assert env["command"] == argv.split(" --")[0]
        assert env["params"] == params

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = invoke(capsys, "nc", "fuzz", "--n", "2", "--max-len", "5",
                             "--trials", "100", "--seed", "42")
        _, second, _ = invoke(capsys, "nc", "fuzz", "--n", "2", "--max-len", "5",
                              "--trials", "100", "--seed", "42")
        assert first == second

    def test_large_envelope_written_in_pieces(self, monkeypatch):
        class Recorder(io.StringIO):
            writes = 0

            def write(self, text):
                Recorder.writes += 1
                return super().write(text)

        out = Recorder()
        monkeypatch.setattr(sys, "stdout", out)
        assert run(["kbasis", "--n", "60"]) == 0
        text = out.getvalue()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        assert Recorder.writes > 2  # more than one piece, then the newline

    def test_every_command_validates(self, capsys):
        for argv in ENVELOPE_COMMANDS:
            invoke_json(capsys, *argv)


class TestWriter:
    @given(json_values)
    def test_matches_json_dumps(self, value):
        out = io.StringIO()
        _write_json(value, out.write)
        assert out.getvalue() == json.dumps(value, sort_keys=True, indent=2)

    def test_reads_any_iterable_as_an_array(self):
        out = io.StringIO()
        _write_json({"b": map(str, [1, -2]), "a": iter([[], {}, (x for x in [None])])}, out.write)
        expected = {"b": ["1", "-2"], "a": [[], {}, [None]]}
        assert out.getvalue() == json.dumps(expected, sort_keys=True, indent=2)

    @pytest.mark.parametrize("argv", ENVELOPE_COMMANDS)
    def test_every_envelope_matches_json_dumps(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 0, err
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"

    def test_commands_leave_no_reference_cycle(self, capsys):
        commands = [argv for argv in ENVELOPE_COMMANDS if argv[0] in ("kbasis", "nc")]
        commands.append(("kbasis", "--n", "8"))
        for argv in commands:  # warm-up: imports and the cached parser
            run(list(argv))
        gc.collect()
        gc.disable()  # an automatic collection would hide a cycle
        try:
            leftover = []
            for argv in commands:
                assert run(list(argv)) == 0
                leftover.append(gc.collect())
        finally:
            gc.enable()
            capsys.readouterr()
        assert leftover == [0] * len(commands)

    def test_kbasis_memory_peak(self, monkeypatch):
        class Discard(io.TextIOBase):
            def write(self, text):
                return len(text)

        monkeypatch.setattr(sys, "stdout", Discard())
        assert run(["kbasis", "--n", "8"]) == 0  # imports and the cached parser
        gc.collect()
        tracemalloc.start()
        try:
            assert run(["kbasis", "--n", "200"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 2.2 MB envelope's strings are made one row at a time
        assert peak < 5 * 2**20


# sha256 of each parser's --help at 80 columns, as printed before every command
# was declared through one constructor; argparse's layout changed in 3.13
HELP_DIGESTS = [
    ("", "caf9d3476ec7f447a7e5188412b2da8ae667189eec3af9fa9c5514c67782a1bd"),
    ("kclass", "10e2f4ca135d7a3482acf842543be7c54bd7e1f77c4c6e268295ad3e33f8850c"),
    ("nc", "57566d62fa9793836bcd4feabd14f8e9d085c950ca0869c80d4e55e85edcceea"),
    ("kbasis", "317b85bdd6a1c91c1653be43a178c131043bec93585e43f29b9606f0d4e5daa8"),
    ("kclass line", "c95b75ee98b1ba6ed696452fea23899a962853c5eaf0042dfb2c6d09b31ec74c"),
    ("kclass assoc", "332ec27b8680211b0c7d159223aef0a88f1a9fbc1c26452506b55268fce29f29"),
    ("pair", "be96f8bfb369ad346fee20c231c614e3771c45cedbd83e84df70c9313e6edad9"),
    ("restrict", "6658fafcca04ab9bf5947d7cb78370572620e525880ee67830479e8b036f0b9a"),
    ("nc reduce", "d612313c2ab133f2422625e64d5c198ffc7c204221e97ee2ae8065612ac16f92"),
    ("nc degree", "1c401976b94c2ab252476296ca5d8e5871344d03f4aa0c435f77ea76c47a00e8"),
    ("nc fuzz", "036b510b2b5cdcbc950af4cd5ef9ba4378ca39b1de45654776174e4fad98c0aa"),
    ("nc relations", "db8cdf20bbaa063740c799d502a96d836d6f32abd76e936d73b1078f52d8ede5"),
]


class TestHelp:
    @pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse help layout differs")
    @pytest.mark.parametrize("path, digest", HELP_DIGESTS)
    def test_help_bytes_pinned(self, capsys, monkeypatch, path, digest):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            run([*path.split(), "--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out

    def test_version_line(self, capsys):
        from qcpn import __version__

        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"qcpn {__version__}\n"


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            run(["kbasis"])
        assert exc.value.code == 2

    def test_parser_built_once_per_process(self, capsys):
        sequence = [
            ["--help"],
            ["kbasis", "--n", "3"],
            ["--version"],
            ["kbasis"],
            ["kbasis", "--n", "0"],
            ["kclass", "line", "--help"],
            ["pair", "--n", "2", "--line", "-1"],
            ["nc", "reduce", "--n", "1", "--expr", "z0s*z0"],
            ["nc", "fuzz", "--n", "1", "--max-len", "3", "--trials", "-5", "--seed", "1"],
            ["restrict", "--n", "3", "--target", "1", "--coeffs", "1,2,3,4", "--format", "csv"],
            ["frobnicate"],
            ["kbasis", "--n", "3"],
        ]

        def outcome(argv):
            try:
                code = run(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        warm = [outcome(argv) for argv in sequence]
        assert build_parser() is build_parser()
        fresh = []
        for argv in sequence:
            build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert warm == fresh
        assert [code for code, _, _ in warm] == [0, 0, 0, 2, 1, 0, 0, 0, 1, 0, 2, 0]
        assert warm[1] == warm[-1]

    def test_module_entry_point(self):
        out = subprocess.run(
            [sys.executable, "-m", "qcpn", "kclass", "line", "--n", "1", "--m", "0"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert json.loads(out.stdout)["result"] == {"n": 1, "coeffs": ["1", "0"]}

    def test_closed_pipe_exits_without_a_traceback(self):
        # 6 MB of envelope: the writer is still writing when the reader goes
        proc = subprocess.Popen(
            [sys.executable, "-m", "qcpn", "kbasis", "--n", "300"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(10) == b'{\n  "comma'
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
        assert err == ""
