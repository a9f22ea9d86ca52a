"""CLI envelopes, schema conformance, determinism, and exit codes."""

import io
import json
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from qcpn.basis import certify_basis
from qcpn.cli import run
from qcpn.ncparse import MAX_NESTING


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
        assert env["result"]["inverse"] == cert.as_dict()["inverse"]

    def test_csv_is_matrix_only(self, capsys):
        code, out, _ = invoke(capsys, "kbasis", "--n", "2", "--format", "csv")
        assert code == 0
        assert out == "1,0,0\n0,-1,0\n0,0,1\n"

    def test_domain_error_exits_one(self, capsys):
        code, out, err = invoke(capsys, "kbasis", "--n", "0")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


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

    def test_relations_report(self, capsys):
        env = invoke_json(capsys, "nc", "relations", "--n", "2")
        assert env["result"]["passed"] is True
        assert env["result"]["mismatches"] == []

    def test_syntax_error_exits_one(self, capsys):
        code, _, err = invoke(capsys, "nc", "reduce", "--n", "1", "--expr", "z0 +")
        assert code == 1 and "offset" in err

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


class TestEnvelope:
    def test_keys_and_version(self, capsys):
        env = invoke_json(capsys, "kbasis", "--n", "1")
        from qcpn import __version__

        assert set(env) == {"command", "params", "result", "version"}
        assert env["version"] == __version__

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
        invocations = [
            ("kbasis", "--n", "3"),
            ("kclass", "line", "--n", "3", "--m", "4"),
            ("kclass", "assoc", "--n", "4", "--su", "2"),
            ("pair", "--n", "3", "--line", "2"),
            ("restrict", "--n", "3", "--line", "2", "--target", "2"),
            ("nc", "reduce", "--n", "1", "--expr", "z1*z0"),
            ("nc", "degree", "--expr", "z0s*z0s"),
            ("nc", "fuzz", "--n", "1", "--max-len", "3", "--trials", "20",
             "--seed", "1"),
            ("nc", "relations", "--n", "1"),
        ]
        for argv in invocations:
            invoke_json(capsys, *argv)


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            run(["kbasis"])
        assert exc.value.code == 2

    def test_module_entry_point(self):
        out = subprocess.run(
            [sys.executable, "-m", "qcpn", "kclass", "line", "--n", "1", "--m", "0"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert json.loads(out.stdout)["result"] == {"n": 1, "coeffs": ["1", "0"]}
