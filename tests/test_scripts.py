"""The two scripts, run in-process through their ``run(parse_args(...))``."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def certify_range():
    return load_script("certify_range")


@pytest.fixture(scope="module")
def fuzz_campaign():
    return load_script("fuzz_campaign")


class TestCertifyRange:
    def test_range_certifies(self, certify_range, capsys):
        code = certify_range.run(certify_range.parse_args(["--max-n", "12"]))
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert sum(" verified " in line for line in lines) == 12
        assert "certified 12/12 spaces" in lines[-1] and lines[-1].endswith(": OK")

    def test_failed_certificate_is_reported(self, certify_range, capsys, monkeypatch):
        def broken(n):
            raise ArithmeticError("certificate failed the closed-form entry check")

        monkeypatch.setattr(certify_range, "certify_basis", broken)
        code = certify_range.run(certify_range.parse_args(["--max-n", "3"]))
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert lines[0] == "n=  1  FAIL  certificate failed the closed-form entry check"
        assert "0/3 spaces" in lines[-1] and lines[-1].endswith(": 3 FAILED")

    def test_broken_nesting_is_reported(self, certify_range, capsys, monkeypatch):
        real = certify_range.certify_basis

        def flipped(n):
            cert = real(n)
            if n != 3:
                return cert
            corner = (-cert.matrix[0][0],) + cert.matrix[0][1:]
            return type(cert)(cert.n, (corner,) + cert.matrix[1:], cert.det, cert.inverse)

        monkeypatch.setattr(certify_range, "certify_basis", flipped)
        code = certify_range.run(certify_range.parse_args(["--max-n", "4"]))
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert lines[2] == "n=  3  FAIL  matrix for n=2 is not its leading block"
        assert lines[3] == "n=  4  FAIL  matrix for n=3 is not its leading block"

    def test_max_n_above_budget_is_a_usage_error(self, certify_range, capsys):
        assert certify_range.parse_args(["--max-n", "400"]).max_n == 400
        with pytest.raises(SystemExit) as exc:
            certify_range.parse_args(["--max-n", "401"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: --max-n must be at most 400, got 401\n"
        )


class TestFuzzCampaign:
    def test_clean_campaign(self, fuzz_campaign, capsys):
        argv = ["--max-n", "1", "--trials", "50", "--exhaustive-max-n", "1"]
        code = fuzz_campaign.run(fuzz_campaign.parse_args(argv))
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith(": all strategies agree")

    def test_step_cap_reaches_exhaustive_sweep(self, fuzz_campaign, capsys):
        argv = ["--max-n", "1", "--trials", "5", "--exhaustive-max-n", "1", "--step-cap", "1"]
        code = fuzz_campaign.run(fuzz_campaign.parse_args(argv))
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert lines[0].startswith("n=1  exhaustive") and lines[0].endswith("MISMATCH")
        assert lines[1].startswith("    z0*z0s:  leftmost -> step budget exceeded")
        assert lines[-1].endswith(": 2 report(s) with mismatches")

    def test_invalid_env_cap_is_an_error(self, fuzz_campaign, capsys, monkeypatch):
        monkeypatch.setenv("QCPN_STEP_CAP", "abc")
        argv = ["--max-n", "1", "--trials", "5", "--exhaustive-max-n", "1"]
        assert fuzz_campaign.run(fuzz_campaign.parse_args(argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: QCPN_STEP_CAP must be a positive integer, got 'abc'\n"

    @pytest.mark.parametrize("max_len", ["1", "0"])
    def test_short_max_len_is_a_usage_error(self, fuzz_campaign, capsys, max_len):
        with pytest.raises(SystemExit) as exc:
            fuzz_campaign.parse_args(["--max-len", max_len])
        assert exc.value.code == 2
        assert "--max-len >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_step_cap_below_one_is_a_usage_error(self, fuzz_campaign, capsys, cap):
        with pytest.raises(SystemExit) as exc:
            fuzz_campaign.parse_args(["--step-cap", cap])
        assert exc.value.code == 2
        assert "--step-cap >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, bound", [("--max-n", 200), ("--max-len", 12)])
    def test_size_above_budget_is_a_usage_error(self, fuzz_campaign, capsys, flag, bound):
        fuzz_campaign.parse_args([flag, str(bound)])  # the caps of qcpn nc fuzz themselves pass
        with pytest.raises(SystemExit) as exc:
            fuzz_campaign.parse_args([flag, str(bound + 1)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: {flag} must be at most {bound}, got {bound + 1}\n"
        )
