"""The two scripts, run in-process through their ``run(parse_args(...))``."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def certify_range():
    return load_script("certify_range")


@pytest.fixture(scope="module")
def fuzz_campaign():
    return load_script("fuzz_campaign")


class TestCertifyRange:
    @pytest.mark.parametrize("extra", [[], ["--skip-nesting"]])
    def test_range_certifies(self, certify_range, capsys, extra):
        code = certify_range.run(certify_range.parse_args(["--max-n", "12", *extra]))
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert sum(" verified " in line for line in lines) == 12
        assert "certified 12/12 spaces" in lines[-1] and lines[-1].endswith(": OK")

    def test_failed_certificate_is_reported(self, certify_range, capsys, monkeypatch):
        def broken(n):
            raise ArithmeticError("certificate failed back-multiplication check")

        monkeypatch.setattr(certify_range, "certify_basis", broken)
        code = certify_range.run(certify_range.parse_args(["--max-n", "3"]))
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert lines[0] == "n=  1  FAIL  certificate failed back-multiplication check"
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
        assert lines[0].startswith("n=1  exhaustive  FAIL  exceeded 1 rewrite steps")
        assert lines[-1].endswith(": 2 report(s) with mismatches")
