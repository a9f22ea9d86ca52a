"""Tests of the benchmark's own checks: each accepts the program's real
output and rejects it after one small perturbation.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the repository's test suite (``testpaths = ["tests"]``, and
the file name does not match ``test_*.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from qcpn import cli  # noqa: E402


def qcpn(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(list(argv)) == 0
    return out.getvalue()


def edit(text: str, path: list, value) -> str:
    """The envelope with ``result[path...]`` replaced."""
    env = json.loads(text)
    node = env["result"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(env)


def rejects(check, text: str) -> None:
    with pytest.raises(checks.CheckError):
        check(text)


def test_kbasis_rejects_one_wrong_matrix_entry():
    out = qcpn("kbasis", "--n", "9")
    checks.check_kbasis(out, 9)
    entry = json.loads(out)["result"]["matrix"][5][7]
    rejects(lambda t: checks.check_kbasis(t, 9), edit(out, ["matrix", 5, 7], str(int(entry) + 1)))


def test_kbasis_rejects_one_wrong_inverse_entry_and_det():
    out = qcpn("kbasis", "--n", "9")
    entry = json.loads(out)["result"]["inverse"][3][8]
    rejects(lambda t: checks.check_kbasis(t, 9), edit(out, ["inverse", 3, 8], str(int(entry) - 1)))
    rejects(lambda t: checks.check_kbasis(t, 9), edit(out, ["det"], "2"))


@pytest.mark.parametrize("m", [7, -7])
def test_pair_rejects_one_wrong_pairing(m):
    out = qcpn("pair", "--n", "12", "--line", str(m))
    checks.check_pair_line(out, 12, m)
    value = json.loads(out)["result"]["pairings"][4]
    rejects(lambda t: checks.check_pair_line(t, 12, m), edit(out, ["pairings", 4], str(int(value) + 1)))


def test_z0s_z0_rejects_one_wrong_q_power():
    k = 5
    out = qcpn("nc", "reduce", "--n", "1", "--expr", f"z0s^{k}*z0^{k}")
    check = workloads._z0s_z0_check(k)
    check(out)
    rendered = json.loads(out)["result"]["normal_form"]
    assert "q^-6" in rendered
    rejects(check, edit(out, ["normal_form"], rendered.replace("q^-6", "q^-8", 1)))


def test_sphere_sum_and_z0_power_reject_other_output():
    for item, wrong in [(workloads._sphere_sum_item(1, 2), "q^-2"), (workloads._z0_power_item(7), "z0*z0*z0*z0*z0*z0")]:
        item.run(LiveRunner())
        with pytest.raises(checks.CheckError):
            item.run(LiveRunner(lambda out: edit(out, ["normal_form"], wrong)))


def test_normal_word_predicate():
    word = lambda text: list(checks.parse_normal_form(text))[0]
    assert checks.is_normal_word(word("z2s*z1s*z1s*z1*z2"))
    assert not checks.is_normal_word(word("z1*z2s"))  # unstarred before starred
    assert not checks.is_normal_word(word("z1s*z2s"))  # starred ascending
    assert not checks.is_normal_word(word("z2*z1"))  # unstarred descending
    assert not checks.is_normal_word(word("z0s*z0"))  # the R4 pair


def test_random_products_pass_and_reject_wrong_coefficient():
    item = workloads._product_pair_item(random.Random(3))
    item.run(LiveRunner())
    # a q = 1 specialisation that is off by one coefficient
    tampered = LiveRunner(lambda out: edit(out, ["normal_form"], json.loads(out)["result"]["normal_form"] + " + z1"))
    with pytest.raises(checks.CheckError):
        item.run(tampered)


def test_fuzz_and_relations_reject_wrong_word_count():
    out = qcpn("nc", "fuzz", "--n", "2", "--max-len", "4", "--trials", "50", "--seed", "1")
    checks.check_report(checks.envelope(out, "nc fuzz"), 50, "fuzz")
    with pytest.raises(checks.CheckError):
        checks.check_report(checks.envelope(edit(out, ["words"], 49), "nc fuzz"), 50, "fuzz")
    check = workloads._relations_check(3)
    out = qcpn("nc", "relations", "--n", "3")
    check(out)
    rejects(check, edit(out, ["words"], json.loads(out)["result"]["words"] - 2))


def test_scripts_checks_reject_wrong_reports():
    cli_module, scripts = run.load_program()
    runner = run.Runner(cli_module, scripts)
    out = runner.script("fuzz_campaign", ["--max-n", "2", "--trials", "20", "--exhaustive-max-n", "1"])
    checks.check_campaign(out, 2, 1, 20)
    rejects(lambda t: checks.check_campaign(t, 2, 1, 20), re.sub(r"exhaustive\s+16 words", "exhaustive     15 words", out))
    out = runner.script("certify_range", ["--max-n", "5"])
    checks.check_certify_range(out, 5)
    rejects(lambda t: checks.check_certify_range(t, 5), out.replace("n=  3  det=+1", "n=  3  det=+2"))


class LiveRunner:
    """Runs the real CLI, optionally altering every output."""

    def __init__(self, alter=lambda out: out):
        self.alter = alter

    def cli(self, argv):
        return self.alter(qcpn(*argv))
