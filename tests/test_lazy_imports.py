"""Each CLI command, and ``import qcpn``, loads only the modules it uses.

Every cold start compiles the modules it imports, so a command that loads
code it never runs pays for it on every invocation.  Each case runs in a
fresh interpreter and lists the modules loaded after it started.  The
package's record classes are written out by hand, since importing
``dataclasses`` pulls in ``inspect``; the last tests pin their value
semantics.
"""

import copy
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import qcpn
from qcpn.basis import BasisCertificate
from qcpn.kclasses import line_class
from qcpn.rings import LaurentQ, TruncatedPoly
from qcpn.sphere import NCPoly, ReductionReport

SRC = str(Path(__file__).resolve().parent.parent / "src")

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
argv = json.loads(sys.argv[2])
if argv is None:
    import qcpn
else:
    from qcpn import cli
    assert cli.run(argv) == 0
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def loaded_by(argv) -> set:
    out = subprocess.run(
        [sys.executable, "-c", PROBE, SRC, json.dumps(argv)], capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.splitlines()[-1]))


@pytest.mark.parametrize(
    "argv, used, unused",
    [
        (
            ["kbasis", "--n", "8"],
            {"qcpn.basis", "qcpn.corep", "qcpn.kclasses", "qcpn.rings"},
            {"qcpn.sphere", "qcpn.ncparse", "qcpn.pairing", "dataclasses"},
        ),
        (
            ["nc", "relations", "--n", "1"],
            {"qcpn.sphere", "qcpn.rings"},
            {"qcpn.basis", "qcpn.corep", "qcpn.kclasses", "qcpn.pairing", "qcpn.ncparse",
             "dataclasses"},
        ),
    ],
)
def test_command_loads_only_what_it_runs(argv, used, unused):
    loaded = loaded_by(argv)
    assert used <= loaded
    assert unused & loaded == set()


def test_bare_import_loads_no_submodule():
    loaded = loaded_by(None)
    assert "qcpn" in loaded
    assert sorted(name for name in loaded if name.startswith("qcpn.")) == []


def test_public_names_resolve_on_first_use():
    code = """
import sys
sys.path.insert(0, sys.argv[1])
import qcpn
assert set(qcpn.__all__) <= set(dir(qcpn))
missing = [name for name in qcpn.__all__ if not hasattr(qcpn, name)]
assert missing == [], missing
from qcpn.basis import certify_basis
assert qcpn.certify_basis is certify_basis
scope = {}
exec("from qcpn import *", scope)
assert set(qcpn.__all__) <= set(scope), set(qcpn.__all__) - set(scope)
try:
    qcpn.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'qcpn' has no attribute 'no_such_name'"
else:
    raise AssertionError("no AttributeError")
"""
    out = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_public_surface_is_pinned():
    # adding or dropping a public name must edit this list on purpose
    assert sorted(qcpn.__all__) == [
        "ALL_RULES", "BasisCertificate", "Generator", "KClass", "LaurentQ", "NCPoly",
        "NCSyntaxError", "NotInvertibleError", "ReductionReport",
        "StepBudgetExceeded", "TruncatedPoly", "TruncationMismatchError", "UnimodularityError",
        "__version__", "associated_class", "basis_class",
        "basis_class_closed_form", "basis_matrix", "certify_basis", "defining_relations",
        "exhaustive_pair_check", "fundamental_decomposition", "fundamental_weights",
        "fuzz_confluence", "index_pairing", "line_class", "nesting_check", "normal_form",
        "pairing_matrix", "pairing_vector", "parse_expr", "project_to_s3", "restrict",
        "satisfies_determinant_condition", "sphere_sum", "unimodular_inverse",
        "verify_defining_relations",
    ]


@pytest.mark.parametrize(
    "make, field, other, text",
    [
        (
            lambda: BasisCertificate(n=0, matrix=((1,),), det=1, inverse=((1,),)),
            "det",
            BasisCertificate(0, ((-1,),), -1, ((-1,),)),
            "BasisCertificate(n=0, matrix=((1,),), det=1, inverse=((1,),))",
        ),
        (lambda: LaurentQ({1: 2}), "_terms", LaurentQ({1: 3}), "LaurentQ({1: 2})"),
        (
            lambda: TruncatedPoly(1, (1, 2)),
            "coeffs",
            TruncatedPoly(1, (1, 3)),
            "TruncatedPoly(1, (1, 2))",
        ),
        (lambda: NCPoly.gen(1, 0), "_terms", NCPoly.gen(1, 1), "NCPoly(n=1, 'z0')"),
    ],
)
def test_frozen_records(make, field, other, text):
    a, b = make(), make()
    assert a == b and hash(a) == hash(b) and a != other
    assert repr(a) == text
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    assert a == b == pickle.loads(pickle.dumps(a)) == copy.deepcopy(a)


@pytest.mark.parametrize(
    "value",
    [LaurentQ({1: 2}), line_class(3, 2), NCPoly.gen(1, 0)],
)
def test_values_copy_and_refuse_every_assignment(value):
    assert copy.copy(value) == value
    for field in value.__slots__:
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            setattr(value, field, None)


@pytest.mark.parametrize(
    "value",
    [LaurentQ({1: 2}), line_class(3, 2), NCPoly.gen(1, 0)],
)
def test_values_refuse_every_deletion(value):
    text = repr(value)
    for field in value.__slots__:
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            delattr(value, field)
    assert repr(value) == text and copy.copy(value) == value


def test_reduction_report_is_a_mutable_record():
    report = ReductionReport()
    assert report == ReductionReport(0, 0, []) and report != ReductionReport(words=1)
    report.words += 2
    report.mismatches.append(("w", "a", "b"))
    assert ReductionReport().mismatches == []  # no list shared between reports
    assert repr(report) == "ReductionReport(words=2, max_steps=0, mismatches=[('w', 'a', 'b')])"
    with pytest.raises(TypeError):
        hash(report)
    assert pickle.loads(pickle.dumps(report)) == report == copy.deepcopy(report)
