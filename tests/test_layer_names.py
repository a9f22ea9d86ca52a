"""The names the benchmark tracer wraps, and the package's public names, exist.

``perfbench/layers.py`` rebinds public functions and operators of ``qcpn``
by name; a renamed or deleted one breaks every traced run.  ``install``
rebinds module attributes, so it runs in a separate interpreter.
"""

import subprocess
import sys
from pathlib import Path

import qcpn

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import layers
layers.install(layers.Tracer(), [])
"""


def test_traced_names_and_public_api_resolve():
    out = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert [name for name in qcpn.__all__ if not hasattr(qcpn, name)] == []
