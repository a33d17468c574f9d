"""Every name a module of the package imports is used in that module, and
the sampled checkers run without loading ``numpy.random``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "isoperim"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


# __init__ imports only to re-export
@pytest.mark.parametrize(
    "path",
    sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_sampled_pairs_load_no_numpy_random():
    # the seeded draws read random.Random's own words; numpy.random costs
    # about 10 ms and 0.7 MB on first import, so none of the package may
    # load it.  A fresh interpreter, since the tests import it themselves
    code = ("import sys\n"
            "from isoperim import verify\n"
            "assert verify.run('coset_deficiency', max_order=9)[0].ok\n"
            "print('numpy.random' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(_PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
