"""No module of the library or of scripts/ imports a name it never reads.

``__init__.py`` files are exempt: their imports are the package's
re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for path in [*(ROOT / "src" / "twospec").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    if path.name != "__init__.py"
)


def unused_imports(source):
    """Names bound by the imports of ``source`` that nothing else reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_an_unread_import_is_found():
    source = "from .kernel import REAL, setting_of\nimport os.path\nsetting_of(0)\n"
    assert unused_imports(source) == [(1, "REAL"), (2, "os")]
