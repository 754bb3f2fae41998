"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "coopjam"


def unused_imports(source: str):
    """(line, name) of each imported name that the module never reads;
    a name listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detector_sees_unused_and_exported_names():
    source = ("import numpy as np\nimport os.path\n"
              "from math import inf, pi\n"
              "__all__ = ['inf']\nprint(os.sep)\n")
    assert unused_imports(source) == [(1, "np"), (3, "pi")]


@pytest.mark.parametrize("path", sorted(LIBRARY.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
