"""No pmconn module imports a private name from another.

A ``_``-prefixed name is private to the module that defines it; a module that
needs it belongs next to it.  Each ``src/pmconn/*.py`` is parsed with ``ast``
and every relative or ``pmconn.``-absolute import is checked, at module level
and inside functions.
"""

import ast
import os

import pytest

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "pmconn")
MODULES = sorted(f for f in os.listdir(PKG) if f.endswith(".py"))


def _private_imports(source):
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("pmconn"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield node.lineno, node.module, alias.name


@pytest.mark.parametrize("module", MODULES)
def test_no_private_imports_across_modules(module):
    with open(os.path.join(PKG, module)) as fh:
        found = list(_private_imports(fh.read()))
    assert not found, f"{module} imports private names: {found}"


def test_guard_sees_private_imports():
    src = ("from .frobenius import level_raise, _vec_to_matrix\n"
           "def f():\n    from pmconn.linalg import _axpy\n")
    assert [name for _, _, name in _private_imports(src)] == \
        ["_vec_to_matrix", "_axpy"]
