"""Static guards on the shape of ``src/pmconn``, read with ``ast``.

- No pmconn module imports a private name from another.  A ``_``-prefixed
  name is private to the module that defines it; a module that needs it
  belongs next to it.  Every relative or ``pmconn.``-absolute import is
  checked, at module level and inside functions.
- No pmconn module imports a name it never uses.  A name wanted elsewhere is
  imported from the module that defines it, not passed through another.
- Every top-level function and class method, public or ``_``-prefixed
  (dunder methods aside), is named somewhere in ``src/pmconn``, ``scripts/``
  or ``perfbench/`` outside its own definition, so that no library code is
  reached by tests alone and no helper outlives its last caller.  A function
  counts as named when it occurs as a name, an attribute, an import alias or
  a dotted string constant (``perfbench/tracing.py`` patches its targets by
  string).  A method is reached through an object, so it counts as named
  only as an attribute or a dotted string constant, not as a bare name such
  as a local variable.  The few names kept without such a caller are listed
  in ``UNCALLED``, each with its reason.
"""

import ast
import os
import re
from collections import Counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "pmconn")
MODULES = sorted(f for f in os.listdir(PKG) if f.endswith(".py"))

# names with no caller in the scanned trees, and why each stays
UNCALLED = {
    "de_rham_complex": "dense reference complex; oracle of "
                       "test_compute_H_matches_reference",
    "from_int": "the image of Z in W_n; oracle of x * c in test_witt and "
                "of acceptance_8 and acceptance_9",
    "mul_dlog": "oracle of the WittConnection.nabla tests and acceptance_8",
    "verify_pullback_iso": "gets its caller in the m = 1 equivalence suite "
                           "(ROADMAP item 4)",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _read(path):
    with open(path) as fh:
        return fh.read()


def _private_imports(source):
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("pmconn"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield node.lineno, node.module, alias.name


def _unused_imports(source):
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)):
                yield body[0].value


def _mentions(tree, method=False):
    """Every name, attribute, import alias and dotted-string part in tree;
    with method, only the attributes and dotted-string parts."""
    skip = {id(c) for c in _docstrings(tree)}
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not method:
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias) and not method:
            out[node.name.split(".")[-1]] += 1
            if node.asname:
                out[node.asname] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip and _DOTTED.fullmatch(node.value)):
            out.update(node.value.split("."))
    return out


def _definitions(tree):
    """(definition, is a method) for the top-level functions and class
    methods of a module, public and ``_``-prefixed alike; dunder methods are
    called by the language."""
    for node in tree.body:
        method = isinstance(node, ast.ClassDef)
        for d in node.body if method else [node]:
            if (isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (d.name.startswith("__")
                             and d.name.endswith("__"))):
                yield d, method


def _uncalled_in(trees, defining):
    """(label, name) of each definition in the trees of defining, a dict
    label -> tree, that nothing in trees names outside its own definition."""
    total = {method: sum((_mentions(t, method) for t in trees), Counter())
             for method in (False, True)}
    return [(label, d.name) for label, tree in defining.items()
            for d, method in _definitions(tree)
            if total[method][d.name] <= _mentions(d, method)[d.name]]


def _uncalled():
    """(module, name) of each definition in src/pmconn that nothing in
    src/pmconn, scripts/ or perfbench/ names outside its own definition."""
    trees = {}
    for top in (PKG, os.path.join(ROOT, "scripts"),
                os.path.join(ROOT, "perfbench")):
        for f in sorted(os.listdir(top)):
            if f.endswith(".py"):
                trees[os.path.join(top, f)] = ast.parse(
                    _read(os.path.join(top, f)))
    return _uncalled_in(trees.values(), {
        os.path.basename(path): tree for path, tree in trees.items()
        if os.path.dirname(path) == PKG})


@pytest.mark.parametrize("module", MODULES)
def test_no_private_imports_across_modules(module):
    found = list(_private_imports(_read(os.path.join(PKG, module))))
    assert not found, f"{module} imports private names: {found}"


def test_guard_sees_private_imports():
    src = ("from .frobenius import level_raise, _unit_in_span\n"
           "def f():\n    from pmconn.linalg import _axpy\n")
    assert [name for _, _, name in _private_imports(src)] == \
        ["_unit_in_span", "_axpy"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    found = _unused_imports(_read(os.path.join(PKG, module)))
    assert not found, f"{module} imports names it never uses: {found}"


def test_guard_sees_unused_imports():
    src = ("from __future__ import annotations\n"
           "import os.path\nimport itertools as it\n"
           "from .laurent import FrobLift, LaurentPoly\n"
           "def f(x: LaurentPoly):\n    return os.path.join(x)\n")
    assert _unused_imports(src) == [(3, "it"), (4, "FrobLift")]


def test_every_public_definition_has_a_caller():
    found = _uncalled()
    assert sorted(name for _, name in found) == sorted(UNCALLED), \
        f"names with no caller outside the tests: {found}"


def test_guard_sees_uncalled_definitions():
    tree = ast.parse(
        "def f(n):\n    return f(n - 1)\n"
        "def g():\n    '''f'''\n    return 1\n"
        "def _u(a, b):\n    return _u(a, b // 2)\n"
        "def _v(x):\n    return g() + x\n"
        "class A:\n    def __init__(self):\n        pass\n"
        "    def h(self):\n        return g()\n"
        "    def k(self):\n        return self.h() + _v(1)\n"
        "    def _w(self):\n        return 0\n"
        "    def scale(self):\n        return 0\n"
        "def q(scale):\n    return A().k() * scale\n"
        "T = ('A.k', 'the f', 'q')\n")
    # the method scale is named only as q's parameter, a bare name
    assert [name for _, name in _uncalled_in([tree], {"m": tree})] == \
        ["f", "_u", "_w", "scale"]
