"""Every name a library module imports, and every private name (``_x``) it
defines at module level, is read somewhere in that module; every public
module-level name is exported or read by the library, the demos or the
benchmark, and so is every public method or property of a module-level
class; README's Public API section names exactly the package's exports; no
module but ``tasks`` compares a value with a task's name; and no demo assigns
to an attribute of what it imports from the package.

No linter ships with the lab, so the check walks each module's syntax tree:
an import binds names, and so does a module-level def, class or assignment;
a name counts as read when it appears in a load context (``np`` in
``np.zeros``, ``Sequence`` in an annotation).  The package ``__init__``
re-exports its imports and is not checked for them.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rspo_lab"
DEMOS = SRC.parents[1] / "demos"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _loaded(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = _loaded(tree)
    return [name for name in bound if name not in read]


def _module_level_names(tree: ast.Module) -> list[str]:
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return bound


def unread_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    read = _loaded(tree)
    return [name for name in _module_level_names(tree) if name.startswith("_")
            and not name.startswith("__") and name not in read]


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nfrom dataclasses import dataclass, field\n"
              "@dataclass\nclass A:\n    x: np.ndarray\n")
    assert unused_imports(source) == ["field"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_an_unread_private_name():
    source = ("_USED, _SPARE = 1, 2\n_ALSO: int = 3\nPUBLIC = 4\n__all__ = []\n"
              "def _helper():\n    _local = 5\n    return _USED\n"
              "def _caller():\n    return _helper()\n"
              "class _Unused:\n    _attr = _ALSO\n")
    assert unread_private_names(source) == ["_SPARE", "_caller", "_Unused"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def task_name_branches(source: str, names) -> list[int]:
    """Lines of the comparisons in ``source`` with one of ``names`` as a
    string constant on either side (``cfg.task == "arith"``, ``kind in
    ("arith", "sudoku4")``)."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Compare)
                  and any(isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
                          and leaf.value in names
                          for side in (node.left, *node.comparators) for leaf in ast.walk(side)))


def test_finds_a_task_name_branch():
    source = ('task = "arith"\nif cfg.task == "arith":\n    pass\n'
              'ok = kind in ("sudoku4", "other")\nx = "countdown" != y\n'
              'z = mode == "binary"\nw = {"arith": 1}[task]\n')
    assert task_name_branches(source, ["arith", "countdown", "sudoku4"]) == [2, 4, 5]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "tasks.py"],
                         ids=lambda p: p.name)
def test_no_task_name_branches_outside_tasks(path):
    # what a task is lives in its tasks.TASKS record, not in branches on its name
    from rspo_lab.tasks import TASKS

    assert task_name_branches(path.read_text(encoding="utf-8"), TASKS) == []


def package_imports(source: str) -> set[str]:
    """The package modules ``source`` imports, at any depth and in any form
    (``from .objectives import x``, ``from . import objectives``,
    ``import rspo_lab.objectives``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "rspo_lab"):
            inner = (node.module or "").removeprefix("rspo_lab").lstrip(".")
            found |= {inner.split(".")[0]} if inner else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("rspo_lab.")}
    return found


def test_finds_a_package_import():
    source = ("import numpy as np\nfrom .sequences import Sequence\n"
              "def f():\n    from . import objectives, score\n"
              "    import rspo_lab.mdm\n    from rspo_lab.harness import RunConfig\n")
    assert package_imports(source) == {"sequences", "objectives", "score", "mdm", "harness"}


def test_oracle_imports_only_sequences():
    # the oracles are references for the code they check, so they run none
    # of it: a quad_gradient built on objectives.weighted_gradient fails here
    source = (SRC / "oracle.py").read_text(encoding="utf-8")
    assert package_imports(source) == {"sequences"}


def _root_name(node: ast.expr) -> str | None:
    """``a`` for ``a.b.c``; None when the chain does not start at a name."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def package_attribute_assignments(source: str) -> list[int]:
    """Lines of ``source`` that assign to an attribute of a name bound by
    importing from ``rspo_lab``, at any depth (``denoiser.Rows = spy``,
    ``rspo_lab.mdm.decode = spy``, ``decode.calls += 1``)."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rspo_lab":
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            bound |= {alias.asname or "rspo_lab" for alias in node.names
                      if alias.name.split(".")[0] == "rspo_lab"}
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:
            continue
        if any(isinstance(leaf, ast.Attribute) and _root_name(leaf) in bound
               for target in targets for leaf in ast.walk(target)):
            lines.add(node.lineno)
    return sorted(lines)


def test_finds_a_package_attribute_assignment():
    source = ("import numpy as np\nimport rspo_lab.mdm\nfrom rspo_lab import denoiser\n"
              "from rspo_lab.mdm import decode as dec\nnp.x = 1\n"
              "def patch():\n    denoiser.Rows = None\nrspo_lab.mdm.decode = None\n"
              "dec.calls += 1\nrows = denoiser.Rows\nrows.x, a = 2, 3\n")
    assert package_attribute_assignments(source) == [7, 8, 9]


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demos_patch_nothing(path):
    # a demo watches the package through what its calls return, not by
    # replacing the package's parts
    assert package_attribute_assignments(path.read_text(encoding="utf-8")) == []


def public_api_section() -> str:
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]


def test_readme_public_api_matches_the_exports():
    # every export is named in the section, and every call it shows is an export
    import rspo_lab

    section = public_api_section()
    assert [name for name in rspo_lab.__all__ if f"`{name}`" not in section
            and f"`{name}(" not in section] == []
    assert [name for name in re.findall(r"`(\w+)\(", section)
            if name not in rspo_lab.__all__] == []


def unread_public_names(modules: dict[str, str], readers: list[str],
                        exports: list[str]) -> list[str]:
    """``module.name`` for each public module-level name of ``modules`` (name
    to source) that is not in ``exports`` and is not read, as a name or as an
    attribute (``harness.read_json_object``), in any of ``readers``; then
    ``module.Class.name`` for each public method or property of a
    module-level class that no reader reads as an attribute."""
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for module, source in modules.items():
        tree = ast.parse(source)
        unread += [f"{module}.{name}" for name in _module_level_names(tree)
                   if not name.startswith("_") and name not in exports and name not in read]
        unread += [f"{module}.{cls.name}.{node.name}" for cls in tree.body
                   if isinstance(cls, ast.ClassDef) for node in cls.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and not node.name.startswith("_") and node.name not in read]
    return unread


#: Public names that nothing outside the tests reads yet, each with the
#: ROADMAP item it waits on.
UNREAD_PUBLIC_ALLOWED = {
    "harness.load_checkpoint": "items 3 and 8: resume and warm start from a checkpoint",
    "tasks.split_by_solution": "item 4: held-out splits by solution",
    "tasks.sudoku4_partial_credit": "item 4: `eval_partial`",
}


def test_finds_an_unread_public_name():
    modules = {"lib": "A = 1\ndef used():\n    return A\ndef spare():\n    pass\n"
                      "def exported():\n    pass\nclass _Private:\n    pass\n"}
    readers = [modules["lib"], "import lib\nlib.used()\n"]
    assert unread_public_names(modules, readers, ["exported"]) == ["lib.spare"]


def test_finds_an_unread_public_method():
    modules = {"lib": "class A:\n    def used(self):\n        return self.helper()\n"
                      "    def helper(self):\n        pass\n"
                      "    @property\n    def spare(self):\n        pass\n"
                      "    def _private(self):\n        pass\n"
                      "    def __len__(self):\n        return 0\n"
                      "class _Hidden:\n    def unread(self):\n        pass\n"}
    readers = [modules["lib"], "import lib\nlib.A().used()\n"]
    assert unread_public_names(modules, readers, ["A"]) == ["lib.A.spare", "lib._Hidden.unread"]


def test_every_public_name_is_exported_or_read():
    # the oracles are the tests' independent references, so they are not scanned
    import rspo_lab

    root = SRC.parents[1]
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES if p.name != "oracle.py"}
    readers = [p.read_text(encoding="utf-8") for folder in ("src", "demos", "perfbench")
               for p in sorted((root / folder).rglob("*.py"))]
    unread = unread_public_names(modules, readers, rspo_lab.__all__)
    assert sorted(unread) == sorted(UNREAD_PUBLIC_ALLOWED)
