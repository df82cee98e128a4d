"""Every name a package module imports is used in that module, every
module-level definition of the package is read somewhere in the package,
and every parameter of a package function is read in its body."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "affectmtl"


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of source that nothing else reads.

    A name listed in __all__ counts as used: the module re-exports it.
    """
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_detector_finds_dead_imports():
    source = (
        "import os.path\nimport numpy as np\nfrom x import y, z as w\n"
        "__all__ = ['y']\nnp.zeros(1)\n"
    )
    assert unused_imports(source) == ["os", "w"]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name
)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def defined_names(source: str) -> list[str]:
    """Module-level functions, classes and constants that source defines."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in names if name != "__all__"]


def referenced_names(source: str) -> set[str]:
    """Names source reads: loaded names, attribute names and __all__ entries.

    A definition is not a read, so a name only defined here is absent.
    """
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """module.name for each module-level definition no module reads.

    Reads are matched by name across the whole package, so a definition
    that only tests (or only outside tooling) call is reported.
    """
    used = set().union(*(referenced_names(s) for s in sources.values()))
    return sorted(
        f"{module}.{name}"
        for module, source in sources.items()
        for name in defined_names(source)
        if name not in used
    )


def test_detector_finds_unreferenced_definitions():
    sources = {
        "a": (
            "import numpy as np\nLIMIT = 3\nUNUSED = 4\n__all__ = ['exported']\n"
            "def exported(): pass\ndef helper(): return LIMIT\n"
            "class Box:\n    def wrap(self): pass\n"
        ),
        "b": "from .a import helper, Box\nhelper()\nBox.wrap\n",
        "c": "def only_attr(): pass\nclass Dead: pass\n",
        "d": "import c\nc.only_attr()\n",
    }
    assert unreferenced_definitions(sources) == ["a.UNUSED", "c.Dead"]


def test_package_defines_nothing_only_tests_use():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unreferenced_definitions(sources) == []


def unread_parameters(source: str) -> list[str]:
    """function.parameter for each parameter that its function never reads.

    A read anywhere in the function counts, in a nested function or lambda
    too; methods are named Class.method.
    """
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                params += [a for a in (args.vararg, args.kwarg) if a is not None]
                read = {
                    n.id
                    for n in ast.walk(child)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                found.extend(
                    f"{prefix}{child.name}.{a.arg}" for a in params if a.arg not in read
                )
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


# Parameters kept unread on purpose, each with its reason.
UNREAD_PARAMETERS = {
    "trainer.run_training.workers": "accepted and ignored: the benchmark harness "
    "(perfbench/run.py) passes workers=1",
}


def test_detector_finds_unread_parameters():
    source = (
        "def f(a, b, *args, c, **kw):\n    return a + kw['x']\n"
        "def g(x):\n    return lambda: x\n"
        "class K:\n    def m(self, y):\n        def inner(z):\n            return self\n"
        "        return inner\n"
        "if True:\n    def h(u):\n        pass\n"
    )
    assert unread_parameters(source) == [
        "f.b", "f.c", "f.args", "K.m.y", "K.m.inner.z", "h.u",
    ]


def test_package_reads_every_parameter():
    found = sorted(
        f"{path.stem}.{name}"
        for path in PACKAGE.glob("*.py")
        for name in unread_parameters(path.read_text(encoding="utf-8"))
    )
    assert found == sorted(UNREAD_PARAMETERS)
