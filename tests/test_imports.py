"""Every name a module of the package imports is read somewhere in that module,
every private module-level name is read somewhere in the package, and every
public one by production code (the package's modules, scripts and perfbench) or
the acceptance criteria. numpy is imported by the first count, not by
``import toricount``.

No linter ships with the project, so these are the unused-import and dead-helper
checks: ast scans of src/toricount/*.py. A name counts as read if it appears as
a loaded identifier, inside a string annotation, or in the module's ``__all__``;
a module-level name also counts as read as an attribute (``count._toric_counts``).
The public scan drops the package's ``__all__`` first, so exporting a name does
not keep it alive.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "toricount"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every module-level or nested import, __future__ aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def assigns_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def read_names(tree: ast.Module) -> set[str]:
    read = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif assigns_all(node):
            read.update(ast.literal_eval(node.value))
    for ann in annotations:
        for sub in ast.walk(ann) if ann is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                read |= read_names(ast.parse(sub.value, mode="eval"))
    return read


def unused_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = read_names(tree)
    return [f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_sees_unused_and_annotation_only_names():
    tree = ast.parse(
        "import os\nfrom typing import Iterator\nimport json as j\n"
        "def f(x: 'Iterator[int]') -> None:\n    return j.dumps(x)\n"
    )
    assert set(imported_names(tree)) - read_names(tree) == {"os"}


def definitions(tree: ast.Module, public: bool = False) -> dict[str, int]:
    """Private (or public) function, class or constant name -> index of its top-level statement."""
    defs = {}
    for k, node in enumerate(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        defs.update(
            (name, k) for name in targets
            if name.startswith("_") != public and not name.startswith("__")
        )
    return defs


def read_or_attribute_names(tree: ast.Module) -> set[str]:
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return read_names(tree) | attributes


def unread_names(
    sources: dict[str, str], readers: dict[str, str] | None = None, public: bool = False
) -> list[str]:
    """Private (or public) module-level names of `sources` that no statement but their
    own definition reads, in `sources` or in `readers`."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    outside = [read_or_attribute_names(ast.parse(text)) for text in (readers or {}).values()]
    unread = []
    for name, tree in trees.items():
        others = [read_or_attribute_names(t) for other, t in trees.items() if other != name]
        elsewhere = set().union(*others, *outside)
        for defined, k in definitions(tree, public).items():
            rest = ast.Module(body=tree.body[:k] + tree.body[k + 1:], type_ignores=[])
            if defined not in elsewhere | read_or_attribute_names(rest):
                unread.append(f"{name}: {defined}")
    return unread


def package_sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def without_all(text: str) -> str:
    """The module `text` with its ``__all__`` assignment removed."""
    tree = ast.parse(text)
    tree.body = [node for node in tree.body if not assigns_all(node)]
    return ast.unparse(tree)


def test_no_unread_private_names():
    assert unread_names(package_sources()) == []


def test_no_unread_public_names():
    # the package's __init__ is a source, but a name in its __all__ does not count as read
    sources = package_sources()
    sources["__init__.py"] = without_all(sources["__init__.py"])
    paths = [
        *sorted((ROOT / "scripts").glob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
    ]
    readers = {str(path): path.read_text(encoding="utf-8") for path in paths}
    assert unread_names(sources, readers, public=True) == []


def test_private_scan_sees_dead_and_self_recursive_helpers():
    sources = {
        "a.py": "_CAP = 3\n_LIVE = 4\ndef _dead(n):\n    return _dead(n - 1) + _CAP\n",
        "b.py": "from . import a\nx = a._LIVE\nclass _Unused:\n    pass\n",
    }
    assert unread_names(sources) == ["a.py: _dead", "b.py: _Unused"]


def test_public_scan_sees_names_only_their_own_definition_reads():
    sources = {
        "__init__.py": "from .a import api\n__all__ = ['api']\n",
        "a.py": "def api():\n    return helper()\ndef helper():\n    return 1\n"
        "def dead(n):\n    return dead(n - 1)\nTABLE = 3\nBENCH = 4\n",
    }
    readers = {"bench.py": "from toricount import a\nprint(a.BENCH)\n"}
    assert unread_names(sources, readers, public=True) == ["a.py: dead", "a.py: TABLE"]


def test_public_scan_does_not_read_the_package_all():
    sources = {
        "__init__.py": "from .a import api, used\n__all__ = ['api', 'used']\nused()\n",
        "a.py": "def api():\n    return 1\ndef used():\n    return 2\n",
    }
    assert unread_names(sources, public=True) == []
    sources["__init__.py"] = without_all(sources["__init__.py"])
    assert "__all__" not in sources["__init__.py"]
    assert unread_names(sources, public=True) == ["a.py: api"]


#: run in a fresh interpreter: the package and its chow commands do without numpy
_NUMPY_ON_DEMAND = """
import sys
import toricount
from toricount import cli
assert "numpy" not in sys.modules, "import toricount loaded numpy"
assert cli.main(["chow", "sweep", "--c", "1", "--s-max", "3", "--format", "json"]) == 0
assert cli.main(["chow", "certify", "--s", "2", "--c", "0", "--E", "9"]) == 0
assert "numpy" not in sys.modules, "a chow command loaded numpy"
F3 = toricount.make_field(3)
assert toricount.affine_count(toricount.parse("x0 + x1", 2, F3), F3) == 3
assert "numpy" in sys.modules, "the count ran without numpy"
"""


def test_numpy_is_loaded_by_the_first_count():
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_ON_DEMAND],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
