"""Every name a module of the package imports is read somewhere in that module.

No linter ships with the project, so this is the unused-import check: an ast
scan of src/toricount/*.py. A name counts as read if it appears as a loaded
identifier, inside a string annotation, or in the module's ``__all__``.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "toricount"


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
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
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
