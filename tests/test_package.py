"""Package surface: the README example runs, and no module carries an
import it never uses."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "transfusion"


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out == "True\n"


def _annotation_names(node: ast.AST):
    """Names inside an annotation, string annotations included."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from _annotation_names(ast.parse(sub.value, mode="eval"))


def unused_imports(source: str):
    """(line, name) of every imported name the module never mentions."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            used.update(_annotation_names(ann))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_detector_on_a_sample():
    sample = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import List, Optional\n"
        "def f(x: 'List[int]') -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(sample) == [(2, "sys"), (3, "Optional")]


def test_library_modules_have_no_unused_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path.read_text(encoding="utf-8")):
            found.append(f"{path.name}:{line}: {name}")
    assert found == []
