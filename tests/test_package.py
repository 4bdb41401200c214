"""Package surface: the README example runs, no module of the package or
of its tests carries an import it never uses, every public function,
class or method of a class has a caller in the package or a stated
reason to stay, and Fractions are built only where a stated reason
allows."""

import ast
import re
from collections import defaultdict
from pathlib import Path
from typing import Optional

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
    # every test module is held to the same rule
    found = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path.read_text(encoding="utf-8")):
            found.append(f"{path.name}:{line}: {name}")
    assert found == []


# public definitions and methods that nothing in the package calls, each
# with the reason it stays
UNCALLED_ALLOWED = {
    "untwisted_star": "oracle",
    "center_dimension": "oracle",
    "mat_trace": "oracle",
    "regular_bundle": "fixture",
}


def _mentions(node: ast.AST):
    """Every name a statement mentions, attribute names and string
    annotations included; import statements mention nothing."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.arg) and sub.annotation is not None:
            yield from _annotation_names(sub.annotation)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub.returns:
            yield from _annotation_names(sub.returns)
        elif isinstance(sub, ast.AnnAssign):
            yield from _annotation_names(sub.annotation)


def _pieces(stmt: ast.stmt, own: Optional[str]):
    """(node, owning definition) for the parts of a top-level statement: a
    class's methods are owned by "Class.method", the rest of it by the
    class."""
    if not isinstance(stmt, ast.ClassDef):
        yield stmt, own
        return
    for node in stmt.bases + stmt.keywords + stmt.decorator_list:
        yield node, own
    for node in stmt.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, f"{own}.{node.name}"
        else:
            yield node, own


def uncalled_definitions(sources):
    """Sorted names of the public top-level functions and classes, and as
    Class.method of the public methods of public top-level classes, over a
    dict of module name to source, that no module mentions outside the
    definition itself. A method is mentioned wherever its name is, on any
    object."""
    defined = []  # (module, name, label)
    mentioned_in = defaultdict(set)  # name -> {(module, owning definition or None)}
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("_"):
                    defined.append((module, own, own))
                    for node, label in _pieces(stmt, own):
                        if label != own and not node.name.startswith("_"):
                            defined.append((module, node.name, label))
            for node, owner in _pieces(stmt, own):
                for name in _mentions(node):
                    mentioned_in[name].add((module, owner))

    def inside(module, label, mention):
        where, owner = mention
        return where == module and owner is not None and (
            owner == label or owner.startswith(label + ".")
        )

    return sorted(
        label
        for module, name, label in defined
        if all(inside(module, label, mention) for mention in mentioned_in[name])
    )


def test_uncalled_definition_detector_on_a_sample():
    sources = {
        "a": (
            "def used(): return helper()\n"
            "def helper(): return 1\n"
            "def recursive(n): return recursive(n - 1) if n else 0\n"
            "def annotated(x: 'Typed') -> None: pass\n"
            "class Typed: pass\n"
            "class Lonely: pass\n"
        ),
        "b": "from a import Lonely\nimport a\nvalue = a.used()\n",
        "c": (
            "class Box:\n"
            "    size: int = 0\n"
            "    def width(self): return self.height()\n"
            "    def height(self): return 1\n"
            "    def depth(self): return self.depth()\n"
            "    def _hidden(self): return 0\n"
            "    @classmethod\n"
            "    def make(cls): return Box()\n"
            "class Selfish:\n"
            "    def clone(self): return Selfish()\n"
            "class _Private:\n"
            "    def orphan(self): return 0\n"
        ),
        "d": "import c\nvalue = c.Box.make().width()\n",
    }
    assert uncalled_definitions(sources) == [
        "Box.depth", "Lonely", "Selfish", "Selfish.clone", "annotated", "recursive"
    ]


def test_every_public_definition_has_a_caller_or_a_reason():
    sources = {
        path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))
    }
    uncalled = uncalled_definitions(sources)
    assert [name for name in uncalled if name not in UNCALLED_ALLOWED] == []
    # an allowed name that gains a caller leaves the list
    assert sorted(UNCALLED_ALLOWED) == uncalled


# the functions that build Fractions, each with its reason: an angle is an
# integer over a modulus everywhere else, oracles included, and crosses
# into or out of a Fraction only at a boundary the README names
FRACTION_ALLOWED = {
    # value(), the constructor's table and a solve's solution, the
    # right-hand side of a solve, report text and cochain files
    "cochains.Cochain.value_at": "boundary",
    "cochains._integers": "boundary",
    "cochains.coboundary_solve": "boundary",
    "cochains.commutator_pairing": "boundary",
    "cochains.write_cochain": "boundary",
    "cochains.read_cochain": "boundary",
    # rational coefficients in and out
    "cyclotomic._common_denominator": "boundary",
    "cyclotomic.Cyclotomic.coeffs": "boundary",
    "cyclotomic.Cyclotomic.from_rational": "boundary",
    "cyclotomic.Cyclotomic.rational_value": "boundary",
    "smith.solve_mod1": "boundary",
}


def fraction_calls(source: str):
    """(line, owning definition) of every call of Fraction, by name or as
    fractions.Fraction, in a module: the owner is the top-level function
    or class, or Class.method, the call sits in, and None at module
    level."""
    found = []
    for stmt in ast.parse(source).body:
        own = None
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = stmt.name
        for node, owner in _pieces(stmt, own):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and (
                    isinstance(sub.func, ast.Name) and sub.func.id == "Fraction"
                    or isinstance(sub.func, ast.Attribute) and sub.func.attr == "Fraction"
                ):
                    found.append((sub.lineno, owner))
    return sorted(found, key=lambda item: item[0])


def test_fraction_call_detector_on_a_sample():
    sample = (
        "import fractions\n"
        "from fractions import Fraction\n"
        "HALF = Fraction(1, 2)\n"
        "def f(x): return Fraction(x) + fractions.Fraction(1)\n"
        "def g(x): return isinstance(x, Fraction)\n"
        "class C:\n"
        "    one = Fraction(1)\n"
        "    def m(self):\n"
        "        def inner(): return Fraction(2)\n"
        "        return inner\n"
    )
    assert fraction_calls(sample) == [(3, None), (4, "f"), (4, "f"), (7, "C"), (9, "C.m")]


def test_fractions_are_built_only_at_the_boundaries_and_in_oracles():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for _, owner in fraction_calls(path.read_text(encoding="utf-8")):
            found.add(f"{path.stem}.{owner}")
    assert sorted(found - set(FRACTION_ALLOWED)) == []
    # a function that stops building Fractions leaves the list
    assert sorted(FRACTION_ALLOWED) == sorted(found)
    assert set(FRACTION_ALLOWED.values()) == {"boundary"}
