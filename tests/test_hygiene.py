"""Hygiene of the package modules: every imported name is used, every
module-level private name is read by some package module, words are
built only in ``freealg``, only ``freealg.first_vanishing`` turns a
truncation into ``UNKNOWN``, and no function that calls itself is added."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "derivalg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that nothing in it reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "import os\nfrom typing import Iterable, Sequence\nx: Sequence = os.sep\n"
    assert unused_imports(source) == ["Iterable (line 2)"]


def bound_private_names(stmt: ast.stmt) -> list[str]:
    """The ``_name`` functions, classes and constants a module-level
    statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [
            n.id
            for t in targets
            for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        ]
    else:
        return []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def private_definitions(source: str) -> dict[str, int]:
    """Module-level private names -> line of their first definition."""
    defined: dict[str, int] = {}
    for stmt in ast.parse(source).body:
        for name in bound_private_names(stmt):
            defined.setdefault(name, stmt.lineno)
    return defined


def names_read(source: str) -> set[str]:
    """Names a module reads, bare or as an attribute, outside the
    statement that binds them (a helper calling itself is still dead)."""
    read: set[str] = set()
    for stmt in ast.parse(source).body:
        here: set[str] = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                here.add(node.id)
            elif isinstance(node, ast.Attribute):
                here.add(node.attr)
        read |= here - set(bound_private_names(stmt))
    return read


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name (line n)`` of every module-level private name that
    no module of ``sources`` reads."""
    read = set().union(*(names_read(s) for s in sources.values()))
    return [
        f"{module}:{name} (line {line})"
        for module, source in sorted(sources.items())
        for name, line in private_definitions(source).items()
        if name not in read
    ]


def test_package_has_no_dead_private_helper():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert dead_private_names(sources) == []


def test_dead_private_helper_is_reported():
    sources = {
        "a.py": "_LIMIT = 3\n_seen: set = set()\n\ndef _walk(n):\n    return _walk(n - 1)\n",
        "b.py": "from .a import _LIMIT\n\ndef _used():\n    return _LIMIT\n\nx = _used()\n",
    }
    assert dead_private_names(sources) == ["a.py:_seen (line 2)", "a.py:_walk (line 4)"]


def word_constructions(source: str) -> list[int]:
    """Lines of the ``Word(...)`` calls in a module, bare or qualified."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and "Word" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


NOT_FREEALG = [p for p in sorted(SRC.glob("*.py")) if p.name != "freealg.py"]


@pytest.mark.parametrize("path", NOT_FREEALG, ids=lambda p: p.name)
def test_words_are_built_only_in_freealg(path):
    # a word's content and hash are right only if generator, UNIT or node made it
    assert word_constructions(path.read_text()) == []


def test_word_construction_is_reported():
    source = (
        "from . import freealg\nfrom .freealg import Word\n\n"
        "a = Word(0, (), 0, (), (0, 0))\nb = freealg.Word(1)\nc = isinstance(a, Word)\n"
    )
    assert word_constructions(source) == [4, 5]


def _names(node: ast.AST) -> set[str]:
    """Every name in an expression, bare or as an attribute."""
    return {
        getattr(n, "id", None) or getattr(n, "attr", None)
        for n in ast.walk(node)
    } - {None}


def unknown_verdicts(source: str, exempt: str | None = None) -> list[int]:
    """Lines that catch ``TruncationError`` or return ``UNKNOWN``, outside
    the top-level function named ``exempt``."""
    lines = []
    for stmt in ast.parse(source).body:
        if getattr(stmt, "name", None) == exempt:
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = "TruncationError" in _names(node.type)
            elif isinstance(node, ast.Return) and node.value is not None:
                caught = "UNKNOWN" in _names(node.value)
            else:
                continue
            if caught:
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_first_vanishing_decides_unknown(path):
    # every bounded probe gets its truncation rule from one loop
    exempt = "first_vanishing" if path.name == "freealg.py" else None
    assert unknown_verdicts(path.read_text(), exempt) == []


def test_first_vanishing_holds_the_unknown_rule():
    assert len(unknown_verdicts((SRC / "freealg.py").read_text())) == 2


def test_unknown_verdict_is_reported():
    source = (
        "from . import freealg\nfrom .freealg import UNKNOWN\n\n"
        "def probe(step):\n    try:\n        step()\n"
        "    except (ValueError, freealg.TruncationError):\n        return None\n"
        "    return freealg.UNKNOWN if step else 0\n\n"
        "def show(out):\n    if out is UNKNOWN:\n        return 'unknown'\n\n"
        "def first_vanishing():\n    return UNKNOWN\n"
    )
    assert unknown_verdicts(source) == [7, 9, 16]
    assert unknown_verdicts(source, "first_vanishing") == [7, 9]


def self_recursive_functions(source: str, module: str) -> list[str]:
    """Dotted names of the functions that call themselves directly: by
    their bare name, or as ``self.name``/``cls.name`` in a method.  A
    call from a nested function counts for every enclosing function of
    that name too."""
    found = []

    def calls_itself(fn) -> bool:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if getattr(f, "id", None) == fn.name:
                return True
            if isinstance(f, ast.Attribute) and f.attr == fn.name:
                if getattr(f.value, "id", None) in ("self", "cls"):
                    return True
        return False

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                if calls_itself(child):
                    found.append(name)
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(ast.parse(source), module)
    return found


#: The functions that still call themselves, whose depth is bounded by
#: the Python stack; the set may only shrink.
RECURSIVE = {
    "deriv._leibniz.der",
    "freealg.contents",
    "freealg.words_of_content",
    "freealg.words_of_content.rec",
    "freealg.substitute.ev",
    "genpos._eval_expr",
    "genpos._expr_str",
    "genpos.Certificate.atoms.walk",
    "genpos.certificate",
    "varieties._word_subst",
    "varieties._with_content",
}


def test_no_new_self_recursion():
    found = {
        name
        for path in MODULES
        for name in self_recursive_functions(path.read_text(), path.stem)
    }
    assert found <= RECURSIVE


def test_self_recursion_is_reported():
    source = (
        "def fact(n):\n    return 1 if n < 2 else n * fact(n - 1)\n\n"
        "def outer(w):\n    def walk(u):\n        return [walk(c) for c in u]\n"
        "    return walk(w)\n\n"
        "class Tree:\n    def depth(self):\n        return 1 + max(c.depth() for c in self.kids)\n\n"
        "    def size(self):\n        return self.size() if self.kids else 1\n\n"
        "    def __init__(self):\n        super().__init__()\n"
    )
    assert self_recursive_functions(source, "m") == ["m.fact", "m.outer.walk", "m.Tree.size"]
