"""Code that only tests reach is an explicit oracle.

A module-level function of the package, or a method that is not a dunder,
whose name appears in no code under `src/` or `perfbench/` other than its
own def runs only under the tests.  Its docstring must then say which code
it checks, with the words "Oracle for".  Names the package's `__init__`
exports count as used, as do the dotted names that `perfbench/tracing.py`
gives as strings.  A method name written after one of the package's class
names, as in `MultiPoly.zero`, counts for that class only; written after
anything else, as in `table.moment`, it counts for every class.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dssyklab"
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
CLASSES = {node.name for path in PACKAGE.glob("*.py") for node in ast.parse(path.read_text()).body
           if isinstance(node, ast.ClassDef)}


def _qualified(owner: str | None, name: str) -> str:
    """`name` as a reference: `Class.name` after a class of the package."""
    return f"{owner}.{name}" if owner in CLASSES else name


def _scopes(tree):
    """(owner, nodes) for each statement of a module or of one of its
    classes: a def owns itself, and no other statement has an owner."""
    for node in tree.body:
        members = [node]
        if isinstance(node, ast.ClassDef):
            yield None, node.decorator_list + node.bases + node.keywords
            members = node.body
        for item in members:
            is_def = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield (item.name if is_def else None), [item]


def _names(nodes):
    """Every identifier that `nodes` read, import or spell as a dotted
    string, qualified by its class where one is written before it."""
    for sub in (sub for node in nodes for sub in ast.walk(node)):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            value = sub.value
            owner = value.id if isinstance(value, ast.Name) else getattr(value, "attr", None)
            yield _qualified(owner, sub.attr)
        elif isinstance(sub, ast.alias):
            yield from sub.name.split(".")
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if all(part.isidentifier() for part in parts):
                yield from map(_qualified, [None] + parts[:-1], parts)


def _used_names():
    used = set()
    for path in SOURCES:
        for owner, nodes in _scopes(ast.parse(path.read_text())):
            used.update(name for name in _names(nodes) if name.rsplit(".", 1)[-1] != owner)
    return used


def _definitions():
    """(dotted name, the references that reach it, def node) for the
    package's functions and non-dunder methods."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{path.stem}.{node.name}", {node.name}, node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (item.name.startswith("__") and item.name.endswith("__"))):
                        yield (f"{path.stem}.{node.name}.{item.name}",
                               {item.name, f"{node.name}.{item.name}"}, item)


def test_code_reached_only_from_tests_is_a_named_oracle():
    used = _used_names()
    unnamed = [name for name, refs, node in _definitions()
               if not refs & used and "Oracle for" not in (ast.get_docstring(node) or "")]
    assert unnamed == []
