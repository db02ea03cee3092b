"""The names the benchmark harness reads from the package still exist.

`perfbench/tracing.py` wraps the functions its `PLAN` names, and
`perfbench/apiops.py` and `perfbench/checks.py` look functions up on the
package as `lab.<module>.<name>`.  Both files are read here, never changed,
so a rename that would leave the traced run with a missing target, or an
operation with a missing function, fails here too.
"""

import ast
import importlib
from pathlib import Path

import pytest

import dssyklab
import dssyklab.cli  # noqa: F401  (the benchmark worker's import: it loads every module it reads)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """The globals of perfbench/<name>.py, run from its source (no bytecode is written)."""
    path = PERFBENCH / f"{name}.py"
    namespace = {"__name__": f"_perfbench_{name}"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


def _lab_lookups(name):
    """Each `lab.<module>.<attribute>` in perfbench/<name>.py."""
    tree = ast.parse((PERFBENCH / f"{name}.py").read_text())
    return [(node.value.attr, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name) and node.value.value.id == "lab"]


@pytest.mark.parametrize("module_name,path", [(entry[0], entry[1])
                                              for entry in _load("tracing")["PLAN"]])
def test_every_traced_target_exists(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{module_name}.{path} is gone"


@pytest.mark.parametrize("source", ["apiops", "checks"])
def test_every_lab_lookup_exists(source):
    lookups = _lab_lookups(source)
    assert lookups
    missing = [f"{module}.{attr}" for module, attr in lookups
               if not hasattr(getattr(dssyklab, module, None), attr)]
    assert missing == []
