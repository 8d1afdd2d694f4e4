"""The benchmark's tracer wraps package functions by module and name.

perfbench/workloads.py lists them in TRACED and in the patch calls of
install().  A deleted function breaks only a traced benchmark run, and an
alias makes the tracer count every call of the aliased function under the
traced name, since it patches by object identity.  The file is read
with ast, not imported, so this runs without the benchmark's side effects.
"""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _traced_names() -> list[tuple[str, str]]:
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            for entry in node.value.elts:
                module, attr = entry.elts[:2]
                names.append((module.value, attr.value))
        if isinstance(node, ast.FunctionDef) and node.name == "install":
            for call in ast.walk(node):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "patch"
                    and all(isinstance(a, ast.Constant) for a in call.args[1:3])
                ):
                    names.append((call.args[1].value, call.args[2].value))
    return names


def test_every_traced_name_resolves_to_its_own_object():
    names = _traced_names()
    assert ("conehull.harness", "map_replicates") in names and len(names) > 2
    objects = {}
    for module, attr in names:
        assert module.split(".")[0] == "conehull"
        obj = getattr(importlib.import_module(module), attr, None)
        assert obj is not None, f"{module}.{attr} does not exist"
        # an alias of an untraced function would count that one's calls too
        assert obj.__name__ == attr, f"{module}.{attr} is an alias of {obj.__name__}"
        objects[(module, attr)] = obj
    by_identity = {}
    for name, obj in objects.items():
        assert id(obj) not in by_identity, f"{name} is the same object as {by_identity[id(obj)]}"
        by_identity[id(obj)] = name
