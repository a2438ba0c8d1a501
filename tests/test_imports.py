"""Module boundaries of hjlab, checked on the source."""

import ast
import importlib
import inspect
import pkgutil

import hjlab


def test_no_module_imports_a_private_name_of_another():
    # an underscore name belongs to its module; importing it elsewhere makes a second owner
    modules = [hjlab] + [importlib.import_module(f"hjlab.{m.name}") for m in pkgutil.iter_modules(hjlab.__path__)]
    found = []
    for module in modules:
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "hjlab"):
                private = [a.name for a in node.names if a.name.startswith("_") and not a.name.endswith("__")]
                found += [f"{module.__name__}:{node.lineno} imports {name}" for name in private]
    assert found == []
