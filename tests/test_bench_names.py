"""The benchmark's traced and hooked functions exist in the package.

bench/run.py resolves every TRACED name (and every HOOKS key) as
<module>.<function> on mtdirac before its first traced pass, so a renamed
or deleted function would stop the benchmark; this catches it earlier.
"""

import ast
import inspect
from operator import attrgetter
from pathlib import Path

import mtdirac
import mtdirac.cli  # noqa: F401  the benchmark imports the package this way

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _module() -> ast.Module:
    return ast.parse(RUN.read_text(encoding="utf-8"))


def _assigned(name: str) -> ast.expr:
    """The expression assigned to a module-level name in bench/run.py."""
    for node in _module().body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name
                for target in node.targets):
            return node.value
    raise LookupError(f"bench/run.py assigns no {name}")


def test_traced_and_hooked_names_resolve():
    traced = ast.literal_eval(_assigned("TRACED"))
    hooked = [ast.literal_eval(key) for key in _assigned("HOOKS").keys]
    assert traced and hooked
    unresolved = []
    for name in [*traced, *hooked]:
        try:
            function = attrgetter(name)(mtdirac)
        except AttributeError:
            unresolved.append(name)
        else:
            assert callable(function), name
    assert unresolved == []
    assert set(hooked) <= set(traced)


def _bound_names(function: ast.FunctionDef) -> set[str]:
    """Parameter names a hook reads or sets through `<bound>.arguments`,
    as `arguments["name"]` or `arguments.get("name")`."""
    names = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Subscript):
            owner, key = node.value, node.slice
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get"):
            owner, key = node.func.value, node.args[0]
        else:
            continue
        if (isinstance(owner, ast.Attribute) and owner.attr == "arguments"
                and isinstance(key, ast.Constant)
                and isinstance(key.value, str)):
            names.add(key.value)
    return names


def test_hooked_functions_take_the_parameters_their_hooks_bind():
    # a hook binds its target's call by signature and reads parameters by
    # name (the spacelike draw counter reads rng and region), so a renamed
    # parameter would silently stop the count
    functions = {node.name: node for node in _module().body
                 if isinstance(node, ast.FunctionDef)}
    hooks = _assigned("HOOKS")
    bound = {}
    for key, value in zip(hooks.keys, hooks.values):
        name = ast.literal_eval(key)
        parameters = inspect.signature(attrgetter(name)(mtdirac)).parameters
        bound[name] = _bound_names(functions[value.id])
        assert bound[name] <= set(parameters), name
    assert bound["potential.sample_configs"] == {"rng", "region"}
