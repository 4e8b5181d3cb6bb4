"""The benchmark's traced and hooked functions exist in the package.

bench/run.py resolves every TRACED name (and every HOOKS key) as
<module>.<function> on mtdirac before its first traced pass, so a renamed
or deleted function would stop the benchmark; this catches it earlier.
"""

import ast
from operator import attrgetter
from pathlib import Path

import mtdirac
import mtdirac.cli  # noqa: F401  the benchmark imports the package this way

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _assigned(name: str) -> ast.expr:
    """The expression assigned to a module-level name in bench/run.py."""
    for node in ast.parse(RUN.read_text(encoding="utf-8")).body:
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
