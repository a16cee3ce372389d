"""Every definition in ``src/repro`` is reached by something other than tests.

An ``ast`` scan collects the module-level functions and classes of
``src/repro`` and their methods (dunder methods aside).  A definition counts
as reached when its name appears

* in a ``src/`` file as a name, an attribute, an import alias or an
  identifier string (``getattr(obj, "name")``) -- except the imports and
  ``__all__`` of ``__init__.py`` files, which only re-export, or
* anywhere in ``perfbench/``, ``benchmarks/`` or ``examples/``, with dotted
  strings such as ``"DetailedBackend.reserve"`` split into their parts.

A definition only tests name belongs in ``tests/``; one nothing names at all
belongs nowhere.  The scan matches names, not call sites, so it cannot see a
dead method that shares its name with a live one (a ``utilization`` no job
reads next to one every job reads); it keeps the ones it can see from
coming back.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
HARNESSES = ("perfbench", "benchmarks", "examples")

#: ``path:qualname`` -> why the definition stays although only tests or
#: users name it.  At most five entries.
ALLOWLIST = {
    "repro/runner/cache.py:ResultCache.prune": (
        "library call for cache maintenance that README.md documents"
    ),
    "repro/collectives/planner.py:clear_plan_cache": (
        "library call that drops the process-wide plan cache of a long-lived process"
    ),
}


def _definitions(tree: ast.Module) -> Iterator[Tuple[str, str]]:
    """``(qualname, name)`` of every module-level definition and method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name.startswith("__") and item.name.endswith("__"):
                    continue
                yield f"{node.name}.{item.name}", item.name


def _names(tree: ast.Module, reexports_only: bool, split_dotted: bool) -> Set[str]:
    """Every name, attribute, import alias and identifier string in ``tree``."""
    skipped: Set[int] = set()
    if reexports_only:
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                skipped.add(id(node))
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                skipped.add(id(node))
    found: Set[str] = set()
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
            if node.asname:
                found.add(node.asname)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".") if split_dotted else [node.value]
            found.update(part for part in parts if part.isidentifier())
        stack.extend(ast.iter_child_nodes(node))
    return found


def _scan() -> Tuple[List[Tuple[str, str]], Set[str]]:
    definitions: List[Tuple[str, str]] = []
    reached: Set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reached |= _names(tree, reexports_only=path.name == "__init__.py", split_dotted=False)
        where = path.relative_to(SRC.parent).as_posix()
        definitions.extend((f"{where}:{qual}", name) for qual, name in _definitions(tree))
    for harness in HARNESSES:
        for path in sorted((REPO / harness).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            reached |= _names(tree, reexports_only=False, split_dotted=True)
    return definitions, reached


def test_every_src_definition_is_reached_outside_tests():
    definitions, reached = _scan()
    unreached = [key for key, name in definitions if name not in reached and key not in ALLOWLIST]
    assert not unreached, (
        "defined in src/ but named by no src module, harness or example "
        "(move a test oracle into tests/, or delete it):\n  " + "\n  ".join(unreached)
    )


def test_allowlist_is_short_and_current():
    assert len(ALLOWLIST) <= 5
    assert all(reason.strip() for reason in ALLOWLIST.values())
    definitions, reached = _scan()
    keys = {key: name for key, name in definitions}
    for key in ALLOWLIST:
        assert key in keys, f"allowlisted {key} is no longer defined"
        assert keys[key] not in reached, f"allowlisted {key} is reached now; drop it from the list"
