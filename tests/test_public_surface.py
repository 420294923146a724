"""Every public name in ``src/wattflow`` has a caller outside the tests.

Each public module-level function or class, and each public method or
property of a module-level class, must be referenced by name somewhere
in ``src/`` outside its own definition, or by the acceptance suite
(``tests/test_acceptance.py``), or by the benchmark (``perfbench/*.py``).
A reference is a ``Name`` or ``Attribute`` node, or a string constant
equal to the name (``getattr``-style lookups, such as the benchmark's
trace hooks).  Names listed in a module's ``__all__`` do not count as
referenced by that list.

The scan is by name, not by binding: a method shares its name with
every other attribute of that name.  It catches a name nothing mentions
any more, which is how public surface that only its own tests use shows
up.
"""

from __future__ import annotations

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "wattflow")

# Public names kept without a program caller, each with its reason.  The
# scan cannot see that ``wrap_modulus`` and ``row`` lack callers (other
# attributes share their names); they are listed to record the decision.
KEPT = {
    "CounterBackend.wrap_modulus":
        "the counter's advertised wrap geometry (powercap's "
        "max_energy_range_uj), kept for carrying it into the log",
    "LogWriter.abandon":
        "the crash fake: releases a log without a trailer, as a dead "
        "writer leaves it",
    "PowerProfile.power_at":
        "the reference implementation the simulator tests integrate "
        "analytic energy against",
    "SamplerAgent.active_sessions":
        "read-only view of a public object's open sessions; without it "
        "the lookup would only move into the tests",
    "CoverageTable.row":
        "read-only lookup of one method's row in a public table",
}


def _parse(path: str) -> ast.Module:
    with open(path, "r", encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def public_definitions(tree: ast.Module) -> list[tuple[str, str, ast.AST]]:
    """(lookup name, qualified name, node) of each public definition."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_public(node.name):
                found.append((node.name, node.name, node))
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            found.append((node.name, node.name, node))
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and _is_public(item.name):
                    found.append((item.name, f"{node.name}.{item.name}",
                                  item))
    return found


def _all_lists(tree: ast.Module) -> set[int]:
    """ids of the string constants inside ``__all__ = [...]``."""
    ids: set[int] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            ids.update(id(c) for c in ast.walk(node.value)
                       if isinstance(c, ast.Constant))
    return ids


def references(tree: ast.Module, skip: ast.AST | None = None
               ) -> set[str]:
    """Names a module mentions, outside ``skip`` and ``__all__``."""
    excluded = _all_lists(tree)
    if skip is not None:
        excluded.update(id(n) for n in ast.walk(skip))
    names: set[str] = set()
    for node in ast.walk(tree):
        if id(node) in excluded:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def uncalled_public_names() -> list[str]:
    src = {path: _parse(path)
           for path in sorted(glob.glob(os.path.join(SRC, "*.py")))}
    outside = set()
    for path in [os.path.join(ROOT, "tests", "test_acceptance.py")] + \
            sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py"))):
        outside |= references(_parse(path))
    src_refs = {path: references(tree) for path, tree in src.items()}
    flagged = []
    for path, tree in src.items():
        for name, qualified, node in public_definitions(tree):
            if name in outside:
                continue
            if any(name in refs for other, refs in src_refs.items()
                   if other != path):
                continue
            if name in references(tree, skip=node):
                continue
            flagged.append(f"{os.path.basename(path)}:{qualified}")
    return flagged


def test_every_public_name_has_a_caller():
    flagged = [entry for entry in uncalled_public_names()
               if entry.split(":", 1)[1] not in KEPT]
    assert flagged == [], (
        "public names that only tests reach; delete them, make them "
        "private, or list them in KEPT with a reason")


def test_every_kept_name_still_exists():
    defined = {qualified
               for path in glob.glob(os.path.join(SRC, "*.py"))
               for _, qualified, _ in public_definitions(_parse(path))}
    assert sorted(set(KEPT) - defined) == []


def test_scan_sees_references_in_strings_and_attributes():
    tree = ast.parse("getattr(m, 'a')\nm.b\nc()\n__all__ = ['d']\n")
    refs = references(tree)
    assert {"a", "b", "c"} <= refs
    assert "d" not in refs
