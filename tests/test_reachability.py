"""Every top-level definition in the package is reached by a command.

Reachability is the name-reference closure from the definitions of cli.py
and from every module's top-level statements (imports aside), through the
bodies of the definitions it reaches.  Names are matched across modules,
as plain names and as attributes, so the closure over-approximates;
docstrings and comments reference nothing.  A definition only tests or
library callers use belongs in the tests or nowhere.
"""
import ast
from pathlib import Path

import graphfactor

PACKAGE = Path(graphfactor.__file__).parent

# bench/tracer.py wraps census.read_catalog to time the catalog read that
# verify does line by line; no command calls it.
UNREACHED_BY_DESIGN = {("census", "read_catalog")}


def _names(node: ast.AST) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def unreached_definitions() -> set[tuple[str, str]]:
    definitions: dict[str, list[tuple[str, ast.AST]]] = {}
    roots: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.setdefault(stmt.name, []).append((path.stem, stmt))
                if path.stem == "cli":
                    roots.add(stmt.name)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= _names(stmt)
    reached: set[str] = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name in reached or name not in definitions:
            continue
        reached.add(name)
        for _, node in definitions[name]:
            todo.extend(_names(node))
    return {
        (module, name)
        for name, defs in definitions.items()
        if name not in reached
        for module, _ in defs
    }


def test_every_definition_is_reached_by_a_command():
    assert unreached_definitions() == UNREACHED_BY_DESIGN
