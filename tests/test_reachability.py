"""Every definition in the package is reached by a command, and every
module uses what it imports.

Reachability is the name-reference closure from the definitions of cli.py
and from every module's top-level statements (imports aside), through the
bodies of the definitions it reaches.  A top-level definition is reached
when a reached body names it, as a plain name or as an attribute.  A
method, property or classmethod of a reached class is reached only when a
reached body names it as an attribute; the rest of the class body (its
decorators, fields and dunder methods, which Python calls implicitly) is
reached with the class.  Names are matched across modules and scopes, so
the closure over-approximates: any attribute of that name counts, whatever
object it is read from, and a plain name matches a top-level definition
even where it is a parameter or a local (graphs.path passed through
os.path and write_catalog's path parameter, Graph.edges through
args.edges).  Docstrings and comments reference nothing.  A definition
only tests or library callers use belongs in the tests or nowhere.
"""
import ast
from pathlib import Path

import graphfactor

PACKAGE = Path(graphfactor.__file__).parent

# bench/tracer.py wraps census.read_catalog to time the catalog read that
# verify does line by line, and bench/worker.py reads the first witness of
# each decision through FactorDecision.witness; no command calls either.
UNREACHED_BY_DESIGN = {("census", "read_catalog"), ("search", "FactorDecision.witness")}

# bench/tracer.py wraps these two names in the census module's namespace;
# census itself calls neither.
IMPORTED_FOR_THE_TRACER = {("census", "factor_search"), ("census", "validate_factorization")}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(nodes) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for node in nodes
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _attributes(nodes) -> set[str]:
    return {n.attr for node in nodes for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _is_member(stmt: ast.stmt) -> bool:
    """A method, property or classmethod: a function in a class body that
    is not a dunder."""
    return isinstance(stmt, _FUNCTIONS) and not (
        stmt.name.startswith("__") and stmt.name.endswith("__")
    )


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def unreached_definitions() -> set[tuple[str, str]]:
    # name -> [(module, the statements a reference to the name reaches)]
    definitions: dict[str, list[tuple[str, list[ast.AST]]]] = {}
    # member name -> [(module, class name, the member's definition)]
    members: dict[str, list[tuple[str, str, ast.AST]]] = {}
    roots: set[str] = set()
    for module, tree in _modules():
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, _FUNCTIONS):
                body = [stmt]
            elif isinstance(stmt, ast.ClassDef):
                body = stmt.decorator_list + stmt.bases + stmt.keywords
                for item in stmt.body:
                    if _is_member(item):
                        members.setdefault(item.name, []).append((module, stmt.name, item))
                    else:
                        body.append(item)
            else:
                roots |= _names([stmt])
                continue
            definitions.setdefault(stmt.name, []).append((module, body))
            if module == "cli":
                roots.add(stmt.name)
    reached: set[str] = set()
    reached_members: set[tuple[str, str]] = set()
    attributes: set[str] = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name in reached or name not in definitions:
            continue
        reached.add(name)
        found = [node for _, body in definitions[name] for node in body]
        # A class reached late may own members named earlier, and a body
        # reached late may name members of classes reached earlier.
        while found:
            todo.extend(_names(found))
            attributes |= _attributes(found)
            found = []
            for member in attributes:
                for module, owner, node in members.get(member, ()):
                    if owner in reached and (owner, member) not in reached_members:
                        reached_members.add((owner, member))
                        found.append(node)
    unreached = {
        (module, name)
        for name, defs in definitions.items()
        if name not in reached
        for module, _ in defs
    }
    unreached |= {
        (module, f"{owner}.{member}")
        for member, defs in members.items()
        for module, owner, _ in defs
        if owner in reached and (owner, member) not in reached_members
    }
    return unreached


def unused_imports() -> set[tuple[str, str]]:
    """(module, name) for each name a module imports and never reads."""
    out = set()
    for module, tree in _modules():
        if module == "__init__":
            continue
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for stmt in tree.body
            if isinstance(stmt, (ast.Import, ast.ImportFrom))
            and not (isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__")
            for alias in stmt.names
        }
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        out |= {(module, name) for name in imported - used}
    return out


def test_every_definition_is_reached_by_a_command():
    assert unreached_definitions() == UNREACHED_BY_DESIGN


def test_every_module_uses_what_it_imports():
    assert unused_imports() == IMPORTED_FOR_THE_TRACER
