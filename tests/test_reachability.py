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
BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def wrapped_by_the_tracer() -> set[tuple[str, str]]:
    """(module, name) for each self.wrap(<module>, "<name>", ...) call in
    bench/tracer.py, where a loop variable over a tuple of modules stands
    for each of them; a wrapped method is named "Class.method"."""
    wrapped = set()

    def visit(node: ast.AST, loops: dict[str, list[str]]) -> None:
        if (
            isinstance(node, ast.For) and isinstance(node.target, ast.Name)
            and isinstance(node.iter, ast.Tuple)
        ):
            loops = {**loops, node.target.id: [elt.id for elt in node.iter.elts]}
        elif (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wrap" and len(node.args) >= 2
        ):
            owner, attr = node.args[:2]
            prefix = ""
            if isinstance(owner, ast.Attribute):
                owner, prefix = owner.value, owner.attr + "."
            for module in loops.get(owner.id, [owner.id]):
                wrapped.add((module, prefix + attr.value))
        for child in ast.iter_child_nodes(node):
            visit(child, loops)

    visit(_bench_tree("tracer.py"), {})
    return wrapped


def read_by_the_worker() -> set[str]:
    """Every attribute name that bench/worker.py reads."""
    return {n.attr for n in ast.walk(_bench_tree("worker.py")) if isinstance(n, ast.Attribute)}


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
    # Apart from what the benchmark harness reaches past the commands: a
    # name bench/tracer.py wraps, or a definition bench/worker.py reads.
    wrapped = wrapped_by_the_tracer()
    read = read_by_the_worker()
    assert {
        (module, name)
        for module, name in unreached_definitions()
        if (module, name) not in wrapped and name.rpartition(".")[2] not in read
    } == set()


def test_every_module_uses_what_it_imports():
    # An import that nothing reads stays only for bench/tracer.py to wrap in
    # that module's namespace.
    assert unused_imports() - wrapped_by_the_tracer() == set()
