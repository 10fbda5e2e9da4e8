"""Every function, class and method in ``src/`` has a caller outside the tests.

A definition is reached when its name is referenced (as a name or an
attribute) somewhere in ``src/tensorcert`` outside its own body, or anywhere
in ``perfbench/``, whose tracer also names functions in strings.  Dunders do
not count, as Python calls them by protocol.  Code that only the tests reach
belongs in the tests.  The package's ``__init__`` imports nothing, so no
re-export can count as a caller.  The sources are parsed, never imported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tensorcert"
PERFBENCH = ROOT / "perfbench"


def _definitions(tree: ast.Module, module: str):
    """(qualified name, node) for every function, class and method."""
    stack = [(node, module) for node in tree.body]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{prefix}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                stack += [(child, f"{prefix}.{node.name}") for child in node.body]


def _references(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id, sub
        elif isinstance(sub, ast.Attribute):
            yield sub.attr, sub


def _perfbench_names() -> set[str]:
    names = set()
    for path in PERFBENCH.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names.update(name for name, _ in _references(tree))
        for sub in ast.walk(tree):
            if isinstance(sub, ast.alias):
                names.add(sub.name)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names.add(sub.value)
    return names


def unreached_definitions() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    uses: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for name, node in _references(tree):
            uses.setdefault(name, []).append(node)
    bench = _perfbench_names()
    unreached = []
    for module, tree in sorted(trees.items()):
        for qualname, node in _definitions(tree, module):
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in bench:
                continue
            own = {id(sub) for sub in ast.walk(node)}
            if not any(id(use) not in own for use in uses.get(name, ())):
                unreached.append(qualname)
    return sorted(unreached)


def test_every_src_definition_has_a_caller_outside_the_tests():
    assert (SRC / "verify.py").is_file() and (PERFBENCH / "layertrace.py").is_file()
    unreached = unreached_definitions()
    assert not unreached, "only the tests reach: " + ", ".join(unreached)


def test_package_root_imports_nothing():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imports = [sub for sub in ast.walk(tree) if isinstance(sub, (ast.Import, ast.ImportFrom))]
    assert not imports, f"src/tensorcert/__init__.py imports at line {imports[0].lineno}"
