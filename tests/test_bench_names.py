"""The benchmark in ``perfbench/`` wraps and imports tensorcert names.

Its layer tracer resolves ``(module, name)`` pairs at run time, so deleting or
renaming one of them would break traced runs without failing any other test.
The benchmark files are only read here (parsed, never imported or executed).
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module_constants(path: Path) -> dict:
    """Literal top-level assignments of a source file."""
    out = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                try:
                    out[target.id] = ast.literal_eval(node.value)
                except ValueError:
                    pass
    return out


def _resolves(module: str, name: str) -> bool:
    return hasattr(importlib.import_module(f"tensorcert.{module}"), name)


def test_traced_names_resolve():
    constants = _module_constants(PERFBENCH / "layertrace.py")
    wrapped = [(home, func) for home, func, _ in constants["SPANS"] + constants["COUNTS"]]
    wrapped += [("verify", func) for func in constants["CASES"]]
    wrapped += [("groebner", "buchberger"), ("groebner", "StepBudget")]
    assert len(wrapped) > 10
    missing = [pair for pair in wrapped if not _resolves(*pair)]
    assert not missing


def test_imported_names_resolve():
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tensorcert."):
                module = node.module.split(".", 1)[1]
                imported += [(path.name, module, alias.name) for alias in node.names]
    assert any(source == "checks.py" for source, _, _ in imported)
    missing = [entry for entry in imported if not _resolves(entry[1], entry[2])]
    assert not missing
