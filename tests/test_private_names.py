"""Every module-level private function or class in ``src/rpqcalc`` is
referenced somewhere in the package outside its own definition, so a
helper left behind when its last caller goes is caught here."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rpqcalc"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node):
    """Identifiers that ``node`` loads, reads as attributes or imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_private_definitions_are_referenced():
    defined, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            own = None
            if isinstance(stmt, DEFS) and stmt.name.startswith("_") \
                    and not stmt.name.startswith("__"):
                own = stmt.name
                defined.append(f"{path.name}:{own}")
            # a definition's references to itself (recursion) don't count
            used.update(n for n in _names(stmt) if n != own)
    assert defined, "no private definitions found: wrong package path?"
    unused = [d for d in defined if d.split(":")[1] not in used]
    assert not unused, f"private definitions nothing references: {unused}"
