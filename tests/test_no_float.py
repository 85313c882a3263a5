"""The README promises no floating point in the library.  The one
float in ``src/rpqcalc`` is the infinity sentinel ``math.inf``: the name
``float`` appears nowhere, there are no float literals, and no other
float-valued ``math`` name appears anywhere."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rpqcalc"
# math names whose values are exact integers, or the infinity sentinel
EXACT_MATH = frozenset(("comb", "factorial", "gcd", "inf", "isqrt", "lcm",
                        "perm", "prod"))


def _violations(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Name) and node.id == "float":
            yield f"{where}: the name float"
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield f"{where}: float literal {node.value!r}"
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "math" and node.attr not in EXACT_MATH:
            yield f"{where}: math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            yield from (f"{where}: from math import {a.name}"
                        for a in node.names if a.name not in EXACT_MATH)


def test_no_floating_point_outside_the_known_site():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, "no modules found: wrong package path?"
    found = [v for path in paths for v in _violations(path)]
    assert not found, f"floating point in src/rpqcalc: {found}"

