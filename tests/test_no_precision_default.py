"""``rpqcalc.padic`` has no precision knob: no module-level precision
constant, and no precision default on ``PadicNumber.zero``, ``.one`` or
``.from_rational``.  Every digit count in the p-adic layer comes from
an operand or from the caller, so a hidden default cannot cap a result
(a 32-digit one once capped ``carlitz --method moments``)."""

import ast
import inspect
from pathlib import Path

import pytest

from rpqcalc.padic import PadicNumber

PADIC = Path(__file__).resolve().parent.parent / "src" / "rpqcalc" / "padic.py"


def _module_names(tree):
    """The names that the module's top-level statements assign."""
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else \
            [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
        for target in targets:
            yield from (n.id for n in ast.walk(target)
                        if isinstance(n, ast.Name))


def test_no_module_level_precision_constant():
    names = list(_module_names(ast.parse(PADIC.read_text())))
    assert names, "no module-level names found: wrong path?"
    knobs = [n for n in names if "prec" in n.lower()]
    assert not knobs, f"precision constants in rpqcalc.padic: {knobs}"


@pytest.mark.parametrize("name", ["zero", "one", "from_rational"])
def test_constructors_take_no_precision_default(name):
    params = inspect.signature(getattr(PadicNumber, name)).parameters
    assert list(params)[-1] in ("abs_precision", "prec")
    defaults = [p for p in params.values() if p.default is not p.empty]
    assert not defaults, f"PadicNumber.{name} defaults {defaults}"
