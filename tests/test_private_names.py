"""Every module-level function or class in ``src/rpqcalc``, and every
non-dunder method of such a class, is referenced somewhere in the
package outside its own definition, so a helper left behind when its
last caller goes is caught here, and so is public API that only tests
reach.  The export table of ``__init__`` holds names as strings, so it
references nothing."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rpqcalc"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# public names that no command or check suite reaches, and why each stays
TEST_ONLY = {
    "jackson_sum": "the node-sum oracle for definite_integral_poly, until "
                   "a check entry compares the two (ROADMAP item 12)",
    "fermionic_integral": "the exact fermionic moments of ROADMAP item 1 "
                          "give it a route",
    "level_sums": "the Riemann-sum oracle of tests/oracles.py, and "
                  "perfbench/trace_boot.py wraps it by name until the "
                  "benchmark drops its kernel layer (ROADMAP item 16)",
}

# methods that nothing in the package calls, and why each stays
UNCALLED_METHODS = {
    "PadicNumber.sqrt": "perfbench/trace_boot.py wraps it by name "
                        "(PADIC_OPS)",
}


def _names(node):
    """Identifiers that ``node`` loads, reads as attributes or imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _definitions():
    """(file, name) of every module-level definition, and the names the
    package references outside the definition of each."""
    defined, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            own = stmt.name if isinstance(stmt, DEFS) else None
            if own:
                defined.append((path.name, own))
            # a definition's references to itself (recursion) don't count
            used.update(n for n in _names(stmt) if n != own)
    assert defined, "no definitions found: wrong package path?"
    return defined, used


def _is_classmethod(fn) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "classmethod"
               for d in fn.decorator_list)


def _class_refs(node, cls: str, name: str) -> int:
    """How often ``node`` reads ``<cls>.<name>`` or ``cls.<name>``."""
    return sum(isinstance(sub, ast.Attribute) and sub.attr == name
               and isinstance(sub.value, ast.Name)
               and sub.value.id in (cls, "cls")
               for sub in ast.walk(node))


def test_methods_are_referenced():
    """Each non-dunder method of a module-level class is named (as an
    attribute, a name or an import) somewhere in the package outside
    its own body.  A classmethod counts only as ``<Class>.<name>`` or
    ``cls.<name>``, so a like-named method of another class, or an
    attribute such as ``args.<name>``, does not hide it."""
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))]
    counts = Counter(name for tree in trees for name in _names(tree))
    methods = [(cls.name, fn) for tree in trees for cls in tree.body
               if isinstance(cls, ast.ClassDef) for fn in cls.body
               if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not fn.name.startswith("__")]
    assert methods, "no methods found: wrong package path?"
    uncalled = set()
    for cls, fn in methods:
        if _is_classmethod(fn):
            total = sum(_class_refs(tree, cls, fn.name) for tree in trees)
            own = _class_refs(fn, cls, fn.name)
        else:
            total, own = counts[fn.name], list(_names(fn)).count(fn.name)
        if total == own:
            uncalled.add(f"{cls}.{fn.name}")
    unlisted = uncalled - set(UNCALLED_METHODS)
    assert not unlisted, f"methods nothing in the package calls: {unlisted}"
    stale = set(UNCALLED_METHODS) - uncalled
    assert not stale, f"allowlisted but gone or called: {stale}"


def test_private_definitions_are_referenced():
    defined, used = _definitions()
    unused = [d for d in defined if d[1].startswith("_")
              and not d[1].startswith("__") and d[1] not in used]
    assert not unused, f"private definitions nothing references: {unused}"


def test_public_definitions_are_referenced():
    defined, used = _definitions()
    public = {name for _, name in defined if not name.startswith("_")}
    unused = [d for d in defined if d[1] in public - used - set(TEST_ONLY)]
    assert not unused, f"public definitions only tests reach: {unused}"
    stale = set(TEST_ONLY) - (public - used)
    assert not stale, f"allowlisted but gone or referenced: {stale}"


def test_cli_builds_no_identity_suite():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    assert not {"SuiteReport", "IdentityResult"} & set(_names(tree))


def test_error_classes_are_raised():
    """Each exception class of ``rpqcalc.errors`` but the base
    ``RpqError`` is raised by some ``raise`` statement in the package,
    so an error no code path can produce goes with its last raiser."""
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    classes = {stmt.name for stmt in tree.body
               if isinstance(stmt, ast.ClassDef)} - {"RpqError"}
    assert classes, "no error classes found: wrong package path?"
    raised = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                raised.update(_names(exc))
    assert not classes - raised, \
        f"error classes nothing raises: {sorted(classes - raised)}"
