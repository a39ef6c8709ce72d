"""No code in src/ppcalc restacks a module's action matrices.

FDModule stores its actions once, as the read-only matrix FDModule.stack,
and every product reads that matrix.  A call of Mat.vstack, Mat.hstack
or Mat.flat_stack with an `.action` attribute anywhere in its arguments
(alone, in a list, unpacked, or iterated in a comprehension) builds a
second copy of the same numbers.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ppcalc"
STACKERS = {"vstack", "hstack", "flat_stack"}


def restacks(source: str):
    """The line numbers of the Mat stacking calls in source that read an `.action`."""
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in STACKERS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "Mat"
        ):
            args = node.args + [kw.value for kw in node.keywords]
            if any(isinstance(sub, ast.Attribute) and sub.attr == "action"
                   for arg in args for sub in ast.walk(arg)):
                yield node.lineno


def test_the_scan_finds_each_form_of_restack():
    sample = "\n".join([
        "Mat.vstack(m.action)",
        "Mat.hstack([ident, *m.action])",
        "Mat.flat_stack(self.action)",
        "Mat.vstack([a.take_rows(g) for a in m.action])",
        "Mat.vstack(mats=m.action)",
        "Mat.vstack([m.stack, ident])",
        "m.stack.reshape(n, d * d)",
    ])
    assert list(restacks(sample)) == [1, 2, 3, 4, 5]


def test_no_module_restacks_its_actions():
    paths = sorted(SRC.rglob("*.py"))
    assert paths, "no sources found: the scan is looking in the wrong place"
    found = [f"{p.name}:{line}" for p in paths for line in restacks(p.read_text())]
    assert not found, f"actions restacked instead of reading FDModule.stack: {found}"
