"""Every private top-level name in src/ppcalc has a use.

A private function, class or constant that nothing in src/ppcalc or
perfbench/ names besides its own definition has no caller, and dead code
is deleted rather than kept.  A use is a name token in code, or a string
literal that is exactly the name, as perfbench/tracer.py names some of
the functions it wraps.  Comments and docstrings are not uses.
"""

import ast
import pathlib
import tokenize
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ppcalc"
SCANNED = sorted(SRC.rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))


def private_definitions(path):
    """The private names a module binds at top level by def, class or assignment."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def name_uses(paths):
    """How often each identifier occurs as a name token or a whole string literal."""
    counts = Counter()
    for path in paths:
        with open(path, "rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type == tokenize.NAME:
                    counts[tok.string] += 1
                elif tok.type == tokenize.STRING:
                    try:
                        value = ast.literal_eval(tok.string)
                    except (ValueError, SyntaxError):
                        continue
                    if isinstance(value, str) and value.isidentifier():
                        counts[value] += 1
    return counts


def test_private_top_level_names_are_used():
    defined = Counter()
    where = {}
    for path in sorted(SRC.rglob("*.py")):
        for name in private_definitions(path):
            defined[name] += 1
            where[name] = path.relative_to(ROOT)
    assert defined, "no private definitions found: the scan is looking in the wrong place"
    uses = name_uses(SCANNED)
    dead = sorted(f"{where[n]}: {n}" for n in defined if uses[n] <= defined[n])
    assert not dead, f"private names defined but never used: {dead}"
