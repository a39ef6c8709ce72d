"""JSON (de)serialisation for algebras, modules, formulas and functor data.

Referenced objects (an algebra inside a module file, say) may be inline
JSON objects or string paths resolved relative to the referring file.
Fields are written as "q" for the rationals and "fp:P" for prime fields;
rational scalars as ints or "a/b" strings.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from fractions import Fraction
from functools import partial

from .algebra import Algebra, QuiverSpec, algebra_from_quiver, validate_algebra
from .formulas import PpFormula, PpPair
from .interp import InterpData
from .linalg import GF, QQ, FieldSpec, Mat
from .modules import Bimodule, FDModule, validate_module

__all__ = [
    "ParseError",
    "field_to_str",
    "field_from_str",
    "algebra_to_json",
    "load_algebra",
    "quiver_from_json",
    "module_to_json",
    "load_module",
    "bimodule_to_json",
    "load_bimodule",
    "formula_to_json",
    "load_formula",
    "pair_to_json",
    "load_pair",
    "interp_to_json",
    "load_interp",
    "vector_from_json",
    "tuple_from_json",
    "read_json",
    "dumps",
]


class ParseError(ValueError):
    pass


def dumps(payload) -> str:
    # rationals in a payload (QQ matrix rows) print as in module files
    return json.dumps(payload, sort_keys=True, indent=2, default=partial(_scalar_out, QQ))


def read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}")


def _resolve(ref, base_dir: str):
    if isinstance(ref, str):
        path = ref if os.path.isabs(ref) else os.path.join(base_dir, ref)
        return read_json(path), os.path.dirname(path)
    if isinstance(ref, dict):
        return ref, base_dir
    raise ParseError(f"expected an object or a path, got {type(ref).__name__}")


def field_to_str(field: FieldSpec) -> str:
    return "q" if not field.is_prime_field else f"fp:{field.p}"


def field_from_str(s: str) -> FieldSpec:
    if s == "q":
        return QQ
    if s.startswith("fp:"):
        try:
            return GF(int(s[3:]))
        except ValueError as exc:
            raise ParseError(f"bad field spec {s!r}: {exc}")
    raise ParseError(f"bad field spec {s!r} (expected 'q' or 'fp:P')")


def _scalar_out(field, x):
    if field.is_prime_field:
        return int(x)
    x = Fraction(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _scalar_in(field, v):
    """A JSON scalar as a canonical field element; strings are "a" or "a/b".

    A float is accepted only when it is an integer: 1.5 has no meaning
    over GF(p), and 0.1 over QQ is not the rational the user wrote.  A
    boolean is not a scalar, though Python counts true as 1.
    """
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise ParseError(f'bad scalar {v!r}: expected a number or an "a/b" string')
    if isinstance(v, float):
        if not v.is_integer():
            raise ParseError(f'bad scalar {v!r}: not an integer; write a fraction as "a/b"')
        v = int(v)
    parts = (v, 1)
    if isinstance(v, str):
        num, slash, den = v.partition("/")
        try:
            parts = (int(num), int(den) if slash else 1)
        except ValueError:
            raise ParseError(f'bad scalar {v!r}: expected "a" or "a/b" with integers a and b') from None
    try:
        return field.coerce(Fraction(*parts))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad scalar {v!r}: {exc}")


@contextmanager
def _parsing(noun: str):
    """Re-raise a KeyError, TypeError or ValueError as ParseError("bad <noun>: ...")."""
    try:
        yield
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad {noun}: {exc}")


def _count(v, what: str) -> int:
    """v, which must be a non-negative int (not a bool); what names it in the error."""
    if type(v) is not int or v < 0:
        raise ParseError(f"{what} must be a non-negative integer, got {v!r}")
    return v


def _label(v) -> str:
    """v, which must be a non-empty string: an arrow label."""
    if not isinstance(v, str) or not v:
        raise ParseError(f"arrow label must be a non-empty string, got {v!r}")
    return v


def _word(v) -> list:
    """v, which must be a list of arrow labels: a relation's path."""
    if not isinstance(v, list):
        raise ParseError(f"relation path must be a list of arrow labels, got {v!r}")
    return [_label(label) for label in v]


def _vec_out(field, m: Mat):
    return [_scalar_out(field, x) for x in m.to_rows()[0]]


def _mat_out(field, m: Mat):
    return [[_scalar_out(field, x) for x in row] for row in m.to_rows()]


def _mat_in(field, rows) -> Mat:
    return Mat.from_rows(field, [[_scalar_in(field, x) for x in row] for row in rows])


def _vector_in(m: FDModule, coords) -> Mat:
    if not isinstance(coords, list) or len(coords) != m.dim:
        raise ParseError(f"bad vector {coords!r}: expected a list of {m.dim} coordinates")
    return Mat.from_rows(m.field, [[_scalar_in(m.field, x) for x in coords]])


def vector_from_json(m: FDModule, text: str) -> Mat:
    """An element of m from a JSON list of dim m coordinates."""
    with _parsing("vector"):
        return _vector_in(m, json.loads(text))


def tuple_from_json(m: FDModule, text: str) -> list:
    """A tuple of elements of m from a JSON list of coordinate lists."""
    with _parsing("tuple"):
        return [_vector_in(m, coords) for coords in json.loads(text)]


# -- algebras ---------------------------------------------------------------


def quiver_from_json(obj, field: FieldSpec) -> QuiverSpec:
    """A quiver with relations; its relation coefficients are read over field."""
    with _parsing("quiver"):
        return QuiverSpec(
            _count(obj["vertices"], "vertices"),
            [
                (_count(s, "arrow source"), _count(t, "arrow target"), _label(label))
                for s, t, label in obj["arrows"]
            ],
            relations=[
                [(_scalar_in(field, coeff), _word(word)) for coeff, word in rel]
                for rel in obj.get("relations", [])
            ],
            cap=_count(obj.get("cap", 2), "cap"),
        )


def algebra_to_json(a: Algebra):
    out = {
        "field": field_to_str(a.field),
        "basis": list(a.labels),
        "one": _vec_out(a.field, a.one),
        "mul": [[_vec_out(a.field, a.mul[i][j]) for j in range(a.dim)] for i in range(a.dim)],
    }
    if a.quiver is not None:
        out["quiver"] = {
            "vertices": a.quiver.n_vertices,
            "arrows": [list(arr) for arr in a.quiver.arrows],
            "relations": [
                [[coeff, list(word)] for coeff, word in rel]
                for rel in a.quiver.relations
            ],
            "cap": a.quiver.cap,
        }
    return out


def load_algebra(ref, base_dir: str = ".", field: FieldSpec = None) -> Algebra:
    obj, base_dir = _resolve(ref, base_dir)
    if "vertices" in obj:  # a quiver file; the field comes from the caller
        if field is None:
            raise ParseError("a quiver file needs an explicit --field")
        with _parsing("quiver"):
            return algebra_from_quiver(quiver_from_json(obj, field), field)
    with _parsing("algebra"):
        f = field_from_str(obj["field"])
        labels = list(obj["basis"])
        one = _mat_in(f, [obj["one"]])
        mul = tuple(tuple(_mat_in(f, [row]) for row in block) for block in obj["mul"])
        if "quiver" in obj:
            built = algebra_from_quiver(quiver_from_json(obj["quiver"], f), f)
            if built.labels != labels or built.one != one or built.mul != mul:
                raise ParseError("algebra data disagrees with its quiver presentation")
            return built
        a = Algebra(f, labels, one, mul)
    report = validate_algebra(a)
    if not report.ok:
        raise ParseError(f"algebra fails validation: {report.problems[0]}")
    return a


# -- modules ----------------------------------------------------------------


def module_to_json(m: FDModule, algebra_ref=None):
    a = m.algebra
    return {
        "algebra": algebra_ref if algebra_ref is not None else algebra_to_json(a),
        "dim": m.dim,
        "action": {a.labels[l]: _mat_out(a.field, m.action[l]) for l in range(a.dim)},
    }


def load_module(ref, base_dir: str = ".", algebra: Algebra = None) -> FDModule:
    obj, base_dir = _resolve(ref, base_dir)
    with _parsing("module"):
        a = algebra if algebra is not None else load_algebra(obj["algebra"], base_dir)
        action = [_mat_in(a.field, obj["action"][lab]) for lab in a.labels]
        m = FDModule(a, _count(obj["dim"], "dim"), action)
    report = validate_module(m)
    if not report.ok:
        raise ParseError(f"module fails validation: {report.problems[0]}")
    return m


def bimodule_to_json(b: Bimodule, left_ref=None, right_ref=None):
    return {
        "left_algebra": left_ref if left_ref is not None else algebra_to_json(b.S),
        "algebra": right_ref if right_ref is not None else algebra_to_json(b.R),
        "dim": b.dim,
        "left_action": {
            b.S.labels[l]: _mat_out(b.field, b.left_action[l]) for l in range(b.S.dim)
        },
        "action": {
            b.R.labels[l]: _mat_out(b.field, b.right_action[l]) for l in range(b.R.dim)
        },
        "generators": [_vec_out(b.field, g) for g in b.generators],
    }


def load_bimodule(ref, base_dir: str = ".") -> Bimodule:
    obj, base_dir = _resolve(ref, base_dir)
    with _parsing("bimodule"):
        s = load_algebra(obj["left_algebra"], base_dir)
        r = load_algebra(obj["algebra"], base_dir)
        left = [_mat_in(s.field, obj["left_action"][lab]) for lab in s.labels]
        right = [_mat_in(r.field, obj["action"][lab]) for lab in r.labels]
        gens = [_mat_in(r.field, [g]) for g in obj["generators"]]
        return Bimodule(s, r, _count(obj["dim"], "dim"), left, right, gens)


# -- formulas ---------------------------------------------------------------


def formula_to_json(phi: PpFormula, algebra_ref=None):
    a = phi.algebra
    blocks = phi.blocks().tolist()
    return {
        "algebra": algebra_ref if algebra_ref is not None else algebra_to_json(a),
        "free": phi.n,
        "bound": phi.c,
        "matrix": [[[_scalar_out(a.field, x) for x in coeffs] for coeffs in row] for row in blocks],
    }


def load_formula(ref, base_dir: str = ".", algebra: Algebra = None) -> PpFormula:
    obj, base_dir = _resolve(ref, base_dir)
    with _parsing("formula"):
        a = algebra if algebra is not None else load_algebra(obj["algebra"], base_dir)
        n, c = _count(obj["free"], "free"), _count(obj["bound"], "bound")
        matrix = obj["matrix"]
        e = len(matrix[0]) if matrix else 0
        entries = {}
        for i, row in enumerate(matrix):
            for j, coeffs in enumerate(row):
                entries[(i, j)] = a.element([_scalar_in(a.field, x) for x in coeffs])
        return PpFormula(a, n, c, e, entries)


def pair_to_json(pair: PpPair, algebra_ref=None):
    return {
        "top": formula_to_json(pair.top, algebra_ref),
        "bottom": formula_to_json(pair.bottom, algebra_ref),
    }


def load_pair(ref, base_dir: str = ".", algebra: Algebra = None) -> PpPair:
    obj, base_dir = _resolve(ref, base_dir)
    with _parsing("pair"):
        top = load_formula(obj["top"], base_dir, algebra)
        bottom = load_formula(obj["bottom"], base_dir, algebra or top.algebra)
        return PpPair(top, bottom)


# -- interpretation data ----------------------------------------------------


def interp_to_json(data: InterpData, r_ref=None, s_ref=None):
    return {
        "R": r_ref if r_ref is not None else algebra_to_json(data.R),
        "S": s_ref if s_ref is not None else algebra_to_json(data.S),
        "m": data.m,
        "phi": formula_to_json(data.phi, r_ref),
        "psi": formula_to_json(data.psi, r_ref),
        "rho": {
            data.S.labels[k]: formula_to_json(data.rhos[k], r_ref)
            for k in range(data.S.dim)
        },
    }


def load_interp(ref, base_dir: str = ".") -> InterpData:
    obj, base_dir = _resolve(ref, base_dir)
    with _parsing("interpretation data"):
        r = load_algebra(obj["R"], base_dir)
        s = load_algebra(obj["S"], base_dir)
        phi = load_formula(obj["phi"], base_dir, r)
        psi = load_formula(obj["psi"], base_dir, r)
        rhos = [load_formula(obj["rho"][lab], base_dir, r) for lab in s.labels]
        return InterpData(r, s, _count(obj["m"], "m"), PpPair(phi, psi), rhos)
