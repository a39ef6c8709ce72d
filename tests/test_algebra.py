import numpy as np
import pytest

from ppcalc.algebra import (
    AlgebraError,
    QuiverSpec,
    algebra_from_quiver,
    validate_algebra,
)
from ppcalc.linalg import GF, QQ, Mat

F2 = GF(2)


def nilpotent_lambda(field):
    """k[x]/(x^2) by raw structure constants, basis {1, x}."""
    from ppcalc.algebra import Algebra

    mul = [
        [Mat.from_rows(field, [[1, 0]]), Mat.from_rows(field, [[0, 1]])],
        [Mat.from_rows(field, [[0, 1]]), Mat.from_rows(field, [[0, 0]])],
    ]
    return Algebra(field, ["1", "x"], Mat.from_rows(field, [[1, 0]]), mul)


def test_validate_nilpotent_extension():
    a = nilpotent_lambda(QQ)
    assert a.dim == 2
    assert validate_algebra(a).ok


def test_validate_x_squared_one():
    # k[x]/(x^2 - 1): x*x = 1; associativity is forced in dim 2
    from ppcalc.algebra import Algebra

    field = GF(3)
    mul = [
        [Mat.from_rows(field, [[1, 0]]), Mat.from_rows(field, [[0, 1]])],
        [Mat.from_rows(field, [[0, 1]]), Mat.from_rows(field, [[1, 0]])],
    ]
    a = Algebra(field, ["1", "x"], Mat.from_rows(field, [[1, 0]]), mul)
    assert validate_algebra(a).ok


def test_validate_reports_failing_triple():
    # mangled table: x*x = y, x*y = 1, y*x = 0 gives (x*x)*x = 0 != 1 = x*(x*x)
    from ppcalc.algebra import Algebra

    field = QQ

    def rows(*vals):
        return [Mat.from_rows(field, [list(v)]) for v in vals]

    mul = [
        rows([1, 0, 0], [0, 1, 0], [0, 0, 1]),
        rows([0, 1, 0], [0, 0, 1], [1, 0, 0]),
        rows([0, 0, 1], [0, 0, 0], [0, 0, 0]),
    ]
    a = Algebra(field, ["1", "x", "y"], Mat.from_rows(field, [[1, 0, 0]]), mul)
    report = validate_algebra(a)
    assert not report.ok
    assert "('x', 'x', 'x')" in report.problems[0]


def test_element_arithmetic():
    a = nilpotent_lambda(QQ)
    x = a.basis_element("x")
    one = a.one_element()
    assert (x * x).is_zero()
    assert (one + x) * (one - x) == one
    assert repr(x) == "x"


def test_kronecker_quiver():
    q = QuiverSpec(2, [(1, 2, "a"), (1, 2, "b")])
    k = algebra_from_quiver(q, F2)
    assert k.dim == 4
    assert k.labels == ["e1", "e2", "a", "b"]
    assert validate_algebra(k).ok
    e1, e2 = k.basis_element("e1"), k.basis_element("e2")
    assert e1 * e1 == e1 and e2 * e2 == e2
    assert (e1 * e2).is_zero()
    assert e1 + e2 == k.one_element()
    a_, b_ = k.basis_element("a"), k.basis_element("b")
    assert e1 * a_ == a_ and a_ * e2 == a_ and (a_ * e1).is_zero()
    assert (a_ * b_).is_zero()


def test_three_kronecker_dim_5():
    q = QuiverSpec(2, [(1, 2, "a"), (1, 2, "b"), (1, 2, "c")])
    k = algebra_from_quiver(q, QQ)
    assert k.dim == 5


def test_loop_with_square_zero_is_lambda():
    q = QuiverSpec(1, [(1, 1, "x")], relations=[[(1, ["x", "x"])]], cap=2)
    lam = algebra_from_quiver(q, F2)
    assert lam.dim == 2
    assert lam.labels == ["e1", "x"]
    x = lam.basis_element("x")
    assert (x * x).is_zero()
    assert validate_algebra(lam).ok


def test_truncated_free_algebra():
    # k<X,Y>/(X,Y)^2: one vertex, two loops, all length-2 paths zero
    rels = [
        [(1, [u, v])] for u in ("X", "Y") for v in ("X", "Y")
    ]
    q = QuiverSpec(1, [(1, 1, "X"), (1, 1, "Y")], relations=rels, cap=2)
    a = algebra_from_quiver(q, GF(3))
    assert a.dim == 3
    assert validate_algebra(a).ok


def test_non_admissible_cap_errors():
    q = QuiverSpec(1, [(1, 1, "x")], relations=[[(1, ["x", "x", "x"])]], cap=2)
    with pytest.raises(AlgebraError, match="raise the cap"):
        algebra_from_quiver(q, F2)


def test_bad_relations_rejected():
    with pytest.raises(AlgebraError, match="length >= 2"):
        QuiverSpec(1, [(1, 1, "x")], relations=[[(1, ["x"])]])
    with pytest.raises(AlgebraError, match="not composable"):
        QuiverSpec(2, [(1, 2, "a"), (1, 2, "b")], relations=[[(1, ["a", "b"])]])
    with pytest.raises(AlgebraError, match="non-parallel"):
        QuiverSpec(
            2,
            [(1, 2, "a"), (1, 1, "c")],
            relations=[[(1, ["c", "c"]), (1, ["c", "a"])]],
        )


# ---------------------------------------------------------------------------
# algebra_from_quiver against the per-path reduction it replaced.
# ---------------------------------------------------------------------------


def ref_algebra_from_quiver(q, field):
    """The per-path reduction: one membership test per full-length path,
    a greedy residue basis grown one path at a time, and one solve per
    pair of basis paths."""
    from ppcalc.algebra import Algebra, _enumerate_paths, _path_label
    from ppcalc.linalg import Subspace

    paths = _enumerate_paths(q)
    index = {p: i for i, p in enumerate(paths)}
    npaths = len(paths)

    def path_end(p):
        src, word = p
        return q._path_endpoints(word)[1] if word else src

    def unit(i):
        return Mat.from_rows(field, [[1 if k == i else 0 for k in range(npaths)]])

    gen_rows = []
    for rel in q.relations:
        ends = q._path_endpoints(rel[0][1])
        max_len = max(len(word) for _, word in rel)
        for u in paths:
            if path_end(u) != ends[0]:
                continue
            for w in paths:
                if w[0] != ends[1] or len(u[1]) + max_len + len(w[1]) > q.cap:
                    continue
                row = [field.zero()] * npaths
                for coeff, word in rel:
                    p = (u[0], u[1] + tuple(word) + w[1])
                    row[index[p]] = row[index[p]] + field.coerce(coeff)
                gen_rows.append(row)
    ideal = Subspace.from_vectors(field, npaths, gen_rows)

    for p in paths:
        if len(p[1]) == q.cap and not ideal.contains_vector(unit(index[p])):
            raise AlgebraError(
                f"ideal not admissible at cap {q.cap}: path "
                f"{_path_label(*p)} does not reduce to 0; raise the cap "
                "or fix the relations"
            )

    span, picked = ideal, []
    for p in paths:
        v = unit(index[p])
        if not span.contains_vector(v):
            picked.append(p)
            span = span.sum_with(Subspace.from_vectors(field, npaths, v))
    dim = len(picked)

    reducer = Mat.vstack(([ideal.basis] if ideal.dim else []) + [unit(index[p]) for p in picked])
    mul = []
    for p in picked:
        row = []
        for r in picked:
            if r[0] != path_end(p) or len(p[1]) + len(r[1]) > q.cap:
                row.append(Mat.zeros(field, 1, dim))
                continue
            x = reducer.solve_left(unit(index[(p[0], p[1] + r[1])]))
            row.append(x.take_columns(range(x.cols - dim, x.cols)))
        mul.append(row)
    one = Mat.from_rows(field, [[0 if p[1] else 1 for p in picked]])
    return Algebra(field, [_path_label(*p) for p in picked], one, mul, quiver=q, paths=list(picked))


def _words(letters, n):
    words = [[]]
    for _ in range(n):
        words = [w + [c] for w in words for c in letters]
    return words


QUIVERS = {
    "lambda": QuiverSpec(1, [(1, 1, "x")], relations=[[(1, ["x", "x"])]]),
    "kronecker": QuiverSpec(2, [(1, 2, "a"), (1, 2, "b")]),
    "k3": QuiverSpec(2, [(1, 2, "a"), (1, 2, "b"), (1, 2, "c")]),
    "free2_sq": QuiverSpec(
        1, [(1, 1, "x"), (1, 1, "y")], relations=[[(1, w)] for w in _words("xy", 2)]
    ),
    "free2_cube": QuiverSpec(
        1, [(1, 1, "x"), (1, 1, "y")], relations=[[(1, w)] for w in _words("xy", 3)], cap=3
    ),
    "comm_xy_cap3": QuiverSpec(
        1,
        [(1, 1, "x"), (1, 1, "y")],
        relations=[[(1, ["x", "x"])], [(1, ["y", "y"])], [(1, ["x", "y"]), (-1, ["y", "x"])]],
        cap=3,
    ),
    "quantum_xy_cap3": QuiverSpec(
        1,
        [(1, 1, "x"), (1, 1, "y")],
        relations=[[(1, ["x", "x"])], [(1, ["y", "y"])], [(1, ["x", "y"]), (-2, ["y", "x"])]],
        cap=3,
    ),
    "lambda_cap3": QuiverSpec(1, [(1, 1, "x")], relations=[[(1, ["x", "x"])]], cap=3),
    "a3_ab_zero": QuiverSpec(3, [(1, 2, "a"), (2, 3, "b")], relations=[[(1, ["a", "b"])]]),
}

# each names the first full-length path, in path order, that survives
NOT_ADMISSIBLE = {
    "comm_square_cap2": (
        QuiverSpec(
            4,
            [(1, 2, "a"), (2, 4, "b"), (1, 3, "c"), (3, 4, "d")],
            relations=[[(1, ["a", "b"]), (-1, ["c", "d"])]],
        ),
        "a*b",
    ),
    "a3_cap2": (QuiverSpec(3, [(1, 2, "a"), (2, 3, "b")]), "a*b"),
    "cube_zero_cap2": (
        QuiverSpec(1, [(1, 1, "x")], relations=[[(1, ["x", "x", "x"])]]),
        "x*x",
    ),
}

FIELDS = [GF(2), GF(3), GF(1048573), QQ]


def same(a, b):
    """Equal bit for bit: shape, dtype, entry types and every entry."""
    return (
        a.shape == b.shape
        and a.array().dtype == b.array().dtype
        and [type(v) for v in a.array().flat] == [type(v) for v in b.array().flat]
        and a.key() == b.key()
    )


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", sorted(QUIVERS))
def test_algebra_from_quiver_matches_per_path_reduction(name, field):
    q = QUIVERS[name]
    got, want = algebra_from_quiver(q, field), ref_algebra_from_quiver(q, field)
    assert got.labels == want.labels and got.paths == want.paths
    assert same(got.one, want.one)
    assert all(same(g, w) for gr, wr in zip(got.mul, want.mul) for g, w in zip(gr, wr))
    assert got == want and validate_algebra(got).ok


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", sorted(NOT_ADMISSIBLE))
def test_algebra_from_quiver_names_first_surviving_path(name, field):
    q, path = NOT_ADMISSIBLE[name]
    with pytest.raises(AlgebraError) as got:
        algebra_from_quiver(q, field)
    with pytest.raises(AlgebraError) as want:
        ref_algebra_from_quiver(q, field)
    assert str(got.value) == str(want.value)
    assert f"path {path} does not" in str(got.value)


def test_reference_quiver_dimensions():
    dims = {name: algebra_from_quiver(q, QQ).dim for name, q in QUIVERS.items()}
    assert dims == {
        "lambda": 2, "kronecker": 4, "k3": 5, "free2_sq": 3, "free2_cube": 7,
        "comm_xy_cap3": 4, "quantum_xy_cap3": 4, "lambda_cap3": 2, "a3_ab_zero": 5,
    }


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_left_mult_matrix_is_one_product(field):
    algebras = [nilpotent_lambda(field)] + [algebra_from_quiver(q, field) for q in QUIVERS.values()]
    for a in algebras:
        elements = [a.basis_element(i).coeffs for i in range(a.dim)]
        elements.append(Mat.from_rows(field, [[i + 1 for i in range(a.dim)]]))
        for x in elements:
            got = a.left_mult_matrix(x)
            assert same(got, Mat.vstack([x @ a.right_mult_matrix(a.basis_element(j).coeffs) for j in range(a.dim)]))
            # row j of L is x * basis_j
            for j in range(a.dim):
                assert got.row(j) == a.multiply(x, a.basis_element(j).coeffs)


def ref_algebra_eq(a, b):
    """Algebra equality by every structure constant, one nested entry at a time."""
    return (
        a.field == b.field
        and a.labels == b.labels
        and a.one == b.one
        and all(a.mul[i][j] == b.mul[i][j] for i in range(a.dim) for j in range(a.dim))
    )


@pytest.mark.parametrize("field", [F2, GF(3), QQ], ids=str)
def test_algebra_equality_reads_every_structure_constant(field):
    from ppcalc.algebra import Algebra
    from ppcalc.examples import kronecker_algebra

    base = kronecker_algebra(field)
    d = base.dim
    copy = Algebra(field, base.labels, base.one, base.mul)
    assert base == base and base == copy and ref_algebra_eq(base, copy)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                mul = [list(row) for row in base.mul]
                row = mul[i][j].to_rows()[0]
                row[k] = row[k] + 1
                mul[i][j] = Mat.from_rows(field, [row])
                other = Algebra(field, base.labels, base.one, mul)
                assert not ref_algebra_eq(base, other)
                assert base != other and other != base


@pytest.mark.parametrize("field", [F2, GF(3), QQ], ids=str)
def test_basis_element_is_the_identity_row(field):
    from ppcalc.examples import kronecker_algebra

    alg = kronecker_algebra(field)
    ident = Mat.identity(field, alg.dim)
    for i, label in enumerate(alg.labels):
        assert alg.basis_element(i).coeffs == ident.row(i)
        assert alg.basis_element(label).coeffs == ident.row(i)
    for i in (-1, alg.dim, 9):
        with pytest.raises(AlgebraError, match="out of range"):
            alg.basis_element(i)


@pytest.mark.parametrize("field", [F2, GF(3), QQ], ids=str)
def test_mul_is_a_read_only_view_of_the_one_table(field):
    # mul was a list of lists beside the table that products read: after
    # a.mul[1][1] = a.one, a still multiplied as before and still equalled
    # a fresh copy, while io wrote the rewritten mul
    from ppcalc.algebra import Algebra
    from ppcalc.examples import lambda_algebra

    a = lambda_algebra(field)
    with pytest.raises(TypeError):
        a.mul[1][1] = a.one
    with pytest.raises(TypeError):
        a.mul[1] = a.mul[0]
    with pytest.raises(ValueError, match="read-only"):
        a.mul[1][1].array()[0, 0] = field.one()
    assert a == lambda_algebra(field)
    assert all(np.shares_memory(entry.array(), a._table.array()) for row in a.mul for entry in row)
    assert Algebra(field, a.labels, a.one, a.mul) == a
