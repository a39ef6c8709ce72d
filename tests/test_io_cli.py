import json
import os
from fractions import Fraction

import pytest

from ppcalc.cli import main
from ppcalc.examples import (
    embedding_bimodule,
    kronecker_algebra,
    lambda_algebra,
    simple_lambda_module,
)
from ppcalc.formulas import PpPair, equivalent, pp_type_generator, top_formula, zero_formula
from ppcalc.interp import hom_interp_data
from ppcalc.io import (
    ParseError,
    _scalar_in,
    algebra_to_json,
    bimodule_to_json,
    dumps,
    formula_to_json,
    interp_to_json,
    load_algebra,
    load_bimodule,
    load_formula,
    load_interp,
    load_module,
    load_pair,
    module_to_json,
    pair_to_json,
)
from ppcalc.linalg import GF, QQ
from ppcalc.modules import direct_sum, regular_module

from test_formulas import ann_formula, div_formula, ref_implies
from test_modules import random_basis, regular_kronecker


# -- round trips -------------------------------------------------------


def test_algebra_roundtrip(lam2, kron2, lamq):
    for a in (lam2, kron2, lamq):
        again = load_algebra(algebra_to_json(a))
        assert again == a
        if a.quiver is not None:
            assert again.quiver is not None  # enumeration stays available


def test_module_roundtrip(reg2, s1_2):
    for m in (reg2, s1_2):
        assert load_module(module_to_json(m)) == m


def test_rational_scalars_roundtrip(lamq):
    from fractions import Fraction

    from ppcalc.formulas import PpFormula

    half = lamq.element([Fraction(1, 2), Fraction(-2, 3)])
    phi = PpFormula(lamq, 1, 0, 1, {(0, 0): half})
    assert load_formula(formula_to_json(phi)) == phi


def test_formula_and_pair_roundtrip(lam2, s1_2, reg2):
    div, ann = div_formula(lam2), ann_formula(lam2)
    for phi in (div, ann, pp_type_generator(reg2, [reg2.element([0, 1])])):
        again = load_formula(formula_to_json(phi))
        assert again == phi
    pair = PpPair(ann, div)
    again = load_pair(pair_to_json(pair))
    assert again.top == pair.top and again.bottom == pair.bottom


def test_bimodule_roundtrip(bim2):
    again = load_bimodule(bimodule_to_json(bim2))
    assert again == bim2


def test_interp_roundtrip(bim2):
    data = hom_interp_data(bim2)
    again = load_interp(interp_to_json(data))
    assert again.m == data.m
    assert again.phi == data.phi and again.psi == data.psi
    assert again.rhos == data.rhos


def test_parse_errors():
    with pytest.raises(ParseError):
        load_algebra({"field": "fp:4", "basis": [], "one": [], "mul": []})
    with pytest.raises(ParseError):
        load_algebra({"basis": ["1"]})
    with pytest.raises(ParseError, match="validation"):
        # x * 1 = 1 breaks the unit axiom
        load_algebra(
            {
                "field": "fp:2",
                "basis": ["1", "x"],
                "one": [1, 0],
                "mul": [[[1, 0], [0, 1]], [[1, 0], [0, 0]]],
            }
        )


# -- CLI ---------------------------------------------------------------


@pytest.fixture()
def files(tmp_path, lam2, kron2, bim2, s1_2, reg2):
    paths = {}

    def put(name, payload):
        p = tmp_path / name
        p.write_text(dumps(payload))
        paths[name] = str(p)
        return str(p)

    put("lam.alg", algebra_to_json(lam2))
    put("kron.alg", algebra_to_json(kron2))
    put("bim.bim", bimodule_to_json(bim2, left_ref="lam.alg", right_ref="kron.alg"))
    put("s1.mod", module_to_json(s1_2, algebra_ref="lam.alg"))
    put("reg.mod", module_to_json(reg2, algebra_ref="lam.alg"))
    put("div.pp", formula_to_json(div_formula(lam2), algebra_ref="lam.alg"))
    put("ann.pp", formula_to_json(ann_formula(lam2), algebra_ref="lam.alg"))
    put(
        "quiver.q",
        {
            "vertices": 1,
            "arrows": [[1, 1, "x"]],
            "relations": [[[1, ["x", "x"]]]],
            "cap": 2,
        },
    )
    data = hom_interp_data(bim2)
    put("hom.interp", interp_to_json(data, r_ref="kron.alg", s_ref="lam.alg"))
    put("bmod.mod", module_to_json(bim2.right_module(), algebra_ref="kron.alg"))
    from ppcalc.interp import isolating_pair

    iso = isolating_pair(s1_2, s1_2.element([1]), [s1_2, reg2])
    put("iso.pair", pair_to_json(iso.pair, algebra_ref="lam.alg"))
    put("zero.mod", module_to_json(__import__("ppcalc.modules", fromlist=["zero_module"]).zero_module(lam2), algebra_ref="lam.alg"))
    return paths


def test_cli_implies(files, capsys):
    assert main(["implies", "--psi", files["div.pp"], "--phi", files["ann.pp"]]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["implies", "--psi", files["ann.pp"], "--phi", files["div.pp"]]) == 0
    assert capsys.readouterr().out.strip() == "false"


def test_cli_implies_on_loaded_formulas(files, tmp_path, capsys, lam2, kron2, reg2):
    # loaded formulas carry no realisation: implies builds both by the fp
    # route; files puts lam.alg and kron.alg beside them in tmp_path
    kreg = regular_module(kron2)
    e1, e2 = (kreg.basis_vector(i) for i in range(2))
    made = {
        "lam.alg": [
            div_formula(lam2),
            ann_formula(lam2),
            pp_type_generator(reg2, [reg2.element([0, 1])]),
            top_formula(lam2, 1),
            zero_formula(lam2, 1),
        ],
        "kron.alg": [
            pp_type_generator(kreg, [e1, e2]),
            pp_type_generator(kreg, [e2, e1]),
            pp_type_generator(kreg, [e1, kreg.zero_vector()]),
            top_formula(kron2, 2),
            zero_formula(kron2, 2),
        ],
    }
    for ref, formulas in made.items():
        paths = []
        for i, phi in enumerate(formulas):
            path = tmp_path / f"{ref}.{i}.pp"
            path.write_text(dumps(formula_to_json(phi, algebra_ref=ref)))
            paths.append(str(path))
        for psi_path in paths:
            for phi_path in paths:
                want = ref_implies(load_formula(psi_path), load_formula(phi_path))
                assert main(["implies", "--psi", psi_path, "--phi", phi_path]) == 0
                assert capsys.readouterr().out == ("true" if want else "false") + "\n"
                assert main(["--out", "json", "implies", "--psi", psi_path, "--phi", phi_path]) == 0
                assert capsys.readouterr().out == dumps({"implies": want}) + "\n"


def test_cli_eval_zero_module(files, capsys):
    assert main(["eval", "--formula", files["ann.pp"], "--module", files["zero.mod"]]) == 0
    assert "dimension 0" in capsys.readouterr().out


def test_cli_eval_json(files, capsys):
    assert (
        main(["--out", "json", "eval", "--formula", files["ann.pp"], "--module", files["reg.mod"]])
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["dimension"] == 1


def test_cli_freereal_and_pptype(files, capsys):
    assert main(["freereal", "--formula", files["div.pp"]]) == 0
    assert "dimension 2" in capsys.readouterr().out
    assert main(["--out", "json", "pptype", "--module", files["reg.mod"], "--tuple", "[[0, 1]]"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bound"] == 2


def test_cli_beta_and_verify(files, capsys):
    assert main(["beta", "--bimodule", files["bim.bim"], "--formula", files["div.pp"]]) == 0
    assert "arity 2" in capsys.readouterr().out
    code = main(
        [
            "verify-lattice",
            "--bimodule", files["bim.bim"],
            "--sample", files["div.pp"], files["ann.pp"],
        ]
    )
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_verify_lattice_realises_each_sample_formula_once(files, capsys, monkeypatch):
    import ppcalc.formulas

    built = []
    fp_module = ppcalc.formulas.fp_module
    monkeypatch.setattr(ppcalc.formulas, "fp_module", lambda *a: built.append(a) or fp_module(*a))
    sample = [files["div.pp"], files["ann.pp"], files["div.pp"]]
    assert main(["verify-lattice", "--bimodule", files["bim.bim"], "--sample", *sample]) == 0
    assert len(built) == len(sample)


def test_cli_verify_lattice_text_reports_pairs_and_images_built(files, capsys):
    args = ["verify-lattice", "--bimodule", files["bim.bim"], "--cap", "2"]
    assert main(["--out", "json", *args]) == 0
    hom = json.loads(capsys.readouterr().out)["homomorphism"]
    assert 0 < hom["images_built"] <= 2 * hom["pairs_checked"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert f"homomorphism PASS ({hom['pairs_checked']} pairs, {hom['images_built']} images built)" in out


def test_cli_verify_lattice_text_reports_laws_decided(files, capsys):
    args = ["verify-lattice", "--bimodule", files["bim.bim"], "--cap", "2"]
    assert main(["--out", "json", *args]) == 0
    hom = json.loads(capsys.readouterr().out)["homomorphism"]
    assert 0 < hom["laws_decided"] <= hom["pairs_checked"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert f"{hom['images_built']} images built) with {hom['laws_decided']} laws decided, embedding PASS" in out


def test_cli_interp_apply(files, capsys):
    assert main(["interp-apply", "--data", files["hom.interp"], "--module", files["bmod.mod"]]) == 0
    assert "dimension 2" in capsys.readouterr().out


def test_cli_isolate(files, capsys):
    assert main(["isolate", "--module", files["s1.mod"], "--element", "[1]", "--cap", "2"]) == 0
    assert "c = 1" in capsys.readouterr().out


def test_cli_pullback(files, capsys):
    assert main(["pullback", "--data", files["hom.interp"], "--pair", files["iso.pair"], "--d", "1"]) == 0
    out = capsys.readouterr().out
    assert "n_1 = 40" in out


def test_cli_bounds(files, capsys):
    assert main(["bounds", "--d", "1", "--m", "2", "--p", "2", "--dim-r", "4"]) == 0
    assert "n_1 = 16, b_1 = 72" in capsys.readouterr().out


def test_cli_inventory_quiver_needs_field(files, capsys):
    assert main(["inventory", "--algebra", files["quiver.q"], "--cap", "2"]) == 2
    capsys.readouterr()
    assert (
        main(["--field", "fp:2", "inventory", "--algebra", files["quiver.q"], "--cap", "2"])
        == 0
    )
    assert "[1, 2]; 3 candidates decided of 18 assignments, 2 middle terms of extensions decided" in (
        capsys.readouterr().out
    )


LOOP_QUIVER = {"vertices": 1, "arrows": [[1, 1, "x"]], "relations": [[[1, ["x", "x"]]]], "cap": 2}


def two_loops(coeff):
    """k<x, y>/(x^2, y^2, xy + coeff yx) as a quiver file."""
    rels = [[[1, ["x", "x"]]], [[1, ["y", "y"]]], [[1, ["x", "y"]], [coeff, ["y", "x"]]]]
    return {"vertices": 1, "arrows": [[1, 1, "x"], [1, 1, "y"]], "relations": rels, "cap": 3}


def quiver_inventory(tmp_path, capsys, quiver):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(quiver))
    code = main(["--field", "fp:3", "--out", "json", "inventory", "--algebra", str(path), "--cap", "2"])
    return code, capsys.readouterr()


@pytest.mark.parametrize(
    "change",
    [
        {"vertices": 2.0},
        {"cap": 2.5},
        {"arrows": [[1.7, 1, "x"]]},
        {"vertices": True},
        {"relations": [[[True, ["x", "x"]]]]},
        {"relations": [[[1.5, ["x", "x"]]]]},
        {"vertices": 2, "arrows": [[1, 2, None]], "relations": []},
        {"vertices": 2, "arrows": [[1, 2, 7]], "relations": []},
        {"relations": [[[1, "xx"]]]},
    ],
    ids=["float-vertices", "float-cap", "float-endpoint", "bool-vertices", "bool-coeff", "float-coeff",
         "null-label", "int-label", "string-word"],
)
def test_cli_malformed_quiver_file_is_a_parse_error(tmp_path, capsys, change):
    # each crashed with a TypeError, was read as an int or a string (exit 0),
    # or exited 1
    code, out = quiver_inventory(tmp_path, capsys, {**LOOP_QUIVER, **change})
    assert code == 2
    assert "parse error" in out.err


def test_cli_quiver_coefficient_is_read_as_a_fraction(tmp_path, capsys):
    # over GF(3), 1/2 = 2; 1 gives another algebra
    half, two, one = (quiver_inventory(tmp_path, capsys, two_loops(c)) for c in ("1/2", 2, 1))
    assert half[0] == two[0] == one[0] == 0
    assert half[1].out == two[1].out != one[1].out


def test_cli_inventory_reports_the_kac_stop(files, capsys):
    # Kronecker over GF(2) at cap 4: 11 members from 428 assignments; the
    # walk of each dimension vector stops at its last member
    assert main(["inventory", "--algebra", files["kron.alg"], "--cap", "4"]) == 0
    assert "; 128 candidates decided of 428 assignments, 0 middle terms" in capsys.readouterr().out
    assert main(["--out", "json", "inventory", "--algebra", files["kron.alg"], "--cap", "4"]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"count", "members"}


def test_cli_check_controlled_and_roundtrip(files, capsys):
    assert main(["check-controlled", "--bimodule", files["bim.bim"], "--cap", "2"]) == 0
    capsys.readouterr()
    assert main(["roundtrip", "--bimodule", files["bim.bim"], "--module", files["reg.mod"]]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_roundtrip_over_rationals(tmp_path, capsys, lamq):
    kronq = kronecker_algebra(QQ)
    for name, payload in (
        ("lam.alg", algebra_to_json(lamq)),
        ("kron.alg", algebra_to_json(kronq)),
        ("bim.bim", bimodule_to_json(embedding_bimodule(lamq, kronq), left_ref="lam.alg", right_ref="kron.alg")),
        ("s1.mod", module_to_json(simple_lambda_module(lamq), algebra_ref="lam.alg")),
    ):
        (tmp_path / name).write_text(dumps(payload))
    args = ["--bimodule", str(tmp_path / "bim.bim"), "--module", str(tmp_path / "s1.mod")]
    assert main(["--out", "json", "roundtrip", *args]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["dims"] == [1, 1]
    # a 1 x 1 witness: any nonzero scalar
    assert [len(row) for row in report["witness"]] == [1] and report["witness"][0][0] != 0


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.pp"
    bad.write_text("{not json")
    assert main(["freereal", "--formula", str(bad)]) == 2


def _edit(path, **changes):
    payload = json.loads(open(path).read())
    payload.update(changes)
    with open(path, "w") as fh:
        fh.write(dumps(payload))


@pytest.mark.parametrize("dim", [3, "2", -2, True], ids=["disagrees", "string", "negative", "bool"])
def test_cli_malformed_module_exit_code(files, capsys, dim):
    # the actions of reg.mod are 2 x 2
    _edit(files["reg.mod"], dim=dim)
    assert main(["eval", "--formula", files["ann.pp"], "--module", files["reg.mod"]]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("free", 1.5), ("free", True), ("free", -1), ("bound", 2.0), ("bound", "0")],
    ids=["free-float", "free-bool", "free-negative", "bound-float", "bound-string"],
)
@pytest.mark.parametrize("command", ["eval", "freereal"])
def test_cli_malformed_formula_arity_exit_code(files, capsys, key, value, command):
    # ann.pp has free 1 and bound 0; True was read as 1 and floats raised TypeError
    _edit(files["ann.pp"], **{key: value})
    args = ["--formula", files["ann.pp"]]
    if command == "eval":
        args += ["--module", files["reg.mod"]]
    assert main([command, *args]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and f"{key} must be a non-negative integer" in err


def test_cli_malformed_bimodule_exit_code(files, capsys):
    # the actions of bim.bim are 4 x 4
    _edit(files["bim.bim"], dim=5)
    assert main(["beta", "--bimodule", files["bim.bim"], "--formula", files["div.pp"]]) == 2
    assert "bad bimodule" in capsys.readouterr().err


@pytest.mark.parametrize("m", [3, "2"], ids=["disagrees", "string"])
def test_cli_malformed_interp_exit_code(files, capsys, m):
    # the sort of hom.interp has arity 2
    _edit(files["hom.interp"], m=m)
    assert main(["interp-apply", "--data", files["hom.interp"], "--module", files["bmod.mod"]]) == 2
    assert "parse error" in capsys.readouterr().err


def test_cli_malformed_pair_exit_code(files, capsys, lam2):
    # a bottom of arity 2 under a top of arity 1
    _edit(files["iso.pair"], bottom=formula_to_json(top_formula(lam2, 2), algebra_ref="lam.alg"))
    assert main(["pullback", "--data", files["hom.interp"], "--pair", files["iso.pair"], "--d", "1"]) == 2
    assert "bad pair" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["1/3", "1/0"])
def test_cli_scalar_with_no_value_mod_p_exit_code(tmp_path, capsys, entry):
    # over GF(3), 1/3 has no value; read as 0 it made x act as 0, which is
    # still a module, so pptype answered for S + S instead of Lambda
    lam3 = lambda_algebra(GF(3))
    payload = module_to_json(regular_module(lam3), algebra_ref="lam.alg")
    x = payload["action"]["x"]
    (i, j), = [(i, j) for i, row in enumerate(x) for j, v in enumerate(row) if v]
    x[i][j] = entry
    (tmp_path / "lam.alg").write_text(dumps(algebra_to_json(lam3)))
    (tmp_path / "reg.mod").write_text(dumps(payload))
    assert main(["pptype", "--module", str(tmp_path / "reg.mod"), "--tuple", "[[1, 0]]"]) == 2
    assert f"bad scalar '{entry}'" in capsys.readouterr().err


@pytest.mark.parametrize("field, entry", [(GF(3), 1.5), (QQ, 0.1)], ids=["fp3", "q"])
def test_cli_non_integer_float_scalar_exit_code(tmp_path, capsys, field, entry):
    # 1.5 was read as 1 over GF(3); 0.1 over QQ kept the binary float's fraction
    lam = lambda_algebra(field)
    payload = module_to_json(regular_module(lam), algebra_ref="lam.alg")
    x = payload["action"]["x"]
    (i, j), = [(i, j) for i, row in enumerate(x) for j, v in enumerate(row) if v]
    x[i][j] = entry
    (tmp_path / "lam.alg").write_text(dumps(algebra_to_json(lam)))
    (tmp_path / "reg.mod").write_text(json.dumps(payload))
    assert main(["pptype", "--module", str(tmp_path / "reg.mod"), "--tuple", "[[1, 0]]"]) == 2
    err = capsys.readouterr().err
    assert f"bad scalar {entry!r}" in err and '"a/b"' in err


def test_integer_valued_float_scalar_is_read_as_the_integer(lam2):
    obj = module_to_json(regular_module(lam2))
    obj["action"]["x"] = [[float(v) for v in row] for row in obj["action"]["x"]]
    assert load_module(obj) == regular_module(lam2)


@pytest.mark.parametrize(
    "field, text, want",
    [(GF(3), "7", 1), (QQ, "7", Fraction(7)), (QQ, "-6/4", Fraction(-3, 2)), (GF(5), "3/2", 4)],
)
def test_string_scalar_forms(field, text, want):
    # "7" was rejected with "not enough values to unpack (expected 2, got 1)"
    assert _scalar_in(field, text) == want


@pytest.mark.parametrize("field", [GF(3), QQ], ids=["fp3", "q"])
def test_integer_string_scalars_load_as_integers(field):
    reg = regular_module(lambda_algebra(field))
    obj = module_to_json(reg)
    obj["action"] = {k: [[str(v) for v in row] for row in rows] for k, rows in obj["action"].items()}
    assert load_module(obj) == reg


@pytest.mark.parametrize("entry", ["x", "", "7/", "/2", "1/2/3", "1.5", "1/2.0", "a/b"])
def test_cli_malformed_string_scalar_exit_code(tmp_path, capsys, entry):
    lam3 = lambda_algebra(GF(3))
    payload = module_to_json(regular_module(lam3), algebra_ref="lam.alg")
    payload["action"]["x"][0][0] = entry
    (tmp_path / "lam.alg").write_text(dumps(algebra_to_json(lam3)))
    (tmp_path / "reg.mod").write_text(dumps(payload))
    assert main(["pptype", "--module", str(tmp_path / "reg.mod"), "--tuple", "[[1, 0]]"]) == 2
    err = capsys.readouterr().err
    assert f"bad scalar {entry!r}" in err and '"a"' in err and '"a/b"' in err


@pytest.mark.parametrize("seed", [0, 2, 3])
def test_cli_isolate_refuses_a_decomposed_module(tmp_path, capsys, seed):
    # R_0(2) + R_1(2) over GF(1048573), in random bases where no End basis
    # element splits it and random End elements did not either: an
    # eigenvalue shift of a random element does
    field = GF(1048573)
    kron = kronecker_algebra(field)
    summands = [regular_kronecker(field, a, 2) for a in (0, 1)]
    m = random_basis(direct_sum(*summands)[0], seed)
    (tmp_path / "kron.alg").write_text(dumps(algebra_to_json(kron)))
    (tmp_path / "m.mod").write_text(dumps(module_to_json(m, algebra_ref="kron.alg")))
    args = ["isolate", "--module", str(tmp_path / "m.mod"), "--element", json.dumps([1] + [0] * 7)]
    assert main(["--seed", str(seed), *args]) == 1
    err = capsys.readouterr().err
    assert "not certified indecomposable: decomposed" in err
    assert "Fitting candidates tried, 0 End elements enumerated" in err


def test_cli_field_too_large_exit_code(files, tmp_path, capsys):
    big = tmp_path / "big.alg"
    big.write_text(dumps({"field": "fp:4294967291", "basis": [], "one": [], "mul": []}))
    assert main(["inventory", "--algebra", str(big), "--cap", "2"]) == 2
    assert "too large" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--field", "fp:4294967291", "inventory", "--algebra", files["quiver.q"], "--cap", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command",
    [
        ["--field", "fp:2", "inventory", "--algebra", "quiver.q", "--cap", "-1"],
        ["isolate", "--module", "s1.mod", "--element", "[1]", "--cap", "-1"],
        ["verify-lattice", "--bimodule", "bim.bim", "--cap", "-1"],
        ["check-controlled", "--bimodule", "bim.bim", "--cap", "-2"],
        ["--budget", "-1", "--field", "fp:2", "inventory", "--algebra", "quiver.q", "--cap", "2"],
        ["--budget", "-5", "isolate", "--module", "s1.mod", "--element", "[1]", "--cap", "2"],
        ["--field", "fp:2", "inventory", "--algebra", "quiver.q", "--cap", "two"],
    ],
    ids=["inventory-cap", "isolate-cap", "verify-lattice-cap", "check-controlled-cap",
         "inventory-budget", "isolate-budget", "cap-not-int"],
)
def test_cli_negative_cap_or_budget_is_a_usage_error(files, capsys, command):
    # a negative cap printed "0 indecomposables" (or checked nothing) and
    # exited 0; a negative budget exited 1, the code of a failed check
    args = [files.get(a, a) for a in command]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    flag = "--budget" if "--budget" in command else "--cap"
    assert f"argument {flag}: " in capsys.readouterr().err


def test_cli_zero_cap_and_budget_are_accepted(files, capsys):
    assert main(["--field", "fp:2", "inventory", "--algebra", files["quiver.q"], "--cap", "0"]) == 0
    assert "0 indecomposables" in capsys.readouterr().out
    assert main(["--budget", "0", "--field", "fp:2", "inventory", "--algebra", files["quiver.q"],
                 "--cap", "0"]) == 0


def test_cli_verify_lattice_payload_matches_unshared_reports(files, capsys):
    from ppcalc.inventory import enumerate_indecomposables
    from ppcalc.lattice import BetaMap, standard_sample, verify_embedding, verify_lattice_hom

    assert main(["--out", "json", "verify-lattice", "--bimodule", files["bim.bim"], "--cap", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    bim = load_bimodule(files["bim.bim"], os.path.dirname(files["bim.bim"]))
    bmap = BetaMap(bim)
    sample = standard_sample(bim.S, enumerate_indecomposables(bim.S, 2, seed=0).members)
    hom = verify_lattice_hom(bmap, sample)
    emb = verify_embedding(bmap, sample)
    expected = {"homomorphism": hom, "embedding": emb, "ok": hom["ok"] and emb["ok"]}
    assert payload == json.loads(dumps(expected))


@pytest.mark.parametrize(
    "command, text",
    [
        ("pptype", "[[0, 1.5]]"),
        ("pptype", "[[0, true]]"),
        ("pptype", "[0, 1]"),
        ("pptype", "[[0, 1, 0]]"),
        ("pptype", "[[0, 1"),
        ("isolate", "[1.5]"),
        ("isolate", "[true]"),
        ("isolate", "[[1]]"),
        ("isolate", "[1, 0]"),
        ("isolate", "[1"),
    ],
    ids=[f"{c}-{k}" for c in ("tuple", "element") for k in ("float", "bool", "nesting", "length", "json")],
)
def test_cli_malformed_vector_exit_code(files, capsys, command, text):
    # 1.5 and true were read as 1, a vector nested one level wrong raised
    # TypeError, and a wrong length or malformed JSON exited 1
    if command == "pptype":
        args = ["pptype", "--module", files["reg.mod"], "--tuple", text]
    else:
        args = ["isolate", "--module", files["s1.mod"], "--element", text, "--cap", "2"]
    assert main(args) == 2
    assert "parse error: bad" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["algebra", "module", "formula"])
def test_cli_boolean_scalar_exit_code(files, capsys, lam2, reg2, target):
    # true was read as 1: the unit of lam.alg, the x action of reg.mod, the
    # coefficient of x in ann.pp
    if target == "algebra":
        payload = algebra_to_json(lam2)
        payload["one"] = [True, 0]
        path = files["lam.alg"]
    elif target == "module":
        payload = module_to_json(reg2, algebra_ref="lam.alg")
        payload["action"]["x"] = [[0, True], [0, 0]]
        path = files["reg.mod"]
    else:
        payload = formula_to_json(ann_formula(lam2), algebra_ref="lam.alg")
        payload["matrix"] = [[[0, True]]]
        path = files["ann.pp"]
    with open(path, "w") as fh:
        fh.write(json.dumps(payload))
    assert main(["eval", "--formula", files["ann.pp"], "--module", files["reg.mod"]]) == 2
    assert "parse error: bad scalar True" in capsys.readouterr().err


def test_cli_paths_are_relative_to_the_working_directory(tmp_path, monkeypatch, capsys, lam2, reg2):
    # path arguments with a directory part; each file names its algebra
    # relative to itself
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "lam.alg").write_text(dumps(algebra_to_json(lam2)))
    (sub / "m.json").write_text(dumps(module_to_json(reg2, algebra_ref="lam.alg")))
    (sub / "ann.pp").write_text(dumps(formula_to_json(ann_formula(lam2), algebra_ref="lam.alg")))
    monkeypatch.chdir(tmp_path)
    assert main(["--out", "json", "pptype", "--module", "sub/m.json", "--tuple", "[[1, 0]]"]) == 0
    assert json.loads(capsys.readouterr().out)["free"] == 1
    assert main(["--out", "json", "eval", "--formula", "sub/ann.pp", "--module", "sub/m.json"]) == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 1
    assert main(["eval", "--formula", str(sub / "ann.pp"), "--module", "./sub/m.json"]) == 0
    capsys.readouterr()
    monkeypatch.chdir(sub)
    assert main(["eval", "--formula", "ann.pp", "--module", "../sub/m.json"]) == 0


@pytest.mark.parametrize(
    "extra",
    [["--m", "-2"], ["--m", "2", "--c-rho", "1"], ["--m", "2", "--c-rho", "a,b"], ["--m", "2", "--c-phi", "-1"]],
    ids=["negative-m", "c-rho-length", "c-rho-not-int", "negative-c-phi"],
)
def test_cli_bounds_rejects_nonsense(capsys, extra):
    # each printed a number and exited 0, or exited 1 on the unparsable list
    assert main(["bounds", "--d", "1", "--p", "2", *extra]) == 2
    assert "parse error: bad bounds" in capsys.readouterr().err
