import json
import os

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
from ppcalc.modules import regular_module

from test_formulas import ann_formula, div_formula, ref_implies


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
    assert "[1, 2]" in capsys.readouterr().out


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


def test_cli_field_too_large_exit_code(files, tmp_path, capsys):
    big = tmp_path / "big.alg"
    big.write_text(dumps({"field": "fp:4294967291", "basis": [], "one": [], "mul": []}))
    assert main(["inventory", "--algebra", str(big), "--cap", "2"]) == 2
    assert "too large" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--field", "fp:4294967291", "inventory", "--algebra", files["quiver.q"], "--cap", "2"])
    assert exc.value.code == 2


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
