"""Command-line driver: one subcommand per documented operation.

Inputs are JSON files in the documented formats; reports go to stdout as
human-readable text or machine-readable JSON (--out json).  Exit codes:
0 pass, 1 check failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import sys

from . import io as pio
from .acceptance import RunConfig, render_json, render_text, run_acceptance
from .controlled import EmbeddingData, check_controlled, inverse_interp, roundtrip_check
from .formulas import eval_formula, free_realisation, implies, pp_type_generator
from .interp import apply_interp, bounds, isolating_pair, pullback_pair
from .inventory import enumerate_indecomposables
from .lattice import (
    BetaMap,
    beta,
    order_table,
    standard_sample,
    verify_embedding,
    verify_lattice_hom,
)
from .modules import indecomposability

__all__ = ["main"]


def _field(value):
    return pio.field_from_str(value)


def _nonnegative(value):
    """A non-negative int, such as a cap or a budget; argparse exits 2 on anything else."""
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


def _emit(args, payload, text):
    if args.out == "json":
        print(pio.dumps(payload))
    else:
        print(text)


def cmd_eval(args):
    phi = pio.load_formula(args.formula)
    mod = pio.load_module(args.module, algebra=phi.algebra)
    sol = eval_formula(phi, mod)
    payload = {"dimension": sol.dim, "basis": sol.basis.to_rows()}
    _emit(args, payload, f"solution space dimension {sol.dim}")
    return 0


def cmd_implies(args):
    psi = pio.load_formula(args.psi)
    phi = pio.load_formula(args.phi, algebra=psi.algebra)
    ans = implies(psi, phi)
    _emit(args, {"implies": ans}, "true" if ans else "false")
    return 0


def cmd_freereal(args):
    phi = pio.load_formula(args.formula)
    fr = free_realisation(phi)
    payload = {
        "module": pio.module_to_json(fr.module),
        "tuple": [t.to_rows()[0] for t in fr.tuple],
    }
    _emit(args, payload, f"free realisation of dimension {fr.module.dim}")
    return 0


def cmd_pptype(args):
    mod = pio.load_module(args.module)
    tup = pio.tuple_from_json(mod, args.tuple)
    gen = pp_type_generator(mod, tup)
    payload = pio.formula_to_json(gen)
    _emit(args, payload, f"generator with {gen.c} bound variables, {gen.e} equations")
    return 0


def cmd_beta(args):
    bim = pio.load_bimodule(args.bimodule)
    phi = pio.load_formula(args.formula, algebra=bim.S)
    image = BetaMap(bim)(phi)
    payload = pio.formula_to_json(image)
    _emit(args, payload, f"image formula: arity {image.n}, c = {image.c}, d = {image.e}")
    return 0


def cmd_verify_lattice(args):
    bim = pio.load_bimodule(args.bimodule)
    bmap = BetaMap(bim)
    if args.sample:
        # formulas read from files carry no realisation: build each one once
        # here, where beta, order_table and verify_lattice_hom would each
        # build it again
        sample = []
        for path in args.sample:
            phi = pio.load_formula(path, algebra=bim.S)
            sample.append(phi.with_realisation(*free_realisation(phi)))
    else:
        inv = enumerate_indecomposables(bim.S, args.cap, args.budget, args.seed)
        sample = standard_sample(bim.S, inv.members)
    betas = [beta(bmap, f) for f in sample]
    order = order_table(sample)
    hom = verify_lattice_hom(bmap, sample, betas, order)
    emb = verify_embedding(bmap, sample, betas, order)
    ok = hom["ok"] and emb["ok"]
    payload = {"homomorphism": hom, "embedding": emb, "ok": ok}
    text = (
        f"sample of {len(sample)} formulas: homomorphism "
        f"{'PASS' if hom['ok'] else 'FAIL'} ({hom['pairs_checked']} pairs, "
        f"{hom['images_built']} images built) with {hom['laws_decided']} laws decided, embedding "
        f"{'PASS' if emb['ok'] else 'FAIL'}"
    )
    _emit(args, payload, text)
    return 0 if ok else 1


def cmd_interp_apply(args):
    data = pio.load_interp(args.data)
    mod = pio.load_module(args.module, algebra=data.R)
    img = apply_interp(data, mod)
    payload = pio.module_to_json(img.module)
    _emit(args, payload, f"value has dimension {img.module.dim} over the target algebra")
    return 0


def cmd_isolate(args):
    mod = pio.load_module(args.module)
    vec = pio.vector_from_json(mod, args.element)
    res = indecomposability(mod, args.seed, args.budget)
    if res.status != "indecomposable":
        print(
            f"module is not certified indecomposable: {res.status}"
            f" ({res.tried} Fitting candidates tried, {res.enumerated} End elements enumerated)",
            file=sys.stderr,
        )
        return 1
    inv = enumerate_indecomposables(mod.algebra, args.cap, args.budget, args.seed)
    iso = isolating_pair(mod, vec, inv.members, args.seed, res)
    payload = {
        "pair": pio.pair_to_json(iso.pair),
        "scope": iso.scope,
        "c_top": iso.pair.top.c,
        "d_top": iso.pair.top.e,
    }
    _emit(
        args,
        payload,
        f"isolating pair built; top has c = {iso.pair.top.c}, d = {iso.pair.top.e}; "
        f"valid on {iso.scope}",
    )
    return 0


def cmd_pullback(args):
    data = pio.load_interp(args.data)
    pair = pio.load_pair(args.pair, algebra=data.S)
    sigma_tau, report = pullback_pair(data, pair, args.d)
    payload = {
        "pair": pio.pair_to_json(sigma_tau),
        "bounds": report.as_dict(),
    }
    _emit(
        args,
        payload,
        f"pulled back: c(sigma) = {report.c_sigma} <= n_{args.d} = {report.n_d}",
    )
    return 0


def cmd_bounds(args):
    with pio._parsing("bounds"):
        c_rhos = [int(x) for x in args.c_rho.split(",")] if args.c_rho else None
        rep = bounds(args.d, args.m, args.p, args.c_phi, args.c_psi, c_rhos, args.dim_r)
    _emit(args, rep.as_dict(), f"n_{args.d} = {rep.n_d}, b_{args.d} = {rep.b_d}")
    return 0


def cmd_check_controlled(args):
    bim = pio.load_bimodule(args.bimodule)
    control = (
        pio.load_module(args.control, algebra=bim.R)
        if args.control
        else None
    )
    emb = EmbeddingData(bim, control)
    inv = enumerate_indecomposables(bim.S, args.cap, args.budget, args.seed)
    pairs = [(m, n) for m in inv.members for n in inv.members]
    report = check_controlled(emb, pairs, args.seed)
    _emit(
        args,
        report,
        f"controlled decomposition on {len(pairs)} pairs: "
        + ("PASS" if report["ok"] else "FAIL"),
    )
    return 0 if report["ok"] else 1


def cmd_roundtrip(args):
    bim = pio.load_bimodule(args.bimodule)
    control = (
        pio.load_module(args.control, algebra=bim.R)
        if args.control
        else None
    )
    emb = EmbeddingData(bim, control)
    mod = pio.load_module(args.module, algebra=bim.S)
    data = inverse_interp(emb)
    report = roundtrip_check(emb, mod, data, args.seed)
    _emit(
        args,
        report,
        f"round trip {'PASS' if report['ok'] else 'FAIL'} (dims {report['dims']})",
    )
    return 0 if report["ok"] else 1


def cmd_inventory(args):
    algebra = pio.load_algebra(args.algebra, field=args.field)
    inv = enumerate_indecomposables(algebra, args.cap, args.budget, args.seed)
    payload = {
        "count": len(inv.members),
        "members": [pio.module_to_json(m, algebra_ref=None) for m in inv.members],
    }
    dims = [m.dim for m in inv.members]
    _emit(
        args,
        payload,
        f"{len(inv.members)} indecomposables, dimensions {dims};"
        f" {inv.decided} candidates decided of {inv.assignments} assignments,"
        f" {inv.middle_terms} middle terms of extensions decided",
    )
    return 0


def cmd_acceptance(args):
    report = run_acceptance(RunConfig(seed=args.seed, budget=args.budget))
    if args.out == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return 0 if report["passed"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ppcalc",
        description="pp-formula calculus over finite-dimensional algebras",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    parser.add_argument("--budget", type=_nonnegative, default=10**7, help="enumeration budget")
    parser.add_argument("--out", choices=["json", "text"], default="text")
    parser.add_argument(
        "--field", type=_field, default=None, help="base field: q or fp:P (for quiver files)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="solution subspace of a formula in a module")
    p.add_argument("--formula", required=True)
    p.add_argument("--module", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("implies", help="decide psi <= phi")
    p.add_argument("--psi", required=True)
    p.add_argument("--phi", required=True)
    p.set_defaults(func=cmd_implies)

    p = sub.add_parser("freereal", help="free realisation of a formula")
    p.add_argument("--formula", required=True)
    p.set_defaults(func=cmd_freereal)

    p = sub.add_parser("pptype", help="pp-type generator of a tuple in a module")
    p.add_argument("--module", required=True)
    p.add_argument("--tuple", required=True, help="JSON list of coordinate vectors")
    p.set_defaults(func=cmd_pptype)

    p = sub.add_parser("beta", help="image of a formula under the bimodule map")
    p.add_argument("--bimodule", required=True)
    p.add_argument("--formula", required=True)
    p.set_defaults(func=cmd_beta)

    p = sub.add_parser("verify-lattice", help="lattice homomorphism/embedding checks")
    p.add_argument("--bimodule", required=True)
    p.add_argument("--sample", nargs="*", default=None, help="formula files")
    p.add_argument("--cap", type=_nonnegative, default=3, help="inventory cap for auto-sampling")
    p.set_defaults(func=cmd_verify_lattice)

    p = sub.add_parser("interp-apply", help="evaluate interpretation data on a module")
    p.add_argument("--data", required=True)
    p.add_argument("--module", required=True)
    p.set_defaults(func=cmd_interp_apply)

    p = sub.add_parser("isolate", help="isolating pair for an indecomposable")
    p.add_argument("--module", required=True)
    p.add_argument("--element", required=True, help="JSON coordinate vector")
    p.add_argument("--cap", type=_nonnegative, default=3, help="inventory cap")
    p.set_defaults(func=cmd_isolate)

    p = sub.add_parser("pullback", help="pull a pp-pair back along interpretation data")
    p.add_argument("--data", required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--d", type=int, required=True, help="dimension of the isolated module")
    p.set_defaults(func=cmd_pullback)

    p = sub.add_parser("bounds", help="bound arithmetic n_d and b_d")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--c-phi", type=int, default=0)
    p.add_argument("--c-psi", type=int, default=0)
    p.add_argument("--c-rho", default=None, help="comma-separated per-generator counts")
    p.add_argument("--dim-r", type=int, default=1)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("check-controlled", help="controlled-decomposition report")
    p.add_argument("--bimodule", required=True)
    p.add_argument("--control", default=None)
    p.add_argument("--cap", type=_nonnegative, default=2, help="source-inventory cap")
    p.set_defaults(func=cmd_check_controlled)

    p = sub.add_parser("roundtrip", help="inverse-functor round trip on one module")
    p.add_argument("--bimodule", required=True)
    p.add_argument("--control", default=None)
    p.add_argument("--module", required=True)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("inventory", help="enumerate indecomposables over a prime field")
    p.add_argument("--algebra", required=True)
    p.add_argument("--cap", type=_nonnegative, required=True)
    p.set_defaults(func=cmd_inventory)

    p = sub.add_parser("acceptance", help="run the full acceptance suite")
    p.set_defaults(func=cmd_acceptance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except pio.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
