"""Command-line interface.

Subcommands: generate (build and verify a design bundle), verify (re-check a
bundle or a pair of matrix files), optimize (best-of-N restarts under a
criterion), export (CSV / JSON / array text).  Exit codes: 0 success or
verification pass, 1 verification failure, 2 usage or parse error, 3
infeasible parameters.  DCD_SEED provides the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .arrays import _matrix_text, make_oa, to_continuous
from .bundle import design_to_bundle, load_bundle, report_disagreement, save_bundle
from .construct import METHODS, DesignFamily, build_design
from .criteria import CRITERIA, best_index, optimize_d2
from .design import CoupledDesign
from .errors import DesignError, InfeasibleParameters, ParseError
from .oabuild import load_matrix, load_oa, save_oa
from .verify import VerificationReport, full_report


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _add_generate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", required=True, choices=list(METHODS))
    p.add_argument("--s", type=int, required=True, help="number of qualitative levels")
    p.add_argument("--lambda", dest="lam", type=int, default=1, help="stack count (c1, c2)")
    p.add_argument("--u", type=int, default=3, help="independent columns (c3-case2)")
    p.add_argument("--q", type=int, default=None, help="qualitative factors (default s)")
    p.add_argument("--p", type=int, default=None, help="quantitative factors (default per method)")
    p.add_argument("--seed", type=int, default=os.environ.get("DCD_SEED", "0"), help="root seed (default env DCD_SEED or 0)")
    p.add_argument("--oa", action="append", default=None, metavar="FILE", help="input array file(s) for c1/c2")
    p.add_argument("--g", metavar="FILE", help="strength-3 array file (c3-case1)")
    p.add_argument("--a", metavar="FILE", help="column pool file (c3-custom)")
    p.add_argument("--b", metavar="FILE", help="companion array file (c3-custom)")
    p.add_argument("--select", type=_int_list, help="comma-separated pool column indices for d1")
    p.add_argument("--shuffle-split", action="store_true", help="random column split (c3-case1)")
    p.add_argument("--output", "-o", required=True, help="bundle file to write")


def _family_from_args(args) -> DesignFamily:
    s = args.s
    q = args.q
    arrays = None
    if args.oa:
        loaded = [load_oa(path) for path in args.oa]
        if args.method == "c1" and len(loaded) == 1 and args.lam > 1:
            loaded = loaded * args.lam
        arrays = loaded
    g, a, b = (load_oa(path) if path else None for path in (args.g, args.a, args.b))
    if q is None:
        q = a.n_cols - 1 if (args.method == "c3-custom" and a is not None) else s
    lam = args.lam
    if args.method == "c1" and arrays is not None:
        lam = len(arrays)
    family = DesignFamily(
        method=args.method,
        s=s,
        q=q,
        p=args.p,
        lam=lam,
        u=args.u,
        arrays=arrays,
        g=g,
        a=a,
        b=b,
        select=args.select,
        shuffle_split=args.shuffle_split,
    )
    if family.p is None:
        family.p = METHODS[family.method].default_p(family)
    return family


def _print_report(report: VerificationReport, out=None) -> None:
    w = (out or sys.stdout).write
    w(f"design: n={report.n} s={report.s} q={report.q} p={report.p}\n")
    if report.omega_checked is not None:
        w(f"coupling order checked: {report.omega_checked}\n")

    def yesno(flag):
        return "-" if flag is None else ("pass" if flag else "FAIL")

    w(f"d1 orthogonal array: {yesno(report.d1_is_oa)}\n")
    w(f"d2 Latin hypercube: {yesno(report.d2_is_lh)}\n")
    w(f"single-factor balance: {yesno(report.condition_a)}\n")
    if report.condition_a_failures:
        w(f"  offending (factor, column): {report.condition_a_failures[:10]}")
        w(f" ({len(report.condition_a_failures)} total)\n" if len(report.condition_a_failures) > 10 else "\n")
    w(f"factor-pair balance: {yesno(report.condition_b)}\n")
    if report.condition_b_failures:
        w(f"  offending (factor, factor, column): {report.condition_b_failures[:10]}")
        w(f" ({len(report.condition_b_failures)} total)\n" if len(report.condition_b_failures) > 10 else "\n")
    if report.higher_order_failures:
        w(f"higher-order failures: {report.higher_order_failures[:10]}\n")
    if report.croa_partition is not None:
        w(f"consecutive resolvable partition of d1: {'yes' if report.croa_partition else 'no'}\n")
    if report.witness_check is not None:
        w(f"certificate conditions: {yesno(report.witness_check)}\n")
    if report.stratification:
        achieved = sum(c.passed for c in report.stratification)
        w(f"grid stratifications achieved: {achieved}/{len(report.stratification)}\n")
    w(f"overall: {'PASS' if report.passed else 'FAIL'}\n")


def _parameters(family: DesignFamily) -> dict:
    return {
        "s": family.s,
        "q": family.q,
        "p": family.p,
        "lam": family.lam,
        "u": family.u,
        "select": list(family.select) if family.select is not None else None,
        "shuffle_split": family.shuffle_split,
    }


def cmd_generate(args) -> int:
    family = _family_from_args(args)
    design = build_design(family, args.seed)
    report = full_report(design, omega=min(2, design.q))
    _print_report(report)
    bundle = design_to_bundle(design, report, family.method, _parameters(family), args.seed)
    save_bundle(bundle, args.output)
    print(f"wrote {args.output}")
    return 0 if report.passed else 1


def cmd_optimize(args) -> int:
    family = _family_from_args(args)
    design, trajectory = optimize_d2(
        family,
        criterion=args.criterion,
        restarts=args.restarts,
        seed=args.seed,
        swap_steps=args.swap_steps,
    )
    report = full_report(design, omega=min(2, design.q))
    sense = CRITERIA[args.criterion]
    best = trajectory[best_index(trajectory, sense)]
    print(f"criterion {args.criterion} ({sense}): best {best:.6f} over {args.restarts} restarts")
    _print_report(report)
    extra = {"criterion": args.criterion, "restarts": args.restarts, "trajectory": trajectory}
    bundle = design_to_bundle(design, report, family.method, _parameters(family), args.seed, extra=extra)
    save_bundle(bundle, args.output)
    print(f"wrote {args.output}")
    return 0 if report.passed else 1


def _load_design_for_verify(paths) -> tuple[CoupledDesign, dict | None]:
    if len(paths) > 2:
        raise ParseError("verify takes one bundle or exactly two matrix files")
    if len(paths) == 1:
        design, data = load_bundle(paths[0], verify=False)
        return design, data
    d1_oa = load_oa(paths[0])
    levels = set(d1_oa.levels)
    if len(levels) != 1:
        raise ParseError(f"{paths[0]}: qualitative factors must share one level count")
    d2 = load_matrix(paths[1])
    if d2.shape[0] != d1_oa.n_rows:
        raise ParseError("matrix files disagree on the run count")
    return CoupledDesign(d1=d1_oa.matrix, d2=d2, s=levels.pop()), None


def cmd_verify(args) -> int:
    design, data = _load_design_for_verify(args.paths)
    omega = args.omega if args.omega is not None else min(2, design.q)
    report = full_report(design, omega=omega)
    _print_report(report)
    ok = report.passed
    if data is not None:
        key = report_disagreement(data, design, report)
        if key is not None:
            print(f"stored {key!r} disagrees with re-verification")
            ok = False
    return 0 if ok else 1


def cmd_export(args) -> int:
    design, data = load_bundle(args.path, verify=False)
    if args.format == "json":
        save_bundle(data, args.output)
    elif args.format == "oa-text":
        save_oa(make_oa(design.d1, design.s, min(2, design.q)), args.output)
    else:
        header = ",".join([f"z{i + 1}" for i in range(design.q)] + [f"x{i + 1}" for i in range(design.p)])
        if args.continuous:
            quant = [",".join([format(v, ".17g") for v in row]) for row in to_continuous(design.d2, args.seed).tolist()]
        else:
            quant = _matrix_text(design.d2, ",")
        rows = [z + "," + x if x else z for z, x in zip(_matrix_text(design.d1, ","), quant)]
        with open(args.output, "w") as fh:
            fh.write("\n".join([header, *rows]) + "\n")
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dcd", description="Doubly coupled designs: generate, verify, optimize, export.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="construct a design and write a bundle")
    _add_generate_args(gen)
    gen.set_defaults(func=cmd_generate)

    ver = sub.add_parser("verify", help="verify a bundle or a (d1, d2) file pair")
    ver.add_argument("paths", nargs="+", help="bundle file, or d1 array file + d2 matrix file")
    ver.add_argument("--omega", type=int, default=None, help="coupling order to check (default min(2, q))")
    ver.set_defaults(func=cmd_verify)

    opt = sub.add_parser("optimize", help="search restarts for the best design under a criterion")
    _add_generate_args(opt)
    opt.add_argument("--criterion", choices=sorted(CRITERIA), default="maximin")
    opt.add_argument("--restarts", type=int, default=10)
    opt.add_argument("--swap-steps", type=int, default=0, help="pairwise-swap climbing steps per restart")
    opt.set_defaults(func=cmd_optimize)

    exp = sub.add_parser("export", help="export a bundle as csv, json, or array text")
    exp.add_argument("path", help="bundle file")
    exp.add_argument("--format", choices=["csv", "json", "oa-text"], default="csv")
    exp.add_argument("--continuous", action="store_true", help="map quantitative levels to points in [0,1)")
    exp.add_argument("--seed", type=int, default=os.environ.get("DCD_SEED", "0"), help="seed for the continuous mapping (default env DCD_SEED or 0)")
    exp.add_argument("--output", "-o", required=True)
    exp.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, minimum in (("seed", 0), ("restarts", 1), ("swap_steps", 0), ("omega", 0)):
        if getattr(args, name, None) is not None and getattr(args, name) < minimum:
            parser.error(f"--{name.replace('_', '-')} must be at least {minimum}")
    try:
        return args.func(args)
    except InfeasibleParameters as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return 3
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (DesignError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
