"""Command-line driver.

    koszul verify  --suite all --half-dim 1,2 --degree 3 --trials 25 --seed 7
    koszul eval    --symplectic 1 --apply delta "v1 dx2"
    koszul bracket --symplectic 1 --arity 2 "v1 dx2" "1/2 v1^2 dx2"

Exit codes: 0 all checks pass, 1 at least one identity failure, 2 usage or
expression errors.
"""

from __future__ import annotations

import argparse
import re
import sys

from .brackets import symplectic_family
from .campaign import K_MAX, SUITES, CampaignConfig, run_campaign
from .forms import d
from .grammar import FormSyntaxError, parse_form, render_form
from .symplectic import SymplecticSpace
from .volume import VolumeSpace, volume_family

USAGE_ERROR = 2
DIM_MAX = 64  # eval and bracket refuse larger spaces: a form on R^m has up to C(m, m/2) terms


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="koszul", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification campaign")
    pv.add_argument("--suite", default="all", choices=SUITES)
    pv.add_argument("--half-dim", type=_int_list, default=(1, 2), metavar="N[,N...]",
                    help="half-dimensions for symplectic suites (default 1,2)")
    pv.add_argument("--volume-dim", type=_int_list, default=(3, 4), metavar="M[,M...]",
                    help="dimensions for the volume suite (default 3,4)")
    pv.add_argument("--degree", type=int, default=3,
                    help="max polynomial degree of random inputs (>= 1: constant inputs check nothing)")
    pv.add_argument("--density", type=float, default=0.7, help="basis-term density of random forms")
    pv.add_argument("--trials", type=int, default=25)
    pv.add_argument("--seed", type=int, default=7)
    pv.add_argument("--arity-max", type=int, default=5, help="highest identity arity to check")
    pv.add_argument("--k-max", type=int, default=9,
                    help=f"coefficient recursion bound, 2..{K_MAX} (the check costs about k^3)")
    pv.add_argument("--format", dest="fmt", default="text", choices=("text", "json"))
    pv.add_argument("--out", default=None, help="write the report to a file instead of stdout")

    pe = sub.add_parser("eval", help="parse a form and apply operators")
    pe.add_argument("--symplectic", type=int, default=None, metavar="N",
                    help=f"half-dimension, 2N <= {DIM_MAX}; enables delta, L, Lambda, H")
    pe.add_argument("--dim", type=int, default=None, metavar="M",
                    help=f"plain dimension, 0..{DIM_MAX} (d only); inferred from the expression if omitted")
    pe.add_argument("--apply", action="append", default=[], choices=("d", "delta", "L", "Lambda", "H"),
                    metavar="OP", help="operator to apply; repeat to compose left to right")
    pe.add_argument("expr")

    pb = sub.add_parser("bracket", help="evaluate a bracket of the symplectic or volume family")
    group = pb.add_mutually_exclusive_group(required=True)
    group.add_argument("--symplectic", type=int, default=None, metavar="N", help=f"half-dimension, 2N <= {DIM_MAX}")
    group.add_argument("--volume", type=int, default=None, metavar="M", help=f"dimension, 3..{DIM_MAX}")
    pb.add_argument("--arity", type=int, required=True)
    pb.add_argument("forms", nargs="+")
    return parser


def _infer_dim(expr: str) -> int:
    indices = [int(m.group(1)) for m in re.finditer(r"(?:dx|v)(\d+)", expr)]
    return max(indices, default=2)


def _outside_dims(dim: int) -> bool:
    """Report a dimension outside 0..DIM_MAX; checked before anything is parsed or built."""
    if 0 <= dim <= DIM_MAX:
        return False
    print(f"error: dimension must be in 0..{DIM_MAX}, got {dim}", file=sys.stderr)
    return True


def cmd_verify(args) -> int:
    cfg = CampaignConfig(
        suite=args.suite,
        half_dims=args.half_dim,
        volume_dims=args.volume_dim,
        max_degree=args.degree,
        density=args.density,
        trials=args.trials,
        seed=args.seed,
        arity_max=args.arity_max,
        k_max=args.k_max,
    )
    try:
        cfg.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:  # refuse an unwritable report path before the campaign spends its time
        fh = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    except OSError as exc:
        print(f"error: cannot write report to {args.out}: {exc.strerror}", file=sys.stderr)
        return USAGE_ERROR
    try:
        report = run_campaign(cfg)
        fh.write(report.to_json() if args.fmt == "json" else report.to_text())
    finally:
        if fh is not sys.stdout:
            fh.close()
    if args.fmt == "json":
        # kept out of the report payload so identical configs stay byte-identical
        print(f"completed in {report.duration_s:.2f}s", file=sys.stderr)
    return 0 if report.failed == 0 else 1


def cmd_eval(args) -> int:
    if args.symplectic is not None:
        dim = 2 * args.symplectic
    else:
        dim = args.dim if args.dim is not None else _infer_dim(args.expr)
    if _outside_dims(dim):
        return USAGE_ERROR
    try:
        space = SymplecticSpace(args.symplectic) if args.symplectic is not None else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        form = parse_form(args.expr, dim)
    except FormSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    for op in args.apply:
        if op == "d":
            form = d(form)
            continue
        if space is None:
            print(f"error: operator {op} needs --symplectic", file=sys.stderr)
            return USAGE_ERROR
        if op == "delta":
            form = space.delta(form)
        elif op == "L":
            form = space.L(form)
        elif op == "Lambda":
            form = space.Lam(form)
        elif op == "H":
            form = space.H(form)
    print(render_form(form))
    return 0


def cmd_bracket(args) -> int:
    k = args.arity
    dim = 2 * args.symplectic if args.symplectic is not None else args.volume
    if _outside_dims(dim):
        return USAGE_ERROR
    try:
        if args.symplectic is not None:
            fam = symplectic_family(SymplecticSpace(args.symplectic))
        else:
            fam = volume_family(VolumeSpace(args.volume))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if k < 1:
        print("error: arity must be >= 1", file=sys.stderr)
        return USAGE_ERROR
    if len(args.forms) != k:
        print(f"error: arity {k} needs exactly {k} forms, got {len(args.forms)}", file=sys.stderr)
        return USAGE_ERROR
    try:
        forms = [parse_form(text, dim) for text in args.forms]
    except FormSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if k >= 2:
        ground = fam.ground_form_degree
        for f in forms:
            if f.degree != ground and not f.is_zero():
                print(f"error: arity {k} bracket takes degree-{ground} forms, got degree {f.degree}",
                      file=sys.stderr)
                return USAGE_ERROR
    try:
        elems = [fam.element(f) for f in forms]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(render_form(fam.l(k, elems).form))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "eval":
        return cmd_eval(args)
    return cmd_bracket(args)


if __name__ == "__main__":
    sys.exit(main())
