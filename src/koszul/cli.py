"""Command-line driver.

    koszul verify  --suite all --half-dim 1,2 --degree 3 --trials 25 --seed 7
    koszul eval    --symplectic 1 --apply delta "v1 dx2"
    koszul bracket --symplectic 1 --arity 2 "v1 dx2" "1/2 v1^2 dx2"

Exit codes: 0 all checks pass, 1 at least one identity failure, 2 usage or
expression errors, or an output that cannot be written. A refusal raises
``UsageError`` (or ``FormSyntaxError``) where it is found, an evaluation whose
exponents grow past EXP_MAX is refused alike, and a ValueError raised elsewhere
is a program fault. ``main`` alone turns every refusal and every unwritable
stream into the exit code: one ``error:`` (``parse error:``) line on stderr,
dropped if stderr cannot take it; a stream that fails, argparse's too, keeps the code.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .brackets import symplectic_family
from .campaign import (ARITY_MAX, HALF_DIM_MAX, K_MAX, SUITES, VOLUME_ARITY_MAX, VOLUME_DIM_MAX, CampaignConfig,
                       _members, run_campaign)
from .forms import d
from .grammar import FormSyntaxError, parse_form, render_form
from .poly import EXP_MAX, ExponentOverflow
from .symplectic import SymplecticSpace
from .volume import VolumeSpace, volume_family

USAGE_ERROR = 2
DIM_MAX = 64  # eval and bracket refuse larger spaces: a form on R^m has up to C(m, m/2) terms
_OPERATORS = {"delta": "delta", "L": "L", "Lambda": "Lam", "H": "H"}  # --apply name -> SymplecticSpace method


class UsageError(Exception):
    """A refused invocation; ``main`` prints it as one ``error:`` line and returns USAGE_ERROR."""


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="koszul", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification campaign")
    cfg, listed = CampaignConfig(), lambda dims: ",".join(map(str, dims))  # every default is the campaign's own
    caps = "; ".join(f"{', '.join(s for s in HALF_DIM_MAX if HALF_DIM_MAX[s] == cap)}: <= {cap}"
                     for cap in dict.fromkeys(HALF_DIM_MAX.values()))  # each cap's suites, in table order
    pv.add_argument("--suite", default=cfg.suite, choices=SUITES)
    pv.add_argument("--half-dim", dest="half_dims", type=_int_list, default=cfg.half_dims, metavar="N[,N...]",
                    help=f"half-dimensions for symplectic suites (default {listed(cfg.half_dims)}; {caps})")
    pv.add_argument("--volume-dim", dest="volume_dims", type=_int_list, default=cfg.volume_dims, metavar="M[,M...]",
                    help=f"dimensions for the volume suite (default {listed(cfg.volume_dims)}; 3..{VOLUME_DIM_MAX})")
    pv.add_argument("--degree", dest="max_degree", type=int, default=cfg.max_degree, metavar="DEGREE",
                    help=f"max polynomial degree of random inputs, 1..{EXP_MAX}; "
                         f"{', '.join(s for s in SUITES if 'chain' in _members(s))}: 2..{EXP_MAX} (constant inputs "
                         "check nothing, linear ones leave some chain mutants unbroken)")
    pv.add_argument("--density", type=float, default=cfg.density, help="basis-term density of random forms")
    pv.add_argument("--trials", type=int, default=cfg.trials)
    pv.add_argument("--seed", type=int, default=cfg.seed)
    pv.add_argument("--arity-max", type=int, default=cfg.arity_max,
                    help=f"highest identity arity to check, 1..{ARITY_MAX} (the check costs about A^3); "
                         f"the linfty-volume identities stop at arity {VOLUME_ARITY_MAX}")
    pv.add_argument("--k-max", type=int, default=cfg.k_max,
                    help=f"coefficient recursion bound, 2..{K_MAX} (the check costs about k^3)")
    pv.add_argument("--format", dest="fmt", default="text", choices=("text", "json"))
    pv.add_argument("--out", default=None, help="write the report to a file instead of stdout")

    pe = sub.add_parser("eval", help="parse a form and apply operators")
    space = pe.add_mutually_exclusive_group()
    space.add_argument("--symplectic", type=int, default=None, metavar="N",
                       help=f"half-dimension, 2N <= {DIM_MAX}; enables delta, L, Lambda, H")
    space.add_argument("--dim", type=int, default=None, metavar="M",
                       help=f"plain dimension, 0..{DIM_MAX} (d only); inferred from the expression if omitted")
    pe.add_argument("--apply", action="append", default=[], choices=("d", *_OPERATORS),
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
    """The largest coordinate index in ``expr``, 2 if it has none."""
    indices = re.findall(r"(?:dx|v)([0-9]+)", expr)
    if any(len(i) > 100 for i in indices):  # above DIM_MAX; not converted: int() refuses over 4,300 digits
        raise UsageError(f"dimension must be in 0..{DIM_MAX}, got an index of more than 100 digits")
    return max(map(int, indices), default=2)


def _check_dim(dim: int) -> int:
    """Refuse a dimension outside 0..DIM_MAX; checked before anything is parsed or built."""
    if not 0 <= dim <= DIM_MAX:
        raise UsageError(f"dimension must be in 0..{DIM_MAX}, got {dim}")
    return dim


def _checked(call, *args):
    """``call(*args)`` on the user's input, whose ValueError is a usage error, not a program fault."""
    try:
        return call(*args)
    except ValueError as exc:
        raise UsageError(exc) from None


def _write(text: str, path: str | None = None, mode: str = "w"):
    """Write ``text`` to the file ``path``, or without one to stdout, flushed now; a failed write is refused."""
    try:
        if not path:
            sys.stdout.write(text)
            sys.stdout.flush()
            return
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {f'report to {path}' if path else 'output to stdout'}: {exc.strerror}") from None


def _note(line: str):
    """Print ``line`` on stderr, or drop it if stderr cannot take it, as argparse drops its own messages."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def cmd_verify(args) -> int:
    cfg = CampaignConfig(**{name: getattr(args, name) for name in CampaignConfig._fields})
    _checked(cfg.validate)
    created = bool(args.out) and not os.path.exists(args.out)
    if args.out:  # refuse an unwritable report path before the campaign spends its time; "a" keeps its content
        _write("", args.out, "a")
    try:
        report = run_campaign(cfg)
        _write(report.to_json() if args.fmt == "json" else report.to_text(), args.out)  # replaced only now
    except BaseException:  # a refused, interrupted or unwritten run leaves no file of its own making behind
        if created:
            os.remove(args.out)
        raise
    if args.fmt == "json":  # kept out of the report payload so identical configs stay byte-identical
        _note(f"completed in {report.duration_s:.2f}s")
    return 0 if report.failed == 0 else 1


def cmd_eval(args) -> int:
    if args.symplectic is not None:
        dim = 2 * args.symplectic
    else:
        dim = args.dim if args.dim is not None else _infer_dim(args.expr)
    _check_dim(dim)
    space = _checked(SymplecticSpace, args.symplectic) if args.symplectic is not None else None
    form = parse_form(args.expr, dim)
    for op in args.apply:
        if op != "d" and space is None:
            raise UsageError(f"operator {op} needs --symplectic")
        form = (d if op == "d" else getattr(space, _OPERATORS[op]))(form)
    _write(render_form(form) + "\n")
    return 0


def cmd_bracket(args) -> int:
    k = args.arity
    if args.symplectic is not None:
        dim = _check_dim(2 * args.symplectic)
        fam = symplectic_family(_checked(SymplecticSpace, args.symplectic))
    else:
        dim = _check_dim(args.volume)
        fam = volume_family(_checked(VolumeSpace, args.volume))
    if k < 1:
        raise UsageError("arity must be >= 1")
    if len(args.forms) != k:
        raise UsageError(f"arity {k} needs exactly {k} forms, got {len(args.forms)}")
    forms = [parse_form(text, dim) for text in args.forms]
    for f in forms:
        if k >= 2 and f.degree != fam.ground_form_degree and not f.is_zero():
            raise UsageError(f"arity {k} bracket takes degree-{fam.ground_form_degree} forms, got degree {f.degree}")
    elems = [_checked(fam.element, f) for f in forms]
    _write(render_form(fam.l(elems).form) + "\n")
    return 0


_COMMANDS = {"verify": cmd_verify, "eval": cmd_eval, "bracket": cmd_bracket}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)  # argparse exits itself, through the finally below
        return _COMMANDS[args.command](args)
    except FormSyntaxError as exc:
        _note(f"parse error: {exc}")
    except (UsageError, ExponentOverflow) as exc:
        _note(f"error: {exc}")
    finally:
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except OSError:  # what the buffer still holds would fail again in the interpreter's exit flush
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
