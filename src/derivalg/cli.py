"""Command-line front end.

Every subcommand shares the signature flags ``--arity``,
``--symmetric/--no-symmetric``, ``--unital``, ``--vars`` and
``--truncate`` (the truncation defaults to the degree window the
computations in this package are verified in: 8 for binary products, 9
otherwise).  Payload expressions follow the grammar of
:mod:`derivalg.sexpr`; a payload of ``-`` reads standard input.  With
``--json`` the result is wrapped in an envelope that validates against
``output_schema.json`` shipped inside the package.  Exit codes: 0 on
success, 1 on domain errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import __version__
from .deriv import Derivation, apply, is_left_nilpotent, is_right_nilpotent, lsym_mul
from .envfox import jacobian, mat_is_nilpotent
from .freealg import UNKNOWN, AlgebraError, Element, Signature, generators, substitute
from .genpos import certificate, span_check
from .sexpr import (
    _int,
    parse_derivation,
    parse_element,
    parse_index_range,
    parse_indexed,
    parse_word,
)
from .structconst import _NAMED, builtin, check_identity, named_identity
from .varieties import (
    Identity,
    default_truncation,
    engel_index,
    quotient_space,
    variety,
)

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--arity", type=int, default=2, help="operation arity m")
    common.add_argument(
        "--symmetric",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="whether the product is symmetric",
    )
    common.add_argument(
        "--unital",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="adjoin a unit (binary only)",
    )
    common.add_argument("--vars", type=int, default=1, help="number of generators")
    common.add_argument(
        "--truncate",
        type=int,
        default=None,
        help="truncation degree for quotient computations",
    )
    common.add_argument(
        "--json", action="store_true", help="emit a JSON envelope instead of text"
    )

    parser = argparse.ArgumentParser(
        prog="derivalg",
        description="left-symmetric products of derivations of free algebras",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", parents=[common], help="left-symmetric product")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("apply", parents=[common], help="apply a derivation")
    p.add_argument("derivation")
    p.add_argument("element")

    p = sub.add_parser("nilpotent", parents=[common], help="bounded nilpotency probe")
    p.add_argument("derivation")
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.add_argument("--bound", type=int, default=10)
    p.add_argument("--identity", action="append", default=[])

    p = sub.add_parser("jacobian", parents=[common], help="matrix of Fox derivatives")
    p.add_argument("derivation")
    p.add_argument("--probe", type=int, default=None, metavar="BOUND")
    p.add_argument("--identity", action="append", default=[])

    p = sub.add_parser("generate", parents=[common], help="seed-generation evidence")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", help="certify one word")
    group.add_argument("--span", type=int, help="span report up to this degree")

    p = sub.add_parser("quotient", parents=[common], help="relatively free dimensions")
    p.add_argument("--identity", action="append", required=True)
    p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("reduce", parents=[common], help="normal form in a quotient")
    p.add_argument("--identity", action="append", required=True)
    p.add_argument("element")

    p = sub.add_parser(
        "check-identity", parents=[common], help="identity over an indexed algebra"
    )
    p.add_argument("--builtin", required=True)
    p.add_argument("--identity", required=True)
    p.add_argument("--range", default="-1..12", dest="index_range")

    p = sub.add_parser("engel", parents=[common], help="left-multiplication nilpotency")
    p.add_argument("--identity", action="append", required=True)
    p.add_argument("--bound", type=int, default=10)

    p = sub.add_parser("structconst", parents=[common], help="indexed-algebra product")
    p.add_argument("--builtin", required=True)
    p.add_argument("left")
    p.add_argument("right")

    return parser


def _signature(args) -> Signature:
    return Signature(args.arity, args.symmetric, args.unital, args.vars)


def _payload(text: str) -> str:
    return sys.stdin.read().strip() if text == "-" else text


def _parse_identity(
    text: str, arity: int, symmetric: bool, unital: bool
) -> Element:
    """Parse an identity payload (read once) and rename the variables that
    occur to ``x1..xk`` in index order: they are dummies, so an identity
    in ``x1`` and ``x7`` lives over two generators, not seven."""
    text = _payload(text)
    found = [_int(m.group(1), m.start(1)) for m in re.finditer(r"x([1-9]\d*)", text)]
    a = parse_element(text, Signature(arity, symmetric, unital, max(found, default=1)))
    occurring = sorted({i for w, _ in a.terms for i, _ in w.content})
    if not occurring:
        return a
    sig = Signature(arity, symmetric, unital, len(occurring))
    return substitute(a, dict(zip(occurring, generators(sig))))


def _context(args, sig: Signature):
    """Quotient space for the --identity flags, or None without any."""
    names = getattr(args, "identity", None)
    if not names:
        return None, None
    relations = [
        _parse_identity(t, args.arity, args.symmetric, args.unital) for t in names
    ]
    truncation = (
        args.truncate if args.truncate is not None else default_truncation(sig)
    )
    return quotient_space(variety(sig, *relations), truncation), truncation


def _probe_result(out):
    if out is UNKNOWN:
        return "unknown"
    if out is None:
        return "absent"
    return out


def _emit(args, sig: Signature, text: str, result, truncation=None) -> int:
    if args.json:
        doc = {
            "command": args.command,
            "signature": {
                "arity": sig.arity,
                "symmetric": sig.symmetric,
                "unital": sig.unital,
                "generators": sig.num_generators,
            },
            "result": result,
            "truncation": truncation,
            "version": __version__,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(text)
    return 0


def _run_product(args) -> int:
    sig = _signature(args)
    out = lsym_mul(
        parse_derivation(_payload(args.left), sig),
        parse_derivation(_payload(args.right), sig),
    )
    return _emit(args, sig, str(out), str(out))


def _run_apply(args) -> int:
    sig = _signature(args)
    d = parse_derivation(_payload(args.derivation), sig)
    a = parse_element(_payload(args.element), sig)
    out = apply(d, a)
    return _emit(args, sig, str(out), str(out))


def _run_nilpotent(args) -> int:
    sig = _signature(args)
    d = parse_derivation(_payload(args.derivation), sig)
    context, truncation = _context(args, sig)
    if context is not None:
        d = Derivation(sig, d.coords, context)
    probe = is_left_nilpotent if args.side == "left" else is_right_nilpotent
    out = _probe_result(probe(d, args.bound))
    return _emit(
        args,
        sig,
        str(out),
        {"index": out, "side": args.side, "bound": args.bound},
        truncation,
    )


def _run_jacobian(args) -> int:
    sig = _signature(args)
    J = jacobian(parse_derivation(_payload(args.derivation), sig))
    matrix = [[str(e) for e in row] for row in J.entries]
    result = {"matrix": matrix}
    text = str(J)
    truncation = None
    if args.probe is not None:
        context, truncation = _context(args, sig)
        out = _probe_result(mat_is_nilpotent(J, args.probe, context))
        result["nilpotency"] = out
        text += f"\nnilpotency: {out}"
    return _emit(args, sig, text, result, truncation)


def _run_generate(args) -> int:
    sig = _signature(args)
    if args.word is not None:
        cert = certificate(sig, parse_word(_payload(args.word), sig))
        result = {"target": str(cert.target), "expression": cert.expression()}
        return _emit(args, sig, str(cert), result)
    report = span_check(sig, args.span)
    result = {
        "rows": [list(row) for row in report.rows],
        "passed": report.passed,
    }
    return _emit(args, sig, str(report), result)


def _run_quotient(args) -> int:
    sig = _signature(args)
    space, truncation = _context(args, sig)
    basis = [str(w) for w in space.basis(args.degree)]
    text = "\n".join(
        [f"degree {args.degree}", f"dimension {len(basis)}"]
        + [f"  {w}" for w in basis]
    )
    result = {
        "degree": args.degree,
        "dimension": len(basis),
        "basis": basis,
    }
    return _emit(args, sig, text, result, truncation)


def _run_reduce(args) -> int:
    sig = _signature(args)
    space, truncation = _context(args, sig)
    out = space.reduce(parse_element(_payload(args.element), sig))
    return _emit(args, sig, str(out), str(out), truncation)


def _run_check_identity(args) -> int:
    alg = builtin(args.builtin)
    if args.identity in _NAMED:
        ident = named_identity(args.identity)
    else:
        ident = Identity(_parse_identity(args.identity, 2, False, False))
    lo, hi = parse_index_range(args.index_range)
    ce = check_identity(alg, ident, lo, hi)
    sig = _signature(args)
    if ce is None:
        return _emit(
            args, sig, "PASS", {"pass": True, "algebra": alg.name, "range": [lo, hi]}
        )
    spots = ", ".join(alg.basis_name(i) for i in ce.indices)
    text = f"FAIL at ({spots}): defect {ce.defect}"
    result = {
        "pass": False,
        "algebra": alg.name,
        "range": [lo, hi],
        "indices": list(ce.indices),
        "defect": str(ce.defect),
    }
    return _emit(args, sig, text, result)


def _run_engel(args) -> int:
    sig = _signature(args)
    space, truncation = _context(args, sig)
    out = _probe_result(
        engel_index(space.presentation, args.bound, truncation=truncation)
    )
    return _emit(
        args, sig, str(out), {"index": out, "bound": args.bound}, truncation
    )


def _run_structconst(args) -> int:
    alg = builtin(args.builtin)
    a = parse_indexed(_payload(args.left), alg)
    b = parse_indexed(_payload(args.right), alg)
    out = a * b
    return _emit(args, _signature(args), str(out), str(out))


_RUNNERS = {
    "product": _run_product,
    "apply": _run_apply,
    "nilpotent": _run_nilpotent,
    "jacobian": _run_jacobian,
    "generate": _run_generate,
    "quotient": _run_quotient,
    "reduce": _run_reduce,
    "check-identity": _run_check_identity,
    "engel": _run_engel,
    "structconst": _run_structconst,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a detached "-1..12" as an unknown option, not a value
    for i, tok in enumerate(argv[:-1]):
        if tok == "--range" and argv[i + 1].startswith("-"):
            argv[i : i + 2] = [f"--range={argv[i + 1]}"]
            break
    args = _build_parser().parse_args(argv)
    try:
        return _RUNNERS[args.command](args)
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return 1
    except ValueError as exc:
        # str() of an int beyond the interpreter's digit limit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
