"""Command-line interface.

Every subcommand prints a JSON envelope::

    {"command": ..., "params": ..., "result": ..., "version": ...}

with keys sorted, so identical inputs produce byte-identical output.
Potentially large integers (coefficients, matrix entries, determinants,
pairing values) are serialized as decimal strings; structural parameters
stay plain JSON numbers.  ``--format csv`` is available where the result
is a bare matrix or coefficient row.

One writer, ``_write_json``, prints every envelope, byte for byte as
``json.dumps(envelope, sort_keys=True, indent=2)`` would.  It writes as
it walks, and reads any iterable as an array, so a certificate's rows
(``BasisCertificate.as_dict``) become decimal strings one row at a time,
when the writer reaches them.

The K-class commands (``kclass``, ``pair``, ``restrict``) refuse ``--n``
above ``MAX_BASIS_N``, and line powers beyond ``MAX_LINE_POWER`` in
absolute value or ranks ``--su`` above it, which bounds the size of every
class and weight list they print.

Exit codes: 0 success, 1 domain error (diagnostic on stderr), 2 usage
error (argparse diagnostics).

Note for shells and argparse alike: expression values that start with a
minus sign must be attached, as in ``--expr=-z0``.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote

from . import __version__

MAX_LINE_POWER = 10**6  # largest |m| of a line class the K-class commands build


def _write_json(obj, write, newline="\n") -> None:
    """Write ``json.dumps(obj, sort_keys=True, indent=2)`` through ``write``.

    ``newline`` is a line break followed by the indentation of ``obj``.
    Dict keys must be strings.  Any other iterable but a string is an
    array, read once; an array of strings is written as one ``str.join``,
    and an array of anything else item by item.  Plain recursion, with no
    closures, so a call leaves no reference cycle behind.
    """
    if isinstance(obj, str):
        write(_quote(obj))
    elif obj is None or obj is True or obj is False:
        write("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        write(int.__repr__(obj))
    elif isinstance(obj, dict):
        sep, inner = "{", newline + "  "
        for key, value in sorted(obj.items()):
            write(f"{sep}{inner}{_quote(key)}: ")
            _write_json(value, write, inner)
            sep = ","
        write(newline + "}" if obj else "{}")
    else:
        items, sep, inner = list(obj), "[", newline + "  "
        if items and all(map(isinstance, items, repeat(str))):
            write(sep + inner + ("," + inner).join(map(_quote, items)) + newline + "]")
            return
        for item in items:
            write(sep + inner)
            _write_json(item, write, inner)
            sep = ","
        write(newline + "]" if items else "[]")


def _parse_coeffs(text: str) -> list[int]:
    try:
        return [int(part.strip()) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"--coeffs expects comma-separated integers, got {text!r}")


def _check_class_budget(n: int, m: "int | None" = None) -> None:
    """Refuse a class of order above ``MAX_BASIS_N`` or a line power ``|m| > MAX_LINE_POWER``."""
    from .kclasses import MAX_BASIS_N

    if n > MAX_BASIS_N:
        raise ValueError(f"dimension must be at most {MAX_BASIS_N}, got {n}")
    if m is not None and abs(m) > MAX_LINE_POWER:
        raise ValueError(f"line power must be at most {MAX_LINE_POWER} in absolute value")


def _selected_class(args) -> tuple:
    """The class named by ``--line``, ``--basis`` or ``--coeffs``, and its params entry."""
    _check_class_budget(args.n, args.line)
    if args.line is not None:
        from .kclasses import line_class

        return line_class(args.n, args.line), {"line": args.line}
    if getattr(args, "basis", None) is not None:
        from .basis import basis_class

        return basis_class(args.n, args.basis), {"basis": args.basis}
    from .rings import TruncatedPoly

    return TruncatedPoly(args.n, _parse_coeffs(args.coeffs)), {"coeffs": args.coeffs}


# -- subcommand handlers: each returns (params, result, CSV rows or None) ----
# Each imports the modules it runs when it is called, so a cold start of one
# command loads only those (see the package docstring).


def _run_kbasis(args):
    from .basis import certify_basis

    cert = certify_basis(args.n)
    return {"n": args.n, "format": args.format}, cert.as_dict(), cert.matrix


def _run_kclass_line(args):
    from .kclasses import line_class

    _check_class_budget(args.n, args.m)
    c = line_class(args.n, args.m)
    return {"n": args.n, "m": args.m, "format": args.format}, c.as_dict(), [c.coeffs]


def _run_kclass_assoc(args):
    from collections import Counter

    from .corep import associated_class, fundamental_weights

    _check_class_budget(args.n)
    if args.su > MAX_LINE_POWER:  # the bundle holds the line class of power su - 1
        raise ValueError(f"rank must be at most {MAX_LINE_POWER}, got {args.su}")
    w = fundamental_weights(args.su)
    c = associated_class(args.n, w)
    decomposition = [
        {"m": weight, "multiplicity": mult} for weight, mult in sorted(Counter(w).items())
    ]
    result = {
        "n": args.n,
        "su": args.su,
        "weights": list(w),
        "decomposition": decomposition,
        "class": c.as_dict(),
    }
    return {"n": args.n, "su": args.su}, result, None


def _run_pair(args):
    from .pairing import pairing_vector

    c, selector = _selected_class(args)
    result = {
        "n": c.n,
        "class": c.as_dict(),
        "pairings": [str(v) for v in pairing_vector(c)],
    }
    return {"n": args.n, **selector}, result, None


def _run_restrict(args):
    from .kclasses import restrict

    c, selector = _selected_class(args)
    restricted = restrict(c, args.target)
    params = {"n": args.n, "target": args.target, **selector}
    return params, restricted.as_dict(), [restricted.coeffs]


def _degree_payload(poly) -> "int | str":
    d = poly.u1_degree()
    return "inhomogeneous" if d is None else d


def _run_nc_reduce(args):
    from .ncparse import parse_expr
    from .sphere import _NormalProduct

    nf = parse_expr(args.expr, args.n, _mul=_NormalProduct(args.n))
    result = {"normal_form": str(nf), "degree": _degree_payload(nf)}
    return {"n": args.n, "expr": args.expr}, result, None


def _run_nc_degree(args):
    from .ncparse import _infer_n, parse_expr

    n = args.n if args.n is not None else _infer_n(args.expr)
    p = parse_expr(args.expr, n)
    params = {"expr": args.expr}
    if args.n is not None:
        params["n"] = args.n
    return params, {"degree": _degree_payload(p)}, None


def _run_nc_fuzz(args):
    from .sphere import fuzz_confluence

    report = fuzz_confluence(args.n, args.max_len, args.trials, args.seed)
    params = {
        "n": args.n,
        "max_len": args.max_len,
        "trials": args.trials,
        "seed": args.seed,
    }
    return params, report.as_dict(), None


def _run_nc_relations(args):
    from .sphere import verify_defining_relations

    report = verify_defining_relations(args.n)
    return {"n": args.n}, report.as_dict(), None


# -- parser ------------------------------------------------------------------


def _add_class_selector(parser: argparse.ArgumentParser, with_basis: bool):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--line", type=int, metavar="M", help="line bundle class of power M")
    if with_basis:
        group.add_argument("--basis", type=int, metavar="M", help="M-th basis class")
    group.add_argument(
        "--coeffs", metavar="C0,C1,...", help="explicit t-expansion coefficients"
    )


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcpn",
        description="Exact K-theory computations for quantum projective spaces.",
    )
    parser.add_argument("--version", action="version", version=f"qcpn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    kbasis = sub.add_parser(
        "kbasis", help="basis matrix with unimodularity certificate"
    )
    kbasis.add_argument("--n", type=int, required=True, help="projective space index")
    kbasis.add_argument("--format", choices=("json", "csv"), default="json")
    kbasis.set_defaults(handler=_run_kbasis, label="kbasis")

    kclass = sub.add_parser("kclass", help="K-theory classes in the t-basis")
    kclass_sub = kclass.add_subparsers(dest="kclass_cmd", required=True, metavar="KIND")

    kline = kclass_sub.add_parser("line", help="class of a line bundle")
    kline.add_argument("--n", type=int, required=True)
    kline.add_argument("--m", type=int, required=True, help="power of the line bundle")
    kline.add_argument("--format", choices=("json", "csv"), default="json")
    kline.set_defaults(handler=_run_kclass_line, label="kclass line")

    kassoc = kclass_sub.add_parser(
        "assoc", help="class associated to the rank-M fundamental corepresentation"
    )
    kassoc.add_argument("--n", type=int, required=True)
    kassoc.add_argument("--su", type=int, required=True, help="corepresentation rank M")
    kassoc.set_defaults(handler=_run_kclass_assoc, label="kclass assoc")

    pair = sub.add_parser("pair", help="index pairings of a class")
    pair.add_argument("--n", type=int, required=True)
    _add_class_selector(pair, with_basis=True)
    pair.set_defaults(handler=_run_pair, label="pair")

    restrict_p = sub.add_parser(
        "restrict", help="restrict a class to a smaller projective space"
    )
    restrict_p.add_argument("--n", type=int, required=True)
    restrict_p.add_argument("--target", type=int, required=True)
    _add_class_selector(restrict_p, with_basis=False)
    restrict_p.add_argument("--format", choices=("json", "csv"), default="json")
    restrict_p.set_defaults(handler=_run_restrict, label="restrict")

    nc = sub.add_parser("nc", help="sphere-algebra normal forms")
    nc_sub = nc.add_subparsers(dest="nc_cmd", required=True, metavar="ACTION")

    reduce_p = nc_sub.add_parser("reduce", help="normal form of an expression")
    reduce_p.add_argument("--n", type=int, required=True)
    reduce_p.add_argument("--expr", required=True, help="expression (use --expr=... if it starts with '-')")
    reduce_p.set_defaults(handler=_run_nc_reduce, label="nc reduce")

    degree_p = nc_sub.add_parser("degree", help="circle weight of an expression")
    degree_p.add_argument("--expr", required=True)
    degree_p.add_argument("--n", type=int, help="ambient index (inferred if omitted)")
    degree_p.set_defaults(handler=_run_nc_degree, label="nc degree")

    fuzz_p = nc_sub.add_parser("fuzz", help="two-strategy confluence fuzzing")
    fuzz_p.add_argument("--n", type=int, required=True)
    fuzz_p.add_argument("--max-len", type=int, required=True)
    fuzz_p.add_argument("--trials", type=int, required=True)
    fuzz_p.add_argument("--seed", type=int, required=True)
    fuzz_p.set_defaults(handler=_run_nc_fuzz, label="nc fuzz")

    rel_p = nc_sub.add_parser("relations", help="reduce all defining relations to zero")
    rel_p.add_argument("--n", type=int, required=True)
    rel_p.set_defaults(handler=_run_nc_relations, label="nc relations")

    return parser


def run(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact integers are read and printed in full
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params, result, rows = args.handler(args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "format", None) == "csv":
        sys.stdout.writelines(",".join(map(str, row)) + "\n" for row in rows)
        return 0
    envelope = {
        "command": args.label,
        "params": params,
        "result": result,
        "version": __version__,
    }
    _write_json(envelope, sys.stdout.write)
    sys.stdout.write("\n")
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
