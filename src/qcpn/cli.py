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
class and weight list they print.  ``nc reduce`` and ``nc fuzz`` refuse
``--n`` above ``MAX_NC_N`` and ``nc relations`` above
``MAX_RELATIONS_N``; ``nc fuzz`` also refuses ``--trials`` above
``MAX_FUZZ_TRIALS`` and ``--max-len`` above ``MAX_FUZZ_LEN``.  Each
refusal comes before the rewrite table is built.

Exit codes: 0 success, 1 domain error (diagnostic on stderr), 2 usage
error (argparse diagnostics).

Note for shells and argparse alike: expression values that start with a
minus sign must be attached, as in ``--expr=-z0``.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote

from . import __version__

MAX_LINE_POWER = 10**6  # largest |m| of a line class the K-class commands build
MAX_NC_N = 200  # nc reduce at n = 200 takes about 0.3 s and 49 MiB as a process
MAX_RELATIONS_N = 48  # nc relations grows as n^3: 1-2 s at n = 48
MAX_FUZZ_TRIALS = 10**4  # 0.5-0.8 s as a process at n = 4, up to six letters, seed 1 (2-vCPU Xeon)
MAX_FUZZ_LEN = 12  # 12 letters: about 1 ms a word at n = 2; at n = 200 most words are
# fast, but one of the first 1000 of seed 1 takes 0.9 * 10^6 rightmost steps and 25 s


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


def _at_most(what: str, value: int, cap: int) -> None:
    if value > cap:
        raise ValueError(f"{what} must be at most {cap}, got {value}")


def _check_class_budget(n: int, m: "int | None" = None) -> None:
    """Refuse a class of order above ``MAX_BASIS_N`` or a line power ``|m| > MAX_LINE_POWER``."""
    from .kclasses import MAX_BASIS_N

    _at_most("dimension", n, MAX_BASIS_N)
    if m is not None and abs(m) > MAX_LINE_POWER:
        raise ValueError(f"line power must be at most {MAX_LINE_POWER} in absolute value")


def _selected_class(args):
    """The class named by ``--line``, ``--basis`` or ``--coeffs``."""
    _check_class_budget(args.n, args.line)
    if args.line is not None:
        from .kclasses import line_class

        return line_class(args.n, args.line)
    if getattr(args, "basis", None) is not None:
        from .basis import basis_class

        return basis_class(args.n, args.basis)
    from .rings import TruncatedPoly

    return TruncatedPoly(args.n, _parse_coeffs(args.coeffs))


# -- subcommand handlers: each returns (result, CSV rows or None) ------------
# Each imports the modules it runs when it is called, so a cold start of one
# command loads only those (see the package docstring).


def _run_kbasis(args):
    from .basis import certify_basis

    cert = certify_basis(args.n)
    return cert.as_dict(), cert.matrix


def _run_kclass_line(args):
    from .kclasses import line_class

    _check_class_budget(args.n, args.m)
    c = line_class(args.n, args.m)
    return c.as_dict(), [c.coeffs]


def _run_kclass_assoc(args):
    from collections import Counter

    from .corep import associated_class, fundamental_weights

    _check_class_budget(args.n)
    _at_most("rank", args.su, MAX_LINE_POWER)  # the bundle holds the line class of power su - 1
    w = fundamental_weights(args.su)
    c = associated_class(args.n, w)
    result = {"n": args.n, "su": args.su, "weights": list(w), "class": c.as_dict()}
    result["decomposition"] = [{"m": m, "multiplicity": k} for m, k in sorted(Counter(w).items())]
    return result, None


def _run_pair(args):
    from .pairing import pairing_vector

    c = _selected_class(args)
    return {"n": c.n, "class": c.as_dict(), "pairings": [str(v) for v in pairing_vector(c)]}, None


def _run_restrict(args):
    from .kclasses import restrict

    restricted = restrict(_selected_class(args), args.target)
    return restricted.as_dict(), [restricted.coeffs]


def _degree_payload(poly) -> "int | str":
    d = poly.u1_degree()
    return "inhomogeneous" if d is None else d


def _run_nc_reduce(args):
    from .ncparse import parse_expr
    from .sphere import _NormalProduct

    _at_most("ambient index", args.n, MAX_NC_N)
    nf = parse_expr(args.expr, args.n, _mul=_NormalProduct(args.n))
    return {"normal_form": str(nf), "degree": _degree_payload(nf)}, None


def _run_nc_degree(args):
    from .ncparse import _infer_n, parse_expr

    n = args.n if args.n is not None else _infer_n(args.expr)
    return {"degree": _degree_payload(parse_expr(args.expr, n))}, None


def _run_nc_fuzz(args):
    from .sphere import fuzz_confluence

    _at_most("ambient index", args.n, MAX_NC_N)
    _at_most("trials", args.trials, MAX_FUZZ_TRIALS)
    _at_most("max_len", args.max_len, MAX_FUZZ_LEN)
    return fuzz_confluence(args.n, args.max_len, args.trials, args.seed).as_dict(), None


def _run_nc_relations(args):
    from .sphere import verify_defining_relations

    _at_most("ambient index", args.n, MAX_RELATIONS_N)
    return verify_defining_relations(args.n).as_dict(), None


# -- parser ------------------------------------------------------------------


def _command(sub, path: str, handler, help: str, *echo: str, n_help=None, with_n=True):
    """Declare the command ``path`` (as ``"kclass line"``) on ``sub``; return its parser.

    The command runs ``handler``, its envelope is labelled ``path``, and its
    params echo ``n`` and the arguments named in ``echo``, leaving out unset
    ones.  A required ``--n`` is declared first unless ``with_n`` is false.
    """
    parser = sub.add_parser(path.rpartition(" ")[2], help=help)
    if with_n:
        parser.add_argument("--n", type=int, required=True, help=n_help)
    parser.set_defaults(handler=handler, label=path, echo=("n", *echo))
    return parser


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")


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

    kbasis = _command(
        sub, "kbasis", _run_kbasis, "basis matrix with unimodularity certificate", "format",
        n_help="projective space index",
    )
    _add_format(kbasis)

    kclass = sub.add_parser("kclass", help="K-theory classes in the t-basis")
    kclass_sub = kclass.add_subparsers(dest="kclass_cmd", required=True, metavar="KIND")

    kline = _command(
        kclass_sub, "kclass line", _run_kclass_line, "class of a line bundle", "m", "format"
    )
    kline.add_argument("--m", type=int, required=True, help="power of the line bundle")
    _add_format(kline)

    kassoc = _command(
        kclass_sub, "kclass assoc", _run_kclass_assoc,
        "class associated to the rank-M fundamental corepresentation", "su",
    )
    kassoc.add_argument("--su", type=int, required=True, help="corepresentation rank M")

    pair = _command(sub, "pair", _run_pair, "index pairings of a class", "line", "basis", "coeffs")
    _add_class_selector(pair, with_basis=True)

    restrict_p = _command(
        sub, "restrict", _run_restrict, "restrict a class to a smaller projective space",
        "target", "line", "coeffs",
    )
    restrict_p.add_argument("--target", type=int, required=True)
    _add_class_selector(restrict_p, with_basis=False)
    _add_format(restrict_p)

    nc = sub.add_parser("nc", help="sphere-algebra normal forms")
    nc_sub = nc.add_subparsers(dest="nc_cmd", required=True, metavar="ACTION")

    reduce_p = _command(nc_sub, "nc reduce", _run_nc_reduce, "normal form of an expression", "expr")
    reduce_p.add_argument("--expr", required=True, help="expression (use --expr=... if it starts with '-')")

    degree_p = _command(
        nc_sub, "nc degree", _run_nc_degree, "circle weight of an expression", "expr", with_n=False
    )
    degree_p.add_argument("--expr", required=True)
    degree_p.add_argument("--n", type=int, help="ambient index (inferred if omitted)")

    fuzz_p = _command(
        nc_sub, "nc fuzz", _run_nc_fuzz, "two-strategy confluence fuzzing",
        "max_len", "trials", "seed",
    )
    for flag in ("--max-len", "--trials", "--seed"):
        fuzz_p.add_argument(flag, type=int, required=True)

    _command(nc_sub, "nc relations", _run_nc_relations, "reduce all defining relations to zero")
    return parser


def run(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact integers are read and printed in full
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result, rows = args.handler(args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "format", None) == "csv":
        sys.stdout.writelines(",".join(map(str, row)) + "\n" for row in rows)
        return 0
    params = {k: v for k, v in vars(args).items() if k in args.echo and v is not None}
    envelope = {
        "command": args.label,
        "params": params,
        "result": result,
        "version": __version__,
    }
    _write_json(envelope, sys.stdout.write)
    sys.stdout.write("\n")
    return 0


def exit_with(main) -> None:
    """Exit with ``main()``'s status, or with 1 and no traceback once stdout's reader has gone."""
    try:
        status = main()
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the flush at exit writes nothing
        status = 1
    sys.exit(status)


def main() -> None:
    exit_with(run)


if __name__ == "__main__":
    main()
