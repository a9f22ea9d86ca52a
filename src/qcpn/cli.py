"""Command-line interface.

Every subcommand prints a JSON envelope::

    {"command": ..., "params": ..., "result": ..., "version": ...}

with keys sorted, so identical inputs produce byte-identical output.
Potentially large integers (coefficients, matrix entries, determinants,
pairing values) are serialized as decimal strings; structural parameters
stay plain JSON numbers.  ``--format csv`` is available where the result
is a bare matrix or coefficient row.

Exit codes: 0 success, 1 domain error (diagnostic on stderr), 2 usage
error (argparse diagnostics).

Note for shells and argparse alike: expression values that start with a
minus sign must be attached, as in ``--expr=-z0``.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice

from . import __version__
from .basis import basis_class, certify_basis
from .corep import associated_class, fundamental_weights
from .kclasses import KClass, line_class, restrict
from .ncparse import parse_expr, _tokenize
from .pairing import pairing_vector
from .sphere import fuzz_confluence, normal_form, verify_defining_relations


def _kclass_json(c: KClass) -> dict:
    return c.as_dict()


def _matrix_json(rows) -> list:
    return [[str(x) for x in row] for row in rows]


def _csv_lines(rows) -> str:
    return "\n".join(",".join(str(x) for x in row) for row in rows) + "\n"


_CHUNKS_PER_WRITE = 4096


def _write_json(obj) -> None:
    """Write ``json.dumps(obj, sort_keys=True, indent=2)`` and a newline.

    The encoder's chunks are joined and written a few thousand at a time,
    so a large envelope is never held as one list of every chunk.
    """
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(obj)
    while piece := "".join(islice(chunks, _CHUNKS_PER_WRITE)):
        sys.stdout.write(piece)
    sys.stdout.write("\n")


def _parse_coeffs(text: str) -> list[int]:
    try:
        return [int(part.strip()) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"--coeffs expects comma-separated integers, got {text!r}")


def _class_from_args(args) -> KClass:
    if args.line is not None:
        return line_class(args.n, args.line)
    if getattr(args, "basis", None) is not None:
        return basis_class(args.n, args.basis)
    return KClass.from_coeffs(args.n, _parse_coeffs(args.coeffs))


def _class_params(args) -> dict:
    if args.line is not None:
        return {"line": args.line}
    if getattr(args, "basis", None) is not None:
        return {"basis": args.basis}
    return {"coeffs": args.coeffs}


# -- subcommand handlers: each returns (params, result, csv_or_None) ---------


def _run_kbasis(args):
    cert = certify_basis(args.n)
    result = {
        "n": cert.n,
        "matrix": _matrix_json(cert.matrix),
        "det": str(cert.det),
        "inverse": _matrix_json(cert.inverse),
    }
    csv = _csv_lines(cert.matrix) if args.format == "csv" else None
    return {"n": args.n, "format": args.format}, result, csv


def _run_kclass_line(args):
    c = line_class(args.n, args.m)
    csv = _csv_lines([c.poly.coeffs]) if args.format == "csv" else None
    return {"n": args.n, "m": args.m, "format": args.format}, _kclass_json(c), csv


def _run_kclass_assoc(args):
    w = fundamental_weights(args.su)
    c = associated_class(args.n, w)
    decomposition = [
        {"m": weight, "multiplicity": mult} for weight, mult in sorted(w.counts().items())
    ]
    result = {
        "n": args.n,
        "su": args.su,
        "weights": list(w),
        "decomposition": decomposition,
        "class": _kclass_json(c),
    }
    return {"n": args.n, "su": args.su}, result, None


def _run_pair(args):
    c = _class_from_args(args)
    vec = pairing_vector(c)
    result = {
        "n": c.n,
        "class": _kclass_json(c),
        "pairings": [str(v) for v in vec.values],
    }
    return {"n": args.n, **_class_params(args)}, result, None


def _run_restrict(args):
    c = _class_from_args(args)
    restricted = restrict(c, args.target)
    params = {"n": args.n, "target": args.target, **_class_params(args)}
    csv = _csv_lines([restricted.poly.coeffs]) if args.format == "csv" else None
    return params, _kclass_json(restricted), csv


def _degree_payload(poly) -> "int | str":
    d = poly.u1_degree()
    return "inhomogeneous" if d is None else d


def _run_nc_reduce(args):
    p = parse_expr(args.expr, args.n)
    nf = normal_form(p)
    result = {"normal_form": str(nf), "degree": _degree_payload(nf)}
    return {"n": args.n, "expr": args.expr}, result, None


def _infer_n(expr: str) -> int:
    indices = [
        tok.value[0] for tok in _tokenize(expr) if tok.kind == "GEN"
    ]
    return max(indices, default=0)


def _run_nc_degree(args):
    n = args.n if args.n is not None else _infer_n(args.expr)
    p = parse_expr(args.expr, n)
    params = {"expr": args.expr}
    if args.n is not None:
        params["n"] = args.n
    return params, {"degree": _degree_payload(p)}, None


def _run_nc_fuzz(args):
    report = fuzz_confluence(args.n, args.max_len, args.trials, args.seed)
    params = {
        "n": args.n,
        "max_len": args.max_len,
        "trials": args.trials,
        "seed": args.seed,
    }
    return params, report.as_dict(), None


def _run_nc_relations(args):
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params, result, csv = args.handler(args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if csv is not None:
        sys.stdout.write(csv)
        return 0
    envelope = {
        "command": args.label,
        "params": params,
        "result": result,
        "version": __version__,
    }
    _write_json(envelope)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
