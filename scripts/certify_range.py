#!/usr/bin/env python3
"""Certify the integral basis for a range of quantum projective spaces.

For each n in the range this builds the (n+1) x (n+1) integer matrix of
basis-class coefficients and its closed-form integer inverse, re-multiplies
to confirm the product is the identity, and takes the exact determinant.
Unless ``--skip-nesting`` is given, it also checks that each matrix is the
leading block of the next one in the range.  A nonzero exit code means at least one
space failed.

Usage:
    python3 scripts/certify_range.py --max-n 64
    python3 scripts/certify_range.py --min-n 10 --max-n 20 --quiet
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

from qcpn.basis import certify_basis, is_leading_block


@dataclass(frozen=True)
class CertifyConfig:
    min_n: int = 1
    max_n: int = 64
    check_nesting: bool = True
    quiet: bool = False


def parse_args(argv: list[str] | None = None) -> CertifyConfig:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-n", type=int, default=1, help="first space to certify")
    parser.add_argument("--max-n", type=int, default=64, help="last space to certify")
    parser.add_argument(
        "--skip-nesting",
        action="store_true",
        help="skip the check that each matrix is the leading block of the next",
    )
    parser.add_argument("--quiet", action="store_true", help="only print the summary line")
    args = parser.parse_args(argv)
    if args.min_n < 1 or args.max_n < args.min_n:
        parser.error("need 1 <= min-n <= max-n")
    return CertifyConfig(
        min_n=args.min_n,
        max_n=args.max_n,
        check_nesting=not args.skip_nesting,
        quiet=args.quiet,
    )


def run(config: CertifyConfig) -> int:
    failures = 0
    start = time.perf_counter()
    previous = None  # matrix of the last certified space, for the nesting check
    for n in range(config.min_n, config.max_n + 1):
        t0 = time.perf_counter()
        try:
            cert = certify_basis(n)
        except ArithmeticError as exc:
            print(f"n={n:3d}  FAIL  {exc}")
            failures += 1
            previous = None
            continue
        nested = (
            not config.check_nesting
            or previous is None
            or is_leading_block(previous, cert.matrix)
        )
        previous = cert.matrix
        dt = time.perf_counter() - t0
        if not nested:
            print(f"n={n:3d}  FAIL  matrix for n={n - 1} is not its leading block")
            failures += 1
        elif not config.quiet:
            print(f"n={n:3d}  det={cert.det:+d}  verified  {dt * 1000:7.2f} ms")
    total = time.perf_counter() - start
    spaces = config.max_n - config.min_n + 1
    status = "OK" if failures == 0 else f"{failures} FAILED"
    print(f"certified {spaces - failures}/{spaces} spaces in {total:.2f}s: {status}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(run(parse_args()))
