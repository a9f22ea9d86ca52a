#!/usr/bin/env python3
"""Confluence fuzzing campaign for the normal-ordering rewrite system.

For each n in the requested range this reduces a batch of random words
with the leftmost and with the rightmost strategy, each distinct word
once, and reports any normal-form mismatches, step-budget hits, or degree
violations; the seed chooses only the words.  Small spaces additionally
get an exhaustive sweep over all two-letter words under the same step
budget; a word that runs out of budget is reported by name, in either
check.  Exit code 0 means every reduction agreed; an invalid
``QCPN_STEP_CAP`` prints ``error: ...`` and exits 1; a usage error exits 2.

Sizes are capped as ``qcpn nc fuzz`` caps them: ``--max-n`` at most
``qcpn.cli.MAX_NC_N`` (the rewrite table grows as n^2) and ``--max-len``
at most ``qcpn.cli.MAX_FUZZ_LEN``.  ``--trials`` is not capped, because it
sets how long a campaign runs; each word it draws is bounded by the two
caps and by the step budget.  It sets how much memory the campaign holds,
too: each fuzz batch keeps every distinct word it has compared until it
returns, about 80 bytes a word, so at n = 50 and length 4, 80000 trials
peak at 7.6 MiB (``tracemalloc``), against 2.8 MiB at 20000.  Each check
builds the rewrite table of its n and drops it when it returns, so a
campaign holds one table at a time: ``--max-n 200 --trials 1
--exhaustive-max-n 0`` peaks at about 34 MiB RSS.

Usage:
    python3 scripts/fuzz_campaign.py
    python3 scripts/fuzz_campaign.py --max-n 6 --trials 50000 --seed 7
"""

from __future__ import annotations

import argparse
import sys
import time

from qcpn.cli import MAX_FUZZ_LEN, MAX_NC_N, exit_with
from qcpn.sphere import _step_cap, exhaustive_pair_check, fuzz_confluence


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-n", type=int, default=1)
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument("--trials", type=int, default=10_000, help="random words per space")
    parser.add_argument("--max-len", type=int, default=6, help="maximum word length")
    parser.add_argument("--seed", type=int, default=42, help="RNG seed (campaign is deterministic)")
    parser.add_argument(
        "--exhaustive-max-n",
        type=int,
        default=2,
        help="also sweep all two-letter words for n up to this bound (0 disables)",
    )
    parser.add_argument("--step-cap", type=int, default=None, help="per-reduction step budget")
    args = parser.parse_args(argv)
    if args.min_n < 1 or args.max_n < args.min_n:
        parser.error("need 1 <= min-n <= max-n")
    if args.max_n > MAX_NC_N:
        parser.error(f"--max-n must be at most {MAX_NC_N}, got {args.max_n}")
    if args.max_len > MAX_FUZZ_LEN:
        parser.error(f"--max-len must be at most {MAX_FUZZ_LEN}, got {args.max_len}")
    if args.trials < 1 or args.max_len < 2:
        parser.error("need positive --trials and --max-len >= 2")
    if args.step_cap is not None and args.step_cap < 1:
        parser.error("need --step-cap >= 1")
    return args


def _report(head: str, rep, tail: str = "") -> bool:
    """Print one report line and its first mismatches; True if it passed."""
    verdict = "OK" if rep.passed else "MISMATCH"
    print(f"{head}  {rep.words:6d} words  max {rep.max_steps:5d} steps  {verdict}{tail}")
    for word, left, right in rep.mismatches[:3]:
        print(f"    {word}:  leftmost -> {left}  |  rightmost -> {right}")
    return rep.passed


def run(args: argparse.Namespace) -> int:
    try:
        _step_cap(args.step_cap)  # without --step-cap, QCPN_STEP_CAP must be valid
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures = 0
    start = time.perf_counter()
    for n in range(args.min_n, min(args.max_n, args.exhaustive_max_n) + 1):
        rep = exhaustive_pair_check(n, step_cap=args.step_cap)
        if not _report(f"n={n}  exhaustive", rep):
            failures += 1
    for n in range(args.min_n, args.max_n + 1):
        t0 = time.perf_counter()
        rep = fuzz_confluence(
            n, max_len=args.max_len, trials=args.trials, seed=args.seed, step_cap=args.step_cap
        )
        if not _report(f"n={n}  fuzz      ", rep, f"  ({time.perf_counter() - t0:.2f}s)"):
            failures += 1
    total = time.perf_counter() - start
    status = "all strategies agree" if failures == 0 else f"{failures} report(s) with mismatches"
    print(f"campaign finished in {total:.2f}s: {status}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    exit_with(lambda: run(parse_args()))
