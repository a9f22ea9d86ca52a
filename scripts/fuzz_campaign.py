#!/usr/bin/env python3
"""Confluence fuzzing campaign for the normal-ordering rewrite system.

For each n in the requested range this reduces a batch of random words
twice -- once with the deterministic leftmost strategy and once with a
seeded random-redex strategy -- and reports any normal-form mismatches,
step-budget hits, or degree violations.  Small spaces additionally get an
exhaustive sweep over all two-letter words under the same step budget; a
sweep that runs out of budget counts as a failed report.  Exit code 0 means
every reduction agreed.

Usage:
    python3 scripts/fuzz_campaign.py
    python3 scripts/fuzz_campaign.py --max-n 6 --trials 50000 --seed 7
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

from qcpn.sphere import StepBudgetExceeded, exhaustive_pair_check, fuzz_confluence


@dataclass(frozen=True)
class FuzzConfig:
    min_n: int = 1
    max_n: int = 4
    trials: int = 10_000
    max_len: int = 6
    seed: int = 42
    exhaustive_max_n: int = 2
    step_cap: int | None = None


def parse_args(argv: list[str] | None = None) -> FuzzConfig:
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
    if args.trials < 1 or args.max_len < 1:
        parser.error("need positive --trials and --max-len")
    return FuzzConfig(
        min_n=args.min_n,
        max_n=args.max_n,
        trials=args.trials,
        max_len=args.max_len,
        seed=args.seed,
        exhaustive_max_n=args.exhaustive_max_n,
        step_cap=args.step_cap,
    )


def run(config: FuzzConfig) -> int:
    failures = 0
    start = time.perf_counter()
    for n in range(config.min_n, min(config.max_n, config.exhaustive_max_n) + 1):
        try:
            rep = exhaustive_pair_check(n, step_cap=config.step_cap)
        except StepBudgetExceeded as exc:
            print(f"n={n}  exhaustive  FAIL  {exc}")
            failures += 1
            continue
        verdict = "OK" if rep.passed else "MISMATCH"
        print(f"n={n}  exhaustive  {rep.words:6d} words  max {rep.max_steps:5d} steps  {verdict}")
        if not rep.passed:
            failures += 1
            for word, left, right in rep.mismatches[:3]:
                print(f"    {word}:  leftmost -> {left}  |  random -> {right}")
    for n in range(config.min_n, config.max_n + 1):
        t0 = time.perf_counter()
        rep = fuzz_confluence(
            n,
            max_len=config.max_len,
            trials=config.trials,
            seed=config.seed,
            step_cap=config.step_cap,
        )
        dt = time.perf_counter() - t0
        verdict = "OK" if rep.passed else "MISMATCH"
        print(
            f"n={n}  fuzz        {rep.words:6d} words  max {rep.max_steps:5d} steps  "
            f"{verdict}  ({dt:.2f}s)"
        )
        if not rep.passed:
            failures += 1
            for word, left, right in rep.mismatches[:3]:
                print(f"    {word}:  leftmost -> {left}  |  random -> {right}")
    total = time.perf_counter() - start
    status = "all strategies agree" if failures == 0 else f"{failures} report(s) with mismatches"
    print(f"campaign finished in {total:.2f}s: {status}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(run(parse_args()))
