"""The three workloads: fixed item lists built from a seed.

An item is a short function that performs one or more operations through
a ``Runner`` (one CLI command or one script run each) and checks every
output with ``checks``.  The runner times the operations; the checks run
between them, outside the clock, each in a forked child
(``checks.isolated``).  The program is deterministic, so an item checks
its outputs once per run: a later pass whose outputs are byte-identical
to checked ones is not checked again.

Item sizes are chosen so that no item takes most of a pass: the pass time
is the metric, and it must not be one item's time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import checks
from checks import require

KBASIS_LADDER = (8, 25, 50, 100, 141, 200)
CERTIFY_MAX_N = 64
PAIR_ITEMS = 8

SPHERE_SUM_POWERS = ((1, 6), (2, 4), (3, 3), (4, 2))  # (n, k): 0.04-0.3 s each
Z0S_Z0_POWERS = (4, 8, 12)
Z0_POWERS = (2000, 4000)
Z0_PLUS_Z0S_POWERS = (6, 8)
RANDOM_PAIRS = 30

FUZZ_MAX_LEN = 6
FUZZ_TRIALS = {1: 3000, 2: 1500, 3: 1200, 4: 1000}  # about 0.2 s per item for every n
FUZZ_ITEMS_PER_N = 3
RELATIONS_LADDER = tuple(range(1, 9))
CAMPAIGN = {"max_n": 2, "trials": 1000, "exhaustive_max_n": 2}


@dataclass(frozen=True)
class Item:
    label: str
    ops: int  # operations the item attempts, whether or not one fails
    run: Callable  # run(runner): performs the operations and checks them


@dataclass(frozen=True)
class Workload:
    probe: list  # the workload's smallest CLI command, used for setup_s
    check_probe: Callable  # check_probe(stdout)
    items: list


def _cli_item(argv: list, check: Callable) -> Item:
    verified = set()  # hashes of outputs already checked in this run

    def run(runner):
        out = runner.cli(argv)
        if hash(out) not in verified:  # the same output passes the same check
            checks.isolated(check, out)
            verified.add(hash(out))

    return Item(" ".join(argv), 1, run)


# -- kbasis -------------------------------------------------------------------------


def _kbasis_cmd(n: int) -> list:
    return ["kbasis", "--n", str(n)]


def kbasis(seed: int) -> Workload:
    rng = random.Random(f"kbasis/{seed}")
    items = [_cli_item(_kbasis_cmd(n), lambda out, n=n: checks.check_kbasis(out, n)) for n in KBASIS_LADDER]

    def certify(runner):
        out = runner.script("certify_range", ["--max-n", str(CERTIFY_MAX_N)])
        checks.isolated(checks.check_certify_range, out, CERTIFY_MAX_N)

    items.append(Item(f"certify_range --max-n {CERTIFY_MAX_N}", 1, certify))
    for i in range(PAIR_ITEMS):
        n = rng.choice(KBASIS_LADDER)
        m = rng.randint(1, 2 * n) * (1 if i % 2 == 0 else -1)
        argv = ["pair", "--n", str(n), "--line", str(m)]
        items.append(_cli_item(argv, lambda out, n=n, m=m: checks.check_pair_line(out, n, m)))
    first = KBASIS_LADDER[0]
    return Workload(_kbasis_cmd(first), lambda out: checks.check_kbasis(out, first), items)


# -- nc-products ---------------------------------------------------------------------


def _letter(index: int, starred: bool) -> str:
    return f"z{index}s" if starred else f"z{index}"


def _render_sum(summands: list) -> str:
    """``[(c, e, letter), ...]`` as an expression ``c*q^e*z.. + ...``."""
    parts = []
    for c, e, (index, starred) in summands:
        body = "*".join(
            ([str(abs(c))] if abs(c) != 1 else []) + ([f"q^{e}"] if e else []) + [_letter(index, starred)]
        )
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(f" {sign} {body}" if parts else f"{sign}{body}")
    return "(" + "".join(parts) + ")"


def _random_factor(rng: random.Random, n: int) -> list:
    starred = rng.random() < 0.5
    indices = rng.sample(range(n + 1), rng.randint(1, min(3, n + 1)))
    return [(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-2, 2), (i, starred)) for i in indices]


def _as_factors(summands_list: list) -> list:
    """Factors in the form ``checks.commutative_reduction`` takes."""
    return [[({e: c}, letter) for c, e, letter in s] for s in summands_list]


def _reduce_cmd(n: int, expr: str) -> list:
    return ["nc", "reduce", "--n", str(n), f"--expr={expr}"]


def _sphere_sum_item(n: int, k: int) -> Item:
    expr = "(" + "+".join(f"z{m}*z{m}s" for m in range(n + 1)) + f")^{k}"

    def check(out):
        rendered, _, _ = checks.reduce_envelope(out)
        require(rendered == "1", f"{expr}: normal form {rendered[:60]!r}, expected 1")

    return _cli_item(_reduce_cmd(n, expr), check)


def _z0s_z0_check(k: int) -> Callable:
    def check(out):
        _, poly, degree = checks.reduce_envelope(out)
        require(poly == checks.z0s_z0_power(k), f"z0s^{k}*z0^{k}: not prod_j (1 - q^-2j z1s*z1)")
        require(degree == 0, f"z0s^{k}*z0^{k}: degree {degree}")

    return check


def _z0_power_item(k: int) -> Item:
    def check(out):
        rendered, _, degree = checks.reduce_envelope(out)
        require(rendered == "*".join(["z0"] * k), f"z0^{k}: not the {k}-letter word")
        require(degree == k, f"z0^{k}: degree {degree}")

    return _cli_item(_reduce_cmd(1, f"z0^{k}"), check)


def _q_one_check(factors: list, n: int, label: str) -> Callable:
    def check(poly):
        expected = checks.commutative_reduction(factors, n)
        require(checks.at_q_one(poly, n) == expected, f"{label}: q = 1 specialisation differs")

    return check


def _z0_plus_z0s_item(k: int) -> Item:
    expr = f"(z0+z0s)^{k}"
    q_one = _q_one_check(_as_factors([[(1, 0, (0, False)), (1, 0, (0, True))]] * k), 1, expr)

    def check(out):
        _, poly, _ = checks.reduce_envelope(out)
        q_one(poly)

    return _cli_item(_reduce_cmd(1, expr), check)


def _product_pair_item(rng: random.Random) -> Item:
    """A, B random products of short sums; checks nf(A*B) = nf(nf(A)*nf(B))."""
    n = rng.randint(1, 3)
    a = [_random_factor(rng, n) for _ in range(2)]
    b = [_random_factor(rng, n) for _ in range(2)]
    exprs = {"A": "*".join(map(_render_sum, a)), "B": "*".join(map(_render_sum, b))}
    exprs["AB"] = f"{exprs['A']}*{exprs['B']}"
    factors = {"A": a, "B": b, "AB": a + b}
    q_one = {key: _q_one_check(_as_factors(f), n, exprs[key]) for key, f in factors.items()}
    weight = {key: sum(-1 if s[0][2][1] else 1 for s in f) for key, f in factors.items()}

    verified = set()

    def check(outs):
        nf = {}
        for key in ("A", "B", "AB"):
            _, poly, degree = checks.reduce_envelope(outs[key])
            q_one[key](poly)
            require(not poly or degree == weight[key], f"{exprs[key]}: degree {degree}, letters {weight[key]}")
            nf[key] = poly
        _, again, _ = checks.reduce_envelope(outs["again"])
        require(again == nf["AB"], f"{exprs['AB']}: nf(A*B) != nf(nf(A)*nf(B))")

    def run(runner):
        outs = {key: runner.cli(_reduce_cmd(n, exprs[key])) for key in ("A", "B", "AB")}
        a, b = (checks.envelope(outs[key], "nc reduce").get("normal_form") for key in ("A", "B"))
        outs["again"] = runner.cli(_reduce_cmd(n, f"({a})*({b})"))
        key = hash(tuple(outs.values()))
        if key not in verified:
            checks.isolated(check, outs)
            verified.add(key)

    return Item(f"products n={n} {exprs['AB']}", 4, run)


def nc_products(seed: int) -> Workload:
    rng = random.Random(f"nc-products/{seed}")
    items = [_sphere_sum_item(n, k) for n, k in SPHERE_SUM_POWERS]
    items += [_cli_item(_reduce_cmd(1, f"z0s^{k}*z0^{k}"), _z0s_z0_check(k)) for k in Z0S_Z0_POWERS]
    items += [_z0_power_item(k) for k in Z0_POWERS]
    items += [_z0_plus_z0s_item(k) for k in Z0_PLUS_Z0S_POWERS]
    items += [_product_pair_item(rng) for _ in range(RANDOM_PAIRS)]
    k = Z0S_Z0_POWERS[0]
    return Workload(_reduce_cmd(1, f"z0s^{k}*z0^{k}"), _z0s_z0_check(k), items)


# -- nc-fuzz -----------------------------------------------------------------------


def _fuzz_item(n: int, trials: int, seed: int) -> Item:
    argv = ["nc", "fuzz", "--n", str(n), "--max-len", str(FUZZ_MAX_LEN), "--trials", str(trials), "--seed", str(seed)]
    check = lambda out: checks.check_report(checks.envelope(out, "nc fuzz"), trials, " ".join(argv))
    return _cli_item(argv, check)


def _relations_cmd(n: int) -> list:
    return ["nc", "relations", "--n", str(n)]


def _relations_check(n: int) -> Callable:
    return lambda out: checks.check_report(
        checks.envelope(out, "nc relations"), checks.relation_count(n), f"nc relations --n {n}"
    )


def nc_fuzz(seed: int) -> Workload:
    rng = random.Random(f"nc-fuzz/{seed}")
    items = [
        _fuzz_item(n, trials, rng.randrange(2**31))
        for _ in range(FUZZ_ITEMS_PER_N)
        for n, trials in FUZZ_TRIALS.items()
    ]
    items += [_cli_item(_relations_cmd(n), _relations_check(n)) for n in RELATIONS_LADDER]
    argv = [
        "--max-n", str(CAMPAIGN["max_n"]),
        "--trials", str(CAMPAIGN["trials"]),
        "--max-len", str(FUZZ_MAX_LEN),
        "--exhaustive-max-n", str(CAMPAIGN["exhaustive_max_n"]),
        "--seed", str(rng.randrange(2**31)),
    ]

    def campaign(runner):
        out = runner.script("fuzz_campaign", argv)
        checks.isolated(checks.check_campaign, out, CAMPAIGN["max_n"], CAMPAIGN["exhaustive_max_n"], CAMPAIGN["trials"])

    items.append(Item("fuzz_campaign " + " ".join(argv), 1, campaign))
    first = RELATIONS_LADDER[0]
    return Workload(_relations_cmd(first), _relations_check(first), items)


WORKLOADS = {"kbasis": kbasis, "nc-products": nc_products, "nc-fuzz": nc_fuzz}
