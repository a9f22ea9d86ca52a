"""Independent checks of qcpn outputs.

Every expected value here is computed from first principles (binomial
coefficients, the sphere relation at q = 1, the normal-word shape) or is a
property the method must have.  Nothing is compared against a stored copy
of an earlier output, and nothing here imports ``qcpn``.

A failed check raises ``CheckError``.  The benchmark runs each check
through ``isolated``, in a forked child, so that the memory a check uses
does not count toward the peak resident set of the benchmark process,
which ``peak_rss_mib`` reports as the program's.
"""

from __future__ import annotations

import json
import operator
import os
import re
from itertools import product as cartesian
from math import comb

# A letter is (index, starred); a word is a tuple of letters.  A Laurent
# polynomial in q is a dict {exponent: nonzero int}.


class CheckError(AssertionError):
    """An output of the program is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def isolated(check, *args) -> None:
    """Run ``check(*args)`` in a forked child and wait for it.

    A ``CheckError`` in the child is raised again here with its message.
    The child's memory is its own, so this process's ``ru_maxrss`` stays
    that of the program's operations.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report through the pipe, never return
        os.close(read)
        code = 0
        try:
            check(*args)
        except BaseException as exc:
            os.write(write, f"{type(exc).__name__}: {exc}"[:2000].encode())
            code = 1
        finally:
            os._exit(code)  # skips buffered stdout and atexit handlers of the parent
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        message = pipe.read().decode()
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    require(code == 0, message.removeprefix("CheckError: ") or f"check process ended with status {code}")


def envelope(text: str, command: str) -> dict:
    """Parse a CLI envelope and check its frame; returns the result object."""
    try:
        env = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"{command}: output is not JSON ({exc})") from None
    require(
        sorted(env) == ["command", "params", "result", "version"],
        f"{command}: envelope keys {sorted(env)}",
    )
    require(env["command"] == command, f"expected command {command!r}, got {env['command']!r}")
    return env["result"]


# -- commutative side ------------------------------------------------------------


def basis_row(n: int, m: int) -> list[int]:
    """t-coefficients of the m-th basis class over CP^n_q."""
    if m == 0:
        return [1] + [0] * n
    if m == 1:
        return [0, -1] + [0] * (n - 1)
    return [0, 0] + [(m - 1) + (-1) ** k * comb(m - 1, k) for k in range(2, n + 1)]


def generalised_binomial(m: int, k: int) -> int:
    """C(m, k) = m (m-1) ... (m-k+1) / k!, for any integer m."""
    num, den = 1, 1
    for i in range(k):
        num *= m - i
        den *= i + 1
    value, rest = divmod(num, den)
    require(rest == 0, "generalised binomial is not an integer")  # cannot happen
    return value


def check_kbasis(text: str, n: int) -> None:
    result = envelope(text, "kbasis")
    require(result["n"] == n, f"kbasis: n is {result['n']}, expected {n}")
    matrix = [[int(x) for x in row] for row in result["matrix"]]
    inverse = [[int(x) for x in row] for row in result["inverse"]]
    require(len(matrix) == n + 1 and len(inverse) == n + 1, "kbasis: wrong matrix size")
    for m, row in enumerate(matrix):
        require(row == basis_row(n, m), f"kbasis --n {n}: row {m} differs from the binomial row")
    require(result["det"] in ("1", "-1"), f"kbasis --n {n}: det is {result['det']}, not +-1")
    require(all(len(row) == n + 1 for row in inverse), "kbasis: ragged inverse")
    columns = list(zip(*inverse))
    for i, row in enumerate(matrix):
        for j, col in enumerate(columns):
            entry = sum(map(operator.mul, row, col))
            require(entry == (i == j), f"kbasis --n {n}: matrix * inverse has {entry} at ({i}, {j})")


def check_pair_line(text: str, n: int, m: int) -> None:
    result = envelope(text, "pair")
    require(result["n"] == n, f"pair: n is {result['n']}, expected {n}")
    expected = [str(generalised_binomial(m, k)) for k in range(n + 1)]
    require(result["pairings"] == expected, f"pair --n {n} --line {m}: pairings are not C({m}, k)")


def check_certify_range(text: str, max_n: int) -> None:
    lines = text.splitlines()
    verified = [line for line in lines if re.fullmatch(r"n=\s*\d+\s+det=[+-]1\s+verified\s+.*", line)]
    require(len(verified) == max_n, f"certify_range: {len(verified)} of {max_n} spaces verified")
    require(
        bool(re.fullmatch(rf"certified {max_n}/{max_n} spaces in \S+: OK", lines[-1])),
        f"certify_range: summary line {lines[-1]!r}",
    )


# -- rendered normal forms ---------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|(z)(\d+)(s?)|(q)|([-+*^()]))")


def _tokens(text: str) -> list:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        require(m is not None, f"cannot read normal form at offset {pos}: {text[pos:pos + 20]!r}")
        pos = m.end()
        if m.group(1):
            out.append(("INT", int(m.group(1))))
        elif m.group(2):
            out.append(("GEN", (int(m.group(3)), m.group(4) == "s")))
        elif m.group(5):
            out.append(("Q", None))
        else:
            out.append(("OP", m.group(6)))
    out.append(("END", None))
    return out


def _laurent_mul(a: dict, b: dict) -> dict:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _add_into(acc: dict, word: tuple, coeff: dict, sign: int) -> None:
    total = dict(acc.get(word, {}))
    for e, c in coeff.items():
        total[e] = total.get(e, 0) + sign * c
    total = {e: c for e, c in total.items() if c}
    if total:
        acc[word] = total
    else:
        acc.pop(word, None)


class _Reader:
    """Reads the printed form of a normal form: a signed sum of
    ``coefficient * word`` terms whose coefficients are integers, powers
    of q, or parenthesised Laurent polynomials."""

    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.at = 0

    def peek(self):
        return self.toks[self.at]

    def take(self):
        tok = self.toks[self.at]
        self.at += 1
        return tok

    def op(self, symbol: str) -> bool:
        if self.peek() == ("OP", symbol):
            self.at += 1
            return True
        return False

    def poly(self) -> dict:
        acc: dict = {}
        sign = -1 if self.op("-") else 1
        while True:
            word, coeff = self.term()
            _add_into(acc, word, coeff, sign)
            if self.op("+"):
                sign = 1
            elif self.op("-"):
                sign = -1
            else:
                return acc

    def term(self):
        coeff, word = {0: 1}, []
        while True:
            kind, value = self.take()
            if kind == "INT":
                coeff = _laurent_mul(coeff, {0: value})
            elif kind == "Q":
                e = 1
                if self.op("^"):
                    e = -1 if self.op("-") else 1
                    k, v = self.take()
                    require(k == "INT", "exponent expected after q^")
                    e *= v
                coeff = _laurent_mul(coeff, {e: 1})
            elif kind == "GEN":
                word.append(value)
            elif (kind, value) == ("OP", "("):
                inner = self.poly()
                require(self.op(")"), "unbalanced parenthesis")
                require(list(inner) in ([()], []), "parenthesised factor is not a scalar")
                coeff = _laurent_mul(coeff, inner.get((), {}))
            else:
                raise CheckError(f"unexpected token {value!r} in normal form")
            if not self.op("*"):
                return tuple(word), coeff


def parse_normal_form(text: str) -> dict:
    """``{word: {q exponent: coefficient}}`` read from a rendered normal form."""
    reader = _Reader(text)
    poly = reader.poly()
    require(reader.peek()[0] == "END", "trailing input after normal form")
    return poly


def is_normal_word(word: tuple) -> bool:
    """Starred letters first, indices non-increasing; then unstarred
    letters, indices non-decreasing; never both z*_0 and z_0."""
    stars = [i for i, s in word if s]
    plain = [i for i, s in word if not s]
    if [s for _, s in word] != [True] * len(stars) + [False] * len(plain):
        return False
    if stars != sorted(stars, reverse=True) or plain != sorted(plain):
        return False
    return not (0 in stars and 0 in plain)


def weight(word: tuple) -> int:
    """Circle weight: +1 per unstarred letter, -1 per starred letter."""
    return sum(-1 if s else 1 for _, s in word)


def reduce_envelope(text: str) -> tuple[str, dict, object]:
    """Check an ``nc reduce`` envelope's internal consistency.

    Returns (rendered normal form, parsed normal form, degree).  Every word
    must be normal, and the degree must be the common weight of the words.
    """
    result = envelope(text, "nc reduce")
    rendered, degree = result["normal_form"], result["degree"]
    poly = parse_normal_form(rendered)
    bad = [w for w in poly if not is_normal_word(w)]
    require(not bad, f"nc reduce: word {bad[:1]} is not normally ordered")
    weights = {weight(w) for w in poly}
    expected = (weights.pop() if len(weights) == 1 else "inhomogeneous") if poly else 0
    require(degree == expected, f"nc reduce: degree {degree!r}, words have weight {expected!r}")
    return rendered, poly, degree


def z0s_z0_power(k: int) -> dict:
    """prod_{j=1..k} (1 - q^(-2j) z1s z1), with (z1s z1)^i written z1s^i z1^i."""
    coeffs = [{0: 1}]  # coefficient of x^i, x = z1s z1
    for j in range(1, k + 1):
        nxt = [dict(c) for c in coeffs] + [{}]
        for i, c in enumerate(coeffs):
            for e, v in c.items():
                d = nxt[i + 1]
                d[e - 2 * j] = d.get(e - 2 * j, 0) - v
        coeffs = [{e: v for e, v in c.items() if v} for c in nxt]
    return {((1, True),) * i + ((1, False),) * i: c for i, c in enumerate(coeffs) if c}


# -- the commutative specialisation q = 1 -----------------------------------------


def _monomial(word: tuple, n: int) -> tuple:
    """Exponent vector (stars z*_0..z*_n, then z_0..z_n) of a word at q = 1."""
    exps = [0] * (2 * n + 2)
    for i, s in word:
        exps[i if s else n + 1 + i] += 1
    return tuple(exps)


def at_q_one(poly: dict, n: int) -> dict:
    """Specialise a parsed normal form at q = 1 as a commutative polynomial."""
    out: dict[tuple, int] = {}
    for word, coeff in poly.items():
        mono = _monomial(word, n)
        out[mono] = out.get(mono, 0) + sum(coeff.values())
    return {m: c for m, c in out.items() if c}


def commutative_reduction(factors: list, n: int) -> dict:
    """Expand a product of sums at q = 1 and reduce by the sphere relation.

    ``factors`` is a list of sums, each a list of (Laurent coefficient,
    letter).  Commutatively, every monomial holding both z*_0 and z_0 is
    rewritten with z*_0 z_0 -> 1 - sum_{k>=1} z*_k z_k until none is left.
    """
    size = 2 * n + 2
    expanded: dict[tuple, int] = {}
    for choice in cartesian(*factors):
        exps = [0] * size
        value = 1
        for coeff, (i, s) in choice:
            value *= sum(coeff.values())
            exps[i if s else n + 1 + i] += 1
        expanded[tuple(exps)] = expanded.get(tuple(exps), 0) + value
    done: dict[tuple, int] = {}
    pending = [(m, c) for m, c in expanded.items() if c]
    while pending:
        mono, c = pending.pop()
        if mono[0] and mono[n + 1]:
            base = list(mono)
            base[0] -= 1
            base[n + 1] -= 1
            pending.append((tuple(base), c))
            for k in range(1, n + 1):
                other = list(base)
                other[k] += 1
                other[n + 1 + k] += 1
                pending.append((tuple(other), -c))
        else:
            done[mono] = done.get(mono, 0) + c
    return {m: c for m, c in done.items() if c}


# -- reports of the fuzzers ---------------------------------------------------------


def relation_count(n: int) -> int:
    """Reductions in ``verify_defining_relations(n)``: each relation twice."""
    return 2 * (comb(n + 1, 2) + n * (n + 1) + (n + 1) + 1)


def check_report(result: dict, words: int, what: str) -> None:
    require(result["passed"] is True and result["mismatches"] == [], f"{what}: report did not pass")
    require(result["words"] == words, f"{what}: {result['words']} words, expected {words}")


_CAMPAIGN_LINE = re.compile(r"n=(\d+)\s+(exhaustive|fuzz)\s+(\d+) words\s+max\s+\d+ steps\s+OK\b.*")


def check_campaign(text: str, max_n: int, exhaustive_max_n: int, trials: int) -> None:
    seen = []
    for line in text.splitlines()[:-1]:
        m = _CAMPAIGN_LINE.fullmatch(line)
        require(m is not None, f"fuzz_campaign: unexpected line {line!r}")
        seen.append((m.group(2), int(m.group(1)), int(m.group(3))))
    expected = [("exhaustive", n, (2 * n + 2) ** 2) for n in range(1, exhaustive_max_n + 1)]
    expected += [("fuzz", n, trials) for n in range(1, max_n + 1)]
    require(seen == expected, f"fuzz_campaign: reports {seen}, expected {expected}")
    require(text.splitlines()[-1].endswith(": all strategies agree"), "fuzz_campaign: no success line")
