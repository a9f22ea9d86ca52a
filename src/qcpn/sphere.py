"""The odd quantum sphere as an oriented rewriting system.

The polynomial *-algebra of the (2n+1)-dimensional quantum sphere has
generators ``z_0 .. z_n`` and their stars, with coefficients in the Laurent
ring ``Z[q, q^-1]``.  The defining relations are oriented into four rule
families:

* R1  same-star letters sort: unstarred ascending, ``z_j z_i -> q^-1 z_i z_j``
      for j > i; starred descending, ``z*_i z*_j -> q^-1 z*_j z*_i`` for i < j
* R2  stars move left past different indices: ``z_i z*_j -> q z*_j z_i`` (i != j)
* R3  ``z_i z*_i -> z*_i z_i + (q^-2 - 1) * sum_{m>i} z_m z*_m``
      (empty sum at the top index)
* R4  ``z*_0 z_0 -> 1 - sum_{k>=1} q^-2k z*_k z_k``, the sphere relation
      ``sum_m z_m z*_m = 1`` normal-ordered through R1-R3

Normal words therefore have all starred letters on the left with indices
descending, then unstarred letters ascending.  The opposite sort of the
two blocks is what makes the junction work: a word containing both
``z*_0`` and ``z_0`` always sorts them adjacent, so R4 eliminates the
pair, and normal words never contain both.  (Sorting both blocks
ascending instead leaves e.g. ``z*_0 z*_1 z_0`` irreducible even though
it equals ``q^-1 z*_0 z_0 z*_1``, which reduces; that orientation is
genuinely non-confluent.)  Confluence of the chosen orientation is still
not proven here; ``fuzz_confluence`` compares the leftmost and rightmost
reduction strategies on random words, once per distinct word, and reports
any disagreement instead of repairing it.

Two engines run on the rewrite table of ``_rewrite_table``: ``2n+2`` rows
of ``2n+2`` entries, where ``table[a][b]`` is the replacement of the pair
of codes ``(a, b)``, or ``None`` if the pair is normal.  Each computation
builds one table and passes it down, and nothing keeps it after: a table
holds O(n^3) entries, so a cache of all the tables a fuzz campaign built
grew as O(n^4).  The letter-append product ``_NormalProduct`` serves
``normal_form``, ``project_to_s3``, ``nc reduce`` and the parser: the
product of two normal forms feeds the letters of the right factor one at a
time into the normal terms of the left one.  Each pending word carries the
bound of the ``_NormalProduct`` docstring, before which it holds no redex,
so the redex search skips the word's normal front, and the free product of
an expression is never expanded.

The checks run only the pair rewriter ``_reduce``: the strategy
comparisons of ``fuzz_confluence`` and ``exhaustive_pair_check``, and
``verify_defining_relations`` on each relation and its S^3 image under
one budget.  It rewrites one redex at a time, the leftmost or, with
``rightmost`` set, the rightmost; it keeps no cache.  It scans each word
it pops whole.  A rewrite to one term whose word is not pending starts a
chain that it follows in locals: it scans only the pairs beside each
replacement and applies the chain's monomial factors to the coefficient
once, at its end.  It reports whether any word it rewrote held two or
more redexes; if none did, a rightmost run would repeat the leftmost one
step for step, and ``_compare_strategies`` skips it.  The two loops stay
apart because each merged form was slower on one workload (measured on a
2-vCPU Xeon VM, Python 3.11): running the letter-append through the full
redex scan made ``z1^3000*z0`` 8x slower (0.22 to 1.67 s), and one
shared loop with the one-sided bound ``lo``, whose redex list starts at
``lo`` when a strategy is given, made the ``nc-fuzz`` benchmark slower
in 6 of 6 seeds (``wall_s`` median 0.88 to 1.00 s) and
``fuzz_confluence`` about 17 % slower in process, with unchanged step
counts.  That loop stored ``[coefficient, lo]`` in each pending entry;
``_reduce`` keeps its bounds in locals, and its pending entries stay
bare coefficients.

Every coefficient, in ``NCPoly``, in the rewrite table and in both
engines, has one representation: an exponent map ``{e: c}`` for
``sum_e c q^e`` with no zero coefficient, added and multiplied by
``rings._qadd`` and ``rings._qmul`` and merged into a term dict by
``_qmerge``.  ``LaurentQ`` is only the public face, built where a
coefficient crosses the API: ``_qmap`` coerces inputs (from ``NCPoly``'s
constructors and ``_constant``) to maps, ``terms()``, ``coefficient()``,
``__str__`` and ``__hash__`` wrap a map on the way out, and
``defining_relations`` writes the relations by ``LaurentQ`` arithmetic,
apart from the table it is checked against.  No coefficient map is ever
mutated, so terms may share them; both engines multiply a coefficient by
a factor of the rewrite table with ``_qmul``, and ``_reduce`` passes it
on unchanged through the table's unit factor ``_UNIT`` and applies a
chain of monomial factors as one shift and one scale.

Internally a word is a tuple of integer codes (for ambient ``n``: starred
index i is code i, unstarred index i is code n+1+i), so the canonical
generator order is plain integer order.  The ``Generator`` named tuple is
the public face of a letter.
"""

from __future__ import annotations

import os
import random
from itertools import product
from operator import index
from types import SimpleNamespace
from typing import Iterable, NamedTuple

from .rings import LaurentQ, _monomial, _qadd, _qmul, _Ring, _signed_sum

DEFAULT_STEP_CAP = 10**6
STEP_CAP_ENV = "QCPN_STEP_CAP"

ALL_RULES = frozenset({"R1", "R2", "R3", "R4"})
_UNIT = {0: 1}  # the rewrite table's unit factor, passed on without a product


class StepBudgetExceeded(RuntimeError):
    """A single normal-form computation ran past its rewrite-step budget."""


class Generator(NamedTuple):
    index: int
    starred: bool

    def __str__(self) -> str:
        return f"z{self.index}s" if self.starred else f"z{self.index}"


def _step_cap(step_cap: int | None) -> int:
    """``step_cap`` if given, else the budget from the environment."""
    if step_cap is not None:
        return step_cap
    raw = os.environ.get(STEP_CAP_ENV)
    if raw is None:
        return DEFAULT_STEP_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise ValueError(f"{STEP_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


def _encode(g: Generator, n: int) -> int:
    if not 0 <= g.index <= n:
        raise ValueError(f"generator index {g.index} out of range for n={n}")
    return g.index if g.starred else n + 1 + g.index


def _decode(code: int, n: int) -> Generator:
    if code <= n:
        return Generator(code, True)
    return Generator(code - (n + 1), False)


def _weight(word: tuple[int, ...], shift: int) -> int:
    """Circle weight of a word: +1 per unstarred letter, -1 per starred one."""
    return sum(1 if c >= shift else -1 for c in word)


def _letter_names(words: Iterable[tuple[int, ...]], n: int) -> dict[int, str]:
    """Each code present in ``words``, never the whole alphabet, mapped to its letter."""
    return {c: str(_decode(c, n)) for c in set().union(*words)}


def _render_word(word: tuple[int, ...], n: int) -> str:
    return "*".join(map(_letter_names((word,), n).get, word))


def _qmap(c) -> dict:
    """The exponent map of an ``int``, a ``LaurentQ`` or a mapping ``{e: c}``."""
    if isinstance(c, LaurentQ):
        return c._terms
    return LaurentQ({0: c} if isinstance(c, int) else c)._terms


def _qmerge(terms: dict, word: tuple[int, ...], coeff: dict) -> None:
    """Add the nonzero map ``coeff`` to the coefficient of ``word``, dropping a zero sum."""
    old = terms.get(word)
    if old is None:
        terms[word] = coeff
        return
    s = _qadd(old, coeff)
    if s:
        terms[word] = s
    else:
        del terms[word]


class NCPoly(_Ring):
    """A formal sum of words in the sphere generators over ``Z[q, q^-1]``.

    Immutable; no relation is applied implicitly.  Multiplication is the
    free concatenation product, and ``normal_form`` is the explicit
    reduction.  ``terms`` maps words of codes to coefficients, each an
    ``int``, a ``LaurentQ`` or an exponent map ``{e: c}``.
    """

    __slots__ = ("n", "_terms")
    _mismatch = ValueError, "ambient indices"
    _negative_power = ValueError, "negative powers are not defined in the free algebra"

    def __init__(self, n: int, terms=None):
        if n < 0:
            raise ValueError("ambient index n must be nonnegative")
        clean: dict[tuple[int, ...], dict] = {}
        if terms:
            top = 2 * n + 1
            for word, coeff in dict(terms).items():
                word = tuple(index(c) for c in word)
                if any(not 0 <= c <= top for c in word):
                    raise ValueError(f"word {word} has codes outside 0..{top}")
                coeff = _qmap(coeff)
                if coeff:
                    clean[word] = coeff
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def zero(cls, n: int) -> "NCPoly":
        return cls._raw(n, {})

    @classmethod
    def one(cls, n: int) -> "NCPoly":
        return cls._raw(n, {(): {0: 1}})

    @classmethod
    def scalar(cls, n: int, c) -> "NCPoly":
        c = _qmap(c)
        return cls._raw(n, {(): c} if c else {})

    @classmethod
    def gen(cls, n: int, index: int, starred: bool = False) -> "NCPoly":
        code = _encode(Generator(index, starred), n)
        return cls._raw(n, {(code,): {0: 1}})

    @classmethod
    def from_terms(cls, n: int, terms: Iterable) -> "NCPoly":
        """Build from ``(coefficient, [Generator, ...])`` pairs."""
        acc: dict[tuple[int, ...], dict] = {}
        for coeff, gens in terms:
            word = tuple(_encode(g, n) for g in gens)
            coeff = _qmap(coeff)
            if coeff:
                _qmerge(acc, word, coeff)
        return cls._raw(n, acc)

    def _constant(self, c) -> "NCPoly | None":
        return NCPoly.scalar(self.n, c) if isinstance(c, (int, LaurentQ)) else None

    # -- inspection ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def term_count(self) -> int:
        return len(self._terms)

    def terms(self):
        """Canonically ordered ``(word of Generators, coefficient)`` pairs."""
        n = self.n
        for word in sorted(self._terms, key=lambda w: (len(w), w)):
            yield tuple(_decode(c, n) for c in word), LaurentQ._raw(self._terms[word])

    def coefficient(self, gens: Iterable[Generator]) -> LaurentQ:
        word = tuple(_encode(g, self.n) for g in gens)
        return LaurentQ._raw(self._terms.get(word, {}))

    def __hash__(self):
        if not self._terms.keys() - {()}:  # a scalar hashes like its LaurentQ
            return hash(LaurentQ._raw(self._terms.get((), {})))
        return hash((self.n, frozenset((w, frozenset(c.items())) for w, c in self._terms.items())))

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        merged = dict(self._terms)
        for word, coeff in other._terms.items():
            _qmerge(merged, word, coeff)
        return NCPoly._raw(self.n, merged)

    __radd__ = __add__

    def __neg__(self):
        return NCPoly._raw(
            self.n, {w: {e: -c for e, c in m.items()} for w, m in self._terms.items()}
        )

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        prod: dict[tuple[int, ...], dict] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                _qmerge(prod, w1 + w2, _qmul(c1, c2))
        return NCPoly._raw(self.n, prod)

    def __rmul__(self, other):
        # scalars commute; words never reach here
        return self.__mul__(other)

    # -- structure maps ----------------------------------------------------

    def adjoint(self) -> "NCPoly":
        """The *-involution: reverse words, toggle stars, fix coefficients."""
        shift = self.n + 1
        out: dict[tuple[int, ...], dict] = {}
        for word, coeff in self._terms.items():
            flipped = tuple(
                c - shift if c >= shift else c + shift for c in reversed(word)
            )
            out[flipped] = coeff
        return NCPoly._raw(self.n, out)

    def u1_degree(self) -> int | None:
        """Common circle weight of all words, or None if inhomogeneous.

        Each unstarred letter counts +1 and each starred letter -1.  The
        zero polynomial reports 0 (it lies in every spectral component).
        """
        shift = self.n + 1
        degrees = {_weight(word, shift) for word in self._terms}
        if not degrees:
            return 0
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def spectral_component(self, m: int) -> "NCPoly":
        """Terms of circle weight exactly ``m``; components reassemble the poly."""
        shift = self.n + 1
        kept = {
            word: coeff
            for word, coeff in self._terms.items()
            if _weight(word, shift) == m
        }
        return NCPoly._raw(self.n, kept)

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        names, bodies = _letter_names(self._terms, self.n), []
        for word in sorted(self._terms, key=lambda w: (len(w), w)):
            coeff = self._terms[word]
            if len(coeff) > 1:
                sign, body = 1, f"({LaurentQ._raw(coeff)})"
            else:
                ((e, sign),) = coeff.items()
                body = _monomial(sign, "q", e)
            word_str = "*".join(map(names.get, word))
            if word_str:
                body = word_str if body == "1" else f"{body}*{word_str}"
            bodies.append((sign, body))
        return _signed_sum(bodies)

    def __repr__(self) -> str:
        return f"NCPoly(n={self.n}, {str(self)!r})"


# -- rule machinery ---------------------------------------------------------


def _rewrite_table(n: int, rules: frozenset) -> list:
    """The rewrite table of ``rules`` as ``2n+2`` rows of ``2n+2`` entries.

    ``table[a][b]`` holds the replacement terms ``((factor, subword), ...)``
    of the pair ``(a, b)`` of codes, or ``None`` for a normal pair, so both
    engines find a redex by indexing two lists, without building and hashing a
    pair.  Only the families in ``rules`` are built, each written from its
    left side, as R1-R4 of the module docstring state it.  Each factor is an
    exponent map that the entries share, so no engine may hand one out as a
    coefficient.  R3 and R4 list their sums from the top index down: both
    engines pop the word inserted last, so the lowest index is rewritten first
    and the words it creates merge into pending entries, and ``z_0 z*_0``
    takes n + 2 steps, not 2^n + 1.  No cache keeps a table, which holds
    O(n^3) entries: each computation builds its own (module docstring).
    """
    unknown = rules - ALL_RULES
    if unknown:
        raise ValueError(f"unknown rules: {sorted(unknown)}")
    s = n + 1  # z*_i is code i, z_i is code s + i
    q_inv, q, reorder = {-1: 1}, {1: 1}, {-2: 1, 0: -1}  # q^-1, q, q^-2 - 1
    rows = [[None] * (2 * s) for _ in range(2 * s)]
    for i in range(s):
        for j in range(s):
            if "R1" in rules and i < j:
                rows[s + j][s + i] = ((q_inv, (s + i, s + j)),)
                rows[i][j] = ((q_inv, (j, i)),)
            if "R2" in rules and i != j:
                rows[s + i][j] = ((q, (j, s + i)),)
        if "R3" in rules:
            rows[s + i][i] = ((_UNIT, (i, s + i)), *((reorder, (s + m, m)) for m in range(n, i, -1)))
    if "R4" in rules:
        rows[0][s] = ((_UNIT, ()), *(({-2 * k: -1}, (k, s + k)) for k in range(n, 0, -1)))
    return rows


def _over_budget(step_cap: int) -> StepBudgetExceeded:
    return StepBudgetExceeded(
        f"exceeded {step_cap} rewrite steps (set {STEP_CAP_ENV} to raise the cap)"
    )


def _reduce(terms: dict, table: list, rightmost: bool, step_cap: int) -> tuple[dict, int, bool]:
    """The pair rewriter on exponent-map coefficients ``{e: c}`` of ``q^e``.

    Drives ``terms`` to normal form on the rewrite ``table``, rewriting
    each word's rightmost redex if ``rightmost`` is set, else its leftmost.
    Equal words are merged as they appear; this is sound because reduction
    is linear over words.  Returns the normal terms, the number of rule
    applications performed, and whether the strategy made a choice, that
    is, whether any word it rewrote held two or more redexes.

    A rewrite to one term whose word is not pending starts or extends a
    chain, which is followed in locals.  Terms, their order, steps and the
    choice flag are those of merging every result into ``pending`` and
    scanning every popped word whole, for four reasons:

    * ``popitem`` returns the key inserted last, so that merge would put
      the word last and pop it next, with ``pending`` otherwise unchanged.
      A result already pending is merged, and so is every fan-out.
    * A rewrite at ``pos`` with replacement ``repl`` leaves every pair
      outside ``lo = max(pos - 1, 0)`` to ``hi = pos + len(repl) - 1`` a
      pair of the old word.  Leftmost, the old word held no redex before
      ``pos``, so the new one holds none before ``lo``; rightmost, none
      after ``pos``, so the new one holds none after ``hi``.
    * Until ``chose`` is set, every word rewritten held a single redex, so
      all the pairs outside the bounds are normal and the count within them
      is complete.  After that only the first redex from the chosen side
      is looked for.
    * A monomial factor ``c q^e`` shifts the exponents by ``e`` and scales
      the coefficients by ``c``; shifts and scales commute, and a product
      of nonzero integers is nonzero, so nothing cancels and applying
      the chain's sum of shifts and product of scales once at its end
      gives the same map, key order included.  A factor that is not a
      monomial ends the chain.
    """
    pending = dict(terms)
    done: dict[tuple[int, ...], dict] = {}
    steps, chose = 0, False
    while pending:
        word, coeff = pending.popitem()
        lo, hi = 0, len(word) - 2  # the pairs that can hold a redex
        shift, scale = 0, 1  # the chain's monomials, not yet applied to coeff
        while True:
            if chose:  # only the first redex from the chosen side matters
                if rightmost:
                    pos = hi
                    while pos >= 0 and table[word[pos]][word[pos + 1]] is None:
                        pos -= 1
                else:
                    pos, last = lo, len(word) - 2
                    while pos <= last and table[word[pos]][word[pos + 1]] is None:
                        pos += 1
                    if pos > last:
                        pos = -1
            else:
                redexes = [p for p in range(lo, hi + 1) if table[word[p]][word[p + 1]] is not None]
                chose = len(redexes) > 1
                pos = (redexes[-1] if rightmost else redexes[0]) if redexes else -1
            if pos < 0:
                break
            steps += 1
            if steps > step_cap:
                raise _over_budget(step_cap)
            rule = table[word[pos]][word[pos + 1]]
            if len(rule) > 1:
                break
            ((f, repl),) = rule
            new = word[:pos] + repl + word[pos + 2 :]
            if len(f) > 1 or new in pending:
                break
            ((e, c),) = f.items()  # follow the chain
            shift, scale, word = shift + e, scale * c, new
            lo = pos - 1 if pos else 0
            hi = pos + len(repl) - 1
            if hi > len(new) - 2:
                hi = len(new) - 2
        if shift or scale != 1:
            coeff = {e + shift: c * scale for e, c in coeff.items()}
        if pos < 0:
            _qmerge(done, word, coeff)
            continue
        head, tail = word[:pos], word[pos + 2 :]
        for f, repl in rule:
            _qmerge(pending, head + repl + tail, coeff if f is _UNIT else _qmul(coeff, f))
    return done, steps, chose


class _NormalProduct:
    """The normal-form product ``nf(left * right)`` for normal ``left``.

    The letters of each word of ``right`` are appended one at a time to
    the normal terms built so far, and equal words are merged after every
    letter.  Once the junction of a normal term holds no redex and the
    rest of the right word is normal, the term takes that rest in one
    concatenation.

    Each pending word carries a bound ``lo`` before which it holds no
    redex, and the leftmost redex is looked for from ``lo`` to the last
    pair.  A normal word with one letter appended starts at the
    junction, its last pair; a rewrite at the leftmost redex ``p`` leaves
    the pairs before ``p - 1`` alone, so the words it makes start at
    ``p - 1`` (or 0); a merge keeps the pending entry's bound, which
    holds for the same word.  An end bound ``hi`` would add nothing: by
    induction it is never below the word's last pair.  It starts at the
    junction; a rewrite at ``p`` sets it to ``max(p + 1, hi)``, or to
    ``max(p - 1, hi - 2)`` for R4's empty replacement, each at least the
    new word's last pair; a merge keeps an entry of the same word.

    One instance is one computation: every rewrite of every product it
    forms counts against the same step budget.
    """

    def __init__(self, n: int, rules: frozenset = ALL_RULES, step_cap: int | None = None):
        if n < 0:
            raise ValueError("ambient index n must be nonnegative")
        self.n = n
        self.table = _rewrite_table(n, rules)
        self.cap = _step_cap(step_cap)
        self.steps = 0

    def __call__(self, left: NCPoly, right: NCPoly) -> NCPoly:
        table = self.table
        out: dict[tuple[int, ...], dict] = {}
        for word, coeff in right._terms.items():
            # word[normal_from:] holds no redex
            normal_from = len(word) - 1
            while normal_from > 0 and table[word[normal_from - 1]][word[normal_from]] is None:
                normal_from -= 1
            heads = {w: _qmul(c, coeff) for w, c in left._terms.items()}
            for j, x in enumerate(word):
                pending, grown = {}, {}
                for w, c in heads.items():
                    if w and table[w[-1]][x] is not None:
                        pending[w + (x,)] = [c, len(w) - 1]
                    elif j >= normal_from:
                        _qmerge(out, w + word[j:], c)
                    else:
                        _qmerge(grown, w + (x,), c)
                heads = self._settle(pending, grown)
                if not heads:
                    break
            else:
                for w, c in heads.items():
                    _qmerge(out, w, c)
        return NCPoly._raw(self.n, out)

    def _settle(self, pending: dict, done: dict) -> dict:
        """Rewrite ``pending`` words to normal form, merging them into ``done``.

        A pending word maps to ``[coefficient, lo]``, ``lo`` the bound of
        the class docstring.
        """
        table = self.table
        while pending:
            word, (coeff, lo) = pending.popitem()
            last = len(word) - 2
            pos = lo
            while pos <= last and table[word[pos]][word[pos + 1]] is None:
                pos += 1
            if pos > last:
                _qmerge(done, word, coeff)
                continue
            self.steps += 1
            if self.steps > self.cap:
                raise _over_budget(self.cap)
            head = word[:pos]
            tail = word[pos + 2 :]
            lo = max(pos - 1, 0)
            for factor, repl in table[word[pos]][word[pos + 1]]:
                new_word = head + repl + tail
                new_coeff = _qmul(coeff, factor)
                entry = pending.get(new_word)
                if entry is None:
                    pending[new_word] = [new_coeff, lo]
                else:  # either bound holds for the word
                    entry[0] = _qadd(entry[0], new_coeff)
                    if not entry[0]:
                        del pending[new_word]
        return done


def normal_form(
    p: NCPoly,
    rules: frozenset = ALL_RULES,
    step_cap: int | None = None,
) -> NCPoly:
    """Normal form under the oriented relations.

    Each word of ``p`` is folded letter by letter from the empty word by
    the normal-form product.  ``rules`` may be restricted (for example to
    R1-R3) to study the system itself; the default is the full set.
    Raises ``StepBudgetExceeded`` when the per-call budget (default 10^6,
    override via ``QCPN_STEP_CAP``) runs out.
    """
    return _NormalProduct(p.n, rules, step_cap)(NCPoly.one(p.n), p)


def _s3_image(p: NCPoly) -> NCPoly:
    """The words of ``p`` in ``z_0``, ``z_1`` and their stars, recoded for n = 1."""
    recode = {0: 0, 1: 1, p.n + 1: 2, p.n + 2: 3}
    kept = {w: c for w, c in p._terms.items() if recode.keys() >= set(w)}
    return NCPoly._raw(1, {tuple(map(recode.get, w)): c for w, c in kept.items()})


def project_to_s3(p: NCPoly) -> NCPoly:
    """The circle-equivariant *-homomorphism onto the 3-sphere algebra.

    Keeps ``z_0`` and ``z_1``, kills every generator of index 2 or more,
    and returns the normal form in the target algebra.
    """
    if p.n < 1:
        raise ValueError("ambient index must be at least 1")
    return normal_form(_s3_image(p))


def sphere_sum(n: int) -> NCPoly:
    """The left side of the sphere relation: ``sum_m z_m z*_m``."""
    total = NCPoly.zero(n)
    for m in range(n + 1):
        total = total + NCPoly.gen(n, m) * NCPoly.gen(n, m, starred=True)
    return total


def defining_relations(n: int) -> list[tuple[str, NCPoly]]:
    """All defining relations as named polynomials that must reduce to zero."""
    if n < 1:
        raise ValueError("ambient index must be at least 1")
    q = LaurentQ.q_power(1)
    rels: list[tuple[str, NCPoly]] = []
    z = lambda i: NCPoly.gen(n, i)
    zs = lambda i: NCPoly.gen(n, i, starred=True)
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            rels.append((f"z{i} z{j} = q z{j} z{i}", z(i) * z(j) - q * (z(j) * z(i))))
    for i in range(n + 1):
        for j in range(n + 1):
            if i != j:
                rels.append(
                    (f"z{i} z{j}s = q z{j}s z{i}", z(i) * zs(j) - q * (zs(j) * z(i)))
                )
    reorder = LaurentQ({-2: 1, 0: -1})
    for i in range(n + 1):
        rhs = zs(i) * z(i)
        for m in range(i + 1, n + 1):
            rhs = rhs + reorder * (z(m) * zs(m))
        rels.append((f"z{i} z{i}s reordering", z(i) * zs(i) - rhs))
    rels.append(("sphere relation", sphere_sum(n) - 1))
    return rels


class ReductionReport(SimpleNamespace):
    """Outcome of a batch reduction check; empty mismatches means pass."""

    def __init__(self, words: int = 0, max_steps: int = 0, mismatches: list | None = None):
        mismatches = [] if mismatches is None else mismatches
        super().__init__(words=words, max_steps=max_steps, mismatches=mismatches)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def as_dict(self) -> dict:
        return {
            "words": self.words,
            "max_steps": self.max_steps,
            "mismatches": [list(m) for m in self.mismatches],
            "passed": self.passed,
        }


def verify_defining_relations(n: int, step_cap: int | None = None) -> ReductionReport:
    """Reduce every defining relation to zero, in the source algebra and
    through the 3-sphere projection, both under the one step budget.

    A relation that does not reduce to zero is recorded in the report; a
    reduction that runs out of budget raises ``StepBudgetExceeded``.
    """
    cap, relations = _step_cap(step_cap), defining_relations(n)
    tables = {m: _rewrite_table(m, ALL_RULES) for m in {n, 1}}  # source and S^3 image
    report = ReductionReport()
    for name, rel in relations:
        for label, p in ((name, rel), (f"s3 image of: {name}", _s3_image(rel))):
            terms, steps, _ = _reduce(p._terms, tables[p.n], False, cap)
            report.words += 1
            report.max_steps = max(report.max_steps, steps)
            if terms:
                report.mismatches.append((label, str(NCPoly._raw(p.n, terms)), "0"))
    return report


def _random_word(rng: random.Random, n: int, max_len: int) -> tuple[int, ...]:
    length = rng.randint(2, max_len)
    top = 2 * (n + 1)
    return tuple(rng.randrange(top) for _ in range(length))


def _compare_strategies(word: tuple[int, ...], n: int, table: list, cap: int) -> tuple:
    """Reduce one word leftmost-innermost and rightmost on ``table``.

    Returns the larger step count and the mismatches: ``()``, or one entry
    for differing normal forms, broken weight homogeneity or an exhausted
    step budget (0 steps).  The rightmost run is made only if the leftmost
    run made a choice.  If it did not, then by induction on the steps the
    rightmost run pops the same word each time, rewrites the same redex
    (the only one) and merges the same terms in the same order, ending
    with the same normal form and step count, within the same budget.
    """
    start = {word: {0: 1}}
    try:
        left, steps, chose = _reduce(start, table, False, cap)
        right = left
        if chose:
            right, right_steps, _ = _reduce(start, table, True, cap)
            steps = max(steps, right_steps)
    except StepBudgetExceeded:
        return 0, ((_render_word(word, n), "step budget exceeded", ""),)
    shift = n + 1
    degree = _weight(word, shift)
    if left != right:
        left_nf, right_nf = (NCPoly._raw(n, t) for t in (left, right))
        return steps, ((_render_word(word, n), str(left_nf), str(right_nf)),)
    if left and {_weight(w, shift) for w in left} != {degree}:
        weight = f"weight {NCPoly._raw(n, left).u1_degree()}"
        return steps, ((_render_word(word, n), weight, f"weight {degree}"),)
    return steps, ()


def _compare_words(n: int, words: Iterable, step_cap: int | None) -> ReductionReport:
    """Run ``_compare_strategies`` on ``words``, each distinct word once.

    ``seen`` maps each word compared in this call to the mismatches it
    added, and a repeated word only re-appends them.  The report equals
    that of comparing every word: both strategies are deterministic, so a
    comparison is a function of the word, the table and the cap, which the
    call fixes; its mismatches are the same each time, and its steps are
    already in ``max_steps``, a maximum (a run over budget adds none).
    """
    if n < 0:
        raise ValueError("ambient index n must be nonnegative")
    cap, table = _step_cap(step_cap), _rewrite_table(n, ALL_RULES)
    report, seen = ReductionReport(), {}
    for word in words:
        report.words += 1
        if word not in seen:
            steps, seen[word] = _compare_strategies(word, n, table, cap)
            report.max_steps = max(report.max_steps, steps)
        report.mismatches.extend(seen[word])
    return report


def fuzz_confluence(
    n: int, max_len: int, trials: int, seed: int, step_cap: int | None = None
) -> ReductionReport:
    """Empirical local-confluence check of the oriented system.

    Compares the two strategies on ``trials`` random words through
    ``_compare_words``; differing normal forms, broken weight homogeneity,
    or an exhausted step budget are recorded as mismatches.  The words come
    from ``random.Random(seed)``, and the seed chooses nothing else.
    """
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    if trials < 0:
        raise ValueError("trials must be non-negative")
    rng = random.Random(seed)
    return _compare_words(n, (_random_word(rng, n, max_len) for _ in range(trials)), step_cap)


def exhaustive_pair_check(n: int, step_cap: int | None = None) -> ReductionReport:
    """Compare the two strategies on every two-letter word through ``_compare_words``.

    No word reached from a two-letter word holds two redexes, so the
    leftmost run meets no choice and each word is reduced once; this
    checks all rule orientations on overlap-free inputs and the weight
    homogeneity of every rule.  It cannot detect an overlap failure: an
    ambiguity needs two redexes that share a letter, which takes a word of
    at least three letters.  A word that runs out of step budget is a
    mismatch that names it, as in ``fuzz_confluence``.
    """
    top = 2 * (n + 1)
    return _compare_words(n, product(range(top), repeat=2), step_cap)
