"""The pair model of the group generated by Z_n and a skew morphism.

A skew morphism f of Z_n of order m generates, together with the
left-translations of Z_n, a group of permutations of Z_n in which
every element factors uniquely as (translation by a) * (f iterated j
times).  We model it as pairs (a, j) in Z_n x Z_m with

    (a, i) * (b, j) = (a + f^i(b),  s_i(b) + j),
    s_i(b) = sum_{t<i} pi(f^t(b))  (mod m),

which is forced by moving f^i past the translation by b one step at a
time.  The pair model is an independent oracle: the group axioms and
the normality/core computation are checked directly on pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .cyclic_arith import divisors
from .skew_core import SkewMorphism, _require, power_table

ASSOC_TRIPLE_BUDGET = 20_000  # check all |G|^3 triples up to this many
SAMPLE_TRIPLES = 500  # otherwise this many seeded random triples


class SkewProductElement(NamedTuple):
    """Normal form a * c^j with a in Z_n and j in Z_m."""

    a: int
    j: int


class _PairTables:
    """Cached iterate and exponent-prefix tables for one morphism."""

    def __init__(self, phi: SkewMorphism):
        n, m = phi.n, phi.order
        self.phi = phi
        self.n = n
        self.m = m
        self.powers = power_table(phi.images, m)
        # prefix[i][b] = s_i(b); one extra row makes the recurrence uniform
        prefix = [[0] * n]
        for i in range(m):
            row_p = self.powers[i]
            prev = prefix[-1]
            prefix.append([(prev[b] + phi.pi[row_p[b]]) % m for b in range(n)])
        self.prefix = prefix
        self.inv_powers = [_invert(p) for p in self.powers]

    def mult(self, x: SkewProductElement, y: SkewProductElement) -> SkewProductElement:
        a, i = x.a % self.n, x.j % self.m
        b, j = y.a % self.n, y.j % self.m
        return SkewProductElement(
            (a + self.powers[i][b]) % self.n, (self.prefix[i][b] + j) % self.m
        )

    def inverse(self, x: SkewProductElement) -> SkewProductElement:
        a, i = x.a % self.n, x.j % self.m
        b = self.inv_powers[i][-a % self.n]
        return SkewProductElement(b, -self.prefix[i][b] % self.m)


def _invert(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


@lru_cache(maxsize=8)
def _tables(phi: SkewMorphism) -> _PairTables:
    return _PairTables(phi)


@dataclass
class GroupCheckReport:
    """Result of the pair-model group-axiom check."""

    group_order: int
    associativity_mode: str  # "full" or "sampled"
    triples_checked: int
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def check_group(phi: SkewMorphism) -> GroupCheckReport:
    """Check identity, inverses, and associativity on the pair model.

    Identity and inverses are always verified for every element.
    Associativity is checked over all |G|^3 triples when that fits the
    budget (which covers the pair groups of small orders exhaustively),
    otherwise over a seeded random sample.
    """
    t = _tables(phi)
    n, m = t.n, t.m
    powers, prefix = t.powers, t.prefix
    order = n * m
    failures: list[str] = []

    def mult(a, i, b, j):
        return (a + powers[i][b]) % n, (prefix[i][b] + j) % m

    for a in range(n):
        for i in range(m):
            if mult(0, 0, a, i) != (a, i) or mult(a, i, 0, 0) != (a, i):
                failures.append(f"identity fails at ({a},{i})")
                break
    for a in range(n):
        for i in range(m):
            b = t.inv_powers[i][-a % n]
            j = -prefix[i][b] % m
            if mult(a, i, b, j) != (0, 0) or mult(b, j, a, i) != (0, 0):
                failures.append(f"inverse fails at ({a},{i})")
                break

    if order**3 <= ASSOC_TRIPLE_BUDGET:
        mode = "full"
        triples = 0
        els = [(a, i) for a in range(n) for i in range(m)]
        for x in els:
            for y in els:
                xy = mult(*x, *y)
                for z in els:
                    triples += 1
                    if mult(*xy, *z) != mult(*x, *mult(*y, *z)):
                        failures.append(f"associativity fails at {x},{y},{z}")
                        break
    else:
        mode = "sampled"
        rng = random.Random(0)  # fixed seed: every run samples the same triples
        triples = SAMPLE_TRIPLES
        for _ in range(SAMPLE_TRIPLES):
            x = (rng.randrange(n), rng.randrange(m))
            y = (rng.randrange(n), rng.randrange(m))
            z = (rng.randrange(n), rng.randrange(m))
            if mult(*mult(*x, *y), *z) != mult(*x, *mult(*y, *z)):
                failures.append(f"associativity fails at {x},{y},{z}")
                break

    return GroupCheckReport(
        group_order=order,
        associativity_mode=mode,
        triples_checked=triples,
        failures=failures,
    )


def core_of_B(phi: SkewMorphism) -> int:
    """Order of the largest subgroup H of Z_n with c H c^{-1} inside Z_n.

    Computed entirely in the pair model by conjugating subgroup
    elements with c = (0, 1); must equal the kernel order.
    """
    t = _tables(phi)
    n = t.n
    c = SkewProductElement(0, 1 % t.m)
    cinv = t.inverse(c)

    def conj_stays_in_b(h: int) -> bool:
        return t.mult(t.mult(c, SkewProductElement(h, 0)), cinv).j == 0

    best = 1
    for d in divisors(n):  # subgroup generated by d has order n // d
        if all(conj_stays_in_b(h) for h in range(0, n, d)):
            best = max(best, n // d)
    _require(best == phi.kernel_order, "pair-model core differs from kernel order")
    return best
