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

Associativity is checked on every triple by Light's test (Clifford and
Preston, *The Algebraic Theory of Semigroups* I, 1.2): the elements g
with (xy)g = x(yg) for all x, y are closed under the product, so the
law holds everywhere once it holds for each g of a generating set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .cyclic_arith import divisors
from .skew_core import SkewMorphism, _require, power_table


class SkewProductElement(NamedTuple):
    """Normal form a * c^j with a in Z_n and j in Z_m."""

    a: int
    j: int


class _PairTables:
    """Cached m x n tables for one morphism: powers[i, b] = f^i(b),
    prefix[i, b] = s_i(b) mod m and inv_powers[i, f^i(b)] = b."""

    def __init__(self, phi: SkewMorphism):
        n, m = phi.n, phi.order
        self.n = n
        self.m = m
        self.powers = np.array(power_table(phi.images, m), dtype=np.int64)
        self.prefix = np.zeros((m, n), dtype=np.int64)
        np.cumsum(np.array(phi.pi)[self.powers[:-1]], axis=0, out=self.prefix[1:])
        self.prefix %= m
        self.inv_powers = np.empty_like(self.powers)
        np.put_along_axis(self.inv_powers, self.powers, np.arange(n), axis=1)

    def products(self, a, i, b, j):
        """(a, i) * (b, j) for integers or broadcasting integer arrays."""
        return (a + self.powers[i, b]) % self.n, (self.prefix[i, b] + j) % self.m

    def mult(self, x: SkewProductElement, y: SkewProductElement) -> SkewProductElement:
        a, i = self.products(x.a % self.n, x.j % self.m, y.a % self.n, y.j % self.m)
        return SkewProductElement(int(a), int(i))

    def inverse(self, x: SkewProductElement) -> SkewProductElement:
        a, i = x.a % self.n, x.j % self.m
        b = int(self.inv_powers[i, -a % self.n])
        return SkewProductElement(b, int(-self.prefix[i, b]) % self.m)


@lru_cache(maxsize=8)
def _tables(phi: SkewMorphism) -> _PairTables:
    return _PairTables(phi)


@dataclass
class GroupCheckReport:
    """Result of the pair-model group-axiom check."""

    group_order: int
    associativity_mode: str  # always "full": every triple is covered
    triples_checked: int
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _equal(lhs, rhs) -> np.ndarray:
    return (lhs[0] == rhs[0]) & (lhs[1] == rhs[1])


def check_group(phi: SkewMorphism) -> GroupCheckReport:
    """Check identity, inverses, and associativity on the pair model.

    Identity and inverses are whole-array comparisons over all |G|
    elements.  Associativity is Light's test with the generators
    (1, 0) and (0, 1), which covers all |G|^3 triples with 2|G|^2
    products.  Those two generate the pairs only where the identity law
    holds: it forces f^i(0) = 0 and s_i(0) = i, so that (a, 0) is a
    product of copies of (1, 0) and (a, i) * (0, 1) = (a, i + 1).  The
    test proves associativity only under that law, which is why
    `passed` needs all three.

    Under the identity law, (xy)g = x(yg) holds identically for
    g = (0, 1).  For g = (1, 0), x = (a, i) and y = (b, j) it reads,
    with c = f^j(1) and k = s_i(b) + j,

        f^i(b + c) = f^i(b) + f^k(1)   (mod n),
        s_i(b + c) + s_j(1) = s_k(1)   (mod m),

    in which the translation part a of x has cancelled, so x = (0, i)
    stands for all n elements (a, i).
    """
    t = _tables(phi)
    n, m = t.n, t.m
    failures: list[str] = []

    # every element x = (xa, xi) at once: xa along the columns, xi down the rows
    xa, xi = np.arange(n)[None, :], np.arange(m)[:, None]
    x = (xa, xi)
    identity_ok = _equal(t.products(*x, 0, 0), x) & _equal(t.products(0, 0, *x), x)
    ya = t.inv_powers[xi, -xa % n]
    y = (ya, -t.prefix[xi, ya] % m)
    inverse_ok = _equal(t.products(*x, *y), (0, 0)) & _equal(t.products(*y, *x), (0, 0))
    for law, ok in (("identity", identity_ok), ("inverse", inverse_ok)):
        if not ok.all():
            bad_i, bad_a = np.argwhere(~ok)[0]
            failures.append(f"{law} fails at ({bad_a},{bad_i})")

    # Light's test with g = (1, 0), x = (0, i) and y = (b, j), all (i, b) per j.
    # y g = (b + c, s_j(1)) is a column slice of the doubled tables, k < 2m
    # indexes the doubled f^k(1) and s_k(1), and d in (-2n, n) and e in
    # (-m, 2m) are 0 mod n and m exactly when they are 0 or -n and 0 or m.
    one = 1 % n
    f2, s2 = np.tile(t.powers[:, one], 2), np.tile(t.prefix[:, one], 2)
    wide_f, wide_s = np.tile(t.powers, 2), np.tile(t.prefix, 2)
    for j in range(m):
        c, k = f2[j], t.prefix + j
        d = wide_f[:, c : c + n] - t.powers - f2[k]
        e = wide_s[:, c : c + n] + s2[j] - s2[k]
        ok = ((d == 0) | (d == -n)) & ((e == 0) | (e == m))
        if not ok.all():
            bad_i, bad_b = np.argwhere(~ok)[0]
            witness = (0, int(bad_i)), (int(bad_b), j), (one, 0)
            failures.append("associativity fails at {},{},{}".format(*witness))
            break

    return GroupCheckReport(
        group_order=n * m,
        associativity_mode="full",
        triples_checked=2 * (n * m) ** 2,
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
    conj = t.products(*t.products(*c, np.arange(n), 0), *t.inverse(c))  # c (h, 0) c^{-1}
    stays_in_b = conj[1] == 0
    # the subgroup generated by d has order n // d
    best = max((n // d for d in divisors(n) if stays_in_b[::d].all()), default=1)
    _require(best == phi.kernel_order, "pair-model core differs from kernel order")
    return best
