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

Associativity is decided by Light's test (Clifford and Preston, *The
Algebraic Theory of Semigroups* I, 1.2) cut to its j = 0 slice, plus one
row of triples; `check_group` proves that the two, with the identity
law, give every triple.
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
    triples_checked: int  # 2|G|^2, the (x, y, g) of Light's test that the check decides
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _equal(lhs, rhs) -> np.ndarray:
    return (lhs[0] == rhs[0]) & (lhs[1] == rhs[1])


def check_group(phi: SkewMorphism) -> GroupCheckReport:
    """Check identity, inverses, and associativity on the pair model.

    Identity and inverses are whole-array comparisons over all |G|
    elements; the identity law forces f^i(0) = 0 and s_i(0) = i for i < m.
    Associativity compares two families of triples directly:

    - the j = 0 slice of Light's test with g = (1, 0): for x = (a, i) and
      y = (b, 0), (xy)g = x(yg) reads, with k = s_i(b) < m,

          f^i(b + 1) = f^i(b) + f^k(1)   (mod n),
          s_i(b + 1) = s_k(1)            (mod m),

      in which a has cancelled, so x = (0, i) stands for all n elements (a, i);
    - the row x = (0, 1), y = (0, m - 1), z = (c, 0) for every c.  Under the
      identity law xy = (0, 0) and x(yz) = (c, s_m(c)), with
      s_m(c) = s_{m-1}(c) + pi(f^{m-1}(c)), so the row holds exactly when
      s_m(c) = 0 (mod m): it is necessary.

    Under the identity law the two are also sufficient.  Let s_t(c), for
    any t >= 0, be the sum of pi(f^u(c)) over u < t; splitting the sum
    gives the cocycle s_{t+u}(c) = s_u(c) + s_t(f^u(c)), and f^m = 1.

    1. For i < m, b and k = s_i(b) mod m: f^i(b + x) = f^i(b) + f^k(x) and
       s_i(b + x) = s_k(x) (mod m), by induction on x = 0, 1, ..., n - 1.
       At x = 0 this is f^k(0) = 0 and s_k(0) = k, the identity law.  The
       step is the slice at (i, b + x), then the induction hypothesis,
       then the slice at (k, x):
           f^i(b+x+1) = f^i(b+x) + f^{s_i(b+x)}(1)
                      = f^i(b) + f^k(x) + f^{s_k(x)}(1) = f^i(b) + f^k(x+1),
           s_i(b+x+1) = s_{s_i(b+x)}(1) = s_{s_k(x)}(1) = s_k(x+1).
    2. For (a, i), (b, j), (c, l), let k = s_i(b) mod m and h = k + j mod m.
       By step 1 and the cocycle,
           (a, i)((b, j)(c, l)) = (a + f^i(b + f^j(c)), s_i(b + f^j(c)) + s_j(c) + l)
                                = (a + f^i(b) + f^{k+j}(c), s_{k+j}(c) + l),
       while ((a, i)(b, j))(c, l) = (a + f^i(b), h)(c, l)
                                = (a + f^i(b) + f^h(c), s_h(c) + l).
       f^{k+j} = f^h, and s_{k+j}(c) = s_h(c) if k + j < m; otherwise it
       is s_m(c) + s_h(f^m(c)) = s_m(c) + s_h(c), which the row makes s_h(c).

    Each reported associativity failure names a triple that fails.
    Without the identity law the compared triples prove nothing, which is
    why `passed` needs all three laws.  Each law reports its first failure.
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

    # the slice, all (i, b) at once: np.roll puts column b + 1 at b, d in
    # (-2n, n) is 0 mod n exactly when it is 0 or -n, and e in (-m, m) is
    # 0 mod m exactly when it is 0
    one = 1 % n
    d = np.roll(t.powers, -1, axis=1) - t.powers - t.powers[t.prefix, one]
    e = np.roll(t.prefix, -1, axis=1) - t.prefix[t.prefix, one]
    ok = ((d == 0) | (d == -n)) & (e == 0)
    if not ok.all():
        bad_i, bad_b = np.argwhere(~ok)[0]
        witness = (0, int(bad_i)), (int(bad_b), 0), (one, 0)
        failures.append("associativity fails at {},{},{}".format(*witness))
    else:
        # the row: (x y) z against x (y z) for x = (0, 1), y = (0, m - 1), z = (c, 0)
        c = np.arange(n)
        xy = t.products(0, 1 % m, 0, m - 1)
        ok = _equal(t.products(*xy, c, 0), t.products(0, 1 % m, *t.products(0, m - 1, c, 0)))
        if not ok.all():
            witness = (0, 1 % m), (0, m - 1), (int(np.argmin(ok)), 0)
            failures.append("associativity fails at {},{},{}".format(*witness))

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
