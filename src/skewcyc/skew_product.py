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

The tables are built for a stack of morphisms that share Z_n, of any
orders: each morphism's tables are padded to the largest order of the
stack, and every law is one whole-array pass over the stack with the
padding masked, so the suite pays numpy's per-call cost once per stack
of Z_n instead of once per morphism.  `check_group` and `core_of_B` are
stacks of one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .cyclic_arith import divisors
from .skew_core import SkewMorphism, _require


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


def _first(bad: np.ndarray) -> tuple[int, ...]:
    """Index of the first True entry of `bad`, in row-major order."""
    return tuple(int(x) for x in np.unravel_index(np.argmax(bad), bad.shape))


def _gather(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """table[k, index[k, ...]] for every k, as one flat take."""
    depth, width = table.shape
    offsets = (np.arange(depth) * width).reshape((depth,) + (1,) * (index.ndim - 1))
    return np.take(table.ravel(), index + offsets)


class _PairTables:
    """K x M x n tables for a stack of K morphisms f_0, ..., f_{K-1} of Z_n
    of orders m_k = `orders[k]`, M = `m` the largest: powers[k, i, b] =
    f_k^i(b) and prefix[k, i, b] = s_i(b) mod m_k for f_k.

    Row k's group is read off its rows i < m_k (`valid`).  The rows above
    are padding: every law masks them and reads no witness from them, so
    each row's verdicts are those of a stack of one.

    `powers` is built by doubling, f^(h+i) = f^h o f^i for i <= h, each step
    one gather of row h at the rows 1..h; `prefix` is one cumsum of pi read
    at the rows 0..M-2, reduced mod each row's order.  Both are int32,
    which halves the memory traffic of the whole-array passes.  Every order
    must be at least 1 and every image lie in Z_n.
    """

    def __init__(self, stack: Sequence[SkewMorphism]):
        n = stack[0].n
        if any(phi.n != n for phi in stack):
            raise ValueError("a stack of pair tables needs one group Z_n")
        self.n = n
        self.orders = np.array([phi.order for phi in stack], dtype=np.int32)
        if self.orders.min() < 1:
            raise ValueError("a stack of pair tables needs orders of at least 1")
        self.m = m = int(self.orders.max())
        self.valid = np.arange(m) < self.orders[:, None]
        depth = len(stack)
        self.powers = np.empty((depth, m, n), dtype=np.int32)
        self.powers[:, 0] = np.arange(n)
        if m > 1:
            self.powers[:, 1] = [phi.images for phi in stack]
        known = min(m, 2)
        while known < m:
            count = min(known - 1, m - known)
            self.powers[:, known : known + count] = _gather(
                self.powers[:, known - 1], self.powers[:, 1 : count + 1]
            )
            known += count
        pi = np.array([phi.pi for phi in stack], dtype=np.int32)
        self.prefix = np.zeros_like(self.powers)
        np.cumsum(_gather(pi, self.powers[:, :-1]), axis=1, out=self.prefix[:, 1:])
        self.prefix %= self.orders[:, None, None]
        self._k = np.arange(depth)[:, None]

    def products(self, a, i, b, j):
        """(a, i) * (b, j) in every group of the stack at once, for integers or
        integer arrays that broadcast against a (K, 1) stack index."""
        k = self._k
        return (a + self.powers[k, i, b]) % self.n, (self.prefix[k, i, b] + j) % self.orders[k]

    def group_reports(self) -> list[GroupCheckReport]:
        """The `check_group` report of every morphism of the stack."""
        failures: list[list[str]] = [[] for _ in self.powers]
        for law in (self._identity_failures, self._inverse_failures, self._associativity_failures):
            for k, failure in law():  # each law frees its temporaries before the next
                failures[k].append(failure)
        return [
            GroupCheckReport(
                group_order=self.n * m,
                associativity_mode="full",
                triples_checked=2 * (self.n * m) ** 2,
                failures=failed,
            )
            for m, failed in zip(self.orders.tolist(), failures)
        ]

    def _identity_failures(self):
        """(k, failure) for each morphism of the stack that breaks the identity
        law, read off column 0 and row 0 (see `check_group`); the witness is
        the first failing (i, a) in row-major order."""
        powers, prefix = self.powers, self.prefix
        column = (powers[:, :, 0] == 0) & (prefix[:, :, 0] == np.arange(self.m)) | ~self.valid
        row = (powers[:, 0] == np.arange(self.n)) & (prefix[:, 0] == 0)
        for k in np.flatnonzero(~(column.all(axis=1) & row.all(axis=1))):
            bad_i, bad_a = _first(~(column[k, : self.orders[k], None] & row[k]))
            yield k, f"identity fails at ({bad_a},{bad_i})"

    def _inverse_failures(self):
        """(k, failure) for each morphism of the stack that breaks the inverse law.

        x = (a, i) has the one right inverse y = (b, j) with f^i(b) = -a and
        j = -s_i(b), so x y = (0, 0) always and the law is
        y x = (b + f^j(a), s_j(a) + i) = (0, 0).  For each i, b <-> a is a
        bijection, so it is checked over (i, b); the witness is the first
        failing (i, a) in row-major order.
        """
        powers, prefix, n = self.powers, self.prefix, self.n
        depth = len(powers)
        mod = self.orders[:, None, None]
        minus_n = -np.arange(n) % n
        a = minus_n[powers]
        j = mod - prefix  # -s_i(b) mod m, without a whole-array %
        j[j == mod] = 0
        at = j * n + a  # the flat index of (j, a)
        f_j_a = _gather(powers.reshape(depth, -1), at)
        s_j_a = _gather(prefix.reshape(depth, -1), at)
        minus_i = -np.arange(self.m)[:, None] % mod
        inverse_ok = (f_j_a == minus_n) & (s_j_a == minus_i)
        for k in np.flatnonzero(~(inverse_ok.all(axis=2) | ~self.valid).all(axis=1)):
            m = self.orders[k]
            ok = np.ones((m, n), dtype=bool)  # the same verdicts over (i, a)
            np.put_along_axis(ok, a[k, :m], inverse_ok[k, :m], axis=1)
            bad_i, bad_a = _first(~ok)
            yield k, f"inverse fails at ({bad_a},{bad_i})"

    def _associativity_failures(self):
        """(k, failure) for each morphism of the stack that fails the slice of
        Light's test or, where the slice passes, the row (see `check_group`)."""
        powers, prefix, n = self.powers, self.prefix, self.n

        # the slice, all (i, b) at once: np.roll puts column b + 1 at b, d in
        # (-2n, n) is 0 mod n exactly when it is 0 or -n, and e in (-m, m) is
        # 0 mod m exactly when it is 0
        one = 1 % n
        f_k_1 = _gather(powers[:, :, one], prefix)  # f^k(1) and s_k(1) at k = s_i(b)
        s_k_1 = _gather(prefix[:, :, one], prefix)
        d = np.roll(powers, -1, axis=2) - powers - f_k_1
        e = np.roll(prefix, -1, axis=2) - s_k_1
        slice_ok = ((d == 0) | (d == -n)) & (e == 0)
        slice_passed = (slice_ok.all(axis=2) | ~self.valid).all(axis=1)
        for k in np.flatnonzero(~slice_passed):
            bad_i, bad_b = _first(~slice_ok[k, : self.orders[k]])
            yield k, "associativity fails at {},{},{}".format((0, bad_i), (bad_b, 0), (one, 0))

        # the row: (x y) z against x (y z) for x = (0, 1), y = (0, m - 1), z = (c, 0)
        c = np.arange(n)
        one_m, last = 1 % self.orders[:, None], self.orders[:, None] - 1
        lhs = self.products(*self.products(0, one_m, 0, last), c, 0)
        rhs = self.products(0, one_m, *self.products(0, last, c, 0))
        row_ok = (lhs[0] == rhs[0]) & (lhs[1] == rhs[1])
        for k in np.flatnonzero(slice_passed & ~row_ok.all(axis=1)):
            m = int(self.orders[k])
            witness = (0, 1 % m), (0, m - 1), (int(np.argmin(row_ok[k])), 0)
            yield k, "associativity fails at {},{},{}".format(*witness)

    def cores(self) -> np.ndarray:
        """The pair-model core order of every morphism of the stack (see
        `core_of_B`): the order of the largest subgroup of Z_n inside
        {h : s_1(h) = 1 (mod m)}."""
        n = self.n
        one = 1 % self.orders
        stays_in_b = self.prefix[self._k[:, 0], one] == one[:, None]
        core = np.ones(len(stays_in_b), dtype=np.intp)
        for d in divisors(n):  # the subgroup generated by d has order n // d
            core = np.maximum(core, np.where(stays_in_b[:, ::d].all(axis=1), n // d, 1))
        return core

    def power_verdicts(
        self, rows: np.ndarray, exponents: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """`verify`'s verdict on f^p, read off row p of the tables, for the
        morphisms f of the stack at `rows` and their exponents p.

        Each f must pass `check_group`, and each p must divide f's order m
        and lie below it.  Returns, per row, the least element a for which
        f^p has no power exponent (-1 when f^p is skew), and whether f^p is
        coset-preserving (meaningful when it is skew).

        Proof.  Step 1 of `check_group`'s proof gives, for i = p < m,
        f^p(a + x) = f^p(a) + f^{s_p(a)}(x) for all x.  So f^p is skew with
        exponent e at a exactly when f^{s_p(a)} = (f^p)^e = f^{pe}, that is
        when s_p(a) = pe (mod m), because f has order m; as p | m, such an e
        exists exactly when p divides s_p(a) mod m.  The least a where it
        does not is `verify`'s witness, since `verify` tests the elements
        in ascending order and f^p is a permutation fixing 0.  When f^p is
        skew, its power function at a is (s_p(a) mod m) / p normalised into
        [1, m/p], a bijective image of s_p(a) mod m, so `_finish`'s
        definition pi(f^p(a)) = pi(a) for every a reads
        s_p(f^p(a)) = s_p(a) (mod m).
        """
        witness = np.full(len(rows), -1, dtype=np.intp)
        coset_preserving = np.ones(len(rows), dtype=bool)
        # not np.unique: its first call imports numpy.ma (1.7 MB of peak RSS)
        for p in sorted(set(exponents.tolist())):
            at = np.flatnonzero(exponents == p)
            s = self.prefix[rows[at], p]
            off = s % p != 0
            witness[at] = np.where(off.any(axis=1), off.argmax(axis=1), -1)
            s_at_image = _gather(s, self.powers[rows[at], p])
            coset_preserving[at] = (s_at_image == s).all(axis=1)
        return witness, coset_preserving


def check_group(phi: SkewMorphism) -> GroupCheckReport:
    """Check identity, inverses, and associativity on the pair model.

    Identity is read off column 0 and row 0 of the tables: (a, i)(0, 0) =
    (a + f^i(0), s_i(0)) and (0, 0)(a, i) = (f^0(a), s_0(a) + i), so the
    identity law at every element is f^i(0) = 0 and s_i(0) = i for i < m
    (column 0) together with f^0(a) = a and s_0(a) = 0 for every a (row 0).
    Inverses are a whole-array comparison over all |G| elements.
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
    The check runs on a stack of one; `_PairTables.group_reports` checks
    a whole stack the same way.
    """
    return _PairTables([phi]).group_reports()[0]


def core_of_B(phi: SkewMorphism) -> int:
    """Order of the largest subgroup H of Z_n with c H c^{-1} inside Z_n.

    Here B = {(h, 0)} is Z_n and c = (0, 1).  Under the identity law
    (f^k(0) = 0 and s_k(0) = k for k < m, which `check_group` checks),
    c^{-1} = (0, m - 1): (0, 1)(0, m - 1) = (f(0), s_1(0) + m - 1) = (0, 0).
    So c (h, 0) = (f(h), s_1(h)) and
        c (h, 0) c^{-1} = (f(h) + f^{s_1(h)}(0), s_{s_1(h)}(0) + m - 1)
                        = (f(h), s_1(h) - 1),
    with s_1(h) = pi(h) (mod m).  The conjugate lies in B exactly when
    prefix[1, h] = s_1(h) mod m is 1 mod m, and H, a subgroup <d> for a
    divisor d of n, is conjugated into B exactly when every multiple of d
    is such an h.  The result must equal the kernel order.
    """
    best = int(_PairTables([phi]).cores()[0])
    _require(best == phi.kernel_order, "pair-model core differs from kernel order")
    return best
