"""Complete enumeration of skew morphisms of Z_n.

Strategy, for each n (recursively over smaller orders):

1. Automorphisms are the maps a -> s*a for units s.

2. Proper coset-preserving morphisms have quotient alpha_s on Z_m with
   m = ord(f), s != 1.  Writing r = mult_order(s, m), such an f has
   kernel of order n/r (so r | n) and its generator orbit lies inside
   the coset 1 + K (so m <= n/r).  The search runs over the remaining
   degrees of freedom: the kernel action u (an automorphism of K) and
   v = f(1) = 1 + w*r.  The orbit of 1 is o_k = 1 + r*(w*S_k mod n/r)
   with S_k = 1 + u + ... + u^(k-1), so the pairs (u, w) whose orbit has
   period m are picked out by divisibility alone; f itself is recovered
   as the partial sums f(k) = sum_{i<k} o_{s^i mod m}.  The sums S_k
   depend on u and the kernel order n/r alone, and the units u that have
   a w of period m, with the gcds g = gcd(w, n/r) of those w, on u, n/r
   and m alone, so each is built once and the tasks of one (r, m) run one
   after another.  The orbit replay is a linear congruence in w/g, solved
   for each such g, so no w is scanned; its every solution is a bijection
   (proved in `_cp_base_search`), and a necessary condition on the kernel
   action (`_kernel_test`) turns away the other non-skew pairs, so only
   the pairs that pass both are built into a candidate.
   Conjugating f by a unit t changes its quotient alpha_s to
   alpha_(s^(t^{-1})), so only the least s of each cyclic subgroup <s> is
   searched; `_accepted_classes`, which the lift shares, builds the class
   (`conjugates`) of each solution it meets first, and skips a candidate
   whose period sums, which fix every member of a class, match a built
   member before it is verified.  The classes hold the solutions of every
   task of <s>, built by gathers, and each class is checked to meet
   exactly those tasks.

3. Morphisms that are not coset-preserving have a proper quotient rho
   on Z_m for some 2 <= m < n with m | n*phi(n) and gcd(m, n) > 1.
   `lift` reconstructs all of them from rho: the generator orbit
   interleaves p = m/|ker rho| threads advanced by a coset-preserving
   stepper psi of order m/p (the p-th power of the candidate), with
   thread seeds constrained to prescribed kernel cosets; the partial
   sums run over the exponent list L_i = rho^i(1).  Only orbit
   positions in {L_i} are needed, which prunes most free seeds.
   Conjugating f by a unit t only changes the generator its quotient is
   taken for: Q(t*f*t^{-1}) is the quotient of f for t^{-1}, which is
   rho^(t^{-1}) (proved in `quotient`).  So the sources that pass the
   lift gate (`_can_lift`) are grouped by the generators of their cyclic
   group <rho> (`_lift_orbits`), and only one rho per group is lifted.
   The lift's survivors go to the base search's `_accepted_classes`,
   which closes each lift it accepts into its class and skips the other
   members before they are verified; the classes hold the lifts of the
   whole group, built by gathers and not verified again.  These classes
   and the coset-preserving ones number the census's class ids.  That
   every stored quotient is a line of the census of its order is a law
   of `check` (`invariants`), not a run-time check here.

Candidate filtering before full verification exploits the period-r
structure of the partial sums: with T the sum over one period, the
candidate is a bijection iff gcd(T, n) equals the kernel index, and the
whole orbit of 1 can be walked with O(1) evaluations.  The base search
decides that walk in closed form, in (u, w) alone; the step-by-step walk
is its oracle in the test suite (`naive_cp_base_search`).  The lift runs
these checks on the (stepper, seed combination) rows of a task at once
(`_batched_seed_survivors`), iterating the steppers on the seeds alone
(orbit position e is psi^(e//p) at the seed of thread e % p); the
stepper is a leading axis of its tables.  Its prefix sums are separable,
one table of partial sums per thread and stepper, and every orbit value
has a residue mod R = ord(rho) that neither the seeds nor the stepper
change (every stepper fixes residues, each seed pool is one coset, R
divides T), so each walk step reads one prefix column for all rows.
The prefix columns split into two tables over the seeds of the first
and the second half of the free threads, and for a fixed T the orbit
value at each seed position is a sum of one term from each half, so a
join of the two halves (`_seed_join`) hands the walk exactly the rows
that pass the T filter and every seed check; the rest of the seed
product is never built.  The walk reads all its rows in one pass: it
gathers their prefix columns once, fills the orbit of 1 of every row,
and tests the orbit alone, all of it at once.  Each survivor that no
built class holds takes its period sums to `_realize_lift` in the shared
step: `verify` with order m.  Its quotient is rho (proved there), so the
census builds no quotient.  The pass is tested against the same walk
run one row at a time (`naive_seed_survivors` in the test suite), and
the join against the rows that pass its checks one row at a time
(`naive_seed_rows`).

Everything is cross-checked against `brute_force` (filtering all
permutations) for small n in the test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, permutations
from itertools import product  # unused here; perfbench/layers.py traces enumeration.product
from math import gcd

from .cyclic_arith import divisors, euler_phi, factorize, mult_order, units
from .quotient import generator_orbit
from .skew_core import (
    Orbit,
    SkewMorphism,
    SkewMorphismError,
    _require,
    automorphism_table,
    conjugates,
    power,
    verify,
)

BRUTE_FORCE_MAX_N = 10


class DuplicateFoundError(AssertionError):
    """Two search branches produced the same morphism: an implementation bug."""


# unused here; perfbench/layers.py traces OrbitTemplate.orbit_value, and
# tests/naive.py lays out the pre-filter's reference walk with it
@dataclass(frozen=True)
class OrbitTemplate:
    """A candidate generator orbit: p interleaved threads under a stepper psi.

    Position e of the orbit carries psi^(e//p) applied to the seed of
    thread e % p.  Thread 0 is seeded by the generator 1; the seeds of
    the other *needed* threads are the free choices x_i (1-based slot
    i = thread + 1 as in the orbit layout), each constrained to the
    kernel coset prescribed by the power function of the quotient.
    """

    m: int
    p: int
    psi: SkewMorphism
    x: tuple[tuple[int, int], ...]  # (slot i in [2, p], seed residue)
    needed_positions: frozenset[int]

    def __post_init__(self) -> None:
        _require(self.psi.coset_preserving, "stepper must be coset-preserving")
        _require(self.psi.order * self.p == self.m, "stepper order must be m/p")
        _require(
            all(2 <= i <= self.p for i, _ in self.x),
            "free seeds sit in slots 2..p",
        )
        _require(
            all(0 <= e < self.m for e in self.needed_positions),
            "needed positions are orbit exponents",
        )

    def orbit_value(self, e: int) -> int:
        """Value at orbit position e, by `power`."""
        thread, q = e % self.p, e // self.p
        seed = 1 if thread == 0 else dict(self.x)[thread + 1]
        return power(self.psi, q)[seed]


@dataclass(frozen=True)
class CensusRecord:
    """All skew morphisms of Z_n, sorted, with equivalence-class ids.

    `leaders` holds the least member of each class, in class-id order, when
    the record's builder (`census` through `_finalize_census`, or
    `Store.load`) walked its classes and so proved it closed under
    conjugation, with ids that number its orbits; `check` then reads them
    and builds no orbit.  It is None on any other record: no caller can
    pass it, and `dataclasses.replace` does not copy it.
    """

    n: int
    morphisms: tuple[SkewMorphism, ...]
    class_ids: tuple[int, ...]  # aligned with morphisms; -1 for automorphisms
    leaders: tuple[SkewMorphism, ...] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        imgs = [phi.images for phi in self.morphisms]
        _require(imgs == sorted(imgs), "census must be sorted by image sequence")
        _require(len(set(imgs)) == len(imgs), "census must not contain duplicates")
        _require(len(self.class_ids) == len(self.morphisms), "class ids misaligned")
        for phi, cid in zip(self.morphisms, self.class_ids):
            _require((cid == -1) == phi.automorphism, "class ids mark proper only")

    @property
    def total(self) -> int:
        return len(self.morphisms)

    @property
    def automorphism_count(self) -> int:
        return sum(1 for phi in self.morphisms if phi.automorphism)

    @property
    def proper_count(self) -> int:
        return self.total - self.automorphism_count

    @property
    def class_count(self) -> int:
        return len({cid for cid in self.class_ids if cid != -1})

    def proper(self) -> list[SkewMorphism]:
        return [phi for phi in self.morphisms if phi.proper]


def automorphisms(n: int) -> list[SkewMorphism]:
    """All automorphisms of Z_n, sorted by image sequence, in closed form."""
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")
    return sorted(automorphism_table(n).values(), key=lambda p: p.images)


def _candidate_orders(n: int) -> list[int]:
    """Possible orders of proper skew morphisms of Z_n."""
    nphi = n * euler_phi(n)
    return [m for m in range(2, n) if nphi % m == 0 and gcd(m, n) > 1]


@lru_cache(maxsize=1)
def _unit_partial_sums(kq: int) -> list[tuple[int, list[int]]]:
    """(u, [S_0, ..., S_kq]) for each unit u of kq in ascending order, with
    S_k = 1 + u + ... + u^(k-1) (mod kq); built once for the latest kq.

    A task (m, s) of Z_n reads S_k for k <= m <= kq = n/r (`cp_search_tasks`
    keeps m*r <= n), and the sums depend on neither m nor s, so the tasks of
    one kernel order share them: `_cp_unit_filter` reads them once per
    (kq, m), and `_search_groups` runs the tasks of one r one after
    another."""
    table = []
    for u in units(kq):
        sums, acc = [0], 0
        for _ in range(kq):
            acc = (u * acc + 1) % kq
            sums.append(acc)
        table.append((u, sums))
    return table


def _cp_base_search(n: int, m: int, s: int) -> list[Orbit]:
    """The conjugation classes of the coset-preserving morphisms of Z_n
    with order m and quotient alpha_s.

    Such an f has kernel order kq = n/r, r = ord_m(s); left free are its
    kernel action u (a unit of kq) and f(1) = 1 + w*r, 0 <= w < kq.  With
    x = 1 + r*z the orbit of 1 under x -> u*(x-1) + f(1) becomes
    z -> u*z + w on Z_kq, so z_k = w*S_k, S_k = 1 + u + ... + u^(k-1) (mod kq),
    and z_k = 0 exactly when d_k = kq/gcd(S_k, kq) divides w.  Those k are
    the multiples of the period, so the period is m exactly when d_m | w
    and no d_(m/q) | w for a prime q | m.  Each d_(m/q) is a multiple of
    d_m, so a u with d_(m/q) = d_m has no such w.  Every d_k divides kq,
    so the test reads only g = gcd(w, kq); `_cp_unit_filter`, shared by the
    tasks of one (kq, m), keeps the u that have a w of period m and the g
    that pass, from the sums S_k of `_unit_partial_sums`.

    The candidate built from such a pair has period total T = r*c (mod n),
    c = 1 + w*sigma with sigma the sum of S_e over one period of exponents
    e = s^i mod m, so it is a bijection exactly when c is a unit mod kq.
    And f(1 + r*z) = x_1 + z*T, which is x_(k+1) = 1 + r*(u*z_k + w) at
    z = z_k exactly when z_k*(c - u) = 0 (mod kq); every z_k is a multiple
    of z_1 = w, so the orbit of 1 under f replays x_1, ..., x_m exactly
    when w*(c - u) = 0 (mod kq).  For each u and each g that passes the
    period test, `_replay_solutions` solves that congruence, linear in
    v = w/g, and `_cp_candidates` takes the solutions w of all those g in
    ascending order and tests `_kernel_test` on T = r*c; no other w is
    looked at.  Each is a bijection, c a unit mod kq: w = g*v, v a unit
    mod k = kq/g, with sigma*g*v = u - 1 (mod k), so c = u (mod k), c = 1
    modulo every prime of g, and every prime of kq divides k or g.  Only
    then are the period sums built, and a pair that passes all three
    tests goes, in (u, w) order, to the acceptance-and-closure step
    `_accepted_classes` with `_realize_candidate`; no orbit is walked to
    find them.  A pair that passes them is a solution of the task exactly
    when `verify` accepts its candidate with order m: its quotient is then
    alpha_s (proved in `_realize_candidate`).

    Each class is built from its first solution in (u, w) order.  A
    candidate skipped as a member of a built class is skew of order m, so
    its quotient is alpha_s and it is a solution already there.  No
    candidate of this task is a member of another task of <s> (see
    `_coset_preserving`); this task's members have pi(1) = s (mod m).
    """
    r = mult_order(s, m)
    _require(r >= 2 and n % r == 0, "alpha_s must be proper, and the closed form needs r | n")
    if m > n // r:  # the orbit of 1 lies in the coset 1 + K (`cp_search_tasks` drops these tasks)
        return []
    candidates = _cp_candidates(n, m, s, r)
    return _accepted_classes(n, m, r, candidates, _realize_candidate, coset_preserving=True)


def _cp_candidates(n: int, m: int, s: int, r: int):
    """The period sums (prefix, T) of the (u, w) pairs of the task (m, s)
    that pass the closed forms of `_cp_base_search`, in (u, w) order.

    The w of a unit u that pass the period test and the replay congruence
    come from `_cp_unit_filter` and `_replay_solutions`, ascending; each
    is a bijection and then takes `_kernel_test`."""
    exps = [pow(s, i, m) for i in range(r)]  # one period of partial-sum exponents
    kq = n // r  # kernel order
    for u, sums, periods in _cp_unit_filter(kq, m):
        sigma = sum(sums[e] for e in exps)
        for w in sorted(w for g in periods for w in _replay_solutions(kq, g, u, sigma)):
            total = r * (1 + w * sigma) % n
            if not _kernel_test(n, r, s, total):
                continue
            # prefix sums of one period of orbit values: f(j + k*r) = prefix[j] + k*T
            prefix = list(accumulate((1 + r * (w * sums[e] % kq) for e in exps), initial=0))
            _require(prefix[r] % n == total, "the period total is r*(1 + w*sigma) (mod n)")
            yield [q % n for q in prefix[:r]], total


@lru_cache(maxsize=1)
def _cp_unit_filter(kq: int, m: int) -> list[tuple[int, list[int], list[int]]]:
    """(u, sums, periods) for each unit u of kq, ascending, that has a w of
    period m (see `_cp_base_search`), with sums = [S_0, ..., S_kq] from
    `_unit_partial_sums` and periods the ascending divisors g of kq that
    pass the period test: d_m | g and no d_(m/q) | g, q a prime of m.
    Built once for the latest (kq, m); `_search_groups` runs the tasks of
    one (r, m), which share it, one after another.

    Every d_k divides kq, so d | w exactly when d | gcd(w, kq): a w passes
    the period test exactly when g = gcd(w, kq) is one of `periods`.  A u
    with d_m in the d_(m/q) has no such g, each d_(m/q) being a multiple of
    d_m, and is left out."""
    primes, gs = list(factorize(m)), divisors(kq)
    table = []
    for u, sums in _unit_partial_sums(kq):
        d_m = kq // gcd(sums[m], kq)
        d_mq = [kq // gcd(sums[m // q], kq) for q in primes]
        if d_m in d_mq:  # each d_(m/q) is a multiple of d_m
            continue
        periods = [g for g in gs if g % d_m == 0 and all(g % d for d in d_mq)]
        table.append((u, sums, periods))
    return table


def _replay_solutions(kq: int, g: int, u: int, sigma: int) -> list[int]:
    """The w in [0, kq) with gcd(w, kq) = g, g | kq, that pass the replay
    congruence w*(1 - u + sigma*w) = 0 (mod kq) of `_cp_base_search`,
    ascending.

    Such a w is g*v with v a unit mod k = kq/g, v in [0, k) (v = 0 when
    k = 1).  kq = g*k divides g*v*(1 - u + sigma*g*v) exactly when k
    divides v*(1 - u + sigma*g*v), and, v being a unit mod k, exactly when
    a*v = u - 1 (mod k) with a = sigma*g mod k.  With h = gcd(a, k) that
    has a solution exactly when h | u - 1, and then its solutions are
    v = v0 (mod k/h), v0 = ((u - 1)/h) * (a/h)^(-1) (mod k/h): h of them in
    [0, k), of which the units mod k are kept."""
    k = kq // g
    a = sigma * g % k
    h = gcd(a, k)
    if (u - 1) % h:
        return []
    step = k // h
    v0 = (u - 1) // h * pow(a // h, -1, step) % step
    return [g * v for v in range(v0, k, step) if gcd(v, k) == 1]


def _accepted_classes(
    n: int, m: int, width: int, candidates, realize, *, coset_preserving: bool
) -> list[Orbit]:
    """The conjugation classes (`conjugates`) of the candidates that
    `realize` accepts, in candidate order: the acceptance-and-closure step
    of the cp search and the lift.  A candidate (prefix, T) is the map
    f(j + k*w) = prefix[j] + k*T, w = `width`, and `realize` returns it
    verified with order m, or None.  An accepted f without the kernel wZ_n,
    or cp when `coset_preserving` is false (or not cp when it is true), is
    an implementation bug.

    Every member g of a class has the kernel wZ_n (conjugation by a unit
    maps each subgroup onto itself), and a = k*w lies in it, where g is
    additive, so g(j + k*w) = g(j) + k*g(w): images[:w+1] fix g, and those
    of a candidate are its prefix sums and T.  So a candidate whose
    (prefix, T) is in `known` is skipped before it is verified: it is that
    member.
    """
    known: set[tuple[int, ...]] = set()  # images[:w+1] of every member of a built class
    classes: list[Orbit] = []
    for prefix, total in candidates:
        if (*prefix, total) in known:
            continue
        sk = realize(n, m, width, prefix, total)
        if sk is None:
            continue
        _require(sk.kernel_order == n // width, "an accepted map has the kernel wZ_n")
        _require(sk.coset_preserving == coset_preserving, "a producer's maps are cp, or none is")
        orbit = conjugates(sk)
        known.update(images[: width + 1] for images in orbit)
        classes.append(orbit)
    return classes


def _realize_candidate(
    n: int, m: int, r: int, prefix: list[int], total: int
) -> SkewMorphism | None:
    """The candidate with period sums `prefix` and `total` (see
    `_verified_of_order`) when it is a solution of its task: fully
    verified and of order m; None otherwise.  It keeps a name of its own,
    which the benchmark's trace counts as a cp-search candidate.

    It sees only pairs that pass the closed forms of `_cp_base_search` for
    the orbit replay (so bijections) and the kernel test, and that no
    built class holds (`_accepted_classes`).  Every candidate accepted here
    has the quotient alpha_s of its task, so none is built.  With w, S_e
    and kq as there, the orbit values are x_e = 1 + r*(w*S_e mod kq), and
    the period sums are prefix[j] = sum_{i<j} x_(s^i mod m), which reach
    T (mod n) at j = r (`_cp_candidates` requires it).
    - f(a + 1) - f(a) = x_(s^a mod m) for every a: inside a period it is
      prefix[j+1] - prefix[j], and across a period boundary it is
      T - prefix[r-1]; s^r = 1 (mod m).  The orbit replay makes
      x_e = f^e(1), so the skew identity f(a + 1) = f(a) + f^(pi(a))(1)
      gives f^(pi(a))(1) = f^(s^a)(1).  The orbit of 1 has m = ord(f)
      points, so pi(a) = s^a (mod m).
    - Every f^i(1) = x_i = 1 (mod r), and s has order r mod m, so
      Q(k) = sum_{i<k} pi(f^i(1)) = sum_{i<k} s^(x_i) = k*s (mod m):
      Q = alpha_s.
    """
    return _verified_of_order(n, m, r, prefix, total)


def _kernel_test(n: int, r: int, s: int, total: int) -> bool:
    """A necessary condition for f(j + k*r) = f(j) + k*T, T = `total`, to
    be a skew morphism of order m with quotient alpha_s: (T/r)^(s-1) = 1
    (mod n/r).

    Proof: gcd(T, n) = r, and f(k*r) = k*T, so f acts on the subgroup
    K = rZ_n as y -> c*y with c = T/r, a unit mod n/r.  The skew identity
    at a = 1, x = r reads f(1 + r) - f(1) = f^(pi(1))(r); the left side is
    T = c*r and the right side c^(pi(1))*r (mod n), so c^(pi(1)-1) = 1
    (mod n/r).  f^m is the identity, so the order of c divides m, and
    pi(1) = Q(1) = s (mod m) for the quotient Q = alpha_s; hence
    c^(s-1) = 1 (mod n/r).  The condition is not sufficient, so its
    survivors still get `verify`.
    """
    return pow(total // r, s - 1, n // r) == 1


def _verified_of_order(
    n: int, m: int, r: int, prefix: list[int], total: int
) -> SkewMorphism | None:
    """f from its period, f(j + k*r) = prefix[j] + k*T with T = `total`:
    fully verified and of order m, or None."""
    images = tuple((prefix[k % r] + (k // r) * total) % n for k in range(n))
    try:
        sk = verify(n, images)
    except SkewMorphismError:
        return None
    return sk if sk.order == m else None


def enumerate_coset_preserving(n: int, *, executor=None) -> list[SkewMorphism]:
    """All coset-preserving skew morphisms of Z_n (automorphisms included),
    sorted by images (see `_coset_preserving`, also for `executor`)."""
    return _coset_preserving(n, executor)[0]


def _coset_preserving(n: int, executor=None) -> tuple[list[SkewMorphism], list[Orbit]]:
    """All coset-preserving skew morphisms of Z_n, sorted by images, and
    the conjugation classes of the proper ones.

    For a unit t of Z_n and a solution f of the task (m, s), conjugation
    gives Q(t*f*t^{-1}) = Q(f)^(t^{-1}) (proved in `quotient`), and
    alpha_s^u = alpha_(s^u).  With r = ord_m(s), t^{-1} mod r runs over
    every unit v of Z_r, so the class of f meets exactly the tasks
    {(m, s^v) : v a unit of Z_r}, the group of s.  Only the least s of
    each group is searched, and the search returns the classes it builds
    (`_cp_base_search`); each class is checked to meet exactly the tasks
    of its group.  The searches are independent; with an executor (no
    path in `src/` passes one, the benchmark's pooled phases do) they fan
    out to worker processes and are merged back in task order.  The
    result is sorted, and class ids number the classes by their least
    member, so neither the task order nor scheduling changes the output.
    """
    if n < 2:
        raise ValueError(f"expected n >= 2, got {n}")
    groups = _search_groups(n)
    tasks = [(n, m, s) for m, s, _group in groups]
    batches = (map if executor is None else executor.map)(_cp_task, tasks)
    classes = []
    for (m, _s, group), batch in zip(groups, batches):
        for cls in batch:
            met = {g.pi[1] % m for g in cls.values()}
            _require(met == group, "a class must meet exactly the tasks of its group")
        classes += batch
    found = {phi.images: phi for phi in automorphisms(n)}
    _merge(found, classes, f"coset-preserving search of Z_{n}")
    return sorted(found.values(), key=lambda p: p.images), classes


def _search_groups(n: int) -> list[tuple[int, int, set[int]]]:
    """The tasks of `cp_search_tasks(n)` grouped by the cyclic subgroup <s>:
    (m, s, {s^v mod m : v a unit of Z_r}) with s the least of its group,
    sorted by (r, m), r = ord_m(s), so that the tasks of one kernel order
    n/r run one after another and share its `_unit_partial_sums`, and
    those of one (r, m) share its `_cp_unit_filter`.

    This is the grouping of `_lift_orbits` at rho = alpha_s: the
    generators of <alpha_s> are alpha_s^v = alpha_(s^v).  The tasks are
    grouped by the integers s^v, which cost less than building alpha_s."""
    placed: set[tuple[int, int]] = set()
    groups = []  # (r, m, s, group)
    for m, s in cp_search_tasks(n):
        if (m, s) not in placed:
            r = mult_order(s, m)
            group = {pow(s, v, m) for v in units(r)}
            placed.update((m, sv) for sv in group)
            groups.append((r, m, s, group))
    groups.sort(key=lambda group: group[:2])
    return [(m, s, group) for _r, m, s, group in groups]


def _merge(found: dict[tuple[int, ...], SkewMorphism], classes: list[Orbit], where: str) -> None:
    """Add every member of `classes` to `found`, keyed by images; a member
    already there means two classes overlap, an implementation bug."""
    for cls in classes:
        for images, sk in cls.items():
            if images in found:
                raise DuplicateFoundError(f"{where} saw {sk.canonical_str()} twice")
            found[images] = sk


# the picklable tasks of `executor.map`, used only when an executor is passed
def _cp_task(args: tuple[int, int, int]) -> list[Orbit]:
    return _cp_base_search(*args)


def _lift_task(args: tuple[SkewMorphism, int, list[SkewMorphism]]) -> list[Orbit]:
    rho, n, psis = args
    return _lift_with_psis(rho, n, psis)


def cp_search_tasks(n: int) -> list[tuple[int, int]]:
    """The (order, quotient-automorphism) pairs the base search must cover:
    the (m, s), s != 1 a unit of m, with r = ord_m(s) dividing n and
    m*r <= n (`_cp_base_search`).

    That holds exactly when s^r' = 1 (mod m) for some divisor r' >= 2 of n
    with m*r' <= n: r' = r is one, and s^r' = 1 makes r divide r', so
    r | n and m*r <= m*r' <= n.  So no order is walked: each s tries the
    few such divisors with `pow`, and an m with none has no task."""
    tasks, rs = [], divisors(n)[1:]
    for m in _candidate_orders(n):
        bounded = [r for r in rs if m * r <= n]
        if bounded:
            tasks += [
                (m, s) for s in units(m) if s != 1 and any(pow(s, r, m) == 1 for r in bounded)
            ]
    return tasks


def psi_candidates(rho: SkewMorphism, n: int, cp_list: list[SkewMorphism]) -> list[SkewMorphism]:
    """Steppers usable when lifting rho to Z_n.

    The true stepper is the p-th power of the lifted morphism, which is
    coset-preserving of order m/p and fixes every coset of the kernel
    of the lift (its own kernel contains that kernel); requiring the
    coset-fixing property for all residues is therefore sound and cuts
    the search considerably.
    """
    m, big_r = rho.n, rho.order
    p = m // rho.kernel_order
    ordpsi = m // p
    out = []
    for psi in cp_list:
        if psi.order != ordpsi:
            continue
        if all(psi.images[x] % big_r == x % big_r for x in range(n)):
            out.append(psi)
    return out


def lift(rho: SkewMorphism, n: int, cp_list: list[SkewMorphism]) -> list[SkewMorphism]:
    """All non-coset-preserving f of Z_n whose quotient (generator 1) is
    rho, sorted by images.

    rho must be a verified skew morphism (built by `verify`): no quotient
    is checked, as the proof in `_realize_lift` rests on rho being skew.
    `_lift_with_psis` returns the classes of these lifts, whose members
    have the quotients rho^v, v a unit of Z_R (see `_lift_orbits`); the
    lifts of rho are the members f with pi_f(1) = rho(1) (mod m):
    Q(f)(1) = pi_f(f^0(1)) = pi_f(1) (mod m), and rho^v(1) = rho(1) only
    when v = 1 (mod R), the orbit of 1 under rho having R points."""
    if not rho.proper:
        raise ValueError("lift requires a proper quotient")
    if not _can_lift(rho, n):
        return []
    m, at_1 = rho.n, rho.images[1]
    classes = _lift_with_psis(rho, n, psi_candidates(rho, n, cp_list))
    lifts = [f for cls in classes for f in cls.values() if f.pi[1] % m == at_1]
    return sorted(lifts, key=lambda f: f.images)


def _can_lift(rho: SkewMorphism, n: int) -> bool:
    """The lift gate: checks on rho and n alone that every f of Z_n with
    quotient rho passes.  With m = rho.n, R = ord(rho), p = m/|ker rho|:
    - R | n, since the kernel K of f has order n/R;
    - m <= p*n/R: the thread f^j(1), f^(j+p)(1), ... of the orbit of 1
      holds m/p distinct values, and f^p fixes every coset of K, of n/R
      elements (see `psi_candidates`).

    Every such f also has f(k) = sig_k (mod R), sig_k = sum_{i<k}
    pi_rho(rho^i(1)) (f induces Q(rho) on Z_n/K), and permutes the
    cosets of K, so sig_0, ..., sig_(R-1) is a bijection of Z_R and
    sig_R = 0 (mod R).  That needs no check: it holds for every skew rho.
    - sig_0, ..., sig_(R-1) are the images of `quotient_of(rho)`, a skew
      morphism of Z_R, so they are a bijection of Z_R;
    - sig_R = 0: iterating the skew identity k times gives
      rho^k(a + b) = rho^k(a) + rho^(sigma_k(a))(b) with sigma_k(a) =
      sum_{i<k} pi_rho(rho^i(a)); at k = R, a = 1, rho^R = id leaves
      1 + b = 1 + rho^(sig_R)(b) for every b, so rho^(sig_R) = id and R
      divides sig_R.
    """
    m, big_r = rho.n, rho.order
    return n % big_r == 0 and m <= m // rho.kernel_order * (n // big_r)


def _free_threads(orbit_l: list[int], p: int) -> list[int]:
    """The threads whose seeds are free choices: those other than thread 0
    that hold a needed orbit position (an exponent in orbit_l).

    Thread 1 is always among them: orbit_l[0] = 1, and 1 % p = 1 because
    p = m/|ker rho| >= 2 for a proper rho, whose kernel is a proper
    subgroup of Z_m.  So every lift task has a free thread."""
    return sorted({e % p for e in orbit_l} - {0})


def _lift_with_psis(rho: SkewMorphism, n: int, psis: list[SkewMorphism]) -> list[Orbit]:
    """The conjugation classes of the lifts of rho to Z_n whose p-th power
    is one of the steppers `psis` (see `psi_candidates`), in the order of
    the survivor each is built from.  Their members have the quotients
    rho^v, v a unit of Z_R, and those of rho are its lifts (see `lift`).

    Thread 0 of the orbit of 1 is seeded by 1, and each free thread
    (`_free_threads`) by a seed from the kernel coset that pi_rho gives
    it.  `_batched_seed_survivors` walks the (stepper, seeds) rows that
    pass its seed join and yields the period sums of the rows whose orbit
    of 1 is consistent.  The cp search's `_accepted_classes` keeps, with
    `_realize_lift`, those that are skew of order m (their quotient is
    rho, proved there), and builds the class of each it keeps first.
    Every lift f of rho is a survivor under its own stepper f^p, one of
    `psis`, and is then either kept, opening its class, or skipped as a
    member of a class built already.  So each class is verified once,
    none twice, and every lift of rho is in one of them.
    """
    if not psis:
        return []
    m, big_r = rho.n, rho.order
    kord = n // big_r  # kernel order of any lift
    p = m // rho.kernel_order  # periodicity of any lift
    orbit_l = generator_orbit(rho, 1)  # partial-sum exponents of the lift
    free = _free_threads(orbit_l, p)
    # seed of thread j sits in the kernel coset given by pi_rho at j
    pools = [[(rho.pi[j] + t * big_r) % n for t in range(kord)] for j in free]

    survivors = _batched_seed_survivors(n, m, big_r, p, psis, free, pools, orbit_l)
    candidates = ((prefix, total) for _k, prefix, total in survivors)
    return _accepted_classes(n, m, big_r, candidates, _realize_lift, coset_preserving=False)


def _batched_seed_survivors(
    n: int,
    m: int,
    big_r: int,
    p: int,
    psis: list[SkewMorphism],
    free: list[int],
    pools: list[list[int]],
    orbit_l: list[int],
):
    """Vectorised pre-filter over the seed combinations of every stepper of a task.

    Runs the checks that the orbit of 1 of a lift passes (one-period total
    T with gcd(T, n) = R, orbit walk with first return at m, seed replay,
    psi thread relation) on (stepper, combination) rows at once, and
    yields each survivor as (index into psis, its R prefix sums mod n, T),
    stepper by stepper in `product(*pools)` order.  The survivors go to
    `_realize_lift`, which verifies each, so this stage can only discard,
    never admit.  Its reference is `naive_seed_survivors` in tests/naive.py,
    the same walk one row at a time on every row.

    Period term i is psi^(orbit_l[i] // p) at the seed of thread
    orbit_l[i] % p, so the pass iterates the steppers (one stack x n array
    of images) on the seeds alone (each free thread's pool and thread 0's
    seed 1), one gather per power, and the walk's psi-thread check reads
    the same stepper array.  The prefix sums are separable: column c is
    the part of thread 0 plus one per-thread partial sum for each free
    thread, read from an (R+1) x nfree x kord table per stepper.
    Those are folded into two tables over the seed digits of the first and
    the second half of the free threads, `hi_sums` and `lo_sums`, and the
    stepper axis is flattened into their columns, so a column costs two
    gathers per row.  The period total T is column R.

    Every orbit value has the same residue mod R in all rows, whatever the
    stepper: every psi from `psi_candidates` fixes each residue mod R, so
    psi^q(s) = s (mod R) and each period term has the residue of its
    thread's seed; each seed pool lies in one coset of R; and R | T.  So
    the residues of the prefix sums are shared by the whole stack, and
    walk step t reads the same prefix column c_t on every row.  The walk
    reads all its rows in one pass (its orbit matrix, at most 2 MB on
    census 2..161, is about the size of the task's tables and join keys):
    it gathers the R+1 prefix columns of its rows once, fills an
    (m+1) x rows orbit matrix with o_t = cols[c_t] + (o_(t-1) // R) * T
    (mod n) in four in-place ops per step, and tests the orbit alone, all
    of it at once: first return at m and the psi-thread relation
    o_t = psi(o_(t-p)) for p <= t < m.  Every value is below n^2 (two sums
    mod n plus (o // R) * T < n^2 / 2), so the tables and the matrix are
    int32 unless n is large.

    The walk reads only rows that pass the T filter and every seed check:
    with two or more free threads, exactly those that `_seed_join`
    returns.  Proof, with kord = n/R:
    - every orbit value is o = rho + R*q with a residue rho < R shared by
      every row (above), so hi_sums[c, x] = rho^h_c + R*a_c[x] and
      lo_sums[c, y] = rho^l_c + R*b_c[y], and column c of row (x, y) is
      rho_c + R*gamma_c with gamma_c = a_c[x] + b_c[y] + carry_c (mod kord),
      carry_c = (rho^h_c + rho^l_c) // R;
    - T = R*tau with tau = gamma_R (rho_R = 0: R | T, see `_can_lift`),
      and gcd(T, n) = R*gcd(tau, kord), so the T filter keeps the rows
      whose tau is a unit mod kord;
    - walk step t reads column c_t, the residue of o_(t-1), which is the
      same on every row, so q_t = gamma_(c_t) + tau*q_(t-1) (mod kord)
      with q_0 = 0 (o_0 = 1 < R);
    - so for a fixed tau, q_t = QA_t[x] + QB_t[y], QA over a alone and QB
      over b and the carries alone;
    - the seed check at free thread t, o_t = pools[k][d_k], holds exactly
      when QA_t[x] + QB_t[y] = pools[k][d_k] // R, with the digit d_k read
      from x for k < half and from y otherwise: rho_(c_t), the residue of
      o_t, is that of the pool (proved in `_seed_join`).
    Each condition is an equation between a term of x and a term of y, so
    the join matches keys per tau.  A task with one free thread walks the
    rows of its product that pass the T filter: its hi half is empty, and
    its one seed check, at t = 1, holds on every row (o_1 = prefix[1] is
    the seed of thread 1).
    It imports numpy itself: the package loads without it.
    """
    import numpy as np
    nfree, kord, stack = len(free), len(pools[0]), len(psis)
    dtype = np.int32 if n < 1 << 15 else np.int64
    thread_of = {j: k for k, j in enumerate(free)}
    steppers = np.asarray([psi.images for psi in psis], dtype=dtype)  # row s: psis[s]
    # powers[q, s, k, d] = psi_s^q(seed digit d of free thread k); slot nfree is thread 0's seed 1
    powers = np.empty((max(orbit_l) // p + 1, stack, nfree + 1, kord), dtype=dtype)
    powers[0] = pools + [[1] * kord]
    by_stepper = np.arange(stack)[:, None, None]
    for q in range(1, len(powers)):
        powers[q] = steppers[by_stepper, powers[q - 1]]
    # terms[i, s, k, d]: what period step i adds under stepper s when thread
    # slot k has seed digit d (zero for the slots other than its thread's)
    slot = np.asarray([thread_of.get(e % p, nfree) for e in orbit_l])
    terms = np.zeros((big_r, stack, nfree + 1, kord), dtype=dtype)
    terms[np.arange(big_r), :, slot] = powers[np.asarray(orbit_l) // p, :, slot]
    sums = np.zeros((big_r + 1, stack, nfree + 1, kord), dtype=np.int64)
    np.cumsum(terms, axis=0, dtype=np.int64, out=sums[1:])
    sums %= n
    _require(
        bool((sums % big_r == sums[:, :1, :, :1] % big_r).all()),
        "prefix residues mod R must not depend on the stepper or the seeds",
    )
    # a step that reads prefix column c lands on residue next_residue[c]
    next_residue = (sums[:, 0, :, 0].sum(axis=1) % big_r).tolist()
    columns = [1]  # walk step t reads prefix column columns[t - 1], the residue of o_(t-1)
    for _ in range(m - 1):
        columns.append(next_residue[columns[-1]])

    # row (s * hi_size + h) * lo_size + l, for stepper s and the seed digits
    # h, l of the first and the second half of the free threads, reads
    # column c as hi_sums[c, s * hi_size + h] + lo_sums[c, s * lo_size + l] (mod n)
    def fold(acc, threads):
        for k in threads:
            acc = (acc[:, :, :, None] + sums[:, :, k, None, :]).reshape(big_r + 1, stack, -1)
        return (acc % n).astype(dtype).reshape(big_r + 1, -1)

    half = nfree // 2
    hi_size, lo_size = kord**half, kord ** (nfree - half)
    hi_sums = fold(sums[:, :, nfree, :1], range(half))
    lo_sums = fold(np.zeros((big_r + 1, stack, 1), dtype=np.int64), range(half, nfree))

    # An empty hi half, and the one seed check passes on every row: the walk
    # reads the product rows that pass the T filter (row s*kord + l reads hi
    # column s), as `_seed_join` made the 18 such tasks of census(81) slower,
    # 5.3 to 9.1 ms (ROADMAP.md, "Closed by measurement").
    if nfree == 1:
        ids = np.arange(stack * lo_size)
        ids = ids[np.gcd((hi_sums[big_r, ids // lo_size] + lo_sums[big_r, ids]) % n, n) == big_r]
    else:
        ids = _seed_join(big_r, free, pools, hi_sums, lo_sums)
    if not len(ids):
        return
    hi, lo = np.divmod(ids, lo_size)
    stepper = hi // hi_size
    lo += stepper * lo_size
    cols = (hi_sums[:, hi] + lo_sums[:, lo]) % n  # prefix columns 0..R of each row
    tot = cols[big_r]
    # orbit[t] = o_t = f^t(1) on every row, o_t = cols[c_t] + (o_(t-1) // R) * T (mod n)
    orbit = np.empty((m + 1, len(tot)), dtype=dtype)
    orbit[0] = 1
    for t, column in enumerate(columns, 1):
        step = orbit[t]
        np.floor_divide(orbit[t - 1], big_r, out=step)
        step *= tot
        step += cols[column]
        step %= n
    live = (orbit[m] == 1) & (orbit[1:m] != 1).all(axis=0)
    live &= (orbit[p:m] == steppers[stepper, orbit[: m - p]]).all(axis=0)
    for k, col in zip(stepper[live].tolist(), cols[:, live].T.tolist()):
        yield k, col[:big_r], col[big_r]


def _seed_join(big_r, free, pools, hi_sums, lo_sums):
    """The ids of the rows of `_batched_seed_survivors` whose period total
    passes the gcd(T, n) = R filter and whose orbit passes the seed of
    every free thread, ascending (see there for the layout and the proof).

    For each unit tau of Z_kord it builds one key per hi index x and one
    per lo index y, whose parts all agree exactly when the row (x, y) has
    T = R*tau and passes every seed check: tau and the stepper, a_R[x]
    against tau - carry_R - b_R[y], and per check QA_t[x] against
    pools[k][d_k] // R - QB_t[y], the digit d_k moved to the side it is
    read from; tau = a_R[x] + carry_R + b_R[y], so a row has one such
    pair.  The lo keys are sorted by `_join_hash`, each hi key is matched
    against them, and a matched pair is kept when all its parts agree.
    The residue of o_t at free thread t is pi_rho(t), that of its pool:
    it is Q(rho)^t(1) mod R (o_t = Q(rho)(o_(t-1) mod R) (mod R), see
    `_realize_lift`), which law (a) of the skew rho makes pi_rho(t)."""
    import numpy as np
    kord, half = len(pools[0]), len(free) // 2
    hi_size, lo_size = kord**half, kord ** (len(free) - half)
    # seed digit k is x // place[k] % kord for k < half, else y // place[k] % kord
    place = [kord ** ((half if k < half else len(free)) - 1 - k) for k in range(len(free))]
    xs, ys = np.arange(hi_sums.shape[1]), np.arange(lo_sums.shape[1])
    a, b = hi_sums // big_r, lo_sums // big_r
    carry, residue = np.divmod(hi_sums[:, 0] % big_r + lo_sums[:, 0] % big_r, big_r)
    carry, residue = carry.tolist(), residue.tolist()
    _require(residue[big_r] == 0, "R divides the period total (proved in `_can_lift`)")
    taus = np.flatnonzero(np.gcd(np.arange(kord), kord) == 1)[:, None]
    group = taus * (len(xs) // hi_size)  # tau and the stepper, one label
    keys_x = [group + xs // hi_size, a[big_r]]
    keys_y = [group + ys // lo_size, (taus - carry[big_r] - b[big_r]) % kord]
    thread_of = {j: k for k, j in enumerate(free)}
    qa, qb = np.zeros((len(taus), len(xs)), np.int64), np.zeros((len(taus), len(ys)), np.int64)
    column = 1  # o_0 = 1
    for t in range(1, max(free) + 1):
        qa = (a[column] + taus * qa) % kord
        qb = (b[column] + carry[column] + taus * qb) % kord
        column = residue[column]  # the residue of o_t
        if t not in thread_of:
            continue
        k = thread_of[t]
        _require(column == pools[k][0] % big_r, "o_t has the residue of its pool (law (a) of rho)")
        seed = np.asarray(pools[k]) // big_r
        if k < half:
            keys_x.append((qa - seed[xs // place[k] % kord]) % kord)
            keys_y.append(-qb % kord)
        else:
            keys_x.append(qa)
            keys_y.append((seed[ys // place[k] % kord] - qb) % kord)
    hx, hy = _join_hash(keys_x, kord).ravel(), _join_hash(keys_y, kord).ravel()
    order = np.argsort(hy, kind="stable")
    hy = hy[order]
    first = np.searchsorted(hy, hx, "left")
    count = np.searchsorted(hy, hx, "right") - first
    # match j of hi key i = x_of[j] is lo key order[first[i] + j - (the matches before i)]
    x_of = np.repeat(np.arange(len(hx)), count)
    y_of = order[np.arange(len(x_of)) + np.repeat(first + count - np.cumsum(count), count)]
    (tau_x, x), (tau_y, y) = np.divmod(x_of, len(xs)), np.divmod(y_of, len(ys))
    same = np.ones(len(x_of), bool)
    for part_x, part_y in zip(keys_x, keys_y):  # parts over (tau, x) and (tau, y)
        part_x, part_y = np.broadcast_to(part_x, qa.shape), np.broadcast_to(part_y, qb.shape)
        same &= part_x[tau_x, x] == part_y[tau_y, y]
    return np.sort(x[same] * lo_size + y[same] % lo_size)


def _join_hash(parts, kord):
    """The int64 bucket of a key of `_seed_join`: its first part (a label
    below kord * stack) and its other parts (each in [0, kord)) as digits
    base kord.  One key per bucket while stack * kord^(nfree + 2) < 2^63
    (below 2^25 on every task of census 2..161); larger keys wrap."""
    key = parts[0]
    for part in parts[1:]:
        key = key * kord + part
    return key


def _realize_lift(
    n: int, m: int, big_r: int, prefix: list[int], total: int
) -> SkewMorphism | None:
    """The candidate with period sums `prefix` and `total` (see
    `_verified_of_order`) when it is a lift: fully verified and of order
    m; None otherwise.  Its stepper is not checked: a lift can pass the
    walk under a stepper other than its own f^p, and `_lift_with_psis`
    skips every survivor of a class it has built, so none is kept twice.
    It keeps a name of its own, which the benchmark's trace counts as a
    lift candidate.

    Every candidate accepted here has the quotient rho of its task, so
    none is built.  rho is skew: every source is a line of a census, built
    by `census` or verified by `Store.load`.  With R = ord(rho),
    e_j = rho^j(1) = orbit_l[j] and x_e the pre-filter's orbit value at
    position e (`_batched_seed_survivors`), the period sums are
    prefix[j] = sum_{i<j} x_(e_i), which reach T (mod n) at j = R.
    - x_e = f^e(1) for every e in orbit_l: the walk is the orbit of 1
      under f, o_t = seed_t at each free thread t < p (`_seed_join`, or
      o_1 = prefix[1] with one free thread), and the walk checks
      o_t = psi(o_(t-p)) for t >= p, psi the row's stepper; every needed
      position lies in thread 0 or in a free thread (`_free_threads`).
    - f(k + 1) - f(k) = x_(e_(k mod R)) for every k: inside a period it
      is prefix[j+1] - prefix[j], and across a period boundary it is
      T - prefix[R-1].  The skew identity at a = k, x = 1 makes the same
      step f^(pi_f(k))(1), and the orbit of 1 has m = ord(f) points, so
      pi_f(k) = rho^k(1) (mod m).
    - Each psi fixes residues mod R, and the seed of thread j lies in
      pi_rho(j) + R*Z_n (thread 0's is 1 = pi_rho(0)), so
      x_e = pi_rho(e mod p) = pi_rho(e) (mod R), pi_rho having period p.
      With R | T, f(x) = sigma(x mod R) (mod R) for sigma(j) =
      sum_{i<j} pi_rho(e_i), which is Q(rho) (the pre-filter requires
      this residue structure).  Law (a) for rho, pi_rho(i) = sigma^i(1)
      (mod R), then gives f^i(1) = pi_rho(i) (mod R).
    - So, rho^R being the identity, Q(f)(k) = sum_{i<k} pi_f(f^i(1)) =
      sum_{i<k} rho^(pi_rho(i))(1) = sum_{i<k} (rho(i + 1) - rho(i)) =
      rho(k) (mod m), by rho's skew identity at a = i, x = 1: Q(f) = rho.
    """
    return _verified_of_order(n, m, big_r, prefix, total)


def lift_sources(n: int, store) -> list[SkewMorphism]:
    """The proper quotients rho of the smaller orders that pass the lift
    gate (`_can_lift`): the only ones whose lifts can join the census of Z_n."""
    records = (census(m, store) for m in _candidate_orders(n))
    return [rho for record in records for rho in record.proper() if _can_lift(rho, n)]


def _lift_orbits(sources: list[SkewMorphism]) -> list[SkewMorphism]:
    """The sources grouped by the generators of their cyclic group: the
    first source of each group, in the source order; the group of rho
    holds rho^v for every unit v of Z_R, R = ord(rho).

    For a unit t of Z_n, the quotient of t*f*t^{-1} is Q(f)^(t^{-1})
    (proved in `quotient`), so the lifts of rho, conjugated, have exactly
    the generators of <rho> as their quotients: R | n (`_can_lift`), so
    t^{-1} mod R runs over every unit of Z_R.  And if rho' = rho^v has a
    lift f', then t*f'*t^{-1} with t^{-1} = v^{-1} (mod R) is a lift of
    rho, so an empty L(rho) leaves every generator of <rho> without one.
    The generators of two cyclic groups are equal or disjoint, so each
    source is in one group.
    """
    placed: set[tuple[int, ...]] = set()
    leaders = []
    for rho in sources:
        if rho.images not in placed:
            placed.update(power(rho, v) for v in units(rho.order))
            leaders.append(rho)
    return leaders


def census(n: int, store, *, executor=None) -> CensusRecord:
    """All skew morphisms of Z_n, computing and persisting smaller orders on demand.

    The sources (`lift_sources`) pass the lift gate (`_can_lift`) before
    they are grouped by the generators of their cyclic group <rho>
    (`_lift_orbits`).  A source that fails the gate has no lift.
    Conjugation maps the lifts of one generator one-to-one onto those of
    another, so a group that has lifts passes the gate whole.  Only one
    quotient per group is lifted, and the lift returns the conjugation
    classes of its lifts (`_lift_with_psis`), taken as they are; their
    quotients are the generators of <rho> by the theorem
    Q(t*f*t^{-1}) = Q(f)^(t^{-1}) of `quotient` (`check` holds every
    stored leader's quotient to the census of its order).  Those classes
    and the coset-preserving ones (`_coset_preserving`) are all the
    classes of proper morphisms, and number the class ids.  With an executor (no path in `src/` passes
    one, the benchmark's pooled phases do), the independent base-search
    and lift tasks run on worker processes; merging happens in task order
    and the final record is sorted, so output is identical to the serial
    path.
    """
    if n < 2:
        raise ValueError(f"expected n >= 2, got {n}")
    if store.has(n):
        return store.load(n)

    cp, classes = _coset_preserving(n, executor)
    collected = {sk.images: sk for sk in cp}
    sources = _lift_orbits(lift_sources(n, store))
    tasks = [(rho, n, psi_candidates(rho, n, cp)) for rho in sources]
    batches = (map if executor is None else executor.map)(_lift_task, tasks)
    lifted = [cls for batch in batches for cls in batch]
    _merge(collected, lifted, f"census of Z_{n}")

    record = _finalize_census(n, list(collected.values()), classes + lifted)
    store.save(record)
    return record


def census_range(store, max_n: int, *, progress=None) -> None:
    """Compute and persist censuses for 2..max_n in order, in this process."""
    if max_n < 2:
        raise ValueError(f"expected max_n >= 2, got {max_n}")
    for n in range(2, max_n + 1):
        start = time.perf_counter()
        fresh = not store.has(n)
        record = census(n, store)
        if progress is not None:
            progress(record, fresh, time.perf_counter() - start)


def _finalize_census(n: int, morphisms: list[SkewMorphism], classes) -> CensusRecord:
    """The record of `morphisms`, sorted by images, with class ids that
    number `classes`, the conjugation classes of the proper morphisms
    (each a collection of image tuples), in the order of their least
    member, and with their leaders.  `census` passes the orbits that
    `conjugates` built, every member of which it merged into `morphisms`,
    so the record is closed and its ids number its orbits."""
    morphisms = sorted(morphisms, key=lambda p: p.images)
    id_of: dict[tuple[int, ...], int] = {}
    for cid, cls in enumerate(sorted(classes, key=min)):
        for images in cls:
            id_of[images] = cid
    class_ids = tuple(id_of.get(phi.images, -1) for phi in morphisms)
    leaders = []
    for phi, cid in zip(morphisms, class_ids):
        if cid == len(leaders):  # sorted: the first line of an id is its least member
            leaders.append(phi)
    return _with_leaders(CensusRecord(n, tuple(morphisms), class_ids), leaders)


def _with_leaders(record: CensusRecord, leaders: list[SkewMorphism]) -> CensusRecord:
    """`record`, carrying the `leaders` its builder's walk proved."""
    object.__setattr__(record, "leaders", tuple(leaders))
    return record


def brute_force(n: int) -> list[SkewMorphism]:
    """Filter all permutations of Z_n fixing 0 through verify (oracle; n <= 10)."""
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force is capped at n = {BRUTE_FORCE_MAX_N}")
    if n == 1:
        return [verify(1, (0,))]
    out = []
    for perm in permutations(range(1, n)):
        try:
            out.append(verify(n, (0,) + perm))
        except SkewMorphismError:
            continue
    return sorted(out, key=lambda p: p.images)
