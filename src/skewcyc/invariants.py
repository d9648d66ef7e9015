"""Census-wide invariant suite.

Re-derives, from stored census data alone, every structural law the
enumeration relies on plus the census-level classification laws:
order bounds and divisibility, kernel shape and coset structure of
the power function, generating-orbit size, periodicity powers,
quotient compatibility laws, the kernel-order divisibility theorems,
the prime-comparison theorem for induced quotients, the skew-product
cross-checks, the order/kernel constraints on Z_{4p}, and the census
total at odd prime powers.

Every law runs on every morphism of every order.  The pair-model laws,
the periodicity-power law and the quotient laws run per record, on stacks
that mix the orders of Z_n, padded to the largest order of each stack
(`_check_pair_model`).

The quotient laws are checked for the generator 1 and read off the same
pair tables: column 1 of `prefix` is the quotient Q of f and column 1 of
`powers` the orbit f^i(1), i < m.  Proof: prefix[i, 1] = s_i(1) =
sum_{t<i} pi(f^t(1)) mod m, the partial sum that `quotient_of` takes
along the orbit of 1.  So one pass per stack decides every morphism, and
only a morphism that fails goes through the scalar `check_quotient_laws`,
which words the violation.  Each law reads a morphism's tables below its
own order m, so a stack's verdicts on a morphism are those of a stack of
one.

The record law "census closed under conjugation" covers every other
generator: from the least well-formed proper morphism not yet placed,
every member of its `conjugates` orbit must be listed, equal in every
field.  Proof that every listed f of a record that passes every law then
passes the quotient laws for every unit g.  (1) For t = g^{-1},
h = t*f*t^{-1} has h^i(x) = t*f^i(t^{-1} x), pi_h(a) = pi(g*a) and the
other fields of f (`conjugates`).  (2) So f fails for g exactly as h
fails for 1, law by law: the orbit h^i(1) = g^{-1} f^i(g) is as large as
the orbit of g; Q_h(k) = sum_{i<k} pi(f^i(g)) is the quotient of f for g,
so its verification and `quotient_of`'s postconditions agree; law (a)
reads pi_h(k) = pi(k*g) against the same Q^k(1), law (b) the same fields,
and law (c) h^k(1) = g^{-1} f^k(g) mod r = n/|kernel|, the coset index of
f^k(g).  Only the repr of f in "quotient of <f> failed verification"
differs.  (3) A unit that `conjugates` drops gives the same images and,
for a morphism that passes the pair model, the same pi, which the images
decide within [1, ord f]; so h is listed, with the fields whose
generator-1 laws were checked.  (4) An automorphism a -> s*a is its own
conjugate: its quotient has order n/|kernel| = 1, so the kernel law makes
pi = 1, and the closure law skips it.  The class-id law numbers the same
orbits.

Any failure is reported as a `Violation` carrying a concrete witness;
the suite never stops early, so one run lists everything that is
wrong.  A law whose check cannot even be computed on a record (a quotient
that is not skew, a kernel subgroup outside the kernel) is reported as a
violation of that law, with the error as its witness.  A stored kernel
order that no subgroup of Z_n has is reported as "kernel order divides
n", and the laws that need the kernel subgroup are skipped for that
morphism.  In the same way, images outside Z_n and an order below 1 are
laws of their own, and the laws that index by the images or the order
are skipped (see `_check_morphism`).  An automorphism is checked against its
closed form a -> f(1)*a, so that no law leans on `Store.load`'s
`verify`.  A clean run over a census is the package's acceptance gate.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, repeat
from math import gcd
from operator import eq

import numpy as np

from .cyclic_arith import euler_phi, factorize, largest_prime_divisor
from .enumeration import CensusRecord, _finalize_census
from .quotient import check_quotient_laws
from .skew_core import (
    InternalCheckError,
    NoPowerExponentError,
    SkewMorphism,
    SkewMorphismError,
    _unit_gathers,
    _verified_once,
    automorphism_of,
    conjugates,
    induced_on_quotient,
    power,
    verify,
)
from .skew_product import _PairTables

_STACK_ELEMENTS = 1 << 16  # table entries per pair-model stack; bounds its working set
PROP62_ORDERS = (12, 20, 28)


@dataclass(frozen=True)
class Violation:
    n: int
    law: str
    witness: str

    def __str__(self) -> str:
        return f"n={self.n}: {self.law}: {self.witness}"


def _kernel_divides(n: int, phi: SkewMorphism) -> bool:
    """Whether Z_n has a subgroup of phi's stored kernel order.  The laws
    that need that subgroup are skipped for a morphism without one, which
    `_check_morphism` reports as "kernel order divides n"."""
    return phi.kernel_order >= 1 and n % phi.kernel_order == 0


def _image_fault(n: int, phi: SkewMorphism) -> str | None:
    """Why phi's images are not n values in Z_n, or None when they are."""
    images = phi.images
    if len(images) != n:
        return f"{len(images)} images"
    if min(images) >= 0 and max(images) < n:
        return None
    a = next(a for a, x in enumerate(images) if not 0 <= x < n)
    return f"f({a})={images[a]}"


@lru_cache(maxsize=1)
def _scalings(n: int) -> dict[int, tuple[int, ...]]:
    """The images of a -> t*a for each unit t of Z_n, n >= 2, keyed by t
    (shared with the conjugations of the closure law)."""
    return {times[1]: times for times, _ in _unit_gathers(n)}


def _check_morphism(n: int, phi: SkewMorphism, out: list[Violation]) -> bool:
    """The laws of one morphism on its own.  Returns whether phi is well
    formed: of order at least 1, with n images in Z_n.  The laws that index
    by the images or the order (the orbit walk, the automorphism's closed
    form here; the pair model, the closure and the class ids in
    `check_record`) run on well-formed morphisms only, and the others are
    reported as "order at least 1" or "images lie in Z_n"."""

    def bad(law: str, detail: str = "") -> None:
        out.append(Violation(n, law, f"[{phi.canonical_str()}] {detail}".strip()))

    k = phi.kernel_order
    kernel_ok = _kernel_divides(n, phi)
    if not kernel_ok:
        bad("kernel order divides n", f"kernel={k}")
    fault = _image_fault(n, phi)
    if fault:
        bad("images lie in Z_n", fault)

    if n >= 2 and not phi.order < n:
        bad("order below group order", f"order={phi.order}")
    if phi.order < 1:
        bad("order at least 1", f"order={phi.order}")
    elif n * euler_phi(n) % phi.order != 0:
        bad("order divides n*phi(n)", f"order={phi.order}")
    if phi.order >= 1 and not 1 <= min(phi.pi) <= max(phi.pi) <= phi.order:
        bad("power function values lie in [1, ord]", f"min={min(phi.pi)}, max={max(phi.pi)}")
    if phi.proper and gcd(phi.order, n) == 1:
        bad("proper order shares a factor with n", f"order={phi.order}")
    if phi.proper and gcd(phi.order, k) == 1:
        bad("proper order shares a factor with kernel order", f"order={phi.order}, kernel={k}")

    # kernel: non-trivial, subgroup-shaped, power function constant exactly on cosets
    if n >= 2 and k < 2:
        bad("kernel non-trivial")
    if kernel_ok:
        step = n // k
        members = list(compress(range(n), map(eq, phi.pi, repeat(1))))
        if members != list(range(0, n, step)):
            bad("kernel is the subgroup of its order", f"members={members}")
        coset_values = phi.pi[:step]
        if phi.pi != coset_values * k:
            bad("power function constant on kernel cosets")
        if len(set(coset_values)) != step:
            bad("power function distinct across kernel cosets")

    for a in compress(range(n), map(eq, phi.images, range(n))):
        if phi.pi[a] != 1:
            bad("fixed points lie in the kernel", f"a={a}")
            break

    if fault is None:
        # at most n steps: when the images are not a permutation, 1 need not recur
        orbit = {1}
        x = phi.images[1]
        for _ in range(n):
            if x == 1:
                break
            orbit.add(x)
            x = phi.images[x]
        if x != 1 or len(orbit) != phi.order:
            bad("generating orbit has size ord", f"|orbit|={len(orbit)}")

        # an automorphism is a -> s*a with s = f(1) a unit, as `Store.load` builds it
        s = phi.images[1]
        if phi.automorphism and phi.images != _scalings(n).get(s):
            a = next((a for a in range(n) if phi.images[a] != s * a % n), None)
            detail = f"f(1)={s} is no unit" if a is None else f"f({a})={phi.images[a]}"
            bad("automorphism is a -> f(1)*a", detail)

    # largest-prime divisibility of the kernel order
    if n >= 4:
        p = largest_prime_divisor(n)
        if p == 2:
            if k % 4 != 0:
                bad("kernel order divisible by 4 (2-power case)", f"kernel={k}")
        elif k % p != 0:
            bad("kernel order divisible by largest prime", f"p={p}, kernel={k}")
    return fault is None and phi.order >= 1


def _quotient_flags(stack: Sequence[SkewMorphism], tables: _PairTables) -> np.ndarray:
    """Per morphism of the stack, whether `check_quotient_laws` fails on
    it or cannot build its quotient, decided on the pair tables.

    The orbit f^i(1), i < m, is column 1 of `tables.powers` and the
    quotient Q column 1 of `tables.prefix` (see the module docstring),
    both read on the rows below the morphism's own order m.  Each distinct
    quotient is verified once; `quotient_of`'s orbit and postcondition
    checks and laws (a)-(c) are whole-array comparisons, with the padding
    rows of the stack masked.
    """
    n = tables.n
    padding = ~tables.valid  # [k, i]: i lies past ord f_k
    orbits = tables.powers[:, :, 1 % n]  # [k, i] = f_k^i(1); Z_1 has 0 alone
    distinct = np.where(padding, -1 - np.arange(tables.m), orbits)  # padding never repeats
    ok = (np.diff(np.sort(distinct, axis=1), axis=1) != 0).all(axis=1)  # the orbit has m elements

    # the distinct quotients, numbered, keyed by the bytes of their images;
    # padded with -1, a key also tells the order m of the group Z_m they act on
    sums = np.where(padding, -1, tables.prefix[:, :, 1 % n])
    ids: dict[bytes, int] = {}
    rows = sums.view(np.dtype((np.void, sums.itemsize * tables.m))).ravel().tolist()
    qid = np.array([ids.setdefault(row, len(ids)) for row in rows])
    needed = set(qid[ok].tolist())  # quotient_of verifies only after the orbit check
    quotients, skew = [], []
    for i, row in enumerate(ids):
        images = np.frombuffer(row, dtype=sums.dtype)
        images = tuple(images[images >= 0].tolist())
        try:
            q = _verified_once(len(images), images) if i in needed else None
        except SkewMorphismError:
            q = None
        skew.append(q is not None)
        quotients.append(q or automorphism_of(len(images), 1))  # stand-ins fail by `skew`
    skew = np.array(skew)[qid]

    def per_quotient(values, dtype=None) -> np.ndarray:
        return np.array(list(values), dtype=dtype)[qid]

    def per_morphism(field: str) -> np.ndarray:
        return np.array([getattr(phi, field) for phi in stack])

    order = per_quotient((q.order for q in quotients), np.int32)
    auto = per_morphism("automorphism")
    q_auto = per_quotient(q.automorphism for q in quotients)
    kernel = per_morphism("kernel_order")
    index = np.where(kernel > 0, n // np.maximum(kernel, 1), 0)  # no quotient has order 0
    ok &= skew & (order == index)
    ok &= per_quotient(q.is_identity for q in quotients) == auto
    ok &= auto | (q_auto == per_morphism("coset_preserving"))
    q_period = per_quotient(q.n // q.kernel_order for q in quotients)
    ok &= q_period == per_morphism("periodicity")  # law (b)

    # law (a); Q on Z_1 has no orbit of 1, and its law reads pi == 1
    pi = np.array([phi.pi for phi in stack], dtype=np.int32)
    walks = per_quotient((_orbit_of_one(q, n) for q in quotients), np.int32)
    law_a = (pi % tables.orders[:, None] == walks).all(axis=1)
    ok &= np.where(tables.orders == 1, (pi == 1).all(axis=1), law_a)
    r = order[:, None]  # law (c)
    q_pi = per_quotient((q.pi + (0,) * (tables.m - q.n) for q in quotients), np.int32)
    ok &= (orbits % r == q_pi % r).all(axis=1, where=~padding)
    return ~ok


def _orbit_of_one(q: SkewMorphism, count: int) -> list[int]:
    """q^k(1) for k < count, as law (a) walks it, for a permutation q: the
    orbit of 1, repeated (zeros on Z_1, which law (a) does not walk)."""
    if q.n == 1:
        return [0] * count
    orbit, z = [1], q.images[1]
    while z != 1:
        orbit.append(z)
        z = q.images[z]
    return (orbit * (count // len(orbit) + 1))[:count]


def _check_generator_sweep(
    n: int, stack: Sequence[SkewMorphism], tables: _PairTables
) -> list[list[tuple[str, str]]]:
    """The "quotient law" violations of each morphism of a pair-model stack,
    as (law, detail), for the generator 1 (the closure law covers the
    others).  Only the morphisms that `_quotient_flags` flags go through
    `check_quotient_laws`, which words the details or raises the error
    that keeps the quotient from being built; a morphism whose kernel
    order does not divide n has none (see `_kernel_divides`)."""
    found: list[list[tuple[str, str]]] = [[] for _ in stack]
    for k in np.flatnonzero(_quotient_flags(stack, tables)).tolist():
        if _kernel_divides(n, stack[k]):
            try:
                failures = check_quotient_laws(stack[k]).failures
            except InternalCheckError as exc:
                failures = [str(exc)]
            found[k] = [("quotient law", failure) for failure in failures]
    return found


def _check_prime_comparison(n: int, phi: SkewMorphism, out: list[Violation]) -> None:
    """Prime comparison through the induced quotient by each order-q subgroup
    (none when the kernel order does not divide n; see `_kernel_divides`)."""
    if not _kernel_divides(n, phi):
        return
    k = phi.kernel_order
    for q in factorize(k):
        try:
            ind = induced_on_quotient(phi, q)
        except (SkewMorphismError, InternalCheckError) as exc:
            found = [f"q={q}: {exc}"]
        else:
            l_order = q * ind.kernel_order
            primes = [f for f in factorize(l_order) if k % f and f >= q]
            found = [f"q={q}, |L|={l_order}, p={f}" for f in primes]
        law = "prime comparison via induced quotient"
        out.extend(Violation(n, law, f"[{phi.canonical_str()}] {detail}") for detail in found)


def _periodicity_power_law(
    phi: SkewMorphism, verdict: tuple[int, bool] | None
) -> tuple[str, str] | None:
    """The law f^p breaks, p the periodicity, with its detail, or None.

    `verdict` is `_PairTables.power_verdicts`' (witness, coset-preserving)
    for phi, or None to verify f^p from scratch.
    """
    if verdict is None:
        try:
            coset_preserving = verify(phi.n, power(phi, phi.periodicity)).coset_preserving
        except (SkewMorphismError, ValueError) as exc:  # ValueError: a periodicity below 0
            return "periodicity power is skew", str(exc)
    else:
        witness, coset_preserving = verdict
        if witness >= 0:
            return "periodicity power is skew", str(NoPowerExponentError(witness))
    if not coset_preserving:
        return "periodicity power is coset-preserving", ""
    return None


def _check_pair_model(n: int, morphisms: Sequence[SkewMorphism], out: list[Violation]) -> None:
    """The pair-model laws, the periodicity-power law and the quotient laws
    (`_check_generator_sweep`), for every listed morphism of Z_n, on stacks
    of pair tables that mix orders.

    The morphisms are taken in ascending order of their orders and cut
    greedily into stacks whose padded tables hold at most `_STACK_ELEMENTS`
    entries (or one morphism).  Every listed morphism must be well formed
    (see `_check_morphism`), or its tables cannot be built.

    The periodicity-power law asks that f^p, p the periodicity, be a
    coset-preserving skew morphism.  For a morphism that passes the group
    check and has p | m, p < m, `_PairTables.power_verdicts` reads that
    off row p of its tables (the proof is there); any other morphism has
    f^p verified from scratch.  Violations are listed in the order of
    `morphisms`, each morphism's in the order core, group axioms,
    periodicity power, quotient laws.
    """
    found: list[list[Violation]] = [[] for _ in morphisms]
    indices = sorted(range(len(morphisms)), key=lambda i: morphisms[i].order)
    while indices:
        size = 1
        while size < len(indices) and (
            (size + 1) * morphisms[indices[size]].order * n <= _STACK_ELEMENTS
        ):
            size += 1
        chunk, indices = indices[:size], indices[size:]
        stack = [morphisms[i] for i in chunk]
        tables = _PairTables(stack)
        reports = tables.group_reports()
        rows = [
            k
            for k, (phi, report) in enumerate(zip(stack, reports))
            if report.passed and 0 < phi.periodicity < phi.order
            and phi.order % phi.periodicity == 0
        ]
        periods = np.array([stack[k].periodicity for k in rows], dtype=np.intp)
        witness, coset_preserving = tables.power_verdicts(np.array(rows, dtype=np.intp), periods)
        verdicts = dict(zip(rows, zip(witness.tolist(), coset_preserving.tolist())))
        swept = _check_generator_sweep(n, stack, tables)
        for k, (phi, report, core) in enumerate(zip(stack, reports, tables.cores().tolist())):
            laws = []
            if core != phi.kernel_order:
                detail = "pair-model core differs from kernel order"
                laws.append(("pair-model core equals kernel", detail))
            laws += [("pair-model group axioms", failure) for failure in report.failures]
            broken = _periodicity_power_law(phi, verdicts.get(k))
            if broken:
                laws.append(broken)
            laws += swept[k]
            if laws:
                name = phi.canonical_str()
                found[chunk[k]] = [
                    Violation(n, law, f"[{name}] {detail}".strip()) for law, detail in laws
                ]
    out.extend(v for violations in found for v in violations)


def _check_record_level(
    record: CensusRecord, out: list[Violation], well_formed: Sequence[SkewMorphism]
) -> None:
    """The laws of the whole record.  Conjugation indexes by the images, so
    the closure law (see the module docstring) runs on the `well_formed`
    morphisms, and the class ids are rebuilt only when that is all of them."""
    n = record.n

    def bad(law: str, witness: str) -> None:
        out.append(Violation(n, law, witness))

    # exactly one of: automorphism / proper coset-preserving / not coset-preserving,
    # matched by the quotient trichotomy checked per morphism above; the flags
    # miss all three only for an automorphism that is not coset-preserving
    for phi in record.morphisms:
        if phi.automorphism and not phi.coset_preserving:
            witness = f"[{phi.canonical_str()}] automorphism, not coset-preserving"
            bad("classification partition", witness)

    no_proper_expected = n == 4 or gcd(n, euler_phi(n)) == 1
    if (record.proper_count == 0) != no_proper_expected:
        law = "proper morphisms exist except for n=4 or gcd(n, phi(n))=1"
        bad(law, f"proper={record.proper_count}")

    # fits to the census, not cited theorems: at every odd prime power
    # p^e <= 161 the total is (p-1)(p^(2e-1) - p^(2e-2) + 2)/(p+1), which
    # is p - 1 at e = 1; at 2^e, 3 <= e <= 7, it is (14*4^(e-3) + 4)/3
    primes = factorize(n)
    if len(primes) == 1:
        ((p, e),) = primes.items()
        law = fit = None
        if p > 2:
            law = "census total at an odd prime power (census fit)"
            fit = (p - 1) * (p ** (2 * e - 1) - p ** (2 * e - 2) + 2) // (p + 1)
        elif e >= 3:
            law = "census total at a power of two (census fit)"
            fit = (14 * 4 ** (e - 3) + 4) // 3
        if law and record.total != fit:
            bad(law, f"total={record.total}, fit={fit}")

    listed = {phi.images: phi for phi in well_formed}
    unplaced = {images: phi for images, phi in listed.items() if phi.proper}
    classes = []  # the listed proper members of each orbit
    for least in list(unplaced.values()):
        if least.images not in unplaced:
            continue  # placed with an earlier orbit
        orbit, where = conjugates(least), f"orbit of [{least.canonical_str()}]"
        classes.append([key for key in orbit if unplaced.pop(key, None) is not None])
        for key, conjugate in orbit.items():
            other = listed.get(key)
            if other != conjugate:
                detail = "is not listed" if other is None else "differs in " + ", ".join(
                    name for name, value in vars(other).items() if value != vars(conjugate)[name]
                )
                witness = f"[{conjugate.canonical_str()}] {detail} ({where})"
                bad("census closed under conjugation", witness)

    if len(well_formed) == record.total:
        rebuilt = _finalize_census(n, list(record.morphisms), classes)
        if rebuilt.class_ids != record.class_ids:
            bad("equivalence class ids", "stored ids differ from recomputation")

    if n in PROP62_ORDERS:
        p = n // 4
        allowed = {(p, p), (2 * p, p), (2 * p, 2 * p)}
        for phi in record.morphisms:
            if phi.proper and (phi.kernel_order, phi.order) not in allowed:
                pair = f"({phi.kernel_order}, {phi.order})"
                bad("kernel/order pairs on Z_4p", f"[{phi.canonical_str()}] {pair}")


def check_record(record: CensusRecord) -> list[Violation]:
    """All invariant checks for one stored census."""
    out: list[Violation] = []
    n = record.n
    well_formed = []
    for phi in record.morphisms:
        if _check_morphism(n, phi, out):
            well_formed.append(phi)
        _check_prime_comparison(n, phi, out)
    _check_pair_model(n, well_formed, out)
    _check_record_level(record, out, well_formed)
    return out


def run_suite(store, max_n: int) -> list[Violation]:
    """Run every check over the stored censuses for 2..max_n."""
    if max_n < 2:
        raise ValueError(f"expected max_n >= 2, got {max_n}")
    violations: list[Violation] = []
    for n in range(2, max_n + 1):
        violations.extend(check_record(store.load(n)))
    return violations
