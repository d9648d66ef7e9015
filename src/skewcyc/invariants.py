"""Census-wide invariant suite.

Re-derives, from stored census data alone, every structural law the
enumeration relies on plus the census-level classification laws:
order bounds and divisibility, kernel shape and coset structure of
the power function, generating-orbit size, periodicity powers,
quotient compatibility laws, the kernel-order divisibility theorems,
the prime-comparison theorem for induced quotients, the skew-product
cross-checks, the order/kernel constraints on Z_{4p}, and the census
total at odd prime powers.

Every law runs on every morphism of every order, except the quotient laws
for all generators, which run for n <= ALL_GENERATORS_MAX_N (generator 1
is checked everywhere).  The pair-model laws, the periodicity-power law
and the quotient laws run per record, on stacks of morphisms of one order
(`_check_pair_model`).

The quotient laws are read off the same pair tables: column g of
`prefix` is the quotient Q^(g) of f for the generator g, and column g of
`powers` the orbit f^i(g), i < m.  Proof: prefix[i, g] = s_i(g) =
sum_{t<i} pi(f^t(g)) mod m, which is the partial sum that `quotient_of`
takes along the orbit of g.  So one pass per stack decides every
(morphism, generator) pair, and only a pair that fails goes through the
scalar `check_quotient_laws`, which words the violation.

Any failure is reported as a `Violation` carrying a concrete witness;
the suite never stops early, so one run lists everything that is
wrong.  A law whose check cannot even be computed on a record (a quotient
that is not skew, a kernel subgroup outside the kernel) is reported as a
violation of that law, with the error as its witness.  A stored kernel
order that no subgroup of Z_n has is reported as "kernel order divides
n", and the laws that need the kernel subgroup are skipped for that
morphism.  A clean run over a census is the package's acceptance gate.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import gcd

import numpy as np

from .cyclic_arith import euler_phi, factorize, largest_prime_divisor, units
from .enumeration import CensusRecord, _finalize_census
from .quotient import check_quotient_laws
from .skew_core import (
    InternalCheckError,
    NoPowerExponentError,
    SkewMorphism,
    SkewMorphismError,
    _verified_once,
    automorphism_of,
    equivalence_classes,
    induced_on_quotient,
    power,
    verify,
)
from .skew_product import _PairTables

ALL_GENERATORS_MAX_N = 30
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


def _check_morphism(n: int, phi: SkewMorphism, out: list[Violation]) -> None:
    def bad(law: str, detail: str = "") -> None:
        out.append(Violation(n, law, f"[{phi.canonical_str()}] {detail}".strip()))

    k = phi.kernel_order
    kernel_ok = _kernel_divides(n, phi)
    if not kernel_ok:
        bad("kernel order divides n", f"kernel={k}")

    if n >= 2 and not phi.order < n:
        bad("order below group order", f"order={phi.order}")
    if n * euler_phi(n) % phi.order != 0:
        bad("order divides n*phi(n)", f"order={phi.order}")
    if phi.proper and gcd(phi.order, n) == 1:
        bad("proper order shares a factor with n", f"order={phi.order}")
    if phi.proper and gcd(phi.order, k) == 1:
        bad("proper order shares a factor with kernel order", f"order={phi.order}, kernel={k}")

    # kernel: non-trivial, subgroup-shaped, power function constant exactly on cosets
    if n >= 2 and k < 2:
        bad("kernel non-trivial")
    if kernel_ok:
        step = n // k
        members = {a for a in range(n) if phi.pi[a] == 1}
        if members != set(range(0, n, step)):
            bad("kernel is the subgroup of its order", f"members={sorted(members)}")
        coset_values = [phi.pi[c] for c in range(step)]
        if any(phi.pi[a] != coset_values[a % step] for a in range(n)):
            bad("power function constant on kernel cosets")
        if len(set(coset_values)) != step:
            bad("power function distinct across kernel cosets")

    for a in range(n):
        if phi.images[a] == a and phi.pi[a] != 1:
            bad("fixed points lie in the kernel", f"a={a}")
            break

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

    # largest-prime divisibility of the kernel order
    if n >= 4:
        p = largest_prime_divisor(n)
        if p == 2:
            if k % 4 != 0:
                bad("kernel order divisible by 4 (2-power case)", f"kernel={k}")
        elif k % p != 0:
            bad("kernel order divisible by largest prime", f"p={p}, kernel={k}")


def _quotient_law_failures(phi: SkewMorphism, g: int) -> list[str]:
    """`check_quotient_laws(phi, g)`'s failures, or the error that keeps
    the quotient from being built (`quotient_of` checks that it is skew,
    of order n/|kernel|, and trivial or an automorphism as phi's flags say)."""
    try:
        return check_quotient_laws(phi, g).failures
    except InternalCheckError as exc:
        return [str(exc)]


def _sweep_generators(n: int) -> list[int]:
    """The generators whose quotient laws are checked on Z_n: every unit
    for n <= ALL_GENERATORS_MAX_N, else 1 alone."""
    return (units(n) if n <= ALL_GENERATORS_MAX_N else []) or [1]


def _quotient_flags(
    stack: Sequence[SkewMorphism], tables: _PairTables, gens: Sequence[int]
) -> np.ndarray:
    """Per morphism k of the stack and generator gens[j], whether
    `_quotient_law_failures(stack[k], gens[j])` is non-empty, decided on the
    pair tables.

    The orbit f^i(g), i < m, is column g of `tables.powers` and the
    quotient Q^(g) column g of `tables.prefix` (see the module docstring).
    Each distinct quotient is verified once; `quotient_of`'s orbit and
    postcondition checks and laws (a)-(c) are whole-array comparisons.  In
    law (c), r = ord Q is n/|kernel|; a pair whose r does not divide n (a
    stored kernel order that is no divisor) is flagged, so for the others
    g^{-1} mod r is (g^{-1} mod n) mod r.
    """
    n, m = tables.n, tables.m
    cols = np.array(gens) % n
    orbits = tables.powers[:, :, cols].transpose(0, 2, 1)  # [k, j, i] = f_k^i(g_j)
    ok = (np.diff(np.sort(orbits, axis=2), axis=2) != 0).all(axis=2)  # the orbit has m elements

    # the distinct quotients, numbered, keyed by the bytes of their images
    sums = np.ascontiguousarray(tables.prefix[:, :, cols].transpose(0, 2, 1))
    ids: dict[bytes, int] = {}
    rows = sums.view(np.dtype((np.void, sums.itemsize * m))).ravel().tolist()
    qid = np.array([ids.setdefault(row, len(ids)) for row in rows]).reshape(ok.shape)
    needed = set(qid[ok].tolist())  # quotient_of verifies only after the orbit check
    verified = []
    for i, row in enumerate(ids):
        images = tuple(np.frombuffer(row, dtype=sums.dtype).tolist())
        try:
            verified.append(_verified_once(m, images) if i in needed else None)
        except SkewMorphismError:
            verified.append(None)
    skew = np.array([q is not None for q in verified])[qid]
    quotients = [q or automorphism_of(m, 1) for q in verified]  # stand-ins fail by `skew`

    def per_quotient(values, dtype=None) -> np.ndarray:
        return np.array(list(values), dtype=dtype)[qid]

    def per_morphism(field: str) -> np.ndarray:
        return np.array([getattr(phi, field) for phi in stack])[:, None]

    order = per_quotient((q.order for q in quotients), np.int32)
    auto = per_morphism("automorphism")
    q_auto = per_quotient(q.automorphism for q in quotients)
    kernel = per_morphism("kernel_order")
    index = np.where(kernel > 0, n // np.maximum(kernel, 1), 0)  # no quotient has order 0
    ok &= skew & (order == index) & (n % order == 0)
    ok &= per_quotient(q.is_identity for q in quotients) == auto
    ok &= auto | (q_auto == per_morphism("coset_preserving"))
    q_period = m // per_quotient(q.kernel_order for q in quotients)
    ok &= q_period == per_morphism("periodicity")  # law (b)

    pi = np.array([phi.pi for phi in stack], dtype=np.int32)
    if m == 1:  # law (a)
        ok &= (pi == 1).all(axis=1)[:, None]
    else:
        walks = per_quotient((_orbit_of_one(q, n) for q in quotients), np.int32)
        ok &= (pi[:, np.arange(n) * cols[:, None] % n] % m == walks).all(axis=2)
    g_inv = np.array([pow(g, -1, n) for g in gens], dtype=np.int32)[:, None]  # law (c)
    r = order[:, :, None]
    q_pi = per_quotient((q.pi for q in quotients), np.int32)
    ok &= (orbits * g_inv % r == q_pi % r).all(axis=2)
    return ~ok


def _orbit_of_one(q: SkewMorphism, count: int) -> list[int]:
    """q^k(1) for k < count, as law (a) walks it."""
    walk, z = [], 1
    for _ in range(count):
        walk.append(z)
        z = q.images[z]
    return walk


def _check_generator_sweep(
    n: int, stack: Sequence[SkewMorphism], tables: _PairTables
) -> list[list[tuple[str, str]]]:
    """The quotient-law violations of each morphism of a pair-model stack,
    as (law, detail): "quotient law" for the generator 1 and, for
    n <= ALL_GENERATORS_MAX_N, "quotient law (all generators)" for every
    unit, in ascending order.  Only the pairs that `_quotient_flags`
    flags go through `check_quotient_laws`, which words the details; a
    morphism whose kernel order does not divide n has none (see
    `_kernel_divides`)."""
    gens = _sweep_generators(n)
    found: list[list[tuple[str, str]]] = [[] for _ in stack]
    for k, j in np.argwhere(_quotient_flags(stack, tables, gens)).tolist():
        if not _kernel_divides(n, stack[k]):
            continue
        g = gens[j]
        failures = _quotient_law_failures(stack[k], g)
        if g == 1:
            found[k] += [("quotient law", failure) for failure in failures]
        if n <= ALL_GENERATORS_MAX_N:
            found[k] += [("quotient law (all generators)", f"g={g}: {f}") for f in failures]
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
        except SkewMorphismError as exc:
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
    (`_check_generator_sweep`), for every listed morphism of Z_n, on one
    stack of pair tables per order at a time.

    A stack holds at most `_STACK_ELEMENTS` table entries.  The
    periodicity-power law asks that f^p, p the periodicity, be a
    coset-preserving skew morphism.  For a morphism that passes the group
    check and has p | m, p < m, `_PairTables.power_verdicts` reads that
    off row p of its tables (the proof is there); any other morphism has
    f^p verified from scratch.  Violations are listed in the order of
    `morphisms`, each morphism's in the order core, group axioms,
    periodicity power, quotient laws.
    """
    found: list[list[Violation]] = [[] for _ in morphisms]
    by_order: dict[int, list[int]] = {}
    for index, phi in enumerate(morphisms):
        by_order.setdefault(phi.order, []).append(index)
    for m, indices in by_order.items():
        size = max(1, _STACK_ELEMENTS // (m * n))
        for start in range(0, len(indices), size):
            chunk = indices[start : start + size]
            stack = [morphisms[i] for i in chunk]
            tables = _PairTables(stack)
            reports = tables.group_reports()
            periods = np.array([phi.periodicity for phi in stack])
            read = np.array([rep.passed for rep in reports]) & (m % periods == 0) & (periods < m)
            rows = np.flatnonzero(read)
            witness, coset_preserving = tables.power_verdicts(rows, periods[rows])
            verdicts = dict(zip(rows.tolist(), zip(witness.tolist(), coset_preserving.tolist())))
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


def _check_record_level(record: CensusRecord, out: list[Violation]) -> None:
    n = record.n

    # exactly one of: automorphism / proper coset-preserving / not coset-preserving,
    # matched by the quotient trichotomy checked per morphism above
    for phi in record.morphisms:
        cats = [
            phi.automorphism and phi.coset_preserving,
            phi.proper and phi.coset_preserving,
            phi.proper and not phi.coset_preserving,
        ]
        if sum(cats) != 1:
            out.append(
                Violation(n, "classification partition", f"[{phi.canonical_str()}] {cats}")
            )

    no_proper_expected = n == 4 or gcd(n, euler_phi(n)) == 1
    if (record.proper_count == 0) != no_proper_expected:
        out.append(
            Violation(
                n,
                "proper morphisms exist except for n=4 or gcd(n, phi(n))=1",
                f"proper={record.proper_count}",
            )
        )

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
            out.append(Violation(n, law, f"total={record.total}, fit={fit}"))

    classes = [[phi.images for phi in cls.members] for cls in equivalence_classes(record.proper())]
    rebuilt = _finalize_census(n, list(record.morphisms), classes)
    if rebuilt.class_ids != record.class_ids:
        out.append(Violation(n, "equivalence class ids", "stored ids differ from recomputation"))

    if n in PROP62_ORDERS:
        p = n // 4
        allowed = {(p, p), (2 * p, p), (2 * p, 2 * p)}
        for phi in record.morphisms:
            if phi.proper and (phi.kernel_order, phi.order) not in allowed:
                out.append(
                    Violation(
                        n,
                        "kernel/order pairs on Z_4p",
                        f"[{phi.canonical_str()}] ({phi.kernel_order}, {phi.order})",
                    )
                )


def check_record(record: CensusRecord) -> list[Violation]:
    """All invariant checks for one stored census."""
    out: list[Violation] = []
    n = record.n
    for phi in record.morphisms:
        _check_morphism(n, phi, out)
        _check_prime_comparison(n, phi, out)
    _check_pair_model(n, record.morphisms, out)
    _check_record_level(record, out)
    return out


def run_suite(store, max_n: int) -> list[Violation]:
    """Run every check over the stored censuses for 2..max_n."""
    if max_n < 2:
        raise ValueError(f"expected max_n >= 2, got {max_n}")
    violations: list[Violation] = []
    for n in range(2, max_n + 1):
        violations.extend(check_record(store.load(n)))
    return violations
