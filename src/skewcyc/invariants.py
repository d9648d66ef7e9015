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
is checked everywhere).  The pair-model laws and the periodicity-power
law run per record, on stacks of morphisms of one order
(`_check_pair_model`).

Any failure is reported as a `Violation` carrying a concrete witness;
the suite never stops early, so one run lists everything that is
wrong.  A law whose check cannot even be computed on a record (a quotient
that is not skew, a kernel subgroup outside the kernel) is reported as a
violation of that law, with the error as its witness.  A clean run over
a census is the package's acceptance gate.
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


def _check_morphism(n: int, phi: SkewMorphism, out: list[Violation]) -> None:
    def bad(law: str, detail: str = "") -> None:
        out.append(Violation(n, law, f"[{phi.canonical_str()}] {detail}".strip()))

    k = phi.kernel_order
    step = n // k

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

    orbit = {1}
    x = phi.images[1]
    while x != 1:
        orbit.add(x)
        x = phi.images[x]
    if len(orbit) != phi.order:
        bad("generating orbit has size ord", f"|orbit|={len(orbit)}")

    # quotient compatibility laws (generator 1)
    for failure in _quotient_law_failures(phi, 1):
        bad("quotient law", failure)

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


def _check_generator_sweep(n: int, phi: SkewMorphism, out: list[Violation]) -> None:
    for g in units(n) or [1]:
        for failure in _quotient_law_failures(phi, g):
            out.append(
                Violation(n, "quotient law (all generators)", f"[{phi.canonical_str()}] g={g}: {failure}")
            )


def _check_prime_comparison(n: int, phi: SkewMorphism, out: list[Violation]) -> None:
    """Prime comparison through the induced quotient by each order-q subgroup."""
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
    """The pair-model laws and the periodicity-power law, for every listed
    morphism of Z_n, on one stack of pair tables per order at a time.

    A stack holds at most `_STACK_ELEMENTS` table entries.  The
    periodicity-power law asks that f^p, p the periodicity, be a
    coset-preserving skew morphism.  For a morphism that passes the group
    check and has p | m, p < m, `_PairTables.power_verdicts` reads that
    off row p of its tables (the proof is there); any other morphism has
    f^p verified from scratch.  Violations are listed in the order of
    `morphisms`, each morphism's in the order core, group axioms,
    periodicity power.
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
            for k, (phi, report, core) in enumerate(zip(stack, reports, tables.cores().tolist())):
                laws = []
                if core != phi.kernel_order:
                    detail = "pair-model core differs from kernel order"
                    laws.append(("pair-model core equals kernel", detail))
                laws += [("pair-model group axioms", failure) for failure in report.failures]
                broken = _periodicity_power_law(phi, verdicts.get(k))
                if broken:
                    laws.append(broken)
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
        if n <= ALL_GENERATORS_MAX_N:
            _check_generator_sweep(n, phi, out)
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
