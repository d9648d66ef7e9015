"""Census-wide invariant suite.

Re-derives, from stored census data alone, every structural law the
enumeration relies on plus the census-level classification laws:
order bounds and divisibility, kernel shape and coset structure of
the power function, generating-orbit size, periodicity powers,
quotient compatibility laws, the kernel-order divisibility theorems,
the prime-comparison theorem for induced quotients, the skew-product
cross-checks, and the order/kernel constraints on Z_{4p}.

Any failure is reported as a `Violation` carrying a concrete witness;
the suite never stops early, so one run lists everything that is
wrong.  A clean run over a census is the package's acceptance gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .cyclic_arith import euler_phi, factorize, largest_prime_divisor, units
from .enumeration import CensusRecord, _finalize_census
from .quotient import check_quotient_laws
from .skew_core import (
    SkewMorphism,
    SkewMorphismError,
    induced_on_quotient,
    power,
    verify,
)
from .skew_product import check_group, core_of_B

PAIR_GROUP_CAP = 100_000  # skip the pair-model checks above this group order
PRIME_COMPARISON_MAX_N = 30
ALL_GENERATORS_MAX_N = 30
PROP62_ORDERS = (12, 20, 28)


@dataclass(frozen=True)
class Violation:
    n: int
    law: str
    witness: str

    def __str__(self) -> str:
        return f"n={self.n}: {self.law}: {self.witness}"


def _check_morphism(n: int, phi: SkewMorphism, out: list[Violation]) -> None:
    name = phi.canonical_str()

    def bad(law: str, detail: str = "") -> None:
        out.append(Violation(n, law, f"[{name}] {detail}".strip()))

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

    try:
        fp = verify(n, power(phi, phi.periodicity))
        if not fp.coset_preserving:
            bad("periodicity power is coset-preserving")
    except SkewMorphismError as exc:
        bad("periodicity power is skew", str(exc))

    # quotient compatibility laws (generator 1)
    report = check_quotient_laws(phi)
    for failure in report.failures:
        bad("quotient law", failure)
    q = report.quotient
    if q.is_identity != phi.automorphism:
        bad("identity quotient iff automorphism")
    if phi.proper and q.automorphism != phi.coset_preserving:
        bad("automorphism quotient iff coset-preserving")

    # largest-prime divisibility of the kernel order
    if n >= 4:
        p = largest_prime_divisor(n)
        if p == 2:
            if k % 4 != 0:
                bad("kernel order divisible by 4 (2-power case)", f"kernel={k}")
        elif k % p != 0:
            bad("kernel order divisible by largest prime", f"p={p}, kernel={k}")


def _check_generator_sweep(n: int, phi: SkewMorphism, out: list[Violation]) -> None:
    for g in units(n) or [1]:
        report = check_quotient_laws(phi, g)
        for failure in report.failures:
            out.append(
                Violation(n, "quotient law (all generators)", f"[{phi.canonical_str()}] g={g}: {failure}")
            )


def _check_prime_comparison(n: int, phi: SkewMorphism, out: list[Violation]) -> None:
    """Prime comparison through the induced quotient by each order-q subgroup."""
    k = phi.kernel_order
    for q in factorize(k):
        ind = induced_on_quotient(phi, q)
        l_order = q * ind.kernel_order
        for f in factorize(l_order):
            if k % f != 0 and f >= q:
                out.append(
                    Violation(
                        n,
                        "prime comparison via induced quotient",
                        f"[{phi.canonical_str()}] q={q}, |L|={l_order}, p={f}",
                    )
                )


def _check_pair_model(n: int, phi: SkewMorphism, out: list[Violation]) -> None:
    name = phi.canonical_str()
    try:
        core_of_B(phi)
    except AssertionError as exc:
        out.append(Violation(n, "pair-model core equals kernel", f"[{name}] {exc}"))
    report = check_group(phi)
    for failure in report.failures:
        out.append(Violation(n, "pair-model group axioms", f"[{name}] {failure}"))


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

    rebuilt = _finalize_census(n, list(record.morphisms))
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
        if n <= PRIME_COMPARISON_MAX_N:
            _check_prime_comparison(n, phi, out)
        if n * phi.order <= PAIR_GROUP_CAP:
            _check_pair_model(n, phi, out)
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
