"""Census-wide invariant suite.

Re-derives, from stored census data alone, every structural law the
enumeration relies on plus the census-level classification laws:
order bounds and divisibility, kernel shape and coset structure of
the power function, generating-orbit size, periodicity powers,
quotient compatibility laws, the kernel-order divisibility theorems,
the prime-comparison theorem for induced quotients, the skew-product
cross-checks, the order/kernel constraints on Z_{4p}, and the census
total at odd prime powers; and, across orders, quotient membership: each
quotient is a line of the census of its order.

Each conjugation class is checked once, and a line is walked only when no
walk has proved it.  `_check_record` branches once, on
`CensusRecord.leaders`:

- a record that carries its leaders, as every record that `census` or
  `Store.load` builds does, gets the record laws and its leaders' laws
  alone.  The walk that built it proved every law of a line (points (2),
  (5) and (6) below): every automorphism in it is the closed-form object
  of `automorphism_table(n)`, and every proper line is a conjugate that
  `conjugates` built from a verified leader, listed with its whole orbit
  under ids that number the orbits;
- a record without leaders (built by hand, or copied by
  `dataclasses.replace`, which drops them) is walked by `_check_lines`,
  which holds every law of a line and finds the leaders.  Every line must
  first be well formed: n images in Z_n, a power function of n values and
  an order of at least 1, each a law of its own (`_well_formed`); the
  other laws index by those fields, so a line that breaks one is reported
  for it alone.  An automorphism is compared, field by field, with its
  closed form `automorphism_of(n, f(1))`, and no other law runs on it
  ("automorphism is a -> f(1)*a").  The well-formed proper lines are
  partitioned into conjugation orbits by `equivalence_classes`, each built
  once from its first line in the record (its least, in a sorted record),
  its leader; every member of an orbit must be listed, equal in every
  field ("census closed under conjugation"), and the class ids must
  number the orbits ("equivalence class ids", asked only when every line
  is well formed).

Then, on either kind of record:

- the record laws (`_check_record_level`: proper existence, the two census
  fits, the Z_{4p} pairs) read every line;
- each leader gets the laws of one morphism (`_check_morphism`,
  `_check_prime_comparison`) and the pair model, with the
  periodicity-power law and the quotient laws for the generator 1
  (`_check_pair_model`); no other line does;
- `run_suite` loads the orders in ascending order and holds the quotient
  of each leader of Z_n, for the generator 1, to the census of its order
  m < n, loaded before ("quotient is a line of the census of its order",
  with the quotient laws in `_check_generator_sweep`).  `check_record`
  reads one record and runs every law but this one.

Proof that every line of a record that passes all of this passes every
law it skips, but quotient membership (point (7)).  Write
s_i(b) = sum_{j<i} pi(f^j(b)), as the pair model does.

(1) A leader f that passes is the true record of a skew morphism of order
m, its stored order.  Step 1 of `check_group`'s proof at i = 1 gives
f(b + x) = f(b) + f^{pi(b)}(x), and the row gives f^m = 1; the orbit of 1
has m elements, so f has order m, and pi, in [1, m], is its power
function.  The kernel law pins the kernel order; law (b) and the
postconditions of `quotient_of` pin the periodicity and both flags.
(2) So every conjugate h = t*f*t^{-1}, t a unit, is the true record that
`conjugates` builds (its theorem): the same order, kernel order,
periodicity and flags, h(a) = t*f(t^{-1} a) and pi_h(a) = pi(t^{-1} a).
Two units that give the same images give the same pi, which the images
decide within [1, m].  A listed line equal to it in every field is h.
A record that carries its leaders was built by a walk that made every
proper line such an h of its class's leader, a morphism that `verify`
built, and listed every h: `census` lists the orbits that `conjugates`
built, whole and disjoint (`_finalize_census`), and `Store.load` lists,
for each line, the member built for it in the orbit of its class's first
line, once its stored fields are found equal, and requires every member
listed.  Each such line is well formed, as `verify` and `conjugates` build
n images in Z_n, n values of pi and an order of at least 1.
(3) h passes each law of one morphism that reads no generator, because f
does.  The order, divisibility, kernel-order and flag laws read only the
fields that conjugation keeps.  pi_h takes the values of pi (the range
law).  Multiplication by t maps every subgroup of Z_n onto itself (each is
characteristic) and so permutes the cosets of the kernel K: h has the
kernel members t*K = K, a power function constant on the cosets and
distinct across them, and the fixed points t*Fix(f), inside t*K = K.  For
q | |K|, the subgroup N of order q is characteristic as well, and h induces
on Z_n/N the conjugate by t of f's induced map, of the same kernel order:
prime comparison reads the same |L|.  (a, i) -> (t*a, i) maps the pair
model of f onto that of h, since h^i(t*b) = t*f^i(b) and the s_i of h at
t*b is s_i(b); it maps Z_n = {(a, 0)} and (0, 1) onto themselves, so the
group axioms and the core carry over.  h^p = t*f^p*t^{-1} is skew and
coset-preserving exactly when f^p is.
(4) The orbit law and the quotient laws read the generator 1, and h reads
it as f reads g = t^{-1}.  h^i(1) = t*f^i(g), so the orbit of 1 under h is
as large as that of g under f.  The quotient of h for 1 is sum_{i<k}
pi(f^i(g)), the quotient of f for g, so its verification and
`quotient_of`'s postconditions agree; law (a) reads pi_h(k) = pi(k*g)
against the same Q^k(1), law (b) the same fields, and law (c)
h^k(1) = g^{-1} f^k(g) mod n/|K|, the coset index of f^k(g).  Both laws
hold for every generator g of a skew morphism.  The maps x -> a + f^i(x)
form a group, by (1), whose stabiliser of 0 is <f>, cyclic.  Its subgroup
S that fixes g lies in the stabiliser of g, which is cyclic too and holds
the conjugate of S by x -> x + g, of the same order; so the two are
equal, and S fixes 2g, then every multiple of g, and is trivial.  f^k, for
k the size of g's orbit, lies in S, so the orbit has m elements.  Law (a)
for g follows from pi(a + b) = s_{pi(a)}(b) (step 1 of `check_group`'s
proof, at i = 1): pi(k*g) = s_{pi((k-1)*g)}(g) = Q(pi((k-1)*g)) = Q^k(1)
(mod m), since s_m(g) = 0 (mod m) by the row.
Laws (b) and (c) for g are the source paper's theorem for every generator,
which the leaders witness for the generator 1.
(5) An automorphism equal to `automorphism_of(n, s)`, a -> s*a with s a
unit, of order ord_n(s), kernel order n, periodicity 1, both flags set and
pi = 1, passes every law it skips.  Its order divides phi(n) and is below
n; pi = 1 lies in [1, ord]; the proper laws do not apply; its kernel is
Z_n, non-trivial for n >= 2, one coset on which pi is constant, with
every fixed point in it; the largest prime p of n divides n, and 4 | n
when n >= 4 is a power of 2.  The orbit of 1 is {s^i}, of ord_n(s)
elements.  For a prime q | n its map on Z_{n/q} is a -> s*a, an
automorphism with kernel order n/q, so |L| = n and no prime of |L| is
missing from n.  It is a skew morphism, so its pair model is a group
(`check_group`), with the core of order n, the whole of Z_n (pi = 1).
f^1 = f is skew and coset-preserving.  Its quotient for 1 is
Q(k) = sum_{i<k} 1 = k, the identity of Z_m: of order 1 = n/|kernel|, as
`quotient_of` requires; law (a) reads pi = 1 = Q^k(1), law (b)
periodicity 1 = m/m, and law (c) has nothing to check.
A record that carries its leaders lists as each automorphism the object
of `automorphism_table(n)`, which is `automorphism_of(n, s)`: `census`
takes them from `automorphisms(n)`, and `Store.load` takes the one with
the line's images once its stored fields are found equal.
(6) The class-id law numbers the orbits of `equivalence_classes`, and the
orbits of a record that passes are the conjugation classes.  A record
that carries its leaders was numbered so by its builder.
`_finalize_census` numbers the orbits in the order of their least
member.  `Store.load` opens the ids 0, 1, 2, ... in that order on
ascending lines, and a class lists its whole orbit from its first line
on, which is therefore its least member.
(7) Quotient membership is asked of the leaders only, the one law not
carried to the other lines.  A member t*f*t^{-1} of the class of a
leader f has the quotient Q(f)^(t^{-1}) (proved in `quotient`), so the
quotients of a class are the generators of <Q(f)>, fixed by the
leader's.  Each is the quotient of a skew morphism, so a complete census
of Z_m lists it; but a census of Z_m that lists Q(f) need not list the
others, which may lie in other classes.  The law tests the completeness
of the smaller census, which no law on one record can test.  On the
censuses 2..161, with the last class of one order dropped at a time,
asking for every generator of <Q(f)> as well catches no drop that the
leaders' quotients miss.

Any failure is reported as a `Violation` carrying a concrete witness;
the suite never stops early, so one run lists everything that is
wrong.  A law whose check cannot even be computed on a record (a quotient
that is not skew, a kernel subgroup outside the kernel) is reported as a
violation of that law, with the error as its witness.  A stored kernel
order that no subgroup of Z_n has is reported as "kernel order divides
n", and the laws that need the kernel subgroup are skipped for that
morphism.  No law leans on `Store.load`'s `verify`: the laws of one
morphism re-derive every field of each leader.  A clean run over a census
is the package's acceptance gate.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress, repeat
from math import gcd
from operator import eq

import numpy as np

from .cyclic_arith import euler_phi, factorize, largest_prime_divisor
from .enumeration import CensusRecord
from .quotient import check_quotient_laws
from .skew_core import (
    InternalCheckError,
    NoPowerExponentError,
    SkewMorphism,
    SkewMorphismError,
    automorphism_table,
    equivalence_classes,
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


def _differing(listed: SkewMorphism, built: SkewMorphism) -> str:
    """The fields in which a listed line differs from the one built for it."""
    return ", ".join(name for name, value in vars(listed).items() if value != vars(built)[name])


def _well_formed(n: int, phi: SkewMorphism, out: list[Violation]) -> bool:
    """Whether phi has n images in Z_n, a power function of n values and an
    order of at least 1, each a law of its own ("images lie in Z_n", "power
    function has n values", "order at least 1").  Every other law indexes
    by these fields, so a line that breaks one gets no other."""

    def bad(law: str, detail: str) -> None:
        out.append(Violation(n, law, f"[{phi.canonical_str()}] {detail}"))

    images, ok = phi.images, True
    if len(images) != n:
        bad("images lie in Z_n", f"{len(images)} images")
        ok = False
    elif min(images) < 0 or max(images) >= n:
        a = next(a for a, x in enumerate(images) if not 0 <= x < n)
        bad("images lie in Z_n", f"f({a})={images[a]}")
        ok = False
    if len(phi.pi) != n:
        bad("power function has n values", f"{len(phi.pi)} values")
        ok = False
    if phi.order < 1:
        bad("order at least 1", f"order={phi.order}")
        ok = False
    return ok


def _check_automorphism(n: int, phi: SkewMorphism, out: list[Violation]) -> None:
    """The one law of a well-formed automorphism: it equals its closed form
    `automorphism_of(n, f(1))` in every field.  One violation names every
    field that differs, or says that f(1) is no unit; the module docstring
    proves that an automorphism that passes passes every other law."""
    s = phi.images[1]
    want = automorphism_table(n).get(s)
    if want is None:
        detail = f"f(1)={s} is no unit"
    elif phi != want:
        detail = "differs in " + _differing(phi, want)
    else:
        return
    out.append(Violation(n, "automorphism is a -> f(1)*a", f"[{phi.canonical_str()}] {detail}"))


def _check_morphism(n: int, phi: SkewMorphism, out: list[Violation]) -> None:
    """The laws of one well-formed proper morphism on its own, for the
    leader of a conjugation orbit (see the module docstring)."""

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
    if not 1 <= min(phi.pi) <= max(phi.pi) <= phi.order:
        bad("power function values lie in [1, ord]", f"min={min(phi.pi)}, max={max(phi.pi)}")
    if gcd(phi.order, n) == 1:
        bad("proper order shares a factor with n", f"order={phi.order}")
    if gcd(phi.order, k) == 1:
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


def _check_generator_sweep(n: int, phi: SkewMorphism, censuses: dict) -> list[tuple[str, str]]:
    """The "quotient law" violations of phi, as (law, detail), for the
    generator 1 (item (4) of the module docstring covers the others): the
    failures of `check_quotient_laws`, or the error that keeps the quotient
    from being built.  Then quotient membership (point (7)): the quotient
    must be a line of `censuses[m]`, the census of its order m.  A
    morphism whose kernel order does not divide n gets neither law (see
    `_kernel_divides`).  Membership is skipped when the quotient cannot be
    built, and when `censuses` holds no census of order m: `check_record`
    passes none, and in `run_suite` an order outside 2..n-1 breaks "order
    below group order" or "proper order shares a factor with n".  The name
    is kept from the sweep over every generator that this replaced,
    because the layer timings of the benchmark wrap this function by that
    name."""
    if not _kernel_divides(n, phi):
        return []
    try:
        report = check_quotient_laws(phi)
    except InternalCheckError as exc:
        return [("quotient law", str(exc))]
    laws = [("quotient law", failure) for failure in report.failures]
    lines = censuses.get(phi.order)
    if lines is not None and report.quotient.images not in lines:
        detail = f"quotient [{report.quotient.canonical_str()}] is not listed"
        laws.append(("quotient is a line of the census of its order", detail))
    return laws


def _check_prime_comparison(n: int, phi: SkewMorphism, out: list[Violation]) -> None:
    """Prime comparison through the induced quotient by each order-q subgroup,
    for a well-formed morphism (none when the kernel order does not divide
    n, see `_kernel_divides`)."""
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


def _check_pair_model(
    n: int, morphisms: Sequence[SkewMorphism], out: list[Violation], censuses: dict
) -> None:
    """The pair-model laws and the periodicity-power law, on stacks of pair
    tables that mix orders, and the quotient laws and quotient membership
    against `censuses` (`_check_generator_sweep`), for every listed morphism
    of Z_n.  `check_record` lists the leaders of the conjugation orbits,
    about 3 per n on 2..32 and 12 on 2..161.

    The morphisms are taken in ascending order of their orders and cut
    greedily into stacks whose padded tables hold at most `_STACK_ELEMENTS`
    entries (or one morphism).  Every listed morphism must be well formed
    (see `_well_formed`), or its tables cannot be built.

    The periodicity-power law asks that f^p, p the periodicity, be a
    coset-preserving skew morphism.  For a morphism that passes the group
    check and has p | m, p < m, `_PairTables.power_verdicts` reads that
    off row p of its tables (the proof is there); any other morphism has
    f^p verified from scratch.  Violations are listed in the order of
    `morphisms`, each morphism's in the order core, group axioms,
    periodicity power, quotient laws, quotient membership.
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
        for k, (phi, report, core) in enumerate(zip(stack, reports, tables.cores().tolist())):
            laws = []
            if core != phi.kernel_order:
                detail = "pair-model core differs from kernel order"
                laws.append(("pair-model core equals kernel", detail))
            laws += [("pair-model group axioms", failure) for failure in report.failures]
            broken = _periodicity_power_law(phi, verdicts.get(k))
            if broken:
                laws.append(broken)
            laws += _check_generator_sweep(n, phi, censuses)
            if laws:
                name = phi.canonical_str()
                found[chunk[k]] = [
                    Violation(n, law, f"[{name}] {detail}".strip()) for law, detail in laws
                ]
    out.extend(v for violations in found for v in violations)


def _check_lines(record: CensusRecord, out: list[Violation]) -> list[SkewMorphism]:
    """Every law of a line, for a record without leaders: each line well
    formed, each well-formed automorphism its closed form, the census closed
    under conjugation over the orbits of the well-formed proper lines, and
    class ids that number those orbits, checked only when every line is
    well formed.  Returns the leaders of the orbits, in the order of the
    orbits."""
    n = record.n
    well_formed = [phi for phi in record.morphisms if _well_formed(n, phi, out)]
    for phi in well_formed:
        if phi.automorphism:
            _check_automorphism(n, phi, out)
    listed = {phi.images: phi for phi in well_formed}
    proper = {images: phi for images, phi in listed.items() if phi.proper}
    stored_id = dict(zip((phi.images for phi in record.morphisms), record.class_ids))
    leaders, stale = [], False
    for k, orbit in enumerate(equivalence_classes(proper.values())):
        leader = listed[next(iter(orbit))]
        where = f"orbit of [{leader.canonical_str()}]"
        leaders.append(leader)
        stale = stale or any(stored_id[key] != k for key in orbit if key in proper)
        for key, conjugate in orbit.items():
            other = listed.get(key)
            if other != conjugate:
                detail = "is not listed" if other is None else "differs in " + _differing(
                    other, conjugate
                )
                witness = f"[{conjugate.canonical_str()}] {detail} ({where})"
                out.append(Violation(n, "census closed under conjugation", witness))
    if stale and len(well_formed) == record.total:
        out.append(Violation(n, "equivalence class ids", "stored ids differ from recomputation"))
    return leaders


def _check_record_level(record: CensusRecord, out: list[Violation]) -> None:
    """The record laws: proper morphisms exist where they must, the two
    census fits, and the kernel/order pairs on Z_{4p}."""
    n = record.n

    def bad(law: str, witness: str) -> None:
        out.append(Violation(n, law, witness))

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

    if n in PROP62_ORDERS:
        p = n // 4
        allowed = {(p, p), (2 * p, p), (2 * p, 2 * p)}
        for phi in record.morphisms:
            if phi.proper and (phi.kernel_order, phi.order) not in allowed:
                pair = f"({phi.kernel_order}, {phi.order})"
                bad("kernel/order pairs on Z_4p", f"[{phi.canonical_str()}] {pair}")


def check_record(record: CensusRecord) -> list[Violation]:
    """All invariant checks for one stored census, each conjugation class
    once (see the module docstring), but quotient membership, which reads
    the censuses of smaller orders (`run_suite`)."""
    return _check_record(record, {})


def _check_record(record: CensusRecord, censuses: dict[int, set]) -> list[Violation]:
    """`check_record`'s laws, with quotient membership against `censuses`
    (the image tuples of the census of each order checked before, by
    order), to which it then adds the record's own."""
    out: list[Violation] = []
    n = record.n
    leaders = record.leaders  # the walk that built the record proved every law of a line
    if leaders is None:
        leaders = _check_lines(record, out)
    _check_record_level(record, out)
    for phi in leaders:
        _check_morphism(n, phi, out)
        _check_prime_comparison(n, phi, out)
    _check_pair_model(n, leaders, out, censuses)
    censuses[n] = {phi.images for phi in record.morphisms}
    return out


def run_suite(store, max_n: int) -> list[Violation]:
    """Run every check over the stored censuses for 2..max_n.  They are
    checked in ascending order, so for quotient membership the census of
    each leader's order, below n, is checked before it."""
    if max_n < 2:
        raise ValueError(f"expected max_n >= 2, got {max_n}")
    violations: list[Violation] = []
    censuses: dict[int, set] = {}
    for n in range(2, max_n + 1):
        violations += _check_record(store.load(n), censuses)
    return violations
