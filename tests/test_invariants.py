import dataclasses
import faulthandler
import json
import random
import re
from collections import Counter
from itertools import zip_longest

import numpy as np
import pytest

import skewcyc.invariants
import skewcyc.skew_core
from skewcyc import cli
from skewcyc.cyclic_arith import divisors, units
from skewcyc.enumeration import CensusRecord, brute_force, census
from skewcyc.invariants import (
    Violation,
    _check_pair_model,
    _kernel_divides,
    check_record,
    run_suite,
)
from skewcyc.quotient import check_quotient_laws, quotient_of
from skewcyc.skew_core import (
    InternalCheckError,
    SkewMorphismError,
    conjugates,
    power,
    verify,
)
from skewcyc.skew_product import _PairTables
from skewcyc.store import MemoryStore, Store


@pytest.fixture(scope="module")
def store():
    s = MemoryStore()
    for n in range(2, 33):
        census(n, s)
    return s


class TestCleanData:
    def test_suite_is_quiet_up_to_32(self, store):
        assert run_suite(store, 32) == []

    def test_non_coset_preserving_records_pass(self, store):
        # Z_32 exercises the proper-quotient branch of every law
        assert check_record(store.load(32)) == []

    def test_morphism_laws_build_the_quotient_once(self, store, monkeypatch):
        # the quotient laws, for the generator 1, verify the quotient of a
        # morphism exactly once, and each distinct quotient of a stack once
        morphisms = store.load(18).morphisms
        quotients = [(phi.order, quotient_of(phi).images) for phi in morphisms]
        calls = []
        verify = skewcyc.skew_core.verify

        def counted(n, images):
            calls.append((n, images))
            return verify(n, images)

        monkeypatch.setattr(skewcyc.skew_core, "verify", counted)
        for phi, quotient in zip(morphisms, quotients):
            # morphisms share quotients, so start each one from a cold cache
            skewcyc.skew_core._verified_once.cache_clear()
            calls.clear()
            out = []
            _check_pair_model(18, [phi], out, {})
            assert out == [] and calls == [quotient]
        skewcyc.skew_core._verified_once.cache_clear()
        calls.clear()
        _check_pair_model(18, morphisms, out, {})
        assert out == [] and sorted(calls) == sorted(set(quotients))
        assert len(set(quotients)) < len(quotients)

    def test_quotient_laws_on_a_warm_cache_verify_nothing(self, store, monkeypatch):
        phi = next(phi for phi in store.load(12).morphisms if phi.proper)
        skewcyc.skew_core._verified_once.cache_clear()
        cold = check_quotient_laws(phi, 5)
        calls = []
        verify = skewcyc.skew_core.verify

        def counted(n, images):
            calls.append(n)
            return verify(n, images)

        monkeypatch.setattr(skewcyc.skew_core, "verify", counted)
        assert check_quotient_laws(phi, 5) == cold and calls == []


def test_only_a_record_without_leaders_is_walked_line_by_line(store, tmp_path, monkeypatch):
    """A record that `Store.load` or `census` built carries the leaders its
    walk proved, so `check` runs no law of a line on it; a copy made by
    `dataclasses.replace` drops them and has every line walked once."""
    calls = Counter()

    def counting(name):
        real = getattr(skewcyc.invariants, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(skewcyc.invariants, name, counted)

    for name in ("_well_formed", "_check_automorphism", "equivalence_classes"):
        counting(name)
    saved = Store(tmp_path)
    for n in range(2, 33):
        saved.save(store.load(n))
    assert run_suite(Store(tmp_path), 32) == [] and not calls
    record = census(20, MemoryStore())
    assert record.leaders is not None and check_record(record) == [] and not calls

    copy = dataclasses.replace(record)
    assert copy.leaders is None and check_record(copy) == []
    assert calls == {
        "_well_formed": copy.total,
        "_check_automorphism": copy.automorphism_count,
        "equivalence_classes": 1,
    }


def test_periodicity_power_from_the_tables_matches_verify(store):
    """The law read off the pair tables gives `verify`'s verdict on f^p (law,
    witness, coset-preserving flag), for the stored periodicity and for
    copies whose periodicity is every other proper divisor of the order."""
    for n in range(33, 61):
        census(n, store)
    calls = []

    def counted(n, images):
        calls.append(n)
        return verify(n, images)

    laws = set()
    for n in range(2, 61):
        cases = [
            dataclasses.replace(phi, periodicity=p)
            for phi in store.load(n).morphisms
            for p in {phi.periodicity, *(d for d in divisors(phi.order) if d < phi.order)}
        ]
        stored = {phi.images: phi.periodicity for phi in store.load(n).morphisms}
        changed = {c.canonical_str() for c in cases if c.periodicity != stored[c.images]}
        expected = []
        for case in cases:
            name = case.canonical_str()
            try:
                fp = verify(n, power(case, case.periodicity))
            except SkewMorphismError as exc:
                expected.append(("periodicity power is skew", f"[{name}] {exc}"))
            else:
                if not fp.coset_preserving:
                    expected.append(("periodicity power is coset-preserving", f"[{name}]"))
        out = []
        calls.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(skewcyc.invariants, "verify", counted)
            _check_pair_model(n, cases, out, {})
        # every case but the identity's (p = m = 1) is read off the tables
        assert calls == [n]
        swept = [v for v in out if v.law.startswith("quotient law")]
        kept = [(v.law, v.witness) for v in out if not v.law.startswith("quotient law")]
        assert kept == expected, n
        # the quotient laws of the same stacks find law (b) broken, on the changed copies alone
        assert {v.witness[1 : v.witness.index("]")] for v in swept} == changed, n
        assert all("law (b) fails" in v.witness for v in swept), n
        laws.update(law for law, _ in expected)
    # both ways to break the law occur among the copies
    assert laws == {"periodicity power is skew", "periodicity power is coset-preserving"}


def _quotient_law_failures(phi, g=1):
    """`check_quotient_laws(phi, g)`'s failures, or the error that keeps the
    quotient from being built, as `check_record` reports them for g = 1."""
    try:
        return check_quotient_laws(phi, g).failures
    except InternalCheckError as exc:
        return [str(exc)]


def _damaged_copies(n, phi):
    """phi, and copies of it damaged the ways a stored record can be."""
    yield phi
    for a in sorted({0, 1, n - 1, n // 2}):
        pi = list(phi.pi)
        pi[a] = pi[a] % phi.order + 1 if phi.order > 1 else 2
        yield dataclasses.replace(phi, pi=tuple(pi))
    yield dataclasses.replace(phi, periodicity=phi.periodicity % phi.order + 1)
    yield dataclasses.replace(phi, kernel_order=phi.kernel_order % n + 1)
    yield dataclasses.replace(phi, coset_preserving=not phi.coset_preserving)
    yield dataclasses.replace(phi, automorphism=not phi.automorphism)
    for a, b in ((1, 2), (2, 1), (n - 1, 1), (1, n - 1)):
        if a != b and max(a, b) < n:  # f(b) := f(a): no longer a permutation
            images = list(phi.images)
            images[b] = images[a]
            yield dataclasses.replace(phi, images=tuple(images))
    if n >= 4:  # f(2) and f(3) swapped: still a permutation
        images = list(phi.images)
        images[2], images[3] = images[3], images[2]
        yield dataclasses.replace(phi, images=tuple(images))


_FIELDS = (
    "pi", "images", "order", "kernel_order", "periodicity", "coset_preserving", "automorphism"
)


def _damaged_record(record, rng):
    """(record with one field of one morphism changed, that field), or None
    when the change gives two morphisms the same images.  Integers are drawn
    from -1..n + 1, each one other than the value it replaces; a flipped
    automorphism flag moves the morphism to class -1 or to a new class."""
    n, index = record.n, rng.randrange(record.total)
    phi, field = record.morphisms[index], rng.choice(_FIELDS)
    class_ids = list(record.class_ids)
    old = getattr(phi, field)
    if field in ("pi", "images"):
        value, a = list(old), rng.randrange(n)
        value[a] = rng.choice([v for v in range(-1, n + 2) if v != old[a]])
        value = tuple(value)
    elif field in ("coset_preserving", "automorphism"):
        value = not old
        if field == "automorphism":
            class_ids[index] = -1 if value else max(class_ids) + 1
    else:
        value = rng.choice([v for v in range(-1, n + 2) if v != old])
    morphisms = list(record.morphisms)
    morphisms[index] = dataclasses.replace(phi, **{field: value})
    if len({other.images for other in morphisms}) < len(morphisms):
        return None
    order = sorted(range(len(morphisms)), key=lambda i: morphisms[i].images)
    morphisms = tuple(morphisms[i] for i in order)
    return CensusRecord(n, morphisms, tuple(class_ids[i] for i in order)), field


def _damage_harness(store, seed):
    """Every record 2..40 with one field of one morphism changed, 38 per n
    drawn with `seed`, gets at least one violation from `check_record`,
    which never raises; returns the laws they broke."""
    rng = random.Random(seed)
    fields, laws = Counter(), set()
    for n in range(2, 41):
        record = census(n, store)
        assert check_record(record) == []
        made = 0
        while made < 38:
            damaged = _damaged_record(record, rng)
            if damaged is None:
                continue
            bad, field = damaged
            out = check_record(bad)
            assert out, (field, bad)
            fields[field] += 1
            laws.update(v.law for v in out)
            made += 1
    assert sum(fields.values()) == 39 * 38 and set(fields) == set(_FIELDS)
    return laws


def test_damaged_records_are_reported_never_raised(store):
    """A seeded damage harness over the records 2..40: every record with one
    field of one morphism changed gets at least one violation from
    `check_record`, which never raises (images outside Z_n, orders below 1
    and an identity with other images included)."""
    laws = _damage_harness(store, 17)
    assert {"images lie in Z_n", "order at least 1", "automorphism is a -> f(1)*a"} <= laws
    assert "census closed under conjugation" in laws


@pytest.mark.parametrize("seed", [1, 2])
def test_damaged_records_on_other_seeds_are_reported(store, seed):
    """The damage harness on two more seeds: damage to a line that no law of
    its own reads (every proper line but the leader of its orbit) is
    reported by the closure law, never passed over."""
    _damage_harness(store, seed)


@pytest.mark.parametrize("n", [2, 12, 32])
def test_a_damaged_automorphism_gets_one_closed_form_violation(store, n):
    """Each field of each automorphism of Z_n changed in turn: `check_record`
    reports exactly one violation, the closed-form law naming every field
    that differs from `automorphism_of(n, f(1))`, or the well-formedness law
    that keeps the closed form from being read (an order below 1).  No law
    that the cut skips for automorphisms runs.  Clearing the automorphism
    flag instead makes the line proper, a leader checked in full (the damage
    harness covers it)."""
    record = store.load(n)
    cases = 0
    for index, phi in enumerate(record.morphisms):
        if phi.proper:
            continue
        images = list(phi.images)
        images[-1] = (images[-1] + 1) % n  # for n = 2: f(1) = 0, no unit
        pi = list(phi.pi)
        pi[-1] = 2
        law, name = "automorphism is a -> f(1)*a", phi.canonical_str()
        damages = [
            ("pi", tuple(pi), law, "differs in pi"),
            ("order", phi.order + 1, law, "differs in order"),
            ("order", 0, "order at least 1", "order=0"),
            ("kernel_order", n - 1, law, "differs in kernel_order"),
            ("periodicity", 2, law, "differs in periodicity"),
            ("coset_preserving", False, law, "differs in coset_preserving"),
            ("images", tuple(images), law, "differs in images" if n > 2 else "f(1)=0 is no unit"),
        ]
        for field, value, want, detail in damages:
            bad = dataclasses.replace(phi, **{field: value})
            morphisms = list(record.morphisms)
            morphisms[index] = bad
            assert len({other.images for other in morphisms}) == record.total
            order = sorted(range(record.total), key=lambda i: morphisms[i].images)
            tampered = CensusRecord(
                n,
                tuple(morphisms[i] for i in order),
                tuple(record.class_ids[i] for i in order),
            )
            shown = bad.canonical_str() if field == "images" else name
            assert check_record(tampered) == [Violation(n, want, f"[{shown}] {detail}")], field
            cases += 1
    assert cases == 7 * record.automorphism_count


# every way to fail, as a first failure: the orbit check, a quotient that is
# not skew, each postcondition of quotient_of and each law, law (a) in both
# its forms ("law (a):" is the trivial quotient's)
_FIRST_FAILURES = {"generator orbit", "quotient of", "ord of", "identity quotient"}
_FIRST_FAILURES |= {"automorphism quotient", "law (a)", "law (a):", "law (b)", "law (c)"}


def test_the_pair_model_reports_exactly_the_scalar_quotient_law_failures(store):
    """`_check_pair_model` reports, as "quotient law", exactly the failures
    of `check_quotient_laws` for the generator 1, or the error that keeps the
    quotient from being built, and none when the kernel order does not
    divide n: on clean and damaged copies of the morphisms of 2..32, in one
    call of all orders per n."""
    failed = Counter()
    for n in range(2, 33):
        stack = [copy for phi in store.load(n).morphisms for copy in _damaged_copies(n, phi)]
        scalar = [_quotient_law_failures(phi) for phi in stack]
        out = []
        _check_pair_model(n, stack, out, {})
        want = [
            Violation(n, "quotient law", f"[{phi.canonical_str()}] {failure}")
            for phi, failures in zip(stack, scalar)
            if _kernel_divides(n, phi)
            for failure in failures
        ]
        assert [v for v in out if v.law == "quotient law"] == want, n
        failed.update(" ".join(f[0].split()[:2]) for f in scalar if f)
        failed["passed"] += sum(not f for f in scalar)
    assert set(failed) == _FIRST_FAILURES | {"passed"}
    assert failed["passed"] > 2_500  # of 9,159 copies; 655 are clean


def test_a_generator_g_fails_as_the_generator_1_of_the_conjugate(store):
    """The theorem behind the closure law: for every unit g, the quotient
    laws of f for g fail exactly as those of h = t*f*t^{-1}, t = g^{-1}, for
    the generator 1, on clean and damaged copies of the morphisms of 2..32.
    h is built here point by point: h(a) = t*f(g*a), pi_h(a) = pi(g*a).
    Only the repr of f in an unverifiable quotient's message differs."""

    def worded(failures):
        return [re.sub(r"quotient of <.*?> failed", "quotient of <f> failed", f) for f in failures]

    pairs, failing = 0, Counter()
    for n in range(2, 33):
        for phi in (c for f in store.load(n).morphisms for c in _damaged_copies(n, f)):
            for g in units(n):
                t = pow(g, -1, n)
                h = dataclasses.replace(
                    phi,
                    images=tuple(t * phi.images[g * a % n] % n for a in range(n)),
                    pi=tuple(phi.pi[g * a % n] for a in range(n)),
                )
                want = worded(_quotient_law_failures(phi, g))
                assert worded(_quotient_law_failures(h)) == want, (phi, g)
                pairs += 1
                failing.update(" ".join(f.split()[:2]) for f in want[:1])
    assert pairs == 132_159
    assert set(failing) == _FIRST_FAILURES


_GENERATOR_LAWS = ("generating orbit has size ord", "quotient law")


def _leader_laws(n, stack):
    """What `check_record` reports for each of `stack`, leaders of Z_n with
    distinct images: (law, witness) lists, with each one's repr as [f]."""
    out = []
    for phi in stack:
        skewcyc.invariants._check_morphism(n, phi, out)
        skewcyc.invariants._check_prime_comparison(n, phi, out)
    _check_pair_model(n, stack, out, {})
    found = {phi.canonical_str(): [] for phi in stack}
    for v in out:
        name = v.witness[1 : v.witness.index("]")]
        found[name].append((v.law, "[f]" + v.witness[len(name) + 2 :]))
    return [found[phi.canonical_str()] for phi in stack]


def test_each_conjugate_gets_the_verdicts_of_its_leader(store):
    """The theorem behind checking one leader per class, on clean and
    damaged copies f of the proper morphisms of 2..32 and every member
    h = t*f*t^{-1} of `conjugates(f)`.  Each law that reads no generator
    gives h the verdicts of f, in the same order, with witnesses equal but
    for the repr of f and the points they name, which conjugation moves
    ("distinct across kernel cosets" only where pi is constant on them).
    The laws that read the generator 1 give h the verdicts of f for the
    generator t^{-1}: the orbit of t^{-1} under f, and `check_quotient_laws`
    of f for t^{-1} (up to the repr of f)."""

    def worded(witness):
        return re.sub(r"quotient of <.*?> failed", "quotient of <f> failed", witness)

    def shape(laws):
        skip = set(_GENERATOR_LAWS)
        if any(law == "power function constant on kernel cosets" for law, _ in laws):
            skip.add("power function distinct across kernel cosets")
        return [(law, re.sub(r"-?\d+", "#", w)) for law, w in laws if law not in skip]

    members, generator_read = 0, Counter()
    for n in range(2, 33):
        orbits, batches = [], []  # each batch a stack of distinct images
        for phi in (c for f in store.load(n).morphisms for c in _damaged_copies(n, f)):
            if phi.automorphism or not skewcyc.invariants._well_formed(n, phi, []):
                continue
            orbit = conjugates(phi)
            unit_of = {}
            for t in units(n):  # h built point by point, one unit per member
                t_inv = pow(t, -1, n)
                images = tuple(t * phi.images[t_inv * a % n] % n for a in range(n))
                unit_of.setdefault(images, t)
            assert unit_of.keys() == orbit.keys() and orbit[phi.images] == phi
            batch = next((b for b in batches if b.keys().isdisjoint(orbit)), None)
            if batch is None:
                batch = {}
                batches.append(batch)
            batch.update(orbit)
            orbits.append((phi, unit_of, batch))
        found = {}  # the laws of each member, per batch
        for batch in batches:
            found[id(batch)] = dict(zip(batch, _leader_laws(n, list(batch.values()))))
        for phi, unit_of, batch in orbits:
            laws = found[id(batch)]
            f_shape = shape(laws[phi.images])
            for images, t in unit_of.items():
                h_laws, g = laws[images], pow(t, -1, n)
                assert shape(h_laws) == f_shape, (phi, images)
                walk, x = [g], phi.images[g]
                while x != g and len(walk) <= n:
                    walk.append(x)
                    x = phi.images[x]
                size = len(set(walk))
                want = [] if x == g and size == phi.order else [f"[f] |orbit|={size}"]
                if _kernel_divides(n, phi):
                    want += [f"[f] {worded(w)}" for w in _quotient_law_failures(phi, g)]
                got = [worded(w) for law, w in h_laws if law in _GENERATOR_LAWS]
                assert got == want, (phi, images)
                generator_read.update(law for law, _ in h_laws if law in _GENERATOR_LAWS)
                members += 1
    assert members > 10_000
    assert set(generator_read) == set(_GENERATOR_LAWS)


def test_a_mixed_order_stack_checks_each_row_alone():
    """All orders of Z_n, n <= 9, in one stack: the brute-force morphisms and
    their damaged copies, interleaved across orders.  Each row's group
    report, core and periodicity-power verdicts are those of a stack of one,
    and `_check_pair_model` reports each morphism as alone, in any order of
    the list."""
    mixed = 0
    for n in range(2, 10):
        by_order = {}
        for phi in brute_force(n):
            by_order.setdefault(phi.order, []).extend(_damaged_copies(n, phi))
        cases = [c for group in zip_longest(*by_order.values()) for c in group if c]
        mixed += len(by_order) > 1
        tables = _PairTables(cases)
        reports, cores = tables.group_reports(), tables.cores()
        alone = [_PairTables([case]) for case in cases]
        assert reports == [t.group_reports()[0] for t in alone]
        assert cores.tolist() == [t.cores()[0] for t in alone]
        pairs = [
            (k, p)
            for k, (case, rep) in enumerate(zip(cases, reports))
            if rep.passed
            for p in divisors(case.order)[:-1]
        ]
        rows, exponents = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        got = zip(*(a.tolist() for a in tables.power_verdicts(rows, exponents)))
        want = [
            tuple(a.item() for a in alone[k].power_verdicts(np.array([0]), np.array([p])))
            for k, p in pairs
        ]
        assert list(got) == want, n

        out, one_by_one, in_sorted_order = [], [], []
        _check_pair_model(n, cases, out, {})
        for case in cases:
            _check_pair_model(n, [case], one_by_one, {})
        _check_pair_model(n, sorted(cases, key=lambda phi: phi.order), in_sorted_order, {})
        assert out == one_by_one and Counter(out) == Counter(in_sorted_order), n
    assert mixed == 7  # every n but 2


def test_a_non_permutation_off_the_orbit_of_one_is_reported_not_hung(store):
    """With f = (0, 3, 2, 5, 4, 3), 1 never recurs (1 -> 3 -> 5 -> 3)."""
    record = store.load(6)
    images = (0, 3, 2, 5, 4, 3)
    index = next(i for i, phi in enumerate(record.morphisms) if phi.proper)
    morphisms = list(record.morphisms)
    morphisms[index] = dataclasses.replace(morphisms[index], images=images)
    order = sorted(range(len(morphisms)), key=lambda i: morphisms[i].images)
    tampered = CensusRecord(
        n=6,
        morphisms=tuple(morphisms[i] for i in order),
        class_ids=tuple(record.class_ids[i] for i in order),
    )
    faulthandler.dump_traceback_later(60, exit=True)  # a hang fails, with its stack
    try:
        out = check_record(tampered)
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert Violation(6, "generating orbit has size ord", "[0,3,2,5,4,3] |orbit|=3") in out


class TestViolationDetection:
    def test_stale_class_ids_are_caught(self, store):
        record = store.load(6)
        tampered = CensusRecord(
            n=6,
            morphisms=record.morphisms,
            class_ids=tuple(
                cid if cid == -1 else idx for idx, cid in enumerate(record.class_ids)
            ),
        )
        laws = {v.law for v in check_record(tampered)}
        assert "equivalence class ids" in laws

    def test_missing_proper_part_is_caught(self, store):
        record = store.load(6)
        autos = [phi for phi in record.morphisms if phi.automorphism]
        tampered = CensusRecord(
            n=6, morphisms=tuple(autos), class_ids=(-1,) * len(autos)
        )
        laws = {v.law for v in check_record(tampered)}
        assert "proper morphisms exist except for n=4 or gcd(n, phi(n))=1" in laws

    @staticmethod
    def _without_last_class(record):
        last = max(record.class_ids)
        kept = [(phi, cid) for phi, cid in zip(record.morphisms, record.class_ids) if cid != last]
        return CensusRecord(
            n=record.n,
            morphisms=tuple(phi for phi, _ in kept),
            class_ids=tuple(cid for _, cid in kept),
        )

    @pytest.mark.parametrize("n", [12, 20, 36, 42])
    def test_a_record_that_lacks_a_conjugate_or_changes_one_is_caught(self, store, n):
        # the last member of the largest class dropped, or one of its other
        # members with pi changed at one point: every other law still holds
        # for the first record, and the closure law catches both
        record = census(n, store)
        largest, _ = Counter(cid for cid in record.class_ids if cid != -1).most_common(1)[0]
        members = [i for i, cid in enumerate(record.class_ids) if cid == largest]
        least = record.morphisms[members[0]].canonical_str()
        law = "census closed under conjugation"

        kept = [i for i in range(record.total) if i != members[-1]]
        dropped = CensusRecord(
            n, tuple(record.morphisms[i] for i in kept), tuple(record.class_ids[i] for i in kept)
        )
        last = record.morphisms[members[-1]].canonical_str()
        witness = f"[{last}] is not listed (orbit of [{least}])"
        assert check_record(dropped) == [Violation(n, law, witness)]

        morphisms = list(record.morphisms)
        phi = morphisms[members[1]]
        pi = list(phi.pi)
        pi[1] = pi[1] % phi.order + 1
        morphisms[members[1]] = dataclasses.replace(phi, pi=tuple(pi))
        changed = CensusRecord(n, tuple(morphisms), record.class_ids)
        witness = f"[{phi.canonical_str()}] differs in pi (orbit of [{least}])"
        assert Violation(n, law, witness) in check_record(changed)
        assert check_record(record) == []

    @pytest.mark.parametrize("n", [12, 20, 36, 42])
    def test_a_replaced_copy_of_a_loaded_record_is_walked_again(self, store, tmp_path, n):
        # a loaded record carries the leaders its load proved; a copy made by
        # `dataclasses.replace` does not, so its closure and ids are checked
        Store(tmp_path).save(census(n, store))
        record = Store(tmp_path).load(n)
        assert record.leaders is not None and check_record(record) == []
        largest, _ = Counter(cid for cid in record.class_ids if cid != -1).most_common(1)[0]
        members = [i for i, cid in enumerate(record.class_ids) if cid == largest]
        least = record.morphisms[members[0]].canonical_str()

        morphisms = list(record.morphisms)
        phi = morphisms[members[1]]
        pi = list(phi.pi)
        pi[1] = pi[1] % phi.order + 1
        morphisms[members[1]] = dataclasses.replace(phi, pi=tuple(pi))
        changed = dataclasses.replace(record, morphisms=tuple(morphisms))
        assert changed.leaders is None
        witness = f"[{phi.canonical_str()}] differs in pi (orbit of [{least}])"
        assert Violation(n, "census closed under conjugation", witness) in check_record(changed)

        ids = tuple(cid if cid == -1 else i for i, cid in enumerate(record.class_ids))
        stale = dataclasses.replace(record, class_ids=ids)
        assert stale.leaders is None
        witness = "stored ids differ from recomputation"
        assert check_record(stale) == [Violation(n, "equivalence class ids", witness)]

    @pytest.mark.parametrize("n", [12, 20, 18])
    def test_a_power_function_raised_by_the_order_on_a_coset_is_caught(self, store, n):
        # pi + ord on a whole non-kernel coset keeps the kernel shape and
        # every law that reads pi mod ord (the pair model, the quotient laws)
        record = store.load(n)
        index = next(i for i, phi in enumerate(record.morphisms) if phi.proper)
        morphisms = list(record.morphisms)
        phi = morphisms[index]
        step = n // phi.kernel_order
        pi = tuple(p + phi.order * (a % step == 1) for a, p in enumerate(phi.pi))
        morphisms[index] = dataclasses.replace(phi, pi=pi)
        out = check_record(CensusRecord(n, tuple(morphisms), record.class_ids))
        witness = f"[{phi.canonical_str()}] min=1, max={max(pi)}"
        assert Violation(n, "power function values lie in [1, ord]", witness) in out

    @pytest.mark.parametrize("n", [25, 27])
    def test_an_odd_prime_power_census_without_its_last_class_is_caught(self, store, n):
        record = store.load(n)
        laws = {v.law for v in check_record(self._without_last_class(record))}
        assert "census total at an odd prime power (census fit)" in laws
        assert check_record(record) == []

    @pytest.mark.parametrize("n", [16, 32])
    def test_a_power_of_two_census_without_its_last_class_is_caught(self, store, n):
        record = store.load(n)
        laws = {v.law for v in check_record(self._without_last_class(record))}
        assert "census total at a power of two (census fit)" in laws
        assert check_record(record) == []

    def test_a_census_without_its_last_class_fails_quotient_membership(
        self, store, tmp_path, capsys
    ):
        # census_20.jsonl without its last class loads and passes every law
        # of one record; the leaders of Z_25 whose quotients lie in that
        # class break quotient membership, which reads the census of Z_20
        saved = Store(tmp_path)
        for n in range(2, 26):
            saved.save(store.load(n))
        path = tmp_path / "census_20.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        ids = [json.loads(line)["class_id"] for line in lines]
        dropped = [json.loads(line)["images"] for line, cid in zip(lines, ids) if cid == max(ids)]
        assert max(ids) == 2 and len(dropped) == 8
        path.write_text("".join(line for line, cid in zip(lines, ids) if cid != max(ids)))
        assert check_record(Store(tmp_path).load(20)) == []
        assert cli.main(["check", "--max", "24", "--store", str(tmp_path)]) == 0

        law = "quotient is a line of the census of its order"
        out = run_suite(Store(tmp_path), 25)
        assert out and {(v.n, v.law) for v in out} == {(25, law)}
        for v in out:
            quotient = re.fullmatch(r"\[[0-9,]+\] quotient \[([0-9,]+)\] is not listed", v.witness)
            assert [int(x) for x in quotient[1].split(",")] in dropped
        capsys.readouterr()
        assert cli.main(["check", "--max", "25", "--store", str(tmp_path)]) == 1
        checked = sum(Store(tmp_path).load(n).total for n in range(2, 26))
        assert capsys.readouterr().out.splitlines() == [str(v) for v in out] + [
            f"{len(out)} violations over {checked} morphisms (n <= 25)"
        ]

    def test_a_record_changed_after_verify_is_reported_not_raised(self, store):
        # pi bumped at 0, 1 and n - 1: the quotient built from such a pi
        # may not be skew, and the stored kernel may no longer lie in the
        # kernel of pi; each is a violation of its own law, and every
        # other law of the morphism still runs.  So are stored orders,
        # kernel orders and flags that disagree with the quotient.
        def tampered(n, phi):
            for a in (0, 1, n - 1):
                pi = list(phi.pi)
                pi[a] = pi[a] % phi.order + 1
                yield dataclasses.replace(phi, pi=tuple(pi))
            if n <= 12:
                yield dataclasses.replace(phi, order=phi.order + 1)
                yield dataclasses.replace(phi, kernel_order=n)
                yield dataclasses.replace(phi, coset_preserving=not phi.coset_preserving)

        laws = set()
        records = 0
        for n in [*range(2, 13), *range(31, 41)]:
            for phi in census(n, store).proper():
                for bad in tampered(n, phi):
                    out = check_record(CensusRecord(n=n, morphisms=(bad,), class_ids=(0,)))
                    assert any(f"[{bad.canonical_str()}]" in v.witness for v in out), bad
                    laws.update(v.law for v in out)
                    records += 1
        assert records == 678 + 3 * 16  # 226 proper morphisms, 16 of them with n <= 12
        assert {"quotient law", "prime comparison via induced quotient"} <= laws
        assert "pair-model group axioms" in laws

    @pytest.mark.parametrize("n, kernel", [(5, 2), (5, 0), (5, 6), (12, 24), (12, 5), (12, -3)])
    def test_a_kernel_order_with_no_subgroup_is_reported_not_raised(self, store, n, kernel):
        # no subgroup of Z_n has that order, so the laws that need the
        # kernel subgroup are skipped for the morphism and the order is
        # reported as a law of its own; Z_5 has no proper morphism, and an
        # automorphism is checked against its closed form alone
        record = store.load(n)
        index = next((i for i, phi in enumerate(record.morphisms) if phi.proper), 0)
        morphisms = list(record.morphisms)
        bad = dataclasses.replace(morphisms[index], kernel_order=kernel)
        morphisms[index] = bad
        tampered = CensusRecord(n=n, morphisms=tuple(morphisms), class_ids=record.class_ids)
        out = check_record(tampered)
        name = bad.canonical_str()
        if bad.automorphism:
            law = Violation(n, "automorphism is a -> f(1)*a", f"[{name}] differs in kernel_order")
            assert out == [law]
        else:
            law = Violation(n, "kernel order divides n", f"[{name}] kernel={kernel}")
            assert law in out
        assert check_record(record) == []

    @pytest.mark.parametrize("length", [11, 0, 13])
    def test_a_power_function_without_n_values_is_reported_not_raised(self, store, length):
        # such a morphism is not well formed: the law carries the length,
        # and the laws that index by pi (the range law, the fixed points,
        # prime comparison, the pair model) are skipped for it
        record = store.load(12)
        index = next(i for i, phi in enumerate(record.morphisms) if phi.proper)
        morphisms = list(record.morphisms)
        phi = morphisms[index]
        morphisms[index] = dataclasses.replace(phi, pi=(phi.pi * 2)[:length])
        out = check_record(CensusRecord(12, tuple(morphisms), record.class_ids))
        witness = f"[{phi.canonical_str()}] {length} values"
        assert Violation(12, "power function has n values", witness) in out
        assert check_record(record) == []

    @pytest.mark.parametrize("length", [0, 5])
    def test_images_without_n_values_are_reported_not_raised(self, store, length):
        # prime comparison indexes the images too: on the identity of Z_12
        # it reads them on the subgroups of orders 2 and 3, at 0, 4, 6 and 8
        record = store.load(12)
        identity = record.morphisms[0]
        assert identity.images == tuple(range(12))
        bad = dataclasses.replace(identity, images=identity.images[:length])
        out = check_record(CensusRecord(12, (bad, *record.morphisms[1:]), record.class_ids))
        witness = f"[{bad.canonical_str()}] {length} images"
        assert Violation(12, "images lie in Z_n", witness) in out

    def test_violation_formatting(self, store):
        record = store.load(6)
        autos = [phi for phi in record.morphisms if phi.automorphism]
        tampered = CensusRecord(
            n=6, morphisms=tuple(autos), class_ids=(-1,) * len(autos)
        )
        violation = check_record(tampered)[0]
        assert str(violation).startswith("n=6: ")
