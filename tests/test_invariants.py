import dataclasses
import faulthandler
from collections import Counter

import pytest

import skewcyc.invariants
import skewcyc.skew_core
from skewcyc.cyclic_arith import divisors, units
from skewcyc.enumeration import CensusRecord, census
from skewcyc.invariants import (
    Violation,
    _check_pair_model,
    _quotient_flags,
    _quotient_law_failures,
    _sweep_generators,
    check_record,
    run_suite,
)
from skewcyc.quotient import check_quotient_laws, quotient_of
from skewcyc.skew_core import SkewMorphismError, power, verify
from skewcyc.skew_product import _PairTables
from skewcyc.store import MemoryStore


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
        # the quotient laws of a morphism, for generator 1 and every unit,
        # verify each of its distinct quotients exactly once
        morphisms = store.load(18).morphisms
        distinct = [{quotient_of(phi, g).images for g in units(18)} for phi in morphisms]
        calls = []
        verify = skewcyc.skew_core.verify

        def counted(n, images):
            calls.append((n, images))
            return verify(n, images)

        monkeypatch.setattr(skewcyc.skew_core, "verify", counted)
        for phi, quotients in zip(morphisms, distinct):
            # morphisms share quotients, so start each one from a cold cache
            skewcyc.skew_core._verified_once.cache_clear()
            calls.clear()
            out = []
            _check_pair_model(18, [phi], out)
            assert out == [] and sorted(calls) == sorted((phi.order, q) for q in quotients)
        assert any(len(quotients) > 1 for quotients in distinct)

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
            _check_pair_model(n, cases, out)
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


def _damaged_copies(n, phi):
    """phi, and copies of it damaged the ways a stored record can be."""
    yield phi
    for a in sorted({0, 1, n - 1, n // 2}):
        pi = list(phi.pi)
        pi[a] = pi[a] % phi.order + 1
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


def test_the_table_pass_flags_exactly_the_pairs_the_scalar_laws_fail(store):
    """`_quotient_flags` marks (phi, g) exactly when `check_quotient_laws`
    fails or cannot build the quotient, on clean and damaged copies of the
    morphisms of 2..32, stacked by order as the pair model stacks them."""
    failed = Counter()
    for n in range(2, 33):
        gens = _sweep_generators(n)
        by_order = {}
        for phi in store.load(n).morphisms:
            for copy in _damaged_copies(n, phi):
                by_order.setdefault(copy.order, []).append(copy)
        for stack in by_order.values():
            scalar = [[_quotient_law_failures(phi, g) for g in gens] for phi in stack]
            flags = _quotient_flags(stack, _PairTables(stack), gens)
            assert flags.tolist() == [[bool(f) for f in row] for row in scalar], n
            failed.update(" ".join(f[0].split()[:2]) for row in scalar for f in row if f)
            failed["passed"] += sum(not f for row in scalar for f in row)
    # every way to fail occurs as a pair's first failure: the orbit check, a
    # quotient that is not skew, each postcondition of quotient_of and each
    # law; and many pairs pass
    ways = {"generator orbit", "quotient of", "ord of", "identity quotient"}
    ways |= {"automorphism quotient", "law (a)", "law (b)", "law (c)"}
    assert set(failed) == ways | {"passed"}
    assert failed["passed"] > 10_000


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
        # reported as a law of its own
        record = store.load(n)
        index = next((i for i, phi in enumerate(record.morphisms) if phi.proper), 0)
        morphisms = list(record.morphisms)
        bad = dataclasses.replace(morphisms[index], kernel_order=kernel)
        morphisms[index] = bad
        tampered = CensusRecord(n=n, morphisms=tuple(morphisms), class_ids=record.class_ids)
        out = check_record(tampered)
        law = Violation(n, "kernel order divides n", f"[{bad.canonical_str()}] kernel={kernel}")
        assert law in out
        assert check_record(record) == []

    def test_violation_formatting(self, store):
        record = store.load(6)
        autos = [phi for phi in record.morphisms if phi.automorphism]
        tampered = CensusRecord(
            n=6, morphisms=tuple(autos), class_ids=(-1,) * len(autos)
        )
        violation = check_record(tampered)[0]
        assert str(violation).startswith("n=6: ")
