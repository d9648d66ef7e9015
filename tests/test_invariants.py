import pytest

import skewcyc.quotient
from skewcyc.enumeration import CensusRecord, census
from skewcyc.invariants import _check_morphism, check_record, run_suite
from skewcyc.quotient import check_quotient_laws
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
        calls = []
        verify = skewcyc.quotient.verify

        def counted(n, images):
            calls.append(n)
            return verify(n, images)

        monkeypatch.setattr(skewcyc.quotient, "verify", counted)
        for phi in store.load(12).morphisms:
            # morphisms share quotients, so start each one from a cold cache
            skewcyc.quotient._verified_quotient.cache_clear()
            calls.clear()
            out = []
            _check_morphism(12, phi, out)
            assert out == [] and calls == [phi.order]

    def test_quotient_laws_on_a_warm_cache_verify_nothing(self, store, monkeypatch):
        phi = next(phi for phi in store.load(12).morphisms if phi.proper)
        skewcyc.quotient._verified_quotient.cache_clear()
        cold = check_quotient_laws(phi, 5)
        calls = []
        verify = skewcyc.quotient.verify

        def counted(n, images):
            calls.append(n)
            return verify(n, images)

        monkeypatch.setattr(skewcyc.quotient, "verify", counted)
        assert check_quotient_laws(phi, 5) == cold and calls == []


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

    def test_violation_formatting(self, store):
        record = store.load(6)
        autos = [phi for phi in record.morphisms if phi.automorphism]
        tampered = CensusRecord(
            n=6, morphisms=tuple(autos), class_ids=(-1,) * len(autos)
        )
        violation = check_record(tampered)[0]
        assert str(violation).startswith("n=6: ")
