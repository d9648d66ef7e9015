from collections import Counter

import pytest

import skewcyc.families as families
from skewcyc.cli import main
from skewcyc.enumeration import census
from skewcyc.families import FAMILY_MAX_P, family_4p
from skewcyc.skew_core import equivalence_classes
from skewcyc.store import MemoryStore


def _member(p, images):
    return next(phi for phi in family_4p(p) if phi.images == images)


class TestMembers:
    def test_x2_on_z12(self):
        phi = _member(3, (0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 1))
        assert phi.kernel_order == 6

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_the_automorphism_shift_is_no_member(self, p):
        n = 4 * p
        automorphism = tuple((2 * p + 1) * a % n for a in range(n))
        assert automorphism not in {phi.images for phi in family_4p(p)}

    def test_z_2_4_on_z20(self):
        shift = (0, 4, 12, 8)  # (0, s, s(w+1), sw) for w = 2, s = 4
        phi = _member(5, tuple((a + shift[a % 4]) % 20 for a in range(20)))
        assert phi.kernel_order == 5
        assert phi.order == 5

    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_kernel_2p_members_split_between_orders_p_and_2p(self, p):
        members = [phi for phi in family_4p(p) if phi.kernel_order == 2 * p]
        assert Counter(phi.order for phi in members) == {p: p - 1, 2 * p: p - 1}

    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_the_other_members_have_kernel_and_order_p(self, p):
        others = [phi for phi in family_4p(p) if phi.kernel_order != 2 * p]
        assert len(others) == (2 * (p - 1) if p % 4 == 1 else 0)
        assert all(phi.kernel_order == p and phi.order == p for phi in others)

    @pytest.mark.parametrize("p", [-3, 0, 1, 2, 4, 9, 15])
    def test_rejects_p_that_is_not_an_odd_prime(self, p):
        with pytest.raises(ValueError, match=f"^p must be an odd prime, got {p}$"):
            family_4p(p)


class TestFamily4p:
    @pytest.mark.parametrize(
        "p,count,classes", [(3, 4, 2), (5, 16, 3), (7, 12, 2), (13, 48, 3)]
    )
    def test_counts_and_classes(self, p, count, classes):
        members = family_4p(p)
        assert len(members) == count
        assert len(equivalence_classes(members)) == classes
        assert all(phi.coset_preserving and phi.proper for phi in members)

    def test_equals_census_proper_part(self):
        store = MemoryStore()
        for p in (3, 5, 7):
            record = census(4 * p, store)
            assert {phi.images for phi in family_4p(p)} == {
                phi.images for phi in record.proper()
            }


class TestAllCosetPreservingPredicate:
    def test_true_and_false_cases(self):
        store = MemoryStore()

        def all_cp(n):
            return all(phi.coset_preserving for phi in census(n, store).morphisms)

        assert all_cp(24)
        assert all_cp(30)
        assert not all_cp(32)


def test_a_p_above_the_bound_is_refused_before_any_member_is_built(monkeypatch, capsys):
    def no_verify(*args):
        raise AssertionError("family_4p built a member of a refused p")

    monkeypatch.setattr(families, "verify", no_verify)
    for p in (FAMILY_MAX_P + 2, 100003):
        with pytest.raises(ValueError, match=f"at most {FAMILY_MAX_P}"):
            family_4p(p)
        assert main(["families", "--p", str(p)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: p must be at most {FAMILY_MAX_P}, got {p}\n"
