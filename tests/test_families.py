from collections import Counter

import pytest

import skewcyc.families as families
from skewcyc.cli import main
from skewcyc.enumeration import census
from skewcyc.families import (
    FAMILY_MAX_P,
    FamilyParams,
    family_4p,
    make_x,
    make_y,
    make_z,
    sqrt_minus_one,
)
from skewcyc.skew_core import equivalence_classes
from skewcyc.store import MemoryStore


class TestConstructors:
    def test_x_on_z12(self):
        phi = make_x(3, 2)
        assert phi.images == (0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 1)
        assert phi.kernel_order == 6

    def test_x_excludes_the_automorphism_shift(self):
        with pytest.raises(ValueError):
            make_x(3, 6)  # i = (p-1)/2 would give the automorphism a -> (2p+1)a

    def test_x_on_z20(self):
        phi = make_x(5, 2)
        assert phi.n == 20 and phi.kernel_order == 10

    def test_y_on_z12_and_z20(self):
        assert make_y(3, 4).kernel_order == 6
        assert make_y(5, 4).n == 20

    def test_y_rejects_wrong_residue(self):
        with pytest.raises(ValueError):
            make_y(3, 6)

    def test_z_on_z20(self):
        phi = make_z(5, 2, 4)
        assert phi.n == 20
        assert phi.kernel_order == 5
        assert phi.order == 5

    def test_z_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_z(3, 1, 4)  # p = 3 mod 4
        with pytest.raises(ValueError):
            make_z(5, 1, 4)  # 1^2 != -1 mod 5

    def test_all_members_verify_with_claimed_kernels(self):
        # x and y have kernel of order 2p; z has kernel of order p
        for p in (3, 5, 7):
            half = (p - 1) // 2
            for i in range(p):
                if i != half:
                    assert make_x(p, 4 * i + 2).kernel_order == 2 * p
            for i in range(1, p):
                assert make_y(p, 4 * i).kernel_order == 2 * p
        for w in sqrt_minus_one(5):
            for i in range(1, 5):
                assert make_z(5, w, 4 * i).kernel_order == 5


class TestFamilyParams:
    def test_rejects_even_or_composite_p(self):
        with pytest.raises(ValueError):
            FamilyParams(p=2, kind="x", s=2)
        with pytest.raises(ValueError):
            FamilyParams(p=9, kind="y", s=4)
        with pytest.raises(ValueError):
            FamilyParams(p=5, kind="w", s=4)


class TestFamily4p:
    @pytest.mark.parametrize(
        "p,count,classes", [(3, 4, 2), (5, 16, 3), (7, 12, 2), (13, 48, 3)]
    )
    def test_counts_and_classes(self, p, count, classes):
        members = family_4p(p)
        assert len(members) == count
        assert len(equivalence_classes(members)) == classes
        assert all(phi.coset_preserving and phi.proper for phi in members)

    def test_shift_families_split_between_orders_p_and_2p(self):
        for p in (3, 5, 7):
            half = (p - 1) // 2
            shift = [make_x(p, 4 * i + 2) for i in range(p) if i != half]
            shift += [make_y(p, 4 * i) for i in range(1, p)]
            orders = Counter(phi.order for phi in shift)
            assert orders == {p: p - 1, 2 * p: p - 1}

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
