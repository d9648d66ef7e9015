from itertools import permutations

from skewcyc.skew_core import automorphism_of, verify
from skewcyc.skew_product import (
    SAMPLE_TRIPLES,
    SkewProductElement,
    _PairTables,
    check_group,
    core_of_B,
)

PHI6 = verify(6, (0, 3, 2, 5, 4, 1))


def multiply(phi, x, y):
    return _PairTables(phi).mult(SkewProductElement(*x), SkewProductElement(*y))


class TestMultiply:
    def test_identity_element(self):
        for pair in [(0, 0), (3, 1), (5, 2)]:
            assert multiply(PHI6, (0, 0), pair) == SkewProductElement(*pair)
            assert multiply(PHI6, pair, (0, 0)) == SkewProductElement(*pair)

    def test_c_times_b(self):
        # c * b = f(1) c^{pi(1)} = 3 c^2
        assert multiply(PHI6, (0, 1), (1, 0)) == (3, 2)

    def test_translations_form_a_subgroup(self):
        for a in range(6):
            for b in range(6):
                assert multiply(PHI6, (a, 0), (b, 0)) == ((a + b) % 6, 0)


class TestCheckGroup:
    def test_full_check_on_c6_example(self):
        rep = check_group(PHI6)
        assert rep.passed
        assert rep.group_order == 18
        assert rep.associativity_mode == "full"
        assert rep.triples_checked == 18**3

    def test_identity_morphism(self):
        assert check_group(verify(5, tuple(range(5)))).passed

    def test_alpha5_on_z12(self):
        rep = check_group(automorphism_of(12, 5))
        assert rep.passed and rep.group_order == 24

    def test_sampled_mode_kicks_in(self):
        # order 3 on Z_12: 36**3 triples exceed the budget
        phi = verify(12, (0, 5, 2, 7, 4, 9, 6, 11, 8, 1, 10, 3))
        rep = check_group(phi)
        assert rep.passed and rep.group_order == 36
        assert rep.associativity_mode == "sampled"
        assert rep.triples_checked == SAMPLE_TRIPLES == 500


class TestCoreOfB:
    def test_proper_example(self):
        assert core_of_B(PHI6) == 3

    def test_automorphism_makes_b_normal(self):
        assert core_of_B(automorphism_of(12, 5)) == 12

    def test_identity(self):
        assert core_of_B(verify(7, tuple(range(7)))) == 7

    def test_matches_kernel_for_all_of_c8(self):
        for perm in permutations(range(1, 8)):
            images = (0,) + perm
            try:
                phi = verify(8, images)
            except Exception:
                continue
            assert core_of_B(phi) == phi.kernel_order


class TestInduceFromPair:
    """Left multiplication by c = (0, 1) recovers f: c * (a, 0) = (f(a), pi(a))."""

    @staticmethod
    def round_trips(phi):
        m = phi.order
        return all(
            multiply(phi, (0, 1 % m), (a, 0)) == (phi.images[a], phi.pi[a] % m)
            for a in range(phi.n)
        )

    def test_round_trip_on_all_skew_morphisms_of_c6(self):
        for perm in permutations(range(1, 6)):
            images = (0,) + perm
            try:
                phi = verify(6, images)
            except Exception:
                continue
            assert self.round_trips(phi)

    def test_identity_and_automorphism(self):
        assert self.round_trips(verify(4, (0, 1, 2, 3)))
        assert self.round_trips(automorphism_of(12, 5))
