import dataclasses
from itertools import permutations

import pytest

from skewcyc.cyclic_arith import units
from skewcyc.enumeration import census
from skewcyc.quotient import check_quotient_laws, quotient_of
from skewcyc.skew_core import automorphism_of, power, verify
from skewcyc.store import MemoryStore

from naive import naive_conjugate

PHI6 = verify(6, (0, 3, 2, 5, 4, 1))


def all_skew(n):
    out = []
    for perm in permutations(range(1, n)):
        try:
            out.append(verify(n, (0,) + perm))
        except Exception:
            pass
    return out


class TestQuotientOf:
    def test_proper_example_gives_inversion_on_z3(self):
        q = quotient_of(PHI6)
        assert q.n == 3
        assert q.images == (0, 2, 1)
        assert q.order == 2 == 6 // PHI6.kernel_order

    def test_automorphism_gives_identity_quotient(self):
        q = quotient_of(automorphism_of(12, 5))
        assert q.n == 2 and q.images == (0, 1)
        assert q.is_identity

    def test_identity_gives_identity_on_z1(self):
        q = quotient_of(verify(9, tuple(range(9))))
        assert q.n == 1 and q.images == (0,)

    def test_rejects_non_unit_generator(self):
        with pytest.raises(ValueError):
            quotient_of(PHI6, 2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_invariants_exhaustively(self, n):
        for phi in all_skew(n):
            q = quotient_of(phi)
            assert q.order * phi.kernel_order == n
            assert q.is_identity == phi.automorphism
            if phi.proper:
                assert q.automorphism == phi.coset_preserving


@pytest.fixture(scope="module")
def proper_up_to_60():
    store = MemoryStore()
    return {n: census(n, store).proper() for n in range(2, 61)}


class TestQuotientForGenerator:
    """The quotient for the generator u is the u-th power of the quotient
    for 1, Q_u(f) = Q(f)^u (proved in the `quotient` module docstring)."""

    def test_example(self):
        # PHI6 has quotient (0, 2, 1) on Z_3, of order 2; for the generator
        # 5 the orbit 5, 1, 3 meets pi = 2, 2, 1, so Q = (0, 2, 1)^5 again
        rho = quotient_of(PHI6)
        assert power(rho, 5) == quotient_of(PHI6, 5).images == (0, 2, 1)

    def test_identity_quotient_for_every_generator(self):
        assert power(verify(4, (0, 1, 2, 3)), 3) == (0, 1, 2, 3)
        assert power(verify(1, (0,)), 7) == (0,)

    def test_equals_quotient_of_for_every_unit(self, proper_up_to_60):
        pairs = 0
        for n, proper in proper_up_to_60.items():
            for phi in proper:
                rho = quotient_of(phi)
                for u in units(n):
                    assert power(rho, u) == quotient_of(phi, u).images, (phi.images, u)
                    pairs += 1
        assert pairs == 32040

    @pytest.mark.parametrize("n", [12, 27, 32, 45, 54])
    def test_conjugating_changes_the_generator(self, proper_up_to_60, n):
        # the quotient of t*f*t^{-1} is the quotient of f for the generator
        # t^{-1}; on Z_12 no conjugation moves a quotient, on the others some do
        moved = 0
        for phi in proper_up_to_60[n]:
            for t in units(n):
                conjugated = verify(n, naive_conjugate(phi.images, t))
                assert quotient_of(conjugated) == quotient_of(phi, pow(t, -1, n))
                moved += quotient_of(conjugated) != quotient_of(phi)
        assert (moved > 0) == (n != 12)


class TestBarpiIndex:
    """The coset index t with f^k(g) in K + t*g, i.e. f^k(g) * g^{-1} mod
    n/|K|, which law (c) of `check_quotient_laws` compares with pi_bar."""

    @staticmethod
    def barpi_index(phi, g, k):
        r = phi.n // phi.kernel_order
        if r == 1:
            return 0
        x = g % phi.n
        for _ in range(k % phi.order):
            x = phi.images[x]
        return x * pow(g, -1, r) % r

    def test_examples(self):
        assert self.barpi_index(PHI6, 1, 0) == 1
        assert self.barpi_index(PHI6, 1, 1) == 1  # f(1) = 3 = 1 mod 2
        a5 = automorphism_of(12, 5)
        assert all(self.barpi_index(a5, 1, k) == 0 for k in range(4))


class TestQuotientLaws:
    def test_proper_example_passes(self):
        rep = check_quotient_laws(PHI6)
        assert rep.passed, rep.failures
        assert rep.quotient == quotient_of(PHI6)

    def test_identity_passes(self):
        assert check_quotient_laws(verify(7, tuple(range(7)))).passed

    def test_trivial_group_reports_generator_zero(self):
        rep = check_quotient_laws(verify(1, (0,)), 1)
        assert rep.passed and rep.generator_g == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_all_generators_all_morphisms(self, n):
        for phi in all_skew(n):
            for g in units(n) or [1]:
                rep = check_quotient_laws(phi, g)
                assert rep.passed, (n, phi.images, g, rep.failures)

    def test_a_tampered_orbit_trips_law_c(self):
        # f(3) and f(4) of PHI6 swapped: the orbit of 1 becomes 1, 3, 4 and
        # meets the kernel coset 0 at k = 2, while the quotient is unchanged
        case = dataclasses.replace(PHI6, images=(0, 3, 2, 4, 5, 1))
        rep = check_quotient_laws(case)
        assert rep.quotient == quotient_of(PHI6)
        assert rep.failures == ["law (c) fails at k=2: coset index 0 != pi_bar 1"]
