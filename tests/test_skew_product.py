import dataclasses
from itertools import permutations

import numpy as np
import pytest

from skewcyc.enumeration import brute_force
from skewcyc.skew_core import automorphism_of, verify
from skewcyc.skew_product import _PairTables, check_group, core_of_B

from naive import naive_group_axioms

PHI6 = verify(6, (0, 3, 2, 5, 4, 1))


def multiply(phi, x, y):
    """x * y = (a, i) * (b, j) in the pair model of phi, as a pair of ints."""
    n, m = phi.n, phi.order
    a, i = _PairTables([phi]).products(x[0] % n, x[1] % m, y[0] % n, y[1] % m)
    return a.item(), i.item()


class TestMultiply:
    def test_identity_element(self):
        for pair in [(0, 0), (3, 1), (5, 2)]:
            assert multiply(PHI6, (0, 0), pair) == pair
            assert multiply(PHI6, pair, (0, 0)) == pair

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
        assert rep.triples_checked == 2 * 18**2

    def test_identity_morphism(self):
        assert check_group(verify(5, tuple(range(5)))).passed

    def test_alpha5_on_z12(self):
        rep = check_group(automorphism_of(12, 5))
        assert rep.passed and rep.group_order == 24

    def test_order_36_group_is_checked_in_full(self):
        # order 3 on Z_12: past the old 20,000-triple budget of the full mode
        phi = verify(12, (0, 5, 2, 7, 4, 9, 6, 11, 8, 1, 10, 3))
        rep = check_group(phi)
        assert rep.passed and rep.group_order == 36
        assert rep.associativity_mode == "full"
        assert rep.triples_checked == 2 * 36**2

    @staticmethod
    def tampered(phi):
        """phi with its power function flattened, with pi(0) changed and
        with each other pi entry bumped in turn (same images and order)."""
        m = phi.order
        yield dataclasses.replace(phi, pi=(1,) * phi.n)
        for a in range(phi.n):
            pi = list(phi.pi)
            pi[a] = pi[a] % m + 1
            yield dataclasses.replace(phi, pi=tuple(pi))

    def test_agrees_with_naive_triple_loop(self):
        verdicts = set()
        for n in range(2, 10):
            for phi in brute_force(n):
                if n * phi.order > 27:
                    continue
                for case in (phi, *self.tampered(phi)):
                    failed = naive_group_axioms(case.images, case.pi)
                    rep = check_group(case)
                    assert rep.passed == (not failed), case
                    # each failure message starts with the name of its law
                    assert {f.split()[0] for f in rep.failures} == failed, case
                    verdicts.add(frozenset(failed))
        assert frozenset() in verdicts
        assert frozenset({"identity", "inverse", "associativity"}) in verdicts

    def test_a_stack_checks_each_row_alone(self):
        # one stack per (n, order) mixes genuine morphisms with their
        # tampered-pi cases: each row's verdict must be its own
        rows = 0
        for n in range(2, 10):
            by_order = {}
            for phi in brute_force(n):
                if n * phi.order <= 27:
                    by_order.setdefault(phi.order, []).extend((phi, *self.tampered(phi)))
            for stack in by_order.values():
                tables = _PairTables(stack)
                cores = tables.cores()
                for k, (case, rep) in enumerate(zip(stack, tables.group_reports())):
                    failed = naive_group_axioms(case.images, case.pi)
                    assert rep.passed == (not failed), case
                    assert {f.split()[0] for f in rep.failures} == failed, case
                    assert rep == check_group(case), case
                    if not failed:
                        assert cores[k] == core_of_B(case), case
                rows += len(stack)
        assert rows > 100

    @pytest.mark.parametrize(
        "phi",
        [
            # pi of PHI6 raised to 2 away from 0: only the exponent coordinate fails
            dataclasses.replace(PHI6, pi=(1, 2, 2, 2, 2, 2)),
            # x -> -x on Z_5 with another odd involution as images: only the
            # translation coordinate fails
            dataclasses.replace(automorphism_of(5, 4), images=(0, 2, 1, 4, 3)),
        ],
        ids=["exponent-coordinate", "translation-coordinate"],
    )
    def test_catches_a_loop_that_is_not_a_group(self, phi):
        # identity and two-sided inverses hold, associativity does not
        assert naive_group_axioms(phi.images, phi.pi) == {"associativity"}
        rep = check_group(phi)
        assert rep.failures == ["associativity fails at (0, 1),(1, 0),(1, 0)"]

    @pytest.mark.parametrize("pi", [(1, 3, 1, 2, 1, 2), (1, 2, 1, 2, 1, 1)])
    def test_rejects_a_power_function_with_s_m_off_zero(self, pi):
        # pi(0) = 1 keeps the identity law, but s_m(c), the sum of pi(f^t(c))
        # over t < m, is not 0 mod m for some c
        phi = dataclasses.replace(PHI6, pi=pi)
        t = _PairTables([phi])
        s_m = (t.prefix[0, -1] + np.array(pi)[t.powers[0, -1]]) % t.m
        assert pi[0] == 1 and s_m.any()
        failed = naive_group_axioms(phi.images, phi.pi)
        rep = check_group(phi)
        assert "associativity" in failed
        assert {f.split()[0] for f in rep.failures} == failed


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
