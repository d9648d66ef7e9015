import random
from itertools import permutations
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewcyc import skew_core
from skewcyc.enumeration import brute_force, census
from skewcyc.skew_core import (
    IdentityNotFixedError,
    InternalCheckError,
    NoPowerExponentError,
    NotInKernelError,
    NotPermutationError,
    NotPreservedError,
    automorphism_of,
    conjugates,
    equivalence_classes,
    induced_on_quotient,
    power,
    power_table,
    verify,
)
from skewcyc.store import MemoryStore

from naive import (
    naive_classes,
    naive_conjugate,
    naive_conjugates,
    naive_is_skew,
    naive_kernel,
    naive_order,
    naive_pi,
    naive_power,
    naive_power_table,
    naive_units,
    naive_witness,
    perm_powers,
)
from test_invariants import _damaged_copies

PHI6 = (0, 3, 2, 5, 4, 1)  # the canonical proper skew morphism of Z_6


@pytest.fixture(scope="module")
def proper_up_to_60():
    store = MemoryStore()
    return {n: census(n, store).proper() for n in range(2, 61)}


@pytest.fixture(scope="module")
def census_up_to_30():
    store = MemoryStore()
    return [phi for n in range(2, 31) for phi in census(n, store).morphisms]


class TestVerify:
    def test_automorphism_alpha5_on_z12(self):
        phi = verify(12, [5 * a % 12 for a in range(12)])
        assert phi.pi == (1,) * 12
        assert phi.order == 2
        assert phi.kernel_order == 12
        assert phi.automorphism and phi.coset_preserving

    def test_proper_skew_morphism_of_z6(self):
        # expected values confirmed by the exhaustive naive oracle
        assert naive_pi(6, PHI6) == [1, 2, 1, 2, 1, 2]
        phi = verify(6, PHI6)
        assert phi.order == 3
        assert phi.pi == (1, 2, 1, 2, 1, 2)
        assert phi.kernel_order == 3
        assert {a for a in range(6) if phi.pi[a] == 1} == {0, 2, 4}
        assert phi.proper and phi.coset_preserving

    def test_non_skew_rejected_with_witness(self):
        assert not naive_is_skew(6, (0, 2, 1, 3, 5, 4))
        with pytest.raises(NoPowerExponentError) as exc:
            verify(6, (0, 2, 1, 3, 5, 4))
        assert 0 <= exc.value.element < 6

    def test_not_permutation(self):
        with pytest.raises(NotPermutationError):
            verify(4, (0, 1, 1, 3))
        with pytest.raises(NotPermutationError):
            verify(4, (0, 1, 2))

    @pytest.mark.parametrize(
        "images", [[0, 1.9, 2], [0, 1.0, 2], ["0", "1", "2"], [0, None, 2]]
    )
    def test_non_integer_images_rejected(self, images):
        with pytest.raises(NotPermutationError):
            verify(3, images)

    def test_numpy_integers_accepted(self):
        phi = verify(6, np.array(PHI6))
        assert phi.images == PHI6 and all(type(v) is int for v in phi.images)
        assert verify(6, [np.int32(v) for v in PHI6]) == phi

    def test_identity_not_fixed(self):
        with pytest.raises(IdentityNotFixedError):
            verify(4, (1, 0, 2, 3))

    def test_trivial_groups(self):
        assert verify(1, (0,)).order == 1
        assert verify(2, (0, 1)).pi == (1, 1)
        _assert_matches_naive(1, (0,))
        _assert_matches_naive(2, (0, 1))

    def test_agrees_with_naive_oracle_exhaustively_n6(self):
        for perm in permutations(range(1, 6)):
            images = (0,) + perm
            expected = naive_pi(6, images)
            if expected is None:
                with pytest.raises(NoPowerExponentError):
                    verify(6, images)
            else:
                assert list(verify(6, images).pi) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 30), st.randoms(use_true_random=False))
    def test_agrees_with_naive_oracle_random(self, n, rng):
        tail = list(range(1, n))
        rng.shuffle(tail)
        images = (0, *tail)
        if naive_is_skew(n, images):
            phi = verify(n, images)
            assert list(phi.pi) == naive_pi(n, images)
        else:
            with pytest.raises(NoPowerExponentError):
                verify(n, images)


def test_perm_order():
    assert verify(9, tuple(range(9))).order == 1
    assert verify(6, PHI6).order == 3
    assert verify(12, tuple(5 * a % 12 for a in range(12))).order == 2


def _assert_matches_naive(n, images):
    """verify raises with the naive witness, or returns the naive pi."""
    witness = naive_witness(n, images)
    if witness is None:
        assert list(verify(n, images).pi) == naive_pi(n, images)
    else:
        with pytest.raises(NoPowerExponentError) as exc:
            verify(n, images)
        assert exc.value.element == witness, (n, images)


def _orbit_of_one_is_short(images):
    length, x = 1, images[1]
    while x != 1:
        length, x = length + 1, images[x]
    return length < naive_order(images)


class TestWitness:
    """The least failing element, against direct loops over every exponent."""

    def test_random_permutations_up_to_12(self):
        rng = random.Random(5)
        short = 0
        for n in range(2, 13):
            for _ in range(200):
                tail = list(range(1, n))
                rng.shuffle(tail)
                images = (0, *tail)
                short += _orbit_of_one_is_short(images)
                _assert_matches_naive(n, images)
        # the orbit of 1 pins the exponent only modulo its own length here
        assert short > 0

    def test_census_entries_with_two_images_swapped(self, census_up_to_30):
        rng = random.Random(6)
        for phi in census_up_to_30:
            if phi.n < 3:
                continue
            images = list(phi.images)
            a, b = rng.sample(range(1, phi.n), 2)
            images[a], images[b] = images[b], images[a]
            _assert_matches_naive(phi.n, tuple(images))


class TestKernelCosetRows:
    """`verify` stops at the least a >= 1 with pi(a) = 1 and tiles pi with
    that period; pi and the witness must still be the naive ones."""

    def test_random_bijective_lift_shaped_candidates(self):
        # f(j + k*r) = prefix[j] + k*T, the shape both searches build; with
        # gcd(T, n) = r and the prefix distinct mod r it is a bijection
        rng = random.Random(14)
        verdicts = []
        for n in range(2, 25):
            divisors = [r for r in range(1, n + 1) if n % r == 0]
            for _ in range(30):
                r = rng.choice(divisors)
                T = rng.choice([t for t in range(0, n, r) if gcd(t, n) == r])
                residues = [0, *rng.sample(range(1, r), r - 1)]
                prefix = [0] + [res + r * rng.randrange(n // r) for res in residues[1:]]
                images = [0] * n
                for j in range(r):
                    for k in range(n // r):
                        images[j + k * r] = (prefix[j] + k * T) % n
                images = tuple(images)
                _assert_matches_naive(n, images)
                verdicts.append(naive_witness(n, images) is None)
        assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100

    def test_shift_identity_at_two_does_not_hide_witness_one(self):
        images = (0, 1, 4, 5, 2, 3)
        # f(x + 2) = f(x) + f(2) for all x, so 2 would end the loop ...
        assert all(images[(x + 2) % 6] == (images[x] + images[2]) % 6 for x in range(6))
        # ... but row 1 fails first, and is the witness
        assert naive_witness(6, images) == 1
        with pytest.raises(NoPowerExponentError) as exc:
            verify(6, images)
        assert exc.value.element == 1

    def test_automorphism_stops_at_one(self, monkeypatch):
        images = tuple(5 * a % 12 for a in range(12))
        gathers = []
        real = skew_core.itemgetter

        def counting(*indices):
            getter = real(*indices)

            def gather(seq):
                gathers.append(indices)
                return getter(seq)

            return gather

        monkeypatch.setattr(skew_core, "itemgetter", counting)
        assert verify(12, images).pi == (1,) * 12
        # the order test f^2 = 1 (the orbit of 1 has two points), the rows 0
        # and 1, and the periodicity check in _finish: one gather each, where
        # a check of all twelve rows would make fourteen
        assert len(gathers) == 4


def test_derived_fields_match_the_oracle():
    # every skew morphism of Z_n, n <= 8: the kernel order, order,
    # periodicity and both flags that verify derives from its row loop,
    # against the oracle's power function and direct loops over it
    for n in range(1, 9):
        for phi in brute_force(n):
            f = phi.images
            pi, powers = naive_pi(n, f), perm_powers(f)
            order = naive_order(f)
            periodicity = next(
                p for p in range(1, order + 1)
                if all(pi[powers[p % order][x]] == pi[x] for x in range(n))
            )
            coset_preserving = all(pi[f[x]] == pi[x] for x in range(n))
            automorphism = all(
                f[(a + b) % n] == (f[a] + f[b]) % n for a in range(n) for b in range(n)
            )
            want = (len(naive_kernel(n, f)), order, periodicity, coset_preserving, automorphism)
            got = (
                phi.kernel_order, phi.order, phi.periodicity, phi.coset_preserving,
                phi.automorphism,
            )
            assert list(phi.pi) == pi and got == want, (n, f)


class TestPeriodicity:
    def test_automorphisms_have_periodicity_one(self):
        for n, s in [(12, 5), (7, 3), (9, 2)]:
            assert automorphism_of(n, s).periodicity == 1

    def test_proper_example(self):
        assert verify(6, PHI6).periodicity == 1

    def test_identity(self):
        assert verify(7, tuple(range(7))).periodicity == 1


class TestPower:
    def test_zeroth_power_is_identity(self):
        phi = verify(6, PHI6)
        assert power(phi, 0) == tuple(range(6))

    def test_power_matches_order(self):
        phi = verify(6, PHI6)
        assert power(phi, 3) == tuple(range(6))
        assert power(phi, 1) == PHI6
        assert power(phi, 2) == tuple(PHI6[PHI6[a]] for a in range(6))

    def test_alpha5_squared(self):
        phi = automorphism_of(12, 5)
        assert power(phi, 2) == tuple(range(12))

    def test_gathers_equal_the_generator_loops(self):
        store = MemoryStore()
        morphisms = [verify(1, (0,))]
        morphisms += [phi for n in range(2, 41) for phi in census(n, store).morphisms]
        for phi in morphisms:
            m = phi.order
            for e in range(2 * m):
                assert power(phi, e) == naive_power(phi.images, m, e), (phi, e)
            for count in {1, 2, m}:
                assert power_table(phi.images, count) == naive_power_table(phi.images, count)


class TestAutomorphismOf:
    def test_examples(self):
        assert automorphism_of(12, 5).order == 2
        assert automorphism_of(7, 3).order == 6
        with pytest.raises(ValueError):
            automorphism_of(6, 4)


class TestInducedOnQuotient:
    def test_collapses_to_identity_on_z2(self):
        phi = verify(6, PHI6)
        ind = induced_on_quotient(phi, 3)
        assert ind.n == 2 and ind.images == (0, 1)

    def test_trivial_subgroup_returns_same_map(self):
        phi = verify(6, PHI6)
        assert induced_on_quotient(phi, 1).images == phi.images

    def test_whole_group(self):
        phi = automorphism_of(12, 5)
        assert induced_on_quotient(phi, 12).n == 1

    def test_subgroup_not_in_kernel(self):
        phi = verify(6, PHI6)  # kernel {0, 2, 4}
        with pytest.raises(NotInKernelError):
            induced_on_quotient(phi, 2)  # subgroup {0, 3}


class TestRestrictToKernel:
    """f preserves its kernel K and acts on it as an automorphism of K."""

    @staticmethod
    def restrict(phi):
        d = phi.n // phi.kernel_order
        images = [phi.images[k * d] for k in range(phi.kernel_order)]
        assert all(v % d == 0 for v in images)
        res = verify(phi.kernel_order, [v // d for v in images])
        assert res.automorphism
        return res

    def test_proper_example_restricts_to_identity(self):
        res = self.restrict(verify(6, PHI6))
        assert res.n == 3 and res.images == (0, 1, 2)

    def test_automorphism_restricts_to_itself(self):
        phi = automorphism_of(12, 5)
        assert self.restrict(phi).images == phi.images

    def test_identity(self):
        phi = verify(7, tuple(range(7)))
        assert self.restrict(phi).images == tuple(range(7))


class TestConjugate:
    def test_conjugate_by_one_is_identity_action(self):
        phi = verify(6, PHI6)
        assert conjugates(phi)[phi.images] == phi

    def test_conjugate_example(self):
        # value confirmed by direct computation + naive oracle
        assert naive_pi(6, (0, 5, 2, 1, 4, 3)) is not None
        orbit = conjugates(verify(6, PHI6))
        assert orbit[(0, 5, 2, 1, 4, 3)] == verify(6, (0, 5, 2, 1, 4, 3))

    def test_automorphisms_are_fixed(self):
        phi = automorphism_of(12, 5)
        assert conjugates(phi) == {phi.images: phi}

    def test_rejects_non_unit(self):
        # the orbit is taken over the units 1, 5 of Z_6 only; 3 is no automorphism
        assert list(conjugates(verify(6, PHI6))) == [PHI6, (0, 5, 2, 1, 4, 3)]
        with pytest.raises(ValueError):
            automorphism_of(6, 3)

    def test_matches_the_per_unit_loop_on_every_leader_to_60(self, proper_up_to_60):
        # one conjugate per stabilizer coset: same keys, same key order, same values
        for n, proper in proper_up_to_60.items():
            for orbit in equivalence_classes(proper):
                leader = next(iter(orbit.values()))
                assert list(conjugates(leader).items()) == list(naive_conjugates(leader).items()), n

    @pytest.mark.parametrize(
        "phi",
        [
            automorphism_of(12, 5),  # the stabilizer is every unit
            verify(2, (0, 1)),
            verify(1, (0,)),
            # the stabilizer is {1}: all 12 units of Z_21 give distinct conjugates
            verify(21, (0, 4, 11, 3, 7, 14, 6, 10, 17, 9, 13, 20, 12, 16, 2, 15, 19, 5, 18, 1, 8)),
        ],
        ids=["automorphism", "n2", "n1", "trivial-stabilizer"],
    )
    def test_matches_the_per_unit_loop_on_edge_cases(self, phi):
        orbit = list(conjugates(phi).items())
        assert orbit == list(naive_conjugates(phi).items())
        assert orbit[0] == (phi.images, phi)
        assert len(orbit) == (1 if phi.automorphism else len(naive_units(phi.n)))

    def test_values_equal_verify(self, census_up_to_30):
        for phi in census_up_to_30:
            orbit = conjugates(phi)
            assert phi.images in orbit
            assert set(orbit) == {naive_conjugate(phi.images, t) for t in naive_units(phi.n) or [1]}
            for images, value in orbit.items():
                assert value == verify(phi.n, images)


class TestEquivalenceClasses:
    """`equivalence_classes` returns conjugation orbits.  Read as classes,
    against `naive_classes`: a class's representative is the least key of
    its orbit, its members the listed images in the orbit."""

    def test_two_proper_of_z6_form_one_class(self):
        pair = [verify(6, PHI6), verify(6, (0, 5, 2, 1, 4, 3))]
        (orbit,) = equivalence_classes(pair)
        assert list(orbit) == [PHI6, (0, 5, 2, 1, 4, 3)]
        assert orbit == conjugates(pair[0])

    def test_automorphisms_are_singletons(self):
        autos = [automorphism_of(12, s) for s in (1, 5, 7, 11)]
        assert equivalence_classes(autos) == [{phi.images: phi} for phi in autos]

    def test_empty(self):
        assert equivalence_classes([]) == []

    @staticmethod
    def as_images(morphisms):
        """The classes of `morphisms`, read off their orbits, in the form
        of `naive_classes`: repeats kept, members sorted, classes sorted."""
        listed = [phi.images for phi in morphisms]
        return sorted(
            (min(orbit), sorted(images for images in listed if images in orbit))
            for orbit in equivalence_classes(morphisms)
        )

    @staticmethod
    def assert_contract(morphisms):
        """Each orbit is the naive conjugation orbit of the first listed
        morphism not in an earlier orbit, keyed first by its images, and
        holds it as listed; the orbits are disjoint and cover the list."""
        orbits = equivalence_classes(morphisms)
        leaders, placed = [], set()
        for phi in morphisms:
            if phi.images not in placed:
                leaders.append(phi)
                placed |= {naive_conjugate(phi.images, t) for t in naive_units(phi.n) or [1]}
        assert len(orbits) == len(leaders)
        for orbit, leader in zip(orbits, leaders):
            assert next(iter(orbit)) == leader.images
            assert orbit[leader.images] == leader
            assert set(orbit) == {
                naive_conjugate(leader.images, t) for t in naive_units(leader.n) or [1]
            }
        keys = [key for orbit in orbits for key in orbit]
        assert len(keys) == len(set(keys)), "orbits overlap"
        assert {phi.images for phi in morphisms} <= set(keys), "a listed morphism is in no orbit"

    def test_matches_naive_classes_up_to_60(self, proper_up_to_60):
        for proper in proper_up_to_60.values():
            self.assert_contract(proper)
            assert self.as_images(proper) == naive_classes(proper)

    def test_matches_naive_classes_on_non_closed_lists(self, proper_up_to_60):
        for n in (9, 16, 18, 25, 27, 32, 49, 54):
            proper = proper_up_to_60[n]
            for subset in (proper[::2], proper[1::3], proper[-1:], proper[:5] + proper[:2]):
                self.assert_contract(subset)
                assert self.as_images(subset) == naive_classes(subset)
            # a subset that lacks a representative still names it
            first = equivalence_classes(proper)[0]
            members = [phi for phi in proper if phi.images in first]
            rest = members[1:]
            if rest:
                (orbit,) = equivalence_classes(rest)
                assert orbit == first
                assert min(orbit) == members[0].images
                assert next(iter(orbit)) == rest[0].images

    def test_contract_on_damaged_lists(self, census_up_to_30):
        # the invariant suite partitions lines that need not be skew morphisms
        damaged = [copy for phi in census_up_to_30 for copy in _damaged_copies(phi.n, phi)]
        for n in range(2, 31):
            lines = [phi for phi in damaged if phi.n == n]
            self.assert_contract(lines)
            assert self.as_images(lines) == naive_classes(lines)

    def test_a_list_over_two_orders_keeps_them_apart(self):
        # images of different lengths never share an orbit
        store = MemoryStore()
        z6, z12 = census(6, store).morphisms, census(12, store).morphisms
        mixed = [phi for pair in zip(z12, z6) for phi in pair] + list(z12[len(z6):])
        self.assert_contract(mixed)
        assert self.as_images(mixed) == naive_classes(mixed)
        assert all(len(set(map(len, orbit))) == 1 for orbit in equivalence_classes(mixed))


class TestStructuralInvariants:
    """Spec-level invariants on every verified morphism, over a small sweep."""

    def _all_skew(self, n):
        out = []
        for perm in permutations(range(1, n)):
            images = (0,) + perm
            try:
                out.append(verify(n, images))
            except Exception:
                pass
        return out

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_sweep(self, n):
        from math import gcd

        for phi in self._all_skew(n):
            # fixed points lie in the kernel
            for a in range(n):
                if phi.images[a] == a:
                    assert phi.pi[a] == 1
            # generating orbit of 1 has size ord
            orbit = {1}
            x = phi.images[1]
            while x != 1:
                orbit.add(x)
                x = phi.images[x]
            assert len(orbit) == phi.order
            # power function constant exactly on kernel cosets
            step = n // phi.kernel_order
            for a in range(n):
                for b in range(n):
                    assert (phi.pi[a] == phi.pi[b]) == (a % step == b % step)
            # f^{periodicity} is coset-preserving skew
            fp = verify(n, power(phi, phi.periodicity))
            assert fp.coset_preserving
            # order bounds
            if n >= 2:
                assert phi.order < n and phi.kernel_order >= 2
            if phi.proper:
                assert gcd(phi.order, phi.kernel_order) > 1
                assert gcd(phi.order, n) > 1
