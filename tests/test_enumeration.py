import contextlib
import dataclasses
from concurrent.futures import ProcessPoolExecutor
from math import gcd

import pytest

import skewcyc.enumeration as enum
import skewcyc.quotient
import skewcyc.skew_core
from skewcyc import cli
from skewcyc.cyclic_arith import euler_phi, mult_order, units
from skewcyc.enumeration import (
    CensusRecord,
    DuplicateFoundError,
    OrbitTemplate,
    automorphisms,
    brute_force,
    census,
    cp_search_tasks,
    enumerate_coset_preserving,
    lift,
)
from skewcyc.quotient import quotient_of
from skewcyc.skew_core import InternalCheckError, equivalence_classes, power, verify
from skewcyc.store import IncompleteCensusError, MemoryStore, Store

from naive import (
    naive_census,
    naive_coset_preserving,
    naive_cp_base_search,
    naive_lift,
    naive_partial_sums,
    naive_seed_rows,
    naive_seed_survivors,
)


@pytest.fixture(scope="module")
def store():
    s = MemoryStore()
    for n in range(2, 43):
        census(n, s)
    return s


class TestAutomorphisms:
    def test_counts(self):
        assert len(automorphisms(6)) == 2
        assert len(automorphisms(12)) == 4
        assert len(automorphisms(1)) == 1

    def test_all_have_trivial_power_function(self):
        for phi in automorphisms(20):
            assert phi.automorphism and set(phi.pi) == {1}

    def test_closed_form_equals_verify(self):
        for n in range(1, 61):
            expected = sorted(
                (verify(n, tuple(s * x % n for x in range(n))) for s in units(n) or [1]),
                key=lambda phi: phi.images,
            )
            assert automorphisms(n) == expected


class TestEnumerateCosetPreserving:
    def test_c6(self):
        got = [phi.canonical_str() for phi in enumerate_coset_preserving(6)]
        assert got == ["0,1,2,3,4,5", "0,3,2,5,4,1", "0,5,2,1,4,3", "0,5,4,3,2,1"]

    def test_c12_has_four_proper(self):
        cp = enumerate_coset_preserving(12)
        assert len(cp) == 8
        assert sum(1 for phi in cp if phi.proper) == 4

    def test_prime_order_gives_only_automorphisms(self):
        cp = enumerate_coset_preserving(7)
        assert len(cp) == 6 and all(phi.automorphism for phi in cp)

    def test_never_returns_non_coset_preserving(self):
        for n in (9, 16, 18, 20):
            assert all(phi.coset_preserving for phi in enumerate_coset_preserving(n))

    def test_against_brute_force(self):
        for n in range(2, 10):
            expected = [phi.images for phi in brute_force(n) if phi.coset_preserving]
            got = [phi.images for phi in enumerate_coset_preserving(n)]
            assert got == expected


class TestLift:
    def test_no_lift_into_c12(self):
        # every proper skew morphism of Z_12 is coset-preserving
        rho = verify(6, (0, 3, 2, 5, 4, 1))
        assert lift(rho, 12, enumerate_coset_preserving(12)) == []

    def test_order_must_divide_n(self):
        rho = verify(6, (0, 3, 2, 5, 4, 1))  # order 3
        assert lift(rho, 8, enumerate_coset_preserving(8)) == []

    def test_rejects_automorphism_quotient(self):
        with pytest.raises(ValueError):
            lift(verify(4, (0, 3, 2, 1)), 8, enumerate_coset_preserving(8))

    def test_c32_lifts_fill_the_census(self, store):
        # Z_32 is the smallest 2-power with non-coset-preserving morphisms
        record = store.load(32)
        non_cp = [phi for phi in record.morphisms if not phi.coset_preserving]
        assert non_cp, "Z_32 must have non-coset-preserving skew morphisms"
        assert record.total == 76
        cp = enumerate_coset_preserving(32)
        regenerated = []
        for rho_images in sorted({quotient_of(phi).images for phi in non_cp}):
            rho = verify(len(rho_images), rho_images)
            regenerated.extend(lift(rho, 32, cp))
        assert sorted(phi.images for phi in regenerated) == [phi.images for phi in non_cp]

    def test_lift_results_are_not_coset_preserving(self, store):
        record = store.load(32)
        for phi in record.morphisms:
            if not phi.coset_preserving:
                assert quotient_of(phi).proper


class TestCensus:
    @pytest.mark.parametrize(
        "n,proper,autos,classes",
        [(4, 0, 2, 0), (6, 2, 2, 1), (24, 16, 8, 7), (42, 52, 12, 7)],
    )
    def test_counts(self, store, n, proper, autos, classes):
        record = store.load(n)
        assert (record.proper_count, record.automorphism_count, record.class_count) == (
            proper,
            autos,
            classes,
        )

    def test_oracle_equivalence(self, store):
        for n in range(2, 10):
            assert [phi.images for phi in store.load(n).morphisms] == [
                phi.images for phi in brute_force(n)
            ]

    def test_no_proper_rule(self, store):
        from math import gcd

        for n in range(2, 43):
            expected = n == 4 or gcd(n, euler_phi(n)) == 1
            assert (store.load(n).proper_count == 0) == expected

    def test_partition(self, store):
        for n in (24, 32, 36, 42):
            for phi in store.load(n).morphisms:
                q = quotient_of(phi)
                cats = [
                    q.is_identity and phi.automorphism,
                    (not q.is_identity) and q.automorphism and phi.coset_preserving,
                    q.proper and not phi.coset_preserving,
                ]
                assert sum(cats) == 1

    def test_proper_orders_share_factor_with_n(self, store):
        from math import gcd

        for n in (18, 24, 30, 36, 42):
            for phi in store.load(n).proper():
                assert gcd(phi.order, n) > 1

    def test_record_postconditions_reject_duplicates(self):
        phi = verify(6, (0, 3, 2, 5, 4, 1))
        with pytest.raises(AssertionError):
            CensusRecord(n=6, morphisms=(phi, phi), class_ids=(0, 0))


class TestBruteForce:
    def test_counts(self):
        assert len(brute_force(5)) == 4
        assert len(brute_force(6)) == 4
        assert len(brute_force(8)) == 6

    def test_guard(self):
        with pytest.raises(ValueError):
            brute_force(11)


class TestOrbitTemplate:
    def test_orbit_value_layout(self):
        # stepper of order 3 on Z_12 with two threads (p = 2, m = 6)
        psi = verify(12, (0, 5, 2, 7, 4, 9, 6, 11, 8, 1, 10, 3))
        template = OrbitTemplate(
            m=6, p=2, psi=psi, x=((2, 7),), needed_positions=frozenset({1, 3, 5})
        )
        assert template.orbit_value(0) == 1
        assert template.orbit_value(1) == 7
        assert template.orbit_value(2) == psi.images[1]
        assert template.orbit_value(3) == psi.images[7]
        assert template.orbit_value(4) == psi.images[psi.images[1]]

    def test_validation(self):
        psi = verify(12, (0, 5, 2, 7, 4, 9, 6, 11, 8, 1, 10, 3))
        with pytest.raises(AssertionError):
            OrbitTemplate(m=6, p=2, psi=psi, x=((5, 7),), needed_positions=frozenset())
        with pytest.raises(AssertionError):
            OrbitTemplate(m=9, p=2, psi=psi, x=(), needed_positions=frozenset())


def test_orbit_lifts_match_one_lift_per_source():
    # census lifts one quotient per conjugation orbit and conjugates the
    # lifts; every n <= 60 must equal the loop that lifts each source
    store = MemoryStore()
    conjugated = 0
    for n in range(2, 61):
        expected = naive_census(n, store)
        got = census(n, store)
        assert [phi.images for phi in got.morphisms] == [
            phi.images for phi in expected.morphisms
        ], n
        assert got.class_ids == expected.class_ids, n
        sources = enum.lift_sources(n, store)
        conjugated += len(sources) - len(enum._lift_orbits(sources))
    assert conjugated > 0


def test_lift_orbits_are_the_generators_of_each_cyclic_group():
    # the quotients of the conjugates of a lift of rho are the generators
    # rho^v of <rho>, v a unit of Z_R: each group has phi(R) members, all
    # of them sources, and every source is in exactly one group
    store = MemoryStore()
    groups = 0
    for n in range(2, 61):
        sources = enum.lift_sources(n, store)
        images = {rho.images for rho in sources}
        seen = []
        for rho in enum._lift_orbits(sources):
            orbit = {power(rho, v) for v in units(rho.order)}
            assert len(orbit) == euler_phi(rho.order), (n, rho.images)
            assert orbit <= images, (n, rho.images)
            seen += orbit
            groups += 1
        assert sorted(seen) == sorted(images), n
    assert groups > 0


@pytest.mark.parametrize("n", [27, 32])
def test_a_non_skew_source_fails_the_census_unsaved(monkeypatch, n):
    # rho0 agrees with a lifted rho on the orbit of 1 and on pi but not
    # elsewhere, and is no skew morphism: `dataclasses.replace` skips
    # `verify`.  The lift reads rho0's orbit of 1, pi, order and kernel, all
    # rho's, and proves each lift's quotient from its source being skew, so
    # rho0's lifts are rho's; rho0 is not a power of rho, so its group is
    # lifted too and the census meets each lift twice.  It must fail before
    # it saves anything
    store = MemoryStore()
    expected = naive_census(n, store)
    sources = enum.lift_sources(n, store)
    lifted = {quotient_of(phi).images for phi in expected.proper() if not phi.coset_preserving}
    rho = next(rho for rho in sources if rho.images in lifted and rho.order <= rho.n - 3)
    m = rho.n
    orbit_of_1 = [1]
    while len(orbit_of_1) < rho.order:
        orbit_of_1.append(rho.images[orbit_of_1[-1]])
    a, b = [x for x in range(1, m) if x not in orbit_of_1][:2]
    images = list(rho.images)
    images[a], images[b] = images[b], images[a]
    rho0 = dataclasses.replace(rho, images=tuple(images))
    monkeypatch.setattr(enum, "lift_sources", lambda n, store: [rho0] + sources)
    with pytest.raises(DuplicateFoundError):
        census(n, store)
    assert not store.has(n)


def test_cp_search_tasks_examples():
    # Z_6 admits exactly one base-search task: quotients alpha_2 on Z_3
    assert cp_search_tasks(6) == [(3, 2)]
    # prime order admits none
    assert cp_search_tasks(7) == []


def _record_prefilter_calls(orders):
    """Arguments of every pre-filter call (one per lift task) of the census
    of each n in `orders`, in order, into one empty store."""
    calls = []
    batched = enum._batched_seed_survivors

    def record(*args):
        calls.append(args)
        return batched(*args)

    store = MemoryStore()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enum, "_batched_seed_survivors", record)
        for n in orders:
            census(n, store)
    return calls


@pytest.fixture(scope="module")
def prefilter_calls():
    """Arguments of the pre-filter calls of census(54) from an empty store
    (the lifts of 9, 16, 18, 27, 36 and 54): every lift task takes one,
    down to one free thread and stacks of fewer than 64 rows."""
    calls = _record_prefilter_calls([54])
    # a few tasks of each shape (n, m, R, p, steppers, free threads, kernel order)
    by_shape = {}
    for args in calls:
        n, m, big_r, p, psis, free, pools, _orbit_l = args
        shape = (n, m, big_r, p, len(psis), len(free), len(pools[0]))
        by_shape.setdefault(shape, []).append(args)
    return [args for group in by_shape.values() for args in group[:3]]


def _rows(args) -> int:
    """The (stepper, seed combination) rows of a pre-filter call."""
    psis, free, pools = args[4], args[5], args[6]
    return len(psis) * len(pools[0]) ** len(free)


def _row_index(args, survivor) -> int:
    """The index of a survivor's row in `product(range(len(psis)), product(*pools))`.

    A survivor replays its seeds, so the seed of free thread j is the value
    at position j of its orbit of 1 under f(j + k*R) = prefix[j] + k*T."""
    n, _m, big_r, _p, _psis, free, pools, _orbit_l = args
    k, prefix, total = survivor
    orb = [1]
    for _ in range(max(free)):
        x = orb[-1]
        orb.append((prefix[x % big_r] + (x // big_r) * total) % n)
    index = k
    for j, pool in zip(free, pools):
        index = index * len(pool) + pool.index(orb[j])
    return index


def test_prefilter_matches_scalar_walk():
    # on every lift task of 2..60 the pre-filter keeps exactly the rows the
    # scalar walk of `naive_seed_survivors` keeps, with the same period sums
    calls = _record_prefilter_calls(range(2, 61))
    assert (len(calls), sum(map(_rows, calls))) == (84, 31054)
    assert len({args[1:4] for args in calls}) >= 4
    # the shapes a task of one free thread or a small stack has
    assert any(len(args[5]) == 1 for args in calls)
    assert any(_rows(args) < 64 for args in calls)
    kept = stacked = 0
    for args in calls:
        expected = list(naive_seed_survivors(*args))
        assert list(enum._batched_seed_survivors(*args)) == expected
        kept += len(expected)
        stacked += len({k for k, _prefix, _total in expected}) > 1
    assert kept > 0
    assert stacked > 0  # some stack has survivors under two steppers


def _joined_rows(args):
    """The row ids that `_seed_join` hands the walk in the pre-filter call
    `args`, ascending, and its survivors; None for the rows when the call
    takes no join (a task with one free thread)."""
    joined = []
    join = enum._seed_join

    def record(*join_args):
        joined.append(join(*join_args))
        return joined[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enum, "_seed_join", record)
        found = list(enum._batched_seed_survivors(*args))
    assert len(joined) == (len(args[5]) >= 2)
    return (joined[0].tolist() if joined else None), found


def test_seed_join_keeps_exactly_the_rows_that_pass_the_total_and_seed_checks():
    # on every lift task of 2..60 and on the six (81, 54, 27, 18) tasks, the
    # join keeps the rows whose period total and seed replay pass, no more;
    # those include every row the scalar walk keeps, checked where it is
    # cheap (one (81, 54, 27, 18) task takes it 2.5 s)
    calls = _record_prefilter_calls(range(2, 61))
    wide = [args for args in _record_prefilter_calls([81]) if args[:4] == (81, 54, 27, 18)]
    assert len(wide) == 6 and all(_rows(args) == 39366 for args in wide)
    joins = kept = wide_rows = 0
    for args in calls + wide:
        rows, found = _joined_rows(args)
        if rows is None:
            assert len(args[5]) == 1
            continue
        assert rows == list(naive_seed_rows(*args))
        assert {_row_index(args, survivor) for survivor in found} <= set(rows)
        if args in calls:
            scalar = {_row_index(args, survivor) for survivor in naive_seed_survivors(*args)}
            assert scalar <= set(rows)
            kept += len(scalar)
        else:
            wide_rows += len(rows)
        joins += 1
    assert joins > 0 and kept > 0
    assert wide_rows == 54  # of the 6 * 39,366 rows of the seed products


def test_seed_join_only_discards(prefilter_calls, monkeypatch):
    # with every key colliding, the join hands the walk the whole product,
    # and the pre-filter's output does not change
    whole = [list(enum._batched_seed_survivors(*args)) for args in prefilter_calls]
    monkeypatch.setattr(enum, "_join_hash", lambda parts, kord: parts[0] * 0)
    joined = [_joined_rows(args) for args in prefilter_calls]
    assert [found for _rows_of, found in joined] == whole
    products = [(rows, _rows(args)) for args, (rows, _found) in zip(prefilter_calls, joined) if rows]
    assert products and all(rows == list(range(size)) for rows, size in products)


def test_prefilter_chunks_agree(prefilter_calls, monkeypatch):
    # no walk of 2..161 fills a chunk; shrink it so that chunk boundaries
    # cut the joined rows of a call
    joined = [_joined_rows(args) for args in prefilter_calls]
    monkeypatch.setattr(enum, "_CHUNK", 7)
    assert [list(enum._batched_seed_survivors(*args)) for args in prefilter_calls] == [
        found for _rows_of, found in joined
    ]
    spread = 0
    for args, (rows, found) in zip(prefilter_calls, joined):
        if rows is not None:
            spread = max(spread, len({rows.index(_row_index(args, row)) // 7 for row in found}))
    assert spread > 1  # some call yields survivors from several chunks of its joined rows


def test_prefilter_chunk_boundaries_inside_and_between_steppers(prefilter_calls):
    # a chunk size that divides the c0 >= 2 joined rows of the first
    # stepper puts a boundary between two joined rows of that stepper and
    # one between it and the next stepper's rows
    stacked = cut = 0
    for args in prefilter_calls:
        if len(args[4]) < 2 or len(args[5]) < 2:
            continue
        rows, found = _joined_rows(args)
        steppers = [row // (_rows(args) // len(args[4])) for row in rows]
        c0 = steppers.count(steppers[0]) if rows else 0
        if c0 < 2 or c0 == len(rows):
            continue
        size = max(d for d in range(1, c0) if c0 % d == 0)
        bounds = range(size, len(rows), size)
        inside = any(steppers[b - 1] == steppers[b] for b in bounds)
        between = any(steppers[b - 1] != steppers[b] for b in bounds)
        assert inside and between
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(enum, "_CHUNK", size)
            assert list(enum._batched_seed_survivors(*args)) == found
        stacked += len({k for k, _prefix, _total in found}) > 1
        cut += 1
    assert cut > 0 and stacked > 0


def test_census_builds_no_quotient(monkeypatch):
    # the lift proves the quotient of each lift (`_realize_lift`) and the cp
    # search that of each solution (`_realize_candidate`), so no step of the
    # census builds one (`check` holds the stored quotients to the censuses
    # of their orders); every `quotient_of` call, under any imported name,
    # verifies its quotient through `skewcyc.quotient._verified_once`
    built: list[int] = []
    verified_once = skewcyc.quotient._verified_once

    def counted(n, images):
        built.append(n)
        return verified_once(n, images)

    monkeypatch.setattr(skewcyc.quotient, "_verified_once", counted)
    record = census(54, MemoryStore())
    assert built == []
    quotient_of(record.proper()[0])
    assert built == [record.proper()[0].order]  # the count sees a quotient


def test_every_verified_lift_candidate_has_the_quotient_it_lifts(monkeypatch):
    # the proof of `_realize_lift`, checked: every survivor of the
    # pre-filter that `verify` accepts with order m has the quotient rho,
    # those that the lift skips as members of a class it built included
    lifting: list = []
    survivors = checked = realized = 0
    lift_with_psis, batched = enum._lift_with_psis, enum._batched_seed_survivors
    realize_lift, verified_of_order = enum._realize_lift, enum._verified_of_order

    def lift_of(rho, n, psis):
        lifting.append(rho)
        try:
            return lift_with_psis(rho, n, psis)
        finally:
            lifting.pop()

    def prefilter(n, m, big_r, *rest):
        nonlocal survivors, checked
        for survivor in batched(n, m, big_r, *rest):
            _k, prefix, total = survivor
            sk = verified_of_order(n, m, big_r, prefix, total)
            if sk is not None:
                assert quotient_of(sk) == lifting[-1], sk.canonical_str()
                checked += 1
            survivors += 1
            yield survivor

    def realize(*args):
        nonlocal realized
        realized += 1
        return realize_lift(*args)

    monkeypatch.setattr(enum, "_lift_with_psis", lift_of)
    monkeypatch.setattr(enum, "_batched_seed_survivors", prefilter)
    monkeypatch.setattr(enum, "_realize_lift", realize)
    enum.census_range(MemoryStore(), 81)
    assert checked > 0
    assert survivors > realized > 0  # the lift skipped some survivors before `verify`


def test_each_lift_class_is_verified_once(monkeypatch):
    # on 2..81, `_realize_lift` accepts exactly once per class of lifts,
    # every survivor the lift skips is a member of a class it built before
    # in the same task, and `lift` returns what the per-survivor loop of
    # `naive_lift` keeps, for every source
    # per lift task, its events in order: ("survivor" | "accept" | "reject", images)
    # and ("class", the images of its members)
    tasks: list = []
    lift_with_psis, batched = enum._lift_with_psis, enum._batched_seed_survivors
    realize_lift, conjugates = enum._realize_lift, enum.conjugates

    def images_of(n, big_r, prefix, total):
        return tuple((prefix[a % big_r] + a // big_r * total) % n for a in range(n))

    def lift_of(rho, n, psis):
        tasks.append([])
        return lift_with_psis(rho, n, psis)

    def prefilter(n, m, big_r, *rest):
        for survivor in batched(n, m, big_r, *rest):
            tasks[-1].append(("survivor", images_of(n, big_r, *survivor[1:])))
            yield survivor

    def realize(n, m, big_r, prefix, total):
        sk = realize_lift(n, m, big_r, prefix, total)
        tasks[-1].append(("accept" if sk else "reject", images_of(n, big_r, prefix, total)))
        return sk

    def closed(phi):
        orbit = conjugates(phi)
        if tasks and tasks[-1] and tasks[-1][-1][0] == "accept":  # not a cp class
            tasks[-1].append(("class", set(orbit)))
        return orbit

    monkeypatch.setattr(enum, "_lift_with_psis", lift_of)
    monkeypatch.setattr(enum, "_batched_seed_survivors", prefilter)
    monkeypatch.setattr(enum, "_realize_lift", realize)
    monkeypatch.setattr(enum, "conjugates", closed)
    store = MemoryStore()
    classes = skipped = 0
    for n in range(2, 82):
        tasks.clear()
        record = census(n, store)
        accepted = 0
        for task in tasks:
            built: set = set()
            for i, (kind, images) in enumerate(task):
                if kind == "survivor" and (i + 1 == len(task) or task[i + 1][0] == "survivor"):
                    assert images in built, (n, images)
                    skipped += 1
                elif kind == "accept":
                    assert images not in built and task[i + 1][0] == "class"
                    assert images in task[i + 1][1]
                    accepted += 1
                elif kind == "class":
                    built |= images
        lifted = {
            cid
            for phi, cid in zip(record.morphisms, record.class_ids)
            if phi.proper and not phi.coset_preserving
        }
        assert accepted == len(lifted), n
        classes += accepted
        cp = enumerate_coset_preserving(n)
        for rho in enum.lift_sources(n, store):
            got = [phi.images for phi in lift(rho, n, cp)]
            assert got == naive_lift(rho, n, cp), (n, rho.images)
    assert classes > 0 and skipped > 0


def test_needed_thread_pruning_is_sound(monkeypatch, tmp_path):
    # seed every thread 1..p-1, not only those that hold a needed orbit
    # position; the stored census of 2..48 must not change by a byte
    def run(directory):
        store = Store(directory)
        for n in range(2, 49):
            census(n, store)
        return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}

    expected = run(tmp_path / "pruned")
    widened = 0
    pruned = enum._free_threads

    def every_thread(orbit_l, p):
        nonlocal widened
        widened += p - 1 - len(pruned(orbit_l, p))
        return list(range(1, p))

    monkeypatch.setattr(enum, "_free_threads", every_thread)
    assert run(tmp_path / "every") == expected
    assert widened > 0


def test_cp_base_search_matches_orbit_walk(monkeypatch):
    # the closed-form search against the step-by-step walk of every (u, w)
    # pair: the members of the returned classes that lie in the task are
    # the walk's morphisms, each class is led by its first in (u, w) order,
    # and there is one acceptance call per period-m pair whose candidate is
    # a bijection that replays its orbit of 1, passes the kernel test and
    # is in no class built before (the loop turns the other pairs away)
    calls = 0
    realize = enum._realize_candidate

    def counted(*args):
        nonlocal calls
        calls += 1
        return realize(*args)

    monkeypatch.setattr(enum, "_realize_candidate", counted)
    tasks = found = pruned = skipped = 0
    for n in range(2, 61):
        for m, s in cp_search_tasks(n):
            calls = 0
            expected, period_m, replayed, realized = naive_cp_base_search(n, m, s)
            classes = enum._cp_base_search(n, m, s)
            members = [g.images for cls in classes for g in cls.values() if g.pi[1] % m == s]
            assert sorted(members) == sorted(expected), (n, m, s)
            leaders = [next(iter(cls)) for cls in classes]
            assert leaders == sorted(leaders, key=expected.index), (n, m, s)
            assert calls == realized, (n, m, s)
            tasks += 1
            found += len(expected)
            pruned += period_m - replayed
            skipped += replayed - realized
    assert (tasks, found) == (326, 818)
    assert pruned > 0 and skipped > 0


def test_unit_partial_sums_match_the_naive_sums():
    for kq in range(1, 61):
        table = enum._unit_partial_sums(kq)
        assert [u for u, _sums in table] == units(kq), kq
        for u, sums in table:
            assert sums == naive_partial_sums(u, kq), (kq, u)


def test_a_cp_morphism_is_fixed_by_its_first_images():
    # the lemma behind the skip key of `_cp_base_search`: r = n/|kernel| lies
    # in the kernel, so f(j + k*r) = f(j) + k*f(r), and images[:r+1] fix f
    checked = 0
    for n in range(2, 61):
        for f in enumerate_coset_preserving(n):
            if f.proper:
                r = n // f.kernel_order
                head = f.images[: r + 1]
                rebuilt = tuple((head[k % r] + k // r * head[r]) % n for k in range(n))
                assert rebuilt == f.images, (n, f.images)
                checked += 1
    assert checked == 818


def test_cp_search_order_changes_nothing(monkeypatch):
    # the groups run sorted by r, to share the partial sums of a kernel
    # order; run in reverse, every list, class and record is the same
    expected = {n: enum._coset_preserving(n) for n in range(2, 61)}
    groups = enum._search_groups
    monkeypatch.setattr(enum, "_search_groups", lambda n: groups(n)[::-1])
    reordered = 0
    for n, (cp, classes) in expected.items():
        got_cp, got_classes = enum._coset_preserving(n)
        assert got_cp == cp, n
        assert sorted(got_classes, key=min) == sorted(classes, key=min), n
        got = enum._finalize_census(n, got_cp, got_classes)
        assert got == enum._finalize_census(n, cp, classes), n
        reordered += [next(iter(c)) for c in got_classes] != [next(iter(c)) for c in classes]
    assert reordered > 0


def test_cp_task_bound_only_prunes_empty_tasks():
    # the orbit of 1 lies in the coset 1 + K, |K| = n/r, so a task with
    # m*r > n has no period-m pair; `cp_search_tasks` drops those tasks
    tasks = 0
    for n in range(2, 61):
        for m in enum._candidate_orders(n):
            for s in units(m):
                r = mult_order(s, m)
                if s == 1 or n % r or m * r <= n:
                    continue
                assert enum._cp_base_search(n, m, s) == [], (n, m, s)
                assert naive_cp_base_search(n, m, s)[1] == 0, (n, m, s)
                tasks += 1
    assert tasks == 452


@pytest.fixture(scope="module")
def cp_without_kernel_test():
    """enumerate_coset_preserving(n) for n <= 60 with `_kernel_test` always passing."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enum, "_kernel_test", lambda *args: True)
        return {n: enumerate_coset_preserving(n) for n in range(2, 61)}


def test_kernel_test_holds_for_every_proper_cp_morphism(cp_without_kernel_test):
    # f(k*r) = k*T, so the period total T is f(r); the quotient alpha_s has s = pi(1) mod m
    checked = 0
    for n, cp in cp_without_kernel_test.items():
        for f in cp:
            if f.automorphism:
                continue
            m = f.order
            s = f.pi[1] % m
            r = mult_order(s, m)
            total = f.images[r]
            assert gcd(total, n) == r, (n, f.images)
            assert pow(total // r, s - 1, n // r) == 1, (n, f.images)
            assert enum._kernel_test(n, r, s, total), (n, f.images)
            checked += 1
    assert checked == 818  # every solution of the 326 tasks of 2..60


def test_kernel_test_only_prunes(cp_without_kernel_test, monkeypatch):
    # `_cp_base_search` calls `_kernel_test` in its (u, w) loop, before
    # any candidate is built, and it turns some pairs away
    rejected = 0
    kernel_test = enum._kernel_test

    def counted(*args):
        nonlocal rejected
        passed = kernel_test(*args)
        rejected += not passed
        return passed

    monkeypatch.setattr(enum, "_kernel_test", counted)
    assert {n: enumerate_coset_preserving(n) for n in range(2, 61)} == cp_without_kernel_test
    assert rejected > 0


def test_each_cp_class_is_verified_once(monkeypatch):
    # the kernel test leaves verify no reject here, one searched task per
    # <s> meets each conjugation class in one orbit of its own conjugates,
    # the rest of that orbit is skipped before verify, and the orbit is
    # built once, by the search (`conjugates` is counted in both modules)
    calls = {"verify": 0, "conjugates": 0}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    count(enum, "verify")
    count(enum, "conjugates")
    count(skewcyc.skew_core, "conjugates")
    for n in [*range(2, 61), *range(145, 149)]:
        calls.update(verify=0, conjugates=0)
        proper = [phi for phi in enumerate_coset_preserving(n) if phi.proper]
        made = dict(calls)
        classes = len(equivalence_classes(proper))
        assert made == {"verify": classes, "conjugates": classes}, n


@pytest.mark.parametrize("jobs", [1, 2])
def test_grouped_tasks_match_per_task_search(jobs, monkeypatch):
    # conjugating the solutions of the least s of each <s> gives exactly
    # what a search of every task finds, SkewMorphism values included
    searched = 0
    search = enum._cp_base_search

    def counted(*args):
        nonlocal searched
        searched += 1
        return search(*args)

    monkeypatch.setattr(enum, "_cp_base_search", counted)
    orders = [*range(2, 61), *range(145, 149)]
    pool = ProcessPoolExecutor(max_workers=2) if jobs == 2 else contextlib.nullcontext()
    with pool as executor:
        for n in orders:
            assert enumerate_coset_preserving(n, executor=executor) == naive_coset_preserving(n), n
    if jobs == 1:
        assert 0 < searched < sum(len(cp_search_tasks(n)) for n in orders)


def test_census_with_an_executor_matches_serial():
    # every order of 2..32 is built on the pool, its lift tasks included;
    # records compare equal with their class ids
    serial, pooled = MemoryStore(), MemoryStore()
    with ProcessPoolExecutor(max_workers=2) as executor:
        for n in range(2, 33):
            assert census(n, pooled, executor=executor) == census(n, serial), n


def test_a_conjugate_in_the_wrong_task_trips_the_check(monkeypatch):
    # (7, 2) and (7, 4) are one group in Z_21; a one-member orbit of a
    # solution of (7, 2) never reaches (7, 4).  The search builds its
    # classes with `conjugates`, which it reads in enumeration.
    monkeypatch.setattr(enum, "conjugates", lambda phi: {phi.images: phi})
    with pytest.raises(InternalCheckError, match="exactly the tasks of its group"):
        enumerate_coset_preserving(21)


def test_a_class_of_lifts_that_misses_a_conjugate_fails_on_load(monkeypatch, tmp_path, capsys):
    # the lift closes its lifts into classes with `conjugates`, which it
    # reads in enumeration, as the load reads it in skew_core; patched in
    # both, one-member orbits split each class of the lifts of Z_9 (which
    # has no coset-preserving search task; the smaller orders are built
    # first, unpatched), and the census saves them so.  The load's class
    # walk, with the true `conjugates`, finds the first class short of a
    # member.
    enum.census_range(Store(tmp_path), 8)
    with monkeypatch.context() as patched:
        for module in (enum, skewcyc.skew_core):
            patched.setattr(module, "conjugates", lambda phi: {phi.images: phi})
        census(9, Store(tmp_path))
    with pytest.raises(IncompleteCensusError, match=r"census_9\.jsonl:3: class 0 lacks 1 of its"):
        Store(tmp_path).load(9)
    capsys.readouterr()
    assert cli.main(["table", "--from", "9", "--to", "9", "--store", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "census_9.jsonl:3: class 0 lacks 1 of its conjugates" in lines[0]


def test_cp_order_bound_is_pruning_only(monkeypatch):
    # m*r <= n only prunes: an orbit of an affine bijection of Z_(n/r) has
    # at most n/r elements, so the tasks it drops find nothing
    def tasks_without_order_bound(n):
        return [
            (m, s)
            for m in enum._candidate_orders(n)
            for s in units(m)
            if s != 1 and n % mult_order(s, m) == 0
        ]

    orders = range(2, 49)
    expected = {n: [sk.images for sk in enumerate_coset_preserving(n)] for n in orders}
    monkeypatch.setattr(enum, "cp_search_tasks", tasks_without_order_bound)
    assert sum(len(tasks_without_order_bound(n)) - len(cp_search_tasks(n)) for n in orders) > 0
    assert {n: [sk.images for sk in enumerate_coset_preserving(n)] for n in orders} == expected


def test_coset_fixing_stepper_filter_is_sound(monkeypatch):
    # keep every stepper of order m/p, not only those fixing each residue
    # mod ord(rho); every seed choice takes the scalar walk of
    # `naive_seed_survivors`, since the pre-filter requires the residue
    # property
    orders = range(2, 49)

    def run():
        store = MemoryStore()
        return {n: [phi.images for phi in census(n, store).morphisms] for n in orders}

    expected = run()
    extra = 0
    filtered = enum.psi_candidates

    def loose(rho, n, cp_list):
        nonlocal extra
        p = rho.n // rho.kernel_order
        kept = [psi for psi in cp_list if psi.order == rho.n // p]
        extra += len(kept) - len(filtered(rho, n, cp_list))
        return kept

    monkeypatch.setattr(enum, "psi_candidates", loose)
    monkeypatch.setattr(enum, "_batched_seed_survivors", naive_seed_survivors)
    assert run() == expected
    assert extra > 0


def test_the_lift_gate_drops_no_lift(monkeypatch):
    # relaxed to R | n, the gate lets every source reach the grouping and
    # the lift; the census of 2..60 must not change, class ids included
    def run():
        store = MemoryStore()
        return [census(n, store) for n in range(2, 61)]

    expected = run()
    dropped = 0
    gate = enum._can_lift

    def relaxed(rho, n):
        nonlocal dropped
        divides = n % rho.order == 0
        dropped += divides and not gate(rho, n)
        return divides

    monkeypatch.setattr(enum, "_can_lift", relaxed)
    assert run() == expected
    assert dropped > 0


def test_a_source_the_gate_drops_has_no_lift(monkeypatch):
    # every proper rho with R | n that the gate drops, lifted with every
    # stepper of order m/p and every seed choice (as in
    # `test_coset_fixing_stepper_filter_is_sound`), has no lift
    monkeypatch.setattr(enum, "_batched_seed_survivors", naive_seed_survivors)
    store = MemoryStore()
    dropped = stepped = 0
    for n in range(2, 49):
        cp = enumerate_coset_preserving(n)
        for m in enum._candidate_orders(n):
            for rho in census(m, store).proper():
                if n % rho.order or enum._can_lift(rho, n):
                    continue
                p = m // rho.kernel_order
                psis = [psi for psi in cp if psi.order == m // p]
                assert enum._lift_with_psis(rho, n, psis) == [], (n, rho.images)
                dropped += 1
                stepped += bool(psis)
    assert dropped > 0 and stepped > 0
