"""Acceptance suite: one test per criterion, driven through the real surfaces.

A session-scoped store is populated once via the CLI (`census --max 161`);
every criterion then checks exact values against the published census
counts (for n <= 105), the brute-force oracle, the closed-form families,
the invariant suite, and the pinned digests of all 160 census files.
Each test prints a single pass line on success.
"""

import hashlib
import json
import random
import time
from pathlib import Path

import pytest

from skewcyc import cli
from skewcyc.enumeration import brute_force
from skewcyc.families import family_4p
from skewcyc.skew_core import (
    NoPowerExponentError,
    SkewMorphismError,
    equivalence_classes,
    verify,
)
from skewcyc.store import Store

from naive import naive_classes

MAX_N = 105  # the published rows and the invariant suite stop here
PINNED_MAX_N = 161
# sha256 of every census file 2..161, pinned by the census benchmark
PINNED_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "pins.json").read_text()
)["census_files"]

# Published census rows (proper, automorphisms, classes) for n <= 60 ...
TABLE_60 = {
    6: (2, 2, 1), 8: (2, 4, 1), 9: (4, 6, 2), 10: (4, 4, 1), 12: (4, 4, 2),
    14: (6, 6, 1), 16: (12, 8, 4), 18: (24, 6, 6), 20: (16, 8, 3), 21: (12, 12, 1),
    22: (10, 10, 1), 24: (16, 8, 7), 25: (48, 20, 12), 26: (12, 12, 1),
    27: (64, 18, 20), 28: (12, 12, 2), 30: (24, 8, 7), 32: (60, 16, 14),
    34: (16, 16, 1), 36: (48, 12, 12), 38: (18, 18, 1), 39: (24, 24, 1),
    40: (44, 16, 9), 42: (52, 12, 7), 44: (20, 20, 2), 45: (16, 24, 8),
    46: (22, 22, 1), 48: (64, 16, 20), 49: (180, 42, 30), 50: (152, 20, 18),
    52: (48, 24, 3), 54: (246, 18, 33), 55: (40, 40, 1), 56: (48, 24, 11),
    57: (36, 36, 1), 58: (28, 28, 1), 60: (80, 16, 17),
}
# ... and for 60 < n <= 105.
TABLE_EXT = {
    62: (30, 30, 1), 63: (44, 36, 7), 64: (268, 32, 42), 66: (60, 20, 13),
    68: (64, 32, 3), 70: (72, 24, 11), 72: (156, 24, 36), 74: (36, 36, 1),
    75: (96, 40, 24), 76: (36, 36, 2), 78: (104, 24, 9), 80: (152, 32, 26),
    81: (676, 54, 110), 82: (40, 40, 1), 84: (104, 24, 14), 86: (42, 42, 1),
    88: (80, 40, 15), 90: (216, 24, 36), 92: (44, 44, 2), 93: (60, 60, 1),
    94: (46, 46, 1), 96: (272, 32, 58), 98: (480, 42, 38), 99: (40, 60, 20),
    100: (512, 40, 42), 102: (96, 32, 19), 104: (132, 48, 13), 105: (48, 48, 4),
}


def _pass(num: int, detail: str) -> None:
    print(f"[acceptance] criterion {num}: PASS ({detail})")


@pytest.fixture(scope="session")
def census_store(tmp_path_factory):
    directory = tmp_path_factory.mktemp("census-store")
    start = time.perf_counter()
    assert cli.main(["census", "--max", str(PINNED_MAX_N), "--store", str(directory)]) == 0
    elapsed = time.perf_counter() - start
    return Store(directory), elapsed


def test_criterion_1_table_reproduction(census_store, capsys):
    store, elapsed = census_store
    # the criterion's own command sequence; censuses up to 60 are already stored
    assert cli.main(["census", "--max", "60", "--store", str(store.directory)]) == 0
    capsys.readouterr()
    assert cli.main(
        ["table", "--from", "2", "--to", "60", "--store", str(store.directory)]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,proper,automorphisms,total,classes"
    got = {}
    for line in lines[1:]:
        n, proper, autos, total, classes = map(int, line.split(","))
        assert total == proper + autos
        got[n] = (proper, autos, classes)
    assert got == TABLE_60  # exact rows, exact inclusion
    assert elapsed < 600, f"census --max {PINNED_MAX_N} took {elapsed:.0f}s"
    with capsys.disabled():
        _pass(1, f"all {len(TABLE_60)} published rows for n <= 60, exact")


def test_criterion_2_extended_reproduction(census_store, capsys):
    store, _ = census_store
    for n in range(61, MAX_N + 1):
        record = store.load(n)
        got = (record.proper_count, record.automorphism_count, record.class_count)
        if n in TABLE_EXT:
            assert got == TABLE_EXT[n], f"n={n}: {got} != {TABLE_EXT[n]}"
        else:
            assert record.proper_count == 0, f"n={n} should admit no proper morphism"
    assert (store.load(96).proper_count, store.load(96).automorphism_count) == (272, 32)
    assert (store.load(100).proper_count, store.load(100).automorphism_count) == (512, 40)
    with capsys.disabled():
        _pass(2, f"all published rows for 60 < n <= {MAX_N}, incl. 96 and 100")


def test_criterion_3_oracle_equivalence(census_store, capsys):
    store, _ = census_store
    start = time.perf_counter()
    for n in range(2, 10):
        expected = [phi.images for phi in brute_force(n)]
        got = [phi.images for phi in store.load(n).morphisms]
        assert got == expected, f"census(n={n}) differs from brute force"
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"oracle sweep took {elapsed:.1f}s"
    with capsys.disabled():
        _pass(3, f"census = brute force for n in 2..9 ({elapsed:.1f}s)")


def test_criterion_4_family_classification(census_store, capsys):
    store, _ = census_store
    for p in (3, 5, 7, 13):
        members = family_4p(p)
        record = store.load(4 * p)
        assert {phi.images for phi in members} == {
            phi.images for phi in record.proper()
        }, f"family_4p({p}) differs from the census proper part"
        expected_count = 4 * p - 4 if p % 4 == 1 else 2 * p - 2
        expected_classes = 3 if p % 4 == 1 else 2
        assert len(members) == expected_count
        assert len(equivalence_classes(members)) == expected_classes
        assert record.class_count == expected_classes
    with capsys.disabled():
        _pass(4, "family_4p = proper census part for p in {3,5,7,13}")


def test_criterion_5_coset_preserving_theorems(census_store, capsys):
    store, _ = census_store

    def all_cp(n):
        return all(phi.coset_preserving for phi in store.load(n).morphisms)

    for n in (24, 40, 56, 48, 80, 30, 42, 66, 70, 105):
        assert all_cp(n), f"n={n} should be all-cp"
    for n in (32, 96):
        assert not all_cp(n), f"n={n} has non-cp"
    with capsys.disabled():
        _pass(5, "all-coset-preserving for 8p/16p/pqr instances; false for 32, 96")


def test_criterion_6_invariant_suite(census_store, capsys):
    store, _ = census_store
    capsys.readouterr()
    # the CLI exits 0 exactly when run_suite finds no violation; it prints them otherwise
    code = cli.main(["check", "--max", str(MAX_N), "--store", str(store.directory)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "all invariants hold over" in out, out
    with capsys.disabled():
        _pass(6, f"zero violations over all stored censuses up to {MAX_N}")


def test_criterion_7_negative_controls(census_store, capsys):
    store, _ = census_store
    rng = random.Random(20260810)
    for n in (6, 8, 12):
        known = {phi.images for phi in store.load(n).morphisms}
        if n <= 9:
            assert known == {phi.images for phi in brute_force(n)}
        rejected = 0
        accepted = []
        while rejected < 1000:
            tail = list(range(1, n))
            rng.shuffle(tail)
            images = (0, *tail)
            try:
                verify(n, images)
            except NoPowerExponentError as exc:
                assert 0 <= exc.element < n  # concrete witness element
                rejected += 1
            except SkewMorphismError:  # pragma: no cover - perms always fix 0 here
                rejected += 1
            else:
                accepted.append(images)
        # no false accepts: anything verify passes must be a known skew morphism
        assert all(images in known for images in accepted), f"false accept at n={n}"
    with capsys.disabled():
        _pass(7, "1000 witnessed rejections per n in {6,8,12}, no false accepts")


def test_census_files_match_pinned_digests(census_store, capsys):
    store, _ = census_store
    assert sorted(map(int, PINNED_DIGESTS)) == list(range(2, PINNED_MAX_N + 1))
    differing = [
        n
        for n in range(2, PINNED_MAX_N + 1)
        if hashlib.sha256(store.path_for(n).read_bytes()).hexdigest() != PINNED_DIGESTS[str(n)]
    ]
    assert differing == [], f"census files differ from the pinned digests: {differing}"
    with capsys.disabled():
        _pass(8, f"census files 2..{PINNED_MAX_N} byte-identical to the pinned digests")


def test_loaded_entries_match_verify_and_naive_classes(census_store, capsys):
    store, _ = census_store
    cold = Store(store.directory)  # the fixture's store may already hold records
    checked = 0
    for n in range(2, MAX_N + 1):
        record = cold.load(n)
        for phi in record.morphisms:
            assert phi == verify(n, phi.images), f"n={n}: loaded values differ from verify"
        proper = record.proper()
        id_of = {
            images: cid
            for cid, (_rep, members) in enumerate(naive_classes(proper))
            for images in members
        }
        expected = tuple(id_of.get(phi.images, -1) for phi in record.morphisms)
        assert record.class_ids == expected, f"n={n}: class ids differ from naive_classes"
        checked += record.total
    with capsys.disabled():
        _pass(9, f"{checked} loaded entries of 2..{MAX_N} equal verify and naive_classes")
