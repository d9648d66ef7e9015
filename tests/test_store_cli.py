import concurrent.futures
import dataclasses
import errno
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skewcyc.skew_core
import skewcyc.store
from skewcyc import cli
from skewcyc.enumeration import census, enumerate_coset_preserving
from skewcyc.skew_core import InternalCheckError, verify
from skewcyc.store import (
    IncompleteCensusError,
    MemoryStore,
    NotComputedError,
    SchemaMismatchError,
    Store,
    StoreEntry,
    VerificationFailedOnLoadError,
    _line,
    emit_table,
)

from naive import naive_entry_json

# sha256 of every census file 2..161, pinned by the census benchmark
PINNED_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "pins.json").read_text()
)["census_files"]


@pytest.fixture()
def store(tmp_path):
    return Store(tmp_path / "store")


@pytest.fixture(scope="module")
def census_to_60():
    """A memory store holding the census of every order 2..60."""
    memory = MemoryStore()
    for n in range(2, 61):
        census(n, memory)
    return memory


@pytest.fixture()
def parsed(monkeypatch):
    """Every line `StoreEntry.from_json` parses while the test runs."""
    lines = []
    from_json = StoreEntry.from_json

    def counted(cls, line):
        lines.append(line)
        return from_json(line)

    monkeypatch.setattr(StoreEntry, "from_json", classmethod(counted))
    return lines


class TestStore:
    def test_save_load_round_trip(self, store):
        record = census(6, store)
        store._cache.clear()
        loaded = store.load(6)
        assert loaded == record

    def test_save_is_byte_deterministic(self, store, tmp_path):
        record = census(6, store)
        first = store.path_for(6).read_bytes()
        other = Store(tmp_path / "other")
        other.save(record)
        assert other.path_for(6).read_bytes() == first

    def test_missing_census(self, store):
        with pytest.raises(NotComputedError):
            store.load(6)

    def test_tampered_images_fail_on_load(self, store):
        census(6, store)
        path = store.path_for(6)
        lines = path.read_text().splitlines()
        entry = json.loads(lines[1])
        entry["images"] = entry["images"][:1] + entry["images"][1:][::-1]
        lines[1] = json.dumps(entry, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        store._cache.clear()
        with pytest.raises(VerificationFailedOnLoadError):
            store.load(6)

    def test_float_image_fails_on_load(self, store):
        census(6, store)
        path = store.path_for(6)
        lines = path.read_text().splitlines()
        entry = json.loads(lines[1])
        entry["images"][1] = float(entry["images"][1])
        lines[1] = json.dumps(entry, separators=(",", ":"))
        assert '.0,' in lines[1]
        path.write_text("\n".join(lines) + "\n")
        store._cache.clear()
        with pytest.raises(VerificationFailedOnLoadError, match="not a skew morphism"):
            store.load(6)

    def test_tampered_metadata_fails_on_load(self, store):
        census(6, store)
        path = store.path_for(6)
        lines = path.read_text().splitlines()
        entry = json.loads(lines[1])
        entry["order"] += 1
        lines[1] = json.dumps(entry, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        store._cache.clear()
        with pytest.raises(VerificationFailedOnLoadError):
            store.load(6)

    def test_schema_version_mismatch(self, store):
        census(6, store)
        path = store.path_for(6)
        lines = path.read_text().splitlines()
        entry = json.loads(lines[0])
        entry["schema_version"] = 99
        lines[0] = json.dumps(entry, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        store._cache.clear()
        with pytest.raises(SchemaMismatchError):
            store.load(6)

    def test_file_cut_at_a_line_boundary_fails_on_load(self, store):
        census(6, store)
        path = store.path_for(6)
        path.write_text("".join(path.read_text().splitlines(True)[:-1]))
        store._cache.clear()
        with pytest.raises(IncompleteCensusError, match="census_6.jsonl: 1 automorphisms"):
            store.load(6)

    def test_save_leaves_stale_temp_file_alone(self, store):
        store.directory.mkdir()  # the store makes it only on its first save
        stale = store.directory / "census_6.jsonl.tmp"
        stale.write_text("stale")
        path = store.save(census(6, MemoryStore()))
        assert path == store.path_for(6)
        assert stale.read_text() == "stale"
        assert sorted(p.name for p in store.directory.iterdir()) == [
            "census_6.jsonl",
            "census_6.jsonl.tmp",
        ]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_DIGESTS["6"]

    def test_store_entry_json_round_trip(self, store):
        record = census(8, store)
        for phi, cid in zip(record.morphisms, record.class_ids):
            entry = StoreEntry.from_json(_line(phi, cid))
            assert (entry.n, entry.images, entry.pi, entry.class_id) == (8, phi.images, phi.pi, cid)
            assert StoreEntry.from_json(entry.to_json()) == entry

    def test_to_json_matches_json_dumps(self, census_to_60):
        entries = []
        for record in map(census_to_60.load, range(2, 61)):
            for phi, cid in zip(record.morphisms, record.class_ids):
                line = _line(phi, cid)
                # the oracle reads phi's own pi, not the one period `_line` joins
                fields = (phi.images, phi.order, phi.kernel_order, phi.pi)
                flags = (phi.coset_preserving, phi.automorphism)
                assert line == naive_entry_json(StoreEntry(phi.n, *fields, *flags, cid))
                entries.append(StoreEntry.from_json(line))
        # values a census never holds: the table of 0..n must not misspell them
        entries += [
            StoreEntry(1, (0,), 1, 1, (1,), True, True, -1),  # n = 1
            StoreEntry(6, (0, 5, 4, 3, 2, 1), 2, 6, (1,) * 6, True, True, 10**6),
            StoreEntry(4, (0, 3, 9, 1), 3, 2, (1, 2, 1, 2), False, False, 2),  # 9 > n
            StoreEntry(5, (0, -1, 3, -4, 2), 4, 1, (-3, 1, 2, 1, -1), True, False, 0),
        ]
        for entry in entries:
            assert entry.to_json() == naive_entry_json(entry)
        phi = next(phi for phi in census_to_60.load(12).morphisms if phi.proper)
        d = phi.n // phi.kernel_order
        assert d < phi.n and phi.pi[d] == phi.pi[0] == 1
        # the first period kept, a value past it changed: a join over one
        # period would write a pi this morphism does not hold
        bad = dataclasses.replace(phi, pi=phi.pi[:d] + (2,) + phi.pi[d + 1 :])
        with pytest.raises(InternalCheckError, match="period"):
            _line(bad, 0)

    def test_an_os_error_while_saving_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "replace", full_disk)
        store_dir = tmp_path / "s"
        assert cli.main(["census", "--max", "4", "--store", str(store_dir)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "census_2.jsonl" in lines[0] and os.strerror(errno.ENOSPC) in lines[0]
        assert list(store_dir.iterdir()) == []

    def test_saved_census_matches_pinned_digests(self, store, census_to_60):
        for n in range(2, 61):
            store.save(census_to_60.load(n))
        differing = [
            n
            for n in range(2, 61)
            if hashlib.sha256(store.path_for(n).read_bytes()).hexdigest() != PINNED_DIGESTS[str(n)]
        ]
        assert differing == []

    def test_loaded_values_equal_verify_up_to_60(self, store, census_to_60, monkeypatch):
        for n in range(2, 61):
            store.save(census_to_60.load(n))
        calls = []

        def counting_verify(n, images):
            calls.append(n)
            return verify(n, images)

        monkeypatch.setattr(skewcyc.store, "verify", counting_verify)
        cold = Store(store.directory)
        loaded = [cold.load(n) for n in range(2, 61)]
        # only the least member of each class went through verify ...
        assert len(calls) == sum(record.class_count for record in loaded)
        # ... and every value built by closed form or by conjugation is verify's
        for record in loaded:
            assert record == census_to_60.load(record.n)
            for phi in record.morphisms:
                assert phi == verify(record.n, phi.images)

    def test_a_cold_load_parses_one_line_per_class_up_to_60(self, store, census_to_60, parsed):
        for n in range(2, 61):
            store.save(census_to_60.load(n))
        cold = Store(store.directory)
        loaded = [cold.load(n) for n in range(2, 61)]
        # every other line is the bytes `save` writes for a member the walk proved
        assert len(parsed) == sum(record.class_count for record in loaded) == 263
        for record in loaded:
            expected = census_to_60.load(record.n)
            assert record == expected
            assert record.leaders == expected.leaders

    @pytest.mark.parametrize("rewrite", ["default-separators", "one-line-reordered"])
    def test_valid_lines_in_another_layout_load(self, store, parsed, rewrite):
        expected = census(18, MemoryStore())
        store.save(expected)
        path = store.path_for(18)
        lines = path.read_text().splitlines()
        if rewrite == "default-separators":
            lines = [json.dumps(json.loads(line)) for line in lines]
            rewritten = lines
        else:
            entry = json.loads(lines[4])  # a member, not the first line of its class
            lines[4] = json.dumps(dict(reversed(entry.items())), separators=(",", ":"))
            rewritten = [lines[4]]
        path.write_text("\n".join(lines) + "\n")
        record = Store(store.directory).load(18)
        assert record == expected
        assert record.leaders == expected.leaders
        assert set(rewritten) <= set(parsed)

    def test_an_escaped_key_does_not_hide_a_bool(self, store):
        # JSON may escape any key character, so a count of letters in the text
        # (say of the e in every true and false) does not find a bool: this line
        # holds as many e's as a valid one, and the literal count catches it
        census(18, store)
        path = store.path_for(18)
        lines = path.read_text().splitlines()
        entry = json.loads(lines[0])
        entry["images"][1] = True
        damaged = json.dumps(entry, separators=(",", ":")).replace('"images"', '"imag\\u0065s"')
        assert damaged.count("e") == lines[0].count("e")
        lines[0] = damaged
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaMismatchError, match=r":1: images holds a bool, not an integer"):
            Store(store.directory).load(18)


class TestEmitTable:
    def test_rows(self, store):
        for n in range(2, 13):
            census(n, store)
        out = emit_table(6, 6, store)
        assert out == "n,proper,automorphisms,total,classes\n6,2,2,4,1\n"
        # prime order: header only
        assert emit_table(7, 7, store) == "n,proper,automorphisms,total,classes\n"

    def test_md_format(self, store):
        census(6, store)
        out = emit_table(6, 6, store, fmt="md")
        assert "| 6 | 2 | 2 | 4 | 1 |" in out

    def test_missing_range_raises(self, store):
        with pytest.raises(NotComputedError):
            emit_table(2, 4, store)


def _edit_lines(text: str, edit) -> str:
    lines = text.splitlines(True)
    edit(lines)
    return "".join(lines)


def _edit_entry(text: str, index: int, key: str, value) -> str:
    lines = text.splitlines()
    entry = json.loads(lines[index])
    entry[key] = value
    lines[index] = json.dumps(entry, separators=(",", ":"))
    return "\n".join(lines) + "\n"


def _members(entries: list[dict]) -> list[int]:
    """Indices of the proper lines that are not the first of their class."""
    seen: set[int] = set()
    out = []
    for i, entry in enumerate(entries):
        if entry["class_id"] in seen:
            out.append(i)
        seen.add(entry["class_id"])
    return out


def _set(
    entries: list[dict],
    i: int,
    class_id=None,
    pi_bump=None,
    float_image=None,
    float_pi=None,
    bool_image=None,
    bool_pi=None,
) -> None:
    entry = entries[i]
    if class_id is not None:
        entry["class_id"] = class_id
    if pi_bump is not None:
        entry["pi"][pi_bump] += 1
    if float_image is not None:
        entry["images"][float_image] = float(entry["images"][float_image])
    if float_pi is not None:
        entry["pi"][float_pi] = float(entry["pi"][float_pi])
    if bool_image is not None:
        entry["images"][bool_image] = bool(entry["images"][bool_image])
    if bool_pi is not None:
        entry["pi"][bool_pi] = bool(entry["pi"][bool_pi])


def _replace_by_other_class(entries: list[dict]) -> None:
    """Overwrite a member line with the next line, a member of another class,
    keeping its class id; drop that next line, so the file stays sorted."""
    members = _members(entries)
    i = next(
        i
        for i in members
        if i + 1 in members and entries[i + 1]["class_id"] != entries[i]["class_id"]
    )
    entries[i] = dict(entries.pop(i + 1), class_id=entries[i]["class_id"])


def _class_fault_then_order_fault(entries: list[dict]) -> None:
    """A wrong class id on the first member line, and the last two lines
    swapped: the load walks the lines once and names the earlier fault."""
    _set(entries, _members(entries)[0], class_id=1)
    entries[-2:] = entries[:-3:-1]


class TestCli:
    def test_census_table_show(self, tmp_path, capsys):
        store_dir = str(tmp_path / "s")
        assert cli.main(["census", "--max", "12", "--store", store_dir]) == 0
        capsys.readouterr()
        assert cli.main(["table", "--from", "2", "--to", "12", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "12,4,4,8,2" in out
        assert cli.main(["show", "--n", "6", "--store", store_dir, "--proper-only"]) == 0
        out = capsys.readouterr().out
        assert "0,3,2,5,4,1" in out and "0,1,2,3,4,5" not in out

    def test_verify_exit_codes(self, capsys):
        assert cli.main(["verify", "--n", "6", "--perm", "0,3,2,5,4,1"]) == 0
        assert cli.main(["verify", "--perm", "0,2,1,3,5,4"]) == 2
        out = capsys.readouterr().out
        assert "element 1" in out  # witness from the failing candidate

    def test_verify_witness_below_the_shift_period(self, capsys):
        # f(x + 2) = f(x) + f(2) holds for all x, but row 1 fails first
        assert cli.main(["verify", "--perm", "0,1,4,5,2,3"]) == 2
        assert capsys.readouterr().out == (
            "not a skew morphism of Z_6: no power exponent exists for element 1\n"
        )

    def test_oracle(self, tmp_path, capsys):
        store_dir = str(tmp_path / "s")
        assert cli.main(["oracle", "--n", "6", "--store", store_dir]) == 0
        assert cli.main(["oracle", "--n", "11", "--store", store_dir]) == 1

    @pytest.mark.parametrize(
        "p, stdout",
        [
            (3, "p=3: 4 proper skew morphisms of Z_12 in 2 equivalence classes\n"
                "  order 3: 2 members\n  order 6: 2 members\n"),
            (5, "p=5: 16 proper skew morphisms of Z_20 in 3 equivalence classes\n"
                "  order 5: 12 members\n  order 10: 4 members\n"),
            (7, "p=7: 12 proper skew morphisms of Z_28 in 2 equivalence classes\n"
                "  order 7: 6 members\n  order 14: 6 members\n"),
            (13, "p=13: 48 proper skew morphisms of Z_52 in 3 equivalence classes\n"
                 "  order 13: 36 members\n  order 26: 12 members\n"),
            # the largest 4p <= 161 and FAMILY_MAX_P, checked without the census
            (37, "p=37: 144 proper skew morphisms of Z_148 in 3 equivalence classes\n"
                 "  order 37: 108 members\n  order 74: 36 members\n"),
            (199, "p=199: 396 proper skew morphisms of Z_796 in 2 equivalence classes\n"
                  "  order 199: 198 members\n  order 398: 198 members\n"),
        ],
    )
    def test_families(self, tmp_path, capsys, p, stdout):
        check = ["--check-against-census"] if p <= 13 else []
        rc = cli.main(["families", "--p", str(p), *check, "--store", str(tmp_path / "s")])
        assert rc == 0
        if check:
            stdout += f"families equal the proper part of census({4 * p})\n"
        assert capsys.readouterr().out == stdout

    def test_check(self, tmp_path, capsys):
        store_dir = str(tmp_path / "s")
        assert cli.main(["census", "--max", "10", "--store", store_dir]) == 0
        assert cli.main(["check", "--max", "10", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "all invariants hold" in out

    def test_a_cold_check_builds_each_class_once(self, tmp_path, capsys, monkeypatch):
        # the load builds each orbit from its first line and hands the leaders
        # to the record, so `check` builds no orbit again (`conjugates` is read
        # in store and, through `equivalence_classes`, in skew_core)
        store_dir = str(tmp_path / "s")
        assert cli.main(["census", "--max", "32", "--store", store_dir]) == 0
        classes = sum(Store(store_dir).load(n).class_count for n in range(2, 33))
        calls = []
        conjugates = skewcyc.skew_core.conjugates

        def counted(phi):
            calls.append(phi.n)
            return conjugates(phi)

        monkeypatch.setattr(skewcyc.skew_core, "conjugates", counted)
        monkeypatch.setattr(skewcyc.store, "conjugates", counted)
        capsys.readouterr()
        assert cli.main(["check", "--max", "32", "--store", store_dir]) == 0
        assert capsys.readouterr().out == "all invariants hold over 655 morphisms (n <= 32)\n"
        assert len(calls) == classes == 86

    def test_table_missing_store_errors(self, tmp_path, capsys):
        rc = cli.main(["table", "--from", "2", "--to", "6", "--store", str(tmp_path / "x")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: text[:-10],
            lambda text: "5\n" + text,
            lambda text: "".join(text.splitlines(True)[:6]),
            lambda text: "".join(text.splitlines(True)[:-1]),
            lambda text: _edit_lines(text, lambda lines: lines.insert(3, lines.pop(4))),
            lambda text: _edit_lines(text, lambda lines: lines.insert(3, lines[3])),
            lambda text: _edit_entry(text, 1, "class_id", 0),
            lambda text: _edit_entry(text, 1, "class_id", "-1"),
            lambda text: _edit_entry(text, 1, "n", 13.0),
        ],
        ids=[
            "truncated",
            "not-an-object",
            "halved",
            "last-line-removed",
            "lines-swapped",
            "duplicate-line",
            "automorphism-with-class-id",
            "class-id-not-an-integer",
            "n-not-an-integer",
        ],
    )
    def test_show_reports_malformed_store_line(self, tmp_path, capsys, damage):
        # show, table and check each read the damaged file from a new Store
        store_dir = tmp_path / "s"
        assert cli.main(["census", "--max", "13", "--store", str(store_dir)]) == 0
        path = store_dir / "census_13.jsonl"
        path.write_text(damage(path.read_text()))
        capsys.readouterr()
        for argv in (
            ["show", "--n", "13"],
            ["table", "--from", "2", "--to", "13"],
            ["check", "--max", "13"],
        ):
            assert cli.main([*argv, "--store", str(store_dir)]) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), argv
            assert "census_13.jsonl:" in lines[0], argv

    @pytest.mark.parametrize(
        "make_unreadable",
        [
            lambda path: (path.unlink(), path.mkdir()),
            lambda path: path.write_bytes(b"\xff\xfe" + path.read_bytes()),
        ],
        ids=["a-directory", "not-utf-8"],
    )
    def test_unreadable_store_file_is_one_error_line(self, tmp_path, capsys, make_unreadable):
        # a census file that cannot be read as text names itself in one
        # error line; census prints the orders below 13 before it reads 13
        store_dir = tmp_path / "s"
        assert cli.main(["census", "--max", "13", "--store", str(store_dir)]) == 0
        make_unreadable(store_dir / "census_13.jsonl")
        capsys.readouterr()
        for argv in (
            ["show", "--n", "13"],
            ["table", "--from", "2", "--to", "13"],
            ["check", "--max", "13"],
            ["census", "--max", "13"],
        ):
            assert cli.main([*argv, "--store", str(store_dir)]) == 1, argv
            captured = capsys.readouterr()
            assert argv[0] == "census" or captured.out == "", argv
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), argv
            assert "census_13.jsonl:" in lines[0], argv

    @pytest.mark.parametrize(
        "damage, expect",
        [
            (lambda lines: _set(lines, _members(lines)[0], class_id=1), ":5: not a member"),
            (lambda lines: _set(lines, 1, class_id=1), ":2: not a member"),
            (_replace_by_other_class, ":5: not a member"),
            (lambda lines: _set(lines, _members(lines)[0], pi_bump=1), ":5: stored metadata"),
            (lambda lines: lines.pop(_members(lines)[0]), ":2: class 0 lacks 1"),
            (lambda lines: lines.pop(1), ":2: not a member of class 1"),
            (lambda lines: _set(lines, 6, float_image=2), ":7: stored images are not"),
            (lambda lines: _set(lines, _members(lines)[0], float_image=2), ":5: stored images"),
            (lambda lines: _set(lines, 1, class_id=False), ":2: class_id False is not an integer"),
            (lambda lines: lines[1].update(n=18.0), ":2: n 18.0 is not an integer"),
            (lambda lines: lines[1].update(order=9.0), ":2: order 9.0 is not an integer"),
            (lambda lines: lines[2].update(kernel_order=3.0), ":3: kernel_order 3.0 is not an"),
            (lambda lines: _set(lines, 0, float_pi=1), ":1: stored metadata disagrees with "),
            (lambda lines: _set(lines, _members(lines)[0], float_pi=1), ":5: stored metadata"),
            (lambda lines: lines[2].update(coset_preserving=0), ":3: coset_preserving 0 is not a"),
            (lambda lines: lines[1].update(automorphism=0), ":2: automorphism 0 is not a bool"),
            (lambda lines: lines[1].update(schema_version=True), ":2: schema_version True != 1"),
            (lambda lines: lines[1].update(note=""), ":2: malformed store entry: extra or missing"),
            (lambda lines: _set(lines, 0, bool_image=1), ":1: images holds a bool, not an integer"),
            (lambda lines: _set(lines, 0, bool_pi=1), ":1: pi holds a bool, not an integer"),
            (_class_fault_then_order_fault, ":5: not a member of class 1"),
        ],
        ids=[
            "wrong-class-id",
            "class-ids-out-of-order",
            "member-replaced-by-other-class",
            "tampered-pi-on-member",
            "proper-line-deleted",
            "least-member-deleted",
            "float-image-in-automorphism",
            "float-image-in-member",
            "class-id-is-a-bool",
            "float-n-on-first-line-of-class",
            "float-order",
            "float-kernel-order",
            "float-pi-in-automorphism",
            "float-pi-in-member",
            "int-coset-preserving-flag",
            "int-automorphism-flag",
            "bool-schema-version",
            "extra-key",
            "bool-image",
            "bool-pi",
            "class-fault-before-a-later-order-fault",
        ],
    )
    def test_class_damage_fails_on_load(self, tmp_path, capsys, damage, expect):
        store_dir = tmp_path / "s"
        assert cli.main(["census", "--max", "18", "--store", str(store_dir)]) == 0
        path = store_dir / "census_18.jsonl"
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        damage(lines)
        path.write_text("".join(json.dumps(e, separators=(",", ":")) + "\n" for e in lines))
        capsys.readouterr()
        assert cli.main(["show", "--n", "18", "--store", str(store_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "census_18.jsonl" + expect in lines[0]

    @pytest.mark.parametrize(
        "argv, expect",
        [
            (["oracle", "--n", "1"], ""),
            (["oracle", "--n", "11"], "oracle is limited to n <= 10"),
            (["families", "--p", "4"], ""),
            (["families", "--p", "2"], "p must be an odd prime, got 2"),
            (["families", "--p", "9"], "p must be an odd prime, got 9"),
            (["verify", "--n", "0", "--perm", "0"], ""),
            (["census", "--max", "6", "--jobs", "-3"], ""),
            (["census", "--max", "4", "--jobs", "100000"], "jobs <= 61"),
            (["table", "--from", "5", "--to", "2"], ""),
            (["census", "--max", "1"], ""),
            (["check", "--max", "1"], ""),
            (["show", "--n", "0"], "n >= 2"),
            (["show", "--n", "1"], "n >= 2"),
            (["table", "--from", "1", "--to", "5"], "n >= 2"),
        ],
        ids=[
            "oracle-n1",
            "oracle-n11",
            "families-p4",
            "families-p2",
            "families-p9",
            "verify-n0",
            "census-jobs-negative",
            "census-jobs-above-bound",
            "table-empty-range",
            "census-max-1",
            "check-max-1",
            "show-n0",
            "show-n1",
            "table-from-1",
        ],
    )
    def test_bad_arguments_exit_1_with_one_error_line(
        self, tmp_path, monkeypatch, capsys, argv, expect
    ):
        monkeypatch.setenv("SKEWCYC_STORE", str(tmp_path / "s"))

        def no_pool(*args, **kwargs):
            raise RuntimeError("a rejected --jobs must not reach the worker pool")

        # a pool of 100,000 workers would fork them all at its first task
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert expect in lines[0]
        assert not (tmp_path / "s" / "census_2.jsonl").exists()

    @pytest.mark.parametrize("under_a_file", [False, True], ids=["a-file", "under-a-file"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["census", "--max", "4"],
            ["table", "--from", "2", "--to", "4"],
            ["show", "--n", "4"],
            ["check", "--max", "4"],
            ["oracle", "--n", "4"],
        ],
        ids=["census", "table", "show", "check", "oracle"],
    )
    def test_an_unusable_store_exits_1_with_one_error_line(
        self, tmp_path, capsys, argv, under_a_file
    ):
        regular = tmp_path / "regular"
        regular.write_text("not a store\n")
        path = regular / "store" if under_a_file else regular
        assert cli.main([*argv, "--store", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert regular.read_text() == "not a store\n"
        assert sorted(tmp_path.iterdir()) == [regular]

    @pytest.mark.parametrize(
        "argv",
        [["table", "--from", "2", "--to", "4"], ["show", "--n", "4"], ["check", "--max", "4"]],
        ids=["table", "show", "check"],
    )
    def test_a_failed_read_creates_no_store(self, tmp_path, capsys, argv):
        path = tmp_path / "no" / "such" / "store"
        assert cli.main([*argv, "--store", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: no census stored")
        assert list(tmp_path.iterdir()) == []

    def test_env_default_store(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SKEWCYC_STORE", str(tmp_path / "env-store"))
        assert cli.main(["census", "--max", "6"]) == 0
        assert (tmp_path / "env-store" / "census_6.jsonl").exists()

    def test_parallel_census_matches_serial(self, tmp_path, monkeypatch, capsys):
        # --jobs is accepted and ignored: the census starts no process
        serial = str(tmp_path / "serial")
        parallel = str(tmp_path / "parallel")
        assert cli.main(["census", "--max", "32", "--store", serial]) == 0

        def no_pool(*args, **kwargs):
            raise RuntimeError("census --jobs must not start a worker pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert cli.main(["census", "--max", "32", "--jobs", "2", "--store", parallel]) == 0
        for n in range(2, 33):
            a = (tmp_path / "serial" / f"census_{n}.jsonl").read_bytes()
            b = (tmp_path / "parallel" / f"census_{n}.jsonl").read_bytes()
            assert a == b


# Runs in a fresh interpreter in which `import numpy` raises ImportError;
# argv[1] is a JSON list of CLI argument lists.  Prints one JSON object.
_NO_NUMPY_SCRIPT = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
try:
    import numpy
except ImportError:
    blocked = True
else:
    blocked = False
import skewcyc
import skewcyc.cli
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = skewcyc.cli.main(argv)
    runs.append([code, out.getvalue()])
cp = [list(phi.images) for phi in skewcyc.enumerate_coset_preserving(146)]
print(json.dumps({"blocked": blocked, "runs": runs, "cp146": cp}))
"""


def test_reading_a_census_never_loads_numpy(tmp_path, capsys):
    """Importing the package, the commands that read a stored census and the
    coset-preserving search run with numpy blocked, and print what they
    print with numpy present; only the lift pre-filter and `check` use it."""
    store_dir = str(tmp_path / "s")
    assert cli.main(["census", "--max", "12", "--store", store_dir]) == 0
    commands = [
        ["table", "--from", "2", "--to", "12", "--store", store_dir],
        ["show", "--n", "12", "--store", store_dir],
        ["verify", "--perm", "0,3,2,5,4,1"],
        ["families", "--p", "5"],
    ]
    capsys.readouterr()
    expected = [[cli.main(argv), capsys.readouterr().out] for argv in commands]
    assert [code for code, _ in expected] == [0, 0, 0, 0]

    src = str(Path(skewcyc.store.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT, json.dumps(commands)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got["blocked"] is True
    assert got["runs"] == expected
    assert got["cp146"] == [list(phi.images) for phi in enumerate_coset_preserving(146)]


# Runs `check` in a fresh interpreter; argv[1] is the store.  Prints whether
# numpy.ma was imported.
_CHECK_SCRIPT = """
import contextlib, io, json, sys
import skewcyc.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = skewcyc.cli.main(["check", "--max", "32", "--store", sys.argv[1]])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules, "ma": "numpy.ma" in sys.modules}))
"""


def test_check_never_imports_numpy_ma(tmp_path):
    """`check` uses numpy but not `numpy.ma`, which `np.unique` imports on
    its first call (1.7 MB of peak RSS)."""
    store_dir = str(tmp_path / "s")
    assert cli.main(["census", "--max", "32", "--store", store_dir]) == 0
    src = str(Path(skewcyc.store.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _CHECK_SCRIPT, store_dir],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"code": 0, "numpy": True, "ma": False}
