"""Persistence of census results as JSON-lines files.

One file per group order, `census_<n>.jsonl`, one morphism per line
with a fixed key order, entries sorted by image sequence.  Output is
byte-deterministic so census files can be diffed across runs.

Each line is compact JSON, the bytes `json.dumps(..., separators=(",", ":"))`
gives for the same dict, but it is written by one `%`-format: the image and
pi lists are joined from a table of `str(i)` for i in 0..n, built once per
order, so no int is converted again (the conversion was most of the
encoding time).  The table is a dict whose misses fall back to `str`, so a
value outside 0..n is still written as its own digits.  `from_json` reads
lines with `json.loads`.

Loading re-checks every line and every stored attribute, without a full
`verify` of each.  The census is closed under conjugation by Aut(Z_n),
and classes are numbered in the order of their least members, so the
first line of each class id is the least member of its class:
- the lines must be strictly ascending;
- the automorphisms a -> s*a are checked against their closed form and
  must carry class id -1;
- the first line of each new class id (0, 1, 2, ... in that order) goes
  through `verify`, and `conjugates` builds its conjugation orbit;
- every later line of that id must be a member of the orbit, with the
  stored attributes the orbit carries; a line that is not goes through
  `verify`, so a line that is no skew morphism reports its witness;
- each class must list its whole orbit, so its first line is the least
  member of the orbit, and the file must hold all phi(n) automorphisms.
A tampered file fails loudly, naming the file and line, rather than
poisoning downstream checks.  The format records no class count, so a
file that drops every line of its last class still loads.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from operator import index
from pathlib import Path

from .cyclic_arith import euler_phi
from .enumeration import CensusRecord, automorphisms
from .skew_core import Orbit, SkewMorphism, SkewMorphismError, conjugates, verify

SCHEMA_VERSION = 1
ENV_STORE_DIR = "SKEWCYC_STORE"


class StoreError(Exception):
    """Base class for persistence failures."""


class UnusableStoreError(StoreError):
    """The store path is not a directory, or no census can be written there."""


class NotComputedError(StoreError):
    """No census stored for the requested order."""


class SchemaMismatchError(StoreError):
    """Stored file uses an unknown schema version or is not valid JSONL."""


class VerificationFailedOnLoadError(StoreError):
    """A stored entry does not re-verify; the file was corrupted or edited."""


class IncompleteCensusError(StoreError):
    """A census file lacks some of its members: it was cut short or edited."""


class UnsortedCensusError(StoreError):
    """Census lines are not in ascending image order."""


class DuplicateEntryError(StoreError):
    """A census file lists one morphism twice."""


class ClassIdError(StoreError):
    """A stored class id does not match the conjugation orbits."""


_LINE = (
    '{"n":%d,"images":[%s],"order":%d,"kernel_order":%d,"pi":[%s],'
    '"coset_preserving":%s,"automorphism":%s,"class_id":%d,"schema_version":%d}'
)


class _Decimals(dict):
    """str(i) for every int i: 0..n are stored, any other i is converted
    on lookup (a list would read words[-1] as str(n))."""

    def __missing__(self, i: int) -> str:
        return str(i)


@lru_cache(maxsize=1)
def _decimals(n: int) -> _Decimals:
    """The decimal strings of 0..n, every value a census line of Z_n holds;
    built once for the latest n, as a census is saved order by order."""
    return _Decimals((i, str(i)) for i in range(n + 1))


@dataclass(frozen=True)
class StoreEntry:
    """One line of a census file."""

    n: int
    images: tuple[int, ...]
    order: int
    kernel_order: int
    pi: tuple[int, ...]
    coset_preserving: bool
    automorphism: bool
    class_id: int
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def from_morphism(cls, phi: SkewMorphism, class_id: int) -> "StoreEntry":
        return cls(
            n=phi.n,
            images=phi.images,
            order=phi.order,
            kernel_order=phi.kernel_order,
            pi=phi.pi,
            coset_preserving=phi.coset_preserving,
            automorphism=phi.automorphism,
            class_id=class_id,
        )

    def to_json(self) -> str:
        # byte-identical to the compact `json.dumps` of this entry as a dict,
        # which wrote the pinned files: the same keys in the same order, no
        # spaces, ints in plain decimal and the flags as true/false
        word = _decimals(self.n).__getitem__
        return _LINE % (
            self.n,
            ",".join(map(word, self.images)),
            self.order,
            self.kernel_order,
            ",".join(map(word, self.pi)),
            "true" if self.coset_preserving else "false",
            "true" if self.automorphism else "false",
            self.class_id,
            self.schema_version,
        )

    @classmethod
    def from_json(cls, line: str) -> "StoreEntry":
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaMismatchError(f"malformed store entry: {exc}") from exc
        if not isinstance(raw, dict):
            raise SchemaMismatchError(
                f"malformed store entry: expected an object, got {type(raw).__name__}"
            )
        if raw.get("schema_version") != SCHEMA_VERSION:
            raise SchemaMismatchError(
                f"schema_version {raw.get('schema_version')!r} != {SCHEMA_VERSION}"
            )
        for key in ("n", "class_id"):  # JSON true/false load as bool, an int subclass
            if type(raw.get(key)) is not int:
                raise SchemaMismatchError(f"{key} {raw.get(key)!r} is not an integer")
        try:
            return cls(
                n=raw["n"],
                images=tuple(raw["images"]),
                order=raw["order"],
                kernel_order=raw["kernel_order"],
                pi=tuple(raw["pi"]),
                coset_preserving=raw["coset_preserving"],
                automorphism=raw["automorphism"],
                class_id=raw["class_id"],
            )
        except (KeyError, TypeError) as exc:
            raise SchemaMismatchError(f"malformed store entry: {exc}") from exc


def _check_stored(entry: StoreEntry, phi: SkewMorphism, where: str) -> SkewMorphism:
    """phi, once the attributes stored on the line are found equal to its own."""
    mismatches = [
        name
        for name, stored, actual in [
            ("order", entry.order, phi.order),
            ("kernel_order", entry.kernel_order, phi.kernel_order),
            ("pi", entry.pi, phi.pi),
            ("coset_preserving", entry.coset_preserving, phi.coset_preserving),
            ("automorphism", entry.automorphism, phi.automorphism),
        ]
        if stored != actual
    ]
    if mismatches:
        raise VerificationFailedOnLoadError(
            f"{where}: stored metadata disagrees with recomputation: " + ", ".join(mismatches)
        )
    return phi


def _reverify(entry: StoreEntry, where: str) -> SkewMorphism:
    try:
        return verify(entry.n, entry.images)
    except SkewMorphismError as exc:
        raise VerificationFailedOnLoadError(
            f"{where}: stored images are not a skew morphism: {exc}"
        ) from exc


class Store:
    """Directory-backed census store with an in-memory cache.

    Records are written atomically through a unique temp file, so
    concurrent writers of one order never share it; readers check every
    line on first load (see the module docstring) and are served from the
    cache afterwards.  The directory is made by the first save, so reading
    never creates it; a path that is not a directory, or where no file can
    be made, raises `UnusableStoreError`.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        if self.directory.exists() and not self.directory.is_dir():
            raise UnusableStoreError(f"store {self.directory} is not a directory")
        self._made = False  # whether a save made sure the directory exists
        self._cache: dict[int, CensusRecord] = {}

    def path_for(self, n: int) -> Path:
        return self.directory / f"census_{n}.jsonl"

    def has(self, n: int) -> bool:
        return n in self._cache or self.path_for(n).exists()

    def save(self, record: CensusRecord) -> Path:
        path = self.path_for(record.n)
        lines = [
            StoreEntry.from_morphism(phi, cid).to_json()
            for phi, cid in zip(record.morphisms, record.class_ids)
        ]
        try:
            if not self._made:
                self.directory.mkdir(parents=True, exist_ok=True)
                self._made = True
            fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=path.name + ".", suffix=".tmp")
        except OSError as exc:
            raise UnusableStoreError(f"cannot write a census into {self.directory}: {exc}") from exc
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            os.chmod(tmp, 0o644)  # mkstemp creates 0600; census files are public data
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        self._cache[record.n] = record
        return path

    def load(self, n: int) -> CensusRecord:
        if n < 2:
            raise ValueError(f"expected n >= 2, got {n}")
        if n in self._cache:
            return self._cache[n]
        path = self.path_for(n)
        if not path.exists():
            raise NotComputedError(f"no census stored for n={n} in {self.directory}")
        lines = []
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                entry = StoreEntry.from_json(line)
            except SchemaMismatchError as exc:
                raise SchemaMismatchError(f"{where}: {exc}") from exc
            if entry.n != n:
                raise SchemaMismatchError(f"{where}: entry for n={entry.n} in file for n={n}")
            try:
                images = tuple(map(index, entry.images))  # as `verify` reads them
            except TypeError:
                raise VerificationFailedOnLoadError(
                    f"{where}: stored images are not a skew morphism: not all integers"
                ) from None
            if lines and images <= lines[-1][2]:
                if images == lines[-1][2]:
                    raise DuplicateEntryError(f"{where}: repeats the line before")
                raise UnsortedCensusError(f"{where}: sorts before the line before")
            lines.append((where, entry, images))

        autos = {phi.images: phi for phi in automorphisms(n)}
        orbits: list[Orbit] = []  # unseen members
        opened_at: list[str] = []
        morphisms = []
        class_ids = []
        for where, entry, images in lines:
            cid = entry.class_id
            phi = autos.get(images)
            if phi is not None:
                if cid != -1:
                    raise ClassIdError(f"{where}: automorphism with class_id {cid}, not -1")
            elif cid == len(orbits):  # the first line of a new class
                # every other member must follow under this id, so once the
                # class is complete this line is the least member of its orbit
                orbit = conjugates(_reverify(entry, where))
                phi = orbit.pop(images)
                orbits.append(orbit)
                opened_at.append(where)
            else:
                phi = orbits[cid].pop(images, None) if 0 <= cid < len(orbits) else None
                if phi is None:
                    _reverify(entry, where)  # a line that is no skew morphism keeps its witness
                    raise ClassIdError(f"{where}: not a member of class {cid}")
            morphisms.append(_check_stored(entry, phi, where))
            class_ids.append(cid)
        for cid, orbit in enumerate(orbits):
            if orbit:
                raise IncompleteCensusError(
                    f"{opened_at[cid]}: class {cid} lacks {len(orbit)} of its conjugates"
                )
        record = CensusRecord(n=n, morphisms=tuple(morphisms), class_ids=tuple(class_ids))
        # a census holds all phi(n) automorphisms and its last line is x -> -x,
        # so a file cut at a line boundary is short of at least one
        if record.automorphism_count != euler_phi(n):
            raise IncompleteCensusError(
                f"{path}: {record.automorphism_count} automorphisms stored, "
                f"expected phi({n}) = {euler_phi(n)}"
            )
        self._cache[n] = record
        return record


class MemoryStore:
    """Ephemeral store for library use and tests."""

    def __init__(self):
        self._records: dict[int, CensusRecord] = {}

    def has(self, n: int) -> bool:
        return n in self._records

    def save(self, record: CensusRecord) -> None:
        self._records[record.n] = record

    def load(self, n: int) -> CensusRecord:
        if n < 2:
            raise ValueError(f"expected n >= 2, got {n}")
        if n not in self._records:
            raise NotComputedError(f"no census computed for n={n}")
        return self._records[n]


def default_store_dir() -> Path:
    return Path(os.environ.get(ENV_STORE_DIR, "./skewcyc-store"))


def emit_table(first: int, last: int, store, fmt: str = "csv") -> str:
    """Census-count rows for orders in [first, last] that admit a proper morphism.

    csv: header `n,proper,automorphisms,total,classes`, one row per
    qualifying order.  md: the same as a markdown pipe table.
    """
    if fmt not in ("csv", "md"):
        raise ValueError(f"unknown table format {fmt!r}")
    if first > last:
        raise ValueError(f"empty range: from {first} > to {last}")
    rows = []
    for n in range(first, last + 1):
        record = store.load(n)
        if record.proper_count == 0:
            continue
        rows.append(
            (
                record.n,
                record.proper_count,
                record.automorphism_count,
                record.total,
                record.class_count,
            )
        )
    header = ("n", "proper", "automorphisms", "total", "classes")
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(str(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(str(v) for v in row) + " |" for row in rows]
    return "\n".join(lines) + "\n"
