"""Persistence of census results as JSON-lines files.

One file per group order, `census_<n>.jsonl`, one morphism per line
with a fixed key order, entries sorted by image sequence.  Output is
byte-deterministic so census files can be diffed across runs.

Each line is compact JSON, the bytes `json.dumps(..., separators=(",", ":"))`
gives for the same dict, but it is written by one `%`-format: the image and
pi lists are joined from a table of `str(i)` for i in 0..n, built once per
order, so no int is converted again (the conversion was most of the
encoding time).  The table is a dict whose misses fall back to `str`, so a
value outside 0..n is still written as its own digits.  `save` fills the
format straight from each morphism, with no `StoreEntry`, and joins the pi
text over one period: pi repeats with period n / |kernel|, so the text of
its first period is repeated |kernel| times, and a pi that does not repeat
so is an implementation bug (`InternalCheckError`), never other bytes.
`from_json` takes only the keys and types `save` writes; a float stays
text, equal to no int.  The two flags are a valid line's only
`true`/`false`, so only a line with another count of them is searched for
a bool in images or pi.  The literals are counted, not a letter they hold:
a key may be escaped (`"imag\\u0065s"` decodes to `images`), so the count
of e's in a line with a bool can equal a valid line's.

Loading re-checks every line and every stored attribute in one walk over
the lines, without a full `verify` or a JSON parse of each.  The census is
closed under conjugation by Aut(Z_n), and classes are numbered in the
order of their least members, so the first line of each class id is the
least member of its class.  The walk keeps the line `save` writes for each
member proved so far and not yet met: every automorphism a -> s*a in its
closed form, with class id -1, and the conjugates of each class once its
first line is proved.  A line equal to one of them, byte for byte, is that
member: parsing it would give the very entry `save` wrote for it, which
every check below accepts, so only the order and the orbit bookkeeping run
on it.  Every other line (the first line of each class, and any line in
another layout or with a fault) is parsed with `from_json` and checked:
- the lines must be strictly ascending;
- an automorphism must match its closed form and carry class id -1;
- the first line of each new class id (0, 1, 2, ... in that order) goes
  through `verify`, and `conjugates` builds its conjugation orbit;
- every later line of that id must be a member of the orbit, with the
  stored attributes the orbit carries; a line that is not goes through
  `verify`, so a line that is no skew morphism reports its witness;
- each class must list its whole orbit, so its first line is the least
  member of the orbit, and the file must hold all phi(n) automorphisms.
The walk names the first faulty line it meets, so a class fault is named
before a parse or order fault on a later line (two passes, which parsed
and ordered every line before the class walk, named the later fault); a
fault that shows on one line only gets the same message either way.  This
walk proves the record closed under conjugation, with ids that number its
orbits by their least member, so the load hands the first line of each
class to the record (`CensusRecord.leaders`) and `check` builds no orbit
again.  A tampered file fails loudly, naming the file and line, rather
than poisoning downstream checks.  The format records no class count, so
a file that drops every line of its last class still loads.
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
from .enumeration import CensusRecord, _with_leaders
from .skew_core import (
    Orbit,
    SkewMorphism,
    SkewMorphismError,
    _require,
    automorphism_table,
    conjugates,
    verify,
)

SCHEMA_VERSION = 1
ENV_STORE_DIR = "SKEWCYC_STORE"


class StoreError(Exception):
    """Base class for persistence failures."""


class UnusableStoreError(StoreError):
    """The store path is not a directory, or a census cannot be read or
    written there."""


class NotComputedError(StoreError):
    """No census stored for the requested order."""


class SchemaMismatchError(StoreError):
    """Stored file uses an unknown schema version or is not valid UTF-8 JSONL."""


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


class _FloatLiteral(str):
    __repr__ = str.__str__  # a JSON float literal, kept as text that prints as written


_DECODER = json.JSONDecoder(parse_float=_FloatLiteral)
_KINDS = {  # the type `save` writes under each key; JSON true/false load as bool, not int
    "n": int, "images": list, "order": int, "kernel_order": int, "pi": list,
    "coset_preserving": bool, "automorphism": bool, "class_id": int, "schema_version": int,
}


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

    def to_json(self) -> str:
        # byte-identical to the compact `json.dumps` of this entry as a dict,
        # which wrote the pinned files: the same keys in the same order, no
        # spaces, ints in plain decimal and the flags as true/false; `_line`
        # fills the same layout straight from a morphism
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
            raw = _DECODER.decode(line)
        except json.JSONDecodeError as exc:
            raise SchemaMismatchError(f"malformed store entry: {exc}") from exc
        if not isinstance(raw, dict):
            raise SchemaMismatchError(
                f"malformed store entry: expected an object, got {type(raw).__name__}"
            )
        version = raw.get("schema_version")
        if type(version) is not int or version != SCHEMA_VERSION:
            raise SchemaMismatchError(f"schema_version {version!r} != {SCHEMA_VERSION}")
        if raw.keys() != _KINDS.keys():
            odd = sorted(raw.keys() ^ _KINDS.keys())
            raise SchemaMismatchError(f"malformed store entry: extra or missing keys {odd}")
        for key, kind in _KINDS.items():
            if type(raw[key]) is not kind:
                what = "an integer" if kind is int else f"a {kind.__name__}"
                raise SchemaMismatchError(f"{key} {raw[key]!r} is not {what}")
        # the two flags are a valid line's only bools, so any other true or false,
        # which `index` and == read as 1 or 0, shows in the count of the literals
        if line.count("true") + line.count("false") != 2:
            for key in ("images", "pi"):
                if bool in map(type, raw[key]):
                    raise SchemaMismatchError(f"{key} holds a bool, not an integer")
        return cls(**dict(raw, images=tuple(raw["images"]), pi=tuple(raw["pi"])))


def _line(phi: SkewMorphism, class_id: int) -> str:
    """The line `save` writes for phi under class_id, in `to_json`'s layout.
    pi has period n / |kernel|: `verify` builds it as |kernel| copies of
    one period, and conjugation and the closed-form automorphisms keep
    that, so its text is joined over one period and repeated."""
    n, k = phi.n, phi.kernel_order
    period = phi.pi[: n // k]
    _require(phi.pi == period * k, "pi must repeat with period n/|kernel|")
    word = _decimals(n).__getitem__
    return _LINE % (
        n,
        ",".join(map(word, phi.images)),
        phi.order,
        k,
        ",".join([",".join(map(word, period))] * k),
        "true" if phi.coset_preserving else "false",
        "true" if phi.automorphism else "false",
        class_id,
        SCHEMA_VERSION,
    )


def _parse(line: str, n: int, where: str) -> tuple[StoreEntry, tuple[int, ...]]:
    """The entry on a line of the census file of Z_n, and its images as
    `verify` reads them."""
    try:
        entry = StoreEntry.from_json(line)
    except SchemaMismatchError as exc:
        raise SchemaMismatchError(f"{where}: {exc}") from exc
    if entry.n != n:
        raise SchemaMismatchError(f"{where}: entry for n={entry.n} in file for n={n}")
    try:
        return entry, tuple(map(index, entry.images))
    except TypeError:
        raise VerificationFailedOnLoadError(
            f"{where}: stored images are not a skew morphism: not all integers"
        ) from None


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
    line on first load, in one walk that parses only the lines that are
    not the bytes `save` writes for a member it has proved (see the module
    docstring), and are served from the
    cache afterwards.  The directory is made by the first save, so reading
    never creates it; a path that is not a directory, where no file can
    be made, or whose census file cannot be written (the temp file is
    removed) or read, raises `UnusableStoreError`.
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
        lines = [_line(phi, cid) for phi, cid in zip(record.morphisms, record.class_ids)]
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
        except BaseException as exc:
            os.unlink(tmp)
            if isinstance(exc, OSError):  # a full disk or quota, say
                raise UnusableStoreError(f"{path}: cannot write: {exc.strerror or exc}") from exc
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
        try:
            text = path.read_text()
        except OSError as exc:
            raise UnusableStoreError(f"{path}: cannot read: {exc.strerror or exc}") from exc
        except UnicodeDecodeError as exc:
            raise SchemaMismatchError(f"{path}: {exc}") from exc
        autos = {phi.images: phi for phi in automorphism_table(n).values()}
        # the line `save` writes for each member proved so far and not yet met
        proved = {_line(phi, -1): (phi, -1) for phi in autos.values()}
        orbits: list[Orbit] = []  # unseen members
        opened_at: list[str] = []
        leaders: list[SkewMorphism] = []
        morphisms: list[SkewMorphism] = []
        class_ids = []
        for lineno, line in enumerate(text.splitlines(), 1):
            member = proved.pop(line, None)
            if member is None:
                if not line.strip():
                    continue
                where = f"{path}:{lineno}"
                entry, images = _parse(line, n, where)
            else:
                phi, cid = member
                images = phi.images
            if morphisms and images <= morphisms[-1].images:
                where = f"{path}:{lineno}"
                if images == morphisms[-1].images:
                    raise DuplicateEntryError(f"{where}: repeats the line before")
                raise UnsortedCensusError(f"{where}: sorts before the line before")
            if member is not None:
                # the lines ascend, so no earlier line took these images: the
                # member is still unseen in its orbit
                if cid != -1:
                    del orbits[cid][images]
            else:
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
                    leaders.append(phi)
                    proved.update((_line(psi, cid), (psi, cid)) for psi in orbit.values())
                else:
                    phi = orbits[cid].pop(images, None) if 0 <= cid < len(orbits) else None
                    if phi is None:
                        _reverify(entry, where)  # a line that is no skew morphism keeps its witness
                        raise ClassIdError(f"{where}: not a member of class {cid}")
                phi = _check_stored(entry, phi, where)
            morphisms.append(phi)
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
        self._cache[n] = _with_leaders(record, leaders)
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
