"""Citation corpus: data model, JSON-lines ingestion, validation.

A corpus is an immutable columnar index of papers.  Paper ``i`` (its *row*,
in record order) has ``ids[i]``, ``year[i]``, ``journal_code[i]`` (into
``journals``), ``kind_code[i]`` and ``authors[i]``, the tuple of its author
ids; ``author_rows`` maps an author to the rows of their papers, and the
papers citing row ``i`` are ``citing_idx[indptr[i]:indptr[i + 1]]``, in
record order, the CSR layout of ``scipy.sparse.csr_matrix``.  Ids enter
through :meth:`Corpus.rows`; every other call takes rows.  Metrics are
numpy reductions over these arrays, and counts become Python ints before
any ratio is formed.  Every corpus, loaded or generated, keeps its papers
as columns only; a :class:`PaperRecord` is just the checked input of
:meth:`Corpus.from_records`.  The loader reads a path in 64 KiB blocks,
decodes each line with ``json``'s C scanner (``json.loads`` only for its
exact error) into the columns, and runs the field checks once per column;
only when one fails does it check record by record, so that the error
names the first bad line, as a line-by-line loader would.  ``edges`` gives
the same citations as an array of (citing row, cited row) pairs.
References pointing outside the corpus are *counted*
(``unresolved_reference_count``) rather than dropped silently, so coverage
gaps in the underlying database stay visible in every downstream statistic.

Input format (JSON lines, one record per line)::

    {"id": "p1", "journal": "jnl-a", "year": 2005, "kind": "research-article",
     "authors": ["au-1"], "references": ["p0"]}

``kind`` is one of ``research-article``, ``review``, ``letter``,
``editorial``, ``book``.  Unknown fields are rejected in strict mode and
ignored with a warning otherwise.
"""

from __future__ import annotations

import json
import math
import warnings
from array import array
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import asdict, dataclass
from functools import partial
from itertools import chain
from pathlib import Path
from types import MappingProxyType
from typing import IO, Any, Union

import numpy as np

from .errors import DuplicateIdError, RecordError, UnknownIdError

KINDS = frozenset({"research-article", "review", "letter", "editorial", "book"})

#: Kinds counted as citable items in journal denominators.
SUBSTANTIVE_KINDS = frozenset({"research-article", "review"})

YEAR_MIN = 1800
YEAR_MAX = 2100

#: Row codes of ``Corpus.kind_code``.
KIND_CODES = {"research-article": 0, "review": 1, "letter": 2, "editorial": 3, "book": 4}
KIND_NAMES = tuple(KIND_CODES)
SUBSTANTIVE_CODES = tuple(KIND_CODES[kind] for kind in sorted(SUBSTANTIVE_KINDS))

_RECORD_FIELDS = ("id", "journal", "year", "kind", "authors", "references")
_FIELD_SET = frozenset(_RECORD_FIELDS)


@dataclass(frozen=True, slots=True)
class PaperRecord:
    """One published item: journal, year, kind, authors, outgoing references.

    Every record passes the loader's field checks, however it is built: the
    id, journal and kind are nonempty strings, the year an int in
    [YEAR_MIN, YEAR_MAX], the authors and references lists or tuples of
    strings (stored as tuples), no string holds a lone surrogate, the
    authors are distinct, and the references are distinct and exclude the
    paper itself.  Errors name the fields as the JSON-lines format does.
    """

    id: str
    journal_id: str
    year: int
    kind: str
    author_ids: tuple[str, ...] = ()
    reference_ids: tuple[str, ...] = ()

    def __post_init__(self):
        values = (
            self.id, self.journal_id, self.year, self.kind, self.author_ids, self.reference_ids
        )
        for field, value, kind in zip(_RECORD_FIELDS, values, (str, str, int, str)):
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ValueError(f"{field!r} must be of type {kind.__name__}")
        for field, value in zip(_RECORD_FIELDS[4:], values[4:]):
            if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
                raise ValueError(f"{field!r} must be an array of strings")
        for field, value in zip(_RECORD_FIELDS, values):
            if field != "year" and not utf8_encodable([value] if isinstance(value, str) else value):
                raise ValueError(f"{field!r} holds a lone surrogate")
        object.__setattr__(self, "author_ids", tuple(self.author_ids))
        object.__setattr__(self, "reference_ids", tuple(self.reference_ids))
        if not self.id:
            raise ValueError("paper id must be a nonempty string")
        if not self.journal_id:
            raise ValueError(f"paper {self.id!r}: journal must be a nonempty string")
        if not YEAR_MIN <= self.year <= YEAR_MAX:
            raise ValueError(
                f"paper {self.id!r}: year {self.year} outside [{YEAR_MIN}, {YEAR_MAX}]"
            )
        if self.kind not in KINDS:
            raise ValueError(
                f"paper {self.id!r}: kind {self.kind!r} not one of {sorted(KINDS)}"
            )
        if len(set(self.author_ids)) != len(self.author_ids):
            raise ValueError(f"paper {self.id!r}: duplicate author ids")
        if len(set(self.reference_ids)) != len(self.reference_ids):
            raise ValueError(f"paper {self.id!r}: duplicate reference ids")
        if self.id in self.reference_ids:
            raise ValueError(f"paper {self.id!r}: paper references itself")


def utf8_encodable(strings: Iterable[str]) -> bool:
    """Whether UTF-8 can encode the strings: not if one holds a lone surrogate."""
    try:
        "".join(strings).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _per_row(names, codes, counts, join: Callable = tuple) -> list:
    """Row ``i``'s ``join`` of the next ``counts[i]`` of ``codes`` into ``names``."""
    refs = np.array(names, dtype=object)[codes].tolist()
    ends = np.cumsum(counts).tolist()
    return [join(refs[lo:hi]) for lo, hi in zip([0, *ends], ends)]


class Corpus:
    """Immutable, indexed collection of papers and their citation edges.

    Construct with :meth:`from_records` or :func:`load_corpus`.  Safe for
    concurrent read access: all exposed containers are read-only views.
    """

    __slots__ = (
        "_ids", "_row", "_journal_codes", "_year", "_journal_code", "_kind_code", "_authors",
        "_indptr", "_citing_idx", "_references", "_journals", "_author_rows", "_unresolved",
    )

    def __init__(self, *args, **kwargs):
        raise TypeError("use Corpus.from_records() or load_corpus()")

    @classmethod
    def from_records(cls, records: Iterable[PaperRecord]) -> "Corpus":
        """Build a corpus, indexing edges for in-corpus references only."""
        return _read_rows(records, strict=False, unique_ids=True, build=cls._from_rows)

    @classmethod
    def _from_rows(
        cls, ids, journal_ids, years, kinds, authors, names, id_codes, codes, counts
    ) -> "Corpus":
        """Index the checked columns of :func:`_read_rows`: one id, journal
        id, year, kind and author tuple a row; ids and references are also
        codes into ``names``, row ``i``'s id ``names[id_codes[i]]`` and its
        references the next ``counts[i]`` of ``codes``."""
        n = len(ids)
        row_of = np.full(len(names), -1, dtype=np.int64)
        row_of[list(id_codes)] = np.arange(n)
        cited = row_of[codes]
        citing = np.repeat(np.arange(n, dtype=np.int32), counts)
        resolved = cited >= 0
        unresolved = len(cited) - int(np.count_nonzero(resolved))
        if unresolved:  # copying only then, as the copies would raise a large load's peak memory
            cited, citing = cited[resolved], citing[resolved]
        journals = {jid: code for code, jid in enumerate(dict.fromkeys(journal_ids))}
        return cls._from_columns(
            ids,
            tuple(journals),
            np.array(years, dtype=np.int32),
            np.fromiter(map(journals.__getitem__, journal_ids), np.int32, n),
            np.fromiter(map(KIND_CODES.__getitem__, kinds), np.int8, n),
            citing,
            cited,
            unresolved=unresolved,
            authors=authors,
            references=(names, codes, counts),
        )

    @classmethod
    def _from_columns(
        cls, ids, journals, year, journal_code, kind_code, citing, cited,
        unresolved=0, *, authors, references=None,
    ) -> "Corpus":
        """Index papers given as columns in row order: ``ids``, ``year``,
        ``journal_code`` (into ``journals``, each of which has a paper),
        ``kind_code`` and ``authors`` (a tuple of row tuples), plus the resolved
        citations as (``citing``, ``cited``) row pairs in any order.  The
        papers' references in input order, if known, are ``references`` (see
        :meth:`_reference_columns`)."""
        corpus = object.__new__(cls)
        n = len(ids)
        corpus._ids = ids
        corpus._row = {paper_id: i for i, paper_id in enumerate(ids)}
        corpus._journals = journals
        corpus._journal_codes = {jid: code for code, jid in enumerate(journals)}
        corpus._year, corpus._journal_code, corpus._kind_code = year, journal_code, kind_code
        corpus._authors = authors
        # sorting (cited, citing) keys keeps each paper's citations in record
        # order; in place, since the temporaries set a large load's peak memory
        keys = cited.astype(np.int64)
        keys *= n
        keys += citing
        keys.sort()
        keys %= n
        corpus._citing_idx = keys.astype(np.int32)
        corpus._indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(cited, minlength=n), out=corpus._indptr[1:])
        for array in (year, journal_code, kind_code, corpus._indptr, corpus._citing_idx):
            array.setflags(write=False)

        corpus._references = references
        corpus._author_rows = None
        corpus._unresolved = unresolved
        return corpus

    def _reference_columns(self) -> tuple:
        """Every paper's references as ``(names, codes, counts)``, row ``i``'s
        being the next ``counts[i]`` of ``codes`` into ``names``: in input
        order for a loaded corpus, the cited rows ascending for a generated one."""
        if self._references is not None:
            return self._references
        n = len(self._ids)
        cited = np.repeat(np.arange(n, dtype=np.int64), np.diff(self._indptr))
        by_citing = np.sort(self._citing_idx.astype(np.int64) * n + cited) % n
        return self._ids, by_citing, np.bincount(self._citing_idx, minlength=n)

    @property
    def edges(self) -> np.ndarray:
        """A new ``(m, 2)`` array of (citing row, cited row) pairs, in ``citing_idx`` order."""
        cited = np.repeat(np.arange(len(self._ids)), np.diff(self._indptr))
        return np.column_stack((self._citing_idx, cited))

    @property
    def author_rows(self) -> Mapping[str, np.ndarray]:
        """Author id -> the rows of every paper listing that author, ascending,
        as read-only views of one array; authors in order of first appearance."""
        if self._author_rows is None:
            code_of = _Codes()  # numbers the authors in order of first appearance
            codes = np.fromiter(map(code_of.__getitem__, chain.from_iterable(self._authors)), int)
            rows = np.repeat(np.arange(len(self), dtype=np.int64), list(map(len, self._authors)))
            rows = rows[np.argsort(codes, kind="stable")]
            rows.setflags(write=False)
            ends = np.cumsum(np.bincount(codes, minlength=len(code_of))).tolist()
            self._author_rows = MappingProxyType(
                {aid: rows[lo:hi] for aid, lo, hi in zip(code_of, [0, *ends], ends)}
            )
        return self._author_rows

    @property
    def unresolved_reference_count(self) -> int:
        return self._unresolved

    # the read-only columnar index described in the module docstring
    ids = property(lambda self: self._ids)
    journals = property(lambda self: self._journals)
    year = property(lambda self: self._year)
    journal_code = property(lambda self: self._journal_code)
    kind_code = property(lambda self: self._kind_code)
    authors = property(lambda self: self._authors)
    indptr = property(lambda self: self._indptr)
    citing_idx = property(lambda self: self._citing_idx)

    def journal_rows(self, journal_id: str) -> tuple[int, np.ndarray]:
        """The journal's code and the rows of its papers, ascending."""
        try:
            code = self._journal_codes[journal_id]
        except KeyError:
            raise UnknownIdError(f"unknown journal {journal_id!r}") from None
        return code, np.flatnonzero(self._journal_code == code)

    def incoming(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """CSR slice of the citations ``rows`` receive: for each, the position
        in ``rows`` of the cited paper and the citing row."""
        starts = self._indptr[rows]
        counts = self._indptr[rows + 1] - starts
        owner = np.repeat(np.arange(len(rows)), counts)
        offsets = np.cumsum(counts) - counts
        return owner, self._citing_idx[starts[owner] + np.arange(len(owner)) - offsets[owner]]

    def rows(self, paper_ids: Iterable[str]) -> np.ndarray:
        """The row of each paper id; an unknown id raises :class:`UnknownIdError`."""
        try:
            return np.array([self._row[pid] for pid in paper_ids], dtype=np.int64)
        except KeyError as exc:
            raise UnknownIdError(f"unknown paper id {exc.args[0]!r}") from None

    def citation_counts(self, rows, citing_years: Iterable[int] | None = None) -> list[int]:
        """In-corpus citations to each row's paper, optionally from the given citing years only."""
        rows = np.asarray(rows, dtype=np.int64)
        if citing_years is None:
            return (self._indptr[rows + 1] - self._indptr[rows]).tolist()
        owner, citing = self.incoming(rows)
        counted = np.isin(self._year[citing], list(citing_years))
        return np.bincount(owner[counted], minlength=len(rows)).tolist()

    def __len__(self) -> int:
        return len(self._ids)

    def __repr__(self) -> str:
        return (
            f"<Corpus papers={len(self._ids)} edges={len(self._citing_idx)} "
            f"journals={len(self._journals)} "
            f"unresolved={self._unresolved}>"
        )


@dataclass(frozen=True, slots=True)
class ValidationReport:
    """Counts of data anomalies; reporting only, never mutates the corpus."""

    paper_count: int
    edge_count: int
    unresolved_references: int
    negative_age_edges: int
    papers_without_authors: int

    def to_dict(self) -> dict[str, int]:
        return asdict(self)


def validate(corpus: Corpus) -> ValidationReport:
    """Tally unresolved references, negative-age edges, authorless papers."""
    cited_year = np.repeat(corpus.year, np.diff(corpus.indptr))
    return ValidationReport(
        paper_count=len(corpus),
        edge_count=len(corpus.citing_idx),
        unresolved_references=corpus.unresolved_reference_count,
        negative_age_edges=int(np.count_nonzero(corpus.year[corpus.citing_idx] < cited_year)),
        papers_without_authors=list(map(len, corpus.authors)).count(0),
    )


def _check_record(obj: Any, line_number: int, strict: bool, warned: set, pending: list) -> None:
    """Raise the :class:`RecordError` a record-at-a-time check of ``obj``
    raises first.  Each unknown field name not yet in ``warned`` is added
    to it, and its warning queued on ``pending`` as (line number, text)."""
    if not isinstance(obj, Mapping):
        raise RecordError(
            f"line {line_number}: record must be a JSON object", line_number
        )
    missing = [f for f in _RECORD_FIELDS if f not in obj]
    if missing:
        raise RecordError(
            f"line {line_number}: missing field(s) {', '.join(missing)}", line_number
        )
    unknown = sorted(set(obj) - set(_RECORD_FIELDS))
    if unknown:
        if strict:
            raise RecordError(
                f"line {line_number}: unknown field(s) {', '.join(unknown)}",
                line_number,
            )
        for name in unknown:
            if name not in warned:
                warned.add(name)
                pending.append((line_number, (
                    f"ignoring unknown record field {name!r} "
                    f"(first seen on line {line_number})"
                )))
    _check_fields(line_number, *map(obj.__getitem__, _RECORD_FIELDS))


def _check_fields(line_number: int, *values: Any) -> None:
    """Check one record's field values, given in ``_RECORD_FIELDS`` order."""
    try:
        PaperRecord(*values)
    except ValueError as exc:
        raise RecordError(f"line {line_number}: {exc}", line_number) from exc


def _settle(records: Iterable[tuple], pending: list, line_number: float, unique_ids: bool) -> None:
    """Raise the error a record-at-a-time check raises first on ``records``
    (line number, then the field values), after emitting the queued
    warnings of the lines up to its line.  Without one, emit those up to
    ``line_number``."""
    seen: set[str] = set()
    error = None
    for number, *values in records:
        try:
            _check_fields(number, *values)
        except RecordError as exc:
            error = exc
        if error is None and unique_ids and values[0] in seen:
            error = DuplicateIdError(f"duplicate paper id {values[0]!r}")
        if error is not None:
            line_number = number
            break
        seen.add(values[0])
    for line, message in pending:
        if line <= line_number:
            warnings.warn(message, stacklevel=4)
    if error is not None:
        raise error


_scan = json.JSONDecoder().scan_once  # the C scanner that json.loads ends in


def _decode(text: str) -> Any:
    """``json.loads(text)``, calling the scanner directly when one value
    fills the text.  Anything else goes to ``json.loads`` itself, for its
    exact error: a BOM, surrounding whitespace, extra data, the digit limit."""
    try:
        value, end = _scan(text, 0)
    except (StopIteration, ValueError):
        return json.loads(text)
    return value if end == len(text) else json.loads(text)


class _Codes(dict):
    """Value -> code, numbering values 0 up in order of first lookup."""

    __slots__ = ()

    def __missing__(self, key):
        self[key] = code = len(self)
        return code


def _read_rows(source: Iterable, strict: bool, unique_ids: bool, build: Callable):
    """``build`` called with the columns of the records in ``source`` (items
    as for :func:`iter_records`; columns as for :meth:`Corpus._from_rows`),
    raising the error and emitting the warnings a record-at-a-time check
    would, in line order.

    Each line gets only the cheap work: decoding, one key-set test, and
    coding or interning its strings.  The field checks then run once per
    column; only when one fails are the records checked one at a time, to
    find the first bad line.
    """
    rows: list[tuple] = []  # line number, id code, journal, year, kind, authors, reference count
    codes = array("q")  # every row's reference codes, in order
    code_of = (memo := _Codes()).__getitem__
    interned: dict[str, str] = {}  # the distinct authors
    intern = interned.setdefault
    pending: list[tuple[int, str]] = []  # unknown-field warnings, emitted once checked
    warned: set[str] = set()

    def read_so_far(rows, names):
        end = 0
        for number, code, journal, year, kind, authors, count in rows:
            refs = [names[c] for c in codes[end : end + count]]
            yield number, names[code], journal, year, kind, list(authors), refs
            end += count

    def check(obj, line_number):
        try:
            _check_record(obj, line_number, strict, warned, pending)
        except RecordError:
            _settle(read_so_far(rows, list(memo)), pending, line_number, unique_ids)
            raise

    for line_number, item in enumerate(source, 1):
        if isinstance(item, PaperRecord):
            item = dict(zip(_RECORD_FIELDS, (
                item.id, item.journal_id, item.year, item.kind,
                list(item.author_ids), list(item.reference_ids),
            )))
        obj = item
        try:
            if isinstance(item, bytes):
                item = item.decode("utf-8")
            if isinstance(item, str):
                if not item or item.isspace():
                    continue
                obj = _decode(item)
        except (ValueError, RecursionError) as exc:
            _settle(read_so_far(rows, list(memo)), pending, line_number, unique_ids)
            # ValueError also covers integers longer than Python's digit limit
            problem = (
                f"invalid UTF-8 ({exc.reason})" if isinstance(exc, UnicodeDecodeError)
                else f"invalid JSON ({getattr(exc, 'msg', exc)})"
            )
            raise RecordError(f"line {line_number}: {problem}", line_number) from exc
        if (type(obj) is not dict or obj.keys() != _FIELD_SET
                or type(obj["authors"]) is not list or type(obj["references"]) is not list):
            check(obj, line_number)
        pid, authors, references = obj["id"], obj["authors"], obj["references"]
        try:
            codes.extend(map(code_of, references))
            rows.append((
                line_number, code_of(pid), obj["journal"], obj["year"], obj["kind"],
                tuple(map(intern, authors, authors)), len(references),
            ))
        except TypeError:  # an unhashable id, author or reference, which check rejects
            check(obj, line_number)

    # the columns and names hold the same values, and the build's peak
    # memory would count the row tuples and the memo
    columns = tuple(zip(*rows)) or ((),) * 7
    rows.clear()
    _, id_codes, journal_ids, years, kinds, authors, counts = columns
    names = list(memo)
    memo.clear()
    ids = tuple(map(names.__getitem__, id_codes))
    ref_codes = np.frombuffer(codes, dtype=np.int64)
    checked = (
        set(map(type, chain(names, journal_ids, kinds))) <= {str}
        and all(ids) and all(journal_ids) and set(kinds) <= KINDS
        and set(map(type, years)) <= {int}
        and YEAR_MIN <= min(years, default=YEAR_MIN) and max(years, default=YEAR_MAX) <= YEAR_MAX
        and set(map(type, chain.from_iterable(authors))) <= {str}
        and sum(map(len, authors)) == sum(map(len, map(frozenset, authors)))
        and (not unique_ids or len(set(id_codes)) == len(ids))
    )
    if not checked:
        _settle(read_so_far(zip(*columns), names), pending, math.inf, unique_ids)
    built = build(ids, journal_ids, years, kinds, authors, names, id_codes, ref_codes, counts)
    # after the build: freed before it, these checks' large temporaries raise
    # glibc's mmap threshold, and the build's arrays then fragment the heap
    # (peak RSS of a report on the 40 % math preset 56 -> 64 MB)
    if checked:
        checked = _distinct_references(id_codes, len(names), ref_codes, counts)
        checked = checked and utf8_encodable(chain(names, set(journal_ids), interned))
        _settle(() if checked else read_so_far(zip(*columns), names), pending, math.inf, unique_ids)
    return built


def _distinct_references(id_codes, n_names, codes, counts) -> bool:
    """Whether no row lists a reference twice or references itself."""
    # one reference-sized temporary at a time, as they set a load's peak memory
    if np.any(np.repeat(np.array(id_codes, dtype=np.int32), counts) == codes):
        return False
    keys = np.repeat(np.arange(len(id_codes), dtype=np.int64) * n_names, counts)
    keys += codes
    keys.sort()
    return not np.any(keys[1:] == keys[:-1])


def iter_records(
    source: Iterable[Union[str, bytes, Mapping, PaperRecord]], strict: bool = False
) -> Iterator[PaperRecord]:
    """Yield :class:`PaperRecord` from JSON lines, dicts or ready-made records.

    Blank lines are skipped.  Malformed items raise :class:`RecordError`
    carrying the 1-based line number; the whole source is read and checked
    before the first record is yielded.  Equal id and reference strings
    decoded in one call share one object, as do equal author strings, so a
    loaded corpus holds each distinct id once however often it is cited.
    """
    ids, journal_ids, years, kinds, authors, names, _, codes, counts = _read_rows(
        source, strict, unique_ids=False, build=lambda *columns: columns
    )
    references = _per_row(names, codes, counts)
    yield from map(PaperRecord, ids, journal_ids, years, kinds, authors, references)


def load_corpus(
    source: Union[str, Path, IO[str], Iterable], strict: bool = False
) -> Corpus:
    """Load a corpus from a JSON-lines path, open file or record iterable
    (items as for :func:`iter_records`); a repeated id raises
    :class:`DuplicateIdError`."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            source = _file_lines(handle)
            return _read_rows(source, strict, unique_ids=True, build=Corpus._from_rows)
    return _read_rows(source, strict, unique_ids=True, build=Corpus._from_rows)


_BLOCK = 1 << 16  # below glibc's 128 KiB mmap threshold, so blocks reuse heap memory


def _file_lines(handle: IO[bytes]) -> Iterator[Union[str, bytes]]:
    """The lines of a binary file without their ends, split where
    ``bytes.splitlines`` splits: at ``\\n``, ``\\r\\n`` and a lone ``\\r``, as
    in text mode.  The whole lines of each block are decoded and split in
    one go; lines that hold ``\\r`` or invalid UTF-8 are split as bytes
    instead, so that an error names its line."""
    carry: list[bytes] = []  # what was read after the last \n
    for block in iter(partial(handle.read, _BLOCK), b""):
        cut = block.rfind(b"\n") + 1
        if not cut:
            carry.append(block)
            continue
        yield from _split_lines(b"".join([*carry, block[:cut]]))
        carry = [block[cut:]]
    last = b"".join(carry)
    if last:
        yield from _split_lines(last + b"\n")


def _split_lines(text: bytes) -> list:
    """The lines of ``text``, which ends in ``\\n``.  Never ``str.splitlines``,
    which also splits at ``\\x0b``, ``\\x0c``, ``\\x85`` and ``\\u2028``."""
    if b"\r" not in text:
        try:
            lines = text.decode("utf-8").split("\n")
        except UnicodeDecodeError:
            pass
        else:
            lines.pop()
            return lines
    return text.splitlines()


_quote = json.encoder.encode_basestring  # json.dumps's quoting with ensure_ascii=False
_LINE = '{"id":%s,"journal":%s,"year":%d,"kind":%s,"authors":[%s],"references":[%s]}\n'
_KIND_TEXTS = tuple(map(_quote, KIND_NAMES))


def corpus_to_jsonl(corpus: Corpus) -> str:
    """One canonical (byte-stable) JSON line a paper, fields in input order,
    rendered from the columns with each distinct string quoted once as
    ``json.dumps(..., ensure_ascii=False)`` quotes it; round-trips through load_corpus."""
    names, codes, counts = corpus._reference_columns()
    references = _per_row(list(map(_quote, names)), codes, counts, ",".join)
    journals = tuple(map(_quote, corpus.journals))
    author = {aid: _quote(aid) for aid in set(chain.from_iterable(corpus.authors))}.__getitem__
    return "".join(map(_LINE.__mod__, zip(
        map(_quote, corpus._ids), map(journals.__getitem__, corpus.journal_code.tolist()),
        corpus.year.tolist(), map(_KIND_TEXTS.__getitem__, corpus.kind_code.tolist()),
        [",".join(map(author, row)) for row in corpus.authors], references,
    )))


def write_corpus(corpus: Corpus, target: Union[str, Path, IO[str]]) -> None:
    """Write :func:`corpus_to_jsonl` of ``corpus`` to a path (as UTF-8) or
    an open text file."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(corpus_to_jsonl(corpus))
    else:
        target.write(corpus_to_jsonl(corpus))
