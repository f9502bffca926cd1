"""Citation corpus: data model, JSON-lines ingestion, validation.

A corpus is an immutable columnar index of papers.  Paper ``i`` (its *row*,
in record order) has ``ids[i]``, ``year[i]``, ``journal_code[i]`` (into
``journals``), ``kind_code[i]`` and ``author_count[i]`` authors.  Its
authors' ids, and its references in the order its record lists them, are
each the next ``counts[i]`` int32 codes into ``names`` of one ``(names,
codes, counts)`` layout; ``authors`` builds the author row tuples.
``author_rows`` maps an author to the rows of their papers, and the
papers citing row ``i`` are ``citing_idx[indptr[i]:indptr[i + 1]]`` (int32
rows), in record order, the CSR layout of ``scipy.sparse.csr_matrix``; they
are built by sorting one int32 key an edge in place (int64 past 46,340
papers), and :meth:`Corpus.incoming` gathers them at four bytes an edge;
the whole-journal metrics and :func:`validate` take them from
``Corpus._incoming_parts``, a slice of rows receiving about ``_PART_EDGES``
citations at a time.
Ids enter through :meth:`Corpus.rows`; every other call takes rows, checked
by :meth:`Corpus.checked_rows`.  Metrics are numpy reductions over these
arrays, and counts become Python ints before any ratio is formed.  Every
corpus, loaded or generated, is built by one constructor from these
columns, and keeps its papers as columns only.  The loader reads a path
once, as bytes, decodes each line as UTF-8 and with ``json``'s C scanner
(``json.loads`` only for its exact error) into the columns, and runs the
field checks once per column; only when one fails does it check record by
record, so that the error names the first bad line, as a line-by-line
loader would.  ``edges`` gives the same citations as (citing row, cited
row) pairs.  References pointing outside the corpus are *counted*
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

import inspect
import json
import math
import warnings
from array import array
from collections.abc import Callable, Iterable, Iterator, Mapping
from functools import partial
from itertools import chain, filterfalse, islice
from pathlib import Path
from types import MappingProxyType
from typing import Any, NoReturn, Union

import numpy as np

from .errors import DuplicateIdError, RecordError, UnknownIdError, UsageError

KINDS = frozenset({"research-article", "review", "letter", "editorial", "book"})

#: Kinds counted as citable items in journal denominators.
SUBSTANTIVE_KINDS = frozenset({"research-article", "review"})

YEAR_MIN = 1800
YEAR_MAX = 2100

#: Row codes of ``Corpus.kind_code``.
KIND_CODES = {"research-article": 0, "review": 1, "letter": 2, "editorial": 3, "book": 4}
KIND_NAMES = tuple(KIND_CODES)
SUBSTANTIVE_CODES = tuple(KIND_CODES[kind] for kind in sorted(SUBSTANTIVE_KINDS))

#: About the citations one part of ``Corpus._incoming_parts`` receives.
_PART_EDGES = 1 << 14

_RECORD_FIELDS = ("id", "journal", "year", "kind", "authors", "references")
_FIELD_SET = frozenset(_RECORD_FIELDS)


class _Record:
    """Base of the frozen record types, which behave as ``dataclass(frozen=True)``
    classes do: built by position or keyword, then checked by ``__post_init__``;
    compared, hashed and shown field by field; read-only.

    A record lists its fields as class annotations, in order, with any
    defaults as class attributes after the fields without one.  The
    constructor takes every field but those named in the class keyword
    ``derived``, which ``__post_init__`` sets.  ``_replace`` and ``_asdict``
    stand for ``dataclasses.replace`` and ``dataclasses.asdict``.  Unlike a
    dataclass, whose code generation took most of the library's import time,
    the base generates no code: its one ``__init__`` binds any call but a
    positional one through the class's ``__signature__``, and binding's
    ``TypeError`` gets the class name in front.
    """

    __slots__ = ()

    def __init_subclass__(cls, derived: tuple[str, ...] = ()):
        cls._fields = tuple(cls.__annotations__)
        cls._params = cls.__match_args__ = tuple(f for f in cls._fields if f not in derived)
        cls._defaults = tuple(cls.__dict__[f] for f in cls._params if f in cls.__dict__)
        kind, empty = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty
        cls.__signature__ = inspect.Signature(
            [inspect.Parameter(f, kind, default=cls.__dict__.get(f, empty)) for f in cls._params]
        )

    def __init__(self, *args, **kwargs):
        missing = len(self._params) - len(args)
        if kwargs or not 0 <= missing <= len(self._defaults):
            try:
                bound = self.__signature__.bind(*args, **kwargs)
            except TypeError as error:
                raise TypeError(f"{type(self).__name__}() {error}") from None
            bound.apply_defaults()
            args = bound.args
        elif missing:
            args += self._defaults[-missing:]
        self.__dict__.update(zip(self._params, args))
        self.__post_init__()

    def __post_init__(self):
        """Check the fields, or derive some; records override it."""

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        """A new record of the constructor's arguments, with ``changes``;
        checked as any record is."""
        return type(self)(**{**{name: self.__dict__[name] for name in self._params}, **changes})

    def __reduce__(self):
        """Pickled as its constructor's arguments, a mapping proxy as a dict."""
        args = (self.__dict__[name] for name in self._params)
        return type(self), tuple(dict(a) if type(a) is MappingProxyType else a for a in args)

    def _asdict(self) -> dict:
        """The fields as a new dict, in which records, also inside tuples,
        lists and dicts, are dicts too."""
        return {name: _plain(value) for name, value in zip(self._fields, self._values())}


def _plain(value):
    """``value`` as ``dataclasses.asdict`` converts a field's value."""
    if isinstance(value, _Record):
        return value._asdict()
    if type(value) in (tuple, list):
        return type(value)(map(_plain, value))
    if type(value) is dict:
        return {key: _plain(item) for key, item in value.items()}
    return value


def utf8_encodable(strings: Iterable[str]) -> bool:
    """Whether UTF-8 can encode the strings: not if one holds a lone surrogate."""
    try:
        "".join(strings).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _bounds(counts) -> np.ndarray:
    """Row ``i``'s codes of ``(names, codes, counts)`` are ``codes[bounds[i]:bounds[i + 1]]``."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


def _per_row(names, codes, bounds: np.ndarray, join=",".join) -> list:
    """``join`` of each row's names, row ``i``'s being ``names[codes[bounds[i]:bounds[i + 1]]]``;
    the names of all the rows are looked up in one call."""
    spans = bounds.tolist()
    items = np.asarray(names, dtype=object)[codes[spans[0] : spans[-1]]].tolist()
    return [join(items[lo - spans[0] : hi - spans[0]]) for lo, hi in zip(spans, spans[1:])]


def _integer_rows(rows) -> np.ndarray:
    """``rows`` as an array; :class:`UsageError` if a row is a float, bool or
    string, not an integer.  An empty list, whose dtype is float, passes."""
    array = np.asarray(rows)
    if array.size and (array.dtype.kind not in "iu" or not isinstance(rows, np.ndarray)
                       and any(isinstance(row, (bool, np.bool_)) for row in rows)):
        raise UsageError("rows must be integers")
    return array


def _check_int(name: str, value, minimum: int | None = None, error: type = UsageError) -> int:
    """``value`` as an int if it is an int or numpy integer, not a bool, and
    >= ``minimum``; else ``error``: ``<name> must be an int, got <value>`` or
    ``<name> must be >= <minimum>``.  The library's one int check."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an int, got {value!r}")
    if minimum is not None and value < minimum:
        raise error(f"{name} must be >= {minimum}")
    return int(value)


def _check_names(name: str, names):
    """``names``, unless it is a ``str`` or ``bytes``, whose characters would
    be read as the names: then :class:`UsageError` ``<name> must be a
    collection of names, got <value>``."""
    if isinstance(names, (str, bytes)):
        raise UsageError(f"{name} must be a collection of names, got {names!r}")
    return names


class Corpus:
    """Immutable, indexed collection of papers and their citation edges.

    Construct with :func:`load_corpus` or :func:`~citestats.synth.generate`.
    Safe for concurrent read access: all exposed containers are read-only views.
    """

    __slots__ = (
        "_ids", "_row", "_journal_codes", "_year", "_journal_code", "_kind_code", "_authors",
        "_indptr", "_citing_idx", "_references", "_journals", "_author_rows", "_unresolved",
    )

    def __init__(self, *args, **kwargs):
        raise TypeError("use load_corpus() or generate()")

    @classmethod
    def from_records(cls, records: Iterable[Mapping]) -> "Corpus":
        """:func:`load_corpus` of record mappings; kept for the benchmark harness."""
        return load_corpus(records)

    @classmethod
    def _from_columns(
        cls, ids, journals, year, journal_code, kind_code, authors, references, id_codes
    ) -> "Corpus":
        """Index papers given as columns in row order: ``ids``, ``year``,
        ``journal_code`` (into ``journals``, each of which has a paper),
        ``kind_code``, and the authors' and references' ``(names, codes,
        counts)``, row ``i``'s being the next ``counts[i]`` codes into
        ``names``; row ``i``'s id is ``references[0][id_codes[i]]``."""
        corpus = object.__new__(cls)
        n = len(ids)
        names, codes, counts = references
        # one (cited row, citing row) key an edge, cited * n + citing, sorted:
        # each paper's citations then run in record order, and the -1 of an
        # unresolved reference puts it in the negative prefix.  Built in place,
        # four bytes wide while n * n fits, as the keys set a load's peak memory
        dtype = np.int32 if (n + 1) * n < 2**31 else np.int64
        row_of = np.full(len(names), -1, dtype=dtype)
        row_of[id_codes] = np.arange(n, dtype=dtype)
        key = row_of[codes]
        key *= n
        key += np.repeat(np.arange(n, dtype=dtype), counts)
        key.sort()
        # where each cited row's keys start, the first nonnegative key being
        # the edges' start; sought in the keys' dtype, which makes no copy
        bounds = key.searchsorted(np.arange(n + 1, dtype=dtype) * n)
        corpus._indptr = bounds - bounds[0]
        key = key[bounds[0] :]
        key %= n
        corpus._citing_idx = key.astype(np.int32, copy=False)
        corpus._ids = ids
        corpus._row = {paper_id: i for i, paper_id in enumerate(ids)}
        corpus._journals = journals
        corpus._journal_codes = {jid: code for code, jid in enumerate(journals)}
        corpus._year, corpus._journal_code, corpus._kind_code = year, journal_code, kind_code
        for array in (year, journal_code, kind_code, authors[2], corpus._indptr,
                      corpus._citing_idx):
            array.setflags(write=False)
        corpus._authors, corpus._references = authors, references
        corpus._author_rows = None
        corpus._unresolved = int(bounds[0])
        return corpus

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
            names, codes, counts = self._authors
            order = np.argsort(codes, kind="stable")
            rows = np.repeat(np.arange(len(self), dtype=np.int64), counts)[order]
            rows.setflags(write=False)
            sizes = np.bincount(codes, minlength=len(names))
            ends = np.cumsum(sizes)
            # in order of first appearance, which a generated corpus's pool
            # codes do not follow: an author's first entry leads its stable run
            listed = np.flatnonzero(sizes)
            listed = listed[np.argsort(order[ends[listed] - sizes[listed]])]
            spans = [0, *ends.tolist()]
            self._author_rows = MappingProxyType(
                {names[c]: rows[spans[c] : spans[c + 1]] for c in listed.tolist()}
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
    author_count = property(lambda self: self._authors[2])
    authors = property(  # a new tuple each time
        lambda self: tuple(_per_row(*self._authors[:2], _bounds(self._authors[2]), tuple))
    )
    indptr = property(lambda self: self._indptr)
    citing_idx = property(lambda self: self._citing_idx)

    def journal_rows(self, journal_id: str) -> tuple[int, np.ndarray]:
        """The journal's code and the rows of its papers, ascending."""
        try:
            code = self._journal_codes[journal_id]
        except KeyError:
            raise UnknownIdError(f"unknown journal {journal_id!r}") from None
        return code, np.flatnonzero(self._journal_code == code)

    def incoming(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """CSR slice of the citations ``rows`` receive: for each, the position
        in ``rows`` of the cited paper and the citing row, both int32."""
        rows = self.checked_rows(rows)
        starts = self._indptr[rows]
        counts = self._indptr[rows + 1] - starts
        owner = np.repeat(np.arange(len(rows), dtype=np.int32), counts)
        # the positions in citing_idx, summed in place: a step of one, and at
        # each nonempty row's first place the jump to its start from the last
        # position before it (from 0 for the first); four bytes wide while
        # citing_idx's length fits, as they set the call's peak memory
        nonempty = counts > 0
        starts, counts = starts[nonempty], counts[nonempty]
        positions = np.ones(len(owner), np.int32 if len(self._citing_idx) < 2**31 else np.int64)
        lasts = starts + counts - 1
        positions[np.cumsum(counts) - counts] = starts - np.concatenate(([0], lasts[:-1]))
        np.cumsum(positions, dtype=positions.dtype, out=positions)
        return owner, self._citing_idx[positions]

    def _incoming_parts(self, rows) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """``(lo, owner, citing)``: :meth:`incoming` of ``rows[lo:hi]`` for
        consecutive slices, a new one starting after each row at which the
        running count of citations received passes a multiple of
        ``_PART_EDGES``.  So a slice receives fewer than ``_PART_EDGES``
        citations beyond its first row's, and a metric summed over the slices
        makes no per-edge array as long as all the rows receive."""
        rows = self.checked_rows(rows)
        parts = np.cumsum(self._indptr[rows + 1] - self._indptr[rows]) // _PART_EDGES
        cuts = (np.flatnonzero(np.diff(parts)) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, len(rows)]):
            yield (lo, *self.incoming(rows[lo:hi]))

    def rows(self, paper_ids: Iterable[str]) -> np.ndarray:
        """The row of each paper id; an unknown id raises :class:`UnknownIdError`."""
        paper_ids = _check_names("paper_ids", paper_ids)
        try:
            return np.array([self._row[pid] for pid in paper_ids], dtype=np.int64)
        except KeyError as exc:
            raise UnknownIdError(f"unknown paper id {exc.args[0]!r}") from None

    def checked_rows(self, rows) -> np.ndarray:
        """``rows`` as int64.  A row that is not an integer (a float, bool or
        string) raises :class:`UsageError`, and one outside ``0..len - 1``
        :class:`UnknownIdError`."""
        rows = _integer_rows(rows).astype(np.int64, copy=False)
        outside = rows[(rows < 0) | (rows >= len(self._ids))]
        if len(outside):
            raise UnknownIdError(f"unknown row {int(outside[0])}")
        return rows

    def citation_counts(self, rows, citing_years: Iterable[int] | None = None) -> list[int]:
        """In-corpus citations to each row's paper, optionally from the given citing years only."""
        rows = self.checked_rows(rows)
        if citing_years is None:
            return (self._indptr[rows + 1] - self._indptr[rows]).tolist()
        owner, citing = self.incoming(rows)
        counted = np.isin(self._year[citing], [_check_int("citing year", y) for y in citing_years])
        return np.bincount(owner[counted], minlength=len(rows)).tolist()

    def __len__(self) -> int:
        return len(self._ids)

    def __repr__(self) -> str:
        return (
            f"<Corpus papers={len(self._ids)} edges={len(self._citing_idx)} "
            f"journals={len(self._journals)} "
            f"unresolved={self._unresolved}>"
        )


class ValidationReport(_Record):
    """Counts of data anomalies; reporting only, never mutates the corpus."""

    paper_count: int
    edge_count: int
    unresolved_references: int
    negative_age_edges: int
    papers_without_authors: int


def validate(corpus: Corpus) -> ValidationReport:
    """Tally unresolved references, negative-age edges, authorless papers."""
    year, negative = corpus.year, 0
    for lo, owner, citing in corpus._incoming_parts(np.arange(len(corpus))):
        negative += int(np.count_nonzero(year[citing] < year[owner + lo]))
    return ValidationReport(
        paper_count=len(corpus),
        edge_count=len(corpus.citing_idx),
        unresolved_references=corpus.unresolved_reference_count,
        negative_age_edges=negative,
        papers_without_authors=int(np.count_nonzero(corpus.author_count == 0)),
    )


def _fail(line_number: int, problem: str) -> NoReturn:
    """Raise :class:`RecordError` ``line <line_number>: <problem>``."""
    raise RecordError(f"line {line_number}: {problem}", line_number)


def _check_record(obj: Any, line_number: int, strict: bool, warned: set, pending: list) -> None:
    """Raise the :class:`RecordError` a record-at-a-time check of ``obj``
    raises first.  Each unknown field name not yet in ``warned`` is added
    to it, and its warning queued on ``pending`` as (line number, text)."""
    if not isinstance(obj, Mapping):
        _fail(line_number, "record must be a JSON object")
    missing = [f for f in _RECORD_FIELDS if f not in obj]
    if missing:
        _fail(line_number, f"missing field(s) {', '.join(missing)}")
    unknown = sorted(set(obj) - _FIELD_SET, key=str)  # a mapping's keys need not be strings
    if unknown:
        if strict:
            _fail(line_number, f"unknown field(s) {', '.join(map(str, unknown))}")
        for name in unknown:
            if name not in warned:
                warned.add(name)
                pending.append((line_number, (
                    f"ignoring unknown record field {name!r} "
                    f"(first seen on line {line_number})"
                )))
    _check_fields(line_number, *map(obj.__getitem__, _RECORD_FIELDS))


def _check_fields(line_number: int, *values: Any) -> None:
    """Raise the :class:`RecordError` of the first check that one record's
    field values, given in ``_RECORD_FIELDS`` order, fail: the id, journal
    and kind are strings, the year an int (not a bool), the authors and
    references lists or tuples of strings, no string holds a lone
    surrogate, the id and journal are nonempty, the year is in [YEAR_MIN,
    YEAR_MAX], the kind is known, the authors are distinct, and the
    references are distinct and exclude the paper itself."""
    fail = partial(_fail, line_number)
    pid, journal, year, kind, authors, references = values
    for field, value, expected in zip(_RECORD_FIELDS, values, (str, str, int, str)):
        if not isinstance(value, expected) or isinstance(value, bool):
            fail(f"{field!r} must be of type {expected.__name__}")
    for field, value in zip(_RECORD_FIELDS[4:], values[4:]):
        if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
            fail(f"{field!r} must be an array of strings")
    for field, value in zip(_RECORD_FIELDS, values):
        if field != "year" and not utf8_encodable([value] if isinstance(value, str) else value):
            fail(f"{field!r} holds a lone surrogate")
    if not pid:
        fail("paper id must be a nonempty string")
    if not journal:
        fail(f"paper {pid!r}: journal must be a nonempty string")
    if not YEAR_MIN <= year <= YEAR_MAX:
        fail(f"paper {pid!r}: year {year} outside [{YEAR_MIN}, {YEAR_MAX}]")
    if kind not in KINDS:
        fail(f"paper {pid!r}: kind {kind!r} not one of {sorted(KINDS)}")
    if len(set(authors)) != len(authors):
        fail(f"paper {pid!r}: duplicate author ids")
    if len(set(references)) != len(references):
        fail(f"paper {pid!r}: duplicate reference ids")
    if pid in references:
        fail(f"paper {pid!r}: paper references itself")


def _settle(records: Iterable[tuple], pending: list, line_number: float) -> None:
    """Raise the error a record-at-a-time check raises first on ``records``
    (line number, then the field values), after emitting the queued
    warnings of the lines up to its line.  Without one, emit those up to
    ``line_number``."""
    seen: set[str] = set()
    try:
        for number, *values in records:
            _check_fields(number, *values)
            if values[0] in seen:
                raise DuplicateIdError(f"line {number}: duplicate paper id {values[0]!r}", number)
            seen.add(values[0])
    except RecordError as exc:
        line_number = exc.line_number
        raise
    finally:
        for line, message in pending:
            if line <= line_number:
                warnings.warn(message, stacklevel=4)


def _object(pairs: list) -> dict:
    """A JSON object's dict; :class:`RecordError` if it repeats a key."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [key for key, _ in pairs]
        raise RecordError(f"repeated key {next(k for i, k in enumerate(keys) if k in keys[:i])!r}")
    return obj


_scan = json.JSONDecoder(object_pairs_hook=_object).scan_once  # the C scanner of json.loads


def _decode(text: str) -> Any:
    """``json.loads(text, object_pairs_hook=_object)``, calling the scanner
    directly when one value starts the text and JSON whitespace (`` \\t\\n\\r``),
    such as a text file's line end, is all that follows it; anything else goes
    to ``json.loads`` for its exact error: a BOM, leading whitespace, extra
    data, the digit limit."""
    try:
        value, end = _scan(text, 0)
    except (StopIteration, ValueError):
        return json.loads(text, object_pairs_hook=_object)
    if end == len(text) or not text[end:].strip(" \t\n\r"):
        return value
    return json.loads(text, object_pairs_hook=_object)


class _Codes(dict):
    """Value -> code, numbering values 0 up in order of first lookup."""

    __slots__ = ()

    def __missing__(self, key):
        self[key] = code = len(self)
        return code


def _read_rows(source: Iterable, strict: bool) -> Corpus:
    """The corpus of the records in ``source`` (items as for
    :func:`load_corpus`), raising the error and emitting the warnings a
    record-at-a-time check would, in line order.

    Each line gets only the cheap work: decoding, one key-set test, and coding
    its values.  The field checks then run once per column; only when one
    fails are the records checked one at a time, to find the first bad line.
    """
    # each row's line number, author and reference count, and codes; years are
    # not coded, as a memo would merge a float year into an equal int one
    numbers, author_counts, counts = array("q"), array("q"), array("q")
    id_codes, journal_codes, kind_codes, years = array("i"), array("i"), array("i"), array("i")
    codes = array("i")  # every row's reference codes, in order, as int32
    code_of = (memo := _Codes()).__getitem__
    author_codes = array("i")  # every row's author codes, in order, as int32
    author_of = (author_memo := _Codes()).__getitem__
    journal_of = (journal_memo := _Codes()).__getitem__
    kind_of = (kind_memo := _Codes()).__getitem__
    memos = memo, author_memo, journal_memo, kind_memo
    pending: list[tuple[int, str]] = []  # unknown-field warnings, emitted once checked
    warned: set[str] = set()

    def read_so_far(names, author_names, journals, kinds):
        authors = map(author_names.__getitem__, author_codes)
        refs = map(names.__getitem__, codes)
        # the line numbers first: a bad line's other columns may run one ahead
        for number, code, journal, year, kind, n_authors, n_refs in zip(
            numbers, id_codes, journal_codes, years, kind_codes, author_counts, counts
        ):
            yield (number, names[code], journals[journal], year, kinds[kind],
                   [*islice(authors, n_authors)], [*islice(refs, n_refs)])

    for line_number, obj in enumerate(source, 1):
        try:
            try:
                if isinstance(obj, bytes):
                    obj = obj.decode("utf-8")
                if isinstance(obj, str):
                    if not obj or obj.isspace():
                        continue
                    obj = _decode(obj)
            except UnicodeDecodeError as exc:
                _fail(line_number, f"invalid UTF-8 ({exc.reason})")
            except (ValueError, RecursionError) as exc:  # or an int past the digit limit
                _fail(line_number, f"invalid JSON ({getattr(exc, 'msg', exc)})")
            except RecordError as exc:  # a repeated key, which the decoder's hook cannot place
                _fail(line_number, str(exc))
            if (type(obj) is not dict or obj.keys() != _FIELD_SET or type(obj["year"]) is not int
                    or type(obj["authors"]) is not list or type(obj["references"]) is not list):
                _check_record(obj, line_number, strict, warned, pending)
            authors, references = obj["authors"], obj["references"]
            try:
                author_codes.extend(map(author_of, authors))
                codes.extend(map(code_of, references))
                id_codes.append(code_of(obj["id"]))
                journal_codes.append(journal_of(obj["journal"]))
                kind_codes.append(kind_of(obj["kind"]))
                years.append(obj["year"])
            except (TypeError, OverflowError):  # an unhashable id, journal, kind, author or
                # reference, or a year past int32, each of which the check rejects
                _check_record(obj, line_number, strict, warned, pending)
            numbers.append(line_number)
            author_counts.append(len(authors))
            counts.append(len(references))
        except RecordError:  # the first bad line, unless an earlier line fails a column check
            _settle(read_so_far(*map(list, memos)), pending, line_number)
            raise

    names, author_names, journals, kinds = map(list, memos)
    memo.clear()  # the names hold the same values, and the build's peak would count the memo
    author_memo.clear()
    ids = tuple(map(names.__getitem__, id_codes))
    id_view, year, journal_code, kind_code, ref_codes, author_view = (
        np.frombuffer(column, np.int32)
        for column in (id_codes, years, journal_codes, kind_codes, codes, author_codes))
    ref_counts, author_count = (np.frombuffer(a, np.int64) for a in (counts, author_counts))
    authors = author_names, author_view, author_count
    checked = (
        set(map(type, chain(names, author_names, journals, kinds))) <= {str}
        and all(ids) and all(journals) and set(kinds) <= KINDS
        and YEAR_MIN <= year.min(initial=YEAR_MIN) and year.max(initial=YEAR_MAX) <= YEAR_MAX
        and len(set(id_codes)) == len(ids)
        # one reference-sized temporary at a time, and before the build, as
        # they set a load's peak memory
        and not np.any(np.repeat(id_view, ref_counts) == ref_codes)
        and _distinct_per_row(*authors) and _distinct_per_row(names, ref_codes, ref_counts)
        and utf8_encodable(chain(names, journals, author_names))
    )
    _settle(() if checked else read_so_far(names, author_names, journals, kinds), pending, math.inf)
    return Corpus._from_columns(
        ids, tuple(journals), year, journal_code,
        np.array([KIND_CODES[kind] for kind in kinds], np.int8)[kind_code],
        authors, (names, ref_codes, ref_counts), id_view,
    )


def _distinct_per_row(names, codes, counts) -> bool:
    """Whether no row of ``(names, codes, counts)`` lists a name twice."""
    dtype = np.int32 if len(counts) * len(names) < 2**31 else np.int64
    keys = np.repeat(np.arange(len(counts), dtype=dtype) * len(names), counts)
    keys += codes
    keys.sort()
    return not np.any(keys[1:] == keys[:-1])


def iter_records(
    source: Iterable[Union[str, bytes, Mapping]], strict: bool = False
) -> Iterator[dict]:
    """Yield the records :func:`load_corpus` reads from ``source``, as the
    mappings its :func:`corpus_to_jsonl` lines decode to; kept for the
    benchmark harness.  The whole source is loaded before the first record
    is yielded."""
    yield from map(json.loads, _corpus_lines(_read_rows(source, strict)))


def load_corpus(
    source: Union[str, Path, Iterable[Union[str, bytes, Mapping]]], strict: bool = False
) -> Corpus:
    """Load a corpus from a JSON-lines path or an iterable of items: JSON
    lines (``str`` or ``bytes``), such as a text file's lines, or their
    decoded mappings.  Blank lines are skipped.  A malformed item raises
    :class:`RecordError` carrying its 1-based line number, as does a JSON
    object that repeats a key, and a repeated id :class:`DuplicateIdError`.
    Equal id and reference strings decoded in one call share one object, as
    do equal author strings, so a loaded corpus holds each distinct id once."""
    if isinstance(source, (str, Path)):
        return _load_file(source, strict)
    return _read_rows(source, strict)


def _load_file(
    path: Union[str, Path], strict: bool, seen: Union[Callable[[bytes], None], None] = None
) -> Corpus:
    """Load the corpus at ``path``, opened and read once, as bytes, so that a
    pipe or FIFO loads too; each binary line goes first through ``seen``
    (such as a digest's ``update``), if given, then is split and decoded."""
    with open(path, "rb") as handle:
        # seen returns None, so filterfalse passes each line on
        return _read_rows(_file_lines(handle if seen is None else filterfalse(seen, handle)), strict)


def _file_lines(lines: Iterable[bytes]) -> Iterator[bytes]:
    """The lines of a file, given as a binary file's lines (each but perhaps
    the last ended by ``\\n``), without their ends: split at ``\\n``, ``\\r\\n``
    and a lone ``\\r``, as ``bytes.splitlines`` splits, and never at ``\\x0b``,
    ``\\x0c`` or ``\\x85``, where ``str.splitlines`` also splits.  Being bytes,
    the lines reach ``_read_rows`` undecoded, so an invalid byte is reported
    with its line number, from a pipe as from a file."""
    return chain.from_iterable(map(bytes.splitlines, lines))


_quote = json.encoder.encode_basestring  # json.dumps's quoting with ensure_ascii=False
_LINE = '{"id":%s,"journal":%s,"year":%d,"kind":%s,"authors":[%s],"references":[%s]}\n'
_KIND_TEXTS = tuple(map(_quote, KIND_NAMES))
_BATCH_ROWS = 256  # the rows ``_corpus_lines`` renders with one lookup of their names


def _corpus_lines(corpus: Corpus) -> Iterator[str]:
    """One canonical (byte-stable) JSON line a paper, ending in ``\\n``, fields
    in input order, with strings quoted as ``json.dumps(..., ensure_ascii=False)``
    quotes them, each distinct author, reference name, journal and kind once.
    The lines are rendered from the columns ``_BATCH_ROWS`` rows at a time,
    so that no list as long as the corpus is built."""
    lists = [(np.fromiter(map(_quote, names), object, len(names)), codes, _bounds(counts))
             for names, codes, counts in (corpus._authors, corpus._references)]
    journals = tuple(map(_quote, corpus.journals))
    for first in range(0, len(corpus), _BATCH_ROWS):
        rows = slice(first, first + _BATCH_ROWS)
        authors, references = (_per_row(names, codes, bounds[first : first + _BATCH_ROWS + 1])
                                for names, codes, bounds in lists)
        journal, year, kind = (column[rows].tolist() for column in
                               (corpus.journal_code, corpus.year, corpus.kind_code))
        yield from map(_LINE.__mod__, zip(
            map(_quote, corpus._ids[rows]), map(journals.__getitem__, journal), year,
            map(_KIND_TEXTS.__getitem__, kind), authors, references,
        ))


def corpus_to_jsonl(corpus: Corpus) -> str:
    """The text of :func:`_corpus_lines`, which round-trips through load_corpus."""
    return "".join(_corpus_lines(corpus))


def write_corpus(corpus: Corpus, path: Union[str, Path]) -> None:
    """Write :func:`corpus_to_jsonl` of ``corpus`` to ``path`` as UTF-8, a
    line at a time, so that neither the text nor its encoded copy is built
    whole; for an open text file, ``handle.write(corpus_to_jsonl(corpus))``."""
    _write_text(path, _corpus_lines(corpus))


def _write_text(path: Union[str, Path], pieces: Iterable[str]) -> None:
    """Write the concatenation of ``pieces`` to ``path`` as UTF-8, a piece at
    a time.  If a write fails, the file is removed before the error
    propagates, so no partial file is left."""
    handle = open(path, "w", encoding="utf-8")
    try:
        with handle:
            handle.writelines(pieces)
    except BaseException:
        Path(path).unlink()
        raise
