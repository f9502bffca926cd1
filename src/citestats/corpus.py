"""Citation corpus: data model, JSON-lines ingestion, validation.

A corpus is an immutable columnar index of papers.  Paper ``i`` (its *row*,
in record order) has ``ids[i]``, ``year[i]``, ``journal_code[i]`` (into
``journals``), ``kind_code[i]`` and ``authors[i]``, the tuple of its author
ids; ``author_rows`` maps an author to the rows of their papers, and the
papers citing row ``i`` are ``citing_idx[indptr[i]:indptr[i + 1]]``, in
record order, the CSR layout of ``scipy.sparse.csr_matrix``.  Ids enter
through :meth:`Corpus.rows`; every other call takes rows, checked by
:meth:`Corpus.checked_rows`.  Metrics are numpy reductions over these
arrays, and counts become Python ints before any ratio is formed.  Every
corpus, loaded or generated, keeps its papers as columns only.  The loader
reads a path in 64 KiB blocks, decodes each line with ``json``'s C scanner
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
from collections.abc import Iterable, Iterator, Mapping
from functools import partial
from itertools import chain
from pathlib import Path
from types import MappingProxyType
from typing import IO, Any, Union

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


def _per_row(names, codes, counts) -> list:
    """Row ``i``'s comma-joined next ``counts[i]`` of ``codes`` into ``names``."""
    refs = np.array(names, dtype=object)[codes].tolist()
    ends = np.cumsum(counts).tolist()
    return [",".join(refs[lo:hi]) for lo, hi in zip([0, *ends], ends)]


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

    def incoming(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """CSR slice of the citations ``rows`` receive: for each, the position
        in ``rows`` of the cited paper and the citing row."""
        rows = self.checked_rows(rows)
        starts = self._indptr[rows]
        counts = self._indptr[rows + 1] - starts
        owner = np.repeat(np.arange(len(rows)), counts)
        offsets = np.cumsum(counts) - counts
        return owner, self._citing_idx[starts[owner] + np.arange(len(owner)) - offsets[owner]]

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
    """Raise the :class:`RecordError` of the first check that one record's
    field values, given in ``_RECORD_FIELDS`` order, fail: the id, journal
    and kind are strings, the year an int (not a bool), the authors and
    references lists or tuples of strings, no string holds a lone
    surrogate, the id and journal are nonempty, the year is in [YEAR_MIN,
    YEAR_MAX], the kind is known, the authors are distinct, and the
    references are distinct and exclude the paper itself."""

    def fail(problem: str):
        raise RecordError(f"line {line_number}: {problem}", line_number)

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
    error = None
    for number, *values in records:
        try:
            _check_fields(number, *values)
        except RecordError as exc:
            error = exc
        if error is None and values[0] in seen:
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


def _read_rows(source: Iterable, strict: bool) -> Corpus:
    """The corpus of the records in ``source`` (items as for
    :func:`load_corpus`), raising the error and emitting the warnings a
    record-at-a-time check would, in line order.

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

    for line_number, obj in enumerate(source, 1):
        try:
            try:
                if isinstance(obj, bytes):
                    obj = obj.decode("utf-8")
                if isinstance(obj, str):
                    if not obj or obj.isspace():
                        continue
                    obj = _decode(obj)
            except (ValueError, RecursionError) as exc:  # or an int past the digit limit
                problem = (
                    f"invalid UTF-8 ({exc.reason})" if isinstance(exc, UnicodeDecodeError)
                    else f"invalid JSON ({getattr(exc, 'msg', exc)})"
                )
                raise RecordError(f"line {line_number}: {problem}", line_number) from exc
            if (type(obj) is not dict or obj.keys() != _FIELD_SET
                    or type(obj["authors"]) is not list or type(obj["references"]) is not list):
                _check_record(obj, line_number, strict, warned, pending)
            pid, authors, references = obj["id"], obj["authors"], obj["references"]
            try:
                codes.extend(map(code_of, references))
                rows.append((
                    line_number, code_of(pid), obj["journal"], obj["year"], obj["kind"],
                    tuple(map(intern, authors, authors)), len(references),
                ))
            except TypeError:  # an unhashable id, author or reference, which the check rejects
                _check_record(obj, line_number, strict, warned, pending)
        except RecordError:  # the first bad line, unless an earlier line fails a column check
            _settle(read_so_far(rows, list(memo)), pending, line_number)
            raise

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
        and len(set(id_codes)) == len(ids)
    )
    if not checked:
        _settle(read_so_far(zip(*columns), names), pending, math.inf)
    corpus = Corpus._from_rows(
        ids, journal_ids, years, kinds, authors, names, id_codes, ref_codes, counts
    )
    # after the build: freed before it, these checks' large temporaries raise
    # glibc's mmap threshold, and the build's arrays then fragment the heap
    # (peak RSS of a report on the 40 % math preset 56 -> 64 MB)
    if checked:
        checked = _distinct_references(id_codes, len(names), ref_codes, counts)
        checked = checked and utf8_encodable(chain(names, set(journal_ids), interned))
        _settle(() if checked else read_so_far(zip(*columns), names), pending, math.inf)
    return corpus


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
    source: Iterable[Union[str, bytes, Mapping]], strict: bool = False
) -> Iterator[dict]:
    """Yield the records :func:`load_corpus` reads from ``source``, as the
    mappings its :func:`corpus_to_jsonl` lines decode to; kept for the
    benchmark harness.  The whole source is loaded before the first record
    is yielded."""
    yield from map(json.loads, corpus_to_jsonl(_read_rows(source, strict)).split("\n")[:-1])


def load_corpus(
    source: Union[str, Path, Iterable[Union[str, bytes, Mapping]]], strict: bool = False
) -> Corpus:
    """Load a corpus from a JSON-lines path or an iterable of items: JSON
    lines (``str`` or ``bytes``), such as a text file's lines, or their
    decoded mappings.  Blank lines are skipped.  A malformed item raises
    :class:`RecordError` carrying its 1-based line number, and a repeated id
    :class:`DuplicateIdError`.  Equal id and reference strings decoded in one
    call share one object, as do equal author strings, so a loaded corpus
    holds each distinct id once however often it is cited."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            return _read_rows(_file_lines(handle), strict)
    return _read_rows(source, strict)


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
    rendered from the columns with strings quoted as ``json.dumps(...,
    ensure_ascii=False)`` quotes them, each distinct reference name, journal
    and kind once; round-trips through load_corpus."""
    names, codes, counts = corpus._reference_columns()
    references = _per_row(list(map(_quote, names)), codes, counts)
    journals = tuple(map(_quote, corpus.journals))
    return "".join(map(_LINE.__mod__, zip(
        map(_quote, corpus._ids), map(journals.__getitem__, corpus.journal_code.tolist()),
        corpus.year.tolist(), map(_KIND_TEXTS.__getitem__, corpus.kind_code.tolist()),
        [",".join(map(_quote, row)) for row in corpus.authors], references,
    )))


def write_corpus(corpus: Corpus, path: Union[str, Path]) -> None:
    """Write :func:`corpus_to_jsonl` of ``corpus`` to ``path`` as UTF-8; for
    an open text file, ``handle.write(corpus_to_jsonl(corpus))``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(corpus_to_jsonl(corpus))
