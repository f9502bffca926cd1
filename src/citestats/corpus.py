"""Citation corpus: data model, JSON-lines ingestion, validation.

A corpus is an immutable collection of :class:`PaperRecord` objects plus a
columnar index.  Paper ``i`` (its *row*, in record order) has ``year[i]``,
``journal_code[i]`` and ``kind_code[i]``; the papers citing it are
``citing_idx[indptr[i]:indptr[i + 1]]``, in record order, the CSR layout of
``scipy.sparse.csr_matrix``.  Metrics are numpy reductions over these
arrays, and counts become Python ints before any ratio is formed.
``edges`` and ``incoming_edges`` are lazy :class:`EdgeView` sequences of
:class:`CitationEdge` for tests and API callers; their length is O(1).
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
import warnings
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
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
SUBSTANTIVE_CODES = tuple(KIND_CODES[kind] for kind in sorted(SUBSTANTIVE_KINDS))

_RECORD_FIELDS = ("id", "journal", "year", "kind", "authors", "references")


@dataclass(frozen=True, slots=True)
class PaperRecord:
    """One published item: journal, year, kind, authors, outgoing references."""

    id: str
    journal_id: str
    year: int
    kind: str
    author_ids: tuple[str, ...] = ()
    reference_ids: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "author_ids", tuple(self.author_ids))
        object.__setattr__(self, "reference_ids", tuple(self.reference_ids))
        if not self.id or not isinstance(self.id, str):
            raise ValueError("paper id must be a nonempty string")
        if not self.journal_id or not isinstance(self.journal_id, str):
            raise ValueError(f"paper {self.id!r}: journal must be a nonempty string")
        if isinstance(self.year, bool) or not isinstance(self.year, int):
            raise ValueError(f"paper {self.id!r}: year must be an integer")
        if not YEAR_MIN <= self.year <= YEAR_MAX:
            raise ValueError(
                f"paper {self.id!r}: year {self.year} outside [{YEAR_MIN}, {YEAR_MAX}]"
            )
        if self.kind not in KINDS:
            raise ValueError(
                f"paper {self.id!r}: kind {self.kind!r} not one of {sorted(KINDS)}"
            )
        if len(set(self.reference_ids)) != len(self.reference_ids):
            raise ValueError(f"paper {self.id!r}: duplicate reference ids")
        if self.id in self.reference_ids:
            raise ValueError(f"paper {self.id!r}: paper references itself")

    @property
    def is_substantive(self) -> bool:
        return self.kind in SUBSTANTIVE_KINDS


@dataclass(frozen=True, slots=True)
class CitationEdge:
    """One resolved citation: ``citing_id`` (published in ``citing_year``)
    cites ``cited_id`` (published in ``cited_year``)."""

    citing_id: str
    cited_id: str
    citing_year: int
    cited_year: int

    @property
    def age(self) -> int:
        """Citation age; negative for in-press anomalies."""
        return self.citing_year - self.cited_year


class EdgeView(Sequence):
    """Read-only sequence of :class:`CitationEdge` with an O(1) ``len``; the
    edges are built on first element access.  Library code never iterates one."""

    __slots__ = ("_length", "_build", "_edges")

    def __init__(self, length: int, build: Callable[[], tuple[CitationEdge, ...]]):
        self._length, self._build, self._edges = length, build, None

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if self._edges is None:
            self._edges = self._build()
        return self._edges[index]


def _edges_in_record_order(papers: Mapping[str, PaperRecord]) -> tuple[CitationEdge, ...]:
    return tuple(
        CitationEdge(p.id, ref, p.year, papers[ref].year)
        for p in papers.values()
        for ref in p.reference_ids
        if ref in papers
    )


class Corpus:
    """Immutable, indexed collection of papers and their citation edges.

    Construct with :meth:`from_records` or :func:`load_corpus`.  Safe for
    concurrent read access: all exposed containers are read-only views.
    """

    __slots__ = (
        "_papers", "_ids", "_row", "_journal_codes", "_year", "_journal_code", "_kind_code",
        "_indptr", "_citing_idx", "_edges", "_journal_papers", "_author_papers", "_unresolved",
    )

    def __init__(self, *args, **kwargs):
        raise TypeError("use Corpus.from_records() or load_corpus()")

    @classmethod
    def from_records(cls, records: Iterable[PaperRecord]) -> "Corpus":
        """Build a corpus, indexing edges for in-corpus references only."""
        papers: dict[str, PaperRecord] = {}
        for record in records:
            if record.id in papers:
                raise DuplicateIdError(f"duplicate paper id {record.id!r}")
            papers[record.id] = record

        journal_papers: dict[str, list[str]] = {}
        author_papers: dict[str, list[str]] = {}
        for record in papers.values():
            journal_papers.setdefault(record.journal_id, []).append(record.id)
            for author_id in record.author_ids:
                author_papers.setdefault(author_id, []).append(record.id)

        corpus = object.__new__(cls)
        n = len(papers)
        values = papers.values()
        corpus._row = row = {paper_id: i for i, paper_id in enumerate(papers)}
        corpus._journal_codes = codes = {jid: code for code, jid in enumerate(journal_papers)}
        corpus._year = np.fromiter((p.year for p in values), np.int32, n)
        corpus._journal_code = np.fromiter((codes[p.journal_id] for p in values), np.int32, n)
        corpus._kind_code = np.fromiter((KIND_CODES[p.kind] for p in values), np.int8, n)
        ref_counts = np.fromiter((len(p.reference_ids) for p in values), np.int64, n)
        refs = chain.from_iterable(p.reference_ids for p in values)
        cited = np.fromiter(map(row.get, refs, repeat(-1)), np.int64, int(ref_counts.sum()))
        citing = np.repeat(np.arange(n, dtype=np.int32), ref_counts)
        resolved = cited >= 0
        cited, citing = cited[resolved], citing[resolved]
        # a stable sort keeps each paper's citations in record order
        corpus._citing_idx = citing[np.argsort(cited, kind="stable")]
        corpus._indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(cited, minlength=n), out=corpus._indptr[1:])
        for array in (corpus._year, corpus._journal_code, corpus._kind_code,
                      corpus._indptr, corpus._citing_idx):
            array.setflags(write=False)

        corpus._papers = MappingProxyType(papers)
        corpus._ids = tuple(papers)
        # the builder must not reference the corpus: a cycle would keep every
        # corpus alive until the cyclic garbage collector runs
        corpus._edges = EdgeView(len(cited), partial(_edges_in_record_order, corpus._papers))
        corpus._journal_papers = MappingProxyType(
            {jid: tuple(lst) for jid, lst in journal_papers.items()}
        )
        corpus._author_papers = MappingProxyType(
            {aid: tuple(lst) for aid, lst in author_papers.items()}
        )
        corpus._unresolved = len(resolved) - len(cited)
        return corpus

    @property
    def papers(self) -> Mapping[str, PaperRecord]:
        return self._papers

    @property
    def edges(self) -> EdgeView:
        """Every resolved citation, in record order."""
        return self._edges

    @property
    def journal_papers(self) -> Mapping[str, tuple[str, ...]]:
        """Journal id -> ids of every paper published in that journal."""
        return self._journal_papers

    @property
    def author_papers(self) -> Mapping[str, tuple[str, ...]]:
        """Author id -> ids of every paper listing that author."""
        return self._author_papers

    @property
    def unresolved_reference_count(self) -> int:
        return self._unresolved

    # the read-only columnar index described in the module docstring
    year = property(lambda self: self._year)
    journal_code = property(lambda self: self._journal_code)
    kind_code = property(lambda self: self._kind_code)
    indptr = property(lambda self: self._indptr)
    citing_idx = property(lambda self: self._citing_idx)

    def paper(self, paper_id: str) -> PaperRecord:
        try:
            return self._papers[paper_id]
        except KeyError:
            raise UnknownIdError(f"unknown paper id {paper_id!r}") from None

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

    def citation_counts(
        self, paper_ids: Iterable[str], citing_years: Iterable[int] | None = None
    ) -> list[int]:
        """In-corpus citations to each paper, optionally restricted to citing
        (source) years."""
        try:
            rows = np.array([self._row[pid] for pid in paper_ids], dtype=np.int64)
        except KeyError as exc:
            raise UnknownIdError(f"unknown paper id {exc.args[0]!r}") from None
        if citing_years is None:
            return (self._indptr[rows + 1] - self._indptr[rows]).tolist()
        owner, citing = self.incoming(rows)
        counted = np.isin(self._year[citing], list(citing_years))
        return np.bincount(owner[counted], minlength=len(rows)).tolist()

    def incoming_edges(self, paper_id: str) -> EdgeView:
        """Edges citing the given paper, in record order."""
        cited = self.paper(paper_id)
        i = self._row[paper_id]
        citing = self._citing_idx[self._indptr[i] : self._indptr[i + 1]].tolist()
        return EdgeView(len(citing), lambda: tuple(
            CitationEdge(self._ids[c], paper_id, int(self._year[c]), cited.year) for c in citing
        ))

    def __len__(self) -> int:
        return len(self._papers)

    def __repr__(self) -> str:
        return (
            f"<Corpus papers={len(self._papers)} edges={len(self._edges)} "
            f"journals={len(self._journal_papers)} "
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

    @property
    def is_clean(self) -> bool:
        return (
            self.unresolved_references == 0
            and self.negative_age_edges == 0
            and self.papers_without_authors == 0
        )

    def to_dict(self) -> dict[str, int]:
        return {
            "paper_count": self.paper_count,
            "edge_count": self.edge_count,
            "unresolved_references": self.unresolved_references,
            "negative_age_edges": self.negative_age_edges,
            "papers_without_authors": self.papers_without_authors,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def validate(corpus: Corpus) -> ValidationReport:
    """Tally unresolved references, negative-age edges, authorless papers."""
    cited_year = np.repeat(corpus.year, np.diff(corpus.indptr))
    return ValidationReport(
        paper_count=len(corpus.papers),
        edge_count=len(corpus.citing_idx),
        unresolved_references=corpus.unresolved_reference_count,
        negative_age_edges=int(np.count_nonzero(corpus.year[corpus.citing_idx] < cited_year)),
        papers_without_authors=sum(
            1 for p in corpus.papers.values() if not p.author_ids
        ),
    )


def citations_to(
    corpus: Corpus, paper_id: str, citing_years: Iterable[int] | None = None
) -> int:
    """Number of in-corpus citations to a paper, optionally restricted to
    citing (source) years."""
    return corpus.citation_counts([paper_id], citing_years)[0]


def _record_from_obj(obj: Any, line_number: int, strict: bool, warned: set) -> PaperRecord:
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
                warnings.warn(
                    f"ignoring unknown record field {name!r} "
                    f"(first seen on line {line_number})",
                    stacklevel=3,
                )
    for field, kind in (("id", str), ("journal", str), ("year", int), ("kind", str)):
        if not isinstance(obj[field], kind) or isinstance(obj[field], bool):
            raise RecordError(
                f"line {line_number}: {field!r} must be of type {kind.__name__}", line_number
            )
    for field, value in (("authors", obj["authors"]), ("references", obj["references"])):
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise RecordError(
                f"line {line_number}: {field!r} must be an array of strings",
                line_number,
            )
    try:
        return PaperRecord(
            id=obj["id"],
            journal_id=obj["journal"],
            year=obj["year"],
            kind=obj["kind"],
            author_ids=tuple(obj["authors"]),
            reference_ids=tuple(obj["references"]),
        )
    except ValueError as exc:
        raise RecordError(f"line {line_number}: {exc}", line_number) from exc


def iter_records(
    source: Iterable[Union[str, bytes, Mapping, PaperRecord]], strict: bool = False
) -> Iterator[PaperRecord]:
    """Yield :class:`PaperRecord` from JSON lines, dicts or ready-made records.

    Blank lines are skipped.  Malformed items raise :class:`RecordError`
    carrying the 1-based line number.
    """
    warned: set = set()
    for line_number, item in enumerate(source, 1):
        if isinstance(item, PaperRecord):
            yield item
            continue
        if isinstance(item, bytes):
            try:
                item = item.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise RecordError(
                    f"line {line_number}: invalid UTF-8 ({exc.reason})", line_number
                ) from exc
        if isinstance(item, str):
            if not item.strip():
                continue
            try:
                obj = json.loads(item)
            except (ValueError, RecursionError) as exc:
                # ValueError also covers integers longer than Python's digit limit
                raise RecordError(
                    f"line {line_number}: invalid JSON ({getattr(exc, 'msg', exc)})",
                    line_number,
                ) from exc
            yield _record_from_obj(obj, line_number, strict, warned)
            continue
        yield _record_from_obj(item, line_number, strict, warned)


def load_corpus(
    source: Union[str, Path, IO[str], Iterable], strict: bool = False
) -> Corpus:
    """Load a corpus from a JSON-lines path, open file or record iterable."""
    if isinstance(source, (str, Path)):
        # bytes, so that invalid UTF-8 is reported with its line number; a
        # lone \r still ends a line, as in text mode
        with open(source, "rb") as handle:
            lines = (line for chunk in handle for line in chunk.splitlines(keepends=True))
            return Corpus.from_records(iter_records(lines, strict=strict))
    return Corpus.from_records(iter_records(source, strict=strict))


def record_to_json(record: PaperRecord) -> str:
    """Serialize one record to its canonical (byte-stable) JSON line."""
    return json.dumps(
        {
            "id": record.id,
            "journal": record.journal_id,
            "year": record.year,
            "kind": record.kind,
            "authors": list(record.author_ids),
            "references": list(record.reference_ids),
        },
        separators=(",", ":"),
        ensure_ascii=False,
    )


def corpus_to_jsonl(corpus: Corpus) -> str:
    """Canonical JSON-lines serialization; round-trips through load_corpus."""
    return "".join(record_to_json(p) + "\n" for p in corpus.papers.values())


def write_corpus(corpus: Corpus, target: Union[str, Path, IO[str]]) -> None:
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(corpus_to_jsonl(corpus))
    else:
        target.write(corpus_to_jsonl(corpus))
