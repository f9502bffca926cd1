"""Object-model reference implementations of the corpus metrics.

These are the per-edge loops the library used before the columnar index.
Each walks :class:`CitationEdge` objects, which ``edges`` and
``incoming_edges`` build from the records' reference tuples in record
order, never from the CSR arrays they are checked against.  They are slow
and obviously correct, and the property tests compare the numpy
implementations with them.  ``CitationEdge`` and the edge views were the
library's own until the corpus kept only the index; ``author_record`` is
the version that read each paper's kind and year from its record.
``divergence_pairs`` is the O(n^2) pair loop that ``policy.divergence``
ran before Knight's algorithm, ``generate`` is the synthetic generator
that built string ids, reference tuples and records before
``synth.generate`` built columns, and ``score_example1``,
``score_example2`` and ``score_example3`` are the record-at-a-time,
one-subject rules that ``policy`` had before its rules scored every
subject from the columns; their ``_score`` also keeps the
chained-``Fraction`` sum that came before the sum over one common
denominator, and checks each derived ``PolicyScore.score`` against it.
``iter_records``, ``from_records`` and ``load_corpus`` are the
record-at-a-time loader that built and checked one :class:`PaperRecord` per
line before the columnar loader, and ``decode`` its ``json.loads`` with
a repeated-key check.  ``PaperRecord`` is the oracle's own record: its
checks, ``_record_from_obj``'s and ``decode``'s are written out here, apart
from the library's, so that the loader's checks are tested against a second
statement of them.  ``records`` is the record view a corpus kept before it
kept only columns, ``record_dict`` a record as the mapping ``load_corpus``
reads, and ``record_to_json`` the one-record writer that ``corpus_to_jsonl``
must match line for line, and ``citations`` the resolved citations and
unresolved count that the CSR index must hold.
``journal_counts`` and ``if_variability`` give what
``journal_distribution`` counts and ``if_variability`` sums, for the CLI
oracle tests.
"""

import json
import math
import warnings
import weakref
from collections import Counter
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from types import MappingProxyType
from typing import Any, Union

import numpy as np

from citestats.author_metrics import AuthorRecord
from citestats.corpus import (
    KIND_CODES,
    KIND_NAMES,
    SUBSTANTIVE_KINDS,
    Corpus,
    ValidationReport,
)
from citestats.errors import (
    DuplicateIdError,
    InsufficientDataError,
    PolicyError,
    RecordError,
    SynthConfigError,
    UnknownIdError,
    UsageError,
)
from citestats.journal_metrics import IFQuery, IFResult
from citestats.policy import TIER_POINTS, DivergenceResult, PolicyScore, TierTable
from citestats.synth import SynthConfig, _rng


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


@dataclass(frozen=True)
class PaperRecord:
    """One paper: journal, year, kind, authors and outgoing references,
    stored as tuples.  Building one checks what ``_record_from_obj`` leaves
    to it, raising ``ValueError`` with the text the loader puts after
    ``line N: ``."""

    id: str
    journal_id: str
    year: int
    kind: str
    author_ids: tuple[str, ...] = ()
    reference_ids: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "author_ids", tuple(self.author_ids))
        object.__setattr__(self, "reference_ids", tuple(self.reference_ids))
        paper = f"paper {self.id!r}: "
        if self.id == "":
            raise ValueError("paper id must be a nonempty string")
        if self.journal_id == "":
            raise ValueError(paper + "journal must be a nonempty string")
        if self.year < 1800 or self.year > 2100:
            raise ValueError(paper + f"year {self.year} outside [1800, 2100]")
        kinds = ["book", "editorial", "letter", "research-article", "review"]
        if self.kind not in kinds:
            raise ValueError(paper + f"kind {self.kind!r} not one of {kinds}")
        if len(self.author_ids) > len(set(self.author_ids)):
            raise ValueError(paper + "duplicate author ids")
        if len(self.reference_ids) > len(set(self.reference_ids)):
            raise ValueError(paper + "duplicate reference ids")
        if self.id in self.reference_ids:
            raise ValueError(paper + "paper references itself")


def record_dict(record: PaperRecord) -> dict:
    """The record as the mapping ``load_corpus`` reads, fields in input order."""
    return {"id": record.id, "journal": record.journal_id, "year": record.year,
            "kind": record.kind, "authors": list(record.author_ids),
            "references": list(record.reference_ids)}


# the year column of the corpus last viewed, weakly held so that the cache
# keeps no corpus alive, and that corpus's records
_last_view: tuple = (lambda: None, None)


def records(corpus: Corpus) -> Mapping[str, PaperRecord]:
    """Paper id -> its record, in row order, rebuilt from the public columns
    and the references' columns.
    The oracles call it per paper and per query, so the last view is kept."""
    global _last_view
    year_of_last, view = _last_view
    if year_of_last() is corpus.year:
        return view
    journals = corpus.journals
    names, codes, counts = corpus._references
    codes, ends = codes.tolist(), np.cumsum(counts, dtype=np.int64).tolist()
    references = [[names[c] for c in codes[lo:hi]] for lo, hi in zip([0, *ends], ends)]
    view = MappingProxyType({
        pid: PaperRecord(pid, journals[code], year, KIND_NAMES[kind], authors, refs)
        for pid, code, year, kind, authors, refs in zip(
            corpus.ids, corpus.journal_code.tolist(), corpus.year.tolist(),
            corpus.kind_code.tolist(), corpus.authors, references,
        )
    })
    _last_view = weakref.ref(corpus.year), view
    return view


_quote = json.encoder.encode_basestring  # json.dumps's quoting with ensure_ascii=False


def record_to_json(record: PaperRecord) -> str:
    """One record's canonical JSON line, without its line end."""
    return '{"id":%s,"journal":%s,"year":%d,"kind":%s,"authors":[%s],"references":[%s]}' % (
        _quote(record.id), _quote(record.journal_id), record.year, _quote(record.kind),
        ",".join(map(_quote, record.author_ids)), ",".join(map(_quote, record.reference_ids)),
    )


def edges(corpus):
    """Every resolved citation, in record order."""
    papers = records(corpus)
    return [
        CitationEdge(p.id, ref, p.year, papers[ref].year)
        for p in papers.values()
        for ref in p.reference_ids
        if ref in papers
    ]


def incoming_edges(corpus, paper_id):
    """Edges citing the given paper, in record order."""
    papers = records(corpus)
    if paper_id not in papers:
        raise UnknownIdError(f"unknown paper id {paper_id!r}")
    cited_year = papers[paper_id].year
    return [
        CitationEdge(p.id, paper_id, p.year, cited_year)
        for p in papers.values()
        if paper_id in p.reference_ids
    ]


def _require_journal(corpus, journal_id):
    """The ids of the journal's papers, in record order."""
    if journal_id not in corpus.journals:
        raise UnknownIdError(f"unknown journal {journal_id!r}")
    return [p.id for p in records(corpus).values() if p.journal_id == journal_id]


def impact_factor(corpus, query):
    paper_ids = _require_journal(corpus, query.journal_id)
    papers = records(corpus)
    window = frozenset(query.window_years)
    numerator = 0
    denominator = 0
    for pid in paper_ids:
        paper = papers[pid]
        if paper.year not in window or paper.kind == "book":
            continue
        if query.denominator_policy == "all-items" or paper.kind in SUBSTANTIVE_KINDS:
            denominator += 1
        for edge in incoming_edges(corpus, pid):
            if edge.citing_year != query.census_year:
                continue
            if (
                query.self_citation_policy == "exclude-same-journal"
                and papers[edge.citing_id].journal_id == query.journal_id
            ):
                continue
            numerator += 1
    return IFResult(numerator=numerator, denominator=denominator, query=query)


def citation_age_profile(corpus, census_year, journal_id=None):
    """Without the library's empty-census-year warning."""
    if journal_id is not None:
        _require_journal(corpus, journal_id)
    papers = records(corpus)
    profile = Counter()
    for edge in edges(corpus):
        if edge.citing_year != census_year:
            continue
        if journal_id is not None and papers[edge.cited_id].journal_id != journal_id:
            continue
        profile[edge.age] += 1
    return profile


def window_coverage(corpus, journal_id, census_year, window_w):
    paper_ids = _require_journal(corpus, journal_id)
    lo, hi = census_year - window_w, census_year - 1
    received = 0
    inside = 0
    for pid in paper_ids:
        for edge in incoming_edges(corpus, pid):
            if edge.citing_year != census_year:
                continue
            received += 1
            if lo <= edge.cited_year <= hi:
                inside += 1
    if received == 0:
        return None
    return Fraction(inside, received)


def self_citation_fraction(corpus, journal_id, window_w=None):
    paper_ids = _require_journal(corpus, journal_id)
    papers = records(corpus)
    received = 0
    internal = 0
    for pid in paper_ids:
        for edge in incoming_edges(corpus, pid):
            if window_w is not None and not 1 <= edge.age <= window_w:
                continue
            received += 1
            if papers[edge.citing_id].journal_id == journal_id:
                internal += 1
    if received == 0:
        return None
    return Fraction(internal, received)


def journal_counts(corpus, journal_id, publication_years, citing_years):
    """Citations from ``citing_years`` to each of the journal's research
    articles and reviews published in ``publication_years``, in record order."""
    papers = records(corpus)
    articles = [
        pid for pid in _require_journal(corpus, journal_id)
        if papers[pid].year in publication_years and papers[pid].kind in SUBSTANTIVE_KINDS
    ]
    if not articles:
        raise InsufficientDataError(
            f"journal {journal_id!r} has no substantive articles published "
            f"in {sorted(set(publication_years))}"
        )
    return [
        sum(1 for e in incoming_edges(corpus, pid) if e.citing_year in citing_years)
        for pid in articles
    ]


def if_variability(corpus, journal_id, start_year, end_year, window_w=2):
    """(mean change, pairs used, zero-base pairs, undefined pairs) of the
    default-policy impact factors over census years ``start_year`` ..
    ``end_year``; raises as the library does when it is undefined."""
    values = [
        impact_factor(corpus, IFQuery(journal_id, year, window_w)).value
        for year in range(start_year, end_year + 1)
    ]
    span = f"in {start_year}..{end_year}"
    if len(values) < 2:
        raise InsufficientDataError(
            f"variability needs at least two census years (got {start_year}..{end_year})"
        )
    if sum(1 for v in values if v is not None) < 2:
        raise InsufficientDataError(
            f"journal {journal_id!r}: fewer than 2 defined impact factors {span}"
        )
    pairs = list(zip(values, values[1:]))
    undefined = sum(1 for base, nxt in pairs if base is None or nxt is None)
    zero = sum(1 for base, nxt in pairs if base == 0 and nxt is not None)
    changes = [abs(nxt - base) / base for base, nxt in pairs if base and nxt is not None]
    if not changes:
        raise InsufficientDataError(
            f"journal {journal_id!r}: no usable consecutive year pairs {span} "
            f"(zero-base skipped: {zero}, undefined: {undefined})"
        )
    return sum(changes, Fraction(0)) / len(changes), len(changes), zero, undefined


def validate(corpus):
    papers = records(corpus)
    return ValidationReport(
        paper_count=len(papers),
        edge_count=sum(1 for _ in edges(corpus)),
        unresolved_references=corpus.unresolved_reference_count,
        negative_age_edges=sum(1 for e in edges(corpus) if e.age < 0),
        papers_without_authors=sum(1 for p in papers.values() if not p.author_ids),
    )


def citations_to(corpus, paper_id, citing_years=None):
    incoming = incoming_edges(corpus, paper_id)
    if citing_years is None:
        return sum(1 for _ in incoming)
    years = frozenset(citing_years)
    return sum(1 for e in incoming if e.citing_year in years)


def author_record(
    corpus: Corpus,
    author_id: str,
    citing_years: Iterable[int] | None = None,
    kinds: Collection[str] | None = None,
) -> AuthorRecord:
    """Citation counts for each of the author's papers.

    ``citing_years`` restricts the counting to citations from those source
    years.  ``kinds`` restricts which of the author's items are counted as
    papers; the default keeps every kind, books included.  A kind name that
    is not a kind is a usage error.
    """
    papers = [p for p in records(corpus).values() if author_id in p.author_ids]
    if not papers:
        raise UnknownIdError(f"unknown author {author_id!r}")
    if kinds is not None:
        for kind in kinds:
            if kind not in KIND_CODES:
                raise UsageError(f"kind {kind!r} not one of {sorted(KIND_CODES)}")
        papers = [p for p in papers if p.kind in kinds]
        if not papers:
            raise InsufficientDataError(
                f"author {author_id!r} has no papers of kind {sorted(kinds)}"
            )
    rows = corpus.rows([p.id for p in papers])
    counts = sorted(corpus.citation_counts(rows, citing_years), reverse=True)
    return AuthorRecord(
        author_id=author_id,
        counts=tuple(counts),
        first_publication_year=min(p.year for p in papers),
    )


def divergence_pairs(ranking_a, ranking_b):
    if set(ranking_a) != set(ranking_b):
        raise PolicyError("rankings must cover the same subjects")
    subjects = sorted(ranking_a)
    n = len(subjects)
    if n < 2:
        raise PolicyError("divergence needs at least 2 subjects")
    concordant = 0
    discordant = 0
    ties_a = 0
    ties_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            da = (ranking_a[subjects[i]] > ranking_a[subjects[j]]) - (
                ranking_a[subjects[i]] < ranking_a[subjects[j]]
            )
            db = (ranking_b[subjects[i]] > ranking_b[subjects[j]]) - (
                ranking_b[subjects[i]] < ranking_b[subjects[j]]
            )
            if da == 0:
                ties_a += 1
            if db == 0:
                ties_b += 1
            if da != 0 and db != 0:
                if da == db:
                    concordant += 1
                else:
                    discordant += 1
    total_pairs = n * (n - 1) // 2
    denominator = math.sqrt((total_pairs - ties_a) * (total_pairs - ties_b))
    tau = (concordant - discordant) / denominator if denominator > 0 else None
    return DivergenceResult(
        kendall_tau=tau,
        discordant_fraction=Fraction(discordant, total_pairs),
        concordant_pairs=concordant,
        discordant_pairs=discordant,
        n_subjects=n,
    )


def _score(subject_id: str, rule: str, breakdown: list[tuple[str, Fraction]]) -> PolicyScore:
    """The score of ``breakdown``, whose derived ``score`` must equal the
    chained ``Fraction`` sum of its points."""
    score = PolicyScore(subject_id=subject_id, rule=rule, breakdown=tuple(breakdown))
    total = sum((points for _, points in breakdown), Fraction(0))
    assert score.score == total, f"score {score.score} != chained sum {total}"
    return score


def score_example1(
    papers: Iterable[PaperRecord],
    core_journals: Iterable[str],
    indexed_journals: Iterable[str],
    subject_id: str = "paper-set",
) -> PolicyScore:
    """Flat points per publication: 15 for a core-list journal, 10 for any
    other indexed journal, 0 otherwise.  The two lists must be disjoint."""
    core = frozenset(core_journals)
    indexed = frozenset(indexed_journals)
    overlap = core & indexed
    if overlap:
        raise PolicyError(
            f"core and indexed journal lists overlap: {sorted(overlap)}"
        )
    breakdown = []
    for paper in papers:
        if paper.journal_id in core:
            points = 15
        elif paper.journal_id in indexed:
            points = 10
        else:
            points = 0
        breakdown.append((paper.id, Fraction(points)))
    return _score(subject_id, "example1", breakdown)


def score_example2(
    papers: Sequence[PaperRecord],
    tiers: TierTable,
    subject_id: str = "paper-set",
) -> PolicyScore:
    """Tercile points for exactly five distinct papers: 3 / 2 / 1 for
    top / middle / bottom tier journals, 0 for unindexed ones."""
    if len(papers) != 5:
        raise PolicyError(f"rule scores exactly 5 papers, got {len(papers)}")
    for paper in papers:
        if [p.id for p in papers].count(paper.id) > 1:
            raise PolicyError(f"rule scores 5 distinct papers, got {paper.id!r} more than once")
    breakdown = [
        (paper.id, Fraction(TIER_POINTS[tiers.tier_of(paper.journal_id)]))
        for paper in papers
    ]
    return _score(subject_id, "example2", breakdown)


def score_example3(
    papers: Iterable[PaperRecord],
    impact_factors: Mapping[str, Fraction | None],
    subject_id: str = "paper-set",
) -> PolicyScore:
    """Author-share-weighted impact factors: each paper contributes
    ``(1 / author count) * IF(journal)``."""
    breakdown = []
    for paper in papers:
        if not paper.author_ids:
            raise PolicyError(f"paper {paper.id!r} has no authors")
        value = impact_factors.get(paper.journal_id)
        if value is None:
            raise PolicyError(
                f"journal {paper.journal_id!r} has no defined impact factor"
            )
        breakdown.append(
            (paper.id, Fraction(1, len(paper.author_ids)) * Fraction(value))
        )
    return _score(subject_id, "example3", breakdown)


def tied_pairs(values):
    """Pairs of equal values, by the pair loop's tie test: sum of c(c-1)/2."""
    return sum(c * (c - 1) // 2 for c in Counter(values).values())


def generate(config: SynthConfig) -> Corpus:
    """Generate a corpus; deterministic function of ``config``."""
    total = sum(
        j.articles_per_year * (j.end_year - j.start_year + 1) for j in config.journals
    )
    if total == 0:
        raise SynthConfigError("configuration produces zero papers")
    rng = _rng(config.seed)

    ids: list[str] = []
    journal_ids: list[str] = []
    years = np.empty(total, dtype=np.int64)
    scales = np.empty(total, dtype=np.float64)
    pos = 0
    for spec in config.journals:
        for year in range(spec.start_year, spec.end_year + 1):
            for i in range(spec.articles_per_year):
                ids.append(f"{spec.journal_id}-{year}-{i:04d}")
                journal_ids.append(spec.journal_id)
                years[pos] = year
                scales[pos] = spec.quality_scale
                pos += 1

    # latent attractiveness: zero-inflated log-normal times journal scale
    keep = rng.random(total) >= config.zero_inflation
    rates = np.where(keep, rng.lognormal(config.latent_mu, config.latent_sigma, total), 0.0)
    rates *= scales

    # authors: 1-3 names from a small per-journal pool
    pool_sizes = {
        j.journal_id: max(3, j.articles_per_year) for j in config.journals
    }
    n_authors = rng.integers(1, 4, size=total)
    authors: list[tuple[str, ...]] = []
    for i in range(total):
        pool = pool_sizes[journal_ids[i]]
        picks = rng.choice(pool, size=min(int(n_authors[i]), pool), replace=False)
        authors.append(
            tuple(f"{journal_ids[i]}-au{int(a):03d}" for a in sorted(picks))
        )

    # references: per census year, weighted draw over strictly earlier papers
    decay = math.log(2.0) / config.half_life_years
    ref_budget = rng.poisson(config.references_per_paper, size=total)
    references: list[tuple[str, ...]] = [()] * total
    for year in np.unique(years):
        citing = np.nonzero(years == year)[0]
        targets = np.nonzero(years < year)[0]
        if targets.size == 0:
            continue
        weights = rates[targets] * np.exp(-decay * (year - years[targets]))
        total_weight = float(weights.sum())
        if total_weight <= 0.0:
            continue
        cumulative = np.cumsum(weights)
        budget = ref_budget[citing]
        draws = np.searchsorted(
            cumulative, rng.random(int(budget.sum())) * total_weight, side="right"
        )
        draws = np.minimum(draws, targets.size - 1)  # float-edge guard
        for idx, chunk in zip(citing, np.split(draws, np.cumsum(budget)[:-1])):
            # duplicates within one paper collapse to a single reference
            references[idx] = tuple(ids[t] for t in targets[np.unique(chunk)])

    records = [
        PaperRecord(
            id=ids[i],
            journal_id=journal_ids[i],
            year=int(years[i]),
            kind="research-article",
            author_ids=authors[i],
            reference_ids=references[i],
        )
        for i in range(total)
    ]
    return from_records(records)


_RECORD_FIELDS = ("id", "journal", "year", "kind", "authors", "references")


def _record_from_obj(
    obj: Any, line_number: int, strict: bool, warned: set, memo: dict
) -> PaperRecord:
    if not isinstance(obj, Mapping):
        raise RecordError(
            f"line {line_number}: record must be a JSON object", line_number
        )
    missing = [f for f in _RECORD_FIELDS if f not in obj]
    if missing:
        raise RecordError(
            f"line {line_number}: missing field(s) {', '.join(missing)}", line_number
        )
    unknown = sorted(set(obj) - set(_RECORD_FIELDS), key=str)
    if unknown:
        if strict:
            raise RecordError(
                f"line {line_number}: unknown field(s) {', '.join(map(str, unknown))}",
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
        if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
            raise RecordError(
                f"line {line_number}: {field!r} must be an array of strings",
                line_number,
            )
    authors, references = obj["authors"], obj["references"]
    for field in ("id", "journal", "kind", "authors", "references"):
        value = obj[field]
        try:
            "".join([value] if isinstance(value, str) else value).encode("utf-8")
        except UnicodeEncodeError:
            raise RecordError(
                f"line {line_number}: {field!r} holds a lone surrogate", line_number
            ) from None
    # the oracle's PaperRecord checks the rest: nonempty strings, the year range, the kind,
    # distinct authors, distinct references and no self-reference
    try:
        return PaperRecord(
            id=memo.setdefault(obj["id"], obj["id"]),
            journal_id=obj["journal"],
            year=obj["year"],
            kind=obj["kind"],
            author_ids=tuple(map(memo.setdefault, authors, authors)),
            reference_ids=tuple(map(memo.setdefault, references, references)),
        )
    except ValueError as exc:
        raise RecordError(f"line {line_number}: {exc}", line_number) from exc


def iter_records(
    source: Iterable[Union[str, bytes, Mapping]], strict: bool = False
) -> Iterator[PaperRecord]:
    """Yield :class:`PaperRecord` from JSON lines or dicts.

    Blank lines are skipped.  Malformed items, among them a line that
    repeats a key and a repeated id (:class:`DuplicateIdError`), raise
    :class:`RecordError` carrying the 1-based line number.  Equal id, author and reference
    strings decoded in one call share one object, so a loaded corpus holds
    each distinct id once however often it is cited.
    """
    warned: set = set()
    memo: dict[str, str] = {}
    seen: set = set()  # the ids so far
    for line_number, item in enumerate(source, 1):
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
                item = decode(item)
            except (ValueError, RecursionError) as exc:
                # ValueError also covers integers longer than Python's digit limit
                raise RecordError(
                    f"line {line_number}: invalid JSON ({getattr(exc, 'msg', exc)})",
                    line_number,
                ) from exc
            except RecordError as exc:
                raise RecordError(f"line {line_number}: {exc}", line_number) from None
        record = _record_from_obj(item, line_number, strict, warned, memo)
        if record.id in seen:
            raise DuplicateIdError(
                f"line {line_number}: duplicate paper id {record.id!r}", line_number
            )
        seen.add(record.id)
        yield record


def _no_repeated_key(pairs: list) -> dict:
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise RecordError(f"repeated key {key!r}")
        seen.add(key)
    return dict(pairs)


def decode(text: str) -> Any:
    """``json.loads(text)``, but a JSON object that repeats a key, at any
    depth, raises ``RecordError("repeated key 'k'")`` for the first repeat
    the decoder meets, where ``json.loads`` would keep the last value."""
    return json.loads(text, object_pairs_hook=_no_repeated_key)


def _codes(references, ids):
    names = {name: code for code, name in enumerate(dict.fromkeys(chain(ids, *references)))}
    codes = np.array([names[r] for refs in references for r in refs], dtype=np.int64)
    return list(names), codes, np.array([len(refs) for refs in references], dtype=np.int64)


def from_records(records: Iterable[PaperRecord]) -> Corpus:
    """Build a corpus of the records through the library's one constructor,
    each reference coded into the paper ids followed by the ids outside the
    corpus."""
    papers = {record.id: record for record in records}  # ids distinct, as iter_records checks

    n = len(papers)
    values = papers.values()
    journals: dict[str, int] = {}  # codes in order of first appearance
    journal_code = np.fromiter(
        (journals.setdefault(p.journal_id, len(journals)) for p in values), np.int32, n
    )
    return Corpus._from_columns(
        tuple(papers),
        tuple(journals),
        np.fromiter((p.year for p in values), np.int32, n),
        journal_code,
        np.fromiter((KIND_CODES[p.kind] for p in values), np.int8, n),
        _codes([p.author_ids for p in values], ()),
        _codes([p.reference_ids for p in values], papers),
        np.arange(n),
    )


def citations(corpus: Corpus) -> tuple[list[list[int]], int]:
    """The corpus's resolved citations as [citing row, cited row] pairs,
    ordered as ``corpus.edges`` orders them (by cited row, then citing row),
    and its count of unresolved references: found from the records with an
    id -> row dict of its own, never from the CSR index built by
    ``Corpus._from_columns``, against which the tests check them."""
    row = {paper_id: i for i, paper_id in enumerate(corpus.ids)}
    refs = [(i, ref) for i, p in enumerate(records(corpus).values()) for ref in p.reference_ids]
    pairs = sorted([row[ref], i] for i, ref in refs if ref in row)
    return [[citing, cited] for cited, citing in pairs], len(refs) - len(pairs)


def load_corpus(source, strict: bool = False) -> Corpus:
    return from_records(iter_records(source, strict=strict))
