"""Object-model reference implementations of the corpus metrics.

These are the per-edge loops the library used before the columnar index:
each walks :class:`CitationEdge` objects from the corpus's lazy edge views.
They are slow and obviously correct, and the property tests compare the
numpy implementations with them.
"""

from collections import Counter
from fractions import Fraction

from citestats.corpus import ValidationReport
from citestats.errors import UnknownIdError
from citestats.journal_metrics import IFResult


def _require_journal(corpus, journal_id):
    try:
        return corpus.journal_papers[journal_id]
    except KeyError:
        raise UnknownIdError(f"unknown journal {journal_id!r}") from None


def impact_factor(corpus, query):
    paper_ids = _require_journal(corpus, query.journal_id)
    window = frozenset(query.window_years)
    numerator = 0
    denominator = 0
    for pid in paper_ids:
        paper = corpus.papers[pid]
        if paper.year not in window or paper.kind == "book":
            continue
        if query.denominator_policy == "all-items" or paper.is_substantive:
            denominator += 1
        for edge in corpus.incoming_edges(pid):
            if edge.citing_year != query.census_year:
                continue
            if (
                query.self_citation_policy == "exclude-same-journal"
                and corpus.papers[edge.citing_id].journal_id == query.journal_id
            ):
                continue
            numerator += 1
    return IFResult(numerator=numerator, denominator=denominator, query=query)


def citation_age_profile(corpus, census_year, journal_id=None):
    """Without the library's empty-census-year warning."""
    if journal_id is not None:
        _require_journal(corpus, journal_id)
    profile = Counter()
    for edge in corpus.edges:
        if edge.citing_year != census_year:
            continue
        if journal_id is not None and corpus.papers[edge.cited_id].journal_id != journal_id:
            continue
        profile[edge.age] += 1
    return profile


def window_coverage(corpus, journal_id, census_year, window_w):
    paper_ids = _require_journal(corpus, journal_id)
    lo, hi = census_year - window_w, census_year - 1
    received = 0
    inside = 0
    for pid in paper_ids:
        for edge in corpus.incoming_edges(pid):
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
    received = 0
    internal = 0
    for pid in paper_ids:
        for edge in corpus.incoming_edges(pid):
            if window_w is not None and not 1 <= edge.age <= window_w:
                continue
            received += 1
            if corpus.papers[edge.citing_id].journal_id == journal_id:
                internal += 1
    if received == 0:
        return None
    return Fraction(internal, received)


def validate(corpus):
    return ValidationReport(
        paper_count=len(corpus.papers),
        edge_count=sum(1 for _ in corpus.edges),
        unresolved_references=corpus.unresolved_reference_count,
        negative_age_edges=sum(1 for e in corpus.edges if e.age < 0),
        papers_without_authors=sum(1 for p in corpus.papers.values() if not p.author_ids),
    )


def citations_to(corpus, paper_id, citing_years=None):
    edges = corpus.incoming_edges(paper_id)
    if citing_years is None:
        return sum(1 for _ in edges)
    years = frozenset(citing_years)
    return sum(1 for e in edges if e.citing_year in years)
