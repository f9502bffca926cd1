"""The columnar index against the object model.

Random small corpora (every kind, references outside the corpus, citations
of later papers, authorless papers) are run through the numpy metrics and
through the per-edge reference loops in ``reference_metrics``; both must
agree exactly, undefined results included.
"""

import gc
import warnings
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import citestats.corpus
import reference_metrics as ref
from citestats import (
    KINDS,
    CitationStatsError,
    Corpus,
    IFQuery,
    PaperRecord,
    author_record,
    citation_age_profile,
    citations_to,
    impact_factor,
    self_citation_fraction,
    validate,
    window_coverage,
)
from citestats.journal_metrics import DENOMINATOR_POLICIES, SELF_CITATION_POLICIES

JOURNALS = ("j0", "j1", "j2")
CENSUS_YEARS = st.integers(2000, 2010)


@st.composite
def corpora(draw):
    n = draw(st.integers(0, 24))
    records = []
    for i in range(n):
        targets = st.integers(0, n + 2).map(lambda k: f"p{k}")  # p{n}.. are unresolved
        refs = draw(st.lists(targets, unique=True, max_size=6))
        records.append(
            PaperRecord(
                id=f"p{i}",
                journal_id=draw(st.sampled_from(JOURNALS)),
                year=draw(st.integers(2000, 2008)),
                kind=draw(st.sampled_from(sorted(KINDS))),
                author_ids=tuple(draw(st.lists(st.sampled_from(("a0", "a1")), unique=True))),
                reference_ids=tuple(r for r in refs if r != f"p{i}"),
            )
        )
    return Corpus.from_records(records)


def assert_exact(value, expected):
    assert value == expected
    if value is not None:
        assert type(value.numerator) is int and type(value.denominator) is int


@settings(max_examples=150, deadline=None)
@given(corpora(), CENSUS_YEARS)
def test_impact_factor_matches_reference(corpus, census_year):
    for journal_id in corpus.journal_papers:
        for window_w in range(1, 6):
            for denominator_policy in DENOMINATOR_POLICIES:
                for self_citation_policy in SELF_CITATION_POLICIES:
                    query = IFQuery(
                        journal_id, census_year, window_w, denominator_policy, self_citation_policy
                    )
                    result, expected = impact_factor(corpus, query), ref.impact_factor(corpus, query)
                    assert (result.numerator, result.denominator) == (
                        expected.numerator,
                        expected.denominator,
                    )
                    assert type(result.numerator) is int and type(result.denominator) is int
                    assert_exact(result.value, expected.value)


@settings(max_examples=150, deadline=None)
@given(corpora(), CENSUS_YEARS)
def test_coverage_and_self_citation_match_reference(corpus, census_year):
    for journal_id in corpus.journal_papers:
        for window_w in range(1, 6):
            assert_exact(
                window_coverage(corpus, journal_id, census_year, window_w),
                ref.window_coverage(corpus, journal_id, census_year, window_w),
            )
        for window_w in (None, 1, 2, 3, 4, 5):
            assert_exact(
                self_citation_fraction(corpus, journal_id, window_w),
                ref.self_citation_fraction(corpus, journal_id, window_w),
            )


@settings(max_examples=150, deadline=None)
@given(corpora(), CENSUS_YEARS)
def test_age_profile_matches_reference(corpus, census_year):
    for journal_id in (None, *corpus.journal_papers):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            profile = citation_age_profile(corpus, census_year, journal_id)
        expected = ref.citation_age_profile(corpus, census_year, journal_id)
        if any(p.year == census_year for p in corpus.papers.values()):
            assert profile == expected
        else:
            assert profile == Counter() == expected
        assert all(type(k) is int and type(v) is int for k, v in profile.items())


@settings(max_examples=150, deadline=None)
@given(corpora(), st.sets(CENSUS_YEARS, max_size=4))
def test_validate_and_citations_to_match_reference(corpus, citing_years):
    assert validate(corpus) == ref.validate(corpus)
    for paper_id in corpus.papers:
        for years in (None, citing_years, {2**70}):
            count = citations_to(corpus, paper_id, years)
            assert count == ref.citations_to(corpus, paper_id, years)
            assert type(count) is int


@settings(max_examples=150, deadline=None)
@given(
    corpora(),
    st.none() | st.sets(CENSUS_YEARS, max_size=4),
    st.none() | st.sets(st.sampled_from((*sorted(KINDS), "preprint")), max_size=3),
)
def test_author_record_matches_reference(corpus, citing_years, kinds):
    for author_id in ("a0", "a1", "a2"):
        try:
            expected = ref.author_record(corpus, author_id, citing_years, kinds)
        except CitationStatsError as exc:
            with pytest.raises(type(exc)) as raised:
                author_record(corpus, author_id, citing_years, kinds)
            assert str(raised.value) == str(exc)
        else:
            record = author_record(corpus, author_id, citing_years, kinds)
            assert record == expected
            assert type(record.first_publication_year) is int
            assert all(type(count) is int for count in record.counts)


@settings(max_examples=100, deadline=None)
@given(corpora())
def test_edges_array_follows_record_order(corpus):
    row = {paper_id: i for i, paper_id in enumerate(corpus.papers)}
    edges = ref.edges(corpus)
    expected = sorted((row[e.cited_id], row[e.citing_id]) for e in edges)
    array = corpus.edges
    assert array.tolist() == [[citing, cited] for cited, citing in expected]
    assert array.shape == (len(expected), 2)
    assert len(array) == validate(corpus).edge_count
    array[:] = -1  # a new array each time
    assert corpus.edges.tolist() == [[citing, cited] for cited, citing in expected]
    for paper_id in corpus.papers:
        incoming = ref.incoming_edges(corpus, paper_id)
        assert [e for e in edges if e.cited_id == paper_id] == incoming


def test_edges_array_of_a_small_corpus():
    corpus = Corpus.from_records(
        [
            PaperRecord("a", "j", 2001, "research-article", ("x",)),
            PaperRecord("b", "j", 2002, "review", (), ("a", "ghost")),
        ]
    )
    assert citations_to(corpus, "a", [2002]) == 1
    assert validate(corpus).unresolved_references == 1
    assert self_citation_fraction(corpus, "j", 1) == Fraction(1)
    assert corpus.edges.tolist() == [[1, 0]]
    assert Corpus.from_records([]).edges.shape == (0, 2)
    assert Corpus.from_records([PaperRecord("a", "j", 2001, "book")]).edges.shape == (0, 2)
    assert not hasattr(citestats, "CitationEdge")
    assert not hasattr(citestats.corpus, "CitationEdge")


def test_corpus_is_freed_without_the_cycle_collector():
    """replicate builds a corpus per run; a reference cycle would keep each
    one alive until the cyclic collector happens to run."""
    gc.collect()
    gc.disable()
    try:
        corpus = Corpus.from_records(
            [PaperRecord("a", "j", 2001, "letter"), PaperRecord("b", "j", 2002, "book", (), ("a",))]
        )
        assert corpus.edges.tolist() == [[1, 0]]
        assert ref.edges(corpus)[0].cited_id == ref.incoming_edges(corpus, "a")[0].cited_id == "a"
        del corpus
        assert gc.collect() == 0
    finally:
        gc.enable()
