"""The columnar index against the object model.

Random small corpora (every kind, references outside the corpus, citations
of later papers, authorless papers) are run through the numpy metrics and
through the per-edge reference loops in ``reference_metrics``; both must
agree exactly, undefined results included.
"""

import gc
import json
import random
import warnings
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import citestats.corpus
import reference_metrics as ref
from citestats import (
    KINDS,
    CitationStatsError,
    IFQuery,
    JournalSpec,
    SynthConfig,
    author_record,
    citation_age_profile,
    generate,
    impact_factor,
    load_corpus,
    self_citation_fraction,
    validate,
    window_coverage,
)
from citestats.journal_metrics import DENOMINATOR_POLICIES, SELF_CITATION_POLICIES
from conftest import build_corpus, rec

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
            rec(
                f"p{i}",
                journal=draw(st.sampled_from(JOURNALS)),
                year=draw(st.integers(2000, 2008)),
                kind=draw(st.sampled_from(sorted(KINDS))),
                authors=draw(st.lists(st.sampled_from(("a0", "a1")), unique=True)),
                refs=[r for r in refs if r != f"p{i}"],
            )
        )
    return build_corpus(*records)


def assert_exact(value, expected):
    assert value == expected
    if value is not None:
        assert type(value.numerator) is int and type(value.denominator) is int


@settings(max_examples=150, deadline=None)
@given(corpora(), CENSUS_YEARS)
def test_impact_factor_matches_reference(corpus, census_year):
    for journal_id in corpus.journals:
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
    for journal_id in corpus.journals:
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
    for journal_id in (None, *corpus.journals):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            profile = citation_age_profile(corpus, census_year, journal_id)
        expected = ref.citation_age_profile(corpus, census_year, journal_id)
        if census_year in corpus.year:
            assert profile == expected
        else:
            assert profile == Counter() == expected
        assert all(type(k) is int and type(v) is int for k, v in profile.items())


@settings(max_examples=150, deadline=None)
@given(corpora(), st.sets(CENSUS_YEARS, max_size=4))
def test_validate_and_citations_to_match_reference(corpus, citing_years):
    assert validate(corpus) == ref.validate(corpus)
    paper_ids = list(ref.records(corpus))
    for years in (None, citing_years, {2**70}):
        counts = corpus.citation_counts(corpus.rows(paper_ids), years)
        assert counts == [ref.citations_to(corpus, pid, years) for pid in paper_ids]
        assert all(type(count) is int for count in counts)


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
    row = {paper_id: i for i, paper_id in enumerate(ref.records(corpus))}
    edges = ref.edges(corpus)
    expected = sorted((row[e.cited_id], row[e.citing_id]) for e in edges)
    array = corpus.edges
    assert array.tolist() == [[citing, cited] for cited, citing in expected]
    assert array.shape == (len(expected), 2)
    assert len(array) == validate(corpus).edge_count
    array[:] = -1  # a new array each time
    assert corpus.edges.tolist() == [[citing, cited] for cited, citing in expected]
    for paper_id in row:
        incoming = ref.incoming_edges(corpus, paper_id)
        assert [e for e in edges if e.cited_id == paper_id] == incoming


@settings(max_examples=200, deadline=None)
@given(corpora(), st.data())
def test_incoming_matches_the_rows_slices(corpus, data):
    """Rows in any order, repeated or receiving no citation, and no rows."""
    indptr, citing_idx = corpus.indptr.tolist(), corpus.citing_idx.tolist()
    drawn = data.draw(st.lists(st.integers(0, len(corpus) - 1), max_size=40)) if len(corpus) else []
    for rows in (drawn, drawn[::-1] * 2, []):
        owner, citing = corpus.incoming(rows)
        assert owner.dtype == citing.dtype == np.int32
        expected = [(k, c) for k, r in enumerate(rows) for c in citing_idx[indptr[r] : indptr[r + 1]]]
        assert list(zip(owner.tolist(), citing.tolist())) == expected


@settings(max_examples=200, deadline=None)
@given(corpora(), st.data(), st.sampled_from((1, 2, 7, citestats.corpus._PART_EDGES)))
def test_incoming_parts_cut_incoming_at_running_multiples_of_the_part_size(corpus, data, part):
    """Joined, the parts are ``incoming`` of all the rows, and a part starts
    after each row at which the running citation count passes a multiple of
    the part size, so it receives fewer beyond its first row's."""
    drawn = data.draw(st.lists(st.integers(0, len(corpus) - 1), max_size=40)) if len(corpus) else []
    received = corpus.citation_counts(drawn)
    with patch.object(citestats.corpus, "_PART_EDGES", part):
        parts = list(corpus._incoming_parts(drawn))
    starts = [lo for lo, _, _ in parts]
    running = np.cumsum(received, dtype=np.int64) // part
    assert starts == [0, *(np.flatnonzero(np.diff(running)) + 1).tolist()]
    for (lo, owner, citing), hi in zip(parts, [*starts[1:], len(drawn)]):
        assert owner.dtype == citing.dtype == np.int32
        assert len(owner) == sum(received[lo:hi]) < part + sum(received[lo : lo + 1])
    owner, citing = corpus.incoming(drawn)
    assert [(lo + k, c) for lo, o, cs in parts for k, c in zip(o.tolist(), cs.tolist())] == list(
        zip(owner.tolist(), citing.tolist()))


def _lines(n):
    """JSON lines of ``n`` papers, ``p0`` up, each citing up to three others
    and some ids outside the corpus; paper 1 cites only such ids, and the
    last two cite each other, which gives the largest (cited, citing) keys."""
    rng = random.Random(n)
    lines = []
    for i in range(n):
        refs = {f"p{rng.randrange(n)}" for _ in range(rng.randrange(4))} - {f"p{i}"}
        if rng.random() < 0.1:
            refs.add(f"ghost-{rng.randrange(50)}")
        if i == 1:
            refs = {"ghost-a", "ghost-b"}
        if i >= n - 2:
            refs.add(f"p{2 * n - 3 - i}")
        lines.append(json.dumps({
            "id": f"p{i}", "journal": "j", "year": 2000 + rng.randrange(10), "kind": "review",
            "authors": [f"a{i % 3}"] if i % 5 else [], "references": sorted(refs),
        }))
    return lines


@pytest.mark.parametrize("n", [12, 46_340, 46_341])
def test_index_matches_the_pair_enumeration_at_both_key_widths(n):
    """46,340 papers are the most whose (cited, citing) keys the build sorts
    as int32, and 46,341 the fewest it sorts as int64, where the last two
    papers' keys would not fit int32."""
    corpus = load_corpus(_lines(n))
    pairs, unresolved = ref.citations(corpus)
    cited = [row for _, row in pairs]
    assert corpus.indptr.tolist() == [bisect_left(cited, row) for row in range(n + 1)]
    assert corpus.citing_idx.tolist() == [row for row, _ in pairs]
    assert pairs[-1] == [n - 2, n - 1]  # key n * n - 2, past int32 at n = 46,341
    assert corpus.unresolved_reference_count == unresolved >= 2
    assert validate(corpus) == ref.validate(corpus)
    assert (corpus.indptr.dtype, corpus.citing_idx.dtype) == (np.int64, np.int32)


def test_codes_are_four_bytes_wide():
    loaded = build_corpus(rec("a", authors=("x", "y")), rec("b", refs=("a", "ghost")))
    generated = generate(SynthConfig(seed=1, journals=[JournalSpec("j", 5, 2000, 2003)]))
    for corpus in (loaded, generated):
        assert corpus._references[1].dtype == corpus._authors[1].dtype == np.int32


def test_edges_array_of_a_small_corpus():
    corpus = build_corpus(
        rec("a", "j", 2001, "research-article", ("x",)),
        rec("b", "j", 2002, "review", (), ("a", "ghost")),
    )
    assert corpus.citation_counts(corpus.rows(["a"]), [2002]) == [1]
    assert validate(corpus).unresolved_references == 1
    assert self_citation_fraction(corpus, "j", 1) == Fraction(1)
    assert corpus.edges.tolist() == [[1, 0]]
    assert build_corpus().edges.shape == (0, 2)
    assert build_corpus(rec("a", "j", 2001, "book")).edges.shape == (0, 2)
    assert not hasattr(citestats, "CitationEdge")
    assert not hasattr(citestats.corpus, "CitationEdge")


def test_corpus_is_freed_without_the_cycle_collector():
    """replicate builds a corpus per run; a reference cycle would keep each
    one alive until the cyclic collector happens to run."""
    gc.collect()
    gc.disable()
    try:
        corpus = build_corpus(
            rec("a", "j", 2001, "letter"), rec("b", "j", 2002, "book", (), ("a",))
        )
        assert corpus.edges.tolist() == [[1, 0]]
        assert ref.edges(corpus)[0].cited_id == ref.incoming_edges(corpus, "a")[0].cited_id == "a"
        del corpus
        assert gc.collect() == 0
    finally:
        gc.enable()
