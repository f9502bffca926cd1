"""Int arguments of the library, scalars and year lists: a bool, a float or
a value below the argument's minimum is a ``UsageError``, never coerced into
an answer, and a numpy integer is taken as the int it equals.  A ``str``
or ``bytes`` where a collection of names goes is a ``UsageError`` too, and
so is a kind name that is not a kind.  Each case below once returned an
answer or raised another error:
``window_coverage(..., 2003, 2.5)`` was 1, ``citation_histogram([1, 2, 3],
2.5)`` had float buckets, ``citation_age_profile(corpus, 2003.0)`` float
ages, ``replicate(config, True, ...)`` made 1 run, ``m_index(True, 2000,
2004)`` was 1/4, ``m_index(3, True, 2004)`` 3/2003,
``citation_counts([0, 1, 2], [2010.0, 2009.5])`` was ``[0, 0, 1]``,
``if_variability(corpus, j, 2002.0, 2003)`` a ``TypeError`` from ``range``,
``score_example1(corpus, "jk", [], subjects)`` read journals ``j`` and ``k``,
and ``author_record(..., kinds={"artcle"})`` was an ``InsufficientDataError``.
A policy argument a rule cannot score is a ``PolicyError`` naming it:
``score_example3`` raised ``AttributeError`` for an impact factor of 1.5
and scored ``True`` as 1, and ``score_example1`` scored a paper that a
subject listed twice twice."""

import re

import numpy as np
import pytest

from citestats import (
    EmpiricalDistribution,
    IFQuery,
    JournalSpec,
    PolicyError,
    SynthConfig,
    TierTable,
    UsageError,
    author_record,
    build_tiers,
    citation_age_profile,
    citation_histogram,
    config_to_json,
    impact_factor,
    if_variability,
    journal_distribution,
    m_index,
    replicate,
    score_example1,
    score_example2,
    score_example3,
    self_citation_fraction,
    window_coverage,
)

from conftest import build_corpus, rec
from test_policy import tier_corpus

CONFIG = SynthConfig(1, [JournalSpec("j", 5, 2000, 2004)])
KINDS = "['book', 'editorial', 'letter', 'research-article', 'review']"


@pytest.mark.parametrize("call, message", [
    (lambda c: window_coverage(c, "jnl-a", 2007, 2.5), "window_w must be an int, got 2.5"),
    (lambda c: window_coverage(c, "jnl-a", 2007, True), "window_w must be an int, got True"),
    (lambda c: window_coverage(c, "jnl-a", 2007.0, 2), "census_year must be an int, got 2007.0"),
    (lambda c: self_citation_fraction(c, "jnl-a", 1.5), "window_w must be an int, got 1.5"),
    (lambda c: self_citation_fraction(c, "jnl-a", True), "window_w must be an int, got True"),
    (lambda c: citation_histogram([1, 2, 3], 2.5), "bucket_width must be an int, got 2.5"),
    (lambda c: citation_age_profile(c, 2007.0), "census_year must be an int, got 2007.0"),
    (lambda c: replicate(CONFIG, True, 2002, 2004), "n_runs must be an int, got True"),
    (lambda c: replicate(CONFIG, 0, 2002, 2004), "n_runs must be >= 1"),
    (lambda c: m_index(True, 2000, 2004), "h must be an int, got True"),
    (lambda c: m_index(-1, 2000, 2004), "h must be >= 0"),
    (lambda c: EmpiricalDistribution({1.5: 2}), "citation count must be an int, got 1.5"),
    (lambda c: EmpiricalDistribution({True: 2}), "citation count must be an int, got True"),
    (lambda c: EmpiricalDistribution({1: 1.5}),
     "articles with 1 citations must be an int, got 1.5"),
    (lambda c: c.citation_counts([0, 1, 2], [2010.0, 2009.5]),
     "citing year must be an int, got 2010.0"),
    (lambda c: journal_distribution(c, "jnl-a", [2005.0, 2006.0], [2007]),
     "publication year must be an int, got 2005.0"),
    (lambda c: author_record(c, "au-1", [True]), "citing year must be an int, got True"),
    (lambda c: m_index(3, True, 2004), "first_publication_year must be an int, got True"),
    (lambda c: m_index(3, 2000, 2004.0), "evaluation_year must be an int, got 2004.0"),
    (lambda c: if_variability(c, "jnl-a", 2002.0, 2003), "start_year must be an int, got 2002.0"),
    (lambda c: if_variability(c, "jnl-a", True, 3), "start_year must be an int, got True"),
    (lambda c: if_variability(c, "jnl-a", 2005, 2007.0), "end_year must be an int, got 2007.0"),
    (lambda c: replicate(CONFIG, 1, 2002.0, 2004), "start_year must be an int, got 2002.0"),
    (lambda c: score_example1(c, "jk", [], {"s": [0]}),
     "core_journals must be a collection of names, got 'jk'"),
    (lambda c: score_example1(c, [], "jnl-a", {"s": [0]}),
     "indexed_journals must be a collection of names, got 'jnl-a'"),
    (lambda c: score_example1(c, b"jk", [], {"s": [0]}),
     "core_journals must be a collection of names, got b'jk'"),
    (lambda c: score_example2(c, "a1a2c", TierTable({}, 2007, 2, ())),
     "paper_ids must be a collection of names, got 'a1a2c'"),
    (lambda c: c.rows("a1"), "paper_ids must be a collection of names, got 'a1'"),
    (lambda c: author_record(c, "au-1", None, "book"),
     "kinds must be a collection of names, got 'book'"),
    (lambda c: author_record(c, "au-1", None, {"artcle"}), f"kind 'artcle' not one of {KINDS}"),
], ids=[
    "window_coverage-float-window", "window_coverage-bool-window", "window_coverage-float-year",
    "self_citation_fraction-float-window", "self_citation_fraction-bool-window",
    "citation_histogram-float-width", "citation_age_profile-float-year", "replicate-bool-runs",
    "replicate-zero-runs", "m_index-bool-h", "m_index-negative-h",
    "EmpiricalDistribution-float-key", "EmpiricalDistribution-bool-key",
    "EmpiricalDistribution-float-count", "citation_counts-float-years",
    "journal_distribution-float-years", "author_record-bool-year", "m_index-bool-first-year",
    "m_index-float-evaluation-year", "if_variability-float-start", "if_variability-bool-start",
    "if_variability-float-end", "replicate-float-census-start", "score_example1-str-core",
    "score_example1-str-indexed", "score_example1-bytes-core", "score_example2-str-papers", "rows-str-ids",
    "author_record-str-kinds", "author_record-unknown-kind",
])
def test_a_coercible_argument_is_a_usage_error(if_fixture_corpus, call, message):
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        call(if_fixture_corpus)


@pytest.mark.parametrize("call, message", [
    (lambda c: score_example3(c, {"jnl-a": 1.5}, {"s": [0]}),
     "journal 'jnl-a': impact factor must be an int or a Fraction, got 1.5"),
    (lambda c: score_example3(c, {"jnl-a": True}, {"s": [0]}),
     "journal 'jnl-a': impact factor must be an int or a Fraction, got True"),
    (lambda c: score_example1(c, [], [], {"s": [1], "t": [2, 0, 2]}),
     "subject 't' lists paper 'a3' more than once"),
], ids=["score_example3-float-impact-factor", "score_example3-bool-impact-factor",
        "score_example1-repeated-paper"])
def test_a_malformed_policy_argument_is_a_policy_error(if_fixture_corpus, call, message):
    with pytest.raises(PolicyError, match=f"^{re.escape(message)}$"):
        call(if_fixture_corpus)


def test_numpy_integers_give_the_int_answer_and_are_stored_as_int(if_fixture_corpus):
    query = IFQuery("jnl-a", np.int64(2007), np.int32(2))
    assert query == IFQuery("jnl-a", 2007, 2)
    assert type(query.census_year) is type(query.window_w) is int
    assert impact_factor(if_fixture_corpus, query) == impact_factor(
        if_fixture_corpus, IFQuery("jnl-a", 2007))
    histogram = citation_histogram([1, 2, 3], np.int64(2))
    assert histogram == citation_histogram([1, 2, 3], 2)
    assert all(type(key) is int for key in histogram.buckets)
    assert type(histogram.bucket_width) is int
    dist = EmpiricalDistribution({np.int64(1): np.uint8(2)})
    assert dist.histogram == {1: 2}
    assert [type(v) for v in (*dist.histogram, *dist.histogram.values())] == [int, int]
    config = SynthConfig(np.int64(1), [JournalSpec("j", *map(np.int64, (5, 2000, 2004)))])
    assert config_to_json(config) == config_to_json(CONFIG)
    tiers = build_tiers(tier_corpus({"a": 3, "b": 2, "c": 1}), np.int64(2007), np.int32(2))
    assert tiers == build_tiers(tier_corpus({"a": 3, "b": 2, "c": 1}), 2007, 2)
    assert type(tiers.census_year) is type(tiers.window_w) is int
    corpus = build_corpus(rec("a", year=2005), rec("b", year=2006, refs=("a",)),
                          rec("c", year=2007, refs=("a", "b")))
    variability = if_variability(corpus, "jnl-a", 2006, 2007, np.int64(2))
    assert variability == if_variability(corpus, "jnl-a", 2006, 2007)
    assert type(variability.window_w) is int
