"""Int arguments of the library, scalars and year lists: a bool, a float or
a value below the argument's minimum is a ``UsageError``, never coerced into
an answer, and a numpy integer is taken as the int it equals.  Each case
below once returned one: ``window_coverage(..., 2003, 2.5)`` was 1,
``citation_histogram([1, 2, 3], 2.5)`` had float buckets,
``citation_age_profile(corpus, 2003.0)`` float ages, ``replicate(config,
True, ...)`` made 1 run, ``m_index(True, 2000, 2004)`` was 1/4 and
``citation_counts([0, 1, 2], [2010.0, 2009.5])`` was ``[0, 0, 1]``."""

import numpy as np
import pytest

from citestats import (
    EmpiricalDistribution,
    IFQuery,
    JournalSpec,
    SynthConfig,
    UsageError,
    author_record,
    citation_age_profile,
    citation_histogram,
    config_to_json,
    impact_factor,
    journal_distribution,
    m_index,
    replicate,
    self_citation_fraction,
    window_coverage,
)

CONFIG = SynthConfig(1, [JournalSpec("j", 5, 2000, 2004)])


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
], ids=[
    "window_coverage-float-window", "window_coverage-bool-window", "window_coverage-float-year",
    "self_citation_fraction-float-window", "self_citation_fraction-bool-window",
    "citation_histogram-float-width", "citation_age_profile-float-year", "replicate-bool-runs",
    "replicate-zero-runs", "m_index-bool-h", "m_index-negative-h",
    "EmpiricalDistribution-float-key", "EmpiricalDistribution-bool-key",
    "EmpiricalDistribution-float-count", "citation_counts-float-years",
    "journal_distribution-float-years", "author_record-bool-year",
])
def test_a_coercible_argument_is_a_usage_error(if_fixture_corpus, call, message):
    with pytest.raises(UsageError, match=f"^{message}$"):
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
