"""Scalar int arguments of the library: a bool, a float or a value below
the argument's minimum is a ``UsageError``, never coerced into an answer.
Each case below once returned one: ``window_coverage(..., 2003, 2.5)`` was
1, ``citation_histogram([1, 2, 3], 2.5)`` had float buckets,
``citation_age_profile(corpus, 2003.0)`` float ages, ``replicate(config,
True, ...)`` made 1 run and ``m_index(True, 2000, 2004)`` was 1/4."""

import pytest

from citestats import (
    EmpiricalDistribution,
    JournalSpec,
    SynthConfig,
    UsageError,
    citation_age_profile,
    citation_histogram,
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
    (lambda c: m_index(True, 2000, 2004), "h must be an int, got True"),
    (lambda c: m_index(-1, 2000, 2004), "h must be >= 0"),
    (lambda c: EmpiricalDistribution({1.5: 2}), "citation count must be an int, got 1.5"),
    (lambda c: EmpiricalDistribution({True: 2}), "citation count must be an int, got True"),
    (lambda c: EmpiricalDistribution({1: 1.5}),
     "articles with 1 citations must be an int, got 1.5"),
], ids=[
    "window_coverage-float-window", "window_coverage-bool-window", "window_coverage-float-year",
    "self_citation_fraction-float-window", "self_citation_fraction-bool-window",
    "citation_histogram-float-width", "citation_age_profile-float-year", "replicate-bool-runs",
    "m_index-bool-h", "m_index-negative-h", "EmpiricalDistribution-float-key",
    "EmpiricalDistribution-bool-key", "EmpiricalDistribution-float-count",
])
def test_a_coercible_argument_is_a_usage_error(if_fixture_corpus, call, message):
    with pytest.raises(UsageError, match=f"^{message}$"):
        call(if_fixture_corpus)
