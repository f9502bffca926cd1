"""Exact distribution comparison and the log-normal fit."""

import math
import random
from fractions import Fraction

import pytest

from citestats import (
    EmpiricalDistribution,
    InsufficientDataError,
    UnknownIdError,
    journal_distribution,
    lognormal_fit,
    mean,
    prob_at_least,
)

from conftest import build_corpus, rec


def pairwise_oracle(dist_a, dist_b):
    """O(N_A * N_B) enumeration over article pairs."""
    articles_a = [v for v, n in dist_a.histogram.items() for _ in range(n)]
    articles_b = [v for v, n in dist_b.histogram.items() for _ in range(n)]
    greater = equal = 0
    for a in articles_a:
        for b in articles_b:
            if a > b:
                greater += 1
            elif a == b:
                equal += 1
    total = len(articles_a) * len(articles_b)
    return Fraction(greater, total), Fraction(equal, total)


def random_distribution(rng, max_articles=50, max_count=20):
    n = rng.randrange(1, max_articles + 1)
    return EmpiricalDistribution.from_counts(
        [rng.randrange(0, max_count + 1) for _ in range(n)]
    )


class TestEmpiricalDistribution:
    def test_from_counts(self):
        dist = EmpiricalDistribution.from_counts([0, 0, 2, 5, 2])
        assert dict(dist.histogram) == {0: 2, 2: 2, 5: 1}
        assert dist.article_total == 5
        assert dist.zero_fraction == Fraction(2, 5)

    def test_histogram_keys_sorted(self):
        dist = EmpiricalDistribution(histogram={5: 1, 0: 2, 2: 1})
        assert list(dist.histogram) == [0, 2, 5]

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            EmpiricalDistribution.from_counts([])

    def test_zero_article_entry_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(histogram={1: 0})

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(histogram={-1: 2})


class TestMean:
    def test_all_uncited(self):
        assert mean(EmpiricalDistribution(histogram={0: 3})) == 0

    def test_two_point(self):
        assert mean(EmpiricalDistribution(histogram={0: 1, 2: 1})) == 1

    def test_matches_weighted_oracle_and_refinement(self):
        rng = random.Random(67)
        for _ in range(50):
            dist = random_distribution(rng)
            articles = [v for v, n in dist.histogram.items() for _ in range(n)]
            assert mean(dist) == Fraction(sum(articles), len(articles))


class TestProbAtLeast:
    def test_identical_point_masses(self):
        dist = EmpiricalDistribution(histogram={4: 7})
        result = prob_at_least(dist, dist)
        assert result.p_equal == 1
        assert result.p_at_least == 1
        assert result.p_greater == 0

    def test_fixture_pair_gives_sixty_percent(self):
        dist_a = EmpiricalDistribution(histogram={0: 60, 1: 40})
        dist_b = EmpiricalDistribution(histogram={0: 60, 2: 40})
        result = prob_at_least(dist_a, dist_b)
        assert mean(dist_b) == 2 * mean(dist_a)
        assert result.p_at_least == Fraction(3, 5)
        assert result.p_greater == Fraction(6, 25)
        assert result.p_equal == Fraction(9, 25)

    def test_matches_pairwise_oracle(self):
        rng = random.Random(71)
        for _ in range(60):
            dist_a = random_distribution(rng, max_articles=25)
            dist_b = random_distribution(rng, max_articles=25)
            result = prob_at_least(dist_a, dist_b)
            greater, equal = pairwise_oracle(dist_a, dist_b)
            assert result.p_greater == greater
            assert result.p_equal == equal

    def test_three_way_identity(self):
        rng = random.Random(73)
        for _ in range(60):
            dist_a = random_distribution(rng, max_articles=25)
            dist_b = random_distribution(rng, max_articles=25)
            forward = prob_at_least(dist_a, dist_b)
            backward = prob_at_least(dist_b, dist_a)
            assert forward.p_greater + forward.p_equal + backward.p_greater == 1
            assert forward.p_equal == backward.p_equal

    def test_self_comparison_exceeds_half(self):
        rng = random.Random(79)
        for _ in range(40):
            dist = random_distribution(rng)
            result = prob_at_least(dist, dist)
            assert result.p_at_least > Fraction(1, 2)

    def test_multiplicity_scaling_invariance(self):
        rng = random.Random(83)
        for _ in range(30):
            dist_a = random_distribution(rng, max_articles=10)
            dist_b = random_distribution(rng, max_articles=10)
            factor = rng.randrange(2, 6)
            scaled_a = EmpiricalDistribution(
                histogram={v: n * factor for v, n in dist_a.histogram.items()},
            )
            scaled_b = EmpiricalDistribution(
                histogram={v: n * factor for v, n in dist_b.histogram.items()},
            )
            original = prob_at_least(dist_a, dist_b)
            scaled = prob_at_least(scaled_a, scaled_b)
            assert original.p_greater == scaled.p_greater
            assert original.p_equal == scaled.p_equal


class TestJournalDistribution:
    def test_uncited_journal(self):
        corpus = build_corpus(
            rec("a1", journal="jnl-a", year=2002),
            rec("a2", journal="jnl-a", year=2003),
            rec("a3", journal="jnl-a", year=2004),
        )
        dist = journal_distribution(corpus, "jnl-a", range(2000, 2005), [2005])
        assert dict(dist.histogram) == {0: 3}
        assert dist.journal_id == "jnl-a"

    def test_constructed_histogram(self, compare_fixture_corpus):
        dist_a = journal_distribution(
            compare_fixture_corpus, "journal-a", [2004], [2005]
        )
        dist_b = journal_distribution(
            compare_fixture_corpus, "journal-b", [2004], [2005]
        )
        assert dict(dist_a.histogram) == {0: 60, 1: 40}
        assert dict(dist_b.histogram) == {0: 60, 2: 40}
        result = prob_at_least(dist_a, dist_b)
        assert result.p_at_least == Fraction(3, 5)

    def test_mean_is_the_impact_factor_style_average(self, compare_fixture_corpus):
        dist = journal_distribution(compare_fixture_corpus, "journal-b", [2004], [2005])
        assert mean(dist) == Fraction(80, 100)

    def test_citing_window_restricts_counts(self):
        corpus = build_corpus(
            rec("a1", journal="jnl-a", year=2002),
            rec("c1", journal="jnl-b", year=2005, refs=("a1",)),
            rec("c2", journal="jnl-b", year=2006, refs=("a1",)),
        )
        dist = journal_distribution(corpus, "jnl-a", [2002], [2005])
        assert dict(dist.histogram) == {1: 1}

    def test_non_substantive_items_excluded(self):
        corpus = build_corpus(
            rec("a1", journal="jnl-a", year=2002),
            rec("e1", journal="jnl-a", year=2002, kind="editorial"),
        )
        dist = journal_distribution(corpus, "jnl-a", [2002], [2005])
        assert dist.article_total == 1

    def test_no_qualifying_articles(self):
        corpus = build_corpus(rec("e1", journal="jnl-a", year=2002, kind="editorial"))
        with pytest.raises(InsufficientDataError):
            journal_distribution(corpus, "jnl-a", [2002], [2005])

    def test_unknown_journal(self):
        corpus = build_corpus(rec("a1"))
        with pytest.raises(UnknownIdError):
            journal_distribution(corpus, "jnl-z", [2000], [2005])


class TestLogNormalFit:
    def test_degenerate_single_positive_value(self):
        dist = EmpiricalDistribution(histogram={0: 10, 4: 30})
        with pytest.raises(InsufficientDataError):
            lognormal_fit(dist)

    def test_two_point_closed_form(self):
        # 50 zeros plus equal masses at round(e) = 3 and round(e^2) = 7
        dist = EmpiricalDistribution(histogram={0: 50, 3: 25, 7: 25})
        fit = lognormal_fit(dist)
        expected_mu = (math.log(3) + math.log(7)) / 2
        expected_sigma = abs(math.log(7) - math.log(3)) / 2
        assert fit.mu == pytest.approx(expected_mu)
        assert fit.mu == pytest.approx(1.5, abs=0.05)
        assert fit.sigma == pytest.approx(expected_sigma)
        assert fit.zero_fraction == Fraction(1, 2)
        assert fit.positive_total == 50

    def test_weighted_moments_match_expanded_oracle(self):
        rng = random.Random(89)
        for _ in range(20):
            counts = [rng.randrange(1, 50) for _ in range(rng.randrange(30, 60))]
            counts += [0] * rng.randrange(0, 20)
            if len(set(c for c in counts if c > 0)) < 2:
                continue
            dist = EmpiricalDistribution.from_counts(counts)
            fit = lognormal_fit(dist)
            logs = [math.log(c) for c in counts if c > 0]
            mu = sum(logs) / len(logs)
            var = sum((x - mu) ** 2 for x in logs) / len(logs)
            assert fit.mu == pytest.approx(mu)
            assert fit.sigma == pytest.approx(math.sqrt(var))
