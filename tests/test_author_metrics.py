"""h, g and m indices plus the per-paper histogram kept alongside them."""

import random
from fractions import Fraction

import numpy as np
import pytest

from citestats import (
    InsufficientDataError,
    UnknownIdError,
    UsageError,
    author_record,
    citation_histogram,
    g_index,
    h_index,
    m_index,
)

from conftest import build_corpus, rec


def brute_force_h(counts):
    counts = list(counts)
    best = 0
    for n in range(len(counts) + 1):
        if sum(1 for c in counts if c >= n) >= n:
            best = n
    return best


def brute_force_g(counts):
    ranked = sorted(counts, reverse=True)
    best = 0
    for n in range(len(ranked) + 1):
        if sum(ranked[:n]) >= n * n:
            best = n
    return best


def mid_career_record():
    """84-paper record, exactly 15 of them with >= 15 citations, 16th largest < 16."""
    top = [44, 40, 38, 33, 31, 28, 27, 25, 24, 22, 20, 18, 17, 16, 15]
    rest = [14, 12, 11, 9, 8, 8, 7, 7, 6, 6, 5, 5, 5, 4, 4, 4, 4, 3, 3, 3]
    rest += [2] * 12 + [1] * 17 + [0] * 20
    counts = top + rest
    assert len(counts) == 84
    assert sum(1 for c in counts if c >= 15) == 15
    assert sorted(counts, reverse=True)[15] < 16
    return counts


class TestAuthorRecord:
    def test_single_uncited_paper(self):
        corpus = build_corpus(rec("p1", year=1998, authors=("alice",)))
        record = author_record(corpus, "alice")
        assert record.counts == (0,)
        assert record.first_publication_year == 1998

    def test_counts_per_paper(self):
        corpus = build_corpus(
            rec("p1", year=2000, authors=("alice",)),
            rec("p2", year=2001, authors=("alice", "bob")),
            rec("c1", year=2002, authors=("carol",), refs=("p1",)),
            rec("c2", year=2003, authors=("carol",), refs=("p1",)),
            rec("c3", year=2004, authors=("carol",), refs=("p1",)),
        )
        record = author_record(corpus, "alice")
        assert record.counts == (3, 0)
        assert record.first_publication_year == 2000

    def test_window_excluding_all_citing_years(self):
        corpus = build_corpus(
            rec("p1", year=2000, authors=("alice",)),
            rec("c1", year=2002, authors=("bob",), refs=("p1",)),
        )
        record = author_record(corpus, "alice", citing_years=[1990, 1991])
        assert record.counts == (0,)

    def test_unknown_author(self):
        corpus = build_corpus(rec("p1"))
        with pytest.raises(UnknownIdError, match="nobody"):
            author_record(corpus, "nobody")

    def test_kind_filter(self):
        corpus = build_corpus(
            rec("p1", year=2000, authors=("alice",)),
            rec("b1", year=1995, kind="book", authors=("alice",)),
        )
        everything = author_record(corpus, "alice")
        assert len(everything.counts) == 2
        assert everything.first_publication_year == 1995
        articles_only = author_record(corpus, "alice", kinds={"research-article"})
        assert len(articles_only.counts) == 1
        assert articles_only.first_publication_year == 2000
        with pytest.raises(InsufficientDataError):
            author_record(corpus, "alice", kinds={"letter"})


class TestHIndex:
    def test_ten_papers_ten_citations(self):
        assert h_index([10] * 10) == 10

    def test_ninety_more_papers_with_nine_citations_change_nothing(self):
        assert h_index([10] * 10 + [9] * 90) == 10

    def test_empty(self):
        assert h_index([]) == 0

    def test_mid_career_record(self):
        assert h_index(mid_career_record()) == 15

    def test_matches_brute_force_scan(self):
        rng = random.Random(41)
        for _ in range(300):
            counts = [rng.randrange(0, 40) for _ in range(rng.randrange(0, 25))]
            assert h_index(counts) == brute_force_h(counts)

    def test_bounds(self):
        rng = random.Random(43)
        for _ in range(200):
            counts = [rng.randrange(0, 40) for _ in range(rng.randrange(1, 25))]
            h = h_index(counts)
            assert 0 <= h <= min(len(counts), max(counts))


class TestGIndex:
    def test_ten_papers_hundred_citations_each(self):
        # capped at the paper count under the literal definition
        assert g_index([100] * 10) == 10
        assert h_index([100] * 10) == 10

    def test_empty(self):
        assert g_index([]) == 0

    def test_worked_example(self):
        # cumulative 10, 15, 18, 19 against 1, 4, 9, 16
        counts = [10, 5, 3, 1]
        assert g_index(counts) == 4
        assert h_index(counts) == 3

    def test_matches_brute_force_scan(self):
        rng = random.Random(47)
        for _ in range(300):
            counts = [rng.randrange(0, 60) for _ in range(rng.randrange(0, 25))]
            assert g_index(counts) == brute_force_g(counts)

    def test_g_at_least_h(self):
        rng = random.Random(53)
        for _ in range(300):
            counts = [rng.randrange(0, 60) for _ in range(rng.randrange(0, 25))]
            assert g_index(counts) >= h_index(counts)

    def test_permutation_invariance(self):
        rng = random.Random(59)
        counts = [rng.randrange(0, 30) for _ in range(15)]
        shuffled = counts[:]
        rng.shuffle(shuffled)
        assert h_index(counts) == h_index(shuffled)
        assert g_index(counts) == g_index(shuffled)

    def test_monotone_under_added_citations_and_papers(self):
        rng = random.Random(61)
        for _ in range(200):
            counts = [rng.randrange(0, 30) for _ in range(rng.randrange(1, 20))]
            h, g = h_index(counts), g_index(counts)
            bumped = counts[:]
            bumped[rng.randrange(len(bumped))] += 1
            assert h_index(bumped) >= h and g_index(bumped) >= g
            extended = counts + [rng.randrange(0, 30)]
            assert h_index(extended) >= h and g_index(extended) >= g


class TestMIndex:
    def test_zero_h(self):
        assert m_index(0, 1990, 2005) == 0

    def test_fifteen_over_fifteen_years(self):
        assert m_index(15, 1990, 2005) == 1

    def test_same_year_clamps_divisor_to_one(self):
        assert m_index(3, 2005, 2005) == 3

    def test_evaluation_before_first_paper(self):
        with pytest.raises(UsageError):
            m_index(3, 2005, 2004)

    def test_exact_fraction(self):
        assert m_index(7, 2000, 2003) == Fraction(7, 3)


class TestCitationHistogram:
    def test_all_zero_counts(self):
        hist = citation_histogram([0, 0, 0])
        assert hist.buckets == {0: 3}
        assert hist.h == 0
        assert hist.tail_fraction == 1  # every paper has >= 0 citations

    def test_mid_career_tail_fraction(self):
        hist = citation_histogram(mid_career_record())
        assert hist.h == 15
        assert hist.tail_fraction == Fraction(15, 84)
        assert float(hist.tail_fraction) < 0.20

    def test_exact_buckets(self):
        hist = citation_histogram([0, 1, 1, 5, 9])
        assert hist.buckets == {0: 1, 1: 2, 5: 1, 9: 1}
        assert hist.paper_total == 5

    def test_bucket_width(self):
        hist = citation_histogram([0, 1, 4, 5, 9, 12], bucket_width=5)
        assert hist.buckets == {0: 3, 5: 2, 10: 1}

    def test_empty(self):
        hist = citation_histogram([])
        assert hist.buckets == {}
        assert hist.tail_fraction is None

    def test_rejects_bad_width(self):
        with pytest.raises(UsageError):
            citation_histogram([1], bucket_width=0)


class TestBadCounts:
    """A count that is not a non-negative integer is a usage error, for all
    three functions; numpy integers count as integers."""

    functions = pytest.mark.parametrize(
        "function", [h_index, g_index, citation_histogram], ids=lambda f: f.__name__
    )

    def test_negative_count_no_longer_lifts_g(self):
        # g_index([5, -1]) was 2: the -1 paper joined a total of 4 >= 2 * 2
        with pytest.raises(UsageError, match="^citation count must be >= 0$"):
            g_index([5, -1])

    def test_float_counts_no_longer_give_an_h(self):
        # h_index([3.5, 2.2, 1.9]) was 2
        with pytest.raises(UsageError, match="got 3.5"):
            h_index([3.5, 2.2, 1.9])

    def test_float_count_no_longer_makes_a_float_bucket(self):
        # citation_histogram([1.5, 2]) had the bucket key 1.0
        with pytest.raises(UsageError, match="got 1.5"):
            citation_histogram([1.5, 2])

    @functions
    @pytest.mark.parametrize("bad", [-1, 2.0, True, False, "3", None, Fraction(3), np.float64(3),
                                     np.bool_(True), np.int64(-2)])
    def test_rejected(self, function, bad):
        with pytest.raises(UsageError, match="^citation count must be (an int, got .+|>= 0)$"):
            function([4, bad, 1])

    @functions
    def test_numpy_integers_give_the_int_answer(self, function):
        counts = [12, 7, 7, 3, 0, 1]
        for dtype in (np.int64, np.int32, np.uint8):
            got = function(np.array(counts, dtype=dtype))
            assert got == function(counts)
            if function is citation_histogram:
                assert all(type(key) is int for key in got.buckets)
            else:
                assert type(got) is int
