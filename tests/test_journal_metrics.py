"""Impact factors, age profiles, coverage, variability, self-citations."""

import random
from collections import Counter
from fractions import Fraction

import pytest

import citestats.corpus
from citestats import (
    IFQuery,
    InsufficientDataError,
    UnknownIdError,
    UsageError,
    citation_age_profile,
    if_variability,
    impact_factor,
    impact_factors,
    self_citation_fraction,
    validate,
    window_coverage,
)

import reference_metrics as ref
from conftest import build_corpus, rec


class TestIFQuery:
    def test_window_years(self):
        query = IFQuery("jnl-a", census_year=2007, window_w=2)
        assert list(query.window_years) == [2005, 2006]

    def test_rejects_bad_window(self):
        with pytest.raises(UsageError):
            IFQuery("jnl-a", census_year=2007, window_w=0)
        with pytest.raises(UsageError):
            IFQuery("jnl-a", census_year=1801, window_w=5)

    def test_rejects_unknown_policies(self):
        with pytest.raises(UsageError):
            IFQuery("jnl-a", 2007, denominator_policy="whatever")
        with pytest.raises(UsageError):
            IFQuery("jnl-a", 2007, self_citation_policy="whatever")

    @pytest.mark.parametrize(
        "field, value", [("census_year", 2007.0), ("census_year", True), ("census_year", "2007"),
                         ("window_w", 2.5), ("window_w", 2.0), ("window_w", True)],
    )
    def test_rejects_a_year_or_window_that_is_not_an_int(self, if_fixture_corpus, field, value):
        arguments = {"census_year": 2007, "window_w": 2, field: value}
        with pytest.raises(UsageError, match=f"^{field} must be an int, got {value!r}$"):
            IFQuery("jnl-a", **arguments)
        with pytest.raises(UsageError, match=f"^{field} must be an int"):
            impact_factor(if_fixture_corpus, IFQuery("jnl-a", *arguments.values()))


class TestImpactFactor:
    def test_narrative_value_of_one_point_five(self, if_fixture_corpus):
        result = impact_factor(if_fixture_corpus, IFQuery("jnl-a", 2007, 2))
        assert result.numerator == 6
        assert result.denominator == 4
        assert result.value == Fraction(3, 2)

    def test_same_value_under_both_denominator_policies(self, if_fixture_corpus):
        # the window holds substantive items only, so the policies agree
        for policy in ("substantive-only", "all-items"):
            result = impact_factor(
                if_fixture_corpus, IFQuery("jnl-a", 2007, 2, denominator_policy=policy)
            )
            assert result.value == Fraction(3, 2)

    def test_no_citations_gives_zero(self):
        corpus = build_corpus(
            rec("a1", journal="jnl-a", year=2005),
            rec("c1", journal="jnl-b", year=2007),
        )
        result = impact_factor(corpus, IFQuery("jnl-a", 2007, 2))
        assert result.value == 0
        assert result.is_defined

    def test_denominator_policy_split_on_editorials(self, editorial_corpus):
        # citations to the editorial count in the numerator either way;
        # only the denominator changes
        substantive = impact_factor(
            editorial_corpus,
            IFQuery("jnl-m", 2007, 2, denominator_policy="substantive-only"),
        )
        all_items = impact_factor(
            editorial_corpus, IFQuery("jnl-m", 2007, 2, denominator_policy="all-items")
        )
        assert (substantive.numerator, substantive.denominator) == (3, 2)
        assert substantive.value == Fraction(3, 2)
        assert (all_items.numerator, all_items.denominator) == (3, 3)
        assert all_items.value == 1

    def test_unknown_journal(self, if_fixture_corpus):
        with pytest.raises(UnknownIdError, match="jnl-z"):
            impact_factor(if_fixture_corpus, IFQuery("jnl-z", 2007))

    def test_empty_window_is_undefined_not_zero(self):
        corpus = build_corpus(rec("a1", journal="jnl-a", year=2000))
        result = impact_factor(corpus, IFQuery("jnl-a", 2007, 2))
        assert not result.is_defined
        assert result.value is None
        # undefined is distinct from a defined zero
        zero = impact_factor(
            build_corpus(rec("b1", journal="jnl-a", year=2006)),
            IFQuery("jnl-a", 2007, 2),
        )
        assert zero.value == 0 and zero.value is not None

    def test_books_never_enter_the_window(self):
        corpus = build_corpus(
            rec("bk", journal="jnl-a", year=2005, kind="book"),
            rec("a1", journal="jnl-a", year=2006),
            rec("c1", journal="jnl-b", year=2007, refs=("bk", "a1")),
        )
        result = impact_factor(corpus, IFQuery("jnl-a", 2007, 2, denominator_policy="all-items"))
        # the citation to the book and the book itself are both excluded
        assert (result.numerator, result.denominator) == (1, 1)

    def test_self_citation_policy(self):
        corpus = build_corpus(
            rec("a1", journal="jnl-a", year=2005),
            rec("same", journal="jnl-a", year=2007, refs=("a1",)),
            rec("other", journal="jnl-b", year=2007, refs=("a1",)),
        )
        include = impact_factor(corpus, IFQuery("jnl-a", 2007, 2))
        exclude = impact_factor(
            corpus, IFQuery("jnl-a", 2007, 2, self_citation_policy="exclude-same-journal")
        )
        assert include.numerator == 2
        assert exclude.numerator == 1

    def test_exclude_numerator_never_exceeds_include(self):
        rng = random.Random(23)
        for _ in range(20):
            corpus = _random_two_journal_corpus(rng)
            include = impact_factor(corpus, IFQuery("jnl-a", 2007, 2))
            exclude = impact_factor(
                corpus,
                IFQuery("jnl-a", 2007, 2, self_citation_policy="exclude-same-journal"),
            )
            assert exclude.numerator <= include.numerator

    def test_adding_uncited_article_never_increases_if(self):
        rng = random.Random(29)
        for _ in range(20):
            corpus = _random_two_journal_corpus(rng)
            before = impact_factor(corpus, IFQuery("jnl-a", 2007, 2))
            grown = build_corpus(
                *ref.records(corpus).values(), rec("extra-uncited", journal="jnl-a", year=2006)
            )
            after = impact_factor(grown, IFQuery("jnl-a", 2007, 2))
            if before.is_defined:
                assert after.value <= before.value
                if before.numerator > 0:
                    assert after.value < before.value

    def test_invariant_under_id_relabeling(self):
        rng = random.Random(31)
        corpus = _random_two_journal_corpus(rng)
        papers = ref.records(corpus).values()
        mapping = {p.id: f"relabeled-{i}" for i, p in enumerate(papers)}
        relabeled = build_corpus(*(
            rec(
                mapping[p.id],
                journal=p.journal_id,
                year=p.year,
                kind=p.kind,
                authors=tuple(f"x-{a}" for a in p.author_ids),
                refs=tuple(mapping.get(r, r) for r in p.reference_ids),
            )
            for p in papers
        ))
        original = impact_factor(corpus, IFQuery("jnl-a", 2007, 2))
        renamed = impact_factor(relabeled, IFQuery("jnl-a", 2007, 2))
        assert (original.numerator, original.denominator) == (
            renamed.numerator,
            renamed.denominator,
        )


def _random_two_journal_corpus(rng):
    records = []
    targets = []
    for i in range(rng.randrange(1, 6)):
        pid = f"a{i}"
        records.append(rec(pid, journal="jnl-a", year=rng.choice([2005, 2006])))
        targets.append(pid)
    for i in range(rng.randrange(0, 6)):
        journal = rng.choice(["jnl-a", "jnl-b"])
        refs = tuple(rng.sample(targets, k=rng.randrange(0, len(targets) + 1)))
        records.append(rec(f"c{i}", journal=journal, year=2007, refs=refs))
    return build_corpus(*records)


class TestImpactFactors:
    def test_matches_one_query_per_journal(self, editorial_corpus):
        # the default policies; test_columnar checks every policy pair
        values = impact_factors(editorial_corpus, 2007, 2)
        assert list(values) == ["jnl-m", "jnl-x"]
        for journal_id, value in values.items():
            query = IFQuery(journal_id, 2007, 2, "substantive-only", "include")
            assert value == impact_factor(editorial_corpus, query).value
        assert values["jnl-x"] is None

    def test_bad_window_is_a_usage_error(self, if_fixture_corpus):
        with pytest.raises(UsageError, match="window_w"):
            impact_factors(if_fixture_corpus, 2007, 0)


class TestCitationAgeProfile:
    def test_single_bucket(self):
        corpus = build_corpus(
            rec("p1", year=2002),
            rec("c1", year=2003, refs=("p1",)),
            rec("c2", year=2003, refs=("p1",)),
        )
        assert citation_age_profile(corpus, 2003) == Counter({1: 2})

    def test_constructed_profile_matches_edge_enumeration(self):
        corpus = build_corpus(
            rec("p95", year=1995),
            rec("p99", year=1999),
            rec("p01", year=2001),
            rec("p02", year=2002),
            rec("c1", year=2003, refs=("p95", "p01", "p02")),
            rec("c2", year=2003, refs=("p99", "p02")),
            rec("older", year=2002, refs=("p95",)),  # outside the census year
        )
        profile = citation_age_profile(corpus, 2003)
        # oracle: enumerate census-year edges by hand
        expected = Counter()
        for edge in ref.edges(corpus):
            if edge.citing_year == 2003:
                expected[edge.age] += 1
        assert profile == expected == Counter({8: 1, 4: 1, 2: 1, 1: 2})

    def test_journal_filter_restricts_cited_side(self):
        corpus = build_corpus(
            rec("a", journal="jnl-a", year=2000),
            rec("b", journal="jnl-b", year=2001),
            rec("c", journal="jnl-c", year=2003, refs=("a", "b")),
        )
        assert citation_age_profile(corpus, 2003, "jnl-a") == Counter({3: 1})

    def test_no_citing_papers_warns_and_returns_empty(self):
        corpus = build_corpus(rec("p1", year=2000))
        with pytest.warns(UserWarning, match="census year 1999"):
            profile = citation_age_profile(corpus, 1999)
        assert profile == Counter()


class TestWindowCoverage:
    def test_all_inside_window(self):
        corpus = build_corpus(
            rec("a", journal="jnl-a", year=2006),
            rec("c", journal="jnl-b", year=2007, refs=("a",)),
        )
        assert window_coverage(corpus, "jnl-a", 2007, 2) == 1

    def test_quarter_inside(self):
        # 12 citations to jnl-a from 2007; 3 of them to window items
        records = []
        for i in range(3):
            records.append(rec(f"w{i}", journal="jnl-a", year=2006))
        for i in range(9):
            records.append(rec(f"o{i}", journal="jnl-a", year=1995))
        citers = [f"w{i}" for i in range(3)] + [f"o{i}" for i in range(9)]
        for i, target in enumerate(citers):
            records.append(rec(f"c{i}", journal="jnl-b", year=2007, refs=(target,)))
        corpus = build_corpus(*records)
        assert window_coverage(corpus, "jnl-a", 2007, 2) == Fraction(1, 4)

    def test_monotone_in_window_and_reaches_one(self):
        rng = random.Random(37)
        for _ in range(10):
            records = [rec(f"t{i}", journal="jnl-a", year=2000 + rng.randrange(7)) for i in range(5)]
            for i in range(6):
                records.append(
                    rec(f"c{i}", journal="jnl-b", year=2007, refs=(f"t{rng.randrange(5)}",))
                )
            corpus = build_corpus(*records)
            previous = Fraction(0)
            for w in range(1, 10):
                coverage = window_coverage(corpus, "jnl-a", 2007, w)
                assert coverage >= previous
                previous = coverage
            # every cited year lies in 2000..2006, spanned by w = 7
            assert window_coverage(corpus, "jnl-a", 2007, 7) == 1

    def test_bad_window_is_a_usage_error(self, if_fixture_corpus):
        with pytest.raises(UsageError, match="window_w"):
            window_coverage(if_fixture_corpus, "jnl-a", 2007, 0)

    def test_no_received_citations_is_undefined(self):
        corpus = build_corpus(rec("a", journal="jnl-a", year=2006))
        assert window_coverage(corpus, "jnl-a", 2007, 2) is None


class TestIFVariability:
    def test_single_pair_arithmetic(self):
        # IF(2006) = 2/2 = 1.0 and IF(2007) = 3/2 = 1.5 -> change 0.5
        corpus = build_corpus(
            rec("a1", journal="jnl-a", year=2004),
            rec("a2", journal="jnl-a", year=2005),
            rec("a3", journal="jnl-a", year=2006),
            rec("c1", journal="jnl-b", year=2006, refs=("a1", "a2")),
            rec("c2", journal="jnl-b", year=2007, refs=("a2", "a3")),
            rec("c3", journal="jnl-b", year=2007, refs=("a2",)),
        )
        result = if_variability(corpus, "jnl-a", 2006, 2007, 2)
        assert result.impact_factors[2006] == 1
        assert result.impact_factors[2007] == Fraction(3, 2)
        assert result.mean_abs_relative_change == Fraction(1, 2)
        assert result.pairs_used == 1

    def test_constant_process_has_zero_change(self):
        records = [rec(f"a{y}", journal="jnl-a", year=y) for y in range(2000, 2008)]
        for y in range(2004, 2008):
            records.append(
                rec(f"c{y}", journal="jnl-b", year=y, refs=(f"a{y - 1}", f"a{y - 2}"))
            )
        corpus = build_corpus(*records)
        result = if_variability(corpus, "jnl-a", 2004, 2007, 2)
        assert result.mean_abs_relative_change == 0
        assert result.pairs_used == 3

    def test_zero_base_pairs_skipped_and_reported(self):
        # IF(2006) = 0, IF(2007) > 0, IF(2008) > 0: the first pair divides by
        # zero and must be skipped and counted, the second is usable
        corpus = build_corpus(
            rec("a1", journal="jnl-a", year=2004),
            rec("a2", journal="jnl-a", year=2005),
            rec("a3", journal="jnl-a", year=2006),
            rec("a4", journal="jnl-a", year=2007),
            rec("c1", journal="jnl-b", year=2007, refs=("a2", "a3")),
            rec("c2", journal="jnl-b", year=2008, refs=("a3", "a4")),
        )
        result = if_variability(corpus, "jnl-a", 2006, 2008, 2)
        assert result.zero_base_pairs_skipped == 1
        assert result.pairs_used == 1

    def test_fewer_than_two_defined_values_is_an_error(self):
        corpus = build_corpus(rec("a1", journal="jnl-a", year=2005))
        with pytest.raises(InsufficientDataError):
            if_variability(corpus, "jnl-a", 2007, 2010, 2)

    def test_no_usable_pairs_is_an_error(self):
        corpus = build_corpus(
            rec("a1", journal="jnl-a", year=2004),
            rec("a2", journal="jnl-a", year=2005),
            rec("a3", journal="jnl-a", year=2006),
            rec("c1", journal="jnl-b", year=2007, refs=("a2", "a3")),
        )
        with pytest.raises(InsufficientDataError, match="no usable"):
            if_variability(corpus, "jnl-a", 2006, 2007, 2)


class TestSelfCitationFraction:
    def test_no_internal_citations(self):
        corpus = build_corpus(
            rec("a", journal="jnl-a", year=2000),
            rec("c", journal="jnl-b", year=2001, refs=("a",)),
        )
        assert self_citation_fraction(corpus, "jnl-a") == 0

    def test_two_of_six(self):
        records = [rec(f"a{i}", journal="jnl-a", year=2000) for i in range(6)]
        records.append(rec("in1", journal="jnl-a", year=2002, refs=("a0", "a1")))
        records.append(
            rec("out1", journal="jnl-b", year=2002, refs=("a2", "a3", "a4", "a5"))
        )
        corpus = build_corpus(*records)
        assert self_citation_fraction(corpus, "jnl-a") == Fraction(1, 3)

    def test_all_internal(self):
        corpus = build_corpus(
            rec("a", journal="jnl-a", year=2000),
            rec("b", journal="jnl-a", year=2003, refs=("a",)),
        )
        assert self_citation_fraction(corpus, "jnl-a") == 1

    def test_window_restricts_by_citation_age(self):
        corpus = build_corpus(
            rec("old", journal="jnl-a", year=1990),
            rec("recent", journal="jnl-a", year=2001),
            rec("in1", journal="jnl-a", year=2003, refs=("old", "recent")),
            rec("out1", journal="jnl-b", year=2003, refs=("recent",)),
        )
        # unwindowed: 2 of 3 internal
        assert self_citation_fraction(corpus, "jnl-a") == Fraction(2, 3)
        # 5-year window drops the age-13 citation entirely
        assert self_citation_fraction(corpus, "jnl-a", window_w=5) == Fraction(1, 2)

    def test_no_received_citations_is_undefined(self):
        corpus = build_corpus(rec("a", journal="jnl-a", year=2000))
        assert self_citation_fraction(corpus, "jnl-a") is None

    def test_bad_window_is_a_usage_error(self, if_fixture_corpus):
        with pytest.raises(UsageError, match="window_w"):
            self_citation_fraction(if_fixture_corpus, "jnl-a", window_w=0)


def _parts_corpus():
    """Papers of 2000-2007 in jnl-a and jnl-b citing earlier and later papers
    (negative ages), one jnl-a hub cited by about half of them, and jnl-quiet,
    whose papers cite others but receive no citation."""
    rng = random.Random(33)
    ids = [f"p{i}" for i in range(40)]
    records = [rec("hub", journal="jnl-a", year=2003)]
    for pid in ids:
        refs = rng.sample([p for p in ids if p != pid], rng.randrange(4))
        if rng.random() < 0.5:
            refs.append("hub")
        records.append(rec(pid, journal=rng.choice(("jnl-a", "jnl-b")),
                           year=rng.randrange(2000, 2008), refs=refs))
    records += [rec(f"q{i}", journal="jnl-quiet", year=2005, refs=("hub", f"p{i}"))
                for i in range(3)]
    return build_corpus(*records)


@pytest.mark.parametrize("part", [1, 2, 7, citestats.corpus._PART_EDGES])
def test_metrics_read_in_parts_match_the_oracles(monkeypatch, part):
    corpus = _parts_corpus()
    received = corpus.citation_counts(range(len(corpus)))
    assert received[0] > 7 and 0 in received and ref.validate(corpus).negative_age_edges > 0
    monkeypatch.setattr(citestats.corpus, "_PART_EDGES", part)
    for journal in corpus.journals:
        for census_year in range(2003, 2008):
            for window_w in (1, 2, 5):
                assert window_coverage(corpus, journal, census_year, window_w) == (
                    ref.window_coverage(corpus, journal, census_year, window_w))
        for window_w in (None, 1, 3):
            assert self_citation_fraction(corpus, journal, window_w) == (
                ref.self_citation_fraction(corpus, journal, window_w))
    assert window_coverage(corpus, "jnl-quiet", 2007, 2) is None
    assert self_citation_fraction(corpus, "jnl-quiet") is None
    for journal in (None, *corpus.journals):
        for census_year in range(2000, 2008):
            profile = citation_age_profile(corpus, census_year, journal)
            expected = ref.citation_age_profile(corpus, census_year, journal)
            assert profile == expected and list(profile) == sorted(expected)
    assert citation_age_profile(corpus, 2005, "jnl-quiet") == Counter()
    assert validate(corpus) == ref.validate(corpus)
