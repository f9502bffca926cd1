"""Institutional scoring rules, tier tables and rank divergence."""

import random
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau

from citestats import (
    CitationStatsError,
    InsufficientDataError,
    PolicyError,
    PolicyScore,
    TierTable,
    UnknownIdError,
    UsageError,
    build_tiers,
    divergence,
    score_example1,
    score_example2,
    score_example3,
)
from citestats.policy import TIER_POINTS, _exact_sum

import reference_metrics as ref
from conftest import build_corpus, rec


def tier_corpus(citation_plan):
    """One window article per journal in 2006, cited `n` times from 2007."""
    records = []
    citer = 0
    for journal_id, n_citations in citation_plan.items():
        pid = f"{journal_id}-art"
        records.append(rec(pid, journal=journal_id, year=2006))
        for _ in range(n_citations):
            records.append(rec(f"c{citer}", journal="src", year=2007, refs=(pid,)))
            citer += 1
    return build_corpus(*records)


class TestBuildTiers:
    def test_three_distinct_journals_one_per_tier(self):
        corpus = tier_corpus({"j-high": 6, "j-mid": 3, "j-low": 1})
        table = build_tiers(corpus, 2007, 2)
        assert table.tier_of("j-high") == "top"
        assert table.tier_of("j-mid") == "middle"
        assert table.tier_of("j-low") == "bottom"
        # the citing journal published nothing in the window
        assert table.tier_of("src") == "unindexed"

    def test_boundary_ties_break_lexicographically(self):
        # six journals, tied pairs around both tier boundaries
        corpus = tier_corpus(
            {"aa": 6, "bb": 4, "cc": 4, "dd": 2, "ee": 2, "ff": 1}
        )
        table = build_tiers(corpus, 2007, 2)
        assert [jid for jid, _ in table.ranking] == ["aa", "bb", "cc", "dd", "ee", "ff"]
        assert table.tier_of("aa") == "top"
        assert table.tier_of("bb") == "top"
        assert table.tier_of("cc") == "middle"
        assert table.tier_of("dd") == "middle"
        assert table.tier_of("ee") == "bottom"
        assert table.tier_of("ff") == "bottom"

    def test_undefined_if_is_unindexed(self):
        corpus = tier_corpus({"j1": 3, "j2": 2, "j3": 1})
        records = list(ref.records(corpus).values()) + [
            rec("old", journal="j-dormant", year=1990)
        ]
        table = build_tiers(build_corpus(*records), 2007, 2)
        assert table.tier_of("j-dormant") == "unindexed"

    def test_fewer_than_three_defined_is_an_error(self):
        corpus = tier_corpus({"j1": 3, "j2": 2})
        with pytest.raises(InsufficientDataError):
            build_tiers(corpus, 2007, 2)

    def test_tier_sizes_differ_by_at_most_one(self):
        rng = random.Random(97)
        for _ in range(10):
            n = rng.randrange(3, 12)
            corpus = tier_corpus({f"j{i:02d}": rng.randrange(0, 9) for i in range(n)})
            table = build_tiers(corpus, 2007, 2)
            sizes = [
                sum(1 for t in table.tiers.values() if t == name)
                for name in ("top", "middle", "bottom")
            ]
            assert sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1


def score_papers(rule, papers, *rule_args):
    """``rule``'s score of ``papers`` as one subject, on a corpus of them."""
    corpus = build_corpus(*papers)
    [score] = rule(corpus, *rule_args, {"paper-set": corpus.rows([p.id for p in papers])})
    return score


class TestScoreExample1:
    CORE = {"core-j"}
    INDEXED = {"indexed-j", "other-indexed"}

    def test_no_publications(self):
        score = score_papers(score_example1, [], self.CORE, self.INDEXED)
        assert score.score == 0
        assert score.breakdown == ()

    def test_one_core_two_indexed(self):
        papers = [
            rec("p1", journal="core-j"),
            rec("p2", journal="indexed-j"),
            rec("p3", journal="other-indexed"),
        ]
        score = score_papers(score_example1, papers, self.CORE, self.INDEXED)
        assert score.score == 35
        assert dict(score.breakdown) == {"p1": 15, "p2": 10, "p3": 10}

    def test_unindexed_only(self):
        papers = [rec("p1", journal="obscure"), rec("p2", journal="nowhere")]
        assert score_papers(score_example1, papers, self.CORE, self.INDEXED).score == 0

    def test_overlapping_lists_rejected(self):
        with pytest.raises(PolicyError, match="overlap"):
            score_papers(score_example1, [], {"j1"}, {"j1", "j2"})


@pytest.mark.parametrize("row", [-1, 2])
def test_rows_outside_the_corpus_raise(row):
    corpus = build_corpus(rec("a", journal="j"), rec("b", journal="j"))
    for score in (
        lambda rows: score_example1(corpus, ["j"], [], {"s": rows}),
        lambda rows: score_example3(corpus, {"j": Fraction(2)}, {"s": rows}),
    ):
        with pytest.raises(UnknownIdError, match=f"^unknown row {row}$"):
            score([0, row])
        [empty] = score([])
        assert (empty.score, empty.breakdown) == (0, ())


@pytest.mark.parametrize(
    "subjects",
    [{"s": [0.9]}, {"s": [True]}, {"s": np.array([0.9])}, {"a": np.array([0]), "s": np.array([True])},
     {"s": [0, True]}],
    ids=repr,
)
def test_rows_that_are_not_integers_raise(subjects):
    corpus = build_corpus(rec("a", journal="j"), rec("b", journal="j"))
    for score in (
        lambda: score_example1(corpus, ["j"], [], subjects),
        lambda: score_example3(corpus, {"j": Fraction(2)}, subjects),
    ):
        with pytest.raises(UsageError, match="^rows must be integers$"):
            score()


def score_five(papers, tiers):
    """example2's score of ``papers``, on a corpus of them."""
    return score_example2(build_corpus(*papers), [p.id for p in papers], tiers)


class TestScoreExample2:
    def _tiers(self):
        corpus = tier_corpus({"t1": 9, "t2": 8, "m1": 5, "m2": 4, "b1": 2, "b2": 1})
        return build_tiers(corpus, 2007, 2)

    def test_mixed_tiers(self):
        tiers = self._tiers()
        papers = [
            rec("p1", journal="t1"),
            rec("p2", journal="m1"),
            rec("p3", journal="b1"),
            rec("p4", journal="t2"),
            rec("p5", journal="m2"),
        ]
        assert score_five(papers, tiers).score == 11

    def test_all_bottom(self):
        tiers = self._tiers()
        papers = [rec(f"p{i}", journal="b1") for i in range(5)]
        assert score_five(papers, tiers).score == 5

    def test_unindexed_contributes_zero(self):
        tiers = self._tiers()
        papers = [
            rec("p1", journal="t1"),
            rec("p2", journal="t2"),
            rec("p3", journal="m1"),
            rec("p4", journal="m2"),
            rec("p5", journal="never-indexed"),
        ]
        score = score_five(papers, tiers)
        assert dict(score.breakdown)["p5"] == 0
        assert score.score == 10

    def test_requires_exactly_five_papers(self):
        tiers = self._tiers()
        with pytest.raises(PolicyError, match="5"):
            score_five([rec("p1", journal="t1")], tiers)

    def test_rejects_a_repeated_paper(self):
        """Once scored five times; only the CLI's --papers check caught it."""
        corpus = build_corpus(rec("p1", journal="t1"), rec("p2", journal="t2"))
        with pytest.raises(PolicyError, match="^rule scores 5 distinct papers, got 'p1' more "):
            score_example2(corpus, ["p1"] * 5, self._tiers())
        with pytest.raises(PolicyError, match="^rule scores 5 distinct papers, got 'p2' more "):
            score_example2(corpus, ["p2", "p1", "p1", "p2", "p2"], self._tiers())


class TestScoreExample3:
    IF_LOOKUP = {
        "j-two": Fraction(2),
        "j-three": Fraction(3),
        "j-undefined": None,
    }

    def test_solo_author(self):
        papers = [rec("p1", journal="j-two", authors=("a",))]
        assert score_papers(score_example3, papers, self.IF_LOOKUP).score == 2

    def test_three_authors_share(self):
        papers = [rec("p1", journal="j-three", authors=("a", "b", "c"))]
        assert score_papers(score_example3, papers, self.IF_LOOKUP).score == 1

    def test_additivity(self):
        papers = [
            rec("p1", journal="j-two", authors=("a",)),
            rec("p2", journal="j-three", authors=("a", "b", "c")),
        ]
        assert score_papers(score_example3, papers, self.IF_LOOKUP).score == 3

    def test_undefined_if_names_the_journal(self):
        papers = [rec("p1", journal="j-undefined", authors=("a",))]
        with pytest.raises(PolicyError, match="j-undefined"):
            score_papers(score_example3, papers, self.IF_LOOKUP)

    def test_reorder_invariance_and_duplication_linearity(self):
        papers = [
            rec("p1", journal="j-two", authors=("a", "b")),
            rec("p2", journal="j-three", authors=("a",)),
        ]
        forward = score_papers(score_example3, papers, self.IF_LOOKUP).score
        backward = score_papers(score_example3, list(reversed(papers)), self.IF_LOOKUP).score
        assert forward == backward
        # a paper listed twice contributes exactly twice
        doubled = papers + [rec("p3", journal="j-two", authors=("a", "b"))]
        assert score_papers(score_example3, doubled, self.IF_LOOKUP).score == forward + 1


class TestPolicyScoreInvariant:
    def test_breakdown_must_sum_to_score(self):
        # the score is derived from the breakdown, so it is not an argument
        with pytest.raises(TypeError):
            PolicyScore(
                subject_id="s",
                rule="example1",
                score=Fraction(5),
                breakdown=(("p1", Fraction(1)),),
            )

    def test_int_point_breakdown(self):
        score = PolicyScore("s", "example1", [("p1", 15), ("p2", 10), ("p3", 0)])
        assert score.score == 25 and type(score.score) is Fraction
        assert score.breakdown == (("p1", 15), ("p2", 10), ("p3", 0))
        assert PolicyScore("s", "example1", ()).score == 0

    def test_multi_entry_breakdown_sums_over_the_lcm(self):
        # 1/4 + 1/6 + 1/3 = 3/4 over the lcm 12; scaling to the largest
        # denominator, 6, instead would give 2/3
        breakdown = (("p1", Fraction(1, 4)), ("p2", Fraction(1, 6)), ("p3", Fraction(1, 3)))
        assert PolicyScore("s", "example3", breakdown).score == Fraction(3, 4)
        assert PolicyScore("s", "example3", breakdown[:2]).score == Fraction(5, 12)
        assert repr(PolicyScore("s", "example3", breakdown[2:])) == (
            "PolicyScore(subject_id='s', rule='example3', score=Fraction(1, 3), "
            "breakdown=(('p3', Fraction(1, 3)),))"
        )


POINTS = st.one_of(
    st.integers(-(10**30), 10**30),
    st.fractions(max_denominator=10**6),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(POINTS, max_size=30))
def test_exact_sum_matches_chained_fraction_sum(values):
    total = _exact_sum(values)
    assert isinstance(total, Fraction)
    assert total == sum(values, Fraction(0))


IMPACT_FACTORS = st.one_of(
    st.integers(0, 50),
    st.fractions(min_value=0, max_value=50, max_denominator=997),
)


@st.composite
def author_rule_cases(draw):
    """A corpus of papers with 0-6 authors, journals whose IFs are ints,
    Fractions with varied denominators or undefined, and subjects that
    repeat paper ids and may name a paper outside the corpus; and for
    example2, a tier per journal and five such paper ids, in about half the
    cases distinct."""
    journals = [f"j{i}" for i in range(draw(st.integers(1, 8)))]
    impact_factors = {j: draw(IMPACT_FACTORS) for j in journals}
    for journal_id in draw(st.sets(st.sampled_from([*journals, "j-missing"]), max_size=2)):
        impact_factors[journal_id] = None  # an undefined IF
    impact_factors.pop("j-missing", None)  # a journal the lookup lacks
    papers = [
        rec(
            f"p{i}",
            journal=draw(st.sampled_from([*journals, "j-missing"])),
            authors=[f"a{k}" for k in range(draw(st.integers(0, 6)))],
        )
        for i in range(draw(st.integers(0, 25)))
    ]
    ids = [paper.id for paper in papers] + ["ghost"] * draw(st.integers(0, 1))
    paper_ids = st.lists(st.sampled_from(ids), max_size=12) if ids else st.just([])
    subjects = {f"s{i}": draw(paper_ids) for i in range(draw(st.integers(1, 5)))}
    core = draw(st.sets(st.sampled_from(journals)))
    indexed = draw(st.sets(st.sampled_from(journals))) - core
    tier_names = st.sampled_from(sorted(TIER_POINTS))
    tiers = TierTable({j: draw(tier_names) for j in journals}, 2007, 2, ())
    distinct = len(ids) >= 5 and draw(st.booleans())
    five = draw(st.lists(st.sampled_from(ids), min_size=5, max_size=5, unique=distinct) if ids
                else st.just([]))
    return build_corpus(*papers), impact_factors, subjects, core, indexed, tiers, five


def _outcome(score, *args):
    """The scores, or the type and message of the error raised."""
    try:
        return score(*args)
    except CitationStatsError as exc:
        return type(exc), str(exc)


def _by_rows(rule, corpus, *rule_args):
    """``rule`` with its last argument, the subjects' paper ids, given as rows."""
    *rule_args, subjects = rule_args
    return rule(corpus, *rule_args, {s: corpus.rows(pids) for s, pids in subjects.items()})


def _record_loop(corpus, subjects, rule, *rule_args):
    """``rule`` of each subject's records; every id is looked up first."""
    papers = ref.records(corpus)
    for pid in chain.from_iterable(subjects.values()):
        if pid not in papers:
            raise UnknownIdError(f"unknown paper id {pid!r}")
    return [
        rule([papers[pid] for pid in pids], *rule_args, subject_id=subject_id)
        for subject_id, pids in subjects.items()
    ]


TIERS = TierTable({"j0": "middle"}, 2007, 2, ())


@settings(max_examples=400, deadline=None)
@given(author_rule_cases())
@example((  # a repeated paper, and a paper without authors
    build_corpus(rec("p0", journal="j0", authors=()), rec("p1", journal="j0")),
    {"j0": Fraction(1, 3)}, {"s0": ["p1", "p1"], "s1": ["p0"]}, {"j0"}, set(),
    TIERS, ["p1", "p0", "p1", "p1", "p0"],
))
@example((  # an unknown id is reported before the earlier paper without authors
    build_corpus(rec("p0", journal="j0", authors=()), rec("p1", journal="j0")),
    {"j0": Fraction(1, 3)}, {"s0": ["p1", "p0"], "s1": ["ghost"]}, set(), set(),
    TIERS, ["p1", "p0", "ghost", "p1", "p0"],
))
def test_author_rules_match_record_loops(case):
    corpus, impact_factors, subjects, core, indexed, tiers, five = case
    for result, expected, subject_ids in (
        (
            _outcome(_by_rows, score_example3, corpus, impact_factors, subjects),
            _outcome(_record_loop, corpus, subjects, ref.score_example3, impact_factors),
            list(subjects),
        ),
        (
            _outcome(_by_rows, score_example1, corpus, core, indexed, subjects),
            _outcome(_record_loop, corpus, subjects, ref.score_example1, core, indexed),
            list(subjects),
        ),
        (
            _outcome(lambda *args: [score_example2(*args)], corpus, five, tiers, "s"),
            _outcome(_record_loop, corpus, {"s": five}, ref.score_example2, tiers),
            ["s"],
        ),
    ):
        # the reference scores check their derived scores against chained sums
        assert result == expected
        if isinstance(expected, list):
            assert [s.breakdown for s in result] == [s.breakdown for s in expected]
            assert [s.subject_id for s in result] == subject_ids
            assert all(type(s.score) is Fraction for s in result)
            assert all(type(points) is Fraction for s in result for _, points in s.breakdown)


class TestDivergence:
    def test_identical_rankings(self):
        ranking = {"a": 3, "b": 2, "c": 1}
        result = divergence(ranking, dict(ranking))
        assert result.kendall_tau == 1
        assert result.discordant_fraction == 0

    def test_reversed_rankings(self):
        forward = {"a": 3, "b": 2, "c": 1}
        backward = {"a": 1, "b": 2, "c": 3}
        result = divergence(forward, backward)
        assert result.kendall_tau == -1
        assert result.discordant_fraction == 1

    def test_four_subject_case_matches_pair_oracle(self):
        ranking_a = {"s1": 4, "s2": 3, "s3": 2, "s4": 1}
        ranking_b = {"s1": 4, "s2": 1, "s3": 3, "s4": 2}
        result = divergence(ranking_a, ranking_b)
        # oracle: enumerate all 6 pairs by hand -> 4 concordant, 2 discordant
        assert result.concordant_pairs == 4
        assert result.discordant_pairs == 2
        assert result.kendall_tau == pytest.approx((4 - 2) / 6)
        assert result.discordant_fraction == Fraction(2, 6)

    def test_matches_scipy_tau_b_with_ties(self):
        rng = random.Random(101)
        for _ in range(30):
            n = rng.randrange(3, 12)
            subjects = [f"s{i}" for i in range(n)]
            ranking_a = {s: rng.randrange(0, 5) for s in subjects}
            ranking_b = {s: rng.randrange(0, 5) for s in subjects}
            values_a = [ranking_a[s] for s in subjects]
            values_b = [ranking_b[s] for s in subjects]
            expected, _ = kendalltau(values_a, values_b)  # tau-b by default
            result = divergence(ranking_a, ranking_b)
            if result.kendall_tau is None:
                assert expected != expected  # scipy yields nan there too
            else:
                assert result.kendall_tau == pytest.approx(expected)

    def test_mismatched_subjects_rejected(self):
        with pytest.raises(PolicyError):
            divergence({"a": 1, "b": 2}, {"a": 1, "c": 2})

    def test_single_subject_rejected(self):
        with pytest.raises(PolicyError):
            divergence({"a": 1}, {"a": 2})

    def test_fully_tied_ranking_has_undefined_tau(self):
        result = divergence({"a": 1, "b": 1}, {"a": 2, "b": 3})
        assert result.kendall_tau is None
        assert result.discordant_fraction == 0

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_nan_rejected(self, side):
        with_nan = {"a": 1, "b": float("nan"), "c": 2}
        plain = {"a": 1, "b": 2, "c": 3}
        rankings = (with_nan, plain) if side == "a" else (plain, with_nan)
        with pytest.raises(PolicyError, match="NaN"):
            divergence(*rankings)

    def test_scale_matches_scipy_on_exact_dense_ranks(self):
        rng = random.Random(2009)
        n = 20_000
        subjects = [f"a{i:05d}" for i in range(n)]
        scores = {s: Fraction(rng.randrange(60), rng.randrange(1, 6)) for s in subjects}
        counts = {s: rng.randrange(40) for s in subjects}

        def dense(ranking):
            rank = {v: i for i, v in enumerate(sorted(set(ranking.values())))}
            return [rank[ranking[s]] for s in subjects]

        result = divergence(scores, counts)
        expected, _ = kendalltau(dense(scores), dense(counts), variant="b")
        assert result.kendall_tau == pytest.approx(expected, rel=1e-12)
        ties_a = ref.tied_pairs(scores.values())
        ties_b = ref.tied_pairs(counts.values())
        ties_ab = ref.tied_pairs((scores[s], counts[s]) for s in subjects)
        assert (
            result.concordant_pairs + result.discordant_pairs + ties_a + ties_b - ties_ab
            == n * (n - 1) // 2
        )


SMALL_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
SCORES = {
    "ints": st.integers(-20, 20),
    "fractions": SMALL_FRACTIONS,
    "mixed": st.one_of(st.integers(-3, 3), SMALL_FRACTIONS),
    "heavy-ties": st.sampled_from([0, 1, Fraction(1), Fraction(1, 2)]),
}


@st.composite
def ranking_pairs(draw):
    subjects = [f"s{i}" for i in range(draw(st.integers(2, 60)))]

    def ranking():
        kind = draw(st.sampled_from([*SCORES, "fully-tied"]))
        if kind == "fully-tied":
            return dict.fromkeys(subjects, draw(SCORES["mixed"]))
        return {s: draw(SCORES[kind]) for s in subjects}

    return ranking(), ranking()


@settings(max_examples=300, deadline=None)
@given(ranking_pairs())
@example(({"a": 1, "b": 2}, {"a": 5, "b": Fraction(5)}))
@example(({"a": 1, "b": Fraction(1)}, {"a": Fraction(5, 2), "b": Fraction(5, 2)}))
def test_divergence_matches_pair_loop(rankings):
    result = divergence(*rankings)
    expected = ref.divergence_pairs(*rankings)
    # every field exactly, the float tau included
    assert result.kendall_tau == expected.kendall_tau
    assert result.discordant_fraction == expected.discordant_fraction
    assert result.concordant_pairs == expected.concordant_pairs
    assert result.discordant_pairs == expected.discordant_pairs
    assert result.n_subjects == expected.n_subjects
