"""Acceptance suite: one test per criterion, each printing a PASS line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; seeds are fixed so the synthetic
experiments are deterministic.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from citestats import (
    EmpiricalDistribution,
    IFQuery,
    JournalSpec,
    SynthConfig,
    citation_age_profile,
    citation_histogram,
    corpus_to_jsonl,
    g_index,
    generate,
    h_index,
    impact_factor,
    load_corpus,
    lognormal_fit,
    math_calibrated_config,
    mean,
    prob_at_least,
    replicate,
    sample_citation_counts,
    volatility_config,
    window_coverage,
    zero_inflated_pair,
)
from citestats.cli import main

from conftest import build_corpus, rec
from test_compare import pairwise_oracle


def _report(number, elapsed, description):
    print(f"\n[acceptance] criterion {number:>2} PASS ({elapsed:6.2f}s)  {description}")


@pytest.fixture(scope="module")
def math_corpus():
    """Shared corpus for criteria 6 and 7; generation time is charged to both."""
    start = time.perf_counter()
    corpus = generate(math_calibrated_config(seed=2009))
    return corpus, time.perf_counter() - start


def test_criterion_1_index_counterexamples():
    start = time.perf_counter()
    ten_by_ten = [10] * 10
    assert h_index(ten_by_ten) == 10
    assert h_index(ten_by_ten + [9] * 90) == 10
    ten_by_hundred = [100] * 10
    assert h_index(ten_by_hundred) == 10
    assert g_index(ten_by_hundred) == 10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, elapsed, "h({10x10})=10, h(+90x9)=10, h=g=10 for {10x100}")


def test_criterion_2_tail_kept_next_to_h():
    start = time.perf_counter()
    top = [44, 40, 38, 33, 31, 28, 27, 25, 24, 22, 20, 18, 17, 16, 15]
    rest = [14, 12, 11, 9, 8, 8, 7, 7, 6, 6, 5, 5, 5, 4, 4, 4, 4, 3, 3, 3]
    rest += [2] * 12 + [1] * 17 + [0] * 20
    counts = top + rest
    assert len(counts) == 84
    assert sum(1 for c in counts if c >= 15) == 15
    assert sorted(counts, reverse=True)[15] < 16
    assert h_index(counts) == 15
    hist = citation_histogram(counts)
    assert hist.tail_fraction == Fraction(15, 84)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, elapsed, "84-paper record: h=15, tail fraction exactly 15/84")


def test_criterion_3_impact_factor_fixture(tmp_path, capsys):
    start = time.perf_counter()
    corpus = build_corpus(
        rec("a1", journal="jnl-a", year=2005),
        rec("a2", journal="jnl-a", year=2005),
        rec("a3", journal="jnl-a", year=2006),
        rec("a4", journal="jnl-a", year=2006),
        rec("c1", journal="jnl-b", year=2007, refs=("a1", "a2")),
        rec("c2", journal="jnl-b", year=2007, refs=("a1", "a3")),
        rec("c3", journal="jnl-c", year=2007, refs=("a2", "a4")),
    )
    for policy in ("substantive-only", "all-items"):
        result = impact_factor(
            corpus, IFQuery("jnl-a", 2007, 2, denominator_policy=policy)
        )
        assert result.value == Fraction(3, 2)
        assert (result.numerator, result.denominator) == (6, 4)
    # same number through the CLI
    path = tmp_path / "corpus.jsonl"
    path.write_text(corpus_to_jsonl(corpus))
    code = main(
        [
            "journal-if",
            "--input", str(path),
            "--census-year", "2007",
            "--window", "2",
            "--journal", "jnl-a",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "jnl-a,2007,2,6,4,1.5000" in stdout
    elapsed = time.perf_counter() - start
    _report(3, elapsed, "4-article/6-citation corpus: IF exactly 1.5, CLI included")


def test_criterion_4_exact_probabilities_match_pair_enumeration():
    start = time.perf_counter()
    rng = random.Random(485)

    def random_dist():
        n = rng.randrange(1, 51)
        return EmpiricalDistribution.from_counts(
            [rng.randrange(0, 21) for _ in range(n)]
        )

    for _ in range(500):
        dist_a = random_dist()
        dist_b = random_dist()
        forward = prob_at_least(dist_a, dist_b)
        backward = prob_at_least(dist_b, dist_a)
        greater, equal = pairwise_oracle(dist_a, dist_b)
        assert forward.p_greater == greater
        assert forward.p_equal == equal
        assert forward.p_at_least == greater + equal
        assert forward.p_greater + forward.p_equal + backward.p_greater == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(4, elapsed, "500 random histogram pairs: exact match to pair enumeration")


def test_criterion_5_misranking_beats_the_coin_flip():
    start = time.perf_counter()
    # fixture pair with mean ratio exactly 2
    dist_a = EmpiricalDistribution(histogram={0: 60, 1: 40})
    dist_b = EmpiricalDistribution(histogram={0: 60, 2: 40})
    assert mean(dist_b) / mean(dist_a) == 2
    assert prob_at_least(dist_a, dist_b).p_at_least == Fraction(3, 5) > Fraction(1, 2)
    # ten seeded zero-inflated pairs
    for pair_seed in range(10):
        low, high = zero_inflated_pair(seed=5000 + pair_seed)
        assert low.zero_fraction >= Fraction(7, 10)
        assert high.zero_fraction >= Fraction(7, 10)
        assert mean(high) / mean(low) >= 2
        result = prob_at_least(low, high)
        assert result.p_at_least > Fraction(1, 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(5, elapsed, "P(lower-mean >= higher-mean) > 1/2 on fixture + 10 seeded pairs")


def test_criterion_6_decade_aging(math_corpus):
    corpus, generation_time = math_corpus
    start = time.perf_counter()
    profile = citation_age_profile(corpus, 2010)
    total = sum(profile.values())
    assert total >= 100_000
    shares = [
        sum(n for age, n in profile.items() if lo <= age <= hi) / total
        for lo, hi in ((1, 10), (11, 20), (21, 30))
    ]
    for share, target in zip(shares, (0.50, 0.25, 0.125)):
        assert abs(share - target) <= 0.02
    elapsed = generation_time + (time.perf_counter() - start)
    assert elapsed < 30.0
    _report(
        6,
        elapsed,
        f"{total} citations: decade shares "
        f"{shares[0]:.3f}/{shares[1]:.3f}/{shares[2]:.3f} vs 0.500/0.250/0.125 (+/-0.02)",
    )


def test_criterion_7_two_year_window_coverage(math_corpus):
    corpus, generation_time = math_corpus
    start = time.perf_counter()
    coverage = window_coverage(corpus, "math-core", 2010, 2)
    assert coverage is not None
    assert abs(float(coverage) - 0.10) <= 0.05
    elapsed = generation_time + (time.perf_counter() - start)
    assert elapsed < 30.0
    _report(7, elapsed, f"2-year window holds {float(coverage):.3f} of citations (target 0.10 +/- 0.05)")


def test_criterion_8_small_journal_volatility():
    start = time.perf_counter()
    runs = replicate(volatility_config(seed=77), 50, 1996, 2005, window_w=2)
    wins = 0
    for run in runs:
        small = run.journals["small-journal"]
        large = run.journals["large-journal"]
        assert small is not None and large is not None
        if small.mean_abs_relative_change > large.mean_abs_relative_change:
            wins += 1
    assert wins >= 48
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(8, elapsed, f"20-article journal out-varies 200-article journal in {wins}/50 runs")


def test_criterion_9_property_suites():
    start = time.perf_counter()
    rng = random.Random(909)

    # g >= h on 10^4 random multisets
    for _ in range(10_000):
        counts = [rng.randrange(0, 101) for _ in range(rng.randrange(0, 31))]
        assert g_index(counts) >= h_index(counts)

    # h/g never decrease when a citation (or a paper) is added
    for _ in range(2_000):
        counts = [rng.randrange(0, 101) for _ in range(rng.randrange(1, 31))]
        h, g = h_index(counts), g_index(counts)
        bumped = counts[:]
        bumped[rng.randrange(len(bumped))] += 1
        assert h_index(bumped) >= h
        assert g_index(bumped) >= g
        extended = counts + [rng.randrange(0, 101)]
        assert h_index(extended) >= h
        assert g_index(extended) >= g

    # an extra uncited substantive article never raises the impact factor
    for case in range(100):
        targets = [
            rec(f"a{i}", journal="jnl-a", year=rng.choice([2005, 2006]))
            for i in range(rng.randrange(1, 5))
        ]
        citers = [
            rec(
                f"c{i}",
                journal="jnl-b",
                year=2007,
                refs=tuple(
                    rng.sample([t.id for t in targets], k=rng.randrange(0, len(targets) + 1))
                ),
            )
            for i in range(rng.randrange(0, 5))
        ]
        corpus = build_corpus(*targets, *citers)
        before = impact_factor(corpus, IFQuery("jnl-a", 2007, 2))
        grown = build_corpus(*targets, *citers, rec("uncited", journal="jnl-a", year=2006))
        after = impact_factor(grown, IFQuery("jnl-a", 2007, 2))
        assert after.value <= before.value
        if before.numerator > 0:
            assert after.value < before.value

    # multiplying both histograms by a common factor changes nothing
    for _ in range(100):
        dist_a = EmpiricalDistribution.from_counts(
            [rng.randrange(0, 15) for _ in range(rng.randrange(1, 20))]
        )
        dist_b = EmpiricalDistribution.from_counts(
            [rng.randrange(0, 15) for _ in range(rng.randrange(1, 20))]
        )
        factor = rng.randrange(2, 7)
        scaled = prob_at_least(
            EmpiricalDistribution(
                histogram={v: n * factor for v, n in dist_a.histogram.items()},
            ),
            EmpiricalDistribution(
                histogram={v: n * factor for v, n in dist_b.histogram.items()},
            ),
        )
        original = prob_at_least(dist_a, dist_b)
        assert scaled.p_greater == original.p_greater
        assert scaled.p_equal == original.p_equal

    # generate -> serialize -> load -> serialize is byte-stable
    config = SynthConfig(
        seed=31,
        journals=(
            JournalSpec("alpha", articles_per_year=15, start_year=1996, end_year=2006),
            JournalSpec("beta", articles_per_year=8, start_year=1996, end_year=2006),
        ),
        references_per_paper=7.0,
    )
    first = corpus_to_jsonl(generate(config))
    assert corpus_to_jsonl(load_corpus(first.splitlines())) == first

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(9, elapsed, "g>=h, monotonicity, IF non-increase, scaling invariance, round-trip")


def test_criterion_10_lognormal_round_trip():
    start = time.perf_counter()
    target_mu, target_sigma = 1.0, 0.8
    rng = np.random.default_rng(np.random.SeedSequence(entropy=2009))
    chunks = []
    collected = 0
    while collected < 10_000:
        batch = sample_citation_counts(4096, mu=target_mu, sigma=target_sigma, rng=rng)
        positive = batch[batch > 0]
        chunks.append(positive)
        collected += positive.size
    counts = np.concatenate(chunks)[:10_000]
    fit = lognormal_fit(EmpiricalDistribution.from_counts(counts.tolist()))
    assert fit.positive_total == 10_000
    assert abs(fit.mu - target_mu) <= 0.05
    assert abs(fit.sigma - target_sigma) <= 0.08
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(
        10,
        elapsed,
        f"recovered mu={fit.mu:.4f} (target 1.0 +/- 0.05), "
        f"sigma={fit.sigma:.4f} (target 0.8 +/- 0.08)",
    )
