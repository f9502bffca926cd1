"""Synthetic corpus generator: determinism, validity, calibration hooks."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from citestats import (
    JournalSpec,
    SynthConfig,
    SynthConfigError,
    UsageError,
    config_from_json,
    config_to_json,
    corpus_to_jsonl,
    derived_seed,
    generate,
    replicate,
    sample_citation_counts,
    validate,
    zero_inflated_pair,
)

import reference_metrics as ref


def small_config(seed=5):
    return SynthConfig(
        seed=seed,
        journals=(
            JournalSpec("alpha", articles_per_year=12, start_year=1995, end_year=2005),
            JournalSpec("beta", articles_per_year=6, start_year=1995, end_year=2005, quality_scale=2.0),
        ),
        latent_mu=0.5,
        latent_sigma=0.8,
        zero_inflation=0.3,
        half_life_years=10.0,
        references_per_paper=8.0,
    )


class TestConfig:
    def test_zero_papers_rejected(self):
        config = SynthConfig(
            seed=1,
            journals=(JournalSpec("empty", articles_per_year=0, start_year=2000, end_year=2001),),
        )
        with pytest.raises(SynthConfigError, match="zero papers"):
            generate(config)

    def test_validation(self):
        with pytest.raises(SynthConfigError):
            SynthConfig(seed=1, journals=())
        with pytest.raises(SynthConfigError):
            SynthConfig(
                seed=1,
                journals=(JournalSpec("a", 1, 2000, 2001),),
                zero_inflation=1.5,
            )
        with pytest.raises(SynthConfigError):
            SynthConfig(
                seed=1,
                journals=(JournalSpec("a", 1, 2000, 2001),),
                half_life_years=0,
            )
        with pytest.raises(SynthConfigError):
            JournalSpec("a", 1, 2005, 2000)
        with pytest.raises(SynthConfigError):
            SynthConfig(
                seed=1,
                journals=(JournalSpec("a", 1, 2000, 2001), JournalSpec("a", 1, 2000, 2001)),
            )

    def test_json_round_trip(self, tmp_path, monkeypatch):
        config = small_config()
        text = config_to_json(config)
        assert config_from_json(json.loads(text)) == config
        # a str is always a path, also one that starts with a brace
        monkeypatch.chdir(tmp_path)
        for path in (tmp_path / "config.json", "{odd}.json"):
            Path(path).write_text(text)
            assert config_from_json(path) == config

    def test_invalid_json_payload(self):
        with pytest.raises(SynthConfigError):
            config_from_json({"seed": 1})

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_bytes_read_as_a_text_file_reads(self, end):
        """A config's bytes load as ``read_text`` reads their file, so a JSON
        error names the line and column of its universal newlines."""
        text = config_to_json(small_config())
        broken = text.replace('"seed"', '"seed" 0', 1)
        assert config_from_json(text.replace("\n", end).encode()) == small_config()
        with pytest.raises(SynthConfigError) as caught:
            config_from_json(broken.replace("\n", end).encode())
        with pytest.raises(ValueError) as want:
            json.loads(broken)
        assert str(caught.value) == f"invalid synth config: {want.value}"
        assert "line 1 " not in str(want.value)


class TestGenerate:
    def test_leaves_numpy_ma_unimported(self):
        """``numpy.ma`` costs ~10 ms a process; where ``import numpy`` leaves
        it out (numpy 2), generating a corpus must not import it either."""
        code = (
            "import sys; from citestats.synth import PRESETS, generate; "
            "before = 'numpy.ma' in sys.modules; generate(PRESETS['volatility']()); "
            "print(before, 'numpy.ma' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(Path(generate.__code__.co_filename).parents[1])),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        before, after = done.stdout.split()
        assert after == before

    def test_same_seed_byte_identical(self):
        a = generate(small_config())
        b = generate(small_config())
        assert corpus_to_jsonl(a) == corpus_to_jsonl(b)

    def test_different_seeds_differ(self):
        a = generate(small_config(seed=5))
        b = generate(small_config(seed=6))
        assert corpus_to_jsonl(a) != corpus_to_jsonl(b)

    def test_generated_corpus_validates_clean(self):
        report = validate(generate(small_config()))
        assert (report.unresolved_references, report.negative_age_edges) == (0, 0)
        assert report.papers_without_authors == 0

    def test_corpus_is_closed(self):
        corpus = generate(small_config())
        assert corpus.unresolved_reference_count == 0
        # references point strictly backwards in time
        for edge in ref.edges(corpus):
            assert edge.age >= 1

    def test_references_unique_within_paper(self):
        corpus = generate(small_config())
        for paper in ref.records(corpus).values():
            assert len(set(paper.reference_ids)) == len(paper.reference_ids)

    def test_realized_mean_tracks_reference_budget(self):
        # with a closed corpus, mean citations per paper must match the
        # references actually emitted (papers with no earlier targets emit none)
        config = SynthConfig(
            seed=9,
            journals=(JournalSpec("big", articles_per_year=600, start_year=1990, end_year=2009),),
            references_per_paper=6.0,
            zero_inflation=0.2,
            latent_sigma=0.6,
        )
        corpus = generate(config)
        papers = ref.records(corpus).values()
        assert len(papers) >= 10_000
        total_refs = sum(len(p.reference_ids) for p in papers)
        realized_mean = len(corpus.edges) / len(papers)
        assert len(corpus.edges) == total_refs
        # papers born in the first year have no targets; everyone else emits
        # ~Poisson(6) references, thinned a little by in-paper duplicates
        citing_papers = sum(1 for p in papers if p.year > 1990)
        predicted = 6.0 * citing_papers / len(papers)
        assert realized_mean == pytest.approx(predicted, rel=0.05)

    def test_expected_citations_proportional_to_latent_rate(self):
        # quality_scale multiplies the latent rate, so two same-sized journals
        # with scales 1 and 3 must draw citations roughly 1:3 per cohort
        config = SynthConfig(
            seed=11,
            journals=(
                JournalSpec("plain", articles_per_year=800, start_year=2000, end_year=2004),
                JournalSpec("boosted", articles_per_year=800, start_year=2000, end_year=2004, quality_scale=3.0),
            ),
            references_per_paper=20.0,
            zero_inflation=0.0,
            latent_mu=0.0,
            latent_sigma=1.0,
            half_life_years=10.0,
        )
        corpus = generate(config)

        def mean_citations(journal_id, year):
            _, rows = corpus.journal_rows(journal_id)
            cohort = rows[corpus.year[rows] == year]
            return sum(corpus.citation_counts(cohort)) / len(cohort)

        for year in (2000, 2001, 2002):
            ratio = mean_citations("boosted", year) / mean_citations("plain", year)
            assert ratio == pytest.approx(3.0, rel=0.2)

    def test_age_decay_half_life(self):
        # per-year citation mass from a census cohort halves every half-life
        config = SynthConfig(
            seed=13,
            journals=(
                JournalSpec("hist", articles_per_year=400, start_year=1980, end_year=2009),
                JournalSpec("census", articles_per_year=400, start_year=2010, end_year=2010),
            ),
            references_per_paper=30.0,
            zero_inflation=0.1,
            latent_sigma=0.4,
            half_life_years=5.0,
        )
        corpus = generate(config)
        citing, cited = corpus.edges.T
        census = corpus.year[citing] == 2010
        ages = (corpus.year[citing] - corpus.year[cited])[census].tolist()
        mass_first = sum(1 for a in ages if 1 <= a <= 5)
        mass_second = sum(1 for a in ages if 6 <= a <= 10)
        assert mass_second == pytest.approx(mass_first / 2, rel=0.15)


class TestSeeds:
    def test_derived_seed_deterministic_and_distinct(self):
        seeds = [derived_seed(123, i) for i in range(50)]
        assert seeds == [derived_seed(123, i) for i in range(50)]
        assert len(set(seeds)) == 50
        assert derived_seed(124, 0) != derived_seed(123, 0)


class TestSampleCitationCounts:
    def test_deterministic(self):
        a = sample_citation_counts(1000, mu=1.0, sigma=0.8, rng=np.random.default_rng(3))
        b = sample_citation_counts(1000, mu=1.0, sigma=0.8, rng=np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_zero_inflation_adds_zero_mass(self):
        counts = sample_citation_counts(
            5000, mu=1.0, sigma=0.5, zero_inflation=0.6, rng=np.random.default_rng(3)
        )
        zero_share = float(np.mean(counts == 0))
        assert zero_share == pytest.approx(0.6, abs=0.05)
        assert counts.min() >= 0

    def test_requires_seed_or_rng(self):
        # only a generator: seed=s is rng=np.random.default_rng(s)
        with pytest.raises(TypeError):
            sample_citation_counts(10, mu=0.0, sigma=1.0)


class TestZeroInflatedPair:
    def test_pair_shape(self):
        low, high = zero_inflated_pair(seed=17)
        assert low.zero_fraction >= 0.7
        assert high.zero_fraction >= 0.7
        from citestats import mean

        assert mean(high) >= 2 * mean(low)


class TestReplicate:
    def test_single_run_reduces_to_generate_plus_metrics(self):
        config = small_config(seed=21)
        runs = replicate(config, 1, 2001, 2004, window_w=2)
        assert len(runs) == 1
        run = runs[0]
        assert run.run_index == 0
        assert run.seed == derived_seed(21, 0)
        from citestats import if_variability

        corpus = generate(config._replace(seed=run.seed))
        direct = if_variability(corpus, "alpha", 2001, 2004, 2)
        assert run.journals["alpha"].impact_factors == direct.impact_factors
        assert (
            run.journals["alpha"].mean_abs_relative_change
            == direct.mean_abs_relative_change
        )

    def test_fixed_master_seed_reproduces_summaries(self):
        config = small_config(seed=22)
        first = replicate(config, 3, 2001, 2004)
        second = replicate(config, 3, 2001, 2004)
        for run_a, run_b in zip(first, second):
            assert run_a.seed == run_b.seed
            for journal_id in ("alpha", "beta"):
                assert (
                    run_a.journals[journal_id].impact_factors
                    == run_b.journals[journal_id].impact_factors
                )

    def test_rejects_zero_runs(self):
        with pytest.raises(UsageError, match="^n_runs must be >= 1$"):
            replicate(small_config(), 0, 2001, 2004)
