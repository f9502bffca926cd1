"""Seeded synthetic citation corpora.

Generative model
----------------
Each paper draws a latent attractiveness: zero with the configured
zero-inflation probability, otherwise a log-normal sample scaled by its
journal's quality scale.  Papers then cite strictly earlier papers: each
paper emits a Poisson number of references, and every reference picks its
target with probability proportional to

    attractiveness(target) * 2 ** (-age / half_life_years)

so a paper's expected citations are proportional to its latent rate times
an exponential age decay, and the corpus is closed (every reference
resolves; experiments see no unresolved-reference noise).

All randomness flows from a single 64-bit seed through numpy's
SeedSequence counter scheme, so replicate runs are mutually independent
yet byte-for-byte reproducible.  Every paper's authors come from one
``Generator.integers`` call that makes the same bounded 32-bit draws, in
the same order, as per-paper ``Generator.choice`` calls would;
``tests/test_generate.py`` compares the two draw by draw and fails on any
drift between them.

:func:`generate` hands the corpus its columns and (citing, cited) row pairs
directly; its string references are rendered only when the corpus is
written, so :func:`replicate` never renders them.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from pathlib import Path
from typing import Union

import numpy as np

from .compare import EmpiricalDistribution
from .corpus import YEAR_MAX, YEAR_MIN, Corpus, _check_int, _Record, utf8_encodable
from .errors import InsufficientDataError, SynthConfigError, UnknownIdError
from .journal_metrics import VariabilityResult, if_variability


# a corpus indexes its papers by int32 row
PAPERS_MAX = 2**31 - 1


def _check_numbers(spec, float_fields, where: str = "") -> None:
    """Numbers must be finite ints or floats; a bool is neither, though
    Python counts it as an int."""
    for name in float_fields:
        value = getattr(spec, name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SynthConfigError(f"{where}{name} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise SynthConfigError(f"{where}{name} must be finite, got {value!r}")


class JournalSpec(_Record):
    """One synthetic journal: size, active years and latent quality scale."""

    journal_id: str
    articles_per_year: int
    start_year: int
    end_year: int
    quality_scale: float = 1.0

    def __post_init__(self):
        if not isinstance(self.journal_id, str) or not self.journal_id:
            raise SynthConfigError(
                f"journal_id must be a nonempty string, got {self.journal_id!r}"
            )
        if not utf8_encodable([self.journal_id]):
            raise SynthConfigError(f"journal_id {self.journal_id!r} holds a lone surrogate")
        where = f"journal {self.journal_id!r}: "
        for name, minimum in (("articles_per_year", 0), ("start_year", None), ("end_year", None)):
            value = _check_int(where + name, getattr(self, name), minimum, SynthConfigError)
            object.__setattr__(self, name, value)
        _check_numbers(self, ("quality_scale",), where)
        if self.start_year > self.end_year:
            raise SynthConfigError(where + "start_year > end_year")
        if self.start_year < YEAR_MIN or self.end_year > YEAR_MAX:
            raise SynthConfigError(where + f"years outside [{YEAR_MIN}, {YEAR_MAX}]")
        if self.quality_scale <= 0:
            raise SynthConfigError(where + "quality_scale must be > 0")


class SynthConfig(_Record):
    """Parameters of the generative model; a deterministic function of
    ``seed`` once fixed."""

    seed: int
    journals: tuple[JournalSpec, ...]
    latent_mu: float = 0.5
    latent_sigma: float = 0.8
    zero_inflation: float = 0.3
    half_life_years: float = 10.0
    references_per_paper: float = 12.0

    def __post_init__(self):
        object.__setattr__(self, "journals", tuple(self.journals))
        object.__setattr__(self, "seed", _check_int("seed", self.seed, 0, SynthConfigError))
        _check_numbers(
            self, ("latent_mu", "latent_sigma", "zero_inflation", "half_life_years",
                   "references_per_paper"),
        )
        if not self.journals:
            raise SynthConfigError("config needs at least one journal")
        ids = [j.journal_id for j in self.journals]
        if len(set(ids)) != len(ids):
            raise SynthConfigError("journal ids must be unique")
        if not 0.0 <= self.zero_inflation <= 1.0:
            raise SynthConfigError("zero_inflation must be in [0, 1]")
        if self.half_life_years <= 0:
            raise SynthConfigError("half_life_years must be > 0")
        if self.latent_sigma < 0:
            raise SynthConfigError("latent_sigma must be >= 0")
        if self.references_per_paper < 0:
            raise SynthConfigError("references_per_paper must be >= 0")
        papers = sum(j.articles_per_year * (j.end_year - j.start_year + 1) for j in self.journals)
        if papers > PAPERS_MAX:
            raise SynthConfigError(
                f"config makes {papers} papers, more than a corpus holds ({PAPERS_MAX})"
            )


def config_to_json(config: SynthConfig) -> str:
    return json.dumps(config._asdict(), indent=2, sort_keys=True) + "\n"


def config_from_json(source: Union[str, Path, Mapping]) -> SynthConfig:
    """Read a config from a JSON file's path (``str`` or ``Path``) or from its
    decoded mapping; for JSON text, pass ``json.loads(text)``."""
    if isinstance(source, Mapping):
        payload = dict(source)
    else:
        try:
            payload = json.loads(Path(source).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # ValueError covers invalid UTF-8
            raise SynthConfigError(f"invalid synth config: {exc}") from exc
        if not isinstance(payload, dict):
            raise SynthConfigError("invalid synth config: expected a JSON object")
    try:
        journals = tuple(JournalSpec(**j) for j in payload.pop("journals"))
        return SynthConfig(journals=journals, **payload)
    except (KeyError, TypeError) as exc:
        raise SynthConfigError(f"invalid synth config: {exc}") from exc


def derived_seed(master_seed: int, run_index: int) -> int:
    """Independent 64-bit seed for run ``run_index`` of a replicate series."""
    sequence = np.random.SeedSequence(entropy=master_seed, spawn_key=(run_index,))
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed))


def sample_citation_counts(
    n: int,
    mu: float,
    sigma: float,
    zero_inflation: float = 0.0,
    *,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw integer per-article citation counts from a zero-inflated,
    discretized log-normal, with ``rng``; for a seed ``s``, pass
    ``rng=np.random.default_rng(s)``.

    A log-normal sample is rounded to the nearest integer (counts live in
    expected-count space), then an independent Bernoulli mask adds the
    zero-inflation mass.
    """
    raw = rng.lognormal(mean=mu, sigma=sigma, size=n)
    counts = np.rint(raw).astype(np.int64)
    if zero_inflation > 0.0:
        counts[rng.random(n) < zero_inflation] = 0
    return counts


def zero_inflated_pair(
    seed: int,
    n_articles: int = 800,
    mean_log_ratio: float = math.log(3.0),
) -> tuple[EmpiricalDistribution, EmpiricalDistribution]:
    """Preset pair of heavily zero-inflated distributions whose underlying
    mean citation rates differ by roughly ``exp(mean_log_ratio)``.

    Returns (lower-mean, higher-mean); both carry well over half their mass
    at zero, which is what makes mean-based rankings of such venues
    routinely contradict article-level comparisons.
    """
    rng = _rng(seed)
    low = sample_citation_counts(n_articles, mu=0.0, sigma=0.8, zero_inflation=0.75, rng=rng)
    high = sample_citation_counts(
        n_articles, mu=mean_log_ratio, sigma=0.8, zero_inflation=0.75, rng=rng
    )
    return (
        EmpiricalDistribution.from_counts(low.tolist()),
        EmpiricalDistribution.from_counts(high.tolist()),
    )


def _sorted_choices(
    rng: np.random.Generator, pool_sizes: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Row ``i`` ends in ``sorted(rng.choice(pool_sizes[i], counts[i],
    replace=False))`` and is padded in front with -1, for ``counts`` in 1..3,
    all rows in one pass; ``rng``'s state afterwards equals that after the
    per-row calls.

    numpy's ``Generator.choice(pop, k, replace=False, shuffle=True)`` runs
    Floyd's selection (for ``j`` from ``pop - k`` to ``pop - 1`` draw ``v``
    in ``[0, j]`` and take ``j`` if ``v`` is taken), then ``_shuffle_int``
    (draws in ``[0, i]``, ``i`` from ``k - 1`` down to 1).  Each is a 32-bit
    Lemire draw on ``next_uint32``, and a bound of 0 draws nothing, which is
    also what ``integers(0, bounds, endpoint=True, dtype=np.uint32)`` does
    for each bound in turn; so one such call over every row's five bounds
    replays the per-row calls.  numpy's tail-shuffle branch instead needs
    ``pop > 10_000`` and ``k > pop // 50``, which ``k <= 3`` never meets.
    Pools of 2**32 or more names, far beyond memory, would take numpy's
    64-bit path and are out of scope.
    """
    k = counts[:, None]
    column = np.arange(3)
    floyd = np.where(column < k, pool_sizes[:, None] - k + column, 0)
    bounds = np.hstack([floyd, np.maximum(k - 1 - column[:2], 0)])
    values = rng.integers(0, bounds.ravel(), endpoint=True, dtype=np.uint32)
    picks = values.reshape(-1, 5)[:, :3].astype(np.int64)
    for c in (1, 2):
        taken = (picks[:, :c] == picks[:, c : c + 1]).any(axis=1)
        picks[:, c] = np.where(taken, floyd[:, c], picks[:, c])
    picks[column >= k] = -1
    picks.sort(axis=1)
    return picks


def generate(config: SynthConfig) -> Corpus:
    """Generate a corpus; deterministic function of ``config``.

    Ids, years and journals are filled one (journal, year) slice at a time,
    and the references go to the index as (citing, cited) row pairs.  A
    journal with no articles gets no journal code, as if it were loaded.
    """
    specs = [j for j in config.journals if j.articles_per_year]
    if not specs:
        raise SynthConfigError("configuration produces zero papers")
    rng = _rng(config.seed)

    sizes = [j.articles_per_year * (j.end_year - j.start_year + 1) for j in specs]
    total = sum(sizes)
    journal_code = np.repeat(np.arange(len(specs), dtype=np.int32), sizes)
    years = np.empty(total, dtype=np.int32)
    suffixes = [f"-{i:04d}" for i in range(max(j.articles_per_year for j in specs))]
    ids: list[str] = []
    for spec in specs:
        for year in range(spec.start_year, spec.end_year + 1):
            names = suffixes[: spec.articles_per_year]
            years[len(ids) : len(ids) + len(names)] = year
            ids.extend(map(f"{spec.journal_id}-{year}".__add__, names))

    # latent attractiveness: zero-inflated log-normal times journal scale
    keep = rng.random(total) >= config.zero_inflation
    rates = np.where(keep, rng.lognormal(config.latent_mu, config.latent_sigma, total), 0.0)
    rates *= np.repeat([j.quality_scale for j in specs], sizes)

    # authors: 1-3 names from a small per-journal pool, all pools in one array
    pool_sizes = np.array([max(3, j.articles_per_year) for j in specs])
    names = np.array(
        [f"{j.journal_id}-au{a:03d}" for j, n in zip(specs, pool_sizes.tolist()) for a in range(n)],
        dtype=object,
    )
    n_authors = rng.integers(1, 4, size=total)
    picks = _sorted_choices(rng, pool_sizes[journal_code], n_authors)
    picks += (np.cumsum(pool_sizes) - pool_sizes)[journal_code][:, None]
    # zip the gathered columns and slice off the -1 padding's names: a list
    # for every row, all alive beside the tuples, would raise replicate's peak memory
    authors = tuple(
        row[3 - k :] for k, row in zip(n_authors.tolist(), zip(*names[picks.T].tolist()))
    )

    # references: per census year, weighted draw over strictly earlier papers
    decay = math.log(2.0) / config.half_life_years
    try:
        ref_budget = rng.poisson(config.references_per_paper, size=total)
    except ValueError as exc:  # "lam value too large"
        raise SynthConfigError(
            f"references_per_paper {config.references_per_paper!r} cannot be drawn: {exc}"
        ) from exc
    citing_rows, cited_rows = [], []
    # not np.unique, which imports numpy.ma (~10 ms a process) on numpy 2.4
    for year in sorted(set(years.tolist())):
        citing = np.flatnonzero(years == year)
        targets = np.flatnonzero(years < year)
        if targets.size == 0:
            continue
        weights = rates[targets] * np.exp(-decay * (year - years[targets]))
        total_weight = float(weights.sum())
        if total_weight <= 0.0:
            continue
        cumulative = np.cumsum(weights)
        budget = ref_budget[citing]
        needles = rng.random(int(budget.sum())) * total_weight
        # searched in ascending order, which with the argsort takes half the
        # time of a search in draw order (cache-friendly bisection); the
        # owners follow the same order, and the keys are sorted below anyway
        order = np.argsort(needles)
        draws = np.searchsorted(cumulative, needles[order], side="right")
        draws = np.minimum(draws, targets.size - 1)  # float-edge guard
        # duplicates within one paper collapse to a single reference: one
        # sort of (paper, target) keys; np.unique would hash them first and
        # take ~20x longer
        owner = np.repeat(np.arange(citing.size, dtype=np.int64), budget)[order]
        keys = np.sort(owner * targets.size + draws)
        keys = keys[np.diff(keys, prepend=-1) != 0]
        citing_rows.append(citing[keys // targets.size])
        cited_rows.append(targets[keys % targets.size])

    return Corpus._from_columns(
        tuple(ids),
        tuple(j.journal_id for j in specs),
        years,
        journal_code,
        np.zeros(total, dtype=np.int8),  # every paper is a research article
        np.concatenate([np.empty(0, np.int64), *citing_rows]),
        np.concatenate([np.empty(0, np.int64), *cited_rows]),
        authors=authors,
    )


class ReplicateRun(_Record):
    """Per-run metric summary: the run's seed and, per configured journal,
    its impact-factor series and variability (``None`` if undefined)."""

    run_index: int
    seed: int
    journals: Mapping[str, VariabilityResult | None]


def replicate(
    config: SynthConfig,
    n_runs: int,
    census_start: int,
    census_end: int,
    window_w: int = 2,
) -> list[ReplicateRun]:
    """Run the generator ``n_runs`` times with seeds derived from
    ``(config.seed, run_index)`` and summarize impact-factor variability
    for every configured journal; ``None`` where it is undefined, as for a
    journal that publishes nothing."""
    n_runs = _check_int("n_runs", n_runs, 1)
    runs: list[ReplicateRun] = []
    for run_index in range(n_runs):
        run_seed = derived_seed(config.seed, run_index)
        corpus = generate(config._replace(seed=run_seed))
        summaries: dict[str, VariabilityResult | None] = {}
        for spec in config.journals:
            try:
                summaries[spec.journal_id] = if_variability(
                    corpus, spec.journal_id, census_start, census_end, window_w
                )
            except (InsufficientDataError, UnknownIdError):
                # UnknownIdError: a journal with no papers has no impact factors
                summaries[spec.journal_id] = None
        runs.append(ReplicateRun(run_index=run_index, seed=run_seed, journals=summaries))
        del corpus  # before the next run's is built, not after: both alive set the peak
    return runs


def math_calibrated_config(seed: int = 2009) -> SynthConfig:
    """Long-memory preset: 10-year citation half-life over seven decades of
    history plus a large single-year census cohort.

    Calibrated so that citations from the census year split by decade of the
    cited item roughly as 50% / 25% / 12.5%, leaving a 2-year window with
    only about a tenth of the citation activity.
    """
    return SynthConfig(
        seed=seed,
        journals=(
            JournalSpec("math-core", articles_per_year=250, start_year=1940, end_year=2009),
            JournalSpec("census-cohort", articles_per_year=2400, start_year=2010, end_year=2010),
        ),
        latent_mu=1.0,
        latent_sigma=0.5,
        zero_inflation=0.15,
        half_life_years=10.0,
        references_per_paper=50.0,
    )


def volatility_config(seed: int = 77) -> SynthConfig:
    """Preset pairing a 20-article journal with a 200-article journal under
    one citation process, for sampling-noise experiments."""
    return SynthConfig(
        seed=seed,
        journals=(
            JournalSpec("small-journal", articles_per_year=20, start_year=1990, end_year=2005),
            JournalSpec("large-journal", articles_per_year=200, start_year=1990, end_year=2005),
        ),
        latent_mu=0.5,
        latent_sigma=0.8,
        zero_inflation=0.3,
        half_life_years=10.0,
        references_per_paper=20.0,
    )


PRESETS = {
    "math": math_calibrated_config,
    "volatility": volatility_config,
}
