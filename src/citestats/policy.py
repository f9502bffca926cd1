"""Institutional scoring rules and their divergence from citation counts.

Implements three scoring rules in active institutional use (flat points
for indexed-journal publication, tercile points for five selected papers,
author-share-weighted impact factors) plus a rank-correlation diagnostic
for how far such scores drift from the citation record they stand in for.

Every rule scores from the corpus columns: it reads each paper's journal
and author count, and computes a paper's points (for example3, its author
share of the impact factor) once per distinct (journal, author count), so
the papers of one pair share one ``Fraction``.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from operator import itemgetter
from types import MappingProxyType

import numpy as np

from .corpus import Corpus, _check_int, _check_names, _distinct_per_row, _integer_rows, _Record
from .errors import InsufficientDataError, PolicyError
# impact_factor is unused here, but perfbench/layers.py patches policy.impact_factor
# and test_benchmark_hooks_find_every_patched_name fails without the import
from .journal_metrics import impact_factor, impact_factors  # noqa: F401

TIER_NAMES = ("top", "middle", "bottom")
UNINDEXED = "unindexed"

TIER_POINTS = {"top": 3, "middle": 2, "bottom": 1, UNINDEXED: 0}

CORE_POINTS = 15
INDEXED_POINTS = 10


class TierTable(_Record):
    """Tercile partition of journals by impact factor.

    Journals with undefined impact factors are ``unindexed``.  Boundary
    ties break by journal id, lexicographically; ``ranking`` records the
    defined-IF ordering actually used (best first).
    """

    tiers: Mapping[str, str]
    census_year: int
    window_w: int
    ranking: tuple[tuple[str, Fraction], ...]

    def __post_init__(self):
        object.__setattr__(self, "tiers", MappingProxyType(dict(self.tiers)))

    def tier_of(self, journal_id: str) -> str:
        """Tier for a journal; journals outside the table are unindexed."""
        return self.tiers.get(journal_id, UNINDEXED)


def build_tiers(corpus: Corpus, census_year: int, window_w: int = 2) -> TierTable:
    """Rank every corpus journal by default-policy impact factor and split
    into thirds.

    Tier sizes differ by at most one; when the count is not divisible by
    three the better tiers take the extra journals.
    """
    census_year = _check_int("census_year", census_year)
    window_w = _check_int("window_w", window_w, 1)
    values = impact_factors(corpus, census_year, window_w)
    defined = [(journal_id, value) for journal_id, value in values.items() if value is not None]
    unindexed = [journal_id for journal_id, value in values.items() if value is None]
    if len(defined) < 3:
        raise InsufficientDataError(
            f"tier table needs >= 3 journals with defined impact factors, "
            f"got {len(defined)}"
        )
    defined.sort(key=lambda item: (-item[1], item[0]))
    base, remainder = divmod(len(defined), 3)
    sizes = [base + (1 if i < remainder else 0) for i in range(3)]
    tiers: dict[str, str] = {}
    position = 0
    for name, size in zip(TIER_NAMES, sizes):
        for journal_id, _ in defined[position : position + size]:
            tiers[journal_id] = name
        position += size
    for journal_id in unindexed:
        tiers[journal_id] = UNINDEXED
    return TierTable(
        tiers=tiers,
        census_year=census_year,
        window_w=window_w,
        ranking=tuple(defined),
    )


class PolicyScore(_Record, derived=("score",)):
    """A rule's score for one subject, with its per-paper breakdown; the
    score is the breakdown's exact sum."""

    subject_id: str
    rule: str
    score: Fraction
    breakdown: tuple[tuple[str, Fraction], ...]

    def __post_init__(self):
        object.__setattr__(self, "breakdown", tuple(self.breakdown))
        object.__setattr__(self, "score", _exact_sum(map(itemgetter(1), self.breakdown)))


def _exact_sum(values: Iterable[Fraction | int]) -> Fraction:
    """Exact sum over one common denominator, normalized once.

    Chained ``Fraction`` additions reduce by a gcd at every step; summing the
    numerators scaled to the lcm of the distinct denominators reduces only at
    the end.
    """
    values = list(values)
    denominator = math.lcm(*{value.denominator for value in values})
    return Fraction(
        sum(value.numerator * (denominator // value.denominator) for value in values), denominator
    )


def _author_rule(
    corpus: Corpus,
    subjects: Mapping[str, Sequence[int]],
    rule: str,
    points: Callable[[str, int, str], Fraction],
) -> list[PolicyScore]:
    """One ``rule`` score a subject, in ``subjects`` order.  A paper scores
    ``points(journal id, author count, paper id)``, called once per distinct
    pair with the first paper in subject order that has it, the paper an
    error names.  The calls go in journal id order, then author count, so
    that an error names the least journal id, whatever the corpus's line order."""
    # each subject's rows checked as integers, as concatenating casts a bool to int
    arrays = list(map(_integer_rows, subjects.values()))
    rows = corpus.checked_rows(np.concatenate([np.empty(0, np.int64), *arrays]))
    lengths = list(map(len, arrays))
    ends = np.cumsum(lengths).tolist()
    if not _distinct_per_row(corpus.ids, rows, lengths):  # a paper listed twice would score twice
        for subject_id, lo, hi in zip(subjects, [0, *ends], ends):
            repeated = [row for row, n in Counter(rows[lo:hi].tolist()).items() if n > 1]
            if repeated:
                raise PolicyError(
                    f"subject {subject_id!r} lists paper {corpus.ids[repeated[0]]!r} more than once"
                )
    paper_ids = list(map(corpus.ids.__getitem__, rows.tolist()))
    journal_code = corpus.journal_code[rows].astype(np.int64)
    author_count = corpus.author_count[rows]
    # one int a (journal, author count) pair; np.unique numbers the distinct ones
    pair = journal_code * (int(author_count.max(initial=0)) + 1) + author_count
    _, first, inverse = np.unique(pair, return_index=True, return_inverse=True)
    journal_ids = list(map(corpus.journals.__getitem__, journal_code[first].tolist()))
    values: list = [None] * len(first)
    # a stable sort, so that a journal's keys stay in author count order
    for key in sorted(range(len(first)), key=journal_ids.__getitem__):
        at = first[key]
        values[key] = points(journal_ids[key], int(author_count[at]), paper_ids[at])
    breakdown = tuple(zip(paper_ids, map(values.__getitem__, inverse.tolist())))
    return [PolicyScore(s, rule, breakdown[lo:hi]) for s, lo, hi in zip(subjects, [0, *ends], ends)]


def score_example1(
    corpus: Corpus,
    core_journals: Iterable[str],
    indexed_journals: Iterable[str],
    subjects: Mapping[str, Sequence[int]],
) -> list[PolicyScore]:
    """Flat points per publication: 15 for a core-list journal, 10 for any
    other indexed journal, 0 otherwise.  The two lists must be disjoint.
    ``subjects`` maps each subject id to its papers' rows, such as
    ``corpus.author_rows[author_id]``; one score a subject, in that order."""
    core = frozenset(_check_names("core_journals", core_journals))
    indexed = frozenset(_check_names("indexed_journals", indexed_journals))
    overlap = core & indexed
    if overlap:
        raise PolicyError(
            f"core and indexed journal lists overlap: {sorted(overlap)}"
        )

    def points(journal_id, author_count, paper_id):
        if journal_id in core:
            return Fraction(CORE_POINTS)
        return Fraction(INDEXED_POINTS if journal_id in indexed else 0)

    return _author_rule(corpus, subjects, "example1", points)


def score_example2(
    corpus: Corpus, paper_ids: Sequence[str], tiers: TierTable, subject_id: str = "paper-set"
) -> PolicyScore:
    """Tercile points for exactly five distinct papers of ``corpus``: 3 / 2 /
    1 for top / middle / bottom tier journals, 0 for unindexed ones."""
    if len(_check_names("paper_ids", paper_ids)) != 5:
        raise PolicyError(f"rule scores exactly 5 papers, got {len(paper_ids)}")
    rows = corpus.rows(paper_ids)
    repeated = [pid for pid, n in Counter(paper_ids).items() if n > 1]
    if repeated:
        raise PolicyError(f"rule scores 5 distinct papers, got {repeated[0]!r} more than once")

    def points(journal_id, author_count, paper_id):
        return Fraction(TIER_POINTS[tiers.tier_of(journal_id)])

    [score] = _author_rule(corpus, {subject_id: rows}, "example2", points)
    return score


def score_example3(
    corpus: Corpus,
    impact_factors: Mapping[str, Fraction | None],
    subjects: Mapping[str, Sequence[int]],
) -> list[PolicyScore]:
    """Author-share-weighted impact factors: each paper contributes
    ``(1 / author count) * IF(journal)``.  ``subjects`` is as for
    :func:`score_example1`; one score a subject, in that order."""

    def points(journal_id, author_count, paper_id):
        if not author_count:
            raise PolicyError(f"paper {paper_id!r} has no authors")
        value = impact_factors.get(journal_id)
        if value is None:
            raise PolicyError(f"journal {journal_id!r} has no defined impact factor")
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise PolicyError(
                f"journal {journal_id!r}: impact factor must be an int or a Fraction, got {value!r}"
            )
        # from the two ints: Fraction(value) takes the slow numbers.Rational path
        return Fraction(value.numerator, value.denominator * author_count)

    return _author_rule(corpus, subjects, "example3", points)


class DivergenceResult(_Record):
    """Kendall tau-b between two rankings plus the discordant-pair share.

    ``kendall_tau`` is ``None`` when one ranking is entirely tied (the
    tie-corrected denominator vanishes).
    """

    kendall_tau: float | None
    discordant_fraction: Fraction
    concordant_pairs: int
    discordant_pairs: int
    n_subjects: int


def divergence(
    ranking_a: Mapping[str, object], ranking_b: Mapping[str, object]
) -> DivergenceResult:
    """Tie-aware rank correlation between two scorings of the same subjects.

    Inputs map subject id to a score (higher ranks better); scores must be
    hashable and totally ordered, such as ints and ``Fraction``s, and a
    value unequal to itself (NaN) is rejected.  Tau-b is used because
    citation-count rankings carry heavy ties.

    Knight's algorithm (Knight 1966, JASA) in O(n log n): dense-rank each
    side, sort by (a, b), count tied pairs from the sizes of groups of equal
    ranks, and count discordant pairs as the strict inversions of b in that
    order (pairs tied in a are already in b order, so they add none).
    """
    if set(ranking_a) != set(ranking_b):
        raise PolicyError("rankings must cover the same subjects")
    subjects = sorted(ranking_a)
    n = len(subjects)
    if n < 2:
        raise PolicyError("divergence needs at least 2 subjects")
    rank_a = _dense_ranks([ranking_a[s] for s in subjects])
    rank_b = _dense_ranks([ranking_b[s] for s in subjects])
    size_b = int(rank_b.max()) + 1
    ties_a = _tied_pairs(rank_a)
    ties_b = _tied_pairs(rank_b)
    ties_ab = _tied_pairs(rank_a * size_b + rank_b)
    discordant = _inversions(rank_b[np.lexsort((rank_b, rank_a))].tolist(), size_b)
    total_pairs = n * (n - 1) // 2
    concordant = total_pairs - ties_a - ties_b + ties_ab - discordant
    denominator = math.sqrt((total_pairs - ties_a) * (total_pairs - ties_b))
    tau = (concordant - discordant) / denominator if denominator > 0 else None
    return DivergenceResult(
        kendall_tau=tau,
        discordant_fraction=Fraction(discordant, total_pairs),
        concordant_pairs=concordant,
        discordant_pairs=discordant,
        n_subjects=n,
    )


def _dense_ranks(values: list) -> np.ndarray:
    """0-based dense ranks (equal values share a rank, with no gaps); NaN is rejected."""
    if any(value != value for value in values):
        raise PolicyError("rankings must not contain unordered values (NaN)")
    rank = {value: i for i, value in enumerate(sorted(set(values)))}
    return np.array([rank[value] for value in values], dtype=np.int64)


def _tied_pairs(keys: np.ndarray) -> int:
    """Pairs of positions holding equal keys: c(c-1)/2 summed over each key's count c."""
    _, counts = np.unique(keys, return_counts=True)
    return int((counts * (counts - 1) // 2).sum())


def _inversions(ranks: list[int], size: int) -> int:
    """Pairs i < j with ranks[i] > ranks[j], via a Fenwick tree over 0..size-1."""
    tree = [0] * (size + 1)
    inversions = 0
    for seen, rank in enumerate(ranks):
        at_most = 0  # earlier ranks <= rank
        i = rank + 1
        while i > 0:
            at_most += tree[i]
            i -= i & -i
        inversions += seen - at_most
        i = rank + 1
        while i <= size:
            tree[i] += 1
            i += i & -i
    return inversions
