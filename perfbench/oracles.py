"""Independent checks of citestats outputs.

Everything here is counted by the benchmark itself from the generated
JSON-lines corpus, never through the citestats library, so a bug shared by
the library and its own tests still shows up as a failed command.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

from scipy import stats

SUBSTANTIVE_KINDS = ("research-article", "review")


def safe_name(identifier: str) -> str:
    """The CLI's rule for turning a journal id into part of a file name."""
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in identifier)


class CorpusScan:
    """Counts read straight from a JSON-lines corpus in one pass."""

    def __init__(self, path: Path):
        papers: dict[str, tuple[str, int]] = {}
        authors: dict[str, list[str]] = {}
        self.window_items: Counter = Counter()  # (journal, year) -> substantive papers
        references: list[tuple[int, list[str]]] = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                record = json.loads(line)
                papers[record["id"]] = (record["journal"], record["year"])
                authors[record["id"]] = record["authors"]
                if record["kind"] in SUBSTANTIVE_KINDS:
                    self.window_items[record["journal"], record["year"]] += 1
                references.append((record["year"], record["references"]))

        self.edges = 0
        incoming: Counter = Counter()  # paper id -> citations received
        self.flows: Counter = Counter()  # (citing year, cited journal, cited year) -> edges
        for citing_year, refs in references:
            for ref in refs:
                cited = papers.get(ref)
                if cited is None:
                    continue
                self.edges += 1
                incoming[ref] += 1
                self.flows[citing_year, cited[0], cited[1]] += 1

        self.received: Counter = Counter()  # (citing year, cited journal) -> edges
        for (citing_year, journal, _), n in self.flows.items():
            self.received[citing_year, journal] += n
        self.journals = sorted({journal for journal, _ in papers.values()})
        self.author_citations: Counter = Counter()
        for paper_id, names in authors.items():
            for name in names:
                self.author_citations[name] += incoming[paper_id]

    def census_citations(self, journal: str, census_year: int) -> int:
        """Edges from census-year papers to any paper of ``journal``."""
        return self.received[census_year, journal]

    def impact_factor(self, journal: str, census_year: int, window_w: int) -> Fraction | None:
        window = range(census_year - window_w, census_year)
        items = sum(self.window_items[journal, y] for y in window)
        if items == 0:
            return None
        return Fraction(sum(self.flows[census_year, journal, y] for y in window), items)


def check_report(out: Path, scan: CorpusScan, census_year: int) -> list[str]:
    """Each journal's age profile must sum to its census-year citations."""
    problems = []
    for journal in scan.journals:
        path = out / f"age_profile_{safe_name(journal)}.csv"
        if not path.is_file():
            problems.append(f"missing {path.name}")
            continue
        with open(path, encoding="utf-8", newline="") as handle:
            total = sum(int(row["citations"]) for row in csv.DictReader(handle))
        expected = scan.census_citations(journal, census_year)
        if total != expected:
            problems.append(f"{path.name}: sums to {total}, corpus has {expected}")
    return problems


def check_policy(out: Path, scan: CorpusScan) -> list[str]:
    """Reported tau-b must equal scipy's on exact ranks of the policy scores
    against the citation totals counted from the corpus."""
    payload = json.loads((out / "policy_breakdown.json").read_text(encoding="utf-8"))
    scores = {s: Fraction(v["score"]["exact"]) for s, v in payload["scores"].items()}
    subjects = sorted(scores)
    if subjects != sorted(scan.author_citations):
        return ["policy subjects differ from the corpus authors"]
    # ranks, not floats, so that distinct Fractions never merge into a tie
    rank = {value: i for i, value in enumerate(sorted(set(scores.values())))}
    tau = stats.kendalltau(
        [rank[scores[s]] for s in subjects],
        [scan.author_citations[s] for s in subjects],
        variant="b",
    ).statistic
    reported = payload["divergence_vs_citation_counts"]
    problems = []
    if reported["kendall_tau"] != round(float(tau), 4):
        problems.append(f"kendall_tau {reported['kendall_tau']} != scipy {round(float(tau), 4)}")
    if reported["n_subjects"] != len(subjects):
        problems.append(f"n_subjects {reported['n_subjects']} != {len(subjects)}")
    return problems


def check_replicate(
    out: Path, scan: CorpusScan, seeds: list[int], census_years: range, window_w: int
) -> list[str]:
    """Run seeds must follow the SeedSequence scheme, and run 0's impact
    factors must match the ones counted from run 0's corpus."""
    payload = json.loads((out / "replicate.json").read_text(encoding="utf-8"))
    runs = payload["runs"]
    if [run["seed"] for run in runs] != seeds:
        return ["replicate run seeds differ from the derived seeds"]
    problems = []
    for journal in scan.journals:
        summary = runs[0]["journals"].get(journal)
        if summary is None:
            problems.append(f"run 0: {journal} has no variability summary")
            continue
        for year in census_years:
            value = scan.impact_factor(journal, year, window_w)
            expected = None if value is None else f"{value.numerator}/{value.denominator}"
            got = summary["impact_factors"][str(year)]["exact"]
            if got != expected:
                problems.append(f"run 0: IF({journal}, {year}) = {got}, corpus gives {expected}")
    return problems
