"""Command-line interface.

Every subcommand reads plain files, writes CSV/JSON outputs into ``--out``
and drops a run manifest next to them, so a report can be reproduced from
its manifest alone.  Outputs are byte-identical for identical inputs and
seeds; the only timestamp lives in the manifest.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import io
import json
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .author_metrics import author_record, citation_histogram, g_index, h_index, m_index
from .compare import journal_distribution, mean, prob_at_least
from .corpus import Corpus, load_corpus, validate, write_corpus
from .errors import CitationStatsError, InsufficientDataError, UnknownIdError
from .journal_metrics import (
    IFQuery,
    citation_age_profile,
    if_variability,
    impact_factor,
    self_citation_fraction,
    window_coverage,
)
from .policy import build_tiers, divergence, score_example1, score_example2, score_example3
from .synth import PRESETS, config_from_json, config_to_json, generate, replicate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

REPORT_WINDOWS = (2, 5, 10)


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record emitted with every report."""

    command: tuple[str, ...]
    input_digests: dict[str, str]
    seeds: tuple[int, ...]
    tool_version: str
    timestamp: str

    def to_dict(self) -> dict:
        return {
            "command": list(self.command),
            "inputs": dict(sorted(self.input_digests.items())),
            "seeds": list(self.seeds),
            "tool_version": self.tool_version,
            "timestamp": self.timestamp,
        }


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(
    out_dir: Path,
    argv: Sequence[str],
    inputs: Sequence[Path] = (),
    seeds: Sequence[int] = (),
) -> None:
    manifest = RunManifest(
        command=("citestats", *argv),
        input_digests={str(p): _sha256(Path(p)) for p in inputs},
        seeds=tuple(seeds),
        tool_version=__version__,
        timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )
    _write_text(out_dir / "manifest.json", json.dumps(manifest.to_dict(), indent=2) + "\n")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_json(path: Path, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _fmt(value) -> str:
    """Fixed 4-decimal rendering; NA for undefined."""
    if value is None:
        return "NA"
    return f"{float(value):.4f}"


def _exact(value) -> Optional[str]:
    if value is None:
        return None
    fraction = Fraction(value)
    return f"{fraction.numerator}/{fraction.denominator}"


def _cell(value) -> dict:
    """JSON report cell: exact rational plus its fixed-decimal rendering."""
    return {"exact": _exact(value), "decimal": _fmt(value)}


def _year_span(text: str) -> range:
    """Parse 'lo:hi' (inclusive) or a single year into a range."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            year = int(parts[0])
            return range(year, year + 1)
        if len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
            if hi < lo:
                raise ValueError
            return range(lo, hi + 1)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected YEAR or LO:HI with LO <= HI, got {text!r}"
    )


def _id_list(text: str) -> list[str]:
    return [token for token in (t.strip() for t in text.split(",")) if token]


def _safe_name(identifier: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in identifier)


def _load(args) -> Corpus:
    return load_corpus(args.input, strict=args.strict)


def _resolve_config(args):
    if args.config is not None:
        config = config_from_json(Path(args.config))
    else:
        config = PRESETS[args.preset]()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args, argv) -> int:
    corpus = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_corpus(corpus, out / "corpus.jsonl")
    report = validate(corpus)
    _write_json(out / "summary.json", report.to_dict())
    print(
        f"ingested {report.paper_count} papers, {report.edge_count} edges, "
        f"{report.unresolved_references} unresolved references -> {out / 'corpus.jsonl'}"
    )
    _write_manifest(out, argv, inputs=[Path(args.input)])
    return EXIT_OK


def cmd_validate(args, argv) -> int:
    corpus = _load(args)
    report = validate(corpus)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "validation.json", report.to_dict())
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    _write_manifest(out, argv, inputs=[Path(args.input)])
    return EXIT_OK


def cmd_journal_if(args, argv) -> int:
    corpus = _load(args)
    journals = args.journal or sorted(corpus.journal_papers)
    header = (
        "journal_id",
        "census_year",
        "window_w",
        "numerator",
        "denominator",
        "value",
        "denominator_policy",
        "self_citation_policy",
    )
    rows = []
    for journal_id in journals:
        result = impact_factor(
            corpus,
            IFQuery(
                journal_id=journal_id,
                census_year=args.census_year,
                window_w=args.window,
                denominator_policy=args.denominator,
                self_citation_policy=args.self_cites,
            ),
        )
        rows.append(
            (
                journal_id,
                args.census_year,
                args.window,
                result.numerator,
                result.denominator,
                _fmt(result.value),
                args.denominator,
                args.self_cites,
            )
        )
    text = _csv_text(header, rows)
    out = Path(args.out)
    _write_text(out / "journal_if.csv", text)
    print(text, end="")
    _write_manifest(out, argv, inputs=[Path(args.input)])
    return EXIT_OK


def cmd_journal_profile(args, argv) -> int:
    corpus = _load(args)
    profile = citation_age_profile(corpus, args.census_year, args.journal)
    text = _csv_text(
        ("age", "citations"), [(age, profile[age]) for age in sorted(profile)]
    )
    out = Path(args.out)
    _write_text(out / "age_profile.csv", text)
    print(text, end="")
    summary: dict = {
        "census_year": args.census_year,
        "journal": args.journal,
        "total_citations": sum(profile.values()),
    }
    if args.journal is not None:
        summary["window_coverage"] = {
            f"w{w}": _cell(window_coverage(corpus, args.journal, args.census_year, w))
            for w in REPORT_WINDOWS
        }
        summary["self_citation_fraction"] = _cell(
            self_citation_fraction(corpus, args.journal)
        )
    _write_json(out / "journal_profile.json", summary)
    _write_manifest(out, argv, inputs=[Path(args.input)])
    return EXIT_OK


def cmd_author_index(args, argv) -> int:
    corpus = _load(args)
    authors = args.author or sorted(corpus.author_papers)
    evaluation_year = args.evaluation_year
    if evaluation_year is None:
        if not corpus.papers:
            raise CitationStatsError("empty corpus: pass --evaluation-year explicitly")
        evaluation_year = max(p.year for p in corpus.papers.values())
    citing_years = args.citing_years
    header = (
        "author_id",
        "papers",
        "total_citations",
        "h",
        "g",
        "m",
        "tail_fraction",
    )
    rows = []
    histograms = {}
    for author_id in authors:
        record = author_record(corpus, author_id, citing_years)
        h = h_index(record.counts)
        g = g_index(record.counts)
        m = m_index(h, record.first_publication_year, evaluation_year)
        hist = citation_histogram(record.counts)
        rows.append(
            (
                author_id,
                len(record.counts),
                sum(record.counts),
                h,
                g,
                _fmt(m),
                _fmt(hist.tail_fraction),
            )
        )
        if args.histograms:
            histograms[author_id] = {
                "buckets": {str(k): v for k, v in hist.buckets.items()},
                "h": hist.h,
                "tail_fraction": _cell(hist.tail_fraction),
            }
    text = _csv_text(header, rows)
    out = Path(args.out)
    _write_text(out / "authors.csv", text)
    print(text, end="")
    if args.histograms:
        _write_json(out / "author_histograms.json", histograms)
    _write_manifest(out, argv, inputs=[Path(args.input)])
    return EXIT_OK


def cmd_compare(args, argv) -> int:
    corpus = _load(args)
    dist_a = journal_distribution(
        corpus, args.journal_a, args.pub_years, args.citing_years
    )
    dist_b = journal_distribution(
        corpus, args.journal_b, args.pub_years, args.citing_years
    )
    result = prob_at_least(dist_a, dist_b)
    ratio = None
    if result.mean_a > 0:
        ratio = result.mean_b / result.mean_a
    lines = [
        f"P(A > B)  = {_fmt(result.p_greater)}",
        f"P(A = B)  = {_fmt(result.p_equal)}",
        f"P(A >= B) = {_fmt(result.p_at_least)}",
        f"mean A    = {_fmt(result.mean_a)}   [{args.journal_a}]",
        f"mean B    = {_fmt(result.mean_b)}   [{args.journal_b}]",
        f"mean B/A  = {_fmt(ratio)}",
    ]
    print("\n".join(lines))
    payload = {
        "journal_a": args.journal_a,
        "journal_b": args.journal_b,
        "publication_years": [args.pub_years[0], args.pub_years[-1]],
        "citing_years": [args.citing_years[0], args.citing_years[-1]],
        "p_greater": _cell(result.p_greater),
        "p_equal": _cell(result.p_equal),
        "p_at_least": _cell(result.p_at_least),
        "mean_a": _cell(result.mean_a),
        "mean_b": _cell(result.mean_b),
        "histogram_a": {str(k): v for k, v in dist_a.histogram.items()},
        "histogram_b": {str(k): v for k, v in dist_b.histogram.items()},
    }
    out = Path(args.out)
    _write_json(out / "comparison.json", payload)
    _write_manifest(out, argv, inputs=[Path(args.input)])
    return EXIT_OK


def cmd_synth(args, argv) -> int:
    config = _resolve_config(args)
    corpus = generate(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_corpus(corpus, out / "corpus.jsonl")
    _write_text(out / "synth_config.json", config_to_json(config))
    print(
        f"generated {len(corpus.papers)} papers, {len(corpus.edges)} edges "
        f"(seed {config.seed}) -> {out / 'corpus.jsonl'}"
    )
    inputs = [Path(args.config)] if args.config else []
    _write_manifest(out, argv, inputs=inputs, seeds=[config.seed])
    return EXIT_OK


def cmd_replicate(args, argv) -> int:
    config = _resolve_config(args)
    census = args.census_years
    runs = replicate(config, args.runs, census[0], census[-1], args.window)
    header = (
        "run_index",
        "seed",
        "journal_id",
        "pairs_used",
        "zero_base_pairs_skipped",
        "undefined_pairs_skipped",
        "mean_abs_relative_change",
    )
    rows = []
    payload_runs = []
    for run in runs:
        run_payload = {"run_index": run.run_index, "seed": run.seed, "journals": {}}
        for journal_id in sorted(run.journals):
            summary = run.journals[journal_id]
            if summary is None:
                rows.append((run.run_index, run.seed, journal_id, 0, 0, 0, "NA"))
                run_payload["journals"][journal_id] = None
                continue
            rows.append(
                (
                    run.run_index,
                    run.seed,
                    journal_id,
                    summary.pairs_used,
                    summary.zero_base_pairs_skipped,
                    summary.undefined_pairs_skipped,
                    _fmt(summary.mean_abs_relative_change),
                )
            )
            run_payload["journals"][journal_id] = {
                "mean_abs_relative_change": _cell(summary.mean_abs_relative_change),
                "impact_factors": {
                    str(year): _cell(value)
                    for year, value in sorted(summary.impact_factors.items())
                },
            }
        payload_runs.append(run_payload)
    text = _csv_text(header, rows)
    out = Path(args.out)
    _write_text(out / "replicate.csv", text)
    _write_json(
        out / "replicate.json",
        {
            "census_years": [census[0], census[-1]],
            "window_w": args.window,
            "runs": payload_runs,
        },
    )
    print(text, end="")
    inputs = [Path(args.config)] if args.config else []
    _write_manifest(out, argv, inputs=inputs, seeds=[config.seed])
    return EXIT_OK


def _policy_if_lookup(corpus, census_year, window_w) -> dict:
    lookup = {}
    for journal_id in corpus.journal_papers:
        result = impact_factor(
            corpus, IFQuery(journal_id=journal_id, census_year=census_year, window_w=window_w)
        )
        lookup[journal_id] = result.value
    return lookup


def cmd_policy(args, argv) -> int:
    if args.rule in ("example2", "example3") and args.census_year is None:
        print(
            f"citestats policy: error: --census-year is required for {args.rule}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    corpus = _load(args)
    scores = []
    if args.rule == "example2":
        if not args.papers or len(args.papers) != 5:
            raise CitationStatsError("--papers must list exactly 5 paper ids")
        tiers = build_tiers(corpus, args.census_year, args.window)
        papers = [corpus.paper(pid) for pid in args.papers]
        scores.append(score_example2(papers, tiers, subject_id=args.subject))
    else:
        authors = args.author or sorted(corpus.author_papers)
        lookup = None
        if args.rule == "example3":
            lookup = _policy_if_lookup(corpus, args.census_year, args.window)
        for author_id in authors:
            if author_id not in corpus.author_papers:
                raise UnknownIdError(f"unknown author {author_id!r}")
            papers = [corpus.papers[pid] for pid in corpus.author_papers[author_id]]
            if args.rule == "example1":
                scores.append(
                    score_example1(
                        papers,
                        args.core_journals,
                        args.indexed_journals,
                        subject_id=author_id,
                    )
                )
            else:
                scores.append(score_example3(papers, lookup, subject_id=author_id))
    header = ("subject", "rule", "score")
    rows = [(s.subject_id, s.rule, _fmt(s.score)) for s in scores]
    text = _csv_text(header, rows)
    out = Path(args.out)
    _write_text(out / "policy_scores.csv", text)
    print(text, end="")
    payload = {
        "rule": args.rule,
        "scores": {
            s.subject_id: {
                "score": _cell(s.score),
                "breakdown": {pid: _cell(points) for pid, points in s.breakdown},
            }
            for s in scores
        },
    }
    if args.with_divergence:
        if args.rule == "example2" or len(scores) < 2:
            raise CitationStatsError(
                "--with-divergence needs an author-level rule and >= 2 subjects"
            )
        by_policy = {s.subject_id: s.score for s in scores}
        by_citations = {
            s.subject_id: sum(corpus.citation_counts(corpus.author_papers[s.subject_id]))
            for s in scores
        }
        result = divergence(by_policy, by_citations)
        payload["divergence_vs_citation_counts"] = {
            "kendall_tau": None if result.kendall_tau is None else round(result.kendall_tau, 4),
            "discordant_fraction": _cell(result.discordant_fraction),
            "n_subjects": result.n_subjects,
        }
        print(f"kendall_tau_vs_citations = {_fmt(result.kendall_tau)}")
    _write_json(out / "policy_breakdown.json", payload)
    _write_manifest(out, argv, inputs=[Path(args.input)])
    return EXIT_OK


def cmd_report(args, argv) -> int:
    corpus = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    census = args.census_year
    var_years = args.variability_years or range(census - 4, census + 1)

    journal_sections = {}
    csv_rows = []
    for journal_id in sorted(corpus.journal_papers):
        section: dict = {"impact_factor": {}}
        for w in REPORT_WINDOWS:
            result = impact_factor(
                corpus, IFQuery(journal_id=journal_id, census_year=census, window_w=w)
            )
            section["impact_factor"][f"w{w}"] = {
                "numerator": result.numerator,
                "denominator": result.denominator,
                "value": _cell(result.value),
            }
        section["window_coverage_w2"] = _cell(
            window_coverage(corpus, journal_id, census, 2)
        )
        section["self_citation_fraction"] = _cell(
            self_citation_fraction(corpus, journal_id)
        )
        try:
            variability = if_variability(
                corpus, journal_id, var_years[0], var_years[-1], 2
            )
            section["variability"] = {
                "mean_abs_relative_change": _cell(
                    variability.mean_abs_relative_change
                ),
                "pairs_used": variability.pairs_used,
                "zero_base_pairs_skipped": variability.zero_base_pairs_skipped,
                "undefined_pairs_skipped": variability.undefined_pairs_skipped,
            }
            variability_cell = _fmt(variability.mean_abs_relative_change)
        except InsufficientDataError as exc:
            section["variability"] = {"undefined": str(exc)}
            variability_cell = "NA"
        journal_sections[journal_id] = section
        profile = citation_age_profile(corpus, census, journal_id)
        _write_text(
            out / f"age_profile_{_safe_name(journal_id)}.csv",
            _csv_text(("age", "citations"), [(a, profile[a]) for a in sorted(profile)]),
        )
        csv_rows.append(
            (
                journal_id,
                *(
                    section["impact_factor"][f"w{w}"]["value"]["decimal"]
                    for w in REPORT_WINDOWS
                ),
                section["window_coverage_w2"]["decimal"],
                variability_cell,
                section["self_citation_fraction"]["decimal"],
            )
        )

    pair_sections = []
    pub_years = args.pub_years or range(census - 5, census)
    citing_years = args.citing_years or range(census, census + 1)
    for journal_a, journal_b in args.pair:
        dist_a = journal_distribution(corpus, journal_a, pub_years, citing_years)
        dist_b = journal_distribution(corpus, journal_b, pub_years, citing_years)
        result = prob_at_least(dist_a, dist_b)
        pair_sections.append(
            {
                "journal_a": journal_a,
                "journal_b": journal_b,
                "p_greater": _cell(result.p_greater),
                "p_equal": _cell(result.p_equal),
                "p_at_least": _cell(result.p_at_least),
                "mean_a": _cell(result.mean_a),
                "mean_b": _cell(result.mean_b),
            }
        )
        for name, dist in ((journal_a, dist_a), (journal_b, dist_b)):
            _write_text(
                out
                / f"dist_{_safe_name(journal_a)}__vs__{_safe_name(journal_b)}"
                f"__{_safe_name(name)}.csv",
                _csv_text(
                    ("citations", "articles"),
                    [(v, n) for v, n in dist.histogram.items()],
                ),
            )

    report = {
        "census_year": census,
        "variability_years": [var_years[0], var_years[-1]],
        "journals": journal_sections,
        "pairs": pair_sections,
    }
    _write_json(out / "report.json", report)
    _write_text(
        out / "journals.csv",
        _csv_text(
            (
                "journal_id",
                "if_w2",
                "if_w5",
                "if_w10",
                "coverage_w2",
                "variability",
                "self_citation_fraction",
            ),
            csv_rows,
        ),
    )
    print(
        f"report: {len(journal_sections)} journal section(s), "
        f"{len(pair_sections)} pair section(s) -> {out / 'report.json'}"
    )
    _write_manifest(out, argv, inputs=[Path(args.input)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _pair(text: str) -> tuple[str, str]:
    parts = text.split(":")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise argparse.ArgumentTypeError(f"expected JOURNAL_A:JOURNAL_B, got {text!r}")
    return parts[0], parts[1]


def _add_corpus_options(parser) -> None:
    parser.add_argument("--input", required=True, help="JSON-lines corpus file")
    parser.add_argument(
        "--strict", action="store_true", help="reject records with unknown fields"
    )


def _add_out_option(parser) -> None:
    parser.add_argument("--out", default=".", help="output directory (default: .)")


def _add_config_options(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="synthetic-corpus config (JSON file)")
    group.add_argument("--preset", choices=sorted(PRESETS), help="shipped preset")
    parser.add_argument("--seed", type=int, help="override the config seed")


def build_parser() -> _Parser:
    parser = _Parser(prog="citestats", description=__doc__)
    parser.add_argument("--version", action="version", version=f"citestats {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="load, normalize and re-emit a corpus")
    _add_corpus_options(p)
    _add_out_option(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("validate", help="report data anomalies")
    _add_corpus_options(p)
    _add_out_option(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("journal-if", help="windowed impact factors")
    _add_corpus_options(p)
    _add_out_option(p)
    p.add_argument("--census-year", type=int, required=True)
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--denominator", choices=("substantive", "all"), default="substantive")
    p.add_argument("--self-cites", choices=("include", "exclude"), default="include")
    p.add_argument("--journal", action="append", help="restrict to a journal (repeatable)")
    p.set_defaults(func=cmd_journal_if)

    p = sub.add_parser("journal-profile", help="citation-age profile")
    _add_corpus_options(p)
    _add_out_option(p)
    p.add_argument("--census-year", type=int, required=True)
    p.add_argument("--journal", help="restrict cited side to a journal")
    p.set_defaults(func=cmd_journal_profile)

    p = sub.add_parser("author-index", help="per-author h/g/m indices")
    _add_corpus_options(p)
    _add_out_option(p)
    p.add_argument("--author", action="append", help="restrict to an author (repeatable)")
    p.add_argument("--citing-years", type=_year_span, help="LO:HI citing-year window")
    p.add_argument("--evaluation-year", type=int, help="m-index evaluation year")
    p.add_argument("--histograms", action="store_true", help="dump JSON histograms")
    p.set_defaults(func=cmd_author_index)

    p = sub.add_parser("compare", help="misranking probability between two journals")
    _add_corpus_options(p)
    _add_out_option(p)
    p.add_argument("--journal-a", required=True)
    p.add_argument("--journal-b", required=True)
    p.add_argument("--pub-years", type=_year_span, required=True, help="LO:HI publication years")
    p.add_argument("--citing-years", type=_year_span, required=True, help="LO:HI citing years")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    _add_config_options(p)
    _add_out_option(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("replicate", help="repeated synthetic runs with metric summaries")
    _add_config_options(p)
    _add_out_option(p)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--census-years", type=_year_span, required=True, help="LO:HI census years")
    p.add_argument("--window", type=int, default=2)
    p.set_defaults(func=cmd_replicate)

    p = sub.add_parser("policy", help="institutional scoring rules")
    _add_corpus_options(p)
    _add_out_option(p)
    p.add_argument("--rule", choices=("example1", "example2", "example3"), required=True)
    p.add_argument("--census-year", type=int, default=None)
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--author", action="append", help="subject author (repeatable)")
    p.add_argument("--papers", type=_id_list, help="exactly 5 paper ids (example2)")
    p.add_argument("--subject", default="papers", help="subject label for example2")
    p.add_argument("--core-journals", type=_id_list, default=[], help="comma-separated")
    p.add_argument("--indexed-journals", type=_id_list, default=[], help="comma-separated")
    p.add_argument(
        "--with-divergence",
        action="store_true",
        help="also report rank divergence vs raw citation counts",
    )
    p.set_defaults(func=cmd_policy)

    p = sub.add_parser("report", help="multi-section journal report")
    _add_corpus_options(p)
    _add_out_option(p)
    p.add_argument("--census-year", type=int, required=True)
    p.add_argument("--variability-years", type=_year_span, help="LO:HI census years")
    p.add_argument(
        "--pair",
        type=_pair,
        action="append",
        default=[],
        help="journal pair A:B to compare (repeatable)",
    )
    p.add_argument("--pub-years", type=_year_span, help="pair publication years LO:HI")
    p.add_argument("--citing-years", type=_year_span, help="pair citing years LO:HI")
    p.set_defaults(func=cmd_report)

    return parser


_POLICY_MAP = {"substantive": "substantive-only", "all": "all-items"}
_SELF_MAP = {"include": "include", "exclude": "exclude-same-journal"}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if hasattr(args, "denominator"):
        args.denominator = _POLICY_MAP[args.denominator]
    if hasattr(args, "self_cites"):
        args.self_cites = _SELF_MAP[args.self_cites]
    try:
        return args.func(args, argv)
    except CitationStatsError as exc:
        print(f"citestats: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        # argument values that survive argparse but violate a query contract,
        # e.g. --window 0
        print(f"citestats: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"citestats: error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
