"""Command-line interface.

Every subcommand is a pure function of its arguments and one source, the
``--input`` corpus or a synthetic config, that returns its outputs.  ``main``
writes them into ``--out`` with a run manifest, so a report can be
reproduced from its manifest alone, and writes nothing when a command fails.
Outputs are byte-identical for identical inputs and seeds; the only
timestamp lives in the manifest.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import atexit
import csv
import datetime
import gc
import hashlib
import json
import math
import os
import sys
from fractions import Fraction
from functools import partial
from itertools import chain, repeat
from pathlib import Path
from types import SimpleNamespace
from typing import Iterator, Optional, Sequence

import numpy as np

from . import __version__
from .author_metrics import author_record, citation_histogram, g_index, h_index, m_index
from .compare import journal_distribution, prob_at_least
from .corpus import (
    YEAR_MAX, YEAR_MIN, Corpus, _load_file, _write_text, utf8_encodable, validate, write_corpus,
)
from .errors import CitationStatsError, InsufficientDataError, UnknownIdError, UsageError
from .journal_metrics import (
    IFQuery,
    citation_age_profile,
    if_variability,
    impact_factor,
    impact_factors,
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


_POLICY_MAP = {"substantive": "substantive-only", "all": "all-items"}
_SELF_MAP = {"include": "include", "exclude": "exclude-same-journal"}


_json_string = json.encoder.encode_basestring_ascii


class _SharedCell(dict):
    """A dict of scalars that a payload holds in many places, so that
    :func:`_json_pieces` keeps its text."""

    __slots__ = ()


def _json_pieces(value) -> Iterator[str]:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)`` for
    string-keyed values, in pieces of about a member each, so that it is
    written without being built whole.

    ``json`` uses its C encoder only without ``indent``; this writer does the
    indented layout itself and leaves the scalars to ``json``.  A
    :class:`_SharedCell` of scalars is rendered once per object and depth; a
    member holding one already rendered goes out as one piece, without a
    generator of its own.  No other text is kept, as the texts of cells held
    once would raise the peak memory.
    """
    leaves: dict[str, dict[int, str]] = {}  # indent -> id -> text; the value keeps the ids alive

    def scalar(value) -> str:
        return _json_string(value) if isinstance(value, str) else json.dumps(value)

    def pieces(value, indent):
        if not isinstance(value, (dict, list, tuple)):
            yield scalar(value)
            return
        if not value:
            yield "{}" if isinstance(value, dict) else "[]"
            return
        inner = indent + "  "
        if isinstance(value, dict):
            keys = sorted(value)
            items = list(map(value.__getitem__, keys))
            if not any(isinstance(item, (dict, list, tuple)) for item in items):
                texts = map(": ".__add__, map(scalar, items))
                pairs = map(str.__add__, map(_json_string, keys), texts)
                text = "{" + inner + ("," + inner).join(pairs) + indent + "}"
                if type(value) is _SharedCell:
                    leaves.setdefault(indent, {})[id(value)] = text
                yield text
                return
            heads = (inner + _json_string(key) + ": " for key in keys)
            first, last = "{", indent + "}"
        else:
            items, heads, first, last = value, repeat(inner), "[", indent + "]"
        kept = leaves.setdefault(inner, {})
        separator = first
        for head, item in zip(heads, items):
            text = kept.get(id(item))
            if text is None:
                yield separator + head
                yield from pieces(item, inner)
            else:
                yield separator + head + text
            separator = ","
        yield last

    return pieces(value, "\n")


def _json_text(value) -> str:
    """The text of :func:`_json_pieces`, ``json.dumps(value, indent=2, sort_keys=True)``."""
    return "".join(_json_pieces(value))


def _finish(args, argv: Sequence[str], files: dict, stdout: str, seeds, digest: str) -> int:
    """Build the run manifest, which gives ``digest`` of the file read
    (``--input`` or ``--config``), make ``--out``, write there ``files`` (name
    -> CSV text, a ``Corpus`` as JSON lines, a payload as indented JSON) and the manifest,
    then print ``stdout``.  Each file is written a piece at a time, and a
    write that fails removes its file; if a write or the print fails, the
    files written before are removed too, before the error propagates.  The
    CLI's only writer."""
    source = getattr(args, "input", None) or getattr(args, "config", None)
    manifest = {  # the reproducibility record
        "command": ["citestats", *argv],
        "inputs": {str(Path(source)): digest} if source else {},
        "seeds": list(seeds),
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files["manifest.json"] = json.dumps(manifest, indent=2) + "\n"
    written = []
    try:
        for name, content in files.items():
            path = out / name
            if isinstance(content, Corpus):
                write_corpus(content, path)  # looked up by name, where a benchmark trace times it
            elif isinstance(content, str):
                _write_text(path, [content])
            else:
                _write_text(path, chain(_json_pieces(content), "\n"))
            written.append(path)
        print(stdout, end="")
    except BaseException:
        for path in written:
            path.unlink()
        raise
    return EXIT_OK


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """CSV rows ending in a line feed.  The writer ends them in CRLF, so
    that it also quotes a cell holding a lone carriage return, at which a
    reader would end the row."""
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerows(chain([header], rows))
    return "".join(line[:-2] + "\n" for line in lines)


def _fmt(value) -> str:
    """Fixed 4-decimal rendering; NA for undefined."""
    if value is None:
        return "NA"
    return f"{float(value):.4f}"


def _exact(value) -> Optional[str]:
    if value is None:
        return None
    fraction = value if isinstance(value, Fraction) else Fraction(value)
    return f"{fraction.numerator}/{fraction.denominator}"


def _cell(value) -> dict:
    """JSON report cell: exact rational plus its fixed-decimal rendering."""
    return {"exact": _exact(value), "decimal": _fmt(value)}


def _comparison_cells(result) -> dict:
    names = ("p_greater", "p_equal", "p_at_least", "mean_a", "mean_b")
    return {name: _cell(getattr(result, name)) for name in names}


def _year_span(text: str) -> range:
    """Parse 'lo:hi' (inclusive) or a single year into a range of corpus
    years; a span past them would be built in full by the commands."""
    parts = text.split(":")
    try:
        lo, hi = int(parts[0]), int(parts[-1])
        if len(parts) <= 2 and YEAR_MIN <= lo <= hi <= YEAR_MAX:
            return range(lo, hi + 1)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected YEAR or LO:HI with {YEAR_MIN} <= LO <= HI <= {YEAR_MAX}, got {text!r}"
    )


def _year(text: str) -> int:
    """Parse a single year of the corpus range."""
    try:
        if YEAR_MIN <= int(text) <= YEAR_MAX:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected YEAR with {YEAR_MIN} <= YEAR <= {YEAR_MAX}, got {text!r}"
    )


def _id_list(text: str) -> list[str]:
    return [token for token in (t.strip() for t in text.split(",")) if token]


def _distinct_authors(args) -> list[str]:
    """``--author``, or [] if not given; naming an author twice is a usage error."""
    authors = args.author or []
    if len(set(authors)) != len(authors):
        raise UsageError("--author must not name an author twice")
    return authors


def _safe_name(identifier: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in identifier)


def _age_profile_csv(profile) -> str:
    return _csv_text(("age", "citations"), [(age, profile[age]) for age in sorted(profile)])


def _comparison(corpus, journal_a, journal_b, pub_years, citing_years):
    dist_a = journal_distribution(corpus, journal_a, pub_years, citing_years)
    dist_b = journal_distribution(corpus, journal_b, pub_years, citing_years)
    return dist_a, dist_b, prob_at_least(dist_a, dist_b)


def _resolve_config(args, digest):
    if args.config is not None:
        data = Path(args.config).read_bytes()
        digest.update(data)
        config = config_from_json(data)
    else:
        config = PRESETS[args.preset]()
    if args.seed is not None:
        config = config._replace(seed=args.seed)
    return config


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args, corpus: Corpus) -> tuple[dict, str]:
    report = validate(corpus)
    target = Path(args.out) / "corpus.jsonl"
    return {"corpus.jsonl": corpus, "summary.json": report._asdict()}, (
        f"ingested {report.paper_count} papers, {report.edge_count} edges, "
        f"{report.unresolved_references} unresolved references -> {target}\n"
    )


def cmd_validate(args, corpus: Corpus) -> tuple[dict, str]:
    summary = validate(corpus)._asdict()
    return {"validation.json": summary}, _json_text(summary) + "\n"


def cmd_journal_if(args, corpus: Corpus) -> tuple[dict, str]:
    journals = args.journal or sorted(corpus.journals)
    header = (
        "journal_id", "census_year", "window_w", "numerator", "denominator", "value",
        "denominator_policy", "self_citation_policy",
    )
    policies = _POLICY_MAP[args.denominator], _SELF_MAP[args.self_cites]
    rows = []
    for journal_id in journals:
        query = IFQuery(journal_id, args.census_year, args.window, *policies)
        result = impact_factor(corpus, query)
        rows.append((
            journal_id, args.census_year, args.window, result.numerator, result.denominator,
            _fmt(result.value), *policies,
        ))
    text = _csv_text(header, rows)
    return {"journal_if.csv": text}, text


def cmd_journal_profile(args, corpus: Corpus) -> tuple[dict, str]:
    profile = citation_age_profile(corpus, args.census_year, args.journal)
    text = _age_profile_csv(profile)
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
    return {"age_profile.csv": text, "journal_profile.json": summary}, text


def cmd_author_index(args, corpus: Corpus) -> tuple[dict, str]:
    authors = _distinct_authors(args) or sorted(corpus.author_rows)
    evaluation_year = args.evaluation_year
    if evaluation_year is None:
        if not len(corpus):
            raise CitationStatsError("empty corpus: pass --evaluation-year explicitly")
        evaluation_year = int(corpus.year.max())
    citing_years = args.citing_years
    header = ("author_id", "papers", "total_citations", "h", "g", "m", "tail_fraction")
    rows = []
    histograms = {}
    for author_id in authors:
        record = author_record(corpus, author_id, citing_years)
        h = h_index(record.counts)
        g = g_index(record.counts)
        m = m_index(h, record.first_publication_year, evaluation_year)
        hist = citation_histogram(record.counts)
        rows.append((
            author_id, len(record.counts), sum(record.counts), h, g, _fmt(m),
            _fmt(hist.tail_fraction),
        ))
        if args.histograms:
            histograms[author_id] = {
                "buckets": {str(k): v for k, v in hist.buckets.items()},
                "h": hist.h,
                "tail_fraction": _cell(hist.tail_fraction),
            }
    text = _csv_text(header, rows)
    files = {"authors.csv": text}
    if args.histograms:
        files["author_histograms.json"] = histograms
    return files, text


def cmd_compare(args, corpus: Corpus) -> tuple[dict, str]:
    dist_a, dist_b, result = _comparison(
        corpus, args.journal_a, args.journal_b, args.pub_years, args.citing_years
    )
    ratio = None
    if result.mean_a > 0:
        ratio = result.mean_b / result.mean_a
    # an id that would garble its line, such as one holding a line feed, as its JSON string
    shown = [j if j.isprintable() else _json_string(j) for j in (args.journal_a, args.journal_b)]
    lines = [
        f"P(A > B)  = {_fmt(result.p_greater)}",
        f"P(A = B)  = {_fmt(result.p_equal)}",
        f"P(A >= B) = {_fmt(result.p_at_least)}",
        f"mean A    = {_fmt(result.mean_a)}   [{shown[0]}]",
        f"mean B    = {_fmt(result.mean_b)}   [{shown[1]}]",
        f"mean B/A  = {_fmt(ratio)}",
    ]
    payload = {
        "journal_a": args.journal_a,
        "journal_b": args.journal_b,
        "publication_years": [args.pub_years[0], args.pub_years[-1]],
        "citing_years": [args.citing_years[0], args.citing_years[-1]],
        **_comparison_cells(result),
        "histogram_a": {str(k): v for k, v in dist_a.histogram.items()},
        "histogram_b": {str(k): v for k, v in dist_b.histogram.items()},
    }
    return {"comparison.json": payload}, "\n".join(lines) + "\n"


def cmd_synth(args, config) -> tuple[dict, str]:
    corpus = generate(config)
    stdout = (
        f"generated {len(corpus)} papers, {len(corpus.citing_idx)} edges "
        f"(seed {config.seed}) -> {Path(args.out) / 'corpus.jsonl'}\n"
    )
    return {"corpus.jsonl": corpus, "synth_config.json": config_to_json(config)}, stdout


def cmd_replicate(args, config) -> tuple[dict, str]:
    if args.runs < 1:
        raise UsageError("--runs must be >= 1")
    census = args.census_years
    runs = replicate(config, args.runs, census[0], census[-1], args.window)
    header = (
        "run_index", "seed", "journal_id", "pairs_used", "zero_base_pairs_skipped",
        "undefined_pairs_skipped", "mean_abs_relative_change",
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
            rows.append((
                run.run_index, run.seed, journal_id, summary.pairs_used,
                summary.zero_base_pairs_skipped, summary.undefined_pairs_skipped,
                _fmt(summary.mean_abs_relative_change),
            ))
            run_payload["journals"][journal_id] = {
                "mean_abs_relative_change": _cell(summary.mean_abs_relative_change),
                "impact_factors": {
                    str(year): _cell(value)
                    for year, value in sorted(summary.impact_factors.items())
                },
            }
        payload_runs.append(run_payload)
    text = _csv_text(header, rows)
    payload = {"census_years": [census[0], census[-1]], "window_w": args.window, "runs": payload_runs}
    return {"replicate.csv": text, "replicate.json": payload}, text


def cmd_policy(args, corpus: Corpus) -> tuple[dict, str]:
    if args.rule in ("example2", "example3") and args.census_year is None:
        raise UsageError(f"--census-year is required for {args.rule}")
    if args.rule == "example2" and args.with_divergence:
        raise UsageError("--with-divergence needs an author-level rule")
    paper_ids = args.paper_ids or []
    if args.rule == "example2" and (len(paper_ids) != 5 or len(set(paper_ids)) != 5):
        raise UsageError("--papers must list exactly 5 distinct paper ids")
    if args.rule == "example2" and not utf8_encodable([args.subject]):
        # such as an argument byte that is not UTF-8, decoded to a lone surrogate
        raise UsageError(f"--subject {args.subject!r} cannot be written as UTF-8")
    authors = _distinct_authors(args)
    if args.rule == "example2":
        tiers = build_tiers(corpus, args.census_year, args.window)
        scores = [score_example2(corpus, paper_ids, tiers, subject_id=args.subject)]
    else:
        unknown = [author_id for author_id in authors if author_id not in corpus.author_rows]
        if unknown:
            raise UnknownIdError(f"unknown author {unknown[0]!r}")
        subjects = {a: corpus.author_rows[a] for a in authors or sorted(corpus.author_rows)}
        if args.rule == "example1":
            scores = score_example1(corpus, args.core_journals, args.indexed_journals, subjects)
        else:
            lookup = impact_factors(corpus, args.census_year, args.window)
            scores = score_example3(corpus, lookup, subjects)
    header = ("subject", "rule", "score")
    rows = [(s.subject_id, s.rule, _fmt(s.score)) for s in scores]
    stdout = _csv_text(header, rows)
    files = {"policy_scores.csv": stdout}
    # One cell per points object, shared by the entries that hold it; the
    # scores keep every object, and so its id, alive.
    distinct = {id(points): points for s in scores for _, points in s.breakdown}
    cells = {key: _SharedCell(_cell(points)) for key, points in distinct.items()}

    payload = {
        "rule": args.rule,
        "scores": {
            s.subject_id: {
                "score": _cell(s.score),
                "breakdown": {pid: cells[id(points)] for pid, points in s.breakdown},
            }
            for s in scores
        },
    }
    if args.with_divergence:
        if len(scores) < 2:
            raise CitationStatsError("--with-divergence needs >= 2 subjects")
        # each score as an integer over the scores' common denominator: the
        # same order and ties, but ints hash and compare in C, Fractions in Python
        denominator = math.lcm(*(s.score.denominator for s in scores))
        by_policy = {
            s.subject_id: s.score.numerator * (denominator // s.score.denominator) for s in scores
        }
        counts = corpus.citation_counts(np.concatenate(list(subjects.values())))
        # each author's papers are one run of counts; no run is empty, the
        # case that reduceat gets wrong
        starts = np.cumsum([0, *map(len, subjects.values())])[:-1]
        by_citations = dict(zip(subjects, np.add.reduceat(counts, starts).tolist()))
        result = divergence(by_policy, by_citations)
        payload["divergence_vs_citation_counts"] = {
            "kendall_tau": None if result.kendall_tau is None else round(result.kendall_tau, 4),
            "discordant_fraction": _cell(result.discordant_fraction),
            "n_subjects": result.n_subjects,
        }
        stdout += f"kendall_tau_vs_citations = {_fmt(result.kendall_tau)}\n"
    files["policy_breakdown.json"] = payload
    return files, stdout


def cmd_report(args, corpus: Corpus) -> tuple[dict, str]:
    files: dict = {}
    owners: dict[str, str] = {}  # file name -> the journal it was written for

    def put(name, owner, text):
        """``files[name] = text``; a name claimed for two journals is a data error."""
        if owners.setdefault(name, owner) != owner:
            raise CitationStatsError(f"{owners[name]} and {owner} both map to file {name!r}")
        files[name] = text

    census = args.census_year
    var_years = args.variability_years or range(census - 4, census + 1)

    journal_sections = {}
    csv_rows = []
    for journal_id in sorted(corpus.journals):
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
        put(f"age_profile_{_safe_name(journal_id)}.csv", f"journal {journal_id!r}",
            _age_profile_csv(profile))
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
    for journal_a, journal_b in map(partial(_read_pair, journals=set(corpus.journals)), args.pair):
        dist_a, dist_b, result = _comparison(corpus, journal_a, journal_b, pub_years, citing_years)
        pair_sections.append(
            {"journal_a": journal_a, "journal_b": journal_b, **_comparison_cells(result)}
        )
        for name, dist in ((journal_a, dist_a), (journal_b, dist_b)):
            stem = f"{_safe_name(journal_a)}__vs__{_safe_name(journal_b)}__{_safe_name(name)}"
            put(f"dist_{stem}.csv", f"journal {name!r} of pair {journal_a}:{journal_b}",
                _csv_text(("citations", "articles"), dist.histogram.items()))

    report = {
        "census_year": census,
        "variability_years": [var_years[0], var_years[-1]],
        "journals": journal_sections,
        "pairs": pair_sections,
    }
    files["report.json"] = report
    files["journals.csv"] = _csv_text(
        ("journal_id", "if_w2", "if_w5", "if_w10", "coverage_w2", "variability",
         "self_citation_fraction"),
        csv_rows,
    )
    stdout = (
        f"report: {len(journal_sections)} journal section(s), "
        f"{len(pair_sections)} pair section(s) -> {Path(args.out) / 'report.json'}\n"
    )
    return files, stdout


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _pair(text: str) -> list[tuple[str, str]]:
    """Each reading of ``A:B``: a split at one colon into two nonempty parts."""
    readings = [(text[:i], text[i + 1 :]) for i in range(1, len(text) - 1) if text[i] == ":"]
    if not readings:
        raise argparse.ArgumentTypeError(f"expected JOURNAL_A:JOURNAL_B, got {text!r}")
    return readings


def _read_pair(readings: list, journals: set) -> tuple[str, str]:
    """A ``--pair``'s one reading with a journal on each side; with none, its only reading."""
    text = ":".join(readings[0])
    known = [pair for pair in readings if set(pair) <= journals]
    if len(known) > 1:
        raise UsageError(f"--pair {text!r} has {len(known)} readings: " + ", ".join(
            f"{a!r} vs {b!r}" for a, b in known))
    if not known and text.count(":") != 1:
        raise UsageError(f"argument --pair: expected JOURNAL_A:JOURNAL_B, got {text!r}")
    return (known or readings)[0]


def build_parser() -> _Parser:
    parser = _Parser(prog="citestats", description=__doc__)
    parser.add_argument("--version", action="version", version=f"citestats {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def command(name, func, help, synthetic=False):
        """A subcommand's parser with its input options and ``--out``."""
        p = sub.add_parser(name, help=help)
        if synthetic:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--config", help="synthetic-corpus config (JSON file)")
            group.add_argument("--preset", choices=sorted(PRESETS), help="shipped preset")
            p.add_argument("--seed", type=int, help="override the config seed")
        else:
            p.add_argument("--input", required=True, help="JSON-lines corpus file")
            p.add_argument(
                "--strict", action="store_true", help="reject records with unknown fields"
            )
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.set_defaults(func=func, synthetic=synthetic)
        return p

    command("ingest", cmd_ingest, "load, normalize and re-emit a corpus")
    command("validate", cmd_validate, "report data anomalies")

    p = command("journal-if", cmd_journal_if, "windowed impact factors")
    p.add_argument("--census-year", type=_year, required=True)
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--denominator", choices=_POLICY_MAP, default="substantive")
    p.add_argument("--self-cites", choices=_SELF_MAP, default="include")
    p.add_argument("--journal", action="append", help="restrict to a journal (repeatable)")

    p = command("journal-profile", cmd_journal_profile, "citation-age profile")
    p.add_argument("--census-year", type=_year, required=True)
    p.add_argument("--journal", help="restrict cited side to a journal")

    p = command("author-index", cmd_author_index, "per-author h/g/m indices")
    p.add_argument("--author", action="append", help="restrict to an author (repeatable)")
    p.add_argument("--citing-years", type=_year_span, help="LO:HI citing-year window")
    p.add_argument("--evaluation-year", type=_year, help="m-index evaluation year")
    p.add_argument("--histograms", action="store_true", help="dump JSON histograms")

    p = command("compare", cmd_compare, "misranking probability between two journals")
    p.add_argument("--journal-a", required=True)
    p.add_argument("--journal-b", required=True)
    p.add_argument("--pub-years", type=_year_span, required=True, help="LO:HI publication years")
    p.add_argument("--citing-years", type=_year_span, required=True, help="LO:HI citing years")

    command("synth", cmd_synth, "generate a synthetic corpus", synthetic=True)

    p = command(
        "replicate", cmd_replicate, "repeated synthetic runs with metric summaries", synthetic=True
    )
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--census-years", type=_year_span, required=True, help="LO:HI census years")
    p.add_argument("--window", type=int, default=2)

    p = command("policy", cmd_policy, "institutional scoring rules")
    p.add_argument("--rule", choices=("example1", "example2", "example3"), required=True)
    p.add_argument("--census-year", type=_year, default=None)
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--author", action="append", help="subject author (repeatable)")
    p.add_argument("--papers", type=_id_list, dest="paper_ids", metavar="PAPERS",
                   help="exactly 5 paper ids (example2)")
    p.add_argument("--subject", default="papers", help="subject label for example2")
    p.add_argument("--core-journals", type=_id_list, default=[], help="comma-separated")
    p.add_argument("--indexed-journals", type=_id_list, default=[], help="comma-separated")
    p.add_argument(
        "--with-divergence",
        action="store_true",
        help="also report rank divergence vs raw citation counts",
    )

    p = command("report", cmd_report, "multi-section journal report")
    p.add_argument("--census-year", type=_year, required=True)
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

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        digest = hashlib.sha256()
        if args.synthetic:
            source = _resolve_config(args, digest)
            seeds = [source.seed]
        else:
            source, seeds = _load_file(args.input, args.strict, digest.update), []
        files, stdout = args.func(args, source)
        return _finish(args, argv, files, stdout, seeds, digest.hexdigest())
    except (CitationStatsError, OSError) as exc:
        print(f"citestats: error: {exc}", file=sys.stderr)
        # UsageError: argument values that survive argparse but violate a
        # query contract, e.g. --window 0
        return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_DATA


def entrypoint() -> None:
    """The console script: ``main`` without the cyclic garbage collector,
    which would pass over the loaded strings and scores dozens of times and
    free nothing.  A corpus is freed by reference counting, and the few
    hundred cyclic objects a run leaves do not grow with its corpus.  Nor is
    the interpreter torn down (~20 ms, numpy's modules included): the
    ``atexit`` handlers run, the streams are flushed and ``os._exit`` ends
    the process; a failed flush takes ``sys.exit``, which reports it."""
    gc.disable()
    code = main()
    atexit._run_exitfuncs()
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):
            stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
