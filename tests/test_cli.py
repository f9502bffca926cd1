"""End-to-end CLI tests: exit codes, file outputs, reproducibility."""

import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import citestats
import reference_metrics as ref
from citestats import (
    Corpus,
    IFQuery,
    InsufficientDataError,
    TierTable,
    cli,
    corpus_to_jsonl,
    load_corpus,
    validate,
)
from citestats.cli import build_parser, main
from citestats.corpus import KIND_NAMES

from conftest import awkward_text, build_corpus, rec
from test_compare import pairwise_oracle


@pytest.fixture
def if_fixture_path(tmp_path, if_fixture_corpus):
    path = tmp_path / "corpus.jsonl"
    path.write_text(corpus_to_jsonl(if_fixture_corpus))
    return path


@pytest.fixture
def compare_fixture_path(tmp_path, compare_fixture_corpus):
    path = tmp_path / "compare.jsonl"
    path.write_text(corpus_to_jsonl(compare_fixture_corpus))
    return path


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys, if_fixture_path, tmp_path):
        code = main(
            ["validate", "--input", str(if_fixture_path), "--frobnicate"]
        )
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["no-such-command"]) == 1

    def test_invalid_window_value_is_usage_error(self, capsys, if_fixture_path, tmp_path):
        code = main(
            [
                "journal-if",
                "--input", str(if_fixture_path),
                "--census-year", "2007",
                "--window", "0",
                "--out", str(tmp_path),
            ]
        )
        assert code == 1
        assert "window_w" in capsys.readouterr().err

    def test_invalid_denominator_is_usage_error(self, capsys, if_fixture_path):
        code = main(
            [
                "journal-if",
                "--input", str(if_fixture_path),
                "--census-year", "2007",
                "--denominator", "bogus",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.endswith(
            "citestats journal-if: error: argument --denominator: invalid choice: "
            "'bogus' (choose from 'substantive', 'all')\n"
        )

    def test_invalid_policy_window_is_usage_error(self, capsys, if_fixture_path, tmp_path):
        code = main(
            [
                "policy",
                "--input", str(if_fixture_path),
                "--rule", "example3",
                "--census-year", "2007",
                "--window", "0",
                "--out", str(tmp_path),
            ]
        )
        assert code == 1
        assert "window_w" in capsys.readouterr().err

    @pytest.mark.parametrize("span", ["1799:2005", "2000:2101"])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["compare", "--journal-a", "journal-a", "--journal-b", "journal-b",
              "--citing-years", "2005"], "--pub-years"),
            (["compare", "--journal-a", "journal-a", "--journal-b", "journal-b",
              "--pub-years", "2004"], "--citing-years"),
            (["author-index"], "--citing-years"),
            (["report", "--census-year", "2005"], "--variability-years"),
            (["report", "--census-year", "2005", "--pair", "journal-a:journal-b",
              "--citing-years", "2005"], "--pub-years"),
            (["report", "--census-year", "2005", "--pair", "journal-a:journal-b",
              "--pub-years", "2004"], "--citing-years"),
            (["replicate", "--preset", "volatility", "--runs", "1"], "--census-years"),
        ],
        ids=["compare-pub", "compare-citing", "author-index-citing", "report-variability",
             "report-pub", "report-citing", "replicate-census"],
    )
    def test_year_span_past_the_corpus_years_is_usage_error(
        self, capsys, compare_fixture_path, tmp_path, argv, flag, span
    ):
        # the commands build every year of a span: 1:99999999999 exhausted memory
        if argv[0] != "replicate":
            argv = [*argv, "--input", str(compare_fixture_path)]
        out = tmp_path / "out"
        assert main([*argv, flag, span, "--out", str(out)]) == 1
        assert f"argument {flag}: expected YEAR or LO:HI with 1800 <= LO <= HI <= 2100" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("year", ["1799", "2101", "99999999999999999999", "x"])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["journal-if"], "--census-year"),
            (["journal-profile"], "--census-year"),
            (["author-index"], "--evaluation-year"),
            (["policy", "--rule", "example3"], "--census-year"),
            (["report"], "--census-year"),
        ],
        ids=["journal-if", "journal-profile", "author-index", "policy", "report"],
    )
    def test_year_outside_the_corpus_years_is_usage_error(
        self, capsys, compare_fixture_path, tmp_path, argv, flag, year
    ):
        # 99999999999999999999 exited 0 with every journal-if value NA
        out = tmp_path / "out"
        code = main([*argv, "--input", str(compare_fixture_path), flag, year, "--out", str(out)])
        assert code == 1
        assert f"argument {flag}: expected YEAR with 1800 <= YEAR <= 2100, got {year!r}" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_zero_replicate_runs_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "out"
        argv = ["replicate", "--preset", "volatility", "--runs", "0", "--census-years", "2003:2005"]
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "citestats: error: --runs must be >= 1\n"
        assert not out.exists()

    def test_evaluation_year_before_first_paper_is_usage_error(
        self, capsys, if_fixture_path, tmp_path
    ):
        code = main(
            [
                "author-index",
                "--input", str(if_fixture_path),
                "--evaluation-year", "2004",
                "--out", str(tmp_path),
            ]
        )
        assert code == 1
        assert "evaluation year 2004" in capsys.readouterr().err

    def test_stray_value_error_is_not_a_usage_error(
        self, monkeypatch, if_fixture_path, tmp_path
    ):
        def broken(args, source):
            raise ValueError("a bug, not a usage error")

        monkeypatch.setattr(cli, "cmd_validate", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["validate", "--input", str(if_fixture_path), "--out", str(tmp_path)])

    def test_missing_input_file_is_data_error(self, capsys, tmp_path):
        code = main(
            ["validate", "--input", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_duplicate_id_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "dup.jsonl"
        line = corpus_to_jsonl(build_corpus(rec("p1"))).strip()
        path.write_text(line + "\n" + line + "\n")
        assert main(["validate", "--input", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "citestats: error: line 2: duplicate paper id 'p1'\n"

    @pytest.mark.parametrize("command", ["ingest", "validate"])
    @pytest.mark.parametrize("strict", [[], ["--strict"]], ids=["lenient", "strict"])
    def test_repeated_key_is_data_error_naming_the_key(self, capsys, tmp_path, command, strict):
        line = corpus_to_jsonl(build_corpus(rec("p1"))).strip()
        path = tmp_path / "repeated.jsonl"
        second = line.replace('"p1"', '"p2"').replace(',"year"', ',"year":1999,"year"')
        path.write_text(f"{line}\n{second}\n")
        out = tmp_path / "out"
        assert main([command, "--input", str(path), "--out", str(out), *strict]) == 2
        assert capsys.readouterr().err == "citestats: error: line 2: repeated key 'year'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "second_line",
        [b'{"id": "p2", "journal": "j", "year": 2000, "kind": ["x"], "authors": [], '
         b'"references": []}', b'{"id": "p\xff"}'],
        ids=["unhashable-kind", "invalid-utf8"],
    )
    def test_malformed_line_is_data_error_with_line_number(self, capsys, tmp_path, second_line):
        path = tmp_path / "bad.jsonl"
        first = corpus_to_jsonl(build_corpus(rec("p1"))).encode()
        path.write_bytes(first + second_line + b"\n")
        assert main(["validate", "--input", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "Traceback" not in err

    def test_strict_mode_rejects_unknown_fields(self, capsys, tmp_path):
        record = json.loads(corpus_to_jsonl(build_corpus(rec("p1"))).strip())
        record["doi"] = "10.1/x"
        path = tmp_path / "extra.jsonl"
        path.write_text(json.dumps(record) + "\n")
        out = tmp_path / "out"
        assert main(["validate", "--input", str(path), "--out", str(out), "--strict"]) == 2
        with pytest.warns(UserWarning, match="doi"):
            assert main(["validate", "--input", str(path), "--out", str(out)]) == 0

    @pytest.mark.parametrize(
        ("command", "field"),
        [("ingest", "id"), ("ingest", "journal"), ("ingest", "references"),
         ("author-index", "authors"), ("synth", "journal_id")],
    )
    def test_lone_surrogate_is_data_error_and_writes_nothing(
        self, capsys, tmp_path, command, field
    ):
        """A JSON escape of a lone surrogate decodes to a string UTF-8 cannot
        encode; it is reported with its line (or config field), not raised
        from the writer after --out is half written."""
        good = {"id": "p1", "journal": "j", "year": 2000, "kind": "review", "authors": ["a"],
                "references": []}
        if command == "synth":
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"seed": 1, "journals": [
                {"journal_id": "j\ud800", "articles_per_year": 2, "start_year": 2000,
                 "end_year": 2001}]}))
            argv = ["synth", "--config", str(path)]
        else:
            lone = "x\ud800" if field in ("id", "journal") else ["p1", "\udfff"]
            bad = {**good, "id": "p2", field: lone}
            path = tmp_path / "bad.jsonl"
            path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
            argv = [command, "--input", str(path)]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("citestats: error: ")
        assert ("journal_id" if command == "synth" else f"line 2: {field!r}") in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["author-index"], ["policy", "--rule", "example1", "--core-journals", "j1"]],
        ids=["author-index", "policy-example1"],
    )
    def test_duplicate_author_is_data_error_and_writes_nothing(self, capsys, tmp_path, argv):
        """An author listed twice on one paper would be counted twice for it."""
        lines = [
            {"id": "p1", "journal": "j1", "year": 2000, "kind": "research-article",
             "authors": ["a", "a"], "references": []},
            {"id": "p2", "journal": "j2", "year": 2001, "kind": "research-article",
             "authors": ["a"], "references": ["p1"]},
            {"id": "p3", "journal": "j1", "year": 2001, "kind": "research-article",
             "authors": ["b"], "references": []},
        ]
        path = tmp_path / "dup.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        out = tmp_path / "out"
        assert main([*argv, "--input", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "citestats: error: line 1: paper 'p1': duplicate author ids\n"
        assert not out.exists()


class TestValidate:
    def test_clean_corpus(self, capsys, if_fixture_path, tmp_path):
        out = tmp_path / "out"
        code = main(["validate", "--input", str(if_fixture_path), "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "validation.json").read_text())
        assert payload["unresolved_references"] == 0
        assert payload["negative_age_edges"] == 0
        assert payload["papers_without_authors"] == 0
        stdout = capsys.readouterr().out
        assert stdout == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert '"edge_count": 6' in stdout


class TestIngest:
    def test_normalized_round_trip(self, if_fixture_path, tmp_path):
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(if_fixture_path), "--out", str(out)]) == 0
        assert (out / "corpus.jsonl").read_text() == if_fixture_path.read_text()
        assert json.loads((out / "summary.json").read_text())["paper_count"] == 7

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(awkward_text(), min_size=1, max_size=3, unique=True),
        st.integers(0, 2**32),
        st.sampled_from(["\n", "\r\n"]),
        st.data(),
    )
    def test_ingest_is_a_byte_level_fixed_point(self, journals, seed, newline, data):
        """synth -> ingest reproduces synth's corpus.jsonl, and re-ingesting
        ingest's output of any valid input gives the same bytes."""
        config = {"seed": seed, "references_per_paper": 3.0, "journals": [
            {"journal_id": jid, "articles_per_year": data.draw(st.integers(i == 0, 3)),
             "start_year": 2000, "end_year": data.draw(st.integers(2000, 2003))}
            for i, jid in enumerate(journals)]}  # 1-36 papers
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            config_path = tmp / "config.json"
            config_path.write_text(json.dumps(config))
            assert main(["synth", "--config", str(config_path), "--out", str(tmp / "a")]) == 0
            synthesized = (tmp / "a" / "corpus.jsonl").read_bytes()
            assert main(["ingest", "--input", str(tmp / "a" / "corpus.jsonl"),
                         "--out", str(tmp / "b")]) == 0
            assert (tmp / "b" / "corpus.jsonl").read_bytes() == synthesized

            # a prefix of the same papers (0-40 in all) plus up to 4 of any
            # kind, with unresolved references, written loosely: CRLF, blank
            # lines, ASCII escapes
            records = [json.loads(line) for line in synthesized.decode().split("\n")[:-1]]
            pool = [r["id"] for r in records] + ["ghost", "gh\u2028ost"]
            records = records[: data.draw(st.integers(0, len(records)))] + [
                {"id": f"{i}:{data.draw(awkward_text(0, 4))}", "journal": data.draw(awkward_text()),
                 "year": data.draw(st.integers(1990, 2010)),
                 "kind": data.draw(st.sampled_from(KIND_NAMES)),
                 "authors": data.draw(st.lists(awkward_text(0, 2), unique=True, max_size=3)),
                 "references": data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=3))}
                for i in range(data.draw(st.integers(0, 4)))
            ]
            lines = [json.dumps(r, ensure_ascii=data.draw(st.booleans())) for r in records]
            for _ in range(data.draw(st.integers(0, 3))):
                blank = data.draw(st.sampled_from(["", "  "]))
                lines.insert(data.draw(st.integers(0, len(lines))), blank)
            (tmp / "loose.jsonl").write_bytes(newline.join(lines).encode() + newline.encode())
            assert main(["ingest", "--input", str(tmp / "loose.jsonl"),
                         "--out", str(tmp / "c")]) == 0
            ingested = (tmp / "c" / "corpus.jsonl").read_bytes()
            assert [json.loads(line) for line in ingested.decode().split("\n")[:-1]] == records
            assert main(["ingest", "--input", str(tmp / "c" / "corpus.jsonl"),
                         "--out", str(tmp / "d")]) == 0
            assert (tmp / "d" / "corpus.jsonl").read_bytes() == ingested


class TestJournalIf:
    def test_fixture_yields_one_point_five(self, capsys, if_fixture_path, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "journal-if",
                "--input", str(if_fixture_path),
                "--census-year", "2007",
                "--window", "2",
                "--journal", "jnl-a",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out / "journal_if.csv")
        assert len(rows) == 1
        row = rows[0]
        assert row["journal_id"] == "jnl-a"
        assert float(row["value"]) == 1.5
        assert (int(row["numerator"]), int(row["denominator"])) == (6, 4)
        assert row["denominator_policy"] == "substantive-only"
        assert "1.5000" in capsys.readouterr().out

    def test_undefined_value_rendered_na(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(corpus_to_jsonl(build_corpus(rec("a", journal="jnl-a", year=1990))))
        out = tmp_path / "out"
        main(
            ["journal-if", "--input", str(path), "--census-year", "2007", "--out", str(out)]
        )
        assert read_csv(out / "journal_if.csv")[0]["value"] == "NA"

    def test_policy_flags_map_through(self, if_fixture_path, tmp_path):
        out = tmp_path / "out"
        main(
            [
                "journal-if",
                "--input", str(if_fixture_path),
                "--census-year", "2007",
                "--denominator", "all",
                "--self-cites", "exclude",
                "--out", str(out),
            ]
        )
        row = read_csv(out / "journal_if.csv")[0]
        assert row["denominator_policy"] == "all-items"
        assert row["self_citation_policy"] == "exclude-same-journal"


@st.composite
def corpus_lines(draw, file_safe=False):
    """JSON lines of 1-30 papers over 1-4 escape-needing journals: every
    kind, authorless papers, unresolved and negative-age references.  With
    ``file_safe``, journal i's id ends in ``-i``, so that no two journals
    share a report file name."""
    journals = draw(st.lists(awkward_text(), min_size=1, max_size=4, unique=True))
    if file_safe:
        journals = [f"{journal}-{i}" for i, journal in enumerate(journals)]
    authors = draw(st.lists(awkward_text(), min_size=1, max_size=4, unique=True))
    n = draw(st.integers(1, 30))
    records = [
        {
            "id": f"p{i}",
            "journal": draw(st.sampled_from(journals)),
            "year": draw(st.integers(2000, 2006)),
            "kind": draw(st.sampled_from(KIND_NAMES)),
            "authors": draw(st.lists(st.sampled_from(authors), unique=True, max_size=3)),
            "references": draw(st.lists(  # p{n} and p{n + 1} are unresolved
                st.integers(0, n + 1).filter(lambda k: k != i).map("p{}".format),
                unique=True, max_size=6,
            )),
        }
        for i in range(n)
    ]
    ensure_ascii = draw(st.booleans())
    return [json.dumps(r, ensure_ascii=ensure_ascii) for r in records]


def _corpus_file(tmp, lines):
    """The lines written as a corpus file, and the record oracle's corpus of it."""
    path = Path(tmp) / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, ref.load_corpus(path.read_bytes().split(b"\n"))


def _journals(oracle):
    """The journal ids of the oracle's records, in order of first appearance."""
    return list(dict.fromkeys(p.journal_id for p in ref.records(oracle).values()))


def _authors(oracle):
    """The author ids of the oracle's records, sorted."""
    return sorted({a for p in ref.records(oracle).values() for a in p.author_ids})


def _printed(journal_id):
    """A journal id as compare prints it: as is, or as a JSON string if unprintable."""
    return journal_id if journal_id.isprintable() else json.dumps(journal_id)


def _decimal(value):
    return "NA" if value is None else f"{float(value):.4f}"


# no shrink phase: each example runs five commands, and shrinking a failure
# took minutes where finding it takes a second
@settings(max_examples=25, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(corpus_lines(), st.integers(2000, 2008), st.integers(1, 3),
       st.none() | st.tuples(st.integers(2000, 2007), st.integers(0, 3)))
@example(  # a lone "\r" in a CSV cell: unquoted, it ended the row for any reader
    [json.dumps({"id": "p0", "journal": "j\r0", "year": 2003, "kind": "review",
                 "authors": ["a\r"], "references": []}),
     json.dumps({"id": "p1", "journal": "j\r0", "year": 2004, "kind": "letter",
                 "authors": ["a\r"], "references": ["p0"]})],
    2004, 1, None,
)
def test_journal_if_and_author_index_match_the_oracles(lines, census_year, window, citing):
    """Every number and NA that journal-if and author-index --histograms
    write, against the record oracles on the same file."""
    with tempfile.TemporaryDirectory() as tmp:
        path, oracle = _corpus_file(tmp, lines)
        policies = {"substantive": "substantive-only", "all": "all-items"}
        self_policies = {"include": "include", "exclude": "exclude-same-journal"}
        for denominator, self_cites in [(d, s) for d in policies for s in self_policies]:
            out = Path(tmp) / f"if-{denominator}-{self_cites}"
            assert main([
                "journal-if", "--input", str(path), "--census-year", str(census_year),
                "--window", str(window), "--denominator", denominator,
                "--self-cites", self_cites, "--out", str(out),
            ]) == 0
            rows = read_csv(out / "journal_if.csv")
            assert [row["journal_id"] for row in rows] == sorted(_journals(oracle))
            for row in rows:
                query = IFQuery(row["journal_id"], census_year, window,
                                policies[denominator], self_policies[self_cites])
                want = ref.impact_factor(oracle, query)
                assert row == {
                    "journal_id": query.journal_id, "census_year": str(census_year),
                    "window_w": str(window), "numerator": str(want.numerator),
                    "denominator": str(want.denominator), "value": _decimal(want.value),
                    "denominator_policy": query.denominator_policy,
                    "self_citation_policy": query.self_citation_policy,
                }

        citing_years = None if citing is None else range(citing[0], sum(citing) + 1)
        span = [] if citing is None else ["--citing-years", f"{citing_years[0]}:{citing_years[-1]}"]
        out = Path(tmp) / "authors"
        assert main(["author-index", "--input", str(path), "--histograms", *span,
                     "--out", str(out)]) == 0
        rows = read_csv(out / "authors.csv")
        histograms = json.loads((out / "author_histograms.json").read_text())
        assert [row["author_id"] for row in rows] == _authors(oracle)
        assert list(histograms) == _authors(oracle)
        evaluation_year = max(p.year for p in ref.records(oracle).values())
        for row in rows:
            record = ref.author_record(oracle, row["author_id"], citing_years)
            counts = record.counts
            h = sum(1 for i, c in enumerate(counts, 1) if c >= i)
            g = max(i for i in range(len(counts) + 1) if sum(counts[:i]) >= i * i)
            m = Fraction(h, max(1, evaluation_year - record.first_publication_year))
            tail = Fraction(sum(1 for c in counts if c >= h), len(counts))
            assert row == {
                "author_id": record.author_id, "papers": str(len(counts)),
                "total_citations": str(sum(counts)), "h": str(h), "g": str(g),
                "m": _decimal(m), "tail_fraction": _decimal(tail),
            }
            assert histograms[row["author_id"]] == {
                "buckets": {str(c): n for c, n in sorted(Counter(counts).items())},
                "h": h,
                "tail_fraction": {"exact": f"{tail.numerator}/{tail.denominator}",
                                  "decimal": _decimal(tail)},
            }


def _oracle_cell(value):
    if value is None:
        return {"exact": None, "decimal": "NA"}
    return {"exact": f"{value.numerator}/{value.denominator}", "decimal": _decimal(value)}


_SHARED_POINTS = [  # a's papers score 1 twice from (j1, 1 author) and once from (j2, 2 authors)
    json.dumps({"id": pid, "journal": journal, "year": year, "kind": "research-article",
                "authors": authors, "references": refs})
    for pid, journal, year, authors, refs in [
        ("p0", "j1", 2006, ["a"], []),
        ("p1", "j1", 2006, ["a"], []),
        ("p2", "j2", 2006, ["a", "b"], []),
        ("c0", "j1", 2007, ["b"], ["p0", "p1", "p2"]),
        ("c1", "j2", 2007, ["c"], ["p2"]),
        ("u0", "j3", 2007, ["d"], []),  # j3 has no defined impact factor
    ]
]


def _run(argv):
    """``main(argv)`` in process: its exit code, standard output and error."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


_THREE_TIERS = [  # in 2007, j1's 2006 paper is cited three times, j2's twice and j3's once
    json.dumps({"id": pid, "journal": journal, "year": year, "kind": "research-article",
                "authors": authors, "references": refs})
    for pid, journal, year, authors, refs in [
        ("p0", "j1", 2006, ["a"], []),
        ("p1", "j2", 2006, ["a", "b"], []),
        ("p2", "j3", 2006, ["b"], []),
        ("c0", "j1", 2007, ["c"], ["p0", "p1", "p2"]),
        ("c1", "j2", 2007, ["a", "c"], ["p0", "p1"]),
        ("c2", "j3", 2007, ["b", "c", "a"], ["p0"]),
    ]
]


# no shrink phase, as above
@settings(max_examples=20, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(corpus_lines(), st.integers(2001, 2008), st.integers(1, 3),
       st.integers(0, 15), st.integers(0, 15), st.randoms(use_true_random=False))
@example(_SHARED_POINTS, 2007, 1, 0b001, 0b010, random.Random(0))
@example(_THREE_TIERS, 2007, 1, 0b010, 0b100, random.Random(0))
def test_policy_matches_the_oracles(lines, census_year, window, core_bits, indexed_bits, rng):
    """Every score, breakdown cell and divergence number that policy writes
    for example1 and example3 (with --with-divergence over two or more
    authors) and for example2 (five of the papers), against the record
    oracles on the same file.  Bit i of ``core_bits``/``indexed_bits`` puts
    the i-th listable journal on a list."""
    with tempfile.TemporaryDirectory() as tmp:
        path, oracle = _corpus_file(tmp, lines)
        papers_of: dict[str, list] = {}  # author -> papers, in record order
        for paper in ref.records(oracle).values():
            for author_id in paper.author_ids:
                papers_of.setdefault(author_id, []).append(paper)
        journals = sorted(_journals(oracle))
        # the journal lists are split on commas and each id is stripped
        listable = [j for j in journals if "," not in j and j.strip() == j]
        core = {j for i, j in enumerate(listable) if core_bits >> i & 1}
        indexed = {j for i, j in enumerate(listable) if indexed_bits >> i & 1} - core
        impact = {
            j: ref.impact_factor(oracle, IFQuery(j, census_year, window)).value for j in journals
        }
        year_args = ["--census-year", str(census_year), "--window", str(window)]
        # example1 over every author, example3 over those it can score, in any order
        scorable = [a for a, papers in papers_of.items()
                    if all(impact[p.journal_id] is not None for p in papers)]
        runs = [(
            "example1", sorted(papers_of),
            [f"--core-journals={','.join(core)}", f"--indexed-journals={','.join(indexed)}"],
            lambda papers, subject: ref.score_example1(papers, core, indexed, subject),
        )]
        if scorable:
            subjects = rng.sample(scorable, len(scorable))
            runs.append((
                "example3", subjects, [*year_args, *(f"--author={a}" for a in subjects)],
                lambda papers, subject: ref.score_example3(papers, impact, subject),
            ))
        for rule, subjects, extra, score in runs:
            divergence = ["--with-divergence"] if len(subjects) >= 2 else []
            out = Path(tmp) / rule
            code, stdout, _ = _run(["policy", "--input", str(path), "--rule", rule, *extra,
                                    *divergence, "--out", str(out)])
            assert code == 0
            expected = [score(papers_of[a], a) for a in subjects]
            assert read_csv(out / "policy_scores.csv") == [
                {"subject": s.subject_id, "rule": rule, "score": _decimal(s.score)}
                for s in expected
            ]
            payload = json.loads((out / "policy_breakdown.json").read_text())
            assert payload.pop("rule") == rule
            assert payload.pop("scores") == {
                s.subject_id: {
                    "score": _oracle_cell(s.score),
                    "breakdown": {pid: _oracle_cell(points) for pid, points in s.breakdown},
                }
                for s in expected
            }
            if not divergence:
                assert payload == {}
                continue
            citations = {
                a: sum(ref.citations_to(oracle, p.id) for p in papers_of[a]) for a in subjects
            }
            want = ref.divergence_pairs({s.subject_id: s.score for s in expected}, citations)
            tau = want.kendall_tau
            assert payload == {"divergence_vs_citation_counts": {
                "kendall_tau": None if tau is None else round(tau, 4),
                "discordant_fraction": _oracle_cell(want.discordant_fraction),
                "n_subjects": len(subjects),
            }}
            assert stdout.endswith(f"\nkendall_tau_vs_citations = {_decimal(tau)}\n")

        # over every author, example3 names the least journal id it cannot score
        unscored = min((p.journal_id for papers in papers_of.values() for p in papers
                        if impact[p.journal_id] is None), default=None)
        if unscored is not None:
            out = Path(tmp) / "unscored"
            code, _, stderr = _run(["policy", "--input", str(path), "--rule", "example3",
                                    *year_args, "--out", str(out)])
            assert (code, stderr) == (2, (
                f"citestats: error: journal {unscored!r} has no defined impact factor\n"
            ))
            assert not out.exists()

        # example2 over five papers, in any order, on the oracle's tier table:
        # the defined impact factors best first, ties by journal id, in thirds
        records = list(ref.records(oracle).values())
        if len(records) < 5:
            return
        five = rng.sample(records, 5)
        out = Path(tmp) / "example2"
        code, stdout, stderr = _run(["policy", "--input", str(path), "--rule", "example2",
                                     *year_args, f"--papers={','.join(p.id for p in five)}",
                                     "--subject=five", "--out", str(out)])
        defined = sorted(((j, v) for j, v in impact.items() if v is not None),
                         key=lambda item: (-item[1], item[0]))
        if len(defined) < 3:
            assert (code, stderr) == (2, (
                "citestats: error: tier table needs >= 3 journals with defined impact factors, "
                f"got {len(defined)}\n"
            ))
            assert not out.exists()
            return
        third, extra = divmod(len(defined), 3)
        names = [name for i, name in enumerate(("top", "middle", "bottom"))
                 for _ in range(third + (i < extra))]
        tiers = TierTable({j: name for (j, _), name in zip(defined, names)}, census_year, window,
                          tuple(defined))
        want = ref.score_example2(five, tiers, "five")
        assert code == 0
        assert stdout == f"subject,rule,score\nfive,example2,{_decimal(want.score)}\n"
        assert read_csv(out / "policy_scores.csv") == [
            {"subject": "five", "rule": "example2", "score": _decimal(want.score)}
        ]
        assert json.loads((out / "policy_breakdown.json").read_text()) == {
            "rule": "example2",
            "scores": {"five": {
                "score": _oracle_cell(want.score),
                "breakdown": {pid: _oracle_cell(points) for pid, points in want.breakdown},
            }},
        }


def _csv_rows(header, rows):
    """``read_csv``'s rows of ``rows`` under ``header``."""
    return [dict(zip(header, map(str, row))) for row in rows]


# no shrink phase, as above
@settings(max_examples=20, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(corpus_lines(), st.integers(1999, 2008))
@pytest.mark.filterwarnings("ignore:no papers published in census year")
def test_validate_and_journal_profile_match_the_oracles(lines, census_year):
    """Every count and cell that validate and journal-profile (with and
    without --journal) write, against the record oracles on the same file."""
    with tempfile.TemporaryDirectory() as tmp:
        path, oracle = _corpus_file(tmp, lines)
        out = Path(tmp) / "validate"
        code, stdout, _ = _run(["validate", "--input", str(path), "--out", str(out)])
        assert code == 0
        want = ref.validate(oracle)._asdict()
        assert json.loads(stdout) == json.loads((out / "validation.json").read_text()) == want

        for i, journal in enumerate((None, *_journals(oracle))):
            out = Path(tmp) / f"profile-{i}"
            restrict = [] if journal is None else [f"--journal={journal}"]
            code, stdout, _ = _run(["journal-profile", "--input", str(path), "--census-year",
                                    str(census_year), *restrict, "--out", str(out)])
            assert code == 0
            profile = ref.citation_age_profile(oracle, census_year, journal)
            assert read_csv(out / "age_profile.csv") == _csv_rows(
                ("age", "citations"), sorted(profile.items())
            )
            want = {"census_year": census_year, "journal": journal,
                    "total_citations": sum(profile.values())}
            if journal is not None:
                want["window_coverage"] = {
                    f"w{w}": _oracle_cell(ref.window_coverage(oracle, journal, census_year, w))
                    for w in (2, 5, 10)
                }
                want["self_citation_fraction"] = _oracle_cell(
                    ref.self_citation_fraction(oracle, journal)
                )
            assert json.loads((out / "journal_profile.json").read_text()) == want


def _comparison_oracle(oracle, journal_a, journal_b, pub_years, citing_years):
    """Both journals' per-article counts and their comparison cells, by the
    pair enumeration; raises as the library does when a journal has no articles."""
    counts_a, counts_b = (
        ref.journal_counts(oracle, journal, pub_years, citing_years)
        for journal in (journal_a, journal_b)
    )
    p_greater, p_equal = pairwise_oracle(
        SimpleNamespace(histogram=Counter(counts_a)), SimpleNamespace(histogram=Counter(counts_b))
    )
    mean_a, mean_b = Fraction(sum(counts_a), len(counts_a)), Fraction(sum(counts_b), len(counts_b))
    cells = {"p_greater": p_greater, "p_equal": p_equal, "p_at_least": p_greater + p_equal,
             "mean_a": mean_a, "mean_b": mean_b}
    return counts_a, counts_b, cells


def _histogram(counts):
    return sorted(Counter(counts).items())


_SPANS = st.none() | st.tuples(st.integers(1999, 2008), st.integers(0, 3)).map(
    lambda t: range(t[0], t[0] + t[1] + 1)
)


def _span_args(flag, span):
    return [] if span is None else [flag, f"{span[0]}:{span[-1]}"]


_VARIABILITY_CASES = [  # variability with a zero base, with no usable pair, and undefined
    json.dumps({"id": pid, "journal": journal, "year": year, "kind": kind, "authors": [],
                "references": refs})
    for pid, journal, year, kind, refs in [
        *((f"a{y}", "a-0", y, "research-article", []) for y in range(2003, 2007)),
        *((f"b{y}", "b-1", y, "research-article", []) for y in range(2003, 2007)),
        ("c0", "c-2", 2004, "book", []),
        ("c1", "c-2", 2006, "book", ["a2004"]),
        ("c2", "c-2", 2007, "book", ["a2005", "a2006", "c0"]),
    ]
]


_COLON_CASES = [  # journal ids holding colons, and one holding a line feed
    json.dumps({"id": f"{kind}{k}", "journal": journal, "year": year, "kind": "research-article",
                "authors": [], "references": refs})
    for k, journal in enumerate(["\n-0", "a", "a:b", "b:c", "c"])
    for kind, year, refs in [("p", 2005, []), ("q", 2007, [f"p{k}", f"p{(k + 1) % 5}"])]
]


# no shrink phase, as above
@settings(max_examples=20, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(corpus_lines(file_safe=True), st.integers(2000, 2008), _SPANS, _SPANS, _SPANS,
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=2),
       st.booleans())
@example(_VARIABILITY_CASES, 2007, range(2005, 2008), None, None, [(0, 1), (1, 1)], False)
@example(_VARIABILITY_CASES, 2008, None, range(2003, 2006), range(2006, 2008), [(0, 0)], False)
@example(_COLON_CASES, 2007, None, None, None, [(1, 2), (0, 3)], False)  # a:a:b, "\n-0":b:c
@example(_COLON_CASES, 2007, None, None, None, [(1, 2), (1, 3)], False)  # a:b:c reads two ways
@pytest.mark.filterwarnings("ignore:no papers published in census year")
def test_compare_and_report_match_the_oracles(
    lines, census_year, variability_years, pub_years, citing_years, picks, rejected_too
):
    """Every probability, mean, histogram, section cell and NA that compare
    and report write, against the pair enumeration and the record oracles
    on the same file; a journal with no articles in a pair's years is the
    data error the oracle raises.  ``picks`` index the pairs' journals; the
    report gets the pairs that compare accepts, and with ``rejected_too``
    all of them."""
    with tempfile.TemporaryDirectory() as tmp:
        path, oracle = _corpus_file(tmp, lines)
        journals = sorted(_journals(oracle))
        pairs = [(journals[i % len(journals)], journals[k % len(journals)]) for i, k in picks]
        pub = pub_years or range(census_year - 5, census_year)
        citing = citing_years or range(census_year, census_year + 1)
        comparisons, accepted = [], []
        rejected = {}  # pair -> the data error compare exits with
        for i, (journal_a, journal_b) in enumerate(pairs):
            argv = ["compare", "--input", str(path), f"--journal-a={journal_a}",
                    f"--journal-b={journal_b}", "--pub-years", f"{pub[0]}:{pub[-1]}",
                    "--citing-years", f"{citing[0]}:{citing[-1]}", "--out", f"{tmp}/compare-{i}"]
            code, stdout, stderr = _run(argv)
            try:
                counts_a, counts_b, cells = _comparison_oracle(
                    oracle, journal_a, journal_b, pub, citing
                )
            except InsufficientDataError as exc:
                assert (code, stdout, stderr) == (2, "", f"citestats: error: {exc}\n")
                assert not Path(f"{tmp}/compare-{i}").exists()
                rejected[journal_a, journal_b] = exc
                continue
            assert code == 0
            comparisons.append((journal_a, journal_b, counts_a, counts_b, cells))
            accepted.append((journal_a, journal_b))
            ratio = cells["mean_b"] / cells["mean_a"] if cells["mean_a"] else None
            assert stdout == "".join(line + "\n" for line in [
                f"P(A > B)  = {_decimal(cells['p_greater'])}",
                f"P(A = B)  = {_decimal(cells['p_equal'])}",
                f"P(A >= B) = {_decimal(cells['p_at_least'])}",
                f"mean A    = {_decimal(cells['mean_a'])}   [{_printed(journal_a)}]",
                f"mean B    = {_decimal(cells['mean_b'])}   [{_printed(journal_b)}]",
                f"mean B/A  = {_decimal(ratio)}",
            ])
            assert json.loads(Path(f"{tmp}/compare-{i}/comparison.json").read_text()) == {
                "journal_a": journal_a, "journal_b": journal_b,
                "publication_years": [pub[0], pub[-1]], "citing_years": [citing[0], citing[-1]],
                **{name: _oracle_cell(value) for name, value in cells.items()},
                "histogram_a": {str(k): n for k, n in _histogram(counts_a)},
                "histogram_b": {str(k): n for k, n in _histogram(counts_b)},
            }

        out = Path(tmp) / "report"
        given = pairs if rejected_too else accepted
        code, _, stderr = _run([
            "report", "--input", str(path), "--census-year", str(census_year),
            *_span_args("--variability-years", variability_years),
            *_span_args("--pub-years", pub_years), *_span_args("--citing-years", citing_years),
            *(f"--pair={a}:{b}" for a, b in given),
            "--out", str(out),
        ])
        # the first pair that is read two ways (a usage error) or that compare rejects
        for journal_a, journal_b in given:
            text = f"{journal_a}:{journal_b}"
            readings = [(text[:i], text[i + 1 :]) for i in range(1, len(text) - 1)
                        if text[i] == ":" and {text[:i], text[i + 1 :]} <= set(journals)]
            if len(readings) > 1:
                assert (code, stderr) == (1, f"citestats: error: --pair {text!r} has "
                                          f"{len(readings)} readings: " + ", ".join(
                                              f"{a!r} vs {b!r}" for a, b in readings) + "\n")
            elif (journal_a, journal_b) in rejected:
                error = rejected[journal_a, journal_b]
                assert (code, stderr) == (2, f"citestats: error: {error}\n")
            else:
                continue
            assert not out.exists()
            return
        assert code == 0
        var_years = variability_years or range(census_year - 4, census_year + 1)
        sections, rows, files = {}, [], {"report.json", "journals.csv", "manifest.json"}
        for journal in journals:
            results = {w: ref.impact_factor(oracle, IFQuery(journal, census_year, w))
                       for w in cli.REPORT_WINDOWS}
            coverage = ref.window_coverage(oracle, journal, census_year, 2)
            self_cites = ref.self_citation_fraction(oracle, journal)
            try:
                change, used, zero, undefined = ref.if_variability(
                    oracle, journal, var_years[0], var_years[-1]
                )
            except InsufficientDataError as exc:
                variability, change = {"undefined": str(exc)}, None
            else:
                variability = {"mean_abs_relative_change": _oracle_cell(change),
                               "pairs_used": used, "zero_base_pairs_skipped": zero,
                               "undefined_pairs_skipped": undefined}
            sections[journal] = {
                "impact_factor": {
                    f"w{w}": {"numerator": r.numerator, "denominator": r.denominator,
                              "value": _oracle_cell(r.value)}
                    for w, r in results.items()
                },
                "window_coverage_w2": _oracle_cell(coverage),
                "self_citation_fraction": _oracle_cell(self_cites),
                "variability": variability,
            }
            rows.append((journal, *(_decimal(r.value) for r in results.values()),
                         _decimal(coverage), _decimal(change), _decimal(self_cites)))
            name = f"age_profile_{cli._safe_name(journal)}.csv"
            profile = ref.citation_age_profile(oracle, census_year, journal)
            assert read_csv(out / name) == _csv_rows(("age", "citations"), sorted(profile.items()))
            files.add(name)
        assert read_csv(out / "journals.csv") == _csv_rows(
            ("journal_id", "if_w2", "if_w5", "if_w10", "coverage_w2", "variability",
             "self_citation_fraction"), rows,
        )
        for journal_a, journal_b, counts_a, counts_b, _ in comparisons:
            for journal, counts in ((journal_a, counts_a), (journal_b, counts_b)):
                stem = "__".join(map(cli._safe_name, (journal_a, "vs", journal_b, journal)))
                assert read_csv(out / f"dist_{stem}.csv") == _csv_rows(
                    ("citations", "articles"), _histogram(counts)
                )
                files.add(f"dist_{stem}.csv")
        assert set(os.listdir(out)) == files
        assert json.loads((out / "report.json").read_text()) == {
            "census_year": census_year,
            "variability_years": [var_years[0], var_years[-1]],
            "journals": sections,
            "pairs": [
                {"journal_a": journal_a, "journal_b": journal_b,
                 **{name: _oracle_cell(value) for name, value in cells.items()}}
                for journal_a, journal_b, _, _, cells in comparisons
            ],
        }


class TestJournalProfile:
    def test_age_histogram(self, capsys, if_fixture_path, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "journal-profile",
                "--input", str(if_fixture_path),
                "--census-year", "2007",
                "--journal", "jnl-a",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out / "age_profile.csv")
        # edge enumeration: 4 citations to the 2005 papers, 2 to the 2006 ones
        assert {r["age"]: r["citations"] for r in rows} == {"1": "2", "2": "4"}
        summary = json.loads((out / "journal_profile.json").read_text())
        assert summary["window_coverage"]["w2"]["exact"] == "1/1"


class TestAuthorIndex:
    def test_columns_and_values(self, tmp_path):
        corpus = build_corpus(
            rec("p1", year=2000, authors=("alice",)),
            rec("p2", year=2001, authors=("alice",)),
            rec("c1", year=2002, authors=("bob",), refs=("p1", "p2")),
            rec("c2", year=2003, authors=("bob",), refs=("p1",)),
        )
        path = tmp_path / "c.jsonl"
        path.write_text(corpus_to_jsonl(corpus))
        out = tmp_path / "out"
        code = main(
            [
                "author-index",
                "--input", str(path),
                "--author", "alice",
                "--evaluation-year", "2005",
                "--histograms",
                "--out", str(out),
            ]
        )
        assert code == 0
        row = read_csv(out / "authors.csv")[0]
        assert row["author_id"] == "alice"
        assert (row["papers"], row["total_citations"]) == ("2", "3")
        assert (row["h"], row["g"]) == ("1", "1")
        assert row["m"] == "0.2000"  # h=1 over 5 elapsed years
        histograms = json.loads((out / "author_histograms.json").read_text())
        assert histograms["alice"]["buckets"] == {"1": 1, "2": 1}


class TestCompare:
    def test_prints_sixty_percent(self, capsys, compare_fixture_path, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "compare",
                "--input", str(compare_fixture_path),
                "--journal-a", "journal-a",
                "--journal-b", "journal-b",
                "--pub-years", "2004",
                "--citing-years", "2005",
                "--out", str(out),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "P(A >= B) = 0.6000" in stdout
        assert "mean B/A  = 2.0000" in stdout
        payload = json.loads((out / "comparison.json").read_text())
        assert payload["p_at_least"]["exact"] == "3/5"
        assert payload["histogram_b"] == {"0": 60, "2": 40}


class TestSynthAndReplicate:
    CONFIG = {
        "seed": 99,
        "journals": [
            {"journal_id": "alpha", "articles_per_year": 10,
             "start_year": 1998, "end_year": 2006, "quality_scale": 1.0},
            {"journal_id": "beta", "articles_per_year": 5,
             "start_year": 1998, "end_year": 2006, "quality_scale": 1.0},
        ],
        "latent_mu": 0.5,
        "latent_sigma": 0.8,
        "zero_inflation": 0.3,
        "half_life_years": 10.0,
        "references_per_paper": 6.0,
    }

    def test_synth_writes_corpus_and_config(self, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(self.CONFIG))
        out = tmp_path / "out"
        code = main(["synth", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        assert (out / "corpus.jsonl").exists()
        echoed = json.loads((out / "synth_config.json").read_text())
        assert echoed["seed"] == 99
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [99]
        edge_count = validate(load_corpus(out / "corpus.jsonl")).edge_count
        assert f" papers, {edge_count} edges (seed 99) " in capsys.readouterr().out

    def test_seed_override_and_determinism(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(self.CONFIG))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["synth", "--config", str(config_path), "--seed", "123", "--out", str(out_a)])
        main(["synth", "--config", str(config_path), "--seed", "123", "--out", str(out_b)])
        assert (out_a / "corpus.jsonl").read_bytes() == (out_b / "corpus.jsonl").read_bytes()

    def test_replicate_summary(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(self.CONFIG))
        out = tmp_path / "out"
        code = main(
            [
                "replicate",
                "--config", str(config_path),
                "--runs", "2",
                "--census-years", "2003:2006",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out / "replicate.csv")
        assert len(rows) == 4  # 2 runs x 2 journals
        assert {r["journal_id"] for r in rows} == {"alpha", "beta"}
        payload = json.loads((out / "replicate.json").read_text())
        assert len(payload["runs"]) == 2

    @pytest.mark.parametrize("command, blocked", [("synth", "corpus.jsonl"),
                                                  ("report", "journals.csv")])
    def test_failed_write_prints_nothing_and_leaves_no_file(
        self, capsys, tmp_path, command, blocked
    ):
        """A directory in the place of one output file fails the write: no
        success line is printed, and the files written before it are removed."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(self.CONFIG))
        argv = ["synth", "--config", str(config_path)]
        if command == "report":
            assert main([*argv, "--out", str(tmp_path)]) == 0
            argv = ["report", "--input", str(tmp_path / "corpus.jsonl"), "--census-year", "2005"]
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err.startswith("citestats: error: [Errno 21] Is a directory")
        assert list(out.iterdir()) == [out / blocked]

    @pytest.mark.parametrize("content", ["x\udcff\n", {"a": "ok", "b": [1, {2, 3}]}],
                             ids=["csv-lone-surrogate", "json-set"])
    def test_write_failing_partway_leaves_no_file(self, tmp_path, content):
        """A file that fails after it is opened, on a string UTF-8 cannot
        encode or a value JSON cannot hold, is removed, as is the file written
        before it."""
        out = tmp_path / "out"
        files = {"first.csv": "a\n", "second": content}
        with pytest.raises((UnicodeEncodeError, TypeError)):
            cli._finish(SimpleNamespace(out=str(out)), [], files, "", [], "")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("case", ["report-unknown-pair-journal", "synth-zero-papers"])
    def test_failing_command_writes_nothing(self, capsys, tmp_path, case):
        # one fails after the corpus is loaded, the other inside generate
        if case == "report-unknown-pair-journal":
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps(self.CONFIG))
            assert main(["synth", "--config", str(config_path), "--out", str(tmp_path)]) == 0
            argv = [
                "report", "--input", str(tmp_path / "corpus.jsonl"), "--census-year", "2005",
                "--pair", "alpha:no-such-journal",
            ]
        else:
            journals = [dict(j, articles_per_year=0) for j in self.CONFIG["journals"]]
            config_path = tmp_path / "zero.json"
            config_path.write_text(json.dumps(dict(self.CONFIG, journals=journals)))
            argv = ["synth", "--config", str(config_path)]
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("citestats: error: ")
        assert not out.exists()  # no manifest, no partial CSV


class TestPolicy:
    def _author_corpus_path(self, tmp_path):
        corpus = build_corpus(
            rec("p1", journal="core-j", year=2006, authors=("alice",)),
            rec("p2", journal="indexed-j", year=2006, authors=("alice", "bob")),
            rec("p3", journal="obscure-j", year=2006, authors=("bob",)),
            rec("c1", journal="src", year=2007, authors=("carol",), refs=("p1", "p2", "p3")),
        )
        path = tmp_path / "c.jsonl"
        path.write_text(corpus_to_jsonl(corpus))
        return path

    def test_example1_scores(self, tmp_path):
        path = self._author_corpus_path(tmp_path)
        out = tmp_path / "out"
        code = main(
            [
                "policy",
                "--input", str(path),
                "--rule", "example1",
                "--core-journals", "core-j",
                "--indexed-journals", "indexed-j",
                "--out", str(out),
            ]
        )
        assert code == 0
        scores = {r["subject"]: r["score"] for r in read_csv(out / "policy_scores.csv")}
        assert scores["alice"] == "25.0000"
        assert scores["bob"] == "10.0000"

    def test_example3_requires_census_year(self, capsys, tmp_path):
        path = self._author_corpus_path(tmp_path)
        out = tmp_path / "out"
        code = main(["policy", "--input", str(path), "--rule", "example3", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "citestats: error: --census-year is required for example3\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            (
                "policy", ["--rule", "example2", "--census-year", "2007", "--papers", "p1,p2"],
                "--papers must list exactly 5 distinct paper ids",
            ),
            (
                "policy",
                ["--rule", "example2", "--census-year", "2007", "--papers", "p1,p1,p2,p3,c1"],
                "--papers must list exactly 5 distinct paper ids",
            ),
            (
                "policy",
                ["--rule", "example2", "--census-year", "2007", "--papers", "p1,p2,p3,c1,p1",
                 "--with-divergence"],
                "--with-divergence needs an author-level rule",
            ),
            (
                "policy",
                ["--rule", "example1", "--author", "bob", "--author", "alice", "--author", "bob"],
                "--author must not name an author twice",
            ),
            (
                "author-index", ["--author", "alice", "--author", "alice", "--histograms"],
                "--author must not name an author twice",
            ),
            (
                "policy",
                ["--rule", "example3", "--census-year", "2007", "--author", "alice",
                 "--author", "alice", "--with-divergence"],
                "--author must not name an author twice",
            ),
        ],
        ids=["papers-count", "papers-repeated", "divergence-example2", "author-repeated",
             "author-index-author-repeated", "author-repeated-divergence"],
    )
    def test_argument_errors_are_usage_errors(self, capsys, tmp_path, command, extra, message):
        path = self._author_corpus_path(tmp_path)
        out = tmp_path / "out"
        assert main([command, "--input", str(path), *extra, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"citestats: error: {message}\n"
        assert not out.exists()

    def test_divergence_over_one_subject_is_data_error(self, capsys, tmp_path):
        path = self._author_corpus_path(tmp_path)
        out = tmp_path / "out"
        argv = ["policy", "--input", str(path), "--rule", "example1", "--author", "alice"]
        assert main([*argv, "--with-divergence", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "citestats: error: --with-divergence needs >= 2 subjects\n"
        assert not out.exists()

    def test_example3_with_divergence(self, tmp_path):
        path = self._author_corpus_path(tmp_path)
        out = tmp_path / "out"
        code = main(
            [
                "policy",
                "--input", str(path),
                "--rule", "example3",
                "--census-year", "2007",
                "--author", "alice",
                "--author", "bob",
                "--with-divergence",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "policy_breakdown.json").read_text())
        assert "divergence_vs_citation_counts" in payload
        # alice: p1 solo (IF 1) + p2 half (IF 1) = 1.5; bob: 0.5 + 1 = 1.5
        assert payload["scores"]["alice"]["score"]["exact"] == "3/2"
        assert payload["scores"]["alice"]["breakdown"] == {
            "p1": {"exact": "1/1", "decimal": "1.0000"},
            "p2": {"exact": "1/2", "decimal": "0.5000"},
        }
        assert payload["scores"]["bob"]["breakdown"] == {
            "p2": {"exact": "1/2", "decimal": "0.5000"},
            "p3": {"exact": "1/1", "decimal": "1.0000"},
        }

    def test_example3_breakdown_cell_per_value(self, tmp_path):
        # IF(j1) = 1/1 and IF(j2) = 4/2: two shares with one denominator
        corpus = build_corpus(
            rec("p1", journal="j1", year=2006, authors=("alice",)),
            rec("p2", journal="j2", year=2006, authors=("alice",)),
            rec("p3", journal="j2", year=2006, authors=("alice", "bob")),
            rec("c1", journal="src", year=2007, refs=("p1", "p2", "p3")),
            rec("c2", journal="src", year=2007, refs=("p2", "p3")),
        )
        path = tmp_path / "c.jsonl"
        path.write_text(corpus_to_jsonl(corpus))
        out = tmp_path / "out"
        argv = ["policy", "--input", str(path), "--rule", "example3", "--census-year", "2007"]
        code = main([*argv, "--author", "alice", "--author", "bob", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "policy_breakdown.json").read_text())
        one = {"exact": "1/1", "decimal": "1.0000"}
        two = {"exact": "2/1", "decimal": "2.0000"}
        assert payload["scores"]["alice"]["breakdown"] == {"p1": one, "p2": two, "p3": one}
        assert payload["scores"]["alice"]["score"] == {"exact": "4/1", "decimal": "4.0000"}
        assert payload["scores"]["bob"]["breakdown"] == {"p3": one}

    def test_subject_not_utf8_is_a_usage_error_and_writes_nothing(self, capsys, tmp_path):
        """A ``--subject`` byte that is not UTF-8 reaches ``sys.argv`` as a lone
        surrogate, which no output file can hold."""
        path = tmp_path / "c.jsonl"
        path.write_text(corpus_to_jsonl(build_corpus(*(rec(f"p{i}") for i in range(5)))))
        out = tmp_path / "out"
        argv = ["policy", "--input", str(path), "--rule", "example2", "--census-year", "2001",
                "--papers", "p0,p1,p2,p3,p4", "--subject", "\udcff", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "citestats: error: --subject '\\udcff' cannot be written as UTF-8\n"
        assert not out.exists()

    def test_example2_five_papers(self, tmp_path):
        records = []
        for i, journal in enumerate(["t", "m", "b"]):
            pid = f"{journal}-art"
            records.append(rec(pid, journal=journal, year=2006))
            for c in range(3 - i):
                records.append(rec(f"c-{journal}{c}", journal="src", year=2007, refs=(pid,)))
        # published before the window, so they don't dilute journal t's IF
        records += [rec(f"five-{i}", journal="t", year=2004) for i in range(2)]
        path = tmp_path / "c.jsonl"
        path.write_text(corpus_to_jsonl(build_corpus(*records)))
        out = tmp_path / "out"
        code = main(
            [
                "policy",
                "--input", str(path),
                "--rule", "example2",
                "--census-year", "2007",
                "--papers", "t-art,m-art,b-art,five-0,five-1",
                "--subject", "candidate",
                "--out", str(out),
            ]
        )
        assert code == 0
        row = read_csv(out / "policy_scores.csv")[0]
        assert row["subject"] == "candidate"
        # 3 + 2 + 1 + 3 + 3 (five-* sit in the top-tier journal)
        assert float(row["score"]) == 12.0


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200) | st.integers(max_value=-(2**200)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x1F) | st.sampled_from('"\\/\x7f')),
)


def _nested(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=6), children, max_size=4)
    )


JSON_VALUES = st.recursive(JSON_SCALARS, _nested, max_leaves=30)


@st.composite
def shared_leaf_payloads(draw):
    """Values in which the same dict-of-scalars objects recur, at one depth
    and at several, marked as shared or not."""
    cells = draw(
        st.lists(
            st.builds(
                lambda marked, cell: marked(cell),
                st.sampled_from((dict, cli._SharedCell)),
                st.dictionaries(st.text(max_size=4), JSON_SCALARS, max_size=3),
            ),
            min_size=1,
            max_size=3,
        )
    )
    return draw(st.recursive(st.sampled_from(cells) | JSON_SCALARS, _nested, max_leaves=40))


SHARED_CELL = cli._SharedCell({"decimal": "0.5000", "exact": "1/2", "é": None})


class TestJsonText:
    @settings(max_examples=500, deadline=None)
    @given(JSON_VALUES)
    @example({"b": [1, {"a": ()}, {}], "a": "é\u2028\U0001f600\"\\\n\x00"})
    @example([float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 10**40, True, None])
    def test_matches_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    @settings(max_examples=500, deadline=None)
    @given(shared_leaf_payloads())
    @example({"a": SHARED_CELL, "b": [SHARED_CELL, {"c": SHARED_CELL}], "d": (SHARED_CELL, {})})
    @example([SHARED_CELL, [SHARED_CELL, [SHARED_CELL]], SHARED_CELL, [], {}])
    def test_shared_leaf_dicts_match_json_dumps(self, value):
        assert cli._json_text(value) + "\n" == json.dumps(value, indent=2, sort_keys=True) + "\n"

    def test_unserializable_value_is_a_type_error(self):
        with pytest.raises(TypeError):
            cli._json_text({"a": {1, 2}})


class TestReport:
    def test_single_journal_no_pair_section(self, capsys, tmp_path):
        corpus = build_corpus(
            rec("a1", journal="solo", year=2006),
            rec("a2", journal="solo", year=2007, refs=("a1",)),
        )
        path = tmp_path / "c.jsonl"
        path.write_text(corpus_to_jsonl(corpus))
        out = tmp_path / "out"
        code = main(
            ["report", "--input", str(path), "--census-year", "2007", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert list(payload["journals"]) == ["solo"]
        assert payload["pairs"] == []
        assert (out / "age_profile_solo.csv").exists()

    def test_pair_spec_yields_one_comparison_block(self, compare_fixture_path, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "report",
                "--input", str(compare_fixture_path),
                "--census-year", "2005",
                "--pair", "journal-a:journal-b",
                "--pub-years", "2004",
                "--citing-years", "2005",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert len(payload["pairs"]) == 1
        assert payload["pairs"][0]["p_at_least"]["decimal"] == "0.6000"
        assert (out / "dist_journal-a__vs__journal-b__journal-a.csv").exists()

    def test_unknown_pair_journal_is_data_error(self, compare_fixture_path, tmp_path):
        code = main(
            [
                "report",
                "--input", str(compare_fixture_path),
                "--census-year", "2005",
                "--pair", "journal-a:journal-zz",
                "--pub-years", "2004",
                "--citing-years", "2005",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2

    @staticmethod
    def _report(tmp_path, papers, *extra):
        """Run ``report`` at census year 2001 on ``(id, journal, year,
        references)`` papers; return the exit code and the output directory."""
        path = tmp_path / "c.jsonl"
        path.write_text("".join(
            json.dumps({"id": pid, "journal": journal, "year": year,
                        "kind": "research-article", "authors": ["x"], "references": refs})
            + "\n"
            for pid, journal, year, refs in papers
        ))
        out = tmp_path / "out"
        return main(["report", "--input", str(path), "--census-year", "2001",
                     "--out", str(out), *extra]), out

    def test_journal_ids_sharing_a_file_name_are_a_data_error(self, capsys, tmp_path):
        """'j.1' and 'j_1' both make age_profile_j_1.csv; one would overwrite the other."""
        papers = [("a", "j.1", 2000, []), ("b", "j_1", 2001, ["a"]), ("c", "j.1", 2001, ["a"])]
        code, out = self._report(tmp_path, papers)
        assert code == 2
        assert capsys.readouterr().err == (
            "citestats: error: journal 'j.1' and journal 'j_1' both map to file "
            "'age_profile_j_1.csv'\n"
        )
        assert not out.exists()

    def test_pairs_sharing_a_file_name_are_a_data_error(self, capsys, tmp_path):
        """The two pairs' file names collide through the '__' separators alone."""
        papers = [
            (f"{journal}-{i}", journal, 1999 + i, [] if i < 2 else [f"{journal}-0"])
            for journal in ("a", "b__a", "b__a__b") for i in range(3)
        ]
        code, out = self._report(tmp_path, papers, "--pair", "a:b__a", "--pair", "a:b__a__b")
        assert code == 2
        assert capsys.readouterr().err == (
            "citestats: error: journal 'b__a' of pair a:b__a and journal 'a' of pair "
            "a:b__a__b both map to file 'dist_a__vs__b__a__b__a.csv'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("pair, code, error", [
        ("a:a:b", 0, ("a", "a:b")),
        ("b:c:a", 0, ("b:c", "a")),
        ("c:a", 0, ("c", "a")),
        ("a:b:c", 1, "--pair 'a:b:c' has 2 readings: 'a' vs 'b:c', 'a:b' vs 'c'"),
        ("a:x:y", 1, "argument --pair: expected JOURNAL_A:JOURNAL_B, got 'a:x:y'"),
        ("a:zz", 2, "unknown journal 'zz'"),
    ], ids=["a|a:b", "b:c|a", "c|a", "two-readings", "no-reading", "unknown"])
    def test_pair_splits_at_the_colon_between_two_journals(
        self, capsys, tmp_path, pair, code, error
    ):
        """A --pair is read at the one colon with a corpus journal on each
        side; read two ways it is a usage error, and read no way it fails as
        it did when --pair split at every colon."""
        papers = [
            (f"{journal}-{i}", journal, 2001 - i, [] if i else [f"{journal}-1"])
            for journal in ("a", "a:b", "b:c", "c") for i in range(2)
        ]
        assert self._report(tmp_path, papers, "--pair", pair, "--pub-years", "2000",
                            "--citing-years", "2001") == (code, tmp_path / "out")
        if code:
            assert capsys.readouterr().err == f"citestats: error: {error}\n"
            assert not (tmp_path / "out").exists()
        else:
            [section] = json.loads((tmp_path / "out" / "report.json").read_text())["pairs"]
            assert (section["journal_a"], section["journal_b"]) == error

    def test_pair_without_two_nonempty_sides_is_an_argument_error(self, capsys, tmp_path):
        assert self._report(tmp_path, [("p", "a", 2000, [])], "--pair", "a:")[0] == 1
        assert capsys.readouterr().err.endswith(
            "citestats report: error: argument --pair: expected JOURNAL_A:JOURNAL_B, got 'a:'\n"
        )

    def test_same_journal_on_both_sides_of_a_pair(self, tmp_path):
        papers = [("a", "j.1", 2000, []), ("c", "j.1", 2001, ["a"])]
        code, out = self._report(tmp_path, papers, "--pair", "j.1:j.1", "--pub-years", "2000")
        assert code == 0
        assert (out / "dist_j_1__vs__j_1__j_1.csv").read_text() == "citations,articles\n1,1\n"


class TestPresetReport:
    def test_report_on_math_preset_reproduces_calibration_numbers(self, tmp_path):
        # synth --preset math, then report: the journal section must show the
        # same coverage the acceptance experiments pin down
        synth_out = tmp_path / "synth"
        assert main(["synth", "--preset", "math", "--out", str(synth_out)]) == 0
        report_out = tmp_path / "report"
        code = main(
            [
                "report",
                "--input", str(synth_out / "corpus.jsonl"),
                "--census-year", "2010",
                "--out", str(report_out),
            ]
        )
        assert code == 0
        rows = {r["journal_id"]: r for r in read_csv(report_out / "journals.csv")}
        coverage = float(rows["math-core"]["coverage_w2"])
        assert 0.05 <= coverage <= 0.15
        # the dormant census cohort has no window items anywhere in range
        assert rows["census-cohort"]["if_w2"] == "NA"
        payload = json.loads((report_out / "report.json").read_text())
        assert "undefined" in payload["journals"]["census-cohort"]["variability"]
        ages = read_csv(report_out / "age_profile_math-core.csv")
        first_decade = sum(
            int(r["citations"]) for r in ages if 1 <= int(r["age"]) <= 10
        )
        total = sum(int(r["citations"]) for r in ages)
        assert total >= 100_000
        assert abs(first_decade / total - 0.50) <= 0.02


class TestReproducibility:
    def test_outputs_byte_identical_except_manifest_timestamp(
        self, if_fixture_path, tmp_path, monkeypatch
    ):
        # same command line run twice (from different cwds, same relative
        # --out): everything but the manifest timestamp must match
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        argv = [
            "journal-if",
            "--input", str(if_fixture_path),
            "--census-year", "2007",
            "--out", "out",
        ]
        for directory in (dir_a, dir_b):
            directory.mkdir()
            monkeypatch.chdir(directory)
            assert main(list(argv)) == 0
        assert (dir_a / "out" / "journal_if.csv").read_bytes() == (
            dir_b / "out" / "journal_if.csv"
        ).read_bytes()
        manifest_a = json.loads((dir_a / "out" / "manifest.json").read_text())
        manifest_b = json.loads((dir_b / "out" / "manifest.json").read_text())
        del manifest_a["timestamp"], manifest_b["timestamp"]
        assert manifest_a == manifest_b
        assert manifest_a["tool_version"]
        assert list(manifest_a["inputs"].values())[0]  # sha256 of the input

    def test_manifest_hashes_an_input_larger_than_one_read(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"".join(
            json.dumps({"id": f"p{i:05d}", "journal": "\ufeffj", "year": 2000, "kind": "review",
                        "authors": [f"author-{i:05d}-{k:02d}" for k in range(20)],
                        "references": [f"p{j:05d}" for j in range(max(0, i - 5), i)]},
                       ensure_ascii=False).encode() + (b"\n", b"\r\n", b"\r")[i % 3]
            for i in range(4500)
        ))
        # many reads of the binary reader: the digest takes every line as
        # read, its end and its BOM included, not the lines the loader decodes
        assert path.stat().st_size > 2 * (1 << 20)
        out = tmp_path / "out"
        assert main(["validate", "--input", str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        expected = hashlib.sha256(path.read_bytes()).hexdigest()
        assert manifest["inputs"] == {str(path): expected}


class TestWithoutCycleCollector:
    """The console script runs with the cyclic collector off.  That is safe
    while the cycles a run leaves behind do not grow with its corpus."""

    @staticmethod
    def _source(tmp_path, name, articles_per_year):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({
            "seed": 3,
            "journals": [
                {"journal_id": f"j{i}", "articles_per_year": articles_per_year,
                 "start_year": 2001, "end_year": 2010}
                for i in range(4)
            ],
            "references_per_paper": 6.0,
        }))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / name)]) == 0
        return config, tmp_path / name / "corpus.jsonl"

    def test_cycles_left_do_not_grow_with_the_corpus(self, tmp_path, capsys):
        sources = [self._source(tmp_path, "tiny", 3), self._source(tmp_path, "large", 30)]
        assert [len(load_corpus(corpus)) for _, corpus in sources] == [120, 1200]
        commands = {
            "policy": lambda config, corpus: [
                "policy", "--input", str(corpus), "--rule", "example3", "--census-year", "2010",
                "--with-divergence",
            ],
            "report": lambda config, corpus: [
                "report", "--input", str(corpus), "--census-year", "2010", "--pair", "j0:j1",
            ],
            "replicate": lambda config, corpus: [
                "replicate", "--config", str(config), "--runs", "2", "--census-years", "2005:2008",
            ],
        }
        gc.collect()
        gc.disable()
        try:
            for name, argv in commands.items():
                left = []
                # the first run may fill caches; then the tiny corpus, then the large one
                for config, corpus in [sources[0], *sources]:
                    assert main([*argv(config, corpus), "--out", str(tmp_path / name)]) == 0
                    assert not gc.isenabled()
                    left.append(gc.collect())
                assert left[1] == left[2], name
        finally:
            gc.enable()
        assert main(commands["report"](*sources[0]) + ["--out", str(tmp_path / "on")]) == 0
        assert gc.isenabled()

    def test_entrypoint_turns_the_collector_off(self, monkeypatch, capsys):
        """The console script runs the ``atexit`` handlers, then ends in
        ``os._exit``; both are stubbed, so that this process keeps its own
        handlers and goes on."""
        class Exited(Exception):
            pass

        calls = []

        def _exit(code):
            calls.append(("_exit", code, gc.isenabled()))
            raise Exited

        monkeypatch.setattr(sys, "argv", ["citestats", "--version"])
        monkeypatch.setattr(cli.atexit, "_run_exitfuncs", lambda: calls.append("atexit"))
        monkeypatch.setattr(cli.os, "_exit", _exit)
        try:
            with pytest.raises(Exited):
                cli.entrypoint()
            assert calls == ["atexit", ("_exit", 0, False)]
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert capsys.readouterr().out == f"citestats {citestats.__version__}\n"


class TestModuleEntry:
    @pytest.mark.parametrize("module", ["citestats", "citestats.cli"])
    def test_help(self, module):
        src = str(Path(citestats.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", module, "--help"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: citestats")


def test_benchmark_hooks_find_every_patched_name(monkeypatch):
    """The benchmark's traced run patches library names by hand; entering
    its hooks raises KeyError when one of them is gone, and its edge count
    is ``len(corpus.edges)``."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import layers

    from_records = Corpus.__dict__["from_records"]
    tracer = layers.Tracer()
    with layers.installed(tracer):
        corpus = Corpus.from_records(map(ref.record_dict, [
            ref.PaperRecord("a", "j", 2001, "research-article"),
            ref.PaperRecord("b", "j", 2002, "review", (), ("a", "ghost")),
            ref.PaperRecord("c", "k", 2003, "letter", (), ("a", "b")),
        ]))
    assert Corpus.__dict__["from_records"] is from_records
    assert tracer.counts["corpus.records"] == len(corpus) == 3
    assert tracer.counts["corpus.edges"] == validate(corpus).edge_count == 3


def test_benchmark_spans_fire_on_traced_commands(monkeypatch, tmp_path):
    """Every layer the benchmark times is still looked up through the names
    its hooks patch: each span below must record at least one call."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import layers

    config = tmp_path / "config.json"
    config.write_text(json.dumps(TestSynthAndReplicate.CONFIG))
    corpus = str(tmp_path / "out0" / "corpus.jsonl")
    argvs = [
        ["synth", "--config", str(config)],
        ["report", "--input", corpus, "--census-year", "2005", "--pair", "alpha:beta"],
        ["policy", "--input", corpus, "--rule", "example3", "--census-year", "2005",
         "--with-divergence"],
        ["replicate", "--config", str(config), "--runs", "1", "--census-years", "2003:2005"],
    ]
    tracer = layers.Tracer()
    with layers.installed(tracer):
        codes = [main([*argv, "--out", str(tmp_path / f"out{i}")]) for i, argv in enumerate(argvs)]
    assert codes == [0, 0, 0, 0]
    _, calls = tracer.self_times()
    spans = [
        "corpus.serialize", "synth.generate",
        *(f"journal_metrics.{name}" for name in (
            "impact_factor", "window_coverage", "self_citation", "if_variability", "age_profile",
        )),
        "compare.distribution", "compare.prob", "policy.score", "policy.divergence",
    ]
    assert [name for name in spans if not calls[name]] == []


# ---------------------------------------------------------------------------
# argument vectors built from the parser's own subcommands, flags and choices
# ---------------------------------------------------------------------------

_EDGE_VALUES = [
    "0", "-1", str(10**20), "", " ", "\t", "\xe9", "\U0001f600", "nope", "1799", "1800", "2100",
    "2101", "1800:2100", "1799:2005", "2005:2101", "2007:2005",
]
# option -> values the fuzz corpus and config accept, so that some runs
# succeed; files are placeholders for the corpus, the config, a directory
# and a missing file
_GOOD_VALUES = {
    "input": ["<corpus>"], "config": ["<config>"], "seed": ["5"], "runs": ["1", "3"],
    "census_year": ["2005", "2007"], "evaluation_year": ["2007"], "window": ["1", "2"],
    "census_years": ["2005:2007"], "variability_years": ["2005:2007"],
    "pub_years": ["2004:2007"], "citing_years": ["2007"], "journal": ["jnl-a", "jnl-b"],
    "journal_a": ["jnl-a"], "journal_b": ["jnl-b"], "pair": ["jnl-a:jnl-b"],
    "author": ["au-1"], "paper_ids": ["a1,a2,a3,a4,c1"], "subject": ["s"],
    "core_journals": ["jnl-a"], "indexed_journals": ["jnl-b,jnl-c"],
}
_BAD_FILES = ["<corpus>", "<config>", "<dir>", "<missing>", "", " "]


def _value_pools(action):
    """Good and bad values of one option: its choices or known good values,
    then the edge values (the wrong files for a file).  The math preset is
    left out, as it generates a million edges a run, and ``--runs`` stays
    at most 3."""
    good = [c for c in action.choices or () if c != "math"] or _GOOD_VALUES[action.dest]
    if action.dest in ("input", "config"):
        return good, [f for f in _BAD_FILES if f not in good]
    bad = [v for v in _EDGE_VALUES
           if action.dest != "runs" or not v.lstrip("-").isdigit() or int(v) <= 3]
    return good, bad


def _options():
    """Subcommand -> (option string, required, value pools or None for a
    switch), for every option but ``--help`` and ``--out``, which the test
    sets itself.  ``--config`` counts as required, as one of it and
    ``--preset`` is."""
    [sub] = [a for a in build_parser()._actions if a.dest == "subcommand"]
    return {
        name: [(action.option_strings[-1], action.required or action.dest == "config",
                _value_pools(action) if action.nargs != 0 else None)
               for action in parser._actions
               if action.option_strings and action.dest not in ("help", "out")]
        for name, parser in sub.choices.items()
    }


_OPTIONS = _options()


@st.composite
def argument_vectors(draw):
    """A subcommand (or a bad one) with its required options and up to 3
    more, any of them repeated, all with good values; then, five times in
    six, one fault: a bad value (three times in five), an option left out,
    or a flag the subcommand does not have."""
    name = draw(st.sampled_from([*_OPTIONS, "", "nope"]))
    options = _OPTIONS.get(name, [])
    more = st.lists(st.sampled_from(options), max_size=3) if options else st.just([])
    chosen = draw(st.permutations([option for option in options if option[1]] + draw(more)))
    args = [[flag, *(() if pools is None else [draw(st.sampled_from(pools[0]))])]
            for flag, _, pools in chosen]
    fault = draw(st.sampled_from(["none", "value", "value", "value", "drop", "unknown"]))
    valued = [i for i, arg in enumerate(args) if len(arg) == 2]
    if fault == "value" and valued:
        at = draw(st.sampled_from(valued))
        args[at][1] = draw(st.sampled_from(chosen[at][2][1]))
    elif fault == "drop" and args:
        del args[draw(st.integers(0, len(args) - 1))]
    elif fault == "unknown":
        args.insert(draw(st.integers(0, len(args))), ["--frobnicate"])
    return [name, *(token for arg in args for token in arg)]


_FUZZ_CONFIG = {"seed": 3, "references_per_paper": 3.0, "journals": [
    {"journal_id": "jnl-a", "articles_per_year": 3, "start_year": 2003, "end_year": 2007},
    {"journal_id": "jnl-b", "articles_per_year": 2, "start_year": 2004, "end_year": 2007},
]}


def _fuzz_files(tmp: Path) -> dict:
    """Placeholder -> path: the tiny fuzz corpus, the fuzz config, a
    directory and a missing file, under ``tmp``."""
    files = {"<corpus>": tmp / "corpus.jsonl", "<config>": tmp / "config.json",
             "<dir>": tmp, "<missing>": tmp / "missing.jsonl"}
    files["<config>"].write_text(json.dumps(_FUZZ_CONFIG))
    files["<corpus>"].write_text(corpus_to_jsonl(build_corpus(
        *(rec(f"a{i}", year=2004 + i % 3) for i in range(1, 5)),
        rec("c1", journal="jnl-b", year=2007, refs=("a1", "a2")),
        rec("c2", journal="jnl-c", year=2007, kind="review", refs=("a3", "c1")),
    )))
    return files


# no shrink phase, as above
@settings(max_examples=250, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(argument_vectors())
@example(["replicate", "--config", "<config>", "--runs", "3", "--census-years", "2005:2007"])
@example(["policy", "--input", "<corpus>", "--rule", "example2", "--census-year", "2007",
          "--papers", "a1,a2,a3,a4,c1"])
@pytest.mark.filterwarnings("ignore:no papers published in census year")
def test_no_argument_vector_ends_in_a_traceback(argv):
    """main returns 0, 1 or 2 and never raises: a failure prints one error
    line and writes nothing, a success writes its manifest."""
    with tempfile.TemporaryDirectory() as tmp:
        files = _fuzz_files(Path(tmp))
        out = Path(tmp) / "out"
        argv = [str(files.get(arg, arg)) for arg in argv]
        code, _, stderr = _run([*argv, "--out", str(out)])
        assert code in (0, 1, 2)
        if code:
            errors = [line for line in stderr.splitlines() if ": error: " in line]
            assert len(errors) == 1 and stderr.endswith(errors[0] + "\n"), stderr
            assert not out.exists()
        else:
            assert (out / "manifest.json").is_file()


def _option_sweep():
    """Argument vectors giving one option of one subcommand one value of its
    pools (a switch is given once), for every subcommand, option and value;
    the other required options take their first good value, and ``--preset
    volatility`` stands in for ``--config`` unless one of the two is swept."""
    for name, options in _OPTIONS.items():
        base = {flag: pools[0][0] for flag, required, pools in options if required}
        if base.pop("--config", None):
            base["--preset"] = "volatility"
        for flag, _, pools in options:
            swept = {"--config", "--preset"} if flag in ("--config", "--preset") else {flag}
            fixed = [token for option, value in base.items() if option not in swept
                     for token in (option, value)]
            for value in [None] if pools is None else [*pools[0], *pools[1]]:
                yield [name, *fixed, flag, *(() if value is None else [value])]


@pytest.mark.filterwarnings("ignore:no papers published in census year")
def test_every_option_value_exits_cleanly(tmp_path):
    """Each vector of :func:`_option_sweep`, run in order on the fuzz corpus
    and config: main raises nothing and returns 0, 1 or 2, and a failure
    leaves --out absent."""
    files = _fuzz_files(tmp_path)
    problems = []
    for i, argv in enumerate(_option_sweep()):
        argv = [str(files.get(arg, arg)) for arg in argv]
        out = tmp_path / f"out-{i}"
        try:
            code, _, _ = _run([*argv, "--out", str(out)])
        except Exception as exc:  # every escape is a finding
            problems.append((argv, repr(exc)))
            continue
        if code not in (0, 1, 2) or (code and out.exists()):
            problems.append((argv, code))
    assert problems == []
