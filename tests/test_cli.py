"""End-to-end CLI tests: exit codes, file outputs, reproducibility."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import citestats
from citestats import Corpus, PaperRecord, cli, corpus_to_jsonl, load_corpus, validate
from citestats.cli import main
from citestats.corpus import KIND_NAMES

from conftest import awkward_text, build_corpus, rec


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
        "extra, message",
        [
            (
                ["--rule", "example2", "--census-year", "2007", "--papers", "p1,p2"],
                "--papers must list exactly 5 distinct paper ids",
            ),
            (
                ["--rule", "example2", "--census-year", "2007", "--papers", "p1,p1,p2,p3,c1"],
                "--papers must list exactly 5 distinct paper ids",
            ),
            (
                ["--rule", "example2", "--census-year", "2007", "--papers", "p1,p2,p3,c1,p1",
                 "--with-divergence"],
                "--with-divergence needs an author-level rule",
            ),
        ],
        ids=["papers-count", "papers-repeated", "divergence-example2"],
    )
    def test_argument_errors_are_usage_errors(self, capsys, tmp_path, extra, message):
        path = self._author_corpus_path(tmp_path)
        out = tmp_path / "out"
        assert main(["policy", "--input", str(path), *extra, "--out", str(out)]) == 1
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
    and at several."""
    cells = draw(
        st.lists(
            st.dictionaries(st.text(max_size=4), JSON_SCALARS, max_size=3), min_size=1, max_size=3
        )
    )
    return draw(st.recursive(st.sampled_from(cells) | JSON_SCALARS, _nested, max_leaves=40))


SHARED_CELL = {"decimal": "0.5000", "exact": "1/2", "é": None}


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
        path.write_text("".join(
            json.dumps({"id": f"p{i:05d}", "journal": "j", "year": 2000, "kind": "review",
                        "authors": [f"author-{i:05d}-{k:02d}" for k in range(20)],
                        "references": [f"p{j:05d}" for j in range(max(0, i - 5), i)]}) + "\n"
            for i in range(4500)
        ))
        assert path.stat().st_size > 2 * (1 << 20)  # more than two 1 MiB chunks
        out = tmp_path / "out"
        assert main(["validate", "--input", str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        expected = hashlib.sha256(path.read_bytes()).hexdigest()
        assert manifest["inputs"] == {str(path): expected}


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
        corpus = Corpus.from_records([
            PaperRecord("a", "j", 2001, "research-article"),
            PaperRecord("b", "j", 2002, "review", (), ("a", "ghost")),
            PaperRecord("c", "k", 2003, "letter", (), ("a", "b")),
        ])
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
