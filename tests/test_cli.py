"""End-to-end CLI tests: exit codes, file outputs, reproducibility."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import citestats
from citestats import corpus_to_jsonl
from citestats.cli import main

from conftest import build_corpus, rec


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


class TestValidate:
    def test_clean_corpus(self, capsys, if_fixture_path, tmp_path):
        out = tmp_path / "out"
        code = main(["validate", "--input", str(if_fixture_path), "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "validation.json").read_text())
        assert payload["unresolved_references"] == 0
        assert payload["negative_age_edges"] == 0
        assert payload["papers_without_authors"] == 0
        assert '"edge_count": 6' in capsys.readouterr().out


class TestIngest:
    def test_normalized_round_trip(self, if_fixture_path, tmp_path):
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(if_fixture_path), "--out", str(out)]) == 0
        assert (out / "corpus.jsonl").read_text() == if_fixture_path.read_text()
        assert json.loads((out / "summary.json").read_text())["paper_count"] == 7


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

    def test_synth_writes_corpus_and_config(self, tmp_path):
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
        code = main(["policy", "--input", str(path), "--rule", "example3"])
        assert code == 1
        assert "census-year" in capsys.readouterr().err

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
