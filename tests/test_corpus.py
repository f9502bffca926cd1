"""Corpus loading, validation and citation counting."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citestats import (
    KINDS,
    Corpus,
    DuplicateIdError,
    PaperRecord,
    RecordError,
    UnknownIdError,
    citations_to,
    corpus_to_jsonl,
    iter_records,
    load_corpus,
    record_to_json,
    validate,
    write_corpus,
)

from conftest import build_corpus, rec


def jline(pid, journal="jnl-a", year=2000, kind="research-article", authors=("au-1",), refs=()):
    return json.dumps(
        {
            "id": pid,
            "journal": journal,
            "year": year,
            "kind": kind,
            "authors": list(authors),
            "references": list(refs),
        }
    )


class TestPaperRecord:
    def test_valid_record(self):
        paper = rec("p1", refs=("p0",))
        assert paper.is_substantive
        assert paper.reference_ids == ("p0",)

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError, match="nonempty"):
            rec("")

    def test_rejects_year_out_of_range(self):
        with pytest.raises(ValueError, match="year"):
            rec("p1", year=1750)
        with pytest.raises(ValueError, match="year"):
            rec("p1", year=2150)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            rec("p1", kind="preprint")

    def test_rejects_duplicate_references(self):
        with pytest.raises(ValueError, match="duplicate reference"):
            rec("p1", refs=("p0", "p0"))

    def test_rejects_self_reference(self):
        with pytest.raises(ValueError, match="references itself"):
            rec("p1", refs=("p1",))


class TestLoadCorpus:
    def test_empty_stream(self):
        corpus = load_corpus([])
        assert len(corpus.papers) == 0
        assert len(corpus.edges) == 0

    def test_minimal_edge(self):
        corpus = load_corpus(
            [jline("p1", year=2000), jline("p2", year=2003, refs=["p1"])]
        )
        assert len(corpus.edges) == 1
        edge = corpus.edges[0]
        assert (edge.citing_id, edge.cited_id) == ("p2", "p1")
        assert edge.age == 3

    def test_unresolved_reference_counted_not_dropped_silently(self):
        # 3 papers, one reference points outside the corpus
        corpus = load_corpus(
            [
                jline("p1"),
                jline("p2", refs=["p1", "ghost"]),
                jline("p3", refs=["p2"]),
            ]
        )
        assert len(corpus.edges) == 2
        assert corpus.unresolved_reference_count == 1

    def test_duplicate_id_is_hard_error_naming_the_id(self):
        with pytest.raises(DuplicateIdError, match="p1"):
            load_corpus([jline("p1"), jline("p1")])

    def test_malformed_json_reports_line_number(self):
        with pytest.raises(RecordError, match="line 2") as excinfo:
            load_corpus([jline("p1"), "{not json"])
        assert excinfo.value.line_number == 2

    def test_missing_field_reports_line_number(self):
        bad = json.dumps({"id": "p1", "journal": "j", "year": 2000})
        with pytest.raises(RecordError, match="line 1.*missing"):
            load_corpus([bad])

    def test_invalid_year_type(self):
        bad = json.dumps(
            {"id": "p1", "journal": "j", "year": "2000", "kind": "review",
             "authors": [], "references": []}
        )
        with pytest.raises(RecordError, match="year"):
            load_corpus([bad])

    def test_unknown_field_rejected_in_strict_mode(self):
        line = json.dumps(
            {"id": "p1", "journal": "j", "year": 2000, "kind": "review",
             "authors": [], "references": [], "doi": "10.1/x"}
        )
        with pytest.raises(RecordError, match="doi"):
            load_corpus([line], strict=True)

    def test_unknown_field_warned_and_ignored_otherwise(self):
        line = json.dumps(
            {"id": "p1", "journal": "j", "year": 2000, "kind": "review",
             "authors": [], "references": [], "doi": "10.1/x"}
        )
        with pytest.warns(UserWarning, match="doi"):
            corpus = load_corpus([line])
        assert "p1" in corpus.papers

    def test_blank_lines_skipped(self):
        corpus = load_corpus([jline("p1"), "", "   \n"])
        assert len(corpus.papers) == 1

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(jline("p1") + "\n" + jline("p2", refs=["p1"]) + "\n")
        corpus = load_corpus(path)
        assert len(corpus.edges) == 1


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(), children, max_size=3),
    max_leaves=6,
)
STRINGS = st.lists(st.text(max_size=4), max_size=3)
PLAUSIBLE_FIELDS = {
    "id": st.text(min_size=1, max_size=4),
    "journal": st.text(min_size=1, max_size=4),
    "year": st.integers(1800, 2100),
    "kind": st.sampled_from(sorted(KINDS)),
    "authors": STRINGS,
    "references": STRINGS,
}
FIELD_NAMES = st.sampled_from(sorted(PLAUSIBLE_FIELDS))
# a plausible record with one field set to any JSON value, one field
# missing, or unknown fields added
JSON_OBJECTS = st.builds(
    lambda record, wild, extra, missing: {
        k: v for k, v in {**extra, **record, **dict(wild)}.items() if k != missing
    },
    st.fixed_dictionaries(PLAUSIBLE_FIELDS),
    st.lists(st.tuples(FIELD_NAMES, JSON_VALUES), max_size=1),
    st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=2),
    st.none() | FIELD_NAMES,
)


class TestLoaderHardening:
    def test_unhashable_kind_is_record_error(self):
        bad = json.loads(jline("p2"))
        bad["kind"] = ["x"]
        with pytest.raises(RecordError, match="line 2.*'kind'") as excinfo:
            load_corpus([jline("p1"), json.dumps(bad)])
        assert excinfo.value.line_number == 2

    def test_invalid_utf8_reports_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        latin1 = jline("p2").encode().replace(b"p2", b"p\xe9")
        path.write_bytes(jline("p1").encode() + b"\n" + latin1 + b"\n")
        with pytest.raises(RecordError, match="line 2.*UTF-8") as excinfo:
            load_corpus(path)
        assert excinfo.value.line_number == 2

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_line_numbers_under_every_newline_convention(self, tmp_path, newline):
        path = tmp_path / "corpus.jsonl"
        lines = [jline("p1").encode(), b"", jline("p2", refs=["p1"]).encode(), b"{not json"]
        path.write_bytes(newline.join(lines) + newline)
        with pytest.raises(RecordError, match="line 4"):
            load_corpus(path)
        path.write_bytes(newline.join(lines[:3]))
        assert len(load_corpus(path).edges) == 1

    @pytest.mark.parametrize(
        "line",
        [jline("p1").replace("2000", "9" * 5000), "[" * 100_000 + "]" * 100_000],
        ids=["integer-beyond-digit-limit", "nesting-beyond-recursion-limit"],
    )
    def test_decoder_limits_are_record_errors(self, line):
        with pytest.raises(RecordError, match="line 2.*invalid JSON"):
            load_corpus([jline("p0"), line])

    @settings(max_examples=300, deadline=None)
    @given(JSON_OBJECTS, st.integers(0, 3), st.booleans())
    @pytest.mark.filterwarnings("ignore:ignoring unknown record field")
    def test_arbitrary_json_object_loads_or_names_its_line(self, obj, valid_before, as_bytes):
        lines = [jline(f"valid-{i}") for i in range(valid_before)] + ["", json.dumps(obj)]
        if as_bytes:
            lines = [line.encode() for line in lines]
        try:
            records = list(iter_records(lines))
        except RecordError as exc:
            assert exc.line_number == valid_before + 2
            assert str(exc).startswith(f"line {valid_before + 2}: ")
        else:
            assert len(records) == valid_before + 1


class TestValidate:
    def test_clean_corpus_all_zero(self):
        corpus = build_corpus(rec("p1"), rec("p2", year=2001, refs=("p1",)))
        report = validate(corpus)
        assert report.is_clean
        assert report.unresolved_references == 0
        assert report.negative_age_edges == 0
        assert report.papers_without_authors == 0

    def test_negative_age_edge_counted(self):
        # in-press anomaly: citing year precedes cited year
        corpus = build_corpus(rec("late", year=2005), rec("early", year=2003, refs=("late",)))
        report = validate(corpus)
        assert report.negative_age_edges == 1
        assert corpus.edges[0].age == -2  # edge retained, only flagged

    def test_unresolved_reference_count_matches_load(self):
        records = [rec("p0")]
        for i in range(10):
            records.append(rec(f"p{i + 1}", refs=(f"missing-{i}",)))
        report = validate(build_corpus(*records))
        assert report.unresolved_references == 10

    def test_authorless_papers_counted(self):
        corpus = build_corpus(rec("p1", authors=()), rec("p2"))
        assert validate(corpus).papers_without_authors == 1

    def test_report_serialization_is_byte_stable(self):
        corpus = build_corpus(rec("p1"), rec("p2", refs=("p1",)))
        assert validate(corpus).to_json() == validate(corpus).to_json()
        assert validate(corpus).to_json().startswith('{"edge_count":1')


class TestCitationsTo:
    def test_uncited_paper(self):
        corpus = build_corpus(rec("p1"))
        assert citations_to(corpus, "p1") == 0

    def test_year_filter_excludes(self):
        corpus = build_corpus(
            rec("p0", year=2000),
            rec("c1", year=2001, refs=("p0",)),
            rec("c2", year=2002, refs=("p0",)),
            rec("c3", year=2003, refs=("p0",)),
        )
        assert citations_to(corpus, "p0") == 3
        assert citations_to(corpus, "p0", citing_years=[2001, 2003]) == 2

    def test_full_filter_equals_unfiltered(self):
        corpus = build_corpus(
            rec("p0", year=2000),
            rec("c1", year=2001, refs=("p0",)),
            rec("c2", year=2002, refs=("p0",)),
        )
        every_year = range(1800, 2101)
        assert citations_to(corpus, "p0", every_year) == citations_to(corpus, "p0")

    def test_unknown_paper_raises(self):
        corpus = build_corpus(rec("p1"))
        with pytest.raises(UnknownIdError, match="nope"):
            citations_to(corpus, "nope")


class TestCorpusInvariants:
    def _random_corpus(self, rng):
        n = rng.randrange(2, 30)
        records = []
        for i in range(n):
            pid = f"p{i}"
            refs = rng.sample([f"p{j}" for j in range(i)], k=min(i, rng.randrange(0, 4)))
            records.append(
                rec(
                    pid,
                    journal=f"j{rng.randrange(3)}",
                    year=2000 + rng.randrange(8),
                    authors=tuple(f"au{rng.randrange(5)}" for _ in range(rng.randrange(1, 3))),
                    refs=tuple(refs),
                )
            )
        return build_corpus(*records)

    def test_citations_sum_to_edge_count(self):
        rng = random.Random(7)
        for _ in range(25):
            corpus = self._random_corpus(rng)
            total = sum(citations_to(corpus, pid) for pid in corpus.papers)
            assert total == len(corpus.edges)

    def test_author_index_entries_list_that_author(self):
        rng = random.Random(11)
        for _ in range(25):
            corpus = self._random_corpus(rng)
            for author_id, paper_ids in corpus.author_papers.items():
                for pid in paper_ids:
                    assert author_id in corpus.papers[pid].author_ids

    def test_journal_index_is_exhaustive_and_disjoint(self):
        rng = random.Random(13)
        corpus = self._random_corpus(rng)
        seen = []
        for journal_id, paper_ids in corpus.journal_papers.items():
            for pid in paper_ids:
                assert corpus.papers[pid].journal_id == journal_id
                seen.append(pid)
        assert sorted(seen) == sorted(corpus.papers)

    def test_every_edge_endpoint_resolves(self):
        rng = random.Random(17)
        corpus = self._random_corpus(rng)
        for edge in corpus.edges:
            assert edge.citing_id in corpus.papers
            assert edge.cited_id in corpus.papers

    def test_corpus_is_immutable(self):
        corpus = build_corpus(rec("p1"))
        with pytest.raises(TypeError):
            corpus.papers["p2"] = rec("p2")
        with pytest.raises(TypeError):
            Corpus()


class TestSerialization:
    def test_round_trip_is_byte_stable(self):
        corpus = build_corpus(
            rec("p1", year=2001),
            rec("p2", year=2004, kind="review", refs=("p1", "ghost")),
        )
        first = corpus_to_jsonl(corpus)
        reloaded = load_corpus(first.splitlines())
        assert corpus_to_jsonl(reloaded) == first
        assert reloaded.unresolved_reference_count == 1

    def test_load_is_deterministic(self):
        lines = [jline("p1"), jline("p2", refs=["p1"])]
        a = load_corpus(list(lines))
        b = load_corpus(list(lines))
        assert corpus_to_jsonl(a) == corpus_to_jsonl(b)
        assert validate(a).to_json() == validate(b).to_json()

    def test_write_corpus_to_path(self, tmp_path):
        corpus = build_corpus(rec("p1"))
        path = tmp_path / "out.jsonl"
        write_corpus(corpus, path)
        assert load_corpus(path).papers.keys() == {"p1"}

    def test_record_line_has_canonical_field_order(self):
        line = record_to_json(rec("p1", refs=()))
        assert line.index('"id"') < line.index('"journal"') < line.index('"year"')
