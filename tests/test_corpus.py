"""Corpus loading, validation and citation counting."""

import ast
import io
import json
import random
import warnings
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citestats import (
    KINDS,
    Corpus,
    DuplicateIdError,
    RecordError,
    UnknownIdError,
    UsageError,
    corpus_to_jsonl,
    iter_records,
    load_corpus,
    validate,
    write_corpus,
)

import citestats.corpus
import reference_metrics as ref
from citestats.corpus import KIND_NAMES, SUBSTANTIVE_KINDS
from citestats.synth import JournalSpec, SynthConfig, generate
from conftest import AWKWARD_CHARS, awkward_text, build_corpus, rec
from test_messages import pinned, raised_messages


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
    """The loader's field checks on one record, line 1 of a corpus."""

    @staticmethod
    def load(pid, **fields):
        return load_corpus([jline(pid, **fields)])

    def test_valid_record(self):
        corpus = self.load("p1", refs=("p0",))
        assert KIND_NAMES[corpus.kind_code[0]] in SUBSTANTIVE_KINDS
        assert ref.records(corpus)["p1"].reference_ids == ("p0",)

    def test_rejects_empty_id(self):
        with pytest.raises(RecordError, match="^line 1: paper id must be a nonempty string$"):
            self.load("")

    def test_rejects_year_out_of_range(self):
        with pytest.raises(RecordError, match="year"):
            self.load("p1", year=1750)
        with pytest.raises(RecordError, match="year"):
            self.load("p1", year=2150)

    def test_rejects_unknown_kind(self):
        with pytest.raises(RecordError, match="kind"):
            self.load("p1", kind="preprint")

    def test_rejects_duplicate_authors(self):
        with pytest.raises(RecordError, match="^line 1: paper 'p1': duplicate author ids$"):
            self.load("p1", authors=("a", "b", "a"))

    def test_rejects_duplicate_references(self):
        with pytest.raises(RecordError, match="duplicate reference"):
            self.load("p1", refs=("p0", "p0"))

    def test_rejects_self_reference(self):
        with pytest.raises(RecordError, match="references itself"):
            self.load("p1", refs=("p1",))

    @pytest.mark.parametrize(
        "pid, authors, message",
        [
            ("p\ud800", (), "'id' holds a lone surrogate"),
            ("p1", (1,), "'authors' must be an array of strings"),
            ("p1", "abc", "'authors' must be an array of strings"),
        ],
        ids=["lone-surrogate-id", "int-author", "string-authors"],
    )
    def test_rejects_what_the_loader_rejects(self, pid, authors, message):
        """A mapping item, whose arrays may also be tuples, is checked as a line is."""
        record = {"id": pid, "journal": "jnl-a", "year": 2000, "kind": "research-article",
                  "authors": authors, "references": ()}
        with pytest.raises(RecordError, match=f"^line 1: {message}$"):
            load_corpus([record])


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)
_SURROGATE_TEXT = st.text(st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF), min_size=1)
_WRONG = st.one_of(
    st.integers(), st.none(), st.booleans(), st.floats(), _TEXT, _SURROGATE_TEXT,
    st.lists(st.one_of(_TEXT, _SURROGATE_TEXT, st.integers(), st.none()), min_size=1, max_size=3),
    st.lists(_TEXT, max_size=3).map(tuple),
)


@st.composite
def record_fields(draw):
    """A record's field values; in two draws of three, one of them is
    replaced by any value, such as a string with a lone surrogate."""
    values = [
        draw(_TEXT), draw(_TEXT), draw(st.integers(1790, 2110)),
        draw(st.sampled_from(sorted(KINDS))),
        draw(st.lists(_TEXT, max_size=3)), draw(st.lists(_TEXT, max_size=3).map(tuple)),
    ]
    if draw(st.integers(0, 2)):
        values[draw(st.integers(0, 5))] = draw(_WRONG)
    return values


@settings(max_examples=300, deadline=None)
@given(record_fields())
@example(["p1", "j", 2000, "book", ["a\ud800"], ()])
@example(["p1", "j", 2000, "book", ["\U0001f600", ""], ("\u2028",)])
def test_every_buildable_record_can_be_written(values):
    """A record mapping either fails to load with the reference loader's
    RecordError, or its JSON line encodes as UTF-8 and parses back to its
    fields."""
    record = dict(zip(("id", "journal", "year", "kind", "authors", "references"), values))
    try:
        corpus = load_corpus([record])
    except RecordError as exc:
        assert _outcome(ref.load_corpus, [record], False) == ((RecordError, str(exc), 1), [])
        return
    line = corpus_to_jsonl(corpus).encode("utf-8")
    assert json.loads(line) == {**record, "authors": list(values[4]), "references": list(values[5])}


class TestLoadCorpus:
    def test_empty_stream(self):
        corpus = load_corpus([])
        assert len(corpus) == 0
        assert len(corpus.edges) == 0

    def test_minimal_edge(self):
        corpus = load_corpus(
            [jline("p1", year=2000), jline("p2", year=2003, refs=["p1"])]
        )
        assert corpus.edges.tolist() == [[1, 0]]
        [edge] = ref.edges(corpus)
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
        with pytest.raises(DuplicateIdError, match="^line 3: duplicate paper id 'p1'$") as excinfo:
            load_corpus([jline("p1"), "", jline("p1")])
        assert isinstance(excinfo.value, RecordError) and excinfo.value.line_number == 3

    def test_repeated_key_is_a_record_error_naming_the_key(self):
        repeated = jline("p1").replace('"year": 2000', '"year": 2000, "year": 2001')
        with pytest.raises(RecordError, match="^line 2: repeated key 'year'$") as excinfo:
            load_corpus([jline("p0"), repeated])
        assert excinfo.value.line_number == 2

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
        assert corpus.ids == ("p1",) and corpus.journals == ("j",)

    def test_blank_lines_skipped(self):
        corpus = load_corpus([jline("p1"), "", "   \n"])
        assert len(corpus) == 1

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

    @pytest.mark.parametrize("extra", [{1: "x"}, {1: "x", "z": "y"}], ids=["int", "int-and-str"])
    @pytest.mark.parametrize("strict", [False, True])
    def test_a_key_that_is_not_a_string_is_an_unknown_field(self, extra, strict):
        lines = [{**json.loads(jline("p1")), **extra}]
        (got, caught), (want, expected) = (_outcome(load, lines, strict)
                                           for load in (load_corpus, ref.load_corpus))
        assert caught == expected
        if strict:
            names = ", ".join(map(str, extra))
            assert got == want == (RecordError, f"line 1: unknown field(s) {names}", 1)
        else:
            _same_corpus(got, want)
            assert [str(message) for _, message in caught] == [
                f"ignoring unknown record field {name!r} (first seen on line 1)" for name in extra
            ]

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
        assert report.unresolved_references == 0
        assert report.negative_age_edges == 0
        assert report.papers_without_authors == 0

    def test_negative_age_edge_counted(self):
        # in-press anomaly: citing year precedes cited year
        corpus = build_corpus(rec("late", year=2005), rec("early", year=2003, refs=("late",)))
        report = validate(corpus)
        assert report.negative_age_edges == 1
        assert corpus.edges.tolist() == [[1, 0]]
        assert ref.edges(corpus)[0].age == -2  # edge retained, only flagged

    def test_unresolved_reference_count_matches_load(self):
        records = [rec("p0")]
        for i in range(10):
            records.append(rec(f"p{i + 1}", refs=(f"missing-{i}",)))
        report = validate(build_corpus(*records))
        assert report.unresolved_references == 10

    def test_authorless_papers_counted(self):
        corpus = build_corpus(rec("p1", authors=()), rec("p2"))
        assert validate(corpus).papers_without_authors == 1



class TestCitationsTo:
    def test_uncited_paper(self):
        corpus = build_corpus(rec("p1"))
        assert corpus.citation_counts(corpus.rows(["p1"])) == [0]

    def test_year_filter_excludes(self):
        corpus = build_corpus(
            rec("p0", year=2000),
            rec("c1", year=2001, refs=("p0",)),
            rec("c2", year=2002, refs=("p0",)),
            rec("c3", year=2003, refs=("p0",)),
        )
        assert corpus.citation_counts(corpus.rows(["p0"])) == [3]
        assert corpus.citation_counts([0], citing_years=[2001, 2003]) == [2]

    def test_full_filter_equals_unfiltered(self):
        corpus = build_corpus(
            rec("p0", year=2000),
            rec("c1", year=2001, refs=("p0",)),
            rec("c2", year=2002, refs=("p0",)),
        )
        every_year = range(1800, 2101)
        assert corpus.citation_counts([0], every_year) == corpus.citation_counts([0]) == [2]

    def test_unknown_paper_raises(self):
        corpus = build_corpus(rec("p1"))
        with pytest.raises(UnknownIdError, match="nope"):
            corpus.citation_counts(corpus.rows(["p1", "nope"]))

    @pytest.mark.parametrize("row", [-1, 2])
    def test_row_outside_the_corpus_raises(self, row):
        corpus = build_corpus(rec("a", year=2000), rec("b", year=2001, refs=("a",)))
        for count in (
            corpus.citation_counts,
            lambda rows: corpus.citation_counts(rows, citing_years=[2001]),
            corpus.incoming,
        ):
            with pytest.raises(UnknownIdError, match=f"^unknown row {row}$"):
                count([0, row])

    @pytest.mark.parametrize(
        "rows", [[1.7], [True], np.array([0.9]), np.array([True]), ["0"], [0, True], [0, 1.0]],
        ids=repr,
    )
    def test_rows_that_are_not_integers_raise(self, rows):
        corpus = build_corpus(rec("a", year=2000), rec("b", year=2001, refs=("a",)))
        for count in (
            corpus.citation_counts,
            lambda rows: corpus.citation_counts(rows, citing_years=[2001]),
            corpus.incoming,
        ):
            with pytest.raises(UsageError, match="^rows must be integers$"):
                count(rows)

    def test_no_rows(self):
        corpus = build_corpus(rec("a", year=2000), rec("b", year=2001, refs=("a",)))
        assert corpus.citation_counts([]) == corpus.citation_counts([], [2001]) == []
        assert [part.tolist() for part in corpus.incoming([])] == [[], []]


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
                    authors=tuple(dict.fromkeys(
                        f"au{rng.randrange(5)}" for _ in range(rng.randrange(1, 3))
                    )),
                    refs=tuple(refs),
                )
            )
        return build_corpus(*records)

    def test_citations_sum_to_edge_count(self):
        rng = random.Random(7)
        for _ in range(25):
            corpus = self._random_corpus(rng)
            total = sum(corpus.citation_counts(corpus.rows(ref.records(corpus))))
            assert total == len(corpus.edges)

    def test_author_index_entries_list_that_author(self):
        rng = random.Random(11)
        for _ in range(25):
            corpus = self._random_corpus(rng)
            papers = list(ref.records(corpus).values())
            listed = [a for p in papers for a in p.author_ids]
            assert list(corpus.author_rows) == list(dict.fromkeys(listed))
            for author_id, rows in corpus.author_rows.items():
                assert rows.dtype == np.int64
                assert rows.tolist() == [
                    row for row, p in enumerate(papers) if author_id in p.author_ids
                ]

    def test_journal_index_is_exhaustive_and_disjoint(self):
        rng = random.Random(13)
        corpus = self._random_corpus(rng)
        papers = ref.records(corpus)
        assert corpus.journals == tuple(dict.fromkeys(p.journal_id for p in papers.values()))
        seen = []
        for journal_id in corpus.journals:
            for row in corpus.journal_rows(journal_id)[1].tolist():
                assert papers[corpus.ids[row]].journal_id == journal_id
                seen.append(corpus.ids[row])
        assert sorted(seen) == sorted(papers)

    def test_every_edge_endpoint_resolves(self):
        rng = random.Random(17)
        corpus = self._random_corpus(rng)
        ids = list(ref.records(corpus))
        rows = corpus.edges.tolist()
        assert all(0 <= row < len(ids) for pair in rows for row in pair)
        pairs = sorted((ids[citing], ids[cited]) for citing, cited in rows)
        assert pairs == sorted((e.citing_id, e.cited_id) for e in ref.edges(corpus))

    def test_corpus_is_immutable(self):
        corpus = build_corpus(rec("p1"))
        with pytest.raises(TypeError):
            corpus.author_rows["au-2"] = (0,)
        with pytest.raises(ValueError, match="read-only"):
            corpus.year[0] = 2001
        [rows] = corpus.author_rows.values()
        assert not rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows[0] = 1
        with pytest.raises(ValueError):
            rows.setflags(write=True)
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
        assert validate(a)._asdict() == validate(b)._asdict()

    def test_write_corpus_to_path(self, tmp_path):
        corpus = build_corpus(rec("p1"))
        path = tmp_path / "out.jsonl"
        write_corpus(corpus, path)
        reloaded = load_corpus(path)
        assert (reloaded.ids, reloaded.journals) == (("p1",), ("jnl-a",))

    def test_record_line_has_canonical_field_order(self):
        line = corpus_to_jsonl(build_corpus(rec("p1", refs=())))
        assert line.index('"id"') < line.index('"journal"') < line.index('"year"')


@st.composite
def writable_corpora(draw):
    """Corpora with awkward strings, loaded from JSON lines or from records,
    or generated: unresolved references, empty authors and authors shared by papers."""
    how = draw(st.sampled_from(["lines", "records", "generated"]))
    if how == "generated":
        journals = draw(st.lists(awkward_text(), min_size=1, max_size=3, unique=True))
        return generate(SynthConfig(
            seed=draw(st.integers(0, 2**32)),
            journals=[
                JournalSpec(jid, draw(st.integers(i == 0, 3)), 2000, draw(st.integers(2000, 2003)))
                for i, jid in enumerate(journals)
            ],
            references_per_paper=3.0,
        ))
    ids = draw(st.lists(awkward_text(), max_size=8, unique=True))
    pool = [*ids, "ghost", "gh\u2028ost"]
    records = [
        ref.PaperRecord(
            pid, draw(awkward_text()), draw(st.integers(1990, 2010)),
            draw(st.sampled_from(sorted(KINDS))),
            draw(st.lists(awkward_text(0, 3), unique=True, max_size=4)),
            draw(st.lists(st.sampled_from([r for r in pool if r != pid]), unique=True, max_size=4)),
        )
        for pid in ids
    ]
    if how == "records":
        return build_corpus(*records)
    ensure_ascii = draw(st.booleans())
    return load_corpus([json.dumps(ref.record_dict(r), ensure_ascii=ensure_ascii) for r in records])


AWKWARD = "".join(AWKWARD_CHARS)


@settings(max_examples=100, deadline=None)
@given(writable_corpora())
@example(build_corpus(
    rec(AWKWARD, journal=AWKWARD, authors=(AWKWARD, ""), refs=(AWKWARD + "!",)),
    rec("p2", kind="book", authors=(), refs=(AWKWARD,)),
    rec("p3", authors=("", AWKWARD)),
))
@example(build_corpus())
def test_columnar_writer_matches_record_json_dumps(corpus):
    """corpus_to_jsonl writes each paper's record as json.dumps and the
    one-record writer do."""
    papers = ref.records(corpus).values()
    lines = corpus_to_jsonl(corpus).split("\n")
    want = [json.dumps(ref.record_dict(p), separators=(",", ":"), ensure_ascii=False)
            for p in papers]
    assert lines == [*want, ""]
    assert [ref.record_to_json(p) for p in papers] == want


@settings(max_examples=100, deadline=None)
@given(writable_corpora(), st.integers(1, 3))
def test_columnar_writer_matches_record_json_dumps_in_batches(corpus, batch_rows):
    """Rendered a few rows at a time, so that a batch ends inside the corpus,
    the lines are still each record's json.dumps."""
    want = corpus_to_jsonl(corpus)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(citestats.corpus, "_BATCH_ROWS", batch_rows)
        got = list(citestats.corpus._corpus_lines(corpus))
    assert [line[:-1] for line in got] == [
        json.dumps(ref.record_dict(p), separators=(",", ":"), ensure_ascii=False)
        for p in ref.records(corpus).values()
    ]
    assert "".join(got) == want


def test_write_corpus_removes_a_file_it_cannot_finish(tmp_path):
    """A write that fails partway removes the file, so no truncated corpus is left."""
    corpus = build_corpus(*(rec(f"p{i}") for i in range(3)))
    path = tmp_path / "out.jsonl"

    def lines(corpus):
        yield "first\n"
        raise OSError("disk full")

    with pytest.MonkeyPatch.context() as patch, pytest.raises(OSError, match="disk full"):
        patch.setattr(citestats.corpus, "_corpus_lines", lines)
        write_corpus(corpus, path)
    assert not path.exists()


# ---------------------------------------------------------------------------
# the columnar loader against the record-at-a-time loader it replaced
# ---------------------------------------------------------------------------

# one mutation kind a loader message, each with the (field, value) pairs it
# sets; lone surrogates are valid JSON escapes that UTF-8 cannot encode.
# The year 2000.0 equals the other lines' int year, which a memo of years
# would merge it into, and 2**31 and -(2**63) overflow an int32 column
_BAD_VALUES = {
    "wrong-type": [
        ("id", 7), ("id", None), ("id", ["p"]), ("id", True), ("journal", 5), ("journal", {}),
        ("journal", False), ("year", "2000"), ("year", True), ("year", 2000.5), ("year", None),
        ("year", [2000]), ("year", 2000.0), ("kind", ["x"]), ("kind", 3),
    ],
    "not-an-array-of-strings": [
        ("authors", "au"), ("authors", [1]), ("authors", [[]]), ("authors", None),
        ("authors", [True]), ("authors", {"a": 1}), ("references", "p0"), ("references", [None]),
        ("references", [{}]), ("references", [[]]), ("references", 3),
    ],
    "lone-surrogate": [
        ("id", "\ud800"), ("journal", "j\udfff"), ("kind", "\udc00"),
        ("authors", ["au1", "\udbff"]), ("references", ["p0", "\udfff"]),
    ],
    "empty-id": [("id", "")],
    "empty-journal": [("journal", "")],
    "year-out-of-range": [("year", 1799), ("year", 2101), ("year", 2**31), ("year", -(2**63))],
    "unknown-kind": [("kind", "preprint"), ("kind", "")],
    "duplicate-author": [("authors", ["au1", "au1"])],
    "duplicate-ref": [("references", ["ghost-3", "ghost-3"])],
}
# those kinds and the kinds that break a whole line, also one loader message each
_MUTATIONS = sorted([*_BAD_VALUES, "self-ref", "missing", "unknown", "duplicate-id",
                     "repeated-key", "not-object", "bad-json", "invalid-utf8"])


def _mutated(how, record, records, choose):
    """The line of ``record`` mutated by ``how``; ``choose(options)`` picks each variant."""
    record = dict(record)
    if how in _BAD_VALUES:
        field, value = choose(_BAD_VALUES[how])
        record[field] = value
    elif how == "self-ref":
        record["references"] = [*record["references"], record["id"]]
    elif how == "missing":
        del record[choose(sorted(record))]
    elif how == "unknown":
        record[choose(["doi", "title", "zz"])] = "x"
    elif how == "duplicate-id":
        record["id"] = choose(records)["id"]
    elif how == "repeated-key":  # the key's first value, then the whole record
        return json.dumps({choose(sorted(record)): "x"})[:-1] + ", " + json.dumps(record)[1:]
    elif how == "invalid-utf8":
        return b"\xff" + json.dumps(record).encode()
    return {"not-object": "[1, 2]", "bad-json": "{not json"}.get(how, json.dumps(record))


@st.composite
def mutated_corpora(draw):
    """JSON lines of a valid corpus with one or two lines broken, each by a
    mutation kind drawn uniformly, or with a blank line inserted."""
    n = draw(st.integers(1, 6))
    records = []
    for i in range(n):
        pool = [f"p{j}" for j in range(n) if j != i] + ["ghost-1", "ghost-2"]
        records.append({
            "id": f"p{i}",
            "journal": draw(st.sampled_from(["ja", "jb"])),
            "year": draw(st.integers(1990, 2010)),
            "kind": draw(st.sampled_from(sorted(KINDS))),
            "authors": draw(st.lists(st.sampled_from(["au1", "au2", "au3"]), unique=True, max_size=2)),
            "references": draw(st.lists(st.sampled_from(pool), unique=True, max_size=3)),
        })
    lines = [json.dumps(r) for r in records]
    blanks = {}
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.integers(0, n - 1))
        how = draw(st.sampled_from([*_MUTATIONS, "blank"]))
        if how == "blank":
            blanks[at] = draw(st.sampled_from(["", "   ", "\n"]))
        else:
            lines[at] = _mutated(how, records[at], records, lambda o: draw(st.sampled_from(o)))
    return [text for at, line in enumerate(lines) for text in [blanks.get(at), line] if text is not None]


#: The functions of ``corpus.py`` that check what the loader reads.
_LOADER = ("_fail", "_check_record", "_check_fields", "_settle", "_object", "_read_rows")


def test_mutation_kinds_reach_every_loader_message():
    """Every message the loader raises, as ``test_messages`` collects them,
    is raised on a line that one of ``mutated_corpora``'s kinds broke."""
    source = Path(citestats.corpus.__file__).read_text(encoding="utf-8")
    messages = [parts for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name in _LOADER
                for parts in raised_messages(ast.get_source_segment(source, node)).values()]
    records = [{"id": f"p{i}", "journal": "j", "year": 2000, "kind": "review", "authors": ["a"],
                "references": []} for i in range(2)]
    raised = []
    for how in _MUTATIONS:
        line = _mutated(how, records[1], records, itemgetter(0))
        try:
            load_corpus([json.dumps(records[0]), line], strict=True)
        except RecordError as exc:
            raised.append(str(exc))
    assert len(raised) == len(_MUTATIONS)
    assert len(messages) > 15
    assert [parts for parts in messages if not pinned(parts, raised)] == []


@pytest.mark.parametrize("loaded", [False, True], ids=["generated", "loaded"])
def test_author_rows_follow_first_appearance(tmp_path, loaded):
    """Authors in order of first appearance, each with every row listing
    them: on a generated corpus, whose per-journal pool codes do not follow
    first appearance, and on the same corpus loaded, whose codes do."""
    corpus = generate(SynthConfig(
        seed=5, journals=[JournalSpec("a", 20, 2001, 2003), JournalSpec("b", 20, 2001, 2003)],
    ))
    if loaded:
        write_corpus(corpus, tmp_path / "corpus.jsonl")
        corpus = load_corpus(tmp_path / "corpus.jsonl")
    _, codes, _ = corpus._authors
    first_codes = list(dict.fromkeys(codes.tolist()))
    assert (first_codes == sorted(first_codes)) is loaded
    authors = corpus.authors
    assert list(corpus.author_rows) == list(dict.fromkeys(a for names in authors for a in names))
    for author_id, rows in corpus.author_rows.items():
        assert rows.tolist() == [row for row, names in enumerate(authors) if author_id in names]


def _outcome(load, lines, strict):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = load(lines, strict)
        except RecordError as exc:
            result = (type(exc), str(exc), getattr(exc, "line_number", None))
    return result, [(w.category, str(w.message)) for w in caught]


def _same_corpus(a, b):
    for column in ("year", "journal_code", "kind_code", "indptr", "citing_idx"):
        assert np.array_equal(getattr(a, column), getattr(b, column)), column
        assert getattr(a, column).dtype == getattr(b, column).dtype, column
    assert (a.ids, a.journals) == (b.ids, b.journals)
    assert list(a.author_rows) == list(b.author_rows)
    assert all(np.array_equal(rows, b.author_rows[aid]) for aid, rows in a.author_rows.items())
    assert a.unresolved_reference_count == b.unresolved_reference_count
    for corpus in (a, b):
        assert ref.citations(corpus) == (corpus.edges.tolist(), corpus.unresolved_reference_count)
    assert validate(a) == validate(b)
    assert ref.records(a) == ref.records(b)
    assert corpus_to_jsonl(a) == corpus_to_jsonl(b)


@settings(max_examples=400, deadline=None)
@given(mutated_corpora(), st.booleans(), st.booleans())
def test_columnar_loader_matches_record_loader(lines, strict, as_bytes):
    if as_bytes:
        lines = [line.encode() if type(line) is str else line for line in lines]
    got, got_warnings = _outcome(load_corpus, lines, strict)
    want, want_warnings = _outcome(ref.load_corpus, lines, strict)
    assert got_warnings == want_warnings
    if isinstance(want, tuple):
        assert got == want
    else:
        _same_corpus(got, want)
    # iter_records yields the records load_corpus reads, as mappings
    got, got_warnings = _outcome(lambda s, strict: list(iter_records(s, strict)), lines, strict)
    want, want_warnings = _outcome(_reference_records, lines, strict)
    assert (got, got_warnings) == (want, want_warnings)


def _reference_records(source, strict):
    """The records of the reference loader's corpus, as mappings."""
    return list(map(ref.record_dict, ref.records(ref.load_corpus(source, strict)).values()))


@pytest.mark.parametrize(
    "lines",
    [
        [jline("p0"), b"{\"id\": \"p\xe9\"}", jline("p0", refs=["p0"])],
        [jline("p0", refs=["p1", "p1"]), b"\xff"],
        [jline("p0", year=True), "[1]", jline("p2", kind="x")],
        [jline("p0"), jline("p0"), "{not json"],
        [json.dumps({**json.loads(jline("p0")), "doi": 1}), jline("p1", year=1700),
         json.dumps({**json.loads(jline("p2")), "title": 1})],
        [jline("p0"), jline("p1", authors=["a", "b", "a"]), jline("p2")],
        [ref.PaperRecord("p0", "j", 2000, "review"), jline("p1")],
        [jline("p0", year=1700), jline("p1").replace('"kind"', '"year": 2000, "kind"')],
        [jline("p0", refs=["p0"]), jline("p1").replace('{"id": "p1"', '{"id": "p1", "id": "p1"')],
        [json.dumps({**json.loads(jline("p0")), "doi": 1}),
         jline("p1").replace('"authors"', '"doi": {"a": 1, "a": 2}, "authors"')],
        [jline("p0"), jline("p0"), jline("p2").replace('"kind"', '"kind": 1, "kind"')],
    ],
    ids=["utf8-after-self-ref", "bad-bytes-after-dup-ref", "bool-year-first",
         "duplicate-id-before-bad-json", "warning-kept-before-error-only",
         "duplicate-author", "record-item", "repeated-key-after-bad-year",
         "repeated-id-key-after-self-ref", "repeated-key-nested-after-warning",
         "duplicate-id-before-repeated-key"],
)
@pytest.mark.parametrize("strict", [False, True])
def test_first_bad_line_is_reported_as_before(lines, strict):
    lines = [line.encode() if isinstance(line, str) else line for line in lines]
    got = _outcome(load_corpus, lines, strict)
    assert got == _outcome(ref.load_corpus, lines, strict)


_BAD_PAIRS = [pair for pairs in _BAD_VALUES.values() for pair in pairs]


@pytest.mark.parametrize(
    "field, value", _BAD_PAIRS, ids=[f"{field}-{value!r}" for field, value in _BAD_PAIRS]
)
@pytest.mark.parametrize("strict", [False, True])
def test_every_bad_value_is_reported_as_before(field, value, strict):
    """Each bad value on line 2, as mutated_corpora draws each one rarely."""
    bad = json.dumps({**json.loads(jline("p1")), field: value})
    lines = [jline("p0").encode(), bad.encode(), jline("p2", refs=["p0"]).encode()]
    got = _outcome(load_corpus, lines, strict)
    assert got == _outcome(ref.load_corpus, lines, strict)
    assert got[0][0] is RecordError and got[0][2] == 2


# ---------------------------------------------------------------------------
# the binary line reader of load_corpus(path) against the reference loader
# ---------------------------------------------------------------------------

# a binary file's buffer, where the file system gives no block size; a
# multiple of the common 4 KiB block, so a read ends there either way
CHUNK = io.DEFAULT_BUFFER_SIZE


def _file_record(i, raw=""):
    """Record line ``i``, citing line ``i - 1``; ``raw`` goes unescaped into its id."""
    return json.dumps({
        "id": f"p{i}{raw}", "journal": "j", "year": 2000, "kind": "review", "authors": ["a"],
        "references": [f"p{i - 1}"] if i else [],
    }, ensure_ascii=False).encode()


def _padded(line, at, size):
    """``line`` padded with JSON whitespace after its first ``{``, or in front
    of a line that is not an object, so that what sits at file offset ``at``
    moves to ``size``; as is if ``at`` is already past ``size``."""
    pad = size - at
    if pad <= 0:
        return line
    return line[:1] + b" " * pad + line[1:] if line.startswith(b"{") else b" " * pad + line


# each takes the line's index and gives its bytes
_FILE_LINES = {
    "record": _file_record,
    "separators-in-string": lambda i: _file_record(i, "\u2028\x85\u2029\x1c"),
    "control-char-in-string": lambda i: _file_record(i, "\x0c"),
    "blank": lambda i: b"",
    "whitespace": lambda i: b" \t",
    "form-feed": lambda i: b"\x0c\x0b",
    "nel": lambda i: "\x85".encode(),
    "line-separator": lambda i: " \u2028".encode(),
    "group-separators": lambda i: b"\x1c\x1d\x1e",
    "bom": lambda i: "\ufeff".encode() + _file_record(i),
    "surrounding-spaces": lambda i: b"  " + _file_record(i) + b" \t",
    "form-feed-before": lambda i: b"\x0c" + _file_record(i),
    "two-objects": lambda i: _file_record(i) + b" " + _file_record(i + 100),
    "two-numbers": lambda i: b"1, 2",
    "multi-byte": lambda i: _file_record(i, "\u00e9\u20ac\U0001f600"),
    "invalid-utf8": lambda i: _file_record(i).replace(b'"j"', b'"\xe9"'),
    "unterminated-string": lambda i: b'{"id": "p',
}


@st.composite
def jsonl_files(draw):
    """The bytes of a JSON-lines file: records, blank and broken lines under
    any mix of line ends, one line perhaps padded so that its end falls at
    a read boundary of the binary reader or the line spans a whole read."""
    kinds = draw(st.lists(st.sampled_from(sorted(_FILE_LINES)), max_size=8))
    lines = [_FILE_LINES[kind](i) for i, kind in enumerate(kinds)]
    one_end = draw(st.sampled_from([b"\n", b"\r\n", b"\r", None]))
    ends = [one_end or draw(st.sampled_from([b"\n", b"\r\n", b"\r"])) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = b""
    if lines and draw(st.booleans()):
        at = draw(st.integers(0, len(lines) - 1))
        end_at = draw(st.sampled_from([*range(CHUNK - 3, CHUNK + 3), 2 * CHUNK + 5]))
        lines[at] = _padded(lines[at], sum(map(len, lines[:at + 1] + ends[:at])), end_at)
    return b"".join(line + end for line, end in zip(lines, ends))


def _straddling(char):
    """A record whose id holds ``char``, its first byte the last of the first chunk."""
    line = _file_record(0, char)
    return _padded(line, line.index(char.encode()), CHUNK - 1) + b"\n" + _file_record(1)


def _late_invalid_byte():
    """Valid lines in the first chunk, then a line across the chunk boundary,
    valid lines ended by a lone CR in the second chunk, and a line of it not UTF-8."""
    first = _file_record(0) + b"\n"
    spanning = _padded(_file_record(1), len(first), CHUNK + 10) + b"\r\n"
    return first + spanning + _file_record(2) + b"\r" + _file_record(3) + b"\r" + \
        _FILE_LINES["invalid-utf8"](4) + b"\n" + _file_record(5)


@settings(max_examples=150, deadline=None)
@given(jsonl_files(), st.booleans())
@example(b"{}\r" + b" " * CHUNK + b"\r\n\n[", False)
@example("p\u2028\x85\n".encode() * 3, False)
@example(_padded(_file_record(0), len(_file_record(0)), CHUNK - 1) + b"\r\n" + _file_record(1),
         False)  # a CR ends the first chunk, and its LF starts the second
@example(_straddling("\u00e9"), False)
@example(_straddling("\U0001f600"), True)
@example(_late_invalid_byte(), False)
def test_file_reader_matches_the_reference_loader(tmp_path_factory, data, strict):
    path = tmp_path_factory.getbasetemp() / "file_reader.jsonl"
    path.write_bytes(data)
    got, got_warnings = _outcome(load_corpus, path, strict)
    want, want_warnings = _outcome(ref.load_corpus, data.splitlines(), strict)
    assert got_warnings == want_warnings
    if isinstance(want, tuple):
        assert got == want
    else:
        _same_corpus(got, want)
    with open(path, "rb") as handle:
        assert list(citestats.corpus._file_lines(handle)) == data.splitlines()


@settings(max_examples=150, deadline=None)
@given(jsonl_files(), st.booleans())
@example(_late_invalid_byte(), False)
@example(b"{}\r" + b" " * CHUNK + b"\r\n\n[", False)
def test_text_file_lines_load_as_the_path(tmp_path_factory, data, strict):
    """A text file's lines, each with its line end, load as the file's path
    does, and fail on the same line with the same error; only ``json``'s
    detail of an invalid line may differ, as the line end is part of the
    text it is given.  A file that is not UTF-8 may fail in the text reader
    instead, which decodes ahead of the lines it gives."""
    path = tmp_path_factory.getbasetemp() / "text_lines.jsonl"
    path.write_bytes(data)
    want, want_warnings = _outcome(load_corpus, path, strict)
    with open(path, encoding="utf-8") as handle:
        try:
            got, got_warnings = _outcome(load_corpus, handle, strict)
        except UnicodeDecodeError:
            with pytest.raises(UnicodeDecodeError):
                data.decode("utf-8")
            return
    assert got_warnings == want_warnings
    if not isinstance(want, tuple):
        _same_corpus(got, want)
    elif "invalid JSON (" in want[1]:
        assert (got[0], got[1].split("(")[0], got[2]) == (want[0], want[1].split("(")[0], want[2])
    else:
        assert got == want


def test_a_line_end_takes_the_scanner(monkeypatch):
    """A line ended by JSON whitespace, as a text file's lines are, is decoded
    by the scanner alone, without the slower ``json.loads``."""
    def loads(*args, **kwargs):
        raise AssertionError("json.loads called")

    lines = [jline("p1") + end for end in ("\n", "\r\n", " \t\n")]
    lines[1:] = [line.replace("p1", f"p{i}", 1) for i, line in enumerate(lines[1:], 2)]
    monkeypatch.setattr(citestats.corpus.json, "loads", loads)
    assert load_corpus(lines).ids == ("p1", "p2", "p3")


def _decoded(decode, text):
    try:
        return repr(decode(text))  # repr, as NaN is unequal to itself
    except (ValueError, RecursionError, RecordError) as exc:
        return type(exc), str(exc)


JSON_TEXTS = st.one_of(
    JSON_VALUES.map(json.dumps),
    st.builds(
        lambda before, value, after: before + json.dumps(value) + after,
        st.sampled_from(["", " ", "\t", "\r\n", "\ufeff", "\x0c", "\u2028"]),
        JSON_VALUES,
        st.sampled_from(["", " ", "\n ", "\x85", " 1", ", 2", "}", "]", "x", " {}"]),
    ),
    st.tuples(JSON_VALUES.map(json.dumps), st.integers(0, 20)).map(lambda t: t[0][: t[1]]),
    st.text(alphabet='{}[]",:-+.0123456789eEtrufalsnNIiy \\\n\x00\ufeff', max_size=16),
)


@settings(max_examples=500, deadline=None)
@given(JSON_TEXTS)
@example("9" * 5000)
@example("[" * 100_000 + "]" * 100_000)
@example('{"a": NaN, "b": -Infinity}')
@example('"\udc00"')
@example('{"a": 1, "b": [{"c": 2, "d": 3, "c": 4}], "a": 5}')
@example(' {"a": 1, "a": 2} x')
def test_decode_is_json_loads(text):
    """``_decode`` is ``json.loads``, but for a repeated key, as the oracle decodes."""
    assert _decoded(citestats.corpus._decode, text) == _decoded(ref.decode, text)
