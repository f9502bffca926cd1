"""The column-building generator against the record-building one.

``reference_metrics.generate`` is the generator as it was before it built
columns: string ids, string reference tuples and eager records, indexed by
its own ``from_records``.  Both must give the same corpus for any config,
and the replicate path must never call the record entry points.  The
reference keeps numpy's per-paper ``Generator.choice`` author draws, and
``synth._sorted_choices``, which replays them in one pass, is also checked
draw by draw against ``choice``, generator state included.
"""

import gc
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import citestats.corpus
import reference_metrics as ref
from citestats import (
    JournalSpec,
    SynthConfig,
    SynthConfigError,
    corpus_to_jsonl,
    generate,
    load_corpus,
    math_calibrated_config,
    replicate,
    validate,
    volatility_config,
)
from citestats.cli import main
from citestats.synth import _sorted_choices

from conftest import forbid_record_entry_points
from test_golden import CONFIG, GOLDEN

ARRAYS = ("year", "journal_code", "kind_code", "indptr", "citing_idx")


@st.composite
def configs(draw):
    ids = draw(st.lists(st.sampled_from(("j0", "j1", "j2")), min_size=1, max_size=3, unique=True))
    journals = []
    for journal_id in ids:
        start = draw(st.integers(2000, 2004))
        journals.append(
            JournalSpec(
                journal_id,
                articles_per_year=draw(st.integers(0, 6)),
                start_year=start,
                end_year=start + draw(st.integers(0, 4)),  # 0: a single-year span
                quality_scale=draw(st.sampled_from((0.25, 1.0, 3.0))),
            )
        )
    return SynthConfig(
        seed=draw(st.integers(0, 2**64 - 1)),
        journals=tuple(journals),
        latent_mu=draw(st.sampled_from((0.0, 0.5))),
        latent_sigma=draw(st.sampled_from((0.0, 0.8))),
        zero_inflation=draw(st.sampled_from((0.0, 0.3, 1.0))),
        half_life_years=draw(st.sampled_from((1.0, 10.0))),
        references_per_paper=draw(st.sampled_from((0.0, 2.0, 8.0))),
    )


@settings(max_examples=200, deadline=None)
@given(configs())
def test_generate_matches_reference(config):
    if all(j.articles_per_year == 0 for j in config.journals):
        for build in (generate, ref.generate):
            with pytest.raises(SynthConfigError, match="zero papers"):
                build(config)
        return
    corpus, expected = generate(config), ref.generate(config)
    # the columns first, before anything builds the records
    assert repr(corpus) == repr(expected)
    assert len(corpus) == len(expected) and len(corpus.edges) == len(expected.edges)
    for name in ARRAYS:
        array, want = getattr(corpus, name), getattr(expected, name)
        assert array.dtype == want.dtype and np.array_equal(array, want), name
        assert not array.flags.writeable
    assert corpus.ids == expected.ids and corpus.journals == expected.journals
    assert corpus_to_jsonl(corpus) == corpus_to_jsonl(expected)
    assert list(corpus.author_rows) == list(expected.author_rows)
    for author_id, rows in corpus.author_rows.items():
        assert np.array_equal(rows, expected.author_rows[author_id])
    assert np.array_equal(corpus.edges, expected.edges)
    for built in (corpus, expected):
        assert ref.citations(built) == (built.edges.tolist(), built.unresolved_reference_count)
    assert ref.edges(corpus) == ref.edges(expected)
    assert validate(corpus) == validate(expected)


def _jsonl_lines(build, config):
    # compared as lines: pytest's diff of two multi-megabyte strings takes minutes
    return corpus_to_jsonl(build(config)).splitlines()


def test_generate_matches_reference_on_the_volatility_preset():
    for seed in (1, 77, 2009, 12_345):
        config = volatility_config(seed)
        assert _jsonl_lines(generate, config) == _jsonl_lines(ref.generate, config), seed


def test_generate_matches_reference_on_the_math_preset():
    config = math_calibrated_config(31)
    assert _jsonl_lines(generate, config) == _jsonl_lines(ref.generate, config)


def test_generate_matches_reference_over_many_journals():
    """The benchmark's field model, with journals that publish nothing or
    fewer than 3 papers a year among them: the author names of journal codes
    past the presets' two, and of pools that skip an empty journal."""
    sizes = (6, 0, 8, 2, 10, 12, 15, 20, 25, 30, 40, 50, 60, 80)
    config = SynthConfig(
        seed=4242,
        journals=tuple(
            JournalSpec(f"field-{i:02d}", sizes[i % len(sizes)], 2001, 2010, 0.5 + 1.5 * i / 63)
            for i in range(64)
        ),
        half_life_years=6.0,
        references_per_paper=15.0,
        zero_inflation=0.3,
    )
    # compared as lines: pytest's diff of two multi-megabyte strings takes minutes
    got, want = (corpus_to_jsonl(build(config)).split("\n") for build in (generate, ref.generate))
    assert got == want


# pools of 3 (k = 3 makes a draw with bound 0), small pools, pools where
# numpy's tail-shuffle branch would apply were k larger, and pools of 2**31
# to just under 2**32, where up to half of the 32-bit Lemire draws are
# rejected
POOL_SIZES = st.one_of(
    st.just(3), st.integers(4, 300), st.integers(10_001, 10**9), st.integers(2**31, 2**32 - 2)
)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    rows=st.lists(st.tuples(POOL_SIZES, st.integers(1, 3)), max_size=40),
    pending=st.booleans(),
)
@example(seed=0, rows=[(3, 3)], pending=True)
@example(seed=1, rows=[(2**31 + 3, 1)] * 20, pending=False)
def test_sorted_choices_replays_generator_choice(seed, rows, pending):
    oracle, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if pending:  # leaves the high half of a raw word buffered
        for generator in (oracle, rng):
            generator.integers(0, 5, dtype=np.uint32)
    want = [sorted(oracle.choice(pop, k, replace=False).tolist()) for pop, k in rows]
    pools = np.array([pop for pop, _ in rows], dtype=np.int64)
    counts = np.array([k for _, k in rows], dtype=np.int64)
    picks = _sorted_choices(rng, pools, counts).tolist()
    assert [row[3 - k :] for row, k in zip(picks, counts.tolist())] == want
    assert all(row[: 3 - k] == [-1] * (3 - k) for row, k in zip(picks, counts.tolist()))
    assert rng.bit_generator.state == oracle.bit_generator.state
    assert rng.random() == oracle.random()


def test_journal_without_papers_is_not_in_the_corpus(tmp_path):
    config = SynthConfig(
        seed=3,
        journals=(JournalSpec("a", 0, 2000, 2005), JournalSpec("b", 4, 2000, 2005)),
    )
    corpus = generate(config)
    assert corpus.journals == ("b",)
    path = tmp_path / "corpus.jsonl"
    citestats.corpus.write_corpus(corpus, path)
    assert load_corpus(path).journals == ("b",)


def test_replicate_reports_a_journal_without_papers_as_undefined(tmp_path):
    config = SynthConfig(
        seed=3,
        journals=(JournalSpec("a", 0, 2000, 2005), JournalSpec("b", 20, 1995, 2005)),
    )
    runs = replicate(config, 2, 2002, 2005)
    assert [run.journals["a"] for run in runs] == [None, None]
    assert all(run.journals["b"] is not None for run in runs)

    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "seed": 3,
        "journals": [
            {"journal_id": "a", "articles_per_year": 0, "start_year": 2000, "end_year": 2005},
            {"journal_id": "b", "articles_per_year": 20, "start_year": 1995, "end_year": 2005},
        ],
    }))
    out = tmp_path / "out"
    args = ["replicate", "--config", str(path), "--runs", "2", "--census-years", "2002:2005"]
    assert main([*args, "--out", str(out)]) == 0
    rows = (out / "replicate.csv").read_text().splitlines()
    assert [r for r in rows if ",a," in r] == [
        f"{i},{run.seed},a,0,0,0,NA" for i, run in enumerate(runs)
    ]
    payload = json.loads((out / "replicate.json").read_text())
    assert [run["journals"]["a"] for run in payload["runs"]] == [None, None]


def test_replicate_builds_no_records(monkeypatch, tmp_path):
    forbid_record_entry_points(monkeypatch)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    out = tmp_path / "replicate"
    argv = ["replicate", "--config", str(config), "--runs", "3", "--census-years", "2007:2010"]
    assert main([*argv, "--out", str(out)]) == 0
    for name in ("replicate.csv", "replicate.json"):
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == GOLDEN[f"replicate/{name}"]

    corpus = generate(SynthConfig(seed=1, journals=(JournalSpec("j", 30, 2000, 2006),)))
    assert len(corpus) == 210 and len(corpus.edges) == validate(corpus).edge_count > 0
    assert repr(corpus).startswith("<Corpus papers=210 ")
    assert [np.count_nonzero(corpus.edges[:, 1] == 0)] == corpus.citation_counts(corpus.rows(["j-2000-0000"]))


def test_generated_corpus_is_freed_without_the_cycle_collector():
    config = SynthConfig(seed=1, journals=(JournalSpec("j", 5, 2000, 2003),))
    gc.collect()
    gc.disable()
    try:
        corpus = generate(config)
        del corpus
        assert gc.collect() == 0
        corpus = generate(config)
        assert ref.records(corpus)["j-2001-0000"].journal_id == "j"
        assert len(corpus.author_rows) > 0
        first = ref.edges(corpus)[0]
        assert first.citing_year > first.cited_year
        citing, cited = corpus.edges[0]
        assert corpus.year[citing] > corpus.year[cited]
        incoming = ref.incoming_edges(corpus, "j-2000-0000")
        assert len(incoming) == ref.citations_to(corpus, "j-2000-0000")
        del incoming
        del corpus
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_loaded_reference_ids_share_one_object():
    lines = [
        json.dumps({"id": p, "journal": "j", "year": 2000 + i, "kind": "review",
                    "authors": ["author-1"], "references": refs})
        for i, (p, refs) in enumerate(
            (("paper-a", []), ("paper-b", ["paper-a"]), ("paper-c", ["paper-a", "paper-b"]))
        )
    ]
    corpus = load_corpus(io.StringIO("\n".join(lines)))
    a, b, c = ref.records(corpus).values()
    assert b.reference_ids[0] is c.reference_ids[0] is a.id
    assert c.reference_ids[1] is b.id
    assert a.author_ids[0] is b.author_ids[0] is c.author_ids[0]


GOOD_JOURNAL = {"journal_id": "a", "articles_per_year": 3, "start_year": 2000, "end_year": 2003}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"articles_per_year": 2.5}, "articles_per_year must be an int, got 2.5"),
        ({"articles_per_year": True}, "articles_per_year must be an int, got True"),
        ({"articles_per_year": "3"}, "articles_per_year must be an int, got '3'"),
        ({"start_year": 2000.0}, "start_year must be an int, got 2000.0"),
        ({"end_year": False}, "end_year must be an int, got False"),
        ({"quality_scale": True}, "quality_scale must be a number, got True"),
        ({"quality_scale": "2"}, "quality_scale must be a number"),
        ({"journal_id": 5}, "journal_id must be a nonempty string, got 5"),
        ({"start_year": 1799}, "journal 'a': years outside [1800, 2100]"),
        ({"end_year": 2101}, "journal 'a': years outside [1800, 2100]"),
        ({"quality_scale": 0}, "journal 'a': quality_scale must be > 0"),
        ({"quality_scale": -1.5}, "journal 'a': quality_scale must be > 0"),
    ],
)
def test_synth_rejects_mistyped_journal_fields(tmp_path, capsys, change, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 1, "journals": [{**GOOD_JOURNAL, **change}]}))
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "change, message",
    [
        ({"seed": "x"}, "seed must be an int, got 'x'"),
        ({"seed": 1.0}, "seed must be an int, got 1.0"),
        ({"seed": True}, "seed must be an int, got True"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"latent_mu": True}, "latent_mu must be a number"),
        ({"zero_inflation": "0.3"}, "zero_inflation must be a number"),
        ({"references_per_paper": None}, "references_per_paper must be a number"),
        ({"half_life_years": float("inf")}, "half_life_years must be finite"),
        ({"latent_sigma": float("nan")}, "latent_sigma must be finite"),
        ({"latent_sigma": -0.1}, "latent_sigma must be >= 0"),
        ({"references_per_paper": -1}, "references_per_paper must be >= 0"),
    ],
)
def test_synth_rejects_mistyped_config_fields(tmp_path, capsys, change, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 1, "journals": [GOOD_JOURNAL], **change}))
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["synth"], ["replicate", "--runs", "1", "--census-years", "2001:2002"]],
    ids=["synth", "replicate"],
)
@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"seed": 1, "journals": [\xff]}', "can't decode byte 0xff"),
        (b"[" * 200_000 + b"]" * 200_000, "maximum recursion depth exceeded"),
    ],
    ids=["invalid-utf8", "nested-200000-deep"],
)
def test_unreadable_config_is_a_data_error(tmp_path, capsys, argv, content, message):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    out = tmp_path / "out"
    assert main([argv[0], "--config", str(path), *argv[1:], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("citestats: error: invalid synth config: ")
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["synth"], ["replicate", "--runs", "1", "--census-years", "2001:2002"]],
    ids=["synth", "replicate"],
)
def test_references_per_paper_numpy_cannot_draw_is_a_data_error(tmp_path, capsys, argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {"seed": 1, "journals": [GOOD_JOURNAL], "references_per_paper": 1e300}
    ))
    out = tmp_path / "out"
    assert main([argv[0], "--config", str(path), *argv[1:], "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "citestats: error: references_per_paper 1e+300 cannot be drawn: lam value too large\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["synth"], ["replicate", "--runs", "1", "--census-years", "2001:2002"]],
    ids=["synth", "replicate"],
)
def test_more_papers_than_a_corpus_holds_is_a_data_error(tmp_path, capsys, argv):
    # 10**15 a year fails before anything is allocated; a count that numpy
    # could allocate must not be tried here
    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {"seed": 1, "journals": [{**GOOD_JOURNAL, "articles_per_year": 10**15}]}
    ))
    out = tmp_path / "out"
    assert main([argv[0], "--config", str(path), *argv[1:], "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "citestats: error: config makes 4000000000000000 papers, "
        "more than a corpus holds (2147483647)\n"
    )
    assert not out.exists()


def test_synth_config_numbers_take_ints_and_reject_non_objects(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "seed": 1,
        "journals": [{**GOOD_JOURNAL, "quality_scale": 2}],
        "references_per_paper": 3,
        "half_life_years": 5,
    }))
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    for text, message in (("[1]", "expected a JSON object"), ("{", "invalid synth config")):
        path.write_text(text)
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "bad")]) == 2
        assert message in capsys.readouterr().err
