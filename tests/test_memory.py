"""A corpus's memory is its kept columns: loading one allocates, at its
peak, a small multiple of what the corpus keeps; ``Corpus.incoming``
allocates a few bytes per returned edge, as every per-edge array is four
bytes wide and no int64 temporary of an edge's length is made; and the
whole-journal metrics and ``validate``, which read the citations in parts,
allocate a few bytes per edge of a part, however many edges the rows
receive."""

import tracemalloc

import pytest

from citestats import (
    JournalSpec, SynthConfig, citation_age_profile, generate, load_corpus, self_citation_fraction,
    validate, window_coverage, write_corpus,
)
from citestats.corpus import _PART_EDGES


def _traced(call):
    """``call()``'s result, the memory Python held when it returned and the
    most it held at once during it, each beyond what it held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
        return result, kept - before, peak - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    """One journal of 2,000 papers over 40 years, about 100,000 edges."""
    corpus = generate(SynthConfig(
        seed=7, journals=[JournalSpec("core", 50, 1960, 1999)], references_per_paper=60.0,
    ))
    assert 95_000 < len(corpus.citing_idx) < 110_000
    path = tmp_path_factory.mktemp("memory") / "corpus.jsonl"
    write_corpus(corpus, path)
    return path


def test_a_load_peaks_at_a_small_multiple_of_what_it_keeps(corpus_path):
    # 1.59x; 2.01x with eight-byte reference codes and an int64 key
    corpus, kept, peak = _traced(lambda: load_corpus(corpus_path))
    assert len(corpus.citing_idx) > 95_000
    assert peak < 1.85 * kept


def test_incoming_allocates_a_few_bytes_per_edge(corpus_path):
    corpus = load_corpus(corpus_path)
    _, rows = corpus.journal_rows("core")
    (owner, citing), _, peak = _traced(lambda: corpus.incoming(rows))
    assert len(owner) == len(corpus.citing_idx)
    # owner, positions and citing rows at four bytes each: 13.0 bytes an
    # edge; 24.5 with int64 owners and positions built from int64 gathers
    assert peak < 15.5 * len(owner)


@pytest.mark.parametrize("metric", [
    lambda corpus: window_coverage(corpus, "core", 1999, 2),
    lambda corpus: self_citation_fraction(corpus, "core"),
    lambda corpus: self_citation_fraction(corpus, "core", 5),
    lambda corpus: citation_age_profile(corpus, 1999, None),
    validate,
], ids=["window_coverage", "self_citation_fraction", "self_citation_fraction_w5",
        "citation_age_profile", "validate"])
def test_metrics_read_in_parts_allocate_by_the_part_not_the_edge_count(corpus_path, metric):
    corpus = load_corpus(corpus_path)
    assert len(corpus.citing_idx) > 5 * _PART_EDGES
    _, _, peak = _traced(lambda: metric(corpus))
    # 27-31 bytes an edge of a part, the 2,000 rows' arrays aside; at 9-17
    # bytes an edge of all the rows receive with one incoming call
    assert peak < 40 * _PART_EDGES + 65_536


def test_a_load_of_many_short_rows_peaks_near_what_it_keeps(tmp_path):
    # 20,000 papers of about 5 references, where per-row objects would set
    # the peak: 1.49x; 2.48x with a tuple a row transposed into columns
    corpus = generate(SynthConfig(
        seed=7, journals=[JournalSpec(f"j{i}", 250, 2000, 2009) for i in range(8)],
        references_per_paper=5.0,
    ))
    path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, path)
    del corpus
    corpus, kept, peak = _traced(lambda: load_corpus(path))
    assert len(corpus) == 20_000 and 80_000 < len(corpus.citing_idx) < 100_000
    assert peak < 1.7 * kept
