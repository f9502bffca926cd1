"""Output files are streamed: writing one allocates, at its peak, far less
memory than the file's size, as neither its whole text nor an encoded copy
of it is built."""

import tracemalloc
from types import SimpleNamespace

from citestats import JournalSpec, SynthConfig, generate, write_corpus
from citestats.cli import _finish, _SharedCell


def _peak_allocation(write) -> int:
    """The most memory Python held at once during ``write()``, beyond what it held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_a_json_payload_is_written_in_pieces(tmp_path):
    """A payload shaped as ``policy --with-divergence`` writes it: many
    subjects whose breakdowns share a few cells, marked as shared."""
    cells = [_SharedCell(decimal=f"{i / 7:.4f}", exact=f"{i}/7") for i in range(50)]
    payload = {
        "rule": "example3",
        "scores": {
            f"subject-{s:05d}": {
                "score": cells[s % 50],
                "breakdown": {f"paper-{s:05d}-{p:02d}": cells[(s + p) % 50] for p in range(20)},
            }
            for s in range(2500)
        },
    }
    files = {"policy_breakdown.json": payload}
    peak = _peak_allocation(lambda: _finish(SimpleNamespace(out=tmp_path), [], files, "", [], ""))
    size = (tmp_path / "policy_breakdown.json").stat().st_size
    assert size > 4_000_000
    assert peak < size / 20


def test_cells_held_once_are_not_kept(tmp_path):
    """A payload shaped as ``author-index --histograms`` writes it: a dict of
    scalars or two per author, none of them shared, whose texts are not kept."""
    payload = {
        f"author-{a:05d}": {
            "buckets": {str(k): (a * k) % 97 for k in range(1, 6)},
            "h": a % 13,
            "tail_fraction": {"decimal": f"{a % 7 / 7:.4f}", "exact": f"{a % 7}/7"},
        }
        for a in range(5000)
    }
    files = {"author_histograms.json": payload}
    peak = _peak_allocation(lambda: _finish(SimpleNamespace(out=tmp_path), [], files, "", [], ""))
    size = (tmp_path / "author_histograms.json").stat().st_size
    assert size > 1_000_000
    # the sorted keys of the outer dict, 5,000 names, are most of it; with
    # every cell's text kept, the peak was above the file's size
    assert peak < size / 5


def test_a_corpus_is_written_in_batches_of_rows(tmp_path):
    """A generated field of 64 journals and about 9,000 papers, 15 references each."""
    corpus = generate(SynthConfig(
        seed=3,
        journals=[JournalSpec(f"field-{i:02d}", 15, 2001, 2010) for i in range(64)],
        references_per_paper=15.0,
    ))
    path = tmp_path / "corpus.jsonl"
    peak = _peak_allocation(lambda: write_corpus(corpus, path))
    size = path.stat().st_size
    assert size > 3_000_000
    # the quoted distinct ids and authors, each quoted once, are most of it
    assert peak < size / 2
