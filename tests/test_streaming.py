"""Output files are streamed: writing one allocates, at its peak, far less
memory than the file's size, as neither its whole text nor an encoded copy
of it is built."""

import json
import tracemalloc
import weakref
from types import SimpleNamespace

import pytest

from citestats import JournalSpec, SynthConfig, generate, write_corpus
from citestats.cli import _finish, _json_text, _OnLookup, _SharedCell


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


@pytest.mark.parametrize("n", [0, 1, 300])
def test_members_built_on_lookup_render_as_the_dict(n):
    """``scores`` built a member at a time, as written, as policy builds it
    from its columns: the text of the same payload with every member built,
    with no more than two members alive at once (the one written and the
    next one looked up)."""
    cells = [_SharedCell(decimal=f"{i / 7:.4f}", exact=f"{i}/7") for i in range(9)]

    def subject(s):
        breakdown = {f"paper-{s:03d}-{p}": cells[(s * p) % 9] for p in range(s % 4)}
        return {"score": {"decimal": "1.0000", "exact": f"{s}/1"}, "breakdown": breakdown}

    class Member(dict):
        """A dict whose lifetime a weak reference can see."""

    live = {"now": 0, "most": 0}

    def freed():
        live["now"] -= 1

    def member(s):
        value = Member(subject(s))
        live["now"] += 1
        live["most"] = max(live.values())
        weakref.finalize(value, freed)
        return value

    order = {f"subject-{s:03d}": s for s in reversed(range(n))}  # not in sorted order
    built = {"rule": "example3", "scores": {key: subject(s) for key, s in order.items()}}
    payload = {"rule": "example3", "scores": _OnLookup(order, member)}
    assert _json_text(payload) == json.dumps(built, indent=2, sort_keys=True)
    assert live["most"] == min(n, 2)


def test_a_cell_built_per_member_is_never_served_for_another():
    """The writer keeps a shared cell's text by the cell's id; a cell built
    for one member and dropped after it must not lend its text to a later
    object that reuses its id."""

    def cell(s):
        return _SharedCell(decimal=f"{s / 7:.4f}", exact=f"{s}/7")

    order = {f"subject-{s:03d}": s for s in range(300)}
    built = {"scores": {key: cell(s) for key, s in order.items()}}
    payload = {"scores": _OnLookup(order, cell)}
    assert _json_text(payload) == json.dumps(built, indent=2, sort_keys=True)


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
