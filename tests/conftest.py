"""Shared fixtures: small hand-built corpora with known citation structure."""

import pytest
from hypothesis import strategies as st

from citestats import Corpus, PaperRecord

#: Characters a JSON writer must escape or could mishandle: the quote, the
#: backslash, every control character, DEL, U+2028/U+2029, non-ASCII and astral.
AWKWARD_CHARS = ('"', "\\", "/", *map(chr, range(0x20)), "\x7f", "\u2028", "\u2029", "\xe9",
                 "\U0001f600")


def awkward_text(min_size=1, max_size=4):
    """Strings mixing :data:`AWKWARD_CHARS` with any other non-surrogate character."""
    chars = st.one_of(st.sampled_from(AWKWARD_CHARS), st.characters(blacklist_categories=("Cs",)))
    return st.text(chars, min_size=min_size, max_size=max_size)


def rec(pid, journal="jnl-a", year=2000, kind="research-article", authors=("au-1",), refs=()):
    return PaperRecord(
        id=pid,
        journal_id=journal,
        year=year,
        kind=kind,
        author_ids=tuple(authors),
        reference_ids=tuple(refs),
    )


def build_corpus(*records):
    return Corpus.from_records(records)


class NoRecords:
    """Stands in for ``citestats.corpus.PaperRecord`` to show that no record
    is built; ``__new__``, so that records built without ``__init__`` are
    caught too."""

    def __new__(cls, *args, **kwargs):
        raise AssertionError("a PaperRecord was built")


@pytest.fixture
def if_fixture_corpus():
    """4 substantive articles in the 2005-2006 window of jnl-a, receiving 6
    citations from papers published in 2007: impact factor 6/4 = 1.5."""
    return build_corpus(
        rec("a1", journal="jnl-a", year=2005),
        rec("a2", journal="jnl-a", year=2005),
        rec("a3", journal="jnl-a", year=2006),
        rec("a4", journal="jnl-a", year=2006),
        rec("c1", journal="jnl-b", year=2007, refs=("a1", "a2")),
        rec("c2", journal="jnl-b", year=2007, refs=("a1", "a3")),
        rec("c3", journal="jnl-c", year=2007, refs=("a2", "a4")),
    )


@pytest.fixture
def editorial_corpus():
    """2 research articles + 1 editorial in the window; 2 citations to the
    articles and 1 to the editorial.  Rule-of-thumb fixture for the
    denominator-policy split: 3/2 vs 3/3."""
    return build_corpus(
        rec("m1", journal="jnl-m", year=2005),
        rec("m2", journal="jnl-m", year=2005),
        rec("m3", journal="jnl-m", year=2006, kind="editorial"),
        rec("x1", journal="jnl-x", year=2007, refs=("m1", "m3")),
        rec("x2", journal="jnl-x", year=2007, refs=("m2",)),
    )


@pytest.fixture
def compare_fixture_corpus():
    """Two journals publishing 100 articles each in 2004.

    journal-a: 40 articles cited once, 60 uncited  -> {0: 60, 1: 40}
    journal-b: 40 articles cited twice, 60 uncited -> {0: 60, 2: 40}
    Citing papers are published in 2005.  P(A >= B) = 0.60 exactly.
    """
    records = []
    for i in range(100):
        records.append(rec(f"a{i:03d}", journal="journal-a", year=2004))
        records.append(rec(f"b{i:03d}", journal="journal-b", year=2004))
    for i in range(40):
        records.append(
            rec(f"c{i:03d}", journal="journal-src", year=2005, refs=(f"a{i:03d}", f"b{i:03d}"))
        )
        records.append(rec(f"d{i:03d}", journal="journal-src", year=2005, refs=(f"b{i:03d}",)))
    return build_corpus(*records)
