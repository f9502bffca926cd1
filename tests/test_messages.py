"""Every error message the package raises is pinned by a test.

With the stdlib ``ast``, this finds each ``raise`` in ``src/`` whose
message, the exception's first argument, is a string literal, an f-string
or a ``+`` of them, and each such message passed to the loader's raise
helpers ``RAISERS``.  Its constant text, with each f-string hole and each
operand that is not a literal as a wildcard, must occur in one string of
the tests: an expected message, a ``match`` pattern (read with its regex
escapes removed), or an oracle's message that a test compares with the
library's.  A message no input can reach goes in ``UNREACHABLE`` with the
reason.  ``test_message`` pins the messages that no other test matched.
"""

import argparse
import ast
import json
import math
import re
from pathlib import Path

import pytest

import citestats
from citestats import (
    Corpus,
    EmpiricalDistribution,
    IFQuery,
    InsufficientDataError,
    JournalSpec,
    PolicyError,
    RecordError,
    SynthConfig,
    SynthConfigError,
    UsageError,
    build_tiers,
    config_from_json,
    divergence,
    if_variability,
    load_corpus,
    lognormal_fit,
    m_index,
)
from citestats.cli import _year_span, build_parser, cmd_author_index
from citestats.errors import CitationStatsError

from conftest import build_corpus, rec

SOURCES = sorted(Path(citestats.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))

#: ``module:line`` of a raise whose message no input reaches -> the reason.
UNREACHABLE: dict[str, str] = {}


def message_parts(node: ast.expr) -> list | None:
    """The message's constant text as a list of strings, with ``None`` for
    each hole; ``None`` if the message is neither a literal, an f-string
    nor a ``+`` with one of them."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        return [part.value if isinstance(part, ast.Constant) else None for part in node.values]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left, right = message_parts(node.left), message_parts(node.right)
        if left is not None or right is not None:
            return (left or [None]) + (right or [None])
    return None


#: The loader's helpers that raise ``RecordError`` ``line N: <their last argument>``.
RAISERS = ("_fail", "fail")


def raised_messages(source: str) -> dict[int, list]:
    """Line -> the parts of the message of each ``raise`` in ``source`` that
    has one, and of each call of one of ``RAISERS``."""
    messages = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
            message = node.exc.args[0]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", "") in RAISERS and node.args:
            message = node.args[-1]
        else:
            continue
        parts = message_parts(message)
        if parts is not None:
            messages[node.lineno] = parts
    return messages


def strings_of(source: str) -> list[str]:
    """Every string in ``source``, an f-string's holes empty, each also with
    its regex escapes removed; ``UNREACHABLE``'s own strings are left out."""
    tree = ast.parse(source)
    tree.body = [node for node in tree.body if not (
        isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "UNREACHABLE")]
    strings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.append(node.value)
        elif isinstance(node, ast.JoinedStr):
            strings.append("\0".join(
                part.value if isinstance(part, ast.Constant) else "" for part in node.values))
    return strings + [re.sub(r"\\(.)", r"\1", text) for text in strings if "\\" in text]


def pinned(parts: list, strings: list[str]) -> bool:
    """Whether one of ``strings`` holds the constant parts in order, the holes as wildcards."""
    pattern = re.compile(".*?".join(re.escape(part) for part in parts if part), re.DOTALL)
    return any(pattern.search(text) for text in strings)


def test_finds_messages_and_their_holes():
    source = (
        "def f(x, where):\n"
        "    raise ValueError('plain')\n"
        "    raise KeyError(f'bad {x!r} here')\n"
        "    raise UsageError(where + 'start > end')\n"
        "    raise TypeError(x)\n"
        "    raise\n"
        "    fail(f'{x} is bad')\n"
        "    _fail(3, 'worse')\n"
    )
    assert raised_messages(source) == {
        2: ["plain"], 3: ["bad ", None, " here"], 4: [None, "start > end"],
        7: [None, " is bad"], 8: ["worse"]}
    assert pinned(["bad ", None, " here"], ["match=r'^bad 'x' here$'"])
    assert not pinned(["bad ", None, " here"], ["bad x", "here"])


def test_every_error_message_is_pinned():
    strings = [text for path in TESTS for text in strings_of(path.read_text(encoding="utf-8"))]
    unpinned, sites = [], set()
    for path in SOURCES:
        for line, parts in raised_messages(path.read_text(encoding="utf-8")).items():
            site = f"{path.name}:{line}"
            sites.add(site)
            if site not in UNREACHABLE and not pinned(parts, strings):
                unpinned.append(f"{site} {''.join(part or '{}' for part in parts)!r}")
    assert unpinned == []
    assert set(UNREACHABLE) <= sites


def _no_usable_pairs():
    corpus = build_corpus(*(rec(f"p{year}", year=year) for year in range(2001, 2005)))
    return if_variability(corpus, "jnl-a", 2003, 2005)


def _config_file(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    return config_from_json(path)


J = JournalSpec("j", 5, 2000, 2004)


def _load_record(**fields):
    return load_corpus([json.dumps({"id": "p", "journal": "j", "year": 2000, "kind": "review",
                                    "authors": [], "references": [], **fields})])


@pytest.mark.parametrize("call, error, message", [
    (lambda _: m_index(3, 2005, 2000), UsageError,
     "evaluation year 2000 precedes first publication year 2005"),
    (lambda _: _year_span("2000:1999"), argparse.ArgumentTypeError,
     "expected YEAR or LO:HI with 1800 <= LO <= HI <= 2100, got '2000:1999'"),
    (lambda _: cmd_author_index(build_parser().parse_args(["author-index", "--input", "x"]),
                                load_corpus([])),
     CitationStatsError, "empty corpus: pass --evaluation-year explicitly"),
    (lambda _: lognormal_fit(EmpiricalDistribution({0: 3, 2: 1})), InsufficientDataError,
     "log-normal fit needs at least 2 distinct positive citation counts"),
    (lambda _: EmpiricalDistribution({}), InsufficientDataError, "empty citation distribution"),
    (lambda _: Corpus(), TypeError, "use load_corpus() or generate()"),
    (lambda _: if_variability(build_corpus(rec("p", year=2000)), "jnl-a", 2006, 2008),
     InsufficientDataError, "journal 'jnl-a': fewer than 2 defined impact factors in 2006..2008"),
    (lambda _: _no_usable_pairs(), InsufficientDataError,
     "journal 'jnl-a': no usable consecutive year pairs in 2003..2005 "
     "(zero-base skipped: 2, undefined: 0)"),
    (lambda _: IFQuery("j", 1801, 2), UsageError,
     "window would start before 1800 (census_year=1801, window_w=2)"),
    (lambda _: IFQuery("j", 2000, 2, "some"), UsageError, "unknown denominator policy 'some'"),
    (lambda _: IFQuery("j", 2000, 2, "all-items", "none"), UsageError,
     "unknown self-citation policy 'none'"),
    (lambda _: build_tiers(build_corpus(rec("a", year=2005), rec("b", year=2007)), 2007),
     InsufficientDataError, "tier table needs >= 3 journals with defined impact factors, got 1"),
    (lambda _: divergence({"a": math.nan, "b": 1}, {"a": 1, "b": 2}), PolicyError,
     "rankings must not contain unordered values (NaN)"),
    (lambda _: SynthConfig(1, [J], latent_mu=math.inf), SynthConfigError,
     "latent_mu must be finite, got inf"),
    (lambda _: JournalSpec("j\ud800", 5, 2000, 2004), SynthConfigError,
     "journal_id 'j\\ud800' holds a lone surrogate"),
    (lambda _: JournalSpec("j", 5, 2004, 2000), SynthConfigError,
     "journal 'j': start_year > end_year"),
    (lambda _: SynthConfig(1, []), SynthConfigError, "config needs at least one journal"),
    (lambda _: SynthConfig(1, [J, J]), SynthConfigError, "journal ids must be unique"),
    (lambda _: SynthConfig(1, [J], zero_inflation=1.5), SynthConfigError,
     "zero_inflation must be in [0, 1]"),
    (lambda _: SynthConfig(1, [J], half_life_years=0), SynthConfigError,
     "half_life_years must be > 0"),
    (lambda tmp_path: _config_file(tmp_path, "[1]"), SynthConfigError,
     "invalid synth config: expected a JSON object"),
    (lambda _: _load_record(journal=""), RecordError,
     "line 1: paper 'p': journal must be a nonempty string"),
    (lambda _: _load_record(year=1799), RecordError,
     "line 1: paper 'p': year 1799 outside [1800, 2100]"),
    (lambda _: _load_record(kind="x"), RecordError,
     "line 1: paper 'p': kind 'x' not one of ['book', 'editorial', 'letter', 'research-article', "
     "'review']"),
    (lambda _: _load_record(references=["q", "q"]), RecordError,
     "line 1: paper 'p': duplicate reference ids"),
    (lambda _: _load_record(references=["p"]), RecordError,
     "line 1: paper 'p': paper references itself"),
], ids=[
    "m_index-evaluation-before-first", "year-span-reversed", "author-index-empty-corpus",
    "lognormal-fit-one-positive-count", "empty-distribution", "corpus-constructor",
    "variability-undefined", "variability-zero-base", "window-before-year-min",
    "unknown-denominator-policy", "unknown-self-citation-policy", "tiers-too-few-journals",
    "divergence-nan", "synth-infinite-number", "synth-journal-surrogate",
    "synth-start-after-end", "synth-no-journal", "synth-repeated-journal",
    "synth-zero-inflation-range", "synth-zero-half-life", "synth-config-not-object",
    "loader-empty-journal", "loader-year-range", "loader-unknown-kind",
    "loader-duplicate-reference", "loader-self-reference",
])
def test_message(tmp_path, call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(tmp_path)
