"""Metamorphic relations of the CLI: a command's outputs depend on the
records of its input file, not on how the file lays them out or names them.

1. Permuting the input lines leaves every output byte-identical: the
   files written, standard output and error, and the exit code, also for
   a command that loads the corpus and then fails.  Only the manifest's
   input digest changes, and ``ingest``'s ``corpus.jsonl``, whose lines
   follow the input's, follows the same permutation.
2. An order-preserving rename of the paper ids, a common prefix, leaves
   every output that holds no paper id byte-identical.  ``ingest``'s
   ``corpus.jsonl`` and ``policy_breakdown.json`` change only by the
   rename, as does the command a manifest records.
3. Appending a journal whose papers, by authors of their own, cite only
   each other leaves the other journals' rows of ``journal-if`` and
   ``report``, and the other authors' rows of ``author-index``, unchanged.
4. Inserting blank lines, or ending lines in CRLF or a lone CR, changes
   nothing but the manifest's input digest.

Every corpus command runs in process through ``cli.main`` on small
generated corpora.  Each corpus holds five anchor papers, one or two in
each journal in the window years, so that every command in ``COMMANDS``
succeeds.  ``FAILING``'s command fails on the corpora in which an author
has a paper in a journal without an impact factor.
"""

import contextlib
import io
import json
import random
import shutil
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from citestats.cli import main
from citestats.corpus import KIND_NAMES

JOURNALS = ("j0", "j1", "j2")
AUTHORS = tuple(f"au{i}" for i in range(6))
ANCHORS = tuple(f"a{i}" for i in range(5))
PREFIX = "renamed:"  # sorts the renamed ids as the ids


def commands(prefix=""):
    """The corpus commands; ``policy --rule example2`` names papers with ``prefix``."""
    return (
        ["ingest"],
        ["validate"],
        ["journal-if", "--census-year", "2006", "--denominator", "all"],
        ["journal-profile", "--census-year", "2006", "--journal", "j0"],
        ["author-index", "--histograms"],
        ["compare", "--journal-a", "j0", "--journal-b", "j1", "--pub-years", "2004:2005",
         "--citing-years", "2006:2007"],
        ["policy", "--rule", "example1", "--core-journals", "j0", "--indexed-journals", "j1",
         "--with-divergence"],
        ["policy", "--rule", "example2", "--census-year", "2006",
         "--papers", ",".join(prefix + a for a in ANCHORS)],
        ["policy", "--rule", "example3", "--census-year", "2006", "--with-divergence"],
        ["report", "--census-year", "2006", "--pair", "j0:j1", "--pub-years", "2004:2005"],
    )


COMMANDS = commands()
# no journal has a citable item of 2006-2007 unless a drawn paper is one
FAILING = (["policy", "--rule", "example3", "--census-year", "2008"],)


@st.composite
def corpus_lines(draw):
    """JSON lines of a valid corpus: the anchors (research articles of
    2004, a journal and author each, so that every journal has an impact
    factor and every rule two subjects) and up to 10 papers that cite any
    paper or an id outside the corpus."""
    ids = [*ANCHORS, *(f"p{i}" for i in range(draw(st.integers(0, 10))))]
    lines = []
    for i, pid in enumerate(ids):
        anchor = pid in ANCHORS
        others = [other for other in (*ids, "ghost") if other != pid]
        record = {
            "id": pid,
            "journal": JOURNALS[i % 3] if anchor else draw(st.sampled_from(JOURNALS)),
            "year": 2004 if anchor else draw(st.integers(2002, 2007)),
            "kind": "research-article" if anchor else draw(st.sampled_from(KIND_NAMES)),
            "authors": [AUTHORS[i]] if anchor else draw(
                st.lists(st.sampled_from(AUTHORS), min_size=1, max_size=3, unique=True)),
            "references": draw(st.lists(st.sampled_from(others), max_size=6, unique=True)),
        }
        lines.append(json.dumps(record).encode())
    return lines


@st.composite
def disjoint_journals(draw):
    """JSON lines of 1 to 4 papers of journal ``jz`` by authors ``zu*``,
    citing only each other, of years no later than the anchors'."""
    ids = [f"z{i}" for i in range(draw(st.integers(1, 4)))]
    return [json.dumps({
        "id": pid,
        "journal": "jz",
        "year": draw(st.integers(2002, 2004)),
        "kind": draw(st.sampled_from(KIND_NAMES)),
        "authors": draw(st.lists(st.sampled_from(["zu0", "zu1"]), min_size=1, unique=True)),
        "references": [z for z in ids if z != pid and draw(st.booleans())],
    }).encode() for pid in ids]


def run(argv, directory: Path, data: bytes):
    """``main`` of ``argv`` on ``data`` as the input file: the exit code,
    standard output and error, the warnings, and the files written (the
    manifest without its timestamp, input digests and command, which is
    checked to be ``argv``'s)."""
    source, out = directory / "corpus.jsonl", directory / "out"
    source.write_bytes(data)
    out.mkdir()  # so that a failed command's empty output reads as one
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = [*argv, "--input", str(source), "--out", str(out)]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    shutil.rmtree(out)
    manifest = json.loads(files.pop("manifest.json", b"{}"))
    manifest.pop("timestamp", None)
    assert manifest.pop("command", ["citestats", *argv]) == ["citestats", *argv]
    manifest["inputs"] = list(manifest.get("inputs", ()))
    shown = [str(warning.message) for warning in caught]
    return code, stdout.getvalue(), stderr.getvalue(), shown, files, manifest


def _record_line(pid, journal, year, author):
    return json.dumps({"id": pid, "journal": journal, "year": year, "kind": "research-article",
                       "authors": [author], "references": []}).encode()


@example(  # au0 has papers in j0 and j2, neither with an impact factor at 2008; the shuffle
    # puts the j2 paper first, which names j2 if the error names the first in subject order
    [*(_record_line(a, JOURNALS[i % 3], 2004, AUTHORS[i]) for i, a in enumerate(ANCHORS)),
     _record_line("p0", "j2", 2002, "au0")],
    random.Random(1), [], [b"\n"],
)
@settings(max_examples=25, deadline=None)
@given(
    corpus_lines(),
    st.randoms(use_true_random=False),
    st.lists(st.sampled_from([b"", b" ", b"\t"]), max_size=3),
    st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]), min_size=1),
)
def test_outputs_depend_on_the_records_not_the_layout(lines, random, blanks, ends):
    order = list(range(len(lines)))
    random.shuffle(order)
    shuffled = b"".join(lines[i] + b"\n" for i in order)
    pieces = []  # blank lines between the records and mixed line ends
    for line in lines:
        pieces += [blank + random.choice(ends) for blank in blanks if random.random() < 0.5]
        pieces.append(line + random.choice(ends))
    laid_out = b"".join(pieces)
    if random.random() < 0.5:
        laid_out = laid_out.rstrip(b"\r\n")  # no end to the last line
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        for argv in COMMANDS + FAILING:
            code, stdout, stderr, shown, files, manifest = want = run(
                argv, directory, b"\n".join(lines))
            assert (code, stderr) == (0, "") or argv in FAILING
            assert run(argv, directory, laid_out) == want, argv
            if argv == ["ingest"]:
                written = files["corpus.jsonl"].split(b"\n")[:-1]
                files["corpus.jsonl"] = b"".join(written[i] + b"\n" for i in order)
            assert run(argv, directory, shuffled) == want, argv


def _renamed(line: bytes) -> bytes:
    record = json.loads(line)
    record["id"] = PREFIX + record["id"]
    record["references"] = [PREFIX + pid for pid in record["references"]]
    return json.dumps(record).encode()


@settings(max_examples=20, deadline=None)
@given(corpus_lines())
def test_outputs_depend_on_the_order_of_the_paper_ids_not_their_names(lines):
    quoted = [json.dumps(json.loads(line)["id"]).encode() for line in lines] + [b'"ghost"']
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        for argv, renamed_argv in zip(COMMANDS + FAILING, commands(PREFIX) + FAILING):
            code, stdout, stderr, shown, files, manifest = run(argv, directory, b"\n".join(lines))
            for file in {"corpus.jsonl", "policy_breakdown.json"} & set(files):
                for pid in quoted:  # "p1" -> "renamed:p1"
                    files[file] = files[file].replace(pid, b'"' + PREFIX.encode() + pid[1:])
            want = code, stdout, stderr, shown, files, manifest
            assert run(renamed_argv, directory, b"\n".join(map(_renamed, lines))) == want, argv


def _without(csv_text: str, first_cell: str) -> str:
    return "".join(row for row in csv_text.splitlines(True) if row.split(",")[0] != first_cell)


@settings(max_examples=20, deadline=None)
@given(corpus_lines(), disjoint_journals())
def test_a_disjoint_journal_leaves_the_other_rows_alone(lines, appended):
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        for argv in COMMANDS:
            if argv[0] not in ("journal-if", "report", "author-index"):
                continue
            want = run(argv, directory, b"\n".join(lines))[4]
            got = run(argv, directory, b"\n".join(lines + appended))[4]
            if argv[0] == "journal-if":
                assert _without(got.pop("journal_if.csv").decode(), "jz") == \
                    want.pop("journal_if.csv").decode()
            elif argv[0] == "report":
                assert got.pop("age_profile_jz.csv")
                report = json.loads(got.pop("report.json"))
                assert report["journals"].pop("jz")
                assert report == json.loads(want.pop("report.json"))
                assert _without(got.pop("journals.csv").decode(), "jz") == \
                    want.pop("journals.csv").decode()
            else:
                histograms = json.loads(got.pop("author_histograms.json"))
                assert {key: histograms.pop(key) for key in ("zu0", "zu1") if key in histograms}
                assert histograms == json.loads(want.pop("author_histograms.json"))
                authors = _without(_without(got.pop("authors.csv").decode(), "zu0"), "zu1")
                assert authors == want.pop("authors.csv").decode()
            assert got == want, argv
