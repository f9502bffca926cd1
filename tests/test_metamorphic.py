"""Metamorphic relations of the CLI: a command's outputs depend on the
records of its input file, not on how the file lays them out.

1. Permuting the input lines leaves every output byte-identical: the
   files written, standard output and error, and the exit code.  Only the
   manifest's input digest changes, and ``ingest``'s ``corpus.jsonl``,
   whose lines follow the input's, follows the same permutation.
2. Inserting blank lines, or ending lines in CRLF or a lone CR, changes
   nothing but the manifest's input digest.

Every corpus command runs in process through ``cli.main`` on small
generated corpora.  Each corpus holds five anchor papers, one or two in
each journal in the window years, so that every command succeeds: a
failed command's message names the first offending line or paper in
input order, which no relation holds for.
"""

import contextlib
import io
import json
import shutil
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from citestats.cli import main
from citestats.corpus import KIND_NAMES

JOURNALS = ("j0", "j1", "j2")
AUTHORS = tuple(f"au{i}" for i in range(6))
ANCHORS = tuple(f"a{i}" for i in range(5))

COMMANDS = (
    ["ingest"],
    ["validate"],
    ["journal-if", "--census-year", "2006", "--denominator", "all"],
    ["journal-profile", "--census-year", "2006", "--journal", "j0"],
    ["author-index", "--histograms"],
    ["compare", "--journal-a", "j0", "--journal-b", "j1", "--pub-years", "2004:2005",
     "--citing-years", "2006:2007"],
    ["policy", "--rule", "example1", "--core-journals", "j0", "--indexed-journals", "j1",
     "--with-divergence"],
    ["policy", "--rule", "example2", "--census-year", "2006", "--papers", ",".join(ANCHORS)],
    ["policy", "--rule", "example3", "--census-year", "2006", "--with-divergence"],
    ["report", "--census-year", "2006", "--pair", "j0:j1", "--pub-years", "2004:2005"],
)


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


def run(argv, directory: Path, data: bytes):
    """``main`` of ``argv`` on ``data`` as the input file: the exit code,
    standard output and error, the warnings, and the files written (the
    manifest without its timestamp and input digests)."""
    source, out = directory / "corpus.jsonl", directory / "out"
    source.write_bytes(data)
    out.mkdir()  # so that a failed command's empty output reads as one
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, "--input", str(source), "--out", str(out)])
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    shutil.rmtree(out)
    manifest = json.loads(files.pop("manifest.json", b"{}"))
    manifest.pop("timestamp", None)
    manifest["inputs"] = list(manifest.get("inputs", ()))
    shown = [str(warning.message) for warning in caught]
    return code, stdout.getvalue(), stderr.getvalue(), shown, files, manifest


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
        for argv in COMMANDS:
            code, stdout, stderr, shown, files, manifest = want = run(
                argv, directory, b"\n".join(lines))
            assert (code, stderr) == (0, "")
            assert run(argv, directory, laid_out) == want, argv
            if argv == ["ingest"]:
                written = files["corpus.jsonl"].split(b"\n")[:-1]
                files["corpus.jsonl"] = b"".join(written[i] + b"\n" for i in order)
            assert run(argv, directory, shuffled) == want, argv
