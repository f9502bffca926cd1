"""The entry point, run as separate processes: ingest reproduces synth's
corpus byte for byte, also from copies with CRLF and lone-CR line ends
(which the loader's binary reader splits as ``bytes.splitlines`` does), and replicate, policy,
author-index and report print and write the same bytes in two processes,
one with ``PYTHONHASHSEED`` 1 and one with 2, so that no output hangs on set
or dict order, on policy's cells grouped by object id, or on the author order
of ``Corpus.author_rows``.  Every manifest holds a timestamp, and report's
stdout names ``--out``, so those are left out."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import citestats

SRC = str(Path(citestats.__file__).resolve().parents[1])


def run(argv, hash_seed, cwd):
    """``python -m citestats *argv`` with ``PYTHONHASHSEED=hash_seed``; its stdout."""
    done = subprocess.run(
        [sys.executable, "-m", "citestats", *argv],
        env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(hash_seed)),
        cwd=cwd,
        capture_output=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The volatility preset's corpus, written by ``synth``."""
    work = tmp_path_factory.mktemp("synth")
    run(["synth", "--preset", "volatility", "--seed", "1", "--out", "a"], 1, work)
    return work / "a" / "corpus.jsonl"


@pytest.mark.parametrize("ends", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
def test_ingest_reproduces_the_synth_corpus(corpus, tmp_path, ends):
    source = tmp_path / "source.jsonl"
    source.write_bytes(corpus.read_bytes().replace(b"\n", ends))
    run(["ingest", "--input", str(source), "--out", "b"], 2, tmp_path)
    assert (tmp_path / "b" / "corpus.jsonl").read_bytes() == corpus.read_bytes()


@pytest.mark.parametrize("argv", [
    ["replicate", "--preset", "volatility", "--runs", "3", "--census-years", "1996:2005"],
    ["policy", "--input", "{corpus}", "--rule", "example3", "--census-year", "2005",
     "--with-divergence"],
    ["author-index", "--input", "{corpus}", "--histograms"],
    ["report", "--input", "{corpus}", "--census-year", "2005",
     "--pair", "small-journal:large-journal", "--pub-years", "2003:2004", "--citing-years", "2005"],
], ids=lambda argv: argv[0])
def test_two_hash_seeds_write_the_same_bytes(corpus, tmp_path, argv):
    argv = [arg.format(corpus=corpus) for arg in argv]
    stdout = {seed: run([*argv, "--out", f"out{seed}"], seed, tmp_path) for seed in (1, 2)}
    files = {
        seed: {path.name: path.read_bytes() for path in (tmp_path / f"out{seed}").iterdir()}
        for seed in (1, 2)
    }
    assert files[1].keys() == files[2].keys() and len(files[1]) > 1
    if argv[0] != "report":
        assert stdout[1] == stdout[2]
    del files[1]["manifest.json"]  # it holds the run's timestamp
    for name in files[1]:
        assert files[1][name] == files[2][name], name
