"""The entry point reading its input from a pipe, as separate processes:
``--input`` and ``--config`` name a FIFO, or ``/dev/stdin`` fed by a pipe.
Each input is read once, so the command ends, the manifest holds the SHA-256
of the bytes written, and an invalid byte is reported with its line number.
Every process has a timeout, so a reader that waits for a second writer
fails its test instead of hanging the suite."""

import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import citestats

SRC = str(Path(citestats.__file__).resolve().parents[1])

CORPUS = b"".join(
    json.dumps({"id": f"p{i}", "journal": "j", "year": 2000 + i, "kind": "review",
                "authors": ["a"], "references": [f"p{i - 1}"] if i else []}).encode() + end
    for i, end in enumerate((b"\n", b"\r\n", b"\r", b"\n"))
)
CONFIG = json.dumps({
    "seed": 3,
    "journals": [{"journal_id": "j0", "articles_per_year": 5, "start_year": 2001,
                  "end_year": 2003}],
}).encode()


def _fifo(tmp_path, data):
    """A FIFO that a writer thread fills with ``data``."""
    if not hasattr(os, "mkfifo"):
        pytest.skip("no FIFOs on this platform")
    path = tmp_path / "source"
    os.mkfifo(path)
    threading.Thread(target=path.write_bytes, args=(data,), daemon=True).start()
    return str(path), b""


def _stdin(tmp_path, data):
    if not os.path.exists("/dev/stdin"):
        pytest.skip("no /dev/stdin on this platform")
    return "/dev/stdin", data


def run(argv, data, reader, tmp_path):
    """``python -m citestats *argv --out out``, its ``{source}`` a pipe that
    ``reader`` makes to carry ``data``: its exit code, stderr and the inputs
    its manifest records."""
    source, stdin = reader(tmp_path, data)
    done = subprocess.run(
        [sys.executable, "-m", "citestats", *(a.format(source=source) for a in argv),
         "--out", "out"],
        env=dict(os.environ, PYTHONPATH=SRC),
        cwd=tmp_path,
        input=stdin,
        capture_output=True,
        timeout=60,
    )
    manifest = tmp_path / "out" / "manifest.json"
    inputs = json.loads(manifest.read_text())["inputs"] if manifest.exists() else None
    return done.returncode, done.stderr.decode(), inputs, source


READERS = pytest.mark.parametrize("reader", [_fifo, _stdin], ids=["fifo", "stdin"])


@READERS
@pytest.mark.parametrize("argv, data", [
    (["validate", "--input", "{source}"], CORPUS),
    (["synth", "--config", "{source}"], CONFIG),
], ids=["input", "config"])
def test_manifest_digests_the_bytes_written(tmp_path, reader, argv, data):
    code, err, inputs, source = run(argv, data, reader, tmp_path)
    assert code == 0, err
    assert inputs == {source: hashlib.sha256(data).hexdigest()}


@READERS
def test_invalid_byte_names_its_line(tmp_path, reader):
    lines = CORPUS.splitlines()
    data = b"\n".join([lines[0], lines[1].replace(b'"j"', b'"\xff"'), *lines[2:]])
    code, err, inputs, _ = run(["validate", "--input", "{source}"], data, reader, tmp_path)
    assert (code, err, inputs) == (
        2, "citestats: error: line 2: invalid UTF-8 (invalid start byte)\n", None
    )
