"""The console script's exit paths, run as separate processes.

``entrypoint`` ends the process with ``os._exit`` once ``main`` returns, so
these tests check that nothing a user sees differs from ``main`` run in
this process, as a normal interpreter exit reported it: the exit status,
stdout, stderr and every output file (the manifest but for its
timestamp), an ``atexit`` handler that still runs, a closed stdout, and a
stdout pipe whose reader is gone."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import citestats
from citestats.cli import main

SRC = str(Path(citestats.__file__).resolve().parents[1])
ENTRY = "import sys; from citestats.cli import entrypoint; sys.exit(entrypoint())"
ATEXIT = "import atexit, sys; atexit.register(lambda: sys.stderr.write('atexit ran\\n')); " + ENTRY
# what the interpreter prints when its last flush of stdout fails
BROKEN_PIPE = (
    "Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' encoding='utf-8'>\n"
    "BrokenPipeError: [Errno 32] Broken pipe\n"
)


def spawn(code, argv, cwd, unbuffered=False, shell=(), **streams):
    """``python -c code *argv`` in ``cwd``, started by the ``shell`` command
    if one is given: stdout block-buffered unless ``unbuffered``, as on a
    pipe when ``PYTHONUNBUFFERED`` is unset."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="utf-8")
    env.pop("PYTHONUNBUFFERED", None)
    flags = ["-u"] if unbuffered else []
    streams.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        [*shell, sys.executable, *flags, "-c", code, *argv],
        env=env, cwd=cwd, stderr=subprocess.PIPE, text=True, timeout=120, **streams,
    )


def outputs(out: Path) -> dict:
    """Every file under ``out``: its bytes, or for the manifest its JSON
    without the timestamp."""
    files = {}
    for path in sorted(out.rglob("*")):
        if path.name == "manifest.json":
            files[path.name] = {**json.loads(path.read_text()), "timestamp": None}
        elif path.is_file():
            files[path.relative_to(out).as_posix()] = path.read_bytes()
    return files


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The volatility preset's corpus, written by ``main``."""
    work = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--preset", "volatility", "--seed", "1", "--out", str(work)]) == 0
    return work / "corpus.jsonl"


def in_process(argv, cwd, monkeypatch, capsys):
    """``main(argv)`` in ``cwd``: its return value, stdout and stderr."""
    monkeypatch.chdir(cwd)
    code = main(argv)
    printed = capsys.readouterr()
    return code, printed.out, printed.err


CASES = {
    "report": (0, ["report", "--input", "{corpus}", "--census-year", "2005", "--out", "out"]),
    "policy": (0, ["policy", "--input", "{corpus}", "--rule", "example3", "--census-year",
                   "2005", "--with-divergence", "--out", "out"]),
    "synth": (0, ["synth", "--preset", "volatility", "--seed", "2", "--out", "out"]),
    "no-census-year": (1, ["report", "--input", "{corpus}", "--out", "out"]),
    "bad-pair": (1, ["report", "--input", "{corpus}", "--census-year", "2005",
                     "--pair", "x", "--out", "out"]),
    "missing-input": (2, ["ingest", "--input", "missing.jsonl", "--out", "out"]),
    "help": (0, ["--help"]),
    "version": (0, ["--version"]),
}


@pytest.mark.parametrize("case", CASES)
def test_status_streams_and_files_match_main(case, corpus, tmp_path, monkeypatch, capsys):
    status, argv = CASES[case]
    argv = [arg.format(corpus=corpus) for arg in argv]
    (tmp_path / "main").mkdir()
    (tmp_path / "script").mkdir()
    expected = in_process(argv, tmp_path / "main", monkeypatch, capsys)
    done = spawn(ENTRY, argv, tmp_path / "script")
    assert expected[0] == status
    assert (done.returncode, done.stdout, done.stderr) == expected
    assert "Traceback" not in done.stderr
    assert outputs(tmp_path / "script") == outputs(tmp_path / "main")


@pytest.mark.parametrize("argv, status, stderr", [
    (["--version"], 0, ""),
    (["ingest", "--input", "missing.jsonl", "--out", "out"], 2,
     "citestats: error: [Errno 2] No such file or directory: 'missing.jsonl'\n"),
], ids=["ok", "data-error"])
def test_an_atexit_handler_still_runs(tmp_path, argv, status, stderr):
    done = spawn(ATEXIT, argv, tmp_path)
    assert (done.returncode, done.stderr) == (status, stderr + "atexit ran\n")


def test_closed_stdout(corpus, tmp_path, monkeypatch, capsys):
    """``>&-``: there is no ``sys.stdout``, so nothing is printed or flushed."""
    argv = ["report", "--input", str(corpus), "--census-year", "2005", "--out", "out"]
    (tmp_path / "main").mkdir()
    (tmp_path / "script").mkdir()
    in_process(argv, tmp_path / "main", monkeypatch, capsys)
    done = spawn(ENTRY, argv, tmp_path / "script", shell=["sh", "-c", 'exec "$0" "$@" >&-'],
                 stdout=None)
    assert (done.returncode, done.stderr) == (0, "")
    assert outputs(tmp_path / "script") == outputs(tmp_path / "main")


@pytest.mark.parametrize("unbuffered, status, stderr", [
    # the buffered line reaches the pipe only in the last flush, which fails
    # and falls back to the interpreter's own exit and report
    (False, 120, BROKEN_PIPE),
    # print itself fails inside main, a data error
    (True, 2, "citestats: error: [Errno 32] Broken pipe\n"),
], ids=["buffered", "unbuffered"])
def test_stdout_pipe_without_a_reader(corpus, tmp_path, unbuffered, status, stderr):
    read, write = os.pipe()
    os.close(read)
    try:
        argv = ["report", "--input", str(corpus), "--census-year", "2005", "--out", "out"]
        done = spawn(ATEXIT, argv, tmp_path, unbuffered, stdout=write)
    finally:
        os.close(write)
    assert done.returncode == status
    # the handler runs once: before the failed last flush, or after main's
    # error line
    expected = "atexit ran\n" + stderr if status == 120 else stderr + "atexit ran\n"
    assert done.stderr == expected
    assert "Traceback" not in done.stderr
    # main prints after it writes: a print that fails removes every file, and
    # the failed last flush comes after every file, the manifest included
    written = {path.name for path in (tmp_path / "out").glob("*")}
    assert not written if unbuffered else "manifest.json" in written


def test_an_exception_from_main_keeps_its_traceback(tmp_path):
    """A bug in ``main`` leaves through the interpreter, as before: its
    traceback, exit 1, and the ``atexit`` handlers."""
    bug = ATEXIT.replace("sys.exit(entrypoint())", "import citestats.cli as cli; "
                         "cli.main = lambda: 1 // 0; entrypoint()")
    done = spawn(bug, [], tmp_path)
    assert done.returncode == 1
    assert done.stderr.startswith("Traceback (most recent call last):\n")
    assert done.stderr.endswith("ZeroDivisionError: integer division or modulo by zero\n"
                                "atexit ran\n")
