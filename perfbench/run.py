#!/usr/bin/env python3
"""Closed-loop benchmark of the citestats CLI.

    python3 perfbench/run.py --workload report-math --seed 2009 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

One client: each CLI command is spawned only after the previous one has
exited, so at most one command runs at a time.  With ``--trace 0`` every
command runs as a child process through the ``citestats`` entry point and
the end-to-end metrics are reported, with times scaled to a reference host
speed measured while each command runs; with ``--trace 1`` the workload
runs in process, once untraced and once with spans around every library
layer, and the per-layer metrics are reported.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

See NOTES.md for the workloads, the metrics and the known pitfalls.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import layers
import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORK = OUT / "work"

DEFAULT_SEED = 2009
SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 60.0
CENSUS_YEAR = 2010
REPLICATE_RUNS = 10
REPLICATE_CENSUS = range(1996, 2006)
REPLICATE_WINDOW = 2

# The console script `citestats` does exactly this; `python -m citestats.cli`
# would import the module and exit without running anything.
ENTRY = "import sys; from citestats.cli import entrypoint; sys.exit(entrypoint())"

MATH_SCALE = 0.4
FIELD_ARTICLES_PER_YEAR = (6, 8, 10, 12, 15, 20, 25, 30, 40, 50, 60, 80)
FIELD_JOURNALS = 64
FIELD_YEARS = range(2001, 2011)


def math_config(seed: int) -> dict:
    """The ``math`` preset's model (a 1940-2009 journal plus a one-year 2010
    census cohort, 10-year half-life, 50 references a paper) at
    ``MATH_SCALE`` of its size, so that a run fits the time budget."""
    return {
        "seed": seed,
        "journals": [
            {
                "journal_id": "math-core",
                "articles_per_year": round(250 * MATH_SCALE),
                "start_year": 1940,
                "end_year": 2009,
            },
            {
                "journal_id": "census-cohort",
                "articles_per_year": round(2400 * MATH_SCALE),
                "start_year": 2010,
                "end_year": 2010,
            },
        ],
        "latent_mu": 1.0,
        "latent_sigma": 0.5,
        "zero_inflation": 0.15,
        "half_life_years": 10.0,
        "references_per_paper": 50.0,
    }


def field_config(seed: int) -> dict:
    """64 journals, 2001-2010, sizes cycling 6..80 a year, quality 0.5..2.0."""
    return {
        "seed": seed,
        "journals": [
            {
                "journal_id": f"field-{i:02d}",
                "articles_per_year": FIELD_ARTICLES_PER_YEAR[i % len(FIELD_ARTICLES_PER_YEAR)],
                "start_year": FIELD_YEARS[0],
                "end_year": FIELD_YEARS[-1],
                "quality_scale": 0.5 + 1.5 * i / (FIELD_JOURNALS - 1),
            }
            for i in range(FIELD_JOURNALS)
        ],
        "half_life_years": 6.0,
        "references_per_paper": 15.0,
        "zero_inflation": 0.3,
    }


def derived_seed(master_seed: int, run_index: int) -> int:
    """Seed of replicate run ``run_index``, derived as the generator documents."""
    import numpy as np

    sequence = np.random.SeedSequence(entropy=master_seed, spawn_key=(run_index,))
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class Workload:
    """The workloads' reasons are in BENCHMARK.json and NOTES.md."""

    name: str
    synth: Callable[[int], list[str]]  # seed -> `citestats synth` arguments
    command: Callable[[int, Path], list[str]]  # seed, setup corpus -> arguments


CONFIGS = {"math.json": math_config, "field.json": field_config}


def _config_synth(config: str) -> Callable[[int], list[str]]:
    return lambda seed: ["synth", "--config", str(WORK / config), "--seed", str(seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "report-math",
            _config_synth("math.json"),
            lambda seed, corpus: [
                "report", "--input", str(corpus), "--census-year", str(CENSUS_YEAR),
                "--pair", "math-core:census-cohort", "--pub-years", "2009:2010",
                "--citing-years", "2010",
            ],
        ),
        Workload(
            "policy-field",
            _config_synth("field.json"),
            lambda seed, corpus: [
                "policy", "--input", str(corpus), "--rule", "example3",
                "--census-year", str(CENSUS_YEAR), "--with-divergence",
            ],
        ),
        Workload(
            "replicate-volatility",
            lambda seed: ["synth", "--preset", "volatility", "--seed", str(derived_seed(seed, 0))],
            lambda seed, corpus: [
                "replicate", "--preset", "volatility", "--seed", str(seed),
                "--runs", str(REPLICATE_RUNS), "--census-years",
                f"{REPLICATE_CENSUS[0]}:{REPLICATE_CENSUS[-1]}",
            ],
        ),
    )
}


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Spawned:
    wall_s: float  # pauses for the host probe taken out
    speed: float  # host speed while it ran, 1.0 at the probe's reference
    probes: int
    peak_rss_mb: float
    exit_code: int

    @property
    def reference_s(self) -> float:
        """Wall time scaled to the reference host speed (see launcher.py)."""
        return self.wall_s * self.speed


class Launcher:
    """The small helper process that forks and times every CLI command."""

    def __init__(self):
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).parent / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def close(self) -> None:
        self._process.stdin.close()
        try:
            self._process.wait(timeout=COMMAND_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()

    def spawn(self, args: list[str]) -> Spawned:
        """Run one CLI command as a child: wall time from spawn to exit, less
        the probe's pauses, and the host speed while it ran."""
        stderr = WORK / "stderr.txt"
        request = {
            "argv": [sys.executable, "-c", ENTRY, *args],
            "cwd": str(ROOT),
            "env": dict(os.environ, PYTHONPATH=str(SRC)),
            "stderr": str(stderr),
            "timeout": COMMAND_TIMEOUT_S,
        }
        self._process.stdin.write(json.dumps(request) + "\n")
        self._process.stdin.flush()
        reply = self._process.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        spawned = Spawned(**json.loads(reply))
        if spawned.exit_code != 0:
            message = stderr.read_text(encoding="utf-8", errors="replace").strip()
            print(f"  {args[0]} exited {spawned.exit_code}: {message[-500:]}", file=sys.stderr)
        return spawned


def output_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every output file except the timestamped manifest."""
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


class Checker:
    """Digest and oracle checks for one workload at one seed.

    The oracle is built once, outside every timed section.
    """

    def __init__(self, workload: Workload, seed: int, setup_corpus: Path):
        self.workload = workload
        self.first: dict[str, str] | None = None
        pinned = json.loads((Path(__file__).parent / "digests.json").read_text())
        self.pinned = pinned["workloads"].get(workload.name) if seed == pinned["seed"] else None
        self.scan = oracles.CorpusScan(setup_corpus)
        self.replicate_seeds = [derived_seed(seed, i) for i in range(REPLICATE_RUNS)]
        if workload.name.startswith("replicate"):
            self.edges = self._replicate_edges()
        else:
            self.edges = self.scan.edges

    def _replicate_edges(self) -> int:
        """Edges generated across all replicate runs, by the library itself
        (the counting is outside the timed section)."""
        from citestats.synth import generate, volatility_config

        return sum(len(generate(volatility_config(s)).edges) for s in self.replicate_seeds)

    def problems(self, out: Path) -> list[str]:
        digests = output_digests(out)
        if self.first is None:
            self.first = digests
        problems = []
        if digests != self.first:
            problems.append("outputs differ from the run's first command")
        if self.pinned is not None and digests != self.pinned:
            names = sorted({*digests, *self.pinned})
            changed = [n for n in names if digests.get(n) != self.pinned.get(n)]
            problems.append(f"outputs differ from pinned digests: {changed[:5]}")
        name = self.workload.name
        try:
            if name.startswith("report"):
                problems += oracles.check_report(out, self.scan, CENSUS_YEAR)
            elif name.startswith("policy"):
                problems += oracles.check_policy(out, self.scan)
            else:
                problems += oracles.check_replicate(
                    out, self.scan, self.replicate_seeds, REPLICATE_CENSUS, REPLICATE_WINDOW
                )
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        return problems


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: dict | None = None  # name -> (value, unit, samples)
    detail: dict | None = None


def run_untraced(launcher: Launcher, workload: Workload, seed: int, seconds: float) -> Result:
    """Build the input and run the command on it, in turn, ``SETUP_REPEATS``
    times; then run the command again until ``seconds`` have passed since
    the first command.  Interleaving spreads both kinds of sample over the
    whole run.  Times are scaled to the reference host speed."""
    setup_dir = WORK / "setup"
    corpus = setup_dir / "corpus.jsonl"
    command = workload.command(seed, corpus)
    setups, setup_digests, commands, problems = [], set(), [], []
    checker = deadline = None
    result = Result()
    while len(setups) < SETUP_REPEATS or time.perf_counter() < deadline:
        if len(setups) < SETUP_REPEATS:
            shutil.rmtree(setup_dir, ignore_errors=True)
            spawned = launcher.spawn(workload.synth(seed) + ["--out", str(setup_dir)])
            if spawned.exit_code != 0:
                raise RuntimeError(f"setup synth exited {spawned.exit_code}")
            setups.append(spawned)
            setup_digests.add(hashlib.sha256(corpus.read_bytes()).hexdigest())
            if checker is None:
                checker = Checker(workload, seed, corpus)
                deadline = time.perf_counter() + seconds
        out = WORK / f"out-{result.attempted}"
        spawned = launcher.spawn(command + ["--out", str(out)])
        result.attempted += 1
        if spawned.exit_code:
            result.failed += 1
            problems.append(f"exit code {spawned.exit_code}")
            continue
        # a command that exits 0 is timed even when its outputs are wrong
        failures = checker.problems(out)
        shutil.rmtree(out, ignore_errors=True)
        result.failed += bool(failures)
        problems += failures
        commands.append(spawned)
    if len(setup_digests) != 1:
        problems.append("set-up corpora differ between repeats")
    result.correct = not problems
    if not commands:
        raise RuntimeError("no command exited 0: " + "; ".join(problems[:5]))
    wall = statistics.median(c.reference_s for c in commands)
    result.metrics = {
        "wall_s": (wall, "s", len(commands)),
        "edges_per_s": (checker.edges / wall, "1/s", len(commands)),
        "peak_rss_mb": (statistics.median(c.peak_rss_mb for c in commands), "MB", len(commands)),
        "setup_s": (statistics.median(s.reference_s for s in setups), "s", len(setups)),
    }
    result.detail = {
        "fail_ratio": result.failed / result.attempted,
        "edges": checker.edges,
        "commands": [vars(c) for c in commands],
        "setups": [vars(s) for s in setups],
        "problems": problems[:20],
    }
    return result


def _in_process(argvs: list[list[str]], tracer=None) -> tuple[float, list[int]]:
    """Call ``citestats.cli.main`` for each argv; total wall and exit codes."""
    from citestats.cli import main

    wall, codes = 0.0, []
    for argv in argvs:
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            if tracer is None:
                codes.append(main(argv))
            else:
                codes.append(tracer.call("cli.main", main, argv))
            wall += time.perf_counter() - start
    return wall, codes


def run_traced(workload: Workload, seed: int) -> Result:
    """Setup and command in process: once untraced, then once traced."""
    tracer = layers.Tracer()
    result = Result()
    problems = []
    walls, outs = {}, {}
    for label in ("plain", "traced"):
        setup_dir, out = WORK / f"{label}-setup", WORK / f"{label}-out"
        argvs = [
            workload.synth(seed) + ["--out", str(setup_dir)],
            workload.command(seed, setup_dir / "corpus.jsonl") + ["--out", str(out)],
        ]
        if label == "plain":
            walls[label], codes = _in_process(argvs)
        else:
            with layers.installed(tracer):
                walls[label], codes = _in_process(argvs, tracer)
        if any(codes):
            raise RuntimeError(f"{label} pass exited {codes}")
        outs[label] = (setup_dir, out)
        result.attempted += 1

    checker = Checker(workload, seed, outs["plain"][0] / "corpus.jsonl")
    for label in ("plain", "traced"):
        failures = checker.problems(outs[label][1])
        result.failed += bool(failures)
        problems += failures

    metrics = layers.layer_metrics(tracer)
    traced_wall = sum(end - start for name, start, end, _ in tracer.spans if name == "cli.main")
    accounted = sum(value for name, (value, unit) in metrics.items() if unit == "s")
    if abs(accounted - traced_wall) > 1e-6 * max(1.0, traced_wall):
        problems.append(f"self times sum to {accounted}, traced wall is {traced_wall}")
    written = [p for d in outs["traced"] for p in d.rglob("*") if p.is_file()]
    metrics["cli.files_written"] = (len(written), "count")
    metrics["cli.bytes_written"] = (sum(p.stat().st_size for p in written), "B")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (walls["traced"] - walls["plain"], "s")

    spans_path = OUT / f"spans-{workload.name}-{seed}.jsonl"
    tracer.write(spans_path)
    result.correct = not problems
    result.metrics = {name: (value, unit, 1) for name, (value, unit) in metrics.items()}
    result.detail = {
        "plain_wall_s": walls["plain"],
        "spans_file": spans_path.relative_to(ROOT).as_posix(),
        "problems": problems[:20],
    }
    return result


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def metadata() -> dict:
    """Informational, never gated: src/ size and the revision measured."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += len(data.splitlines())
    rev = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        rev = done.stdout.strip() or None
    return {
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
        "git_rev": rev,
        "python": sys.version.split()[0],
    }


def run_workload(launcher: Launcher, name: str, seed: int, seconds: float, trace: bool) -> Result:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        for filename, config in CONFIGS.items():
            (WORK / filename).write_text(json.dumps(config(seed), indent=1))
        workload = WORKLOADS[name]
        if trace:
            result = run_traced(workload, seed)
        else:
            result = run_untraced(launcher, workload, seed, seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(
        f"{name} (seed {seed}, {'traced' if trace else 'untraced'}): "
        f"{result.attempted} commands, {result.failed} failed"
    )
    if not trace:
        fail_ratio = result.detail["fail_ratio"]
        print(f"  {'fail_ratio':<34} {fail_ratio:>14.6g} ratio  (n={result.attempted})")
    for metric, (value, unit, samples) in result.metrics.items():
        print(f"  {metric:<34} {value:>14.6g} {unit:<6} (n={samples})")
    for problem in result.detail["problems"]:
        print(f"  problem: {problem}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "citestats" / "cli.py").is_file():
        print(f"citestats sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    # The probe and the commands share one CPU, so the probe sees the same
    # contention from the rest of the host as the commands do.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    launcher = Launcher()
    try:
        results = {
            n: run_workload(launcher, n, args.seed, args.seconds, bool(args.trace)) for n in names
        }
    except RuntimeError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        launcher.close()
    detail = {n: r.detail for n, r in results.items()}
    print(json.dumps({"metadata": metadata(), "detail": detail}))

    def key(workload, metric):
        return metric if len(names) == 1 else f"{workload}.{metric}"

    print(json.dumps({
        "correct": all(r.correct for r in results.values()),
        "attempted": sum(r.attempted for r in results.values()),
        "failed": sum(r.failed for r in results.values()),
        "metrics": {
            key(n, metric): {"value": value, "unit": unit}
            for n, r in results.items()
            for metric, (value, unit, _) in r.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
