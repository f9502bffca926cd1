"""Spawns the benchmark's CLI commands, one at a time, and times them.

A child inherits the peak resident size of the process that forks it
(Linux carries ``ru_maxrss`` across ``exec``), so commands are forked from
this small process rather than from the benchmark, whose oracles hold whole
corpora.  Protocol: one JSON request per line on stdin, ``{"argv": [...],
"cwd": ..., "env": {...}, "stderr": path, "timeout": seconds}``; one JSON
reply per line on stdout, ``{"wall_s", "speed", "probes", "peak_rss_mb",
"exit_code"}``.  The launcher exits when stdin closes.

Host speed.  The host is shared: other machines' work on the same physical
core slows every instruction, by up to 2x, in phases of a second to many
minutes.  So while a command runs, the launcher stops it every
``SAMPLE_INTERVAL_S`` with SIGSTOP, times a few milliseconds of fixed work
(the probe) on the same CPU, and resumes it with SIGCONT.  ``wall_s`` is the
command's wall time with those pauses taken out, and ``speed`` is the mean
of ``PROBE_REFERENCE_S / probe time`` over the samples: 1.0 on a host where
the probe takes ``PROBE_REFERENCE_S``, 0.5 on one that is twice as slow.
The launcher must run on a single CPU (the benchmark pins itself before
starting it), so that the probe and the command share the core they are
measured on.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

SAMPLE_INTERVAL_S = 0.2
# The probe's time on an uncontended host of the kind the benchmark was
# written on (a 2-vCPU Sapphire Rapids VM); every time is scaled to it.
PROBE_REFERENCE_S = 0.0045
# The probe is a fixed mix of the interpreter work the CLI does: a plain
# loop, dict lookups that build small objects, and JSON decoding.  A plain
# loop alone slows less under contention than the commands do.
PROBE_KEYS = [f"paper-{i:06d}" for i in range(30_000)]
PROBE_INDEX = {key: i for i, key in enumerate(PROBE_KEYS)}
PROBE_LINE = json.dumps({
    "id": "paper-000001",
    "journal": "field-01",
    "year": 2001,
    "kind": "research-article",
    "authors": ["a1", "a2", "a3"],
    "references": PROBE_KEYS[:15],
})


def probe() -> float:
    """Time the fixed probe work."""
    start = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i & 7
    built = {}
    for key in PROBE_KEYS[:3_000]:
        value = PROBE_INDEX[key]
        built[key] = (value, value & 7, [value])
    for _ in range(300):
        json.loads(PROBE_LINE)
    return time.perf_counter() - start


class Sampler(threading.Thread):
    """Pauses the child at a fixed interval to time the probe."""

    def __init__(self, pid: int, first_probe: float):
        super().__init__(daemon=True)
        self.pid = pid
        self.probes = [first_probe]
        self.paused_s = 0.0
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.wait(SAMPLE_INTERVAL_S):
            start = time.perf_counter()
            os.kill(self.pid, signal.SIGSTOP)
            self.probes.append(probe())
            os.kill(self.pid, signal.SIGCONT)
            self.paused_s += time.perf_counter() - start


def run(request: dict) -> dict:
    with open(request["stderr"], "wb") as stderr:
        first_probe = probe()
        start = time.perf_counter()
        child = subprocess.Popen(
            request["argv"],
            cwd=request["cwd"],
            env=request["env"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
        )
        sampler = Sampler(child.pid, first_probe)
        # os.kill, not child.kill: Popen.kill would reap the child first.
        watchdog = threading.Timer(request["timeout"], os.kill, (child.pid, signal.SIGKILL))
        sampler.start()
        watchdog.start()
        try:
            # Wait for the exit without reaping, so that the pid the sampler
            # and the watchdog signal stays this child's until both stop.
            os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        except BaseException:
            os.kill(child.pid, signal.SIGKILL)
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
            sampler.done.set()
            sampler.join()
            _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    speeds = [PROBE_REFERENCE_S / p for p in sampler.probes]
    return {
        "wall_s": wall - sampler.paused_s,
        "speed": sum(speeds) / len(speeds),
        "probes": len(speeds),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": child.returncode,
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
