"""CPU time and peak memory of the pool workers a call starts.

``WorkerCpu`` starts this file as a helper process.  The helper finds the
other children of the process that started it in ``/proc`` and, every
``interval`` seconds until its standard input closes, reads for each the
run time the kernel keeps (``/proc/<pid>/schedstat``, nanoseconds, stolen
time left out) and its peak resident memory (``VmHWM`` in
``/proc/<pid>/status``); then it prints the last readings as JSON.  A
worker's last reading is at most one interval before it ended.  The
helper is a process, not a thread, because the program forks its pool
workers, and forking a process that runs a second thread is unsafe.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys


class WorkerCpu:
    """Context manager over a call that runs a pool of ``workers``."""

    def __init__(self, workers: int, interval: float = 0.005):
        self.args = [sys.executable, os.path.abspath(__file__), str(os.getpid()),
                     str(workers), str(interval)]
        self.cpu_s: dict[str, float] = {}
        self.peak_mb: dict[str, float] = {}

    def __enter__(self):
        self.proc = subprocess.Popen(self.args, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        return self

    def __exit__(self, *exc):
        out, _ = self.proc.communicate(timeout=30)
        if self.proc.returncode == 0:
            self.cpu_s, self.peak_mb = json.loads(out)

    def busiest(self) -> float:
        """CPU seconds of the busiest worker."""
        if not self.cpu_s:
            raise RuntimeError("the worker CPU helper saw no worker")
        return max(self.cpu_s.values())

    def largest_mb(self) -> float:
        """Peak resident memory of the largest worker, in MB."""
        return max(self.peak_mb.values(), default=0.0)


def _children(parent: str, me: int) -> set[int]:
    found = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit() and int(entry) != me:
            try:
                with open(f"/proc/{entry}/stat") as f:
                    stat = f.read()
            except OSError:
                continue
            if stat.rsplit(")", 1)[1].split()[1] == parent:
                found.add(int(entry))
    return found


def _read(pid: int) -> tuple[float, float]:
    with open(f"/proc/{pid}/schedstat") as f:
        cpu_s = int(f.read().split()[0]) / 1e9
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return cpu_s, int(line.split()[1]) / 1024.0
    return cpu_s, 0.0


def _sample(parent: str, workers: int, interval: float):
    me = os.getpid()
    cpu_s: dict[str, float] = {}
    peak_mb: dict[str, float] = {}
    pids: set[int] = set()
    while not select.select([sys.stdin], [], [], interval)[0]:
        if len(pids) < workers:
            pids |= _children(parent, me)
        for pid in pids:
            try:
                cpu, mb = _read(pid)
            except (OSError, ValueError, IndexError):
                continue
            key = str(pid)
            cpu_s[key] = max(cpu_s.get(key, 0.0), cpu)
            peak_mb[key] = max(peak_mb.get(key, 0.0), mb)
    return cpu_s, peak_mb


if __name__ == "__main__":
    parent, workers, interval = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    print(json.dumps(_sample(parent, workers, interval)))
