"""A fixed computation that gauges how fast this machine runs right now.

The cores a run gets are shared with other virtual machines.  When the
other hyperthread of a core is busy, the same round of a workload takes
up to 1.6 times the CPU time it takes when that thread is idle, in phases
that last from seconds to minutes.  A round therefore also times short
reference passes right after its set-up and after each block of timed
calls, and each time it reports is scaled to CPU seconds at the speed at
which one pass takes ``REF_S`` (``scales``).

The pass is the benchmark's own code, so no change to the program makes
it faster or slower.  It does the kinds of work the program does: Python
integer and bit operations with dict updates, and in-place NumPy bitwise
operations on a few thousand 32-bit words.  It allocates little, and runs
with the garbage collector off, so the objects a program leaves alive do
not slow it.
"""

from __future__ import annotations

import gc
import os
import statistics
import struct
import time

REF_S = 0.02  # CPU seconds of one pass at the reference speed


def _pass(np) -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(30000):
        m = (i * 2654435761) & 0xFFFF
        acc += (m & (m >> 3)).bit_count()
        table[m & 1023] = acc
    img = np.zeros(1 << 11, dtype=np.uint32)
    for j in range(90):
        for b in range(11):
            v = img.reshape(-1, 2, 1 << b)
            v[:, 1, :] = v[:, 0, :] | np.uint32(j << b)
        acc += int(np.bitwise_count(img).sum())
    return acc + len(table)


def _timed(np) -> float:
    t0 = time.process_time()
    _pass(np)
    return time.process_time() - t0


def _side_by_side(np, parallel: int) -> float:
    """Mean CPU seconds of ``parallel`` passes run at once, each in a
    forked child, as the pool workers of a ``workers=parallel`` call run."""
    children = []
    for _ in range(parallel):
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(r)
            os.write(w, struct.pack("d", _timed(np)))
            os._exit(0)
        os.close(w)
        children.append((pid, r))
    seconds = []
    for pid, r in children:
        with os.fdopen(r, "rb") as f:
            seconds.append(struct.unpack("d", f.read())[0])
        os.waitpid(pid, 0)
    return sum(seconds) / parallel


def sample(passes: int, parallel: int = 1, warm: bool = False) -> list[float]:
    """CPU seconds of ``passes`` reference passes, after an untimed one if
    ``warm``.

    With ``parallel`` above 1, each figure is the mean of that many passes
    run at once, so that it gauges every virtual CPU a pool of that many
    workers runs on, not only the one this process runs on.
    """
    import numpy as np

    enabled = gc.isenabled()
    gc.disable()
    try:
        if warm:
            _pass(np)
        return [_timed(np) if parallel == 1 else _side_by_side(np, parallel)
                for _ in range(passes)]
    finally:
        if enabled:
            gc.enable()


def scales(points: list[list[float]], blocks: list[int]) -> tuple[float, list[float]]:
    """Scale factors of a round: of its set-up, and of each timed call.

    ``points`` are the reference passes of each sampling point: the first
    right after set-up, then one after each block of calls.  ``blocks[i]``
    is the block of call ``i``, which ran between points ``b`` and
    ``b + 1``; its factor is ``REF_S`` over the mean of those two points'
    median passes, since the speed can change while a block runs.
    """
    speed = [statistics.median(p) for p in points]
    return REF_S / speed[0], [2 * REF_S / (speed[b] + speed[b + 1]) for b in blocks]
