#!/usr/bin/env python3
"""Reference per-call figures quoted in perfbench/README.md.

Times ``subset_scan`` on Cayley graphs of Z16 pinned at vertex 0, at the
three collect levels the sweeps use, and ``verify.run`` per theorem.
Run from the root of a checkout:

    python3 perfbench/kernels.py --seed 0 --max-order 10
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

LEVELS = (("none", (1,)), ("alpha", (1, 2)), ("atoms", (1, 2)))


def scan_baselines(seed: int, sets: int = 300) -> dict[str, float]:
    """Median microseconds per pinned n=16 scan, per collect level."""
    from isoperim import catalog, iso

    scan = catalog.GroupScan(catalog.build("cyclic:16"))
    rng = random.Random(seed)
    rows = [scan.rows(rng.randrange(0, 1 << 16) | 1) for _ in range(sets)]
    out = {}
    for level, ks in LEVELS:
        times = []
        for r in rows:
            t = time.perf_counter()
            iso.subset_scan(r, 16, ks, pin0=True, collect=level)
            times.append(time.perf_counter() - t)
        out[f"{level} k={','.join(map(str, ks))}"] = 1e6 * statistics.median(times)
    return out


def theorem_seconds(seed: int, max_order: int) -> dict[str, float]:
    from isoperim import verify

    out = {}
    for tid in verify.THEOREM_IDS:
        t = time.perf_counter()
        (rep,) = verify.run(tid, max_order=max_order, seed=seed)
        out[tid] = time.perf_counter() - t
        if not rep.ok:
            raise SystemExit(f"{tid}: report not ok")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-order", type=int, default=10)
    args = ap.parse_args()
    for name, us in scan_baselines(args.seed).items():
        print(f"subset_scan n=16 pinned {name}: {us:.0f} us")
    for tid, s in theorem_seconds(args.seed, args.max_order).items():
        print(f"verify {tid} max_order={args.max_order}: {s:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
