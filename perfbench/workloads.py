"""Workload inputs and the timed round each workload runs.

Inputs are plain Python data made from the benchmark seed, so the parent
process can rebuild them for its checks without importing ``isoperim``.
A round runs in a fresh process (see ``run.py``): it imports the package,
builds the groups and graphs (set-up), then makes the timed calls.

Every time is CPU time, not wall time.  On a virtual machine whose host
takes the virtual CPUs away now and then (steal time), wall time grows by
whatever the host took, by up to half within a minute; the kernel leaves
stolen time out of a process's CPU time.  A call on one worker is timed by
this process's CPU time.  A call that runs a process pool is timed by its
critical path: this process's CPU time plus that of the busiest worker
(``workercpu.py``).  Reference passes between the calls (``reference.py``)
let ``run.py`` scale these times to a fixed machine speed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import resource
import time

import reference
from workercpu import WorkerCpu

SWEEP_THEOREMS = {
    "scan_sweep": ("abelian_two_atoms",),
    "scan_sweep_w2": ("abelian_two_atoms",),
    "pair_sweep": ("olson", "classical", "coset_deficiency"),
}
SWEEP_WORKERS = {"scan_sweep": 1, "scan_sweep_w2": 2, "pair_sweep": 1}
WORKLOADS = ("scan_sweep", "scan_sweep_w2", "pair_sweep", "graph_queries")

# Catalog size of each sweep.  "small" is the self-check's reduced size.
SWEEP_MAX_ORDER = {
    "full": {"scan_sweep": 12, "scan_sweep_w2": 12, "pair_sweep": 9},
    "small": {"scan_sweep": 8, "scan_sweep_w2": 8, "pair_sweep": 7},
}

# Cayley graphs of graph_queries: (group spec, order, |S|).  The prime
# cyclic groups carry the Cauchy-Davenport check.
CAYLEY = {
    "full": (
        ("cyclic:17", 17, 4), ("cyclic:19", 19, 4), ("cyclic:23", 23, 5),
        ("dihedral:9", 18, 4), ("dihedral:10", 20, 4),
        ("product:cyclic:3,cyclic:7", 21, 4), ("product:cyclic:2,cyclic:11", 22, 5),
        ("symmetric:4", 24, 4), ("product:cyclic:4,cyclic:6", 24, 5),
    ),
    "small": (("cyclic:7", 7, 3), ("cyclic:11", 11, 3), ("dihedral:4", 8, 3),
              ("symmetric:3", 6, 2)),
}
# Sparse Cayley graphs with many fragments.  |S| = 1 is the loop-only
# graph, where every set with room on both sides is a fragment.
SPARSE = {
    "full": (("cyclic:16", 16, 1), ("dihedral:9", 18, 2)),
    "small": (("cyclic:8", 8, 1),),
}
# Random digraphs: sizes, and the arc density of all of them.  The six
# 16-vertex graphs put a block of alike exhaustive calls (1-2 ms each)
# across the middle of the latency distribution, so that its median is a
# cold call of known size rather than whichever call a seed puts there.
RANDOM_SIZES = {"full": (12, 14, 16, 16, 16, 16, 16, 16, 18, 20), "small": (8, 10)}
RANDOM_DENSITY = 0.45
# atoms(g, 1) needs the exhaustive k=1 profile; above 23 vertices one
# such call costs about as much as the rest of a graph's session.
ATOMS1_MAX_N = 23
# Every session: kappa_1 and kappa_2 of the graph and of its reverse, the
# 2-atoms (served from the profile kappa_2 cached), kappa_1 by flow, and
# last a boundary matching.  Cayley sessions add omega_2 and classify, and
# atoms(g, 1) up to ATOMS1_MAX_N vertices.  Random digraphs skip those
# cache-served calls so that the 16-vertex block stays mid-distribution.
SESSION_CALLS = (("kappa", 1), ("kappa", 2), ("kappa_rev", 1), ("kappa_rev", 2),
                 ("atoms", 2), ("flow", 0))
# Reference passes (reference.py) at each sampling point: after set-up,
# and after each block of timed calls, which is one sweep call or this
# many graph_queries sessions (about a second of calls).
REF_PASSES = 5
SESSIONS_PER_BLOCK = 5


def query_inputs(seed: int, scale: str) -> list[dict]:
    """The graphs of graph_queries, each with the calls of its session."""
    rng = random.Random(f"graph_queries:{seed}")
    graphs = []
    for spec, n, size in CAYLEY[scale] + SPARSE[scale]:
        s = [0] + sorted(rng.sample(range(1, n), size - 1))
        graphs.append({"kind": "cayley", "spec": spec, "n": n, "S": s})
    for n in RANDOM_SIZES[scale]:
        rows = []
        for u in range(n):
            row = 1 << u
            for v in range(n):
                if v != u and rng.random() < RANDOM_DENSITY:
                    row |= 1 << v
            rows.append(row)
        graphs.append({"kind": "random", "n": n, "rows": rows})
    for gr in graphs:
        n = gr["n"]
        calls = list(SESSION_CALLS)
        if gr["kind"] == "cayley":
            calls += [("omega", 2), ("classify", 0)]
            if n <= ATOMS1_MAX_N:
                calls.append(("atoms", 1))
        gr["calls"] = calls
        gr["X"] = sorted(rng.sample(range(n), rng.randint(n // 3, n - n // 3)))
    return graphs


def sweep_inputs(workload: str, seed: int, scale: str) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    return {
        "theorems": SWEEP_THEOREMS[workload],
        "max_order": SWEEP_MAX_ORDER[scale][workload],
        "workers": SWEEP_WORKERS[workload],
        "verify_seed": rng.randrange(1 << 31),
    }


def inputs(workload: str, seed: int, scale: str):
    if workload == "graph_queries":
        return query_inputs(seed, scale)
    return sweep_inputs(workload, seed, scale)


def peak_rss_mb(worker_mb: float) -> float:
    """Peak RSS of this process plus ``worker_mb``, that of its largest
    pool worker (0 without a pool)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 + worker_mb


# ---------------------------------------------------------------------------
# timed rounds (run inside a fresh process)
# ---------------------------------------------------------------------------


def _sweep_round(spec: dict, tracer) -> dict:
    t0 = time.process_time()
    import isoperim  # noqa: F401  (import cost is part of set-up)
    from isoperim import catalog, verify

    catalog.entries(spec["max_order"])
    setup_s = time.process_time() - t0
    workers = spec["workers"]
    points = [reference.sample(REF_PASSES, workers, warm=True)]
    if tracer is not None:
        tracer.install()
    reports, latencies, worker_mb = [], [], 0.0
    for theorem in spec["theorems"]:
        pool = WorkerCpu(workers) if workers > 1 else contextlib.nullcontext()
        with pool:
            c0 = time.process_time()
            (rep,) = verify.run(theorem, max_order=spec["max_order"],
                                seed=spec["verify_seed"], workers=workers)
            cpu = time.process_time() - c0
        if workers > 1:
            cpu += pool.busiest()
            worker_mb = max(worker_mb, pool.largest_mb())
        latencies.append(cpu)
        reports.append(rep.to_payload())
        points.append(reference.sample(REF_PASSES, workers))
    attempted = sum(r["instances_tested"] + r["instances_skipped"] for r in reports)
    failed = sum(r["instances_tested"] - r["instances_passing"] for r in reports)
    return {"setup_s": setup_s, "cpu_s": sum(latencies), "latencies": latencies,
            "blocks": list(range(len(latencies))), "ref_s": points,
            "worker_mb": worker_mb, "attempted": attempted, "failed": failed,
            "outputs": reports}


def _query_call(P, G, g, gr: dict, name: str, k: int):
    if name == "kappa":
        return P.kappa(g, k)
    if name == "kappa_rev":
        return P.kappa(P.reverse(g), k)
    if name == "atoms":
        return P.atoms(g, k)
    if name == "omega":
        return P.omega(g, k)
    if name == "flow":
        return P.kappa1_flow(g)
    if name == "classify":
        return P.classify(G, G.subset(gr["S"]))
    if name == "match":
        return P.strong_iso_matching(g, P.ElementSet(gr["n"], gr["X"]), k)
    raise ValueError(f"unknown query {name!r}")


def _plain(name: str, res):
    """A query's answer as JSON data, converted after its call is timed."""
    if name == "atoms":
        return [res[0], sorted(a.mask for a in res[1])]
    if name == "classify":
        return dataclasses.asdict(res)
    if name == "match":
        return [list(p) for p in res.pairs]
    return res


def _query_round(graphs: list[dict], tracer) -> dict:
    t0 = time.process_time()
    import isoperim as P

    built = []
    for gr in graphs:
        if gr["kind"] == "cayley":
            G = P.make_group(gr["spec"])
            built.append((G, P.cayley_graph(G, G.subset(gr["S"]))))
        else:
            built.append((None, P.Digraph(gr["rows"])))
    setup_s = time.process_time() - t0
    points = [reference.sample(REF_PASSES, warm=True)]
    if tracer is not None:
        tracer.install()
    outputs, latencies, blocks, failed = [], [], [], 0
    for i, (gr, (G, g)) in enumerate(zip(graphs, built)):
        session = []
        k1 = 0
        for name, k in gr["calls"] + [("match", None)]:
            if name == "match":
                # the largest order the boundary-matching guarantee covers
                size = len(gr["X"])
                k = min(k1, size, gr["n"] - size)
            c0 = time.process_time()
            try:
                res = _query_call(P, G, g, gr, name, k)
                latencies.append(time.process_time() - c0)
                res = _plain(name, res)
            except Exception as exc:  # a failed query is counted, not fatal
                latencies.append(time.process_time() - c0)
                res = {"error": f"{type(exc).__name__}: {exc}"}
                failed += 1
            blocks.append(len(points) - 1)
            if (name, k) == ("kappa", 1) and isinstance(res, int):
                k1 = res
            session.append([name, k, res])
        outputs.append(session)
        if (i + 1) % SESSIONS_PER_BLOCK == 0 or i + 1 == len(graphs):
            points.append(reference.sample(REF_PASSES))
    return {"setup_s": setup_s, "cpu_s": sum(latencies), "latencies": latencies,
            "blocks": blocks, "ref_s": points, "worker_mb": 0.0,
            "attempted": len(latencies), "failed": failed, "outputs": outputs}


def run_round(workload: str, seed: int, scale: str, tracer=None) -> dict:
    """One timed round of a workload, with cold program caches."""
    spec = inputs(workload, seed, scale)
    if workload == "graph_queries":
        out = _query_round(spec, tracer)
    else:
        out = _sweep_round(spec, tracer)
    out["peak_rss_mb"] = peak_rss_mb(out.pop("worker_mb"))
    return out
