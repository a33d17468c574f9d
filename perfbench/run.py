#!/usr/bin/env python3
"""Benchmark of isoperim: catalog sweeps, pair sweeps and graph queries.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

A run repeats whole rounds of its workload for about ``--seconds``.  Each
round runs in a fresh Python process, so the program's caches start cold,
and reports its set-up time, the CPU time of its timed calls, per call and
in all (``workloads.py`` says why CPU time), reference passes that gauge
the machine's speed (``reference.py``), and its peak memory.  After the
rounds a check process collects what the correctness checks need;
``checks.py`` then verifies every output apart from the program.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``.  Raw per-round
figures go to ``perfbench/raw/``.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RAW = HERE / "raw"
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
import reference  # noqa: E402


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def _import_program() -> None:
    if not (SRC / "isoperim" / "__init__.py").is_file():
        raise SystemExit(f"no isoperim package under {SRC}")
    sys.path.insert(0, str(SRC))


def round_main(workload: str, seed: int, scale: str, trace: bool) -> dict:
    _import_program()
    tracer = layers.Tracer() if trace else None
    out = workloads.run_round(workload, seed, scale, tracer)
    if tracer is not None:
        by_theorem = {}
        if workload != "graph_queries":
            by_theorem = {r["theorem"]: r["elapsed"] for r in out["outputs"]}
        out["layers"] = tracer.metrics(by_theorem)
    return out


def check_main(workload: str, seed: int, scale: str) -> dict:
    """Program outputs the checks need beyond the rounds' own."""
    _import_program()
    import isoperim as P

    if workload == "graph_queries":
        specs = sorted({g["spec"] for g in workloads.query_inputs(seed, scale)
                        if g["kind"] == "cayley"})
        return {"tables": {s: [list(r) for r in P.make_group(s).table] for s in specs}}
    from isoperim import catalog, verify

    spec = workloads.sweep_inputs(workload, seed, scale)
    groups = []
    for e in catalog.entries(spec["max_order"]):
        g = catalog.build(e.spec)
        if "abelian_two_atoms" in spec["theorems"] and not g.abelian:
            continue
        groups.append({"spec": e.spec, "order": g.order,
                       "table": [list(r) for r in g.table]})
    scans = []
    for gspec, smask in checks.scan_samples(seed, groups):
        res = catalog.GroupScan(catalog.build(gspec)).scan(smask, (1, 2), collect="none")
        scans.append([gspec, smask, {str(k): [r.separable, r.kappa] for k, r in res.items()}])
    aux = {"groups": groups, "scans": scans, "f21": verify.zemor_f21_witness()}
    if spec["workers"] > 1:
        aux["workers1"] = [
            verify.run(t, max_order=spec["max_order"], seed=spec["verify_seed"],
                       workers=1)[0].to_payload()
            for t in spec["theorems"]
        ]
    return aux


def _child(args: list[str]) -> dict:
    """Run this script as a child, in its own session; return its JSON."""
    cmd = [sys.executable, str(Path(__file__).resolve())] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"child {args} timed out")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"child {args} exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def _round(workload, seed, scale, trace) -> dict:
    t = time.perf_counter()
    out = _child(["--round", workload, "--seed", str(seed), "--scale", scale,
                  "--trace", str(int(trace))])
    out["process_s"] = time.perf_counter() - t
    return out


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method, as statistics.quantiles)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_rounds(workload: str, seed: int, seconds: float, scale: str, trace: bool):
    """Whole rounds for about ``seconds``: untraced ones, and with trace on,
    traced ones alternating with them."""
    plain, traced = [_round(workload, seed, scale, False)], []
    per_pass = plain[0]["process_s"]
    if trace:
        traced.append(_round(workload, seed, scale, True))
        per_pass += traced[0]["process_s"]
    passes = max(1, round(seconds / per_pass))
    for _ in range(passes - 1):
        plain.append(_round(workload, seed, scale, False))
        if trace:
            traced.append(_round(workload, seed, scale, True))
    return plain, traced


def scaled(r: dict) -> dict:
    """A round's CPU times at the reference speed (``reference.scales``)."""
    setup, calls = reference.scales(r["ref_s"], r["blocks"])
    latencies = [f * x for f, x in zip(calls, r["latencies"])]
    return {"setup_s": setup * r["setup_s"], "cpu_s": sum(latencies),
            "latencies": latencies}


def end_to_end(plain: list[dict]) -> dict:
    """Each time the median over the run's rounds of the round's scaled
    figure; ``peak_rss_mb`` the highest of any round."""
    rounds = [scaled(r) for r in plain]

    def median(figure):
        return statistics.median(figure(r) for r in rounds)

    cpu = median(lambda r: r["cpu_s"])
    return {
        "setup_s": (median(lambda r: r["setup_s"]), "s"),
        "cpu_s": (cpu, "s"),
        "instances_per_cpu_s": (plain[0]["attempted"] / cpu, "1/s"),
        "query_cpu_p50_ms": (median(lambda r: 1e3 * _quantile(r["latencies"], 50)), "ms"),
        "query_cpu_p90_ms": (median(lambda r: 1e3 * _quantile(r["latencies"], 90)), "ms"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in plain), "MB"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer figures: the median over traced rounds, and the tracing
    overhead as the difference of the median scaled traced and untraced
    rounds' ``cpu_s``."""
    names = traced[0]["layers"]
    out = {name: (statistics.median(r["layers"][name] for r in traced),
                  layers.metric_units(name)) for name in names}
    overhead = (statistics.median(scaled(r)["cpu_s"] for r in traced)
                - statistics.median(scaled(r)["cpu_s"] for r in plain))
    out["trace.overhead_s"] = (overhead, "s")
    return out


def _aux(workload: str, seed: int, scale: str) -> dict:
    return _child(["--check", workload, "--seed", str(seed), "--scale", scale])


def check(workload: str, seed: int, scale: str, rounds: list[dict], aux: dict) -> list[str]:
    if workload == "graph_queries":
        return checks.check_queries(workloads.query_inputs(seed, scale), rounds, aux)
    return checks.check_sweep(rounds, aux)


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    plain, traced = run_rounds(workload, seed, seconds, scale, trace)
    rounds = plain + traced
    fails = check(workload, seed, scale, rounds, _aux(workload, seed, scale))
    metrics = per_layer(plain, traced) if trace else end_to_end(plain)
    result = {
        "correct": not fails,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RAW.mkdir(exist_ok=True)
    raw = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "failures": fails, "result": result,
           "rounds": [{k: v for k, v in r.items() if k != "outputs"} for r in rounds]}
    (RAW / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(raw))
    for f in fails[:20]:
        print(f"check failed: {f}", file=sys.stderr)
    return result


# ---------------------------------------------------------------------------
# self-check
# ---------------------------------------------------------------------------


def self_check(seed: int) -> int:
    """Every workload at reduced size, then planted wrong answers, each of
    which the checks must reject."""
    t0 = time.perf_counter()
    problems = []
    data = {}
    for w in workloads.WORKLOADS:
        rounds = [_round(w, seed, "small", False)]
        aux = _aux(w, seed, "small")
        data[w] = (rounds, aux)
        fails = check(w, seed, "small", rounds, aux)
        print(f"{w}: {rounds[0]['attempted']} operations, "
              f"{len(fails)} check failures", file=sys.stderr)
        problems += [f"{w}: {f}" for f in fails]

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = _round("graph_queries", seed, "small", True)
    printed = {"end_to_end": list(end_to_end(data["graph_queries"][0])),
               "per_layer": list(per_layer(data["graph_queries"][0], [traced]))}
    for kind, names in printed.items():
        if names != [m["name"] for m in bench[kind]]:
            problems.append(f"{kind} metrics printed differ from BENCHMARK.json")

    def planted(label, w, mutate):
        rounds, aux = copy.deepcopy(data[w])
        mutate(rounds, aux)
        caught = bool(check(w, seed, "small", rounds, aux))
        print(f"planted {label}: {'rejected' if caught else 'NOT REJECTED'}",
              file=sys.stderr)
        if not caught:
            problems.append(f"planted {label} passed the checks")

    def off_by_one_kappa(rounds, aux):
        session = rounds[0]["outputs"][0]
        for entry in session:
            if entry[:2] == ["kappa", 2]:
                entry[2] += 1

    def counterexample(rounds, aux):
        rep = rounds[0]["outputs"][0]
        rep["counterexamples"].append({"group": "Z5", "set": [0, 1]})
        rep["instances_passing"] -= 1

    def workers_differ(rounds, aux):
        rounds[0]["outputs"][0]["instances_skipped"] += 1

    def bad_atom(rounds, aux):
        for entry in rounds[0]["outputs"][0]:
            if entry[:2] == ["atoms", 1]:
                entry[2][1][0] ^= 1 << 1

    def bad_matching(rounds, aux):
        for entry in rounds[0]["outputs"][0]:
            if entry[0] == "match" and entry[2]:
                entry[2][0][1] = entry[2][0][0]

    def no_witness(rounds, aux):
        aux["f21"]["found"] = False

    def wrong_scan(rounds, aux):
        aux["scans"][0][2]["1"][1] += 1

    planted("off-by-one kappa_2", "graph_queries", off_by_one_kappa)
    planted("wrong atom", "graph_queries", bad_atom)
    planted("matching pair inside X", "graph_queries", bad_matching)
    planted("report with a counterexample", "pair_sweep", counterexample)
    planted("report with a counterexample", "scan_sweep", counterexample)
    planted("workers=2 report unlike workers=1", "scan_sweep_w2", workers_differ)
    planted("missing F21 witness", "scan_sweep", no_witness)
    planted("GroupScan.scan kappa off by one", "pair_sweep", wrong_scan)
    elapsed = time.perf_counter() - t0
    print(f"self-check: {len(problems)} problems in {elapsed:.1f} s", file=sys.stderr)
    for p in problems:
        print(f"  {p}", file=sys.stderr)
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload at reduced size and plant wrong answers")
    ap.add_argument("--scale", choices=("full", "small"), default="full",
                    help=argparse.SUPPRESS)
    ap.add_argument("--round", choices=workloads.WORKLOADS, help=argparse.SUPPRESS)
    ap.add_argument("--check", choices=workloads.WORKLOADS, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.round:
        print(json.dumps(round_main(args.round, args.seed, args.scale, bool(args.trace))))
        return 0
    if args.check:
        print(json.dumps(check_main(args.check, args.seed, args.scale)))
        return 0
    _import_program()  # fail fast, before any round, without the package
    if args.self_check:
        return self_check(args.seed)
    if not args.workload:
        ap.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
