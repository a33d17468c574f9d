"""Correctness checks on what a workload's rounds returned.

Every check recomputes what it needs with plain Python sets and integers,
apart from the program: group closures, brute-force connectivity, and
closed-form instance counts.  Group multiplication tables are the one
input taken from the program; ``check_table`` validates each before use.
Each function returns a list of failure messages, empty when all holds.
"""

from __future__ import annotations

import random
from math import comb

# mirrors the program's documented sweep sizes (verify module docstring)
EXHAUSTIVE_PAIR_ORDER = 8
PAIR_SAMPLES = 10_000
SCAN_SAMPLES = 16
# random digraphs up to this size are re-solved by plain brute force
BRUTE_FORCE_MAX_N = 14


# ---------------------------------------------------------------------------
# plain-set oracles
# ---------------------------------------------------------------------------


def check_table(name: str, table: list[list[int]]) -> list[str]:
    """A group table on 0..n-1 with identity 0: Latin, associative."""
    n = len(table)
    full = set(range(n))
    for x in range(n):
        if table[0][x] != x or table[x][0] != x:
            return [f"{name}: 0 is not the identity"]
        if set(table[x]) != full or {table[y][x] for y in range(n)} != full:
            return [f"{name}: table is not a Latin square"]
    for x in range(n):
        tx = table[x]
        for y in range(n):
            txy = table[tx[y]]
            ty = table[y]
            for z in range(n):
                if txy[z] != tx[ty[z]]:
                    return [f"{name}: table is not associative"]
    return []


def closure(table, s) -> set[int]:
    """<S> by breadth-first products, for S containing the identity."""
    h = {0} | set(s)
    frontier = list(h)
    while frontier:
        new = []
        for x in frontier:
            for y in s:
                z = table[x][y]
                if z not in h:
                    h.add(z)
                    new.append(z)
        frontier = new
    return h


def generating_count(table) -> int:
    """Number of S containing 0 with <S> = G."""
    n = len(table)
    return sum(
        1
        for m in range(1, 1 << n, 2)
        if len(closure(table, [i for i in range(n) if m >> i & 1])) == n
    )


def brute_kappa(out_sets: list[set[int]], k: int) -> tuple[bool, int, int | None]:
    """(separable, kappa_k, alpha_k) over every X, by plain sets."""
    n = len(out_sets)
    best, alpha = None, None
    for m in range(1, 1 << n):
        x = [i for i in range(n) if m >> i & 1]
        if len(x) < k:
            continue
        img = set().union(*(out_sets[i] for i in x))
        if n - len(img) < k:
            continue
        b = len(img) - len(x)
        if best is None or b < best:
            best, alpha = b, len(x)
        elif b == best and len(x) < alpha:
            alpha = len(x)
    if best is None:
        return False, n - 2 * k + 1, None
    return True, best, alpha


def _cayley_out(table, s) -> list[set[int]]:
    return [{table[x][y] for y in s} for x in range(len(table))]


def _graph_out(gr: dict, tables: dict) -> list[set[int]]:
    if gr["kind"] == "cayley":
        return _cayley_out(tables[gr["spec"]], gr["S"])
    n = gr["n"]
    return [{v for v in range(n) if row >> v & 1} for row in gr["rows"]]


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _strip(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "elapsed"}


def scan_samples(seed: int, groups: list[dict]) -> list[tuple[str, int]]:
    """Seeded (spec, S mask) pairs for the brute-force kappa check."""
    rng = random.Random(f"scan-sample:{seed}")
    pool = [g for g in groups if g["order"] >= 5] or groups
    out = []
    for _ in range(SCAN_SAMPLES):
        g = rng.choice(pool)
        out.append((g["spec"], rng.randrange(0, 1 << g["order"]) | 1))
    return out


def _pair_counts(theorem: str, groups: list[dict], gen: dict[str, int]):
    """(low, high) bounds on tested+skipped, derived per group from its
    order alone: exact when every group is swept exhaustively."""
    lo = hi = 0
    for g in groups:
        n = g["order"]
        exhaustive = n <= EXHAUSTIVE_PAIR_ORDER
        pairs = (2 ** n - 1) ** 2 if exhaustive else PAIR_SAMPLES
        if theorem == "olson":
            if n < 2:
                continue
            distinct_b = (2 ** n - 1, 2 ** n - 1) if exhaustive else (
                1, min(PAIR_SAMPLES, 2 ** n - 1))
            lo += gen[g["spec"]] + distinct_b[0] + pairs
            hi += gen[g["spec"]] + distinct_b[1] + pairs
        elif theorem == "classical":
            if exhaustive:
                big = sum(comb(n, a) * comb(n, b) for a in range(1, n + 1)
                          for b in range(1, n + 1) if a + b > n)
                lo += pairs + big
                hi += pairs + big
            else:
                lo += pairs
                hi += 2 * pairs
        elif theorem == "coset_deficiency":
            cnt = 2 ** (n - 1) * (2 ** n - 1) if exhaustive else PAIR_SAMPLES
            lo += cnt
            hi += cnt
    if theorem == "olson":  # the F21 witness is one more instance
        lo += 1
        hi += 1
    return lo, hi


def check_sweep(rounds: list[dict], aux: dict) -> list[str]:
    """Reports ok, rounds identical, witness found, counts derived apart,
    sampled kappa equal to brute force, workers=2 equal to workers=1."""
    fails: list[str] = []
    first = rounds[0]["outputs"]
    for i, r in enumerate(rounds[1:], 2):
        if [_strip(x) for x in r["outputs"]] != [_strip(x) for x in first]:
            fails.append(f"round {i} report differs from round 1")
    for rep in first:
        if rep["counterexamples"] or rep["instances_passing"] != rep["instances_tested"]:
            fails.append(f"{rep['theorem']}: not ok "
                         f"({len(rep['counterexamples'])} counterexamples)")
    if not aux["f21"].get("found"):
        fails.append("F21 witness not found")
    for rep in first:
        if rep["theorem"] == "olson" and not rep["details"].get("zemor_f21", {}).get("found"):
            fails.append("olson report lacks the F21 witness")

    groups = aux["groups"]
    for g in groups:
        fails += check_table(g["spec"], g["table"])
    if fails:
        return fails
    gen = {g["spec"]: generating_count(g["table"]) for g in groups}
    for rep in first:
        th = rep["theorem"]
        seen = rep["instances_tested"] + rep["instances_skipped"]
        if th == "abelian_two_atoms":
            g_all = sum(gen.values())
            g3 = sum(gen[g["spec"]] for g in groups if g["order"] >= 3)
            excluded = rep["details"].get("excluded_region_instances", 0)
            if rep["instances_tested"] < g_all:
                fails.append(f"{th}: {rep['instances_tested']} tested < "
                             f"{g_all} generating S")
            if seen + excluded < g_all + g3:
                fails.append(f"{th}: {seen} + {excluded} instances < "
                             f"{g_all + g3} derived")
        else:
            lo, hi = _pair_counts(th, groups, gen)
            if not lo <= seen <= hi:
                fails.append(f"{th}: {seen} instances outside derived [{lo}, {hi}]")
            if th == "olson" and rep["instances_skipped"]:
                fails.append("olson: skipped instances where none can be")

    tables = {g["spec"]: g["table"] for g in groups}
    for spec, smask, res in aux["scans"]:
        table = tables[spec]
        s = [i for i in range(len(table)) if smask >> i & 1]
        out = _cayley_out(table, s)
        for k in (1, 2):
            if len(table) < 2 * k - 1:
                continue
            sep, kap, _ = brute_kappa(out, k)
            got = res[str(k)]
            if [sep, kap] != got:
                fails.append(f"{spec} S={s} k={k}: GroupScan.scan gives {got}, "
                             f"brute force [{sep}, {kap}]")
    if "workers1" in aux:
        ref = [_strip(x) for x in aux["workers1"]]
        if [_strip(x) for x in first] != ref:
            fails.append("workers=2 report differs from workers=1")
    return fails


# ---------------------------------------------------------------------------
# graph queries
# ---------------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _atoms_ok(tag, out, n, k, kap, alpha, masks) -> list[str]:
    """Each atom is a certificate: size alpha, boundary kappa, far side >= k.
    Non-separable graphs list every k-subset under the convention."""
    full = (1 << n) - 1
    fails = []
    images = {}
    for m in masks:
        x = [i for i in range(n) if m >> i & 1]
        images[m] = set().union(*(out[i] for i in x))
    far_ok = [n - len(images[m]) >= k for m in masks]
    if not all(far_ok):
        # only the non-separable convention may list sets without room
        if kap != n - 2 * k + 1 or alpha != k or len(masks) != comb(n, k):
            return [f"{tag}: atom with far side < k outside the convention"]
        if any(n - len(set().union(*(out[i] for i in range(n) if m >> i & 1))) >= k
               for m in range(1, full + 1) if bin(m).count("1") == k):
            return [f"{tag}: convention atoms on a k-separable graph"]
        return []
    for m in masks:
        size = bin(m).count("1")
        if size != alpha or size < k:
            fails.append(f"{tag}: atom of size {size}, alpha {alpha}")
        if len(images[m]) - size != kap:
            fails.append(f"{tag}: atom boundary {len(images[m]) - size} != kappa {kap}")
    if len(set(masks)) != len(masks):
        fails.append(f"{tag}: repeated atoms")
    return fails


def check_queries(graphs: list[dict], rounds: list[dict], aux: dict) -> list[str]:
    fails: list[str] = []
    first = rounds[0]["outputs"]
    for i, r in enumerate(rounds[1:], 2):
        if r["outputs"] != first:
            fails.append(f"round {i} query results differ from round 1")
    tables = aux["tables"]
    for spec, table in tables.items():
        fails += check_table(spec, table)
    if fails:
        return fails
    for gi, (gr, session) in enumerate(zip(graphs, first)):
        n = gr["n"]
        tag = f"graph {gi} ({gr.get('spec', 'random')}, n={n})"
        res = {(name, k): r for name, k, r in session}
        if any(isinstance(r, dict) and "error" in r for r in res.values()):
            continue  # counted in failed; the remaining checks need every answer
        out = _graph_out(gr, tables)
        for k in (1, 2):
            if res[("kappa", k)] != res[("kappa_rev", k)]:
                fails.append(f"{tag}: kappa_{k} {res[('kappa', k)]} != reverse "
                             f"{res[('kappa_rev', k)]}")
        if res[("flow", 0)] != res[("kappa", 1)]:
            fails.append(f"{tag}: flow kappa_1 {res[('flow', 0)]} != {res[('kappa', 1)]}")
        for k in (1, 2):
            if ("atoms", k) not in res:
                continue
            alpha, masks = res[("atoms", k)]
            fails += _atoms_ok(f"{tag} k={k}", out, n, k, res[("kappa", k)], alpha, masks)
        if ("omega", 2) in res:
            _, masks2 = res[("atoms", 2)]
            per_vertex = [sum(1 for m in masks2 if m >> v & 1) for v in range(n)]
            if res[("omega", 2)] != min(per_vertex):
                fails.append(f"{tag}: omega_2 {res[('omega', 2)]} != {min(per_vertex)}")
        if gr["kind"] == "cayley":
            s = gr["S"]
            if _is_prime(n) and gr["spec"].startswith("cyclic:") and len(s) < n:
                if res[("kappa", 1)] != len(s) - 1:
                    fails.append(f"{tag}: kappa_1 {res[('kappa', 1)]} != |S|-1 "
                                 "(Cauchy-Davenport)")
            inv = res[("classify", 0)]
            hull = len(closure(tables[gr["spec"]], s))
            want = {"delta": len(s), "hull_order": hull, "generates": hull == n}
            if hull == n:
                want.update(kappa1=res[("kappa", 1)], kappa2=res[("kappa", 2)],
                            mu=res[("kappa", 2)] - len(s),
                            cauchy=res[("kappa", 1)] == len(s) - 1)
            for key, val in want.items():
                if inv[key] != val:
                    fails.append(f"{tag}: classify {key}={inv[key]}, expected {val}")
        elif n <= BRUTE_FORCE_MAX_N:
            for k in (1, 2):
                sep, kap, alpha = brute_kappa(out, k)
                if res[("kappa", k)] != kap:
                    fails.append(f"{tag}: kappa_{k} {res[('kappa', k)]} != brute "
                                 f"force {kap}")
                if sep and ("atoms", k) in res and res[("atoms", k)][0] != alpha:
                    fails.append(f"{tag}: alpha_{k} != brute force {alpha}")
        fails += _matching_ok(tag, out, gr, res)
    return fails


def _matching_ok(tag, out, gr, res) -> list[str]:
    (key,) = [key for key in res if key[0] == "match"]
    k, pairs = key[1], res[key]
    x = set(gr["X"])
    size = len(x)
    if k != min(res[("kappa", 1)], size, gr["n"] - size):
        return [f"{tag}: matching asked for order {k}"]
    tails = {u for u, _ in pairs}
    heads = {v for _, v in pairs}
    if len(pairs) != k or len(tails) != k or len(heads) != k:
        return [f"{tag}: matching {pairs} is not {k} disjoint pairs"]
    for u, v in pairs:
        if u not in x or v in x or v not in out[u]:
            return [f"{tag}: pair ({u}, {v}) is not an arc leaving X"]
    return []
