"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every check is exact;
budgets are wall-clock ceilings from the requirements.

Criterion 9 checks the order-of-basis bound with the exponent
max(2, floor(2n/|S|)-1) (1 when S = G).  The literal exponent
floor(2n/|S|)-1 is false for every proper S with |S| > 2n/3, where it
equals 1; the report counts those sets under ``literal_bound_violations``
and the test compares that count with the closed-form size of the zone.
"""

import random
import time

import numpy as np
import pytest

from isoperim import verify
from isoperim.catalog import GroupScan, build, entries
from isoperim.digraph import Digraph, random_reflexive_digraph, reverse
from isoperim.iso import subset_scan
from isoperim.menger import disjoint_paths, kappa1_flow, local_connectivity, strong_iso_matching, verify_path_family
from isoperim.sets import ElementSet

from oracles import (
    adj_sets,
    o_is_matching,
    o_literal_orderbase_zone,
    o_local_connectivity,
)


def _verdict(num, ok, elapsed, budget, extra=""):
    state = "PASS" if ok else "FAIL"
    line = f"criterion {num:>2}: {state} in {elapsed:6.1f}s"
    if budget:
        line += f" (budget {budget}s)"
    if extra:
        line += f" -- {extra}"
    print(line)
    return line


def _catalog_scans(max_order):
    for e in entries(max_order):
        g = build(e.spec)
        yield e, g, GroupScan(g)


# ---------------------------------------------------------------------------


def test_criterion_01_cauchy_davenport():
    """kappa_1(S) = |S|-1 for every generating S containing 0 in Z_p."""
    budget = 60
    t0 = time.perf_counter()
    checked = 0
    for p in (5, 7, 11, 13):
        g = build(f"cyclic:{p}")
        scan = GroupScan(g)
        for smask in scan.subsets_with_identity():
            if smask.bit_count() < 2:
                continue  # {0} does not generate
            res = scan.scan(smask, (1,), collect="none")[1]
            assert res.kappa == smask.bit_count() - 1, (p, bin(smask), res.kappa)
            checked += 1
    elapsed = time.perf_counter() - t0
    _verdict(1, True, elapsed, budget, f"{checked} generating sets over Z5/Z7/Z11/Z13")
    assert elapsed < budget


def test_criterion_02_duality():
    """kappa_k = kappa_-k on catalog Cayley graphs (k=1,2) and on 1000
    seeded random reflexive digraphs (k=1)."""
    budget = 300
    t0 = time.perf_counter()
    cayley_checked = 0
    for e, g, scan in _catalog_scans(12):
        n = g.order
        ks = (1, 2) if n >= 3 else (1,)
        for smask in scan.subsets_with_identity():
            fwd = scan.scan(smask, ks, collect="none")
            rev_ = scan.scan(smask, ks, rev=True, collect="none")
            for k in ks:
                assert fwd[k].separable == rev_[k].separable
                assert fwd[k].kappa == rev_[k].kappa, (e.name, bin(smask), k)
                cayley_checked += 1
    rng = random.Random(2)
    random_checked = 0
    for _ in range(1000):
        g = random_reflexive_digraph(rng, rng.randint(1, 7))
        f = subset_scan(g.rows, g.n, (1,), collect="none")[1]
        r = subset_scan(g.in_rows, g.n, (1,), collect="none")[1]
        assert f.kappa == r.kappa and f.separable == r.separable
        random_checked += 1
    elapsed = time.perf_counter() - t0
    _verdict(2, True, elapsed, budget,
             f"{cayley_checked} Cayley checks, {random_checked} random digraphs")
    assert elapsed < budget


def test_criterion_03_olson_bound():
    """kappa_1(S) >= ceil(|S|/2) with the two-coset structure at equality."""
    budget = 300
    t0 = time.perf_counter()
    reports = verify.run("olson", max_order=12, seed=0)
    rep = reports[0]
    elapsed = time.perf_counter() - t0
    _verdict(3, rep.ok, elapsed, budget,
             f"{rep.instances_tested} instances, "
             f"{rep.details.get('equality_instances', 0)} equality cases")
    assert rep.ok, rep.counterexamples[:3]
    assert elapsed < budget


def test_criterion_04_atom_intersection():
    """Distinct k-atoms meet in at most k-1 points when alpha_k <= alpha_-k."""
    budget = 600
    t0 = time.perf_counter()
    checked = 0
    for e, g, scan in _catalog_scans(12):
        n = g.order
        ks = (1, 2) if n >= 3 else (1,)
        for smask in scan.subsets_with_identity():
            for k in ks:
                f = scan.scan(smask, (k,), collect="atoms")[k]
                if not f.separable:
                    continue
                r = scan.scan(smask, (k,), rev=True, collect="atoms")[k]
                a_rev = r.alpha if r.separable else k
                # translating a violating pair moves it onto the identity,
                # so checking atoms through vertex 0 is exhaustive
                for side, other_alpha in ((f, a_rev), (r, f.alpha)):
                    if not side.separable or side.alpha > other_alpha:
                        continue
                    ams = side.atom_masks
                    for i, a in enumerate(ams):
                        for b in ams[i + 1:]:
                            assert (a & b).bit_count() <= k - 1, (
                                e.name, bin(smask), k, bin(a), bin(b)
                            )
                            checked += 1
    elapsed = time.perf_counter() - t0
    _verdict(4, True, elapsed, budget, f"{checked} atom pairs")
    assert elapsed < budget


def test_criterion_05_one_atom_structure():
    """The identity 1-atom is the subgroup generated by its trace on S."""
    t0 = time.perf_counter()
    rep = verify.run("one_atom", max_order=12, seed=0)[0]
    elapsed = time.perf_counter() - t0
    _verdict(5, rep.ok, elapsed, None, f"{rep.instances_tested} instances")
    assert rep.ok, rep.counterexamples[:3]


def test_criterion_06_abelian_two_atoms():
    """Identity 2-atoms in abelian groups (mu <= 0, exclusion applied) are
    subgroups or pairs; mirror symmetry holds throughout."""
    budget = 900
    t0 = time.perf_counter()
    rep = verify.run("abelian_two_atoms", max_order=16, seed=0)[0]
    elapsed = time.perf_counter() - t0
    _verdict(6, rep.ok, elapsed, budget,
             f"{rep.instances_tested} instances, "
             f"{rep.instances_skipped} skipped, "
             f"excluded region hits: {rep.details.get('excluded_region_instances', 0)}")
    assert rep.ok, rep.counterexamples[:3]
    assert elapsed < budget


def test_criterion_07_menger_agreement():
    """Flow-based local connectivity equals brute force on every
    non-adjacent pair of 500 seeded digraphs, with verified path families."""
    budget = 300
    t0 = time.perf_counter()
    rng = random.Random(7)
    pairs = 0
    for _ in range(500):
        g = random_reflexive_digraph(rng, rng.randint(2, 8))
        adj = adj_sets(g)
        for x in range(g.n):
            for y in range(g.n):
                if g.has_arc(x, y):
                    continue
                lam = local_connectivity(g, x, y)
                assert lam == o_local_connectivity(adj, g.n, x, y)
                fam = disjoint_paths(g, x, y, lam)
                assert verify_path_family(g, fam, lam)
                pairs += 1
    elapsed = time.perf_counter() - t0
    _verdict(7, True, elapsed, budget, f"{pairs} non-adjacent pairs")
    assert elapsed < budget


def test_criterion_08_flow_vs_exhaustive_kappa1():
    """Flow kappa_1 equals the exhaustive value on catalog Cayley graphs
    and 500 random digraphs."""
    t0 = time.perf_counter()
    checked = 0
    for e, g, scan in _catalog_scans(12):
        n = g.order
        for smask in scan.subsets_with_identity():
            rows = scan.rows(smask)
            graph = Digraph(rows, translations=g.table)
            exhaustive = subset_scan(rows, n, (1,), collect="none")[1].kappa
            assert kappa1_flow(graph) == exhaustive, (e.name, bin(smask))
            checked += 1
    rng = random.Random(8)
    for _ in range(500):
        g = random_reflexive_digraph(rng, rng.randint(1, 8))
        exhaustive = subset_scan(g.rows, g.n, (1,), collect="none")[1].kappa
        assert kappa1_flow(g) == exhaustive
        checked += 1
    elapsed = time.perf_counter() - t0
    _verdict(8, True, elapsed, None, f"{checked} graphs")


def test_criterion_09_order_of_basis():
    """S^e = G for every generating S, with e = max(2, floor(2n/|S|)-1)
    (e = 1 when S = G).  The literal exponent floor(2n/|S|)-1 must fail on
    exactly the proper S with |S| > 2n/3, where it is 1: the report's
    ``literal_bound_violations`` must equal the zone size counted by the
    closed form, and S = {0,1,2} in Z4 is the hand witness."""
    budget = 600
    t0 = time.perf_counter()
    rep = verify.run("orderbase", max_order=16, seed=0)[0]
    elapsed = time.perf_counter() - t0
    literal = rep.details["literal_bound_violations"]
    zone = sum(o_literal_orderbase_zone(build(e.spec).order) for e in entries(16))
    _verdict(
        9, rep.ok and literal == zone, elapsed, budget,
        f"{rep.instances_tested} instances, "
        f"{literal} literal-exponent failures, zone size {zone}",
    )
    assert elapsed < budget
    assert rep.ok, rep.counterexamples[:3]
    assert literal == zone
    # hand witness: S = {0,1,2} in Z4 is proper, the literal exponent
    # 2*4 // 3 - 1 is 1, yet two factors are needed
    scan = GroupScan(build("cyclic:4"))
    smask = ElementSet(4, [0, 1, 2]).mask
    assert smask != (1 << 4) - 1
    sizes = [int(size[0]) for _, size, _ in scan.powers(np.array([smask], dtype=np.uint32))]
    assert sizes == [3, 4]  # S^2 = G


def test_criterion_10_strong_iso_matching():
    """Every requested boundary matching of size k <= kappa_1 exists and
    verifies; X exhaustive through order 8, seeded samples to order 12."""
    budget = 600
    t0 = time.perf_counter()
    checked = 0
    for e, g, scan in _catalog_scans(12):
        n = g.order
        if n < 2:
            continue
        rng = random.Random(10_000 + n)
        for smask in scan.subsets_with_identity():
            if not scan.generates(smask):
                continue
            rows = scan.rows(smask)
            graph = Digraph(rows, translations=g.table)
            k1 = subset_scan(rows, n, (1,), collect="none")[1].kappa
            if n <= 8:
                xs = range(1, (1 << n) - 1)
            else:
                xs = [rng.randrange(1, (1 << n) - 1) for _ in range(25)]
            for xm in xs:
                top = min(k1, xm.bit_count(), n - xm.bit_count())
                for k in range(1, top + 1):
                    m = strong_iso_matching(graph, ElementSet(n, xm), k)
                    assert o_is_matching(graph, set(ElementSet(n, xm)), m.pairs, k)
                    checked += 1
    elapsed = time.perf_counter() - t0
    _verdict(10, True, elapsed, budget, f"{checked} matchings")
    assert elapsed < budget


def test_criterion_11_zemor_witness():
    """The order-21 Frobenius instance exhibits a negative 1-atom that is
    not a subgroup."""
    budget = 120
    t0 = time.perf_counter()
    wit = verify.zemor_f21_witness()
    elapsed = time.perf_counter() - t0
    _verdict(11, wit["found"], elapsed, budget,
             f"negative atom {wit.get('negative_atom')}, "
             f"alpha1={wit.get('alpha1')}, alpha-1={wit.get('alpha_neg1')}")
    assert wit["found"], wit
    assert elapsed < budget
