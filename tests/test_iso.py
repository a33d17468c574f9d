import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isoperim import (
    ElementSet,
    GraphError,
    atoms,
    cayley_graph,
    classify,
    fragments,
    kappa,
    make_group,
    omega,
    profile,
    reverse,
)
from isoperim.digraph import FWD, REV, random_reflexive_digraph
from isoperim.groups import elem_mul_mask
from isoperim.iso import (
    check_dual_order,
    check_duality,
    check_fragment_intersection,
    check_overlap_bounds,
    check_submodularity,
    or_table,
    subset_scan,
    verify_isoperimetric_inequality,
)
from isoperim.menger import kappa1_flow
from isoperim import iso as iso_mod

from oracles import adj_sets, o_kappa


def cay(spec, elems):
    g = make_group(spec)
    return cayley_graph(g, g.subset(elems)), g


# ---------------------------------------------------------------------------
# kappa / fragments / atoms / omega
# ---------------------------------------------------------------------------


def test_kappa_examples():
    g, _ = cay("cyclic:7", [0, 1, 3])
    assert kappa(g, 1) == 2
    g4, _ = cay("cyclic:4", [0, 1, 2])
    assert kappa(g4, 2) == 1  # non-separable convention |V| - 2k + 1
    g7, _ = cay("cyclic:7", [0, 1, 2])
    assert kappa(g7, 2) == 2


def test_kappa_undefined():
    g, _ = cay("cyclic:2", [0, 1])
    with pytest.raises(GraphError, match="undefined"):
        kappa(g, 2)
    g3, _ = cay("cyclic:3", [0, 1])
    assert kappa(g3, 2) == 0  # |V| = 2k-1 exactly: defined, convention 0


def test_kappa_requires_reflexive():
    from isoperim.digraph import Digraph

    with pytest.raises(GraphError, match="reflexive"):
        kappa(Digraph([0b10, 0b01]), 1)


def test_fragments_examples():
    g5, _ = cay("cyclic:5", [0, 1])
    frs = list(fragments(g5, 1))
    assert len(frs) == 15
    # every interval of length 1..3
    assert ElementSet(5, [2]) in frs and ElementSet(5, [2, 3, 4]) in frs
    g4, _ = cay("cyclic:4", [0, 1, 2])
    frs4 = [f.indices() for f in fragments(g4, 2)]
    assert len(frs4) == 6 and all(len(f) == 2 for f in frs4)
    g73, _ = cay("cyclic:7", [0, 1, 3])
    assert ElementSet(7, [0]) in list(fragments(g73, 1))


def test_atoms_examples():
    g7, _ = cay("cyclic:7", [0, 1])
    a, ats = atoms(g7, 1)
    assert a == 1 and len(ats) == 7
    g6, _ = cay("cyclic:6", [0, 1, 3, 4])
    a, ats = atoms(g6, 1)
    assert a == 2 and ElementSet(6, [0, 3]) in ats
    g72, _ = cay("cyclic:7", [0, 1, 2])
    a, ats = atoms(g72, 2)
    assert ElementSet(7, [0, 1]) in ats


def test_omega_examples():
    g7, _ = cay("cyclic:7", [0, 1])
    assert omega(g7, 1) == 1
    g5, _ = cay("cyclic:5", [0, 1])
    assert omega(g5, 1) == 1
    # vertex-transitive: the count at the identity equals the count anywhere
    g6, _ = cay("cyclic:6", [0, 1, 3, 4])
    p = profile(g6, 1)
    per_vertex = [sum(1 for a in p.atoms if v in a) for v in range(6)]
    assert len(set(per_vertex)) == 1 and per_vertex[0] == p.omega


def test_profile_convention_counts():
    g4, _ = cay("cyclic:4", [0, 1, 2])
    p = profile(g4, 2)
    assert not p.separable
    assert p.kappa == 1 and p.alpha == 2
    assert p.fragments is None and p.atoms is None
    assert p.fragments_count == math.comb(4, 2)
    assert p.omega == math.comb(3, 1)


def test_exhaustive_cap():
    g, _ = cay("cyclic:15", [0, 1])
    big = make_group("product:cyclic:5,product:cyclic:5,cyclic:2")
    graph = cayley_graph(big, big.subset([0, 1]))
    assert graph.n == 50
    with pytest.raises(GraphError, match="capped"):
        profile(graph, 2)
    # but kappa_1 still works through the flow path
    assert kappa(graph, 1) >= 0


def test_pinned_expansion_matches_full_scan():
    # above 16 vertices profiles pin at the identity and expand by
    # translation; the result must match a raw full scan
    g, z18 = cay("cyclic:18", [0, 1, 5])
    p = profile(g, 1)
    res = subset_scan(g.rows, 18, (1,), pin0=False, collect="all")[1]
    assert res.kappa == p.kappa
    assert tuple(f.mask for f in p.fragments) == res.frag_masks
    assert p.alpha == res.alpha


def test_chunked_full_scan_agrees_with_pinned():
    # 21 vertices splits the full scan into two chunks of 2^20 subsets;
    # on a vertex-transitive graph it must agree with the single-chunk
    # pinned scan on kappa, alpha, and the atoms through the identity
    from isoperim.catalog import frobenius21

    g21 = frobenius21()
    s = ElementSet(21, [0, 1, 7, 8, 14, 15])
    graph = cayley_graph(g21, s)
    full = subset_scan(graph.rows, 21, (1,), pin0=False, collect="atoms")[1]
    pinned = subset_scan(graph.rows, 21, (1,), pin0=True, collect="atoms")[1]
    assert full.separable == pinned.separable
    assert full.kappa == pinned.kappa
    assert full.alpha == pinned.alpha
    assert tuple(m for m in full.atom_masks if m & 1) == pinned.atom_masks


def test_or_table_matches_plain_sets():
    def ids(mask):
        return {v for v in range(24) if int(mask) >> v & 1}

    rng = random.Random(3)
    for m in range(6):
        base = set(rng.sample(range(24), rng.randint(0, 4)))
        gens = [set(rng.sample(range(24), rng.randint(0, 5))) for _ in range(m)]
        masks = [sum(1 << v for v in gen) for gen in gens]
        table = or_table(sum(1 << v for v in base), masks)
        # three tables at once, one per trailing column
        wide = or_table(np.array([0, 1 << 23, 7], dtype=np.uint32),
                        np.array([[mk, 0, mk] for mk in masks], dtype=np.uint32))
        assert table.shape == (1 << m,) and wide.shape == (1 << m, 3)
        for y in range(1 << m):
            picked = set().union(*(gens[j] for j in range(m) if y >> j & 1))
            assert ids(table[y]) == base | picked
            assert ids(wide[y, 0]) == picked
            assert ids(wide[y, 1]) == {23}
            assert ids(wide[y, 2]) == picked | {0, 1, 2}


def _assert_scan_matches_oracle(res, oracle, collect, through=None):
    """Compare one ScanResult with o_kappa; ``through`` keeps only the
    oracle's fragments containing that vertex (a pinned scan)."""
    sep, kap, frags = oracle
    assert (res.separable, res.kappa) == (sep, kap)
    if not sep or collect == "none":
        return
    alpha = min(len(f) for f in frags)
    if through is not None:
        frags = [f for f in frags if through in f]
    want_atoms = {f for f in frags if len(f) == alpha}

    def as_sets(masks):
        return {frozenset(v for v in range(32) if m >> v & 1) for m in masks}

    assert res.alpha == alpha
    assert res.frag_count == len(frags)
    if collect in ("atoms", "all"):
        assert as_sets(res.atom_masks) == want_atoms
        assert len(res.atom_masks) == len(want_atoms)
    if collect == "all":
        assert as_sets(res.frag_masks) == set(frags)
        assert list(res.frag_masks) == sorted(res.frag_masks)


@pytest.mark.parametrize("chunk_bits", [1, 2, 3])
def test_chunk_merge_matches_oracle(monkeypatch, chunk_bits):
    # chunks of 2-8 subsets make the merge across chunks run on graphs
    # small enough for the plain-set oracle
    monkeypatch.setattr(iso_mod, "_CHUNK_BITS", chunk_bits)
    levels = ("none", "alpha", "atoms", "all")
    rng = random.Random(100 + chunk_bits)
    for _ in range(12):
        n = rng.randint(1, 9)
        g = random_reflexive_digraph(rng, n)
        ks = tuple(k for k in (1, 2, 3) if n >= 2 * k - 1)
        oracles = {k: o_kappa(adj_sets(g), n, k) for k in ks}
        for collect in levels:
            res = subset_scan(g.rows, n, ks, collect=collect)
            for k in ks:
                _assert_scan_matches_oracle(res[k], oracles[k], collect)
    for spec, elems in [
        ("cyclic:7", [0, 1, 3]),
        ("cyclic:8", [0, 1, 4]),
        ("cyclic:9", [0, 1]),
        ("cyclic:9", [0, 3, 6]),
        ("symmetric:3", [0, 1]),
        ("dihedral:4", [0, 1, 4]),
        ("quaternion:8", [0, 2, 4]),
        ("product:cyclic:2,cyclic:4", [0, 1, 2]),
    ]:
        g, _ = cay(spec, elems)
        n = g.n
        ks = (1, 2, 3)
        oracles = {k: o_kappa(adj_sets(g), n, k) for k in ks}
        for collect in levels:
            res = subset_scan(g.rows, n, ks, pin0=True, collect=collect)
            for k in ks:
                _assert_scan_matches_oracle(res[k], oracles[k], collect, through=0)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_examples():
    z7 = make_group("cyclic:7")
    inv = classify(z7, z7.subset([0, 1, 3]))
    assert inv.cauchy and inv.kappa1 == 2 == inv.delta - 1
    inv = classify(z7, z7.subset([0, 1, 2]))
    assert inv.mu == -1
    z6 = make_group("cyclic:6")
    inv = classify(z6, z6.subset([0, 1, 3, 4]))
    assert not inv.cauchy and inv.kappa1 == 2


def test_classify_inside_hull():
    z6 = make_group("cyclic:6")
    inv = classify(z6, z6.subset([0, 2]))  # generates {0,2,4}
    assert not inv.generates and inv.hull_order == 3
    assert inv.kappa1 == 1  # interval growth inside Z3
    assert inv.kappa2 == 0  # Z3 is non-2-separable: convention value
    assert inv.vosper and not inv.two_separable
    inv2 = classify(z6, z6.subset([0, 3]))
    assert inv2.hull_order == 2 and inv2.kappa2 is None and inv2.vosper


def test_classify_mu_consistency():
    z8 = make_group("cyclic:8")
    for sm in range(1, 256, 2):
        s = ElementSet(8, sm)
        inv = classify(z8, s)
        if inv.kappa2 is not None:
            assert inv.mu == inv.kappa2 - inv.delta
        assert inv.cauchy == (inv.kappa1 == inv.delta - 1)
        assert inv.vosper == (
            (not inv.two_separable)
            or (inv.kappa2 is not None and inv.kappa2 >= inv.delta)
        )


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


def test_check_duality_examples():
    g, _ = cay("cyclic:7", [0, 1, 3])
    assert check_duality(g, 1).ok
    g2 = random_reflexive_digraph(random.Random(11), 6)
    assert check_duality(g2, 1).ok
    s3 = make_group("symmetric:3")
    for sm in range(1, 64, 2):
        s = ElementSet(6, sm)
        graph = cayley_graph(s3, s)
        for k in (1, 2):
            assert check_duality(graph, k).ok


def test_check_submodularity():
    g, _ = cay("cyclic:5", [0, 1])
    assert check_submodularity(g).ok  # exhaustive at 5 vertices
    g8 = random_reflexive_digraph(random.Random(5), 8)
    assert check_submodularity(g8, samples=4000, seed=1).ok
    big = random_reflexive_digraph(random.Random(5), 9)
    with pytest.raises(GraphError):
        check_submodularity(big)


def test_check_fragment_intersection_examples():
    g11, _ = cay("cyclic:11", [0, 1])
    assert check_fragment_intersection(g11, 2).ok
    g73, _ = cay("cyclic:7", [0, 1, 3])
    assert check_fragment_intersection(g73, 1).ok


def test_check_fragment_intersection_sweep():
    for spec in ("cyclic:6", "symmetric:3", "cyclic:8", "dihedral:4"):
        g = make_group(spec)
        n = g.order
        from isoperim.catalog import GroupScan

        scan = GroupScan(g)
        for sm in scan.subsets_with_identity():
            if not scan.generates(sm):
                continue
            graph = cayley_graph(g, ElementSet(n, sm))
            for k in (1, 2):
                res = subset_scan(graph.rows, n, (k,), collect="none")[k]
                if res.separable:
                    assert check_fragment_intersection(graph, k).ok


def test_check_overlap_bounds_examples():
    g11, _ = cay("cyclic:11", [0, 1])
    assert check_overlap_bounds(g11, 2).ok
    g13, _ = cay("cyclic:13", [0, 1, 2])
    assert check_overlap_bounds(g13, 2).ok


def test_check_dual_order_examples():
    g7, _ = cay("cyclic:7", [0, 1])
    assert check_dual_order(g7, 1).ok
    g8, _ = cay("cyclic:8", [0, 1, 4])
    assert check_dual_order(g8, 1).ok
    g9, _ = cay("cyclic:9", [0, 1])
    assert check_dual_order(g9, 2).ok


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_isoperimetric_inequality_catalog():
    for spec, elems, k in [
        ("cyclic:7", [0, 1, 3], 1),
        ("cyclic:7", [0, 1, 2], 2),
        ("cyclic:4", [0, 1, 2], 2),
        ("dihedral:4", [0, 1, 4], 1),
        ("quaternion:8", [0, 2, 4], 2),
    ]:
        g, _ = cay(spec, elems)
        assert verify_isoperimetric_inequality(g, k, FWD)
        assert verify_isoperimetric_inequality(g, k, REV)


def test_kappa1_at_most_min_valency_minus_one():
    # holds for every reflexive graph, separable or not
    rng = random.Random(9)
    for _ in range(40):
        g = random_reflexive_digraph(rng, rng.randint(1, 7))
        assert kappa(g, 1) <= g.min_out_valency() - 1


def test_kappa_monotone_while_separable():
    rng = random.Random(13)
    for _ in range(30):
        g = random_reflexive_digraph(rng, rng.randint(5, 7))
        vals = []
        for k in (1, 2, 3):
            if g.n >= 2 * k - 1:
                p = profile(g, k)
                if p.separable:
                    vals.append(p.kappa)
        assert vals == sorted(vals)


def test_abelian_mirror_symmetry():
    for spec in ("cyclic:9", "product:cyclic:2,cyclic:4"):
        g = make_group(spec)
        n = g.order
        for sm in range(1, 1 << n, 7):
            sm |= 1
            graph = cayley_graph(g, ElementSet(n, sm))
            for k in (1, 2):
                pf, pr = profile(graph, k, FWD), profile(graph, k, REV)
                assert pf.kappa == pr.kappa
                assert pf.alpha == pr.alpha


def test_fragments_closed_under_translation():
    g, z = cay("cyclic:6", [0, 1, 3])
    p = profile(g, 1)
    frag_masks = {f.mask for f in p.fragments}
    for a in range(6):
        for m in frag_masks:
            assert elem_mul_mask(z, a, m) in frag_masks


def test_flow_exhaustive_agreement_small():
    rng = random.Random(21)
    for _ in range(60):
        g = random_reflexive_digraph(rng, rng.randint(1, 7))
        assert kappa1_flow(g) == kappa(g, 1)


# ---------------------------------------------------------------------------
# oracle cross-checks
# ---------------------------------------------------------------------------


@given(st.integers(0, 2**40), st.integers(1, 7), st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_kappa_and_fragments_match_oracle(seed, n, k):
    if n < 2 * k - 1:
        n = 2 * k - 1
    g = random_reflexive_digraph(random.Random(seed), n)
    sep, kap, frs = o_kappa(adj_sets(g), n, k)
    p = profile(g, k)
    assert p.separable == sep
    assert p.kappa == kap
    if sep:
        assert {frozenset(f) for f in p.fragments} == set(frs)
        assert p.alpha == min(len(f) for f in frs)
