import random

import pytest

from isoperim import (
    GroupError,
    ConnectivityError,
    ElementSet,
    GraphError,
    abelian_strong_iso,
    cayley_graph,
    disjoint_paths,
    kappa,
    kappa1_flow,
    local_connectivity,
    make_group,
    min_k_part,
    strong_iso_matching,
)
from isoperim.catalog import build, entries
from isoperim.digraph import (
    Digraph, boundary, co_complement, image, random_reflexive_digraph, reverse,
)
from isoperim.iso import subset_scan
from isoperim.menger import PathFamily, fan, verify_path_family

from oracles import adj_sets, o_is_matching, o_local_connectivity, o_min_k_part


def cay(spec, elems):
    g = make_group(spec)
    return cayley_graph(g, g.subset(elems)), g


def path_graph():
    # a -> b -> c with loops
    return Digraph([0b011, 0b110, 0b100])


# ---------------------------------------------------------------------------
# local connectivity
# ---------------------------------------------------------------------------


def test_local_connectivity_examples():
    g, _ = cay("cyclic:5", [0, 1, 2])
    assert local_connectivity(g, 0, 3) == 2
    assert local_connectivity(path_graph(), 0, 2) == 1
    disc = Digraph([0b01, 0b10])
    assert local_connectivity(disc, 0, 1) == 0


def test_adjacent_pair_rejected():
    g, _ = cay("cyclic:5", [0, 1, 2])
    with pytest.raises(GraphError, match="adjacent"):
        local_connectivity(g, 0, 1)
    with pytest.raises(GraphError, match="adjacent"):
        local_connectivity(g, 0, 0)


def test_local_connectivity_matches_bruteforce():
    rng = random.Random(77)
    for _ in range(60):
        g = random_reflexive_digraph(rng, rng.randint(2, 7))
        adj = adj_sets(g)
        for x in range(g.n):
            for y in range(g.n):
                if g.has_arc(x, y):
                    continue
                assert local_connectivity(g, x, y) == o_local_connectivity(
                    adj, g.n, x, y
                )


# ---------------------------------------------------------------------------
# disjoint paths
# ---------------------------------------------------------------------------


def test_disjoint_paths_example():
    g, _ = cay("cyclic:5", [0, 1, 2])
    fam = disjoint_paths(g, 0, 3, 2)
    assert verify_path_family(g, fam, 2)
    assert {p[1] for p in fam.paths} == {1, 2}


def test_disjoint_paths_zero():
    g, _ = cay("cyclic:5", [0, 1, 2])
    fam = disjoint_paths(g, 0, 3, 0)
    assert fam.paths == ()


def test_disjoint_paths_too_many():
    g, _ = cay("cyclic:5", [0, 1, 2])
    with pytest.raises(ConnectivityError) as exc:
        disjoint_paths(g, 0, 3, 3)
    cut = exc.value.min_cut
    assert cut is not None and len(cut) == 2


def test_path_family_verifier_rejects_tampering():
    g, _ = cay("cyclic:5", [0, 1, 2])
    fam = disjoint_paths(g, 0, 3, 2)
    # wrong count
    assert not verify_path_family(g, fam, 1)
    # shared interior vertex
    bad = PathFamily(source=0, target=3, paths=((0, 1, 3), (0, 1, 3)))
    assert not verify_path_family(g, bad, 2)
    # non-arc step
    bad2 = PathFamily(source=0, target=3, paths=((0, 4, 3), (0, 2, 3)))
    assert not verify_path_family(g, bad2, 2)


def test_augmenting_path_backs_up_through_a_used_vertex():
    # the shortest path 0-1-2-3-8 comes first; the second augmenting path
    # 0-4-5-3, back along 3 -> 2, across vertex 2 from its out-node to its
    # in-node, back along 2 -> 1, then on through 6-7-8, frees vertex 2
    arcs = [(0, 1), (1, 2), (2, 3), (3, 8), (0, 4), (4, 5), (5, 3), (1, 6),
            (6, 7), (7, 8)]
    rows = [1 << v for v in range(9)]
    for u, v in arcs:
        rows[u] |= 1 << v
    g = Digraph(rows)
    assert local_connectivity(g, 0, 8) == 2
    fam = disjoint_paths(g, 0, 8, 2)
    assert verify_path_family(g, fam, 2)
    assert set(fam.paths) == {(0, 1, 6, 7, 8), (0, 4, 5, 3, 8)}


def test_disjoint_paths_below_common_neighbours():
    # x = 0 reaches y = 6 through each of 1..5 and nothing else: the
    # five common neighbours seed the flow, and any k of them are exactly
    # k paths
    rows = [0b0111111] + [1 << v | 1 << 6 for v in range(1, 6)] + [1 << 6]
    g = Digraph(rows)
    for k in range(6):
        fam = disjoint_paths(g, 0, 6, k)
        assert len(fam.paths) == k and verify_path_family(g, fam, k)
    with pytest.raises(ConnectivityError):
        disjoint_paths(g, 0, 6, 6)
    rng = random.Random(41)
    for _ in range(40):
        g = random_reflexive_digraph(rng, rng.randint(6, 12), rng.choice([0.45, 0.6]))
        for x in range(g.n):
            for y in range(g.n):
                if g.has_arc(x, y):
                    continue
                common = (g.rows[x] & g.in_rows[y]).bit_count()
                for k in range(1, common):
                    fam = disjoint_paths(g, x, y, k)
                    assert len(fam.paths) == k and verify_path_family(g, fam, k)


def test_disjoint_paths_exhaustive_counts():
    rng = random.Random(123)
    for _ in range(40):
        g = random_reflexive_digraph(rng, rng.randint(2, 7))
        for x in range(g.n):
            for y in range(g.n):
                if g.has_arc(x, y):
                    continue
                lam = local_connectivity(g, x, y)
                fam = disjoint_paths(g, x, y, lam)
                assert verify_path_family(g, fam, lam)


# ---------------------------------------------------------------------------
# k-parts
# ---------------------------------------------------------------------------


def test_min_k_part_examples():
    g, _ = cay("cyclic:5", [0, 1, 2])
    part = min_k_part(g, 0, 3)
    assert sorted(part.set) == [0] and part.boundary_size == 2
    p = min_k_part(path_graph(), 0, 2)
    assert sorted(p.set) == [0] and p.boundary_size == 1


def test_min_k_part_duality_holds():
    # the reverse boundary of the far side equals the cut, on every call
    rng = random.Random(5)
    for _ in range(40):
        g = random_reflexive_digraph(rng, rng.randint(2, 7))
        for x in range(g.n):
            for y in range(g.n):
                if g.has_arc(x, y):
                    continue
                part = min_k_part(g, x, y)
                a = part.set
                assert x in a and y not in image(g, a)
                assert len(boundary(g, a)) == part.boundary_size
                wedge = co_complement(g, a)
                assert boundary(reverse(g), wedge) == boundary(g, a)


def test_min_k_part_is_least_minimum_part():
    # the residual side of a maximum flow is the intersection of every
    # minimum part, however the flow was found
    rng = random.Random(17)
    for _ in range(150):
        g = random_reflexive_digraph(rng, rng.randint(2, 8), rng.choice([None, 0.2, 0.45]))
        adj = adj_sets(g)
        for x in range(g.n):
            for y in range(g.n):
                if g.has_arc(x, y):
                    continue
                lam, least = o_min_k_part(adj, g.n, x, y)
                part = min_k_part(g, x, y)
                assert (part.boundary_size, set(part.set)) == (lam, least), (g.rows, x, y)


# ---------------------------------------------------------------------------
# fans
# ---------------------------------------------------------------------------


def test_fan_to_targets():
    g, _ = cay("cyclic:5", [0, 1, 2])
    paths = fan(g, 0, ElementSet(5, [3, 4]))
    assert paths is not None and len(paths) == 2
    assert {p[-1] for p in paths} == {3, 4}
    interiors = [set(p[1:-1]) for p in paths]
    assert not (interiors[0] & interiors[1])


# ---------------------------------------------------------------------------
# boundary matchings
# ---------------------------------------------------------------------------


def test_strong_iso_matching_examples():
    g, z7 = cay("cyclic:7", [0, 1, 3])
    m = strong_iso_matching(g, z7.subset([0, 1]), 2)
    assert o_is_matching(g, {0, 1}, m.pairs, 2)
    m1 = strong_iso_matching(g, z7.subset([2, 5]), 1)
    assert o_is_matching(g, {2, 5}, m1.pairs, 1)


def test_strong_iso_matching_saturates_tight_boundary():
    g, z6 = cay("cyclic:6", [0, 1, 3, 4])
    k1 = kappa(g, 1)
    x = z6.subset([0, 3])
    assert len(boundary(g, x)) == k1
    m = strong_iso_matching(g, x, k1)
    assert o_is_matching(g, {0, 3}, m.pairs, k1)
    assert {v for _, v in m.pairs} == set(boundary(g, x))


def test_strong_iso_matching_preconditions():
    g, z7 = cay("cyclic:7", [0, 1, 3])
    with pytest.raises(GraphError, match="exceeds"):
        strong_iso_matching(g, z7.subset([0, 1, 2]), 3)
    with pytest.raises(GraphError, match="min"):
        strong_iso_matching(g, z7.subset([0]), 2)


def test_strong_iso_matching_sweep_small():
    rng = random.Random(31)
    for spec, elems in [("cyclic:6", [0, 1]), ("symmetric:3", [0, 1, 4]),
                        ("cyclic:7", [0, 2, 3])]:
        g, grp_obj = cay(spec, elems)
        k1 = kappa(g, 1)
        n = g.n
        for xm in range(1, 1 << n):
            size = xm.bit_count()
            for k in range(1, k1 + 1):
                if min(size, n - size) < k:
                    continue
                m = strong_iso_matching(g, ElementSet(n, xm), k)
                assert o_is_matching(g, set(ElementSet(n, xm)), m.pairs, k)


# ---------------------------------------------------------------------------
# quotient matching
# ---------------------------------------------------------------------------


def test_abelian_strong_iso_example():
    z12 = make_group("cyclic:12")
    h = z12.subset([0, 6])
    s = z12.subset([0, 1, 6, 7])
    x = z12.subset([0, 1, 3])
    w = abelian_strong_iso(z12, s, h, x)
    assert w.t == 2 and w.u == 1 and w.r == 1
    assert w.image_size == w.t + 1 + w.u == 4
    # recount independently through the projection
    from isoperim.groups import coset_decomposition, quotient_group

    _, proj = quotient_group(z12, h)
    covered = {proj[v] for v in x}
    parts = coset_decomposition(z12, x, h, "left").parts
    for idx, y in zip(w.indices, w.elements):
        assert y in s and y not in h
        covered |= {proj[z12.mul(v, y)] for v in parts[idx]}
    assert len(covered) == 4


def test_abelian_strong_iso_trivial_u():
    z12 = make_group("cyclic:12")
    h = z12.subset([0, 6])
    s = z12.subset([0, 6])  # S inside H: u = 0
    x = z12.subset([0, 1])
    w = abelian_strong_iso(z12, s, h, x)
    assert w.u == 0 and w.r == 0 and w.image_size == w.t + 1


def test_abelian_strong_iso_preconditions():
    z12 = make_group("cyclic:12")
    h = z12.subset([0, 6])
    s = z12.subset([0, 1, 6, 7])
    # too many occupied cosets: |G| - (t+1)|H| < u|H|
    x = z12.subset([0, 1, 2, 3, 4, 5])
    with pytest.raises(GroupError, match=r"\(t\+1\)"):
        abelian_strong_iso(z12, s, h, x)
    s3 = make_group("symmetric:3")
    with pytest.raises(GroupError, match="abelian"):
        abelian_strong_iso(
            s3, s3.subset([0, 1]), s3.subset([0]), s3.subset([0])
        )
    # {0,4,8} fills the graph with S, so it cannot be a 2-fragment
    with pytest.raises(GroupError, match="2-fragment"):
        abelian_strong_iso(z12, s, z12.subset([0, 4, 8]), z12.subset([0, 1]))


# ---------------------------------------------------------------------------
# flow-based kappa_1
# ---------------------------------------------------------------------------


def test_kappa1_flow_transitive_and_general():
    g, _ = cay("cyclic:7", [0, 1, 3])
    assert kappa1_flow(g) == 2
    g4, _ = cay("cyclic:4", [0, 1, 2, 3])
    assert kappa1_flow(g4) == 3  # complete reflexive: convention n-1
    rng = random.Random(99)
    for _ in range(30):
        rg = random_reflexive_digraph(rng, rng.randint(1, 8))
        assert kappa1_flow(rg) == kappa(rg, 1)
    # one network serves every pair, and sparse graphs reach small kappa
    # from few sources; each exact value from the full scan
    seen = set()
    for _ in range(300):
        rg = random_reflexive_digraph(rng, rng.randint(1, 12), rng.choice([None, 0.1, 0.25, 0.4]))
        kap = subset_scan(rg.rows, rg.n, (1,), collect="none")[1].kappa
        assert kappa1_flow(rg) == kap
        seen.add(kap)
    assert set(range(6)) <= seen
    for e in entries(10):
        group = build(e.spec)
        n = group.order
        for smask in range(1, 1 << n, 2)[::7]:
            graph = cayley_graph(group, ElementSet(n, smask))
            exhaustive = subset_scan(graph.rows, n, (1,), collect="none")[1].kappa
            assert kappa1_flow(graph) == exhaustive, (e.name, bin(smask))
    # 0 reaches 4 through 1, 2 and 3, but 5 only through 4: the first
    # pair (0, 4) has connectivity 3 and a later one (0, 5) has 1
    ring = Digraph([0b001111, 0b010010, 0b010100, 0b011000, 0b110000, 0b100001])
    assert local_connectivity(ring, 0, 4) == 3 and local_connectivity(ring, 0, 5) == 1
    assert kappa1_flow(ring) == 1 == subset_scan(ring.rows, 6, (1,), collect="none")[1].kappa


def test_kappa1_flow_matches_scan_on_larger_graphs():
    # the common-neighbour seeds and the skip rule, on graphs where most
    # pairs have many common neighbours, against the exhaustive kappa_1
    # of each graph and of its reverse
    rng = random.Random(63)
    graphs = [random_reflexive_digraph(rng, n, p) for n in (12, 14, 16, 18, 20)
              for p in (0.2, 0.45, 0.45, 0.7)]
    for spec, n in (("cyclic:17", 17), ("dihedral:9", 18), ("cyclic:19", 19),
                    ("dihedral:10", 20), ("product:cyclic:3,cyclic:7", 21),
                    ("product:cyclic:2,cyclic:11", 22), ("cyclic:23", 23),
                    ("symmetric:4", 24)):
        for size in (3, 5, 7):
            graphs.append(cay(spec, [0] + rng.sample(range(1, n), size - 1))[0])
    for g in graphs:
        for rows, h in ((g.rows, g), (g.in_rows, reverse(g))):
            scan = subset_scan(rows, g.n, (1,), pin0=g.transitive, collect="none")[1]
            assert kappa1_flow(h) == scan.kappa, (rows, g.transitive)


def _even_teeth(kap, directed):
    """A graph with kappa_1 = kap whose only minimum separator is
    C = {0, ..., kap-1}: each source in C sees only pairs of connectivity
    kap + 1, so the first source to find kap is vertex kap.  Undirected:
    C is independent and joined to the vertex kap and to a clique W of
    kap vertices.  Directed: the same plus arcs from the vertex kap into
    W, so the pairs at connectivity kap are (w, kap), with the source on
    the far side of C."""
    n = 2 * kap + 1
    c = range(kap)
    rest = range(kap + 1, n)
    arcs = {(v, v) for v in range(n)}
    arcs |= {(x, y) for x in rest for y in rest}
    arcs |= {p for x in c for y in range(kap, n) for p in ((x, y), (y, x))}
    if directed:
        arcs |= {(kap, y) for y in rest}
    rows = [0] * n
    for x, y in arcs:
        rows[x] |= 1 << y
    return Digraph(rows)


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("kap", [1, 2, 3])
def test_kappa1_flow_needs_source_kappa(kap, directed):
    # Even's bound: the sources 0..kappa_1 suffice, and here 0..kappa_1 - 1
    # do not, so a search that stops before source kappa_1 reads too much
    g = _even_teeth(kap, directed)
    assert subset_scan(g.rows, g.n, (1,), collect="none")[1].kappa == kap
    assert kappa1_flow(g) == kap
    in_c = [(x, y) for x in range(g.n) for y in range(g.n)
            if not g.has_arc(x, y) and min(x, y) < kap]
    assert all(local_connectivity(g, x, y) == kap + 1 for x, y in in_c)
    assert any(local_connectivity(g, x, y) == kap
               for x in range(g.n) for y in range(g.n)
               if kap in (x, y) and not g.has_arc(x, y))


def test_kappa1_flow_runs_once_per_graph(monkeypatch):
    # kappa, kappa1_flow, classify (through the equal graph Cay(<S>, S))
    # and strong_iso_matching share one cached flow on a 21-vertex graph
    from isoperim import classify, menger

    g, z21 = cay("product:cyclic:3,cyclic:7", [0, 1, 5, 9])
    assert g.n == 21 and g.transitive
    built = []
    init = menger._BitFlow.__init__

    def counted(net, *args):
        built.append(args)
        init(net, *args)

    kappa1_flow.cache_clear()
    monkeypatch.setattr(menger._BitFlow, "__init__", counted)
    k1 = kappa(g, 1)
    assert kappa1_flow(g) == k1 == classify(z21, z21.subset([0, 1, 5, 9])).kappa1
    m = strong_iso_matching(g, z21.subset(range(7)), k1)
    assert o_is_matching(g, set(range(7)), m.pairs, k1)
    assert len(built) == 1
    info = kappa1_flow.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    # the translation-free copy is a different graph: its own entry, its
    # own flow from more than one source, and the same value
    bare = Digraph(g.rows)
    assert bare != g and kappa1_flow(bare) == k1 and len(built) == 2
    info = kappa1_flow.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
