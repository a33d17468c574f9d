import math
import random
from itertools import combinations

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
from isoperim.digraph import FWD, REV, Digraph, random_reflexive_digraph
from isoperim.groups import elem_mul_mask
from isoperim.iso import (
    CheckResult,
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

from oracles import (
    adj_sets,
    assert_scan_matches_oracle,
    o_boundary,
    o_image,
    o_kappa,
    o_pinned_profile,
    o_scan_flat,
    o_wedge,
)


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
    # profiles scan every subset; on vertex-transitive graphs of 17-20
    # vertices they must equal a scan through vertex 0 whose atoms and
    # fragments are expanded by every translation (the last graph is
    # complete, so not 1-separable)
    for spec, elems in (("cyclic:17", [0, 1, 4]), ("dihedral:9", [0, 3]),
                        ("cyclic:18", [0, 1, 5]), ("cyclic:19", [0, 2, 7]),
                        ("dihedral:10", [0, 1, 13]), ("cyclic:20", [0, 1, 6]),
                        ("cyclic:17", range(17))):
        g, _ = cay(spec, elems)
        for k in (1, 2):
            for sign in (FWD, REV):
                p = profile(g, k, sign)
                masks = [None if sets is None else [x.mask for x in sets]
                         for sets in (p.atoms, p.fragments)]
                got = (p.separable, p.kappa, p.alpha, p.omega, *masks, p.fragments_count)
                assert got == o_pinned_profile(g, k, sign), (spec, k, sign)


# ---------------------------------------------------------------------------
# the atoms-level record behind kappa, alpha, atoms and omega
# ---------------------------------------------------------------------------


def _queries(g, k, sign):
    return (kappa(g, k, sign), iso_mod.alpha(g, k, sign), atoms(g, k, sign),
            omega(g, k, sign))


def _from_profile(g, k, sign):
    """The same four answers read from the full profile: the atoms are
    the least fragments, and omega counts them at each vertex."""
    p = profile(g, k, sign)
    n = g.n
    if p.separable:
        ats = tuple(f for f in p.fragments if len(f) == p.alpha)
        assert ats == p.atoms
    else:
        masks = sorted(sum(1 << v for v in c) for c in combinations(range(n), k))
        ats = tuple(ElementSet(n, m) for m in masks)
    per_vertex = [sum(1 for a in ats if v in a) for v in range(n)]
    assert min(per_vertex) == p.omega
    return p.kappa, p.alpha, (p.alpha, ats), p.omega


def _ks(n):
    return [k for k in (1, 2, 3) if n >= 2 * k - 1]


def test_atom_record_matches_profile_on_random_digraphs():
    rng = random.Random(20)
    for _ in range(60):
        g = random_reflexive_digraph(rng, rng.randint(1, 10))
        for k in _ks(g.n):
            for sign in (FWD, REV):
                assert _queries(g, k, sign) == _from_profile(g, k, sign)


def test_atom_record_matches_profile_on_catalog_to_order_8():
    from isoperim.catalog import GroupScan, build, entries

    for e in entries(8):
        group = build(e.spec)
        scan = GroupScan(group)
        for smask in scan.subsets_with_identity():
            if not scan.generates(smask):
                continue
            graph = cayley_graph(group, ElementSet(group.order, smask))
            for k in _ks(graph.n):
                for sign in (FWD, REV):
                    assert _queries(graph, k, sign) == _from_profile(graph, k, sign), (
                        e.name, bin(smask), k, sign)


@pytest.mark.parametrize("spec,elems", [
    ("cyclic:17", [0, 1, 4]),
    ("dihedral:9", [0, 3]),
    ("cyclic:19", [0, 2, 7]),
    ("dihedral:10", [0, 1, 13]),
])
def test_pinned_atom_record_matches_translation_free_copy(spec, elems):
    # above 16 vertices the Cayley graph is scanned through vertex 0 and
    # its atoms expanded by translation; the plain copy is scanned whole
    g, _ = cay(spec, elems)
    bare = Digraph(g.rows)
    assert g.transitive and not bare.transitive and 17 <= g.n <= 20
    for k in (1, 2):
        for sign in (FWD, REV):
            assert _queries(g, k, sign) == _from_profile(bare, k, sign)


def test_kappa_builds_no_fragment_profile():
    # every fragment of this loop-only graph is a set with room on both
    # sides; kappa, alpha, atoms and omega must not list them
    g, _ = cay("cyclic:18", [0])
    iso_mod._profile_impl.cache_clear()
    assert kappa(g, 2) == 0
    assert iso_mod.alpha(g, 2) == 2 and omega(g, 2) == 17
    assert len(atoms(g, 2)[1]) == math.comb(18, 2)
    assert iso_mod._profile_impl.cache_info().currsize == 0


def test_chunked_full_scan_agrees_with_pinned():
    # 21 vertices splits the full scan into 32 chunks of 2^16 subsets;
    # on a vertex-transitive graph it must agree with the 16-chunk pinned
    # scan on kappa, alpha, and the atoms through the identity
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


def test_subset_scan_rejects_repeated_k():
    z7 = make_group("cyclic:7")
    g = cayley_graph(z7, z7.subset([0, 1, 3]))
    assert subset_scan(g.rows, 7, (1,), collect="all")[1].frag_count == 14
    with pytest.raises(ValueError, match="repeated k"):
        subset_scan(g.rows, 7, (1, 1), collect="all")
    with pytest.raises(ValueError, match="repeated k"):
        subset_scan(g.rows, 7, (1, 2, 1), pin0=True, collect="none")


def test_subset_scan_rejects_undefined_k():
    # kappa_k needs 1 <= k and 2k - 1 <= n; unchecked, (0,) on Cay(Z5, {0, 1})
    # gave a separable kappa_0 = 0 and (4,) gave kappa_4 = -2
    z5 = make_group("cyclic:5")
    rows = cayley_graph(z5, z5.subset([0, 1])).rows
    assert subset_scan(rows, 5, (3,))[3].kappa == 0
    for ks in [(0,), (4,), (1, 4), (-1,)]:
        for pin0 in (False, True):
            with pytest.raises(ValueError, match="2k - 1"):
                subset_scan(rows, 5, ks, pin0=pin0)


@pytest.mark.parametrize("chunk_bits", [1, 2, 3])
def test_chunk_merge_matches_oracle(monkeypatch, chunk_bits):
    # chunks of 2-8 subsets make the merge across chunks run on graphs
    # small enough for the plain-set oracle; a 17- or 18-vertex graph, in 4
    # to 16 chunks, runs the uint16 key
    levels = ("none", "alpha", "atoms", "all")
    rng = random.Random(100 + chunk_bits)
    graphs = [random_reflexive_digraph(rng, rng.randint(1, 9)) for _ in range(12)]
    graphs.append(random_reflexive_digraph(rng, 17 + chunk_bits % 2))
    for g in graphs:
        n = g.n
        monkeypatch.setattr(iso_mod, "_CHUNK_BITS", chunk_bits if n < 16 else n - 1 - chunk_bits)
        ks = tuple(k for k in (1, 2, 3) if n >= 2 * k - 1 and (n < 16 or k < 3))
        oracles = {k: o_kappa(adj_sets(g), n, k) for k in ks}
        for collect in levels:
            res = subset_scan(g.rows, n, ks, collect=collect)
            for k in ks:
                assert_scan_matches_oracle(res[k], oracles[k], collect)
    monkeypatch.setattr(iso_mod, "_CHUNK_BITS", chunk_bits)
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
                assert_scan_matches_oracle(res[k], oracles[k], collect, through=0)


def test_wide_key_edges():
    # 18 vertices need the uint16 key: the loops-only graph has fragments
    # of every size 1..17 at boundary 0, and K_18 minus a perfect matching
    # has its 18 singleton fragments at boundary 16
    loops = Digraph([1 << v for v in range(18)])
    res = subset_scan(loops.rows, 18, (1, 2), collect="alpha")
    assert res[1] == (True, 0, 1, None, None, 2**18 - 2)
    assert res[2] == (True, 0, 2, None, None, sum(math.comb(18, j) for j in range(2, 17)))
    full = (1 << 18) - 1
    dense = Digraph([full & ~(1 << (v ^ 1)) for v in range(18)])
    singles = tuple(1 << v for v in range(18))
    assert subset_scan(dense.rows, 18, (1,), collect="all")[1] == (True, 16, 1, singles, singles, 18)


@pytest.mark.parametrize("spec,elems", [
    ("product:cyclic:3,cyclic:7", [0, 1, 5, 9]),
    ("cyclic:23", [0, 1, 5, 11, 17]),
    ("symmetric:4", [0, 3, 14, 19]),
])
def test_chunk_size_matches_one_chunk(monkeypatch, spec, elems):
    # 21-24 vertices run 16 to 128 chunks of 2^16 pinned subsets, against
    # one to eight chunks of 2^20: every field must agree, masks in order
    g, _ = cay(spec, elems)
    assert iso_mod._CHUNK_BITS < g.n - 1
    for collect in ("none", "alpha", "atoms", "all"):
        res = subset_scan(g.rows, g.n, (1, 2), pin0=True, collect=collect)
        with monkeypatch.context() as m:
            m.setattr(iso_mod, "_CHUNK_BITS", 20)
            one = subset_scan(g.rows, g.n, (1, 2), pin0=True, collect=collect)
        assert res == one, (spec, collect)


def test_chunk_size_matches_one_chunk_unpinned(monkeypatch):
    # 2^20 subsets: 16 chunks of 2^16 against one chunk
    rg = random_reflexive_digraph(random.Random(20), 20, 0.45)
    res = subset_scan(rg.rows, 20, (1, 2), collect="atoms")
    monkeypatch.setattr(iso_mod, "_CHUNK_BITS", 20)
    assert res == subset_scan(rg.rows, 20, (1, 2), collect="atoms")


def _planted(rng, n, closed):
    """A dense random digraph on n vertices in which each set of
    ``closed`` is a complete digraph with no arc leaving it, and every
    other vertex reaches every vertex: those sets and their unions are
    the only X with an empty boundary."""
    inside = {v for c in closed for v in c}
    rest = [v for v in range(n) if v not in inside]
    rows = [0] * n
    for c in closed:
        for v in c:
            rows[v] = sum(1 << u for u in c)
    for u in rest:
        rows[u] = 1 << u | 1 << rest[(rest.index(u) + 1) % len(rest)]
        rows[u] |= sum(1 << v for v in range(n) if rng.random() < 0.6)
    for c in closed:
        rows[rest[0]] |= 1 << min(c)
    return Digraph(rows)


def _matches_flat_oracle(rows, n, pin0):
    """Assert that every field at every level and k = 1, 2, 3 matches one
    flat pass over the power set; return how many k are non-separable."""
    nonsep = 0
    for k in (1, 2, 3):
        want = o_scan_flat(rows, n, k, pin0)
        nonsep += not want[0]
        for collect in ("none", "alpha", "atoms", "all"):
            got = subset_scan(rows, n, (k,), pin0=pin0, collect=collect)[k]
            if want[0]:
                keep = {"none": 2, "alpha": 3, "atoms": 4, "all": 5}[collect]
                fields = want[:keep] + (None,) * (5 - keep)
                fields += (None if collect == "none" else want[5],)
            else:
                fields = want
            assert got == fields, (n, pin0, k, collect)
    return nonsep


def test_multi_chunk_scan_matches_flat_oracle():
    # 17-22 vertices run 2 to 32 chunks at the default _CHUNK_BITS; every
    # field at every level must match one flat pass over the power set
    rng = random.Random(27)
    cases = [(random_reflexive_digraph(rng, n, p).rows, n, False)
             for n, p in [(17, 0.08), (18, 0.25), (19, 0.45), (20, 0.7), (17, 0.9), (18, 0.97)]]
    for spec, elems in [("dihedral:9", [0, 1, 10]), ("cyclic:19", [0, 1, 7, 11]),
                        ("dihedral:10", [0, 3, 12, 17]), ("product:cyclic:3,cyclic:7", [0, 1, 5, 9]),
                        ("product:cyclic:2,cyclic:11", [0, 1, 13, 20])]:
        g, _ = cay(spec, elems)
        cases.append((g.rows, g.n, True))
    # the only atom lies in the last chunk; fragments tie on kappa_1 across
    # chunks whose least fragments differ in size, the smaller one first
    # or last
    last = _planted(rng, 19, [(16, 17, 18)])
    cases += [(last.rows, 19, False)]
    cases += [(_planted(rng, 18, closed).rows, 18, False)
              for closed in ([(0,), (16, 17)], [(0, 1), (17,)])]
    nonsep = 0
    for rows, n, pin0 in cases:
        assert n - pin0 > iso_mod._CHUNK_BITS
        nonsep += _matches_flat_oracle(rows, n, pin0)
    assert nonsep
    res = subset_scan(last.rows, 19, (1, 2, 3), collect="atoms")
    top = 0b111 << 16
    assert all(res[k].atom_masks == (top,) for k in (1, 2, 3))
    assert top >> iso_mod._CHUNK_BITS == (1 << 19 - iso_mod._CHUNK_BITS) - 1


# ---------------------------------------------------------------------------
# the closure filter behind subset_scan
# ---------------------------------------------------------------------------


def test_fragments_are_closed():
    # X is closed when no v outside X has vB inside XB, that is when
    # X = V \ (V \ XB)B^-1.  A feasible X that is not closed gains any
    # such v and stays feasible with a boundary one smaller, so every
    # k-fragment is closed
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 9)
        g = random_reflexive_digraph(rng, n, rng.choice([0.15, 0.35, 0.6, 0.85]))
        adj = adj_sets(g)
        inv = [{u for u in range(n) if v in adj[u]} for v in range(n)]
        for k in (1, 2, 3):
            if 2 * k - 1 > n:
                continue
            closed = set()
            for r in range(n + 1):
                for xs in combinations(range(n), r):
                    img = o_image(adj, xs)
                    joins = [v for v in range(n) if v not in xs and adj[v] <= img]
                    back = set(range(n)) - o_image(inv, set(range(n)) - img)
                    assert (back == set(xs)) == (not joins)
                    if not joins:
                        closed.add(frozenset(xs))
                    if len(xs) < k or len(o_wedge(adj, n, xs)) < k:
                        continue
                    for v in joins:
                        more = xs + (v,)
                        assert len(o_wedge(adj, n, more)) >= k
                        assert len(o_boundary(adj, more)) == len(o_boundary(adj, xs)) - 1
            sep, _, frags = o_kappa(adj, n, k)
            assert not sep or set(frags) <= closed, (n, k)


def _closed_half_oracle(adj, verts, base, tag):
    """(mask | tag, image mask) of every y over ``verts`` that no vertex of
    ``verts`` outside y can join for free, the image of y taken with
    ``base``, in popcount order and ascending within a popcount."""
    out = []
    for r in range(len(verts) + 1):
        for ys in combinations(verts, r):
            img = o_image(adj, set(ys) | base)
            if not any(adj[v] <= img for v in verts if v not in ys):
                out.append((sum(1 << v for v in ys) | tag, sum(1 << v for v in img)))
    return sorted(out, key=lambda e: (e[0].bit_count(), e[0]))


@pytest.mark.parametrize("pin0", [False, True])
def test_closed_halves_match_plain_sets(pin0):
    # when pinned, both halves' images include vertex 0's row, and the low
    # half's masks include vertex 0
    rng = random.Random(43 + pin0)
    for _ in range(60):
        n = rng.randint(1 + pin0, 10)
        g = random_reflexive_digraph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.8]))
        adj = adj_sets(g)
        free = list(range(int(pin0), n))
        la = (len(free) + 1) // 2
        base = {0} if pin0 else set()
        low, high = iso_mod._closed_halves(g.rows, n, int(pin0))
        for half, verts, tag in ((low, free[:la], int(pin0)), (high, free[la:], 0)):
            want = _closed_half_oracle(adj, verts, base, tag)
            assert list(zip(half.xs.tolist(), half.img.tolist())) == want, (n, pin0)
            sizes = [x.bit_count() for x, _ in want]
            assert half.sizes == sorted(set(sizes))
            assert half.starts == [sizes.index(c) for c in half.sizes]


@pytest.mark.parametrize("chunk_bits", [1, 16])
def test_closure_filter_matches_flat_oracle(monkeypatch, chunk_bits):
    # loop-only graphs, where every set is closed; dense graphs, where
    # whole popcount classes of a half have no closed set; and a graph
    # whose only atom holds the last set of the high half.  At 1 chunk
    # bit each row is a chunk.  Every field at every level must match one
    # flat pass over the power set
    monkeypatch.setattr(iso_mod, "_CHUNK_BITS", chunk_bits)
    rng = random.Random(47)
    cases = [(cay("cyclic:17", [0])[0].rows, 17, True), (cay("cyclic:18", [0])[0].rows, 18, False)]
    for rows, n, pin0 in cases:
        low, high = iso_mod._closed_halves(rows, n, pin0)
        assert len(low.xs) * len(high.xs) == 1 << n - pin0
    dense = [random_reflexive_digraph(rng, n, p).rows for n, p in [(17, 0.9), (18, 0.95)]]
    for rows in dense:
        for pin0 in (False, True):
            # the popcount classes of a half run from its least to its
            # largest size; some of them are empty
            halves = iso_mod._closed_halves(rows, len(rows), pin0)
            assert any(len(h.sizes) < h.sizes[-1] - h.sizes[0] + 1 for h in halves)
            cases.append((rows, len(rows), pin0))
    # the closed set {0} u {10, ..., 18} is the only atom, pinned or not;
    # it holds every high vertex, the last set of the high half
    atom = 1 | 0b111111111 << 10
    last = _planted(rng, 19, [(0, *range(10, 19))])
    for pin0 in (False, True):
        low, high = iso_mod._closed_halves(last.rows, 19, pin0)
        assert int(high.xs[-1]) == atom >> 10 << 10
        cases.append((last.rows, 19, pin0))
    for rows, n, pin0 in cases:
        _matches_flat_oracle(rows, n, pin0)
    assert all(subset_scan(last.rows, 19, (1, 2, 3), pin0=pin0, collect="atoms")[k].atom_masks
               == (atom,) for pin0 in (False, True) for k in (1, 2, 3))


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
    assert check_submodularity(g8, samples=4000, seed=1) == CheckResult(True, 4000, [])
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


def test_isoperimetric_inequality_cap():
    # the cap is its own: 20 vertices run whatever the scan's chunk size
    g20, _ = cay("cyclic:20", [0, 1, 5])
    assert verify_isoperimetric_inequality(g20, 1)
    g21, _ = cay("cyclic:21", [0, 1, 5])
    with pytest.raises(GraphError, match="capped at 20"):
        verify_isoperimetric_inequality(g21, 1)


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
