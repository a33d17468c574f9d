import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from isoperim import (
    ElementSet,
    GraphError,
    boundary,
    cayley_graph,
    co_complement,
    image,
    is_k_separable,
    make_group,
    reflexive_closure,
    reverse,
)
from isoperim.digraph import (
    Digraph,
    from_payload,
    load_graph,
    random_reflexive_digraph,
    save_graph,
    to_payload,
)
from isoperim.groups import inverse_mask

from oracles import adj_sets, o_boundary, o_image, o_wedge


def cay(spec, elems):
    g = make_group(spec)
    return cayley_graph(g, g.subset(elems)), g


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_cayley_cycle_with_loops():
    g, _ = cay("cyclic:5", [0, 1])
    assert g.reflexive and g.transitive
    assert set(g.arcs()) == {(i, i) for i in range(5)} | {
        (i, (i + 1) % 5) for i in range(5)
    }


def test_cayley_image_is_set_product():
    g, z7 = cay("cyclic:7", [0, 1, 3])
    assert image(g, ElementSet.singleton(7, 0)).indices() == (0, 1, 3)
    x = z7.subset([0, 1])
    assert image(g, x).indices() == (0, 1, 2, 3, 4)


def test_cayley_requires_identity():
    z5 = make_group("cyclic:5")
    with pytest.raises(GraphError, match="identity"):
        cayley_graph(z5, z5.subset([1, 2]))


def test_reverse_is_inverse_set():
    g, z7 = cay("cyclic:7", [0, 1, 3])
    s_inv = ElementSet(7, inverse_mask(z7, z7.subset([0, 1, 3]).mask))
    assert reverse(g).rows == cayley_graph(z7, s_inv).rows


def test_translations_are_automorphisms():
    g, z = cay("dihedral:4", [0, 1, 4])
    arcs = set(g.arcs())
    for perm in g.translations:
        assert {(perm[u], perm[v]) for u, v in arcs} == arcs


def test_translations_validated():
    plain = random_reflexive_digraph(random.Random(4), 18)
    cyclic = tuple(tuple((a + u) % 18 for u in range(18)) for a in range(18))
    with pytest.raises(GraphError, match="automorphism"):
        Digraph(plain.rows, translations=cyclic)
    g, z = cay("dihedral:4", [0, 1, 4])
    rows = g.rows
    with pytest.raises(GraphError, match="permutations"):
        Digraph(rows, translations=z.table[:7])  # one short
    swapped = list(map(list, z.table))
    swapped[3][0], swapped[3][1] = swapped[3][1], swapped[3][0]
    with pytest.raises(GraphError, match="permutations"):
        Digraph(rows, translations=swapped)  # p_3[0] != 3
    doubled = list(map(list, z.table))
    doubled[2][5] = doubled[2][6]
    with pytest.raises(GraphError, match="permutations"):
        Digraph(rows, translations=doubled)  # not a permutation
    with pytest.raises(GraphError, match="permutations"):
        Digraph(rows, translations=list(range(8)))  # not a sequence of sequences
    # left translations of D4 are automorphisms, given as lists or tuples
    assert Digraph(rows, translations=[list(p) for p in z.table]) == Digraph(
        rows, translations=z.table)


def test_profile_cache_keeps_metadata_apart():
    # transitivity comes only from checked translations, so no graph can
    # claim it falsely: omega of this digraph is 0, and counting atoms
    # through vertex 0 alone would give 1
    from isoperim import omega
    from isoperim.iso import _atoms_impl

    plain = random_reflexive_digraph(random.Random(4), 18)
    assert not plain.transitive and plain == Digraph(plain.rows)
    assert hash(plain) == hash(Digraph(plain.rows))
    with pytest.raises(TypeError):
        Digraph(plain.rows, transitive=True)
    assert omega(plain, 1) == 0
    # a Cayley graph above 16 vertices is scanned pinned and expanded by
    # its translations; the equal-rowed plain graph gets its own cache
    # entry, scanned unpinned, with the same answer
    g18, z18 = cay("cyclic:18", [0, 1, 5])
    bare = Digraph(g18.rows)
    assert g18.transitive and not bare.transitive
    assert g18 != bare and hash(g18) != hash(bare)
    _atoms_impl.cache_clear()
    assert omega(g18, 1) == omega(bare, 1)
    assert _atoms_impl.cache_info().currsize == 2
    # k = 1 and 2 share one scan, so the pair adds no entry
    assert omega(g18, 2) == omega(bare, 2)
    assert _atoms_impl.cache_info().currsize == 2
    # graphs with the same rows and translations are equal, however built
    g, z6 = cay("cyclic:6", [0, 1])
    assert g == Digraph(g.rows, translations=z6.table) == cayley_graph(z6, z6.subset([0, 1]))
    assert hash(g) == hash(Digraph(g.rows, translations=z6.table))
    assert g != Digraph(g.rows) and hash(g) != hash(Digraph(g.rows))
    assert reverse(reverse(g)) == g


# ---------------------------------------------------------------------------
# boundary calculus
# ---------------------------------------------------------------------------


def test_boundary_examples():
    g, _ = cay("cyclic:7", [0, 1])
    assert boundary(g, ElementSet(7, [0, 1, 2])).indices() == (3,)
    assert not boundary(g, ElementSet.full(7))
    g6, _ = cay("cyclic:6", [0, 1, 3])
    assert boundary(g6, ElementSet(6, [0, 3])).indices() == (1, 4)


def test_co_complement_examples():
    g, _ = cay("cyclic:7", [0, 1])
    assert co_complement(g, ElementSet(7, [0, 1, 2])).indices() == (4, 5, 6)
    assert not co_complement(g, ElementSet.full(7))
    g2, _ = cay("cyclic:7", [0, 1, 3])
    assert co_complement(g2, ElementSet.singleton(7, 0)).indices() == (2, 4, 5, 6)


def test_image_empty_full():
    g, _ = cay("cyclic:5", [0, 1])
    assert not image(g, ElementSet.empty(5))
    assert image(g, ElementSet.full(5)) == ElementSet.full(5)


def test_separability_examples():
    g4, _ = cay("cyclic:4", [0, 1, 2])
    sep, wit = is_k_separable(g4, 2)
    assert not sep and wit is None
    g7, _ = cay("cyclic:7", [0, 1])
    sep, wit = is_k_separable(g7, 2)
    assert sep and wit.indices() == (0, 1)
    sep, wit = is_k_separable(g7, 1)
    assert sep and len(wit) == 1


def test_separation_duality():
    # if X induces a k-separation then its far side does in the reverse
    # graph (its own far side there contains X), so separability of a
    # graph and of its reverse agree
    rng = random.Random(3)
    for _ in range(25):
        g = random_reflexive_digraph(rng, rng.randint(2, 7))
        rg = reverse(g)
        for k in (1, 2):
            for xm in range(1, 1 << g.n):
                x = ElementSet(g.n, xm)
                w = co_complement(g, x)
                if len(x) >= k and len(w) >= k:
                    back = co_complement(rg, w)
                    assert x.issubset(back)
                    assert len(w) >= k and len(back) >= k
            assert is_k_separable(g, k)[0] == is_k_separable(rg, k)[0]
        # transpose coherence
        for u in range(g.n):
            for v in range(g.n):
                assert g.has_arc(u, v) == rg.has_arc(v, u)


@given(st.integers(0, 2**40), st.integers(1, 7), st.integers(0, 2**7 - 1))
@settings(max_examples=100, deadline=None)
def test_no_arc_into_far_side(seed, n, xm):
    g = random_reflexive_digraph(random.Random(seed), n)
    xm %= 1 << n
    x = ElementSet(n, xm)
    img = o_image(adj_sets(g), set(x))
    far = set(co_complement(g, x))
    assert img.isdisjoint(far)
    assert set(image(g, x)) == img
    assert set(boundary(g, x)) == o_boundary(adj_sets(g), set(x))
    assert far == o_wedge(adj_sets(g), n, set(x))


def test_reflexive_closure():
    g = Digraph([0b10, 0b01])
    assert not g.reflexive
    assert reflexive_closure(g).reflexive
    with pytest.raises(GraphError):
        is_k_separable(g, 1)


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------


def test_payload_roundtrip(tmp_path):
    g, _ = cay("cyclic:5", [0, 1, 2])
    path = tmp_path / "g.json"
    save_graph(g, str(path))
    g2 = load_graph(str(path))
    assert g2.rows == g.rows
    data = json.loads(path.read_text())
    assert data["n"] == 5 and data["reflexive"] is True


def test_payload_validation():
    with pytest.raises(GraphError):
        from_payload({"n": 2, "arcs": [[0, 5]], "reflexive": False})
    with pytest.raises(GraphError):
        from_payload({"n": 2, "arcs": [[0, 0], [0, 1]], "reflexive": True})
    with pytest.raises(GraphError):
        from_payload({"arcs": []})
    # a short, non-integer or long arc, arcs that are no list, a non-integer n
    for arcs in ([[0]], [["a", 1]], 5, [[0, 1, 2]]):
        with pytest.raises(GraphError):
            from_payload({"n": 3, "arcs": arcs, "reflexive": False})
    with pytest.raises(GraphError):
        from_payload({"n": "x", "arcs": [], "reflexive": False})
    # reflexive must be a real bool: the string "false" is truthy
    for flag, arcs in (("false", [[0, 0], [1, 1], [0, 1]]), ("true", [[0, 0], [1, 1]]),
                       (0, [[0, 1]]), (None, [[0, 1]])):
        with pytest.raises(GraphError, match="reflexive true or false"):
            from_payload({"n": 2, "arcs": arcs, "reflexive": flag})
    g = from_payload({"n": 1, "arcs": [[0, 0]], "reflexive": True})
    assert g.reflexive


def test_random_digraph_deterministic():
    a = random_reflexive_digraph(random.Random(42), 6)
    b = random_reflexive_digraph(random.Random(42), 6)
    assert a.rows == b.rows and a.reflexive
