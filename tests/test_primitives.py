"""Each group primitive against plain sets.

Subgroup closure, Cayley rows, powers and the sweep's image tables each
have one implementation, which every checker and graph constructor
reads; here each is compared with the plain-set definition in
``oracles``.
"""

import random

import numpy as np
import pytest

from isoperim.catalog import GroupScan, build, entries, frobenius21
from isoperim.digraph import cayley_graph
from isoperim.groups import closure_mask
from isoperim.sets import ElementSet

from oracles import o_closure


def _ids(mask):
    return {v for v in range(mask.bit_length()) if mask >> v & 1}


def _mask(ids):
    return sum(1 << v for v in ids)


def test_closure_matches_plain_sets():
    # every mask, with or without 1 and the empty one, to order 8; seeded
    # masks in every order-16 group and in F21
    small = [build(e.spec) for e in entries(8)]
    cases = [(g, range(1 << g.order)) for g in small]
    sampled = [build(e.spec) for e in entries(16) if build(e.spec).order == 16]
    for seed, g in enumerate(sampled + [frobenius21()]):
        rng = random.Random(seed)
        cases.append((g, [rng.randrange(1 << g.order) for _ in range(2000)]))
    checked = 0
    for g, masks in cases:
        scan = GroupScan(g)
        # the table of every <M> exists to order 16 only
        hulls = scan.hulls if g.order <= 16 else None
        for sm in masks:
            want = _mask(o_closure(g.table, _ids(sm)))
            assert closure_mask(g, sm) == want, (g.name, sm)
            if sm & 1:
                assert scan.hull(sm) == want, (g.name, sm)
            if hulls is not None:
                assert int(hulls[sm]) == want, (g.name, sm)
            checked += 1
    assert checked > 12_000
    with pytest.raises(ValueError):
        GroupScan(frobenius21()).hulls


def test_cayley_rows_are_left_translates():
    # rows[x] = x*S, not S*x: the two differ in a non-abelian group
    for spec in ("dihedral:4", "symmetric:3"):
        g = build(spec)
        assert not g.abelian
        scan = GroupScan(g)
        n = g.order
        for sm in scan.subsets_with_identity():
            want = [_mask({g.table[x][s] for s in _ids(sm)}) for x in range(n)]
            assert scan.rows(sm) == want, (g.name, sm)
            assert list(cayley_graph(g, ElementSet(n, sm)).rows) == want, (g.name, sm)


def test_image_table_matches_plain_images():
    # T[s, y] = X_y*s, or X_y*s^-1 for the reverse table, with
    # X_y = {1} u {x : bit x-1 of y}
    for e in entries(8):
        g = build(e.spec)
        scan = GroupScan(g)
        n = g.order
        for rev in (False, True):
            table = scan.image_table(rev)
            assert table.shape == (n, 1 << (n - 1))
            for s in range(n):
                t = g.inv[s] if rev else s
                for y in range(1 << (n - 1)):
                    xs = {0} | {x for x in range(1, n) if y >> (x - 1) & 1}
                    want = _mask({g.table[x][t] for x in xs})
                    assert int(table[s, y]) == want, (g.name, rev, s, y)


def test_powers_match_plain_products():
    # |B^j| and growing for every B of D4 and Z2xZ4, including B without 1
    for spec in ("dihedral:4", "product:cyclic:2,cyclic:4"):
        g = build(spec)
        scan = GroupScan(g)
        b = np.arange(1, 1 << g.order, dtype=np.uint32)
        plain = []
        for bm in b.tolist():
            sizes, cur = [], _ids(bm)
            while not sizes or len(cur) != sizes[-1]:
                sizes.append(len(cur))
                cur = {g.table[x][y] for x in cur for y in _ids(bm)}
            plain.append(sizes)
        steps = list(scan.powers(b))
        assert [j for j, _, _ in steps] == list(range(1, max(map(len, plain)) + 1))
        for j, size, growing in steps:
            for i, sizes in enumerate(plain):
                assert bool(growing[i]) == (j <= len(sizes)), (g.name, j, i)
                if j <= len(sizes):
                    assert int(size[i]) == sizes[j - 1], (g.name, j, i)
