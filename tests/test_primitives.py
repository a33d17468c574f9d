"""Each group primitive against plain sets.

Subgroup closure, Cayley rows, powers and the sweep's image tables each
have one implementation, which every checker and graph constructor
reads; here each is compared with the plain-set definition in
``oracles``, as are semi-normality and normalisers, which read
translates only.  The count of generating sets that ``hulls`` gives is
checked against P. Hall's Moebius sum over a plain-set subgroup lattice.
The seeded draws of the sampled checkers are compared with the
``randrange`` loop.
"""

import random

import numpy as np
import pytest

from isoperim.catalog import GroupScan, build, entries, frobenius21
from isoperim.digraph import cayley_graph
from isoperim.groups import closure_mask, normality_witness, seminormality
from isoperim.sets import ElementSet, randrange_draws

from oracles import o_closure, o_seminormality


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


def _subgroup_lattice(table):
    """Every subgroup, as frozensets of plain ids: the cyclic subgroups
    closed under joins until nothing new appears."""
    subs = {frozenset(o_closure(table, {x})) for x in range(len(table))}
    new = set(subs)
    while new:
        joins = {frozenset(o_closure(table, h | k)) for h in new for k in subs}
        new = joins - subs
        subs |= new
    return subs


def test_hulls_count_generating_sets_by_moebius():
    # P. Hall: the S containing 1 that generate G number
    # sum over subgroups H of mu(H, G) 2^(|H| - 1), with the Moebius
    # function of the subgroup lattice built from plain-set closures
    total = 0
    for e in entries(16):
        g = build(e.spec)
        top = frozenset(range(g.order))
        mu = {}
        for h in sorted(_subgroup_lattice(g.table), key=len, reverse=True):
            mu[h] = 1 if h == top else -sum(m for k, m in mu.items() if h < k)
        want = sum(m << len(h) - 1 for h, m in mu.items())
        hulls = GroupScan(g).hulls
        assert np.count_nonzero(hulls[1::2] == (1 << g.order) - 1) == want, e.name
        total += want
    assert total == 302_783


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


def test_seminormality_matches_the_definition():
    # every S of every catalog group to order 10, the library call and the
    # table read alike, against the conjugate form of the definition
    semi_d5 = 0
    for e in entries(10):
        g = build(e.spec)
        scan = GroupScan(g)
        n = g.order
        for sm in range(1 << n):
            kind, a = o_seminormality(g.table, _ids(sm))
            want = (kind, a if kind == "semi-normal" else None)
            assert seminormality(g, ElementSet(n, sm)) == want, (g.name, sm)
            assert scan.seminormal_witness(sm) == a, (g.name, sm)
            semi_d5 += g.name == "D5" and kind == "semi-normal" and sm & 1
    assert semi_d5 == 54  # the semi-normal S of D5 that contain 1


def test_normalisers_match_plain_sets():
    # N(H) = {x : x H x^-1 = H} for every subgroup H (the distinct values
    # of hulls) of every catalog group to order 16
    for e in entries(16):
        g = build(e.spec)
        scan = GroupScan(g)
        n = g.order
        inv = [row.index(0) for row in g.table]
        for hm in np.unique(scan.hulls).tolist():
            h = _ids(hm)
            norm = [x for x in range(n)
                    if {g.table[g.table[x][y]][inv[x]] for y in h} == h]
            outside = next((x for x in range(n) if x not in norm), None)
            assert normality_witness(g, hm) == outside, (g.name, hm)
            count = np.count_nonzero(scan.left[:, hm] == scan.right[:, hm])
            assert count == len(norm), (g.name, hm)


def _loop(rng, start, stop, count):
    return [rng.randrange(start, stop) for _ in range(count)]


@pytest.mark.parametrize("n", range(9, 17))
def test_randrange_draws_match_the_loop(n):
    # the range of verify._pairs at every sampled order
    full = (1 << n) - 1
    for seed in range(3):
        want = _loop(random.Random(seed), 1, full + 1, 20_000)
        got = randrange_draws(random.Random(seed), 1, full + 1, 20_000)
        assert got.tolist() == want, (n, seed)


class _Stubborn(random.Random):
    """A generator whose first 2,000 32-bit words are all ones, which every
    width rejects; ``getrandbits`` reads one word stream however it is cut."""

    def seed(self, a=None, version=2):
        super().seed(a, version)
        self.ones = 2_000

    def getrandbits(self, k):
        words = []
        for _ in range(-(-k // 32)):
            self.ones -= 1
            words.append(0xFFFFFFFF if self.ones >= 0 else super().getrandbits(32))
        value = sum(w << 32 * i for i, w in enumerate(words))
        return value >> 32 - k if k < 32 else value


@pytest.mark.parametrize("stubborn", [False, True])
def test_randrange_draws_edges(stubborn):
    # widths 1 and 2^32 - 1, odd counts and none at all; with ``stubborn``
    # the first batch of words comes up short, so the draw loops
    make = _Stubborn if stubborn else random.Random
    for start, stop in ((5, 6), (0, 2**32 - 1)):
        for count in (0, 1, 7, 301):
            want = _loop(make(count), start, stop, count)
            assert randrange_draws(make(count), start, stop, count).tolist() == want, (stop, count)
    for start, stop in ((0, 2**32 + 1), (0, 2**32), (4, 4), (5, 3)):
        with pytest.raises(ValueError):
            randrange_draws(random.Random(0), start, stop, 1)
