"""The batched pair kernel of the set-pair checkers against slow oracles.

``GroupScan``'s translation tables give products, subgroups and coset
parts of many (A, B) pairs at once; ``verify`` tallies whole pair vectors
and replays only the failures.  Each layer is checked here against the
plain mask functions and the scalar pair loops in ``oracles``.
"""

import numpy as np
import pytest

from isoperim import verify
from isoperim.catalog import GroupScan, build, entries
from isoperim.groups import (
    closure_mask,
    elem_mul_mask,
    inverse_mask,
    mask_mul_elem,
    product_mask,
)

from oracles import (
    o_classical,
    o_closure,
    o_coset_deficiency,
    o_olson_pairs,
    o_orderbase,
    o_product,
    o_small_sets_pairs,
)

# one non-abelian group each of order 12 and 16, and Z9, whose masks end
# in a partial nibble of GroupScan.nibbles
_SAMPLED = ("dihedral:6", "product:cyclic:2,dihedral:4", "cyclic:9")


def _ids(mask):
    return {v for v in range(32) if mask >> v & 1}


def _all_pairs(n):
    masks = np.arange(1, 1 << n, dtype=np.uint32)
    return np.repeat(masks, len(masks)), np.tile(masks, len(masks))


def _seeded_pairs(n, count, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.integers(1, 1 << n, size=(2, count), dtype=np.uint32)
    return a, b


def _pair_cases():
    for e in entries(6):
        g = build(e.spec)
        yield g, _all_pairs(g.order)
    for seed, spec in enumerate(_SAMPLED):
        g = build(spec)
        yield g, _seeded_pairs(g.order, 2000, seed)


def _scalar_power_failure(g, bm, km):
    # the |B^j| loop of the Olson checker, one B at a time
    cur, j = bm, 1
    while True:
        if 2 * cur.bit_count() < min(2 * km.bit_count(), (j + 1) * bm.bit_count()):
            return j
        nxt = product_mask(g, cur, bm)
        if nxt.bit_count() == cur.bit_count():
            return 0
        cur, j = nxt, j + 1


def _scalar_deficient_parts(g, sm, am, km):
    w, rest = 0, am
    while rest:
        x = (rest & -rest).bit_length() - 1
        coset = elem_mul_mask(g, x, km)
        part, rest = rest & coset, rest & ~coset
        w += product_mask(g, part, sm).bit_count() < km.bit_count()
    return w


def test_pair_primitives_match_plain_functions():
    for g, (a, b) in _pair_cases():
        scan = GroupScan(g)
        n = g.order
        ab = scan.products(a, b).tolist()
        for am, bm, got in zip(a.tolist(), b.tolist(), ab):
            assert got == product_mask(g, am, bm), (g.name, am, bm)
            assert _ids(got) == o_product(g.table, _ids(am), _ids(bm))
        # A*x for every mask A and every x, against mask_mul_elem
        for am in range(1 << n) if n <= 6 else a.tolist():
            assert scan.right[:, am].tolist() == [mask_mul_elem(g, am, x) for x in range(n)]
            assert int(scan.inverses[am]) == inverse_mask(g, am)
        # <BB^-1>, the |B^j| failures and W, once per distinct B
        ub = np.unique(b)
        kb = scan.hulls[scan.products(ub, scan.inverses[ub])]
        fails = verify._power_failures(scan, ub, kb).tolist()
        for bm, km, fail in zip(ub.tolist(), kb.tolist(), fails):
            assert km == closure_mask(g, product_mask(g, bm, inverse_mask(g, bm)))
            assert _ids(km) == o_closure(g.table, o_product(
                g.table, _ids(bm), {g.inv[x] for x in _ids(bm)}))
            assert fail == _scalar_power_failure(g, bm, km), (g.name, bm)
        s = b | 1
        k = scan.hulls[s]
        w = verify._deficient_parts(scan, s, a, k).tolist()
        for sm, am, km, got in zip(s.tolist(), a.tolist(), k.tolist(), w):
            assert km == closure_mask(g, sm)
            assert got == _scalar_deficient_parts(g, sm, am, km), (g.name, sm, am)


# the scalar oracle of each vector checker; olson and small_sets also scan
# every S first, and only their pair halves are swapped for the oracle
_ORACLES = {
    "olson": o_olson_pairs,
    "classical": o_classical,
    "coset_deficiency": o_coset_deficiency,
    "small_sets": o_small_sets_pairs,
    "orderbase": o_orderbase,
}


@pytest.mark.parametrize("theorem", sorted(_ORACLES))
def test_pair_checkers_match_scalar_oracles(theorem, monkeypatch):
    # every group to order 7 (exhaustive pairs), and D5 and Z9 (sampled
    # pairs); orderbase draws no pairs, and its oracle runs to order 12
    def run(spec, oracle):
        if not oracle:
            return verify._run_group((spec, (theorem,), 0))[theorem]
        with monkeypatch.context() as m:
            m.setitem(verify._THEOREMS, theorem,
                      verify._THEOREMS[theorem]._replace(pairs=_ORACLES[theorem]))
            return verify._run_group((spec, (theorem,), 0))[theorem]

    total = 0
    specs = [e.spec for e in entries(7)] + ["dihedral:5", "cyclic:9"]
    if theorem == "orderbase":
        specs = [e.spec for e in entries(12)]
    for spec in specs:
        f, s = run(spec, False), run(spec, True)
        assert (f.tested, f.passing, f.skipped, f.details, f.ces) == (
            s.tested, s.passing, s.skipped, s.details, s.ces), (theorem, spec)
        total += f.tested
    assert total > 0


def test_pair_kernel_sees_corrupt_table(monkeypatch):
    # drop element 1 from the left table's 0*{0, 1}: the product {0}{0, 1}
    # shrinks to {0}, below |A| + |B| - 1, and classical must name that pair
    build_left = GroupScan.left.func

    def corrupt(self):
        table = build_left(self)
        table[0, 0b11] &= ~np.uint32(0b10)
        return table

    task = ("cyclic:7", ("classical",), 0)
    clean = verify._run_group(task)["classical"]
    assert not clean.ces and clean.tested > 0
    monkeypatch.setattr(GroupScan, "left", property(corrupt))
    tally = verify._run_group(task)["classical"]
    assert tally.ces[0] == {"group": "Z7", "set": {"A": [0], "B": [0, 1]},
                            "observed": {"AB": 1}, "what": "lower bound"}
    assert all(set(ce["set"]) == {"A", "B"} for ce in tally.ces)
    assert tally.passing < tally.tested


def test_replayed_failures_keep_pair_order_and_cap():
    # two checks per pair; failures come back in (pair, check) order and
    # only the first five are kept, while every pass is counted
    t = verify._Tally("G")
    ok_first = np.array([True, False, True, False, True, True, False, True])
    ok_second = np.array([False, True, True, False, True, False, True, False])
    applies_second = np.array([True, True, True, True, False, True, True, True])
    verify._tally_pairs(t, [
        (np.ones(8, dtype=bool), ok_first, lambda i: {"set": {"A": 1 << i}, "what": "first"}),
        (applies_second, ok_second, lambda i: {"set": {"A": 1 << i}, "what": "second"}),
    ])
    assert (t.tested, t.passing, t.skipped) == (15, 8, 0)
    assert [(ce["set"]["A"], ce["what"]) for ce in t.ces] == [
        ([0], "second"), ([1], "first"), ([3], "first"), ([3], "second"),
        ([5], "second"),
    ]
