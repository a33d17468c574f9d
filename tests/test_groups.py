import math

import pytest
from hypothesis import given, settings, strategies as st

from isoperim import (
    ElementSet,
    GroupError,
    coset_decomposition,
    detect_progression,
    make_group,
    min_subgroup_order,
    minkowski_product,
    quotient_group,
    seminormality,
    stabilizers,
    subgroup_generated,
)
from isoperim.groups import (
    elem_mul_mask,
    is_subgroup_mask,
    mask_mul_elem,
    product_mask,
    progression_ratios,
    subgroup_as_group,
)

from oracles import o_closure, o_product, o_seminormality

# Latin square with identity 0 that is not associative (order-5 loop)
NONASSOC = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def grp(spec):
    return make_group(spec)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_cyclic_table():
    z6 = grp("cyclic:6")
    assert z6.order == 6
    assert z6.table[2][5] == 1


def test_symmetric_3():
    s3 = grp("symmetric:3")
    assert s3.order == 6
    assert not s3.abelian


def test_explicit_z2():
    g = make_group([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.mul(1, 1) == 0


def test_identity_normalized():
    # Z2 written with the identity at index 1
    g = make_group([[1, 0], [0, 1]])
    assert g.mul(0, 0) == 0
    assert g.mul(1, 1) == 0


def test_not_latin_rejected():
    with pytest.raises(GroupError, match="Latin"):
        make_group([[0, 0], [1, 1]])


def test_missing_identity_rejected():
    # x*y = 2x+y mod 5 is a Latin square without a two-sided unit
    tbl = [[(2 * x + y) % 5 for y in range(5)] for x in range(5)]
    with pytest.raises(GroupError, match="identity"):
        make_group(tbl)


def test_nonassociative_rejected():
    with pytest.raises(GroupError, match="associative"):
        make_group(NONASSOC)


def test_product_and_quaternion():
    q8 = grp("quaternion:8")
    assert q8.order == 8 and not q8.abelian
    # i^2 = j^2 = k^2 = -1
    assert q8.mul(2, 2) == q8.mul(4, 4) == q8.mul(6, 6) == 1
    g = grp("product:cyclic:2,cyclic:4")
    assert g.order == 8 and g.abelian


def test_dihedral():
    d4 = grp("dihedral:4")
    assert d4.order == 8 and not d4.abelian
    # reflections square to the identity
    assert all(d4.mul(x, x) == 0 for x in range(4, 8))


def test_bad_specs():
    for bad in ("cyclic:", "foo:3", "product:cyclic:2", "quaternion:4",
                "cyclic:3x", "symmetric:9"):
        with pytest.raises(GroupError):
            make_group(bad)


def test_table_spec_file(tmp_path):
    path = tmp_path / "z3.json"
    path.write_text('{"order": 3, "table": [[0,1,2],[1,2,0],[2,0,1]]}')
    g = make_group(f"table:{path}")
    assert g.order == 3


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def test_minkowski_examples():
    z5 = grp("cyclic:5")
    a = z5.subset([0, 1])
    assert minkowski_product(z5, a, a).indices() == (0, 1, 2)
    assert not minkowski_product(z5, ElementSet.empty(5), a)
    z6 = grp("cyclic:6")
    got = minkowski_product(z6, z6.subset([0, 3]), z6.subset([0, 1]))
    assert got.indices() == (0, 1, 3, 4)


def test_minkowski_universe_mismatch():
    z5, z6 = grp("cyclic:5"), grp("cyclic:6")
    with pytest.raises(GroupError, match="universe"):
        minkowski_product(z5, z6.subset([0]), z6.subset([0]))


def test_subgroup_generated_examples():
    z6 = grp("cyclic:6")
    assert subgroup_generated(z6, z6.subset([2, 3])) == z6.full_set()
    assert subgroup_generated(z6, z6.subset([2])).indices() == (0, 2, 4)
    assert subgroup_generated(z6, ElementSet.empty(6)).indices() == (0,)


def test_stabilizer_examples():
    z6 = grp("cyclic:6")
    left, right = stabilizers(z6, z6.subset([0, 2, 4]))
    assert left.indices() == right.indices() == (0, 2, 4)
    left, right = stabilizers(z6, z6.subset([0, 1]))
    assert left.indices() == right.indices() == (0,)
    s3 = grp("symmetric:3")
    t = next(x for x in range(1, 6) if s3.mul(x, x) == 0)
    sub = s3.subset([0, t])
    left, right = stabilizers(s3, sub)
    assert left == sub and right == sub
    with pytest.raises(GroupError, match="degenerate"):
        stabilizers(z6, ElementSet.empty(6))


def test_coset_decomposition_examples():
    z6 = grp("cyclic:6")
    h = z6.subset([0, 3])
    dec = coset_decomposition(z6, z6.subset([0, 1, 3]), h, "left")
    assert [p.indices() for p in dec.parts] == [(0, 3), (1,)]
    dec = coset_decomposition(z6, h, h, "left")
    assert [p.indices() for p in dec.parts] == [(0, 3)]
    dec = coset_decomposition(z6, z6.subset([0, 1, 2]), h, "left")
    assert all(len(p) == 1 for p in dec.parts)
    with pytest.raises(GroupError, match="subgroup"):
        coset_decomposition(z6, h, z6.subset([0, 1]), "left")


def test_quotient_examples():
    z6 = grp("cyclic:6")
    q, proj = quotient_group(z6, z6.subset([0, 3]))
    assert q.order == 3
    assert all(
        proj[z6.mul(x, y)] == q.mul(proj[x], proj[y])
        for x in range(6)
        for y in range(6)
    )
    q, _ = quotient_group(z6, z6.subset([0]))
    assert q.order == 6
    q, _ = quotient_group(z6, z6.full_set())
    assert q.order == 1
    s3 = grp("symmetric:3")
    t = next(x for x in range(1, 6) if s3.mul(x, x) == 0)
    with pytest.raises(GroupError, match="not normal"):
        quotient_group(s3, s3.subset([0, t]))


def test_min_subgroup_order():
    assert min_subgroup_order(grp("cyclic:6")) == 2
    assert min_subgroup_order(grp("cyclic:7")) == 7
    assert min_subgroup_order(grp("cyclic:1")) == math.inf
    assert min_subgroup_order(grp("cyclic:15")) == 3


def test_detect_progression_examples():
    z7 = grp("cyclic:7")
    assert detect_progression(z7, z7.subset([0, 1, 2])) == 1
    assert detect_progression(z7, z7.subset([2, 4, 6])) == 2
    assert detect_progression(z7, z7.subset([0, 1, 3])) is None
    # translated variant: {1,2,4} is 1+{0,1,3}... not a progression either
    assert detect_progression(z7, z7.subset([1, 2, 3]), translated=True) == 1


def test_progression_ratios_translated():
    z7 = grp("cyclic:7")
    # {3,4}: literal needs {jr,(j+1)r}; translated must also find it
    lit = progression_ratios(z7, z7.subset([3, 4]))
    assert 1 in lit
    tra = progression_ratios(z7, z7.subset([3, 4]), translated=True)
    assert set(lit) <= set(tra)


def test_seminormality_abelian_and_classes():
    z6 = grp("cyclic:6")
    assert seminormality(z6, z6.subset([0, 1, 3])).kind == "normal"
    s3 = grp("symmetric:3")
    rot = [x for x in range(6) if s3.order_of(x) == 3]
    assert seminormality(s3, s3.subset([0] + rot)).kind == "normal"


def test_seminormality_translate_of_normal():
    # {a} = {1}a is semi-normal for every a, with witness a itself
    s3 = grp("symmetric:3")
    t = next(x for x in range(1, 6) if s3.mul(x, x) == 0)
    res = seminormality(s3, s3.subset([t]))
    assert tuple(res) == o_seminormality(s3.table, {t}) == ("semi-normal", t)


def test_seminormality_neither():
    s3 = grp("symmetric:3")
    t = next(x for x in range(1, 6) if s3.mul(x, x) == 0)
    res = seminormality(s3, s3.subset([0, t]))
    assert tuple(res) == o_seminormality(s3.table, {0, t}) == ("neither", None)


def test_seminormality_d5_coset():
    # rotations + one reflection: a translate of a normal set, not normal
    d5 = grp("dihedral:5")
    s = d5.subset([0, 1, 2, 3, 4, 5])
    res = seminormality(d5, s)
    assert res.kind == "semi-normal"
    assert tuple(res) == o_seminormality(d5.table, set(s))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

_groups = st.sampled_from(
    ["cyclic:5", "cyclic:6", "cyclic:8", "symmetric:3", "dihedral:4",
     "quaternion:8", "product:cyclic:2,cyclic:2"]
)


@given(_groups, st.integers(min_value=1))
@settings(max_examples=60, deadline=None)
def test_closure_matches_oracle_and_idempotent(spec, raw):
    g = make_group(spec)
    sm = raw % (1 << g.order)
    s = ElementSet(g.order, sm)
    got = subgroup_generated(g, s)
    assert set(got) == o_closure(g.table, set(s))
    assert subgroup_generated(g, got) == got
    assert is_subgroup_mask(g, got.mask)


@given(_groups, st.integers(min_value=1))
@settings(max_examples=60, deadline=None)
def test_stabilizers_are_subgroups_and_fix(spec, raw):
    g = make_group(spec)
    sm = raw % (1 << g.order) or 1
    x = ElementSet(g.order, sm)
    left, right = stabilizers(g, x)
    assert is_subgroup_mask(g, left.mask)
    assert is_subgroup_mask(g, right.mask)
    assert product_mask(g, x.mask, right.mask) == x.mask
    assert product_mask(g, left.mask, x.mask) == x.mask


@given(_groups, st.integers(min_value=0), st.integers(min_value=0))
@settings(max_examples=80, deadline=None)
def test_product_matches_oracle(spec, ra, rb):
    g = make_group(spec)
    am = ra % (1 << g.order)
    bm = rb % (1 << g.order)
    got = product_mask(g, am, bm)
    want = o_product(g.table, set(ElementSet(g.order, am)), set(ElementSet(g.order, bm)))
    assert set(ElementSet(g.order, got)) == want


@given(st.sampled_from(["cyclic:4", "cyclic:6", "cyclic:8", "symmetric:3",
                        "dihedral:4", "quaternion:8"]),
       st.integers(min_value=1), st.integers(min_value=1))
@settings(max_examples=80, deadline=None)
def test_large_sets_cover_group(spec, ra, rb):
    # |A| + |B| > |G| forces AB = G
    g = make_group(spec)
    n = g.order
    am = ra % (1 << n) or 1
    bm = rb % (1 << n) or 1
    if am.bit_count() + bm.bit_count() > n:
        assert product_mask(g, am, bm) == (1 << n) - 1


def test_large_sets_cover_group_exhaustive_small():
    for spec in ("cyclic:4", "product:cyclic:2,cyclic:2", "cyclic:5"):
        g = make_group(spec)
        n = g.order
        for am in range(1, 1 << n):
            for bm in range(1, 1 << n):
                if am.bit_count() + bm.bit_count() > n:
                    assert product_mask(g, am, bm) == (1 << n) - 1


def test_coset_parts_partition_property():
    g = make_group("dihedral:4")
    h = subgroup_generated(g, g.subset([1]))
    for am in range(1, 1 << g.order, 37):
        a = ElementSet(g.order, am)
        for side in ("left", "right"):
            dec = coset_decomposition(g, a, h, side)
            union = 0
            total = 0
            for p in dec.parts:
                assert p.mask & union == 0
                union |= p.mask
                total += len(p)
            assert union == am and total == len(a)


def test_subgroup_as_group_embeds():
    g = make_group("dihedral:4")
    h = subgroup_generated(g, g.subset([1]))
    sub, elems = subgroup_as_group(g, h)
    assert sub.order == len(h)
    for i in range(sub.order):
        for j in range(sub.order):
            assert elems[sub.mul(i, j)] == g.mul(elems[i], elems[j])


def test_elem_mask_helpers():
    g = make_group("symmetric:3")
    for x in range(6):
        assert elem_mul_mask(g, x, 0b101) == (
            (1 << g.mul(x, 0)) | (1 << g.mul(x, 2))
        )
        assert mask_mul_elem(g, 0b101, x) == (
            (1 << g.mul(0, x)) | (1 << g.mul(2, x))
        )
