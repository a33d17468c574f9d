import copy
import json
from pathlib import Path

import numpy as np
import pytest

from isoperim import iso, verify
from isoperim.catalog import GroupScan, build, entries, frobenius21, load_manifest
from isoperim.groups import is_subgroup_mask, normality_witness
from isoperim.sets import ElementSet

from oracles import assert_scan_matches_oracle, o_cayley_adj, o_kappa, o_literal_orderbase_zone


def strip_elapsed(payload):
    out = copy.deepcopy(payload)
    for rec in out:
        rec.pop("elapsed", None)
    return out


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def test_manifest_covers_all_abelian_classes():
    # one entry per abelian isomorphism class of every order <= 16
    expected_counts = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 1, 7: 1, 8: 3,
                       9: 2, 10: 1, 11: 1, 12: 2, 13: 1, 14: 1, 15: 1, 16: 5}
    seen: dict[int, int] = {}
    for e in load_manifest():
        g = build(e.spec)
        if g.abelian:
            seen[g.order] = seen.get(g.order, 0) + 1
    assert seen == expected_counts


def test_catalog_entries_ordering_and_orders():
    es = entries(8)
    orders = [build(e.spec).order for e in es]
    assert orders == sorted(orders)
    assert {e.name for e in entries(8)} >= {"Z8", "D4", "Q8", "Z2xZ2xZ2"}


def test_frobenius21_structure():
    g = frobenius21()
    assert g.order == 21 and not g.abelian
    # it has a non-normal subgroup of order 3
    from isoperim.groups import closure_mask

    hm = next(
        closure_mask(g, 1 << x)
        for x in range(1, 21)
        if g.order_of(x) == 3
    )
    assert hm.bit_count() == 3
    assert normality_witness(g, hm) is not None


def test_groupscan_helpers():
    g = build("cyclic:6")
    scan = GroupScan(g)
    assert scan.generates(0b000011)  # {0,1}
    assert not scan.generates(0b000101)  # {0,2}
    assert scan.hull(0b000101) == 0b010101
    # {0,1}^j = {0..j}, so S^5 = G is the first full power
    sizes = [int(size[0]) for _, size, _ in scan.powers(np.array([0b000011], dtype=np.uint32))]
    assert sizes == [2, 3, 4, 5, 6]
    rows = scan.rows(0b000011)
    assert rows[2] == 0b001100  # 2*{0,1} = {2,3}


def _sweep_matches_scan(scan, subsets, ks):
    """Compare GroupScan.sweep with GroupScan.scan on the given S, in both
    directions and at every level the checkers use."""
    subsets = set(subsets)
    for rev in (False, True):
        for level in ("none", "alpha", "atoms"):
            order = []
            for smask, res in scan.sweep(ks, level, rev=rev):
                order.append(smask)
                if smask in subsets:
                    assert res == scan.scan(smask, ks, rev=rev, collect=level), (
                        scan.group.name, smask, rev, level)
            assert order == list(scan.subsets_with_identity())


def _sweep_matches_oracle(scan, ks):
    """Compare every S of GroupScan.sweep with o_kappa through vertex 0 on
    Cay(G, S) and on its reverse, built from plain sets."""
    table = scan.group.table
    for rev in (False, True):
        oracles = {}
        for level in ("none", "alpha", "atoms"):
            for smask, res in scan.sweep(ks, level, rev=rev):
                if smask not in oracles:
                    s = {x for x in range(scan.n) if smask >> x & 1}
                    adj = o_cayley_adj(table, s, rev)
                    oracles[smask] = {k: o_kappa(adj, scan.n, k) for k in ks}
                for k in ks:
                    assert_scan_matches_oracle(res[k], oracles[smask][k], level, through=0)


@pytest.mark.parametrize("block_bits", [16, 9])
def test_sweep_equals_scan_to_order_8(monkeypatch, block_bits):
    # every S, generating or not, separable or not, in every group to order
    # 8; with 9 block bits each order-8 group sweeps 32 blocks of 4 rows
    monkeypatch.setattr(iso, "_CHUNK_BITS", block_bits)
    seen_nongen = seen_nonsep = 0
    for e in entries(8):
        g = build(e.spec)
        scan = GroupScan(g)
        ks = (1, 2) if g.order >= 3 else (1,)
        _sweep_matches_scan(scan, scan.subsets_with_identity(), ks)
        if g.order <= 7:
            _sweep_matches_oracle(scan, ks)
        for smask, res in scan.sweep(ks, "none"):
            seen_nongen += not scan.generates(smask)
            seen_nonsep += not res[ks[-1]].separable
    assert seen_nongen > 0 and seen_nonsep > 0


@pytest.mark.parametrize(
    "spec", ["cyclic:16", "product:cyclic:2,product:cyclic:2,product:cyclic:2,cyclic:2"])
def test_sweep_equals_scan_sampled_order_16(spec):
    # order 16 splits each sweep into many blocks
    import random

    g = build(spec)
    assert g.order == 16
    scan = GroupScan(g)
    sample = random.Random(16).sample(list(scan.subsets_with_identity()), 200)
    _sweep_matches_scan(scan, sample, (1, 2))


def test_generates_matches_hull():
    import random

    for e in entries(8):
        scan = GroupScan(build(e.spec))
        full = (1 << scan.n) - 1
        for smask in scan.subsets_with_identity():
            assert scan.generates(smask) == (scan.hull(smask) == full)
    for spec in ("cyclic:16", "product:cyclic:2,product:cyclic:2,product:cyclic:2,cyclic:2",
                 "dihedral:8", "cyclic:12"):
        scan = GroupScan(build(spec))
        full = (1 << scan.n) - 1
        subsets = list(scan.subsets_with_identity())
        for smask in random.Random(1).sample(subsets, 300) + subsets[:64]:
            assert scan.generates(smask) == (scan.hull(smask) == full)


def test_sweep_rejects_unknown_level():
    with pytest.raises(ValueError):
        next(GroupScan(build("cyclic:4")).sweep((1,), "all"))


def test_scan_and_sweep_reject_undefined_k():
    scan = GroupScan(build("cyclic:5"))
    for ks in [(0,), (4,), (1, 4)]:
        with pytest.raises(ValueError, match="2k - 1"):
            scan.scan(0b11, ks)
        with pytest.raises(ValueError, match="2k - 1"):
            next(scan.sweep(ks, "none"))


def test_mirror_check_sees_corrupt_forward_table(monkeypatch):
    # the reverse sweep builds its own image table: breaking only the
    # forward one must surface as a mirror-symmetry counterexample, alone
    # and when "all" shares the pass and sweeps the reverse at "atoms"
    original = GroupScan.image_table

    def corrupt(self, rev=False):
        t = original(self, rev)
        if not rev:
            t[1] = (1 << self.n) - 1  # X*1 claimed to be all of G
        return t

    for theorems in (("abelian_two_atoms",), verify.THEOREM_IDS):
        task = ("cyclic:6", theorems, 0)
        assert not verify._run_group(task)["abelian_two_atoms"].ces
        with monkeypatch.context() as m:
            m.setattr(GroupScan, "image_table", corrupt)
            tally = verify._run_group(task)["abelian_two_atoms"]
        assert any(ce.get("what") == "mirror symmetry" for ce in tally.ces), theorems


def test_reversal_check_sees_wrong_reverse_rows(monkeypatch):
    # the reversal bijection scans Cay(G, S^-1) on its own: handing that
    # scan the rows of Cay(G, S) must surface as a counterexample for S.
    # {0, 1, 3} in Z7 has fragments that -{0, 1, 3} does not mirror
    smask, inv = 0b1011, 0b1010001
    original = GroupScan.rows

    def rows(self, m):
        return original(self, smask if m == inv else m)

    task = ("cyclic:7", ("atom_coverage",), 0)
    assert not verify._run_group(task)["atom_coverage"].ces
    monkeypatch.setattr(GroupScan, "rows", rows)
    tally = verify._run_group(task)["atom_coverage"]
    assert {"group": "Z7", "set": [0, 1, 3], "what": "reversal bijection k=1"} in tally.ces


def test_reversal_check_sees_a_wrong_classification(monkeypatch):
    # the witness a cannot be told from any other (see _atom_coverage), but
    # the classification can: calling every S of S3 normal puts the S that
    # are neither through the k = 1 comparison, and {0, 1, 2} fails it
    task = ("symmetric:3", ("atom_coverage",), 0)
    assert not verify._run_group(task)["atom_coverage"].ces
    monkeypatch.setattr(GroupScan, "seminormal_witness", lambda self, smask: 0)
    tally = verify._run_group(task)["atom_coverage"]
    assert {"group": "S3", "set": [0, 1, 2], "what": "reversal bijection k=1"} in tally.ces


def test_stabilizer_checks_read_left_stabilizers(monkeypatch):
    # small_sets tests 2-atoms with trivial left stabilizer {a : aH = H},
    # and atom_coverage wants a nontrivial one for large symmetric atoms.
    # On the catalog's real atoms both stabilizers agree wherever the
    # checkers look, so a fake sweep hands them a set H whose left
    # stabilizer is trivial and whose right stabilizer {a : Ha = H} is not:
    # the first such H of D6, and in D7 H = {0, 1, 3, 7, 8, 10}, whose
    # normaliser (1) is smaller than its right stabilizer (2)
    from isoperim.iso import ScanResult

    def stab(g, ids, side):
        prod = (lambda a, h: g.table[a][h]) if side == "left" else (lambda a, h: g.table[h][a])
        return sum({prod(a, h) for h in ids} == ids for a in range(g.order))

    for spec, hm in (("dihedral:6", None), ("dihedral:7", 1419)):
        g = build(spec)
        n, full = g.order, (1 << g.order) - 1
        if hm is None:
            hm = next(m for m in range(1, full, 2)
                      if stab(g, set(ElementSet(n, m)), "left") == 1
                      and stab(g, set(ElementSet(n, m)), "right") >= 2)
        h = set(ElementSet(n, hm))
        assert stab(g, h, "left") == 1 and stab(g, h, "right") >= 2
        atom = ScanResult(True, 1, hm.bit_count(), (hm,), None, 1)

        def sweep(self, ks, collect, rev=False):
            yield full, {k: atom for k in ks}

        monkeypatch.setattr(GroupScan, "sweep", sweep)
        monkeypatch.setitem(verify._THEOREMS, "small_sets",
                            verify._THEOREMS["small_sets"]._replace(pairs=None))
        tallies = verify._run_group((spec, ("small_sets", "atom_coverage"), 0))
        small, cover = tallies["small_sets"], tallies["atom_coverage"]
        assert (small.tested, small.passing) == (1, 1), spec
        assert {"group": g.name, "set": list(range(n)), "what": "symmetric stabilizer",
                "observed": {"atom": sorted(h)}} in cover.ces, spec
        # H is no subgroup, so the record carries the size of its normaliser
        # {x : x H x^-1 = H}: two in D6 and one in D7
        norm = sum({g.table[g.table[x][y]][g.inv[x]] for y in h} == h for x in range(n))
        assert norm == {"dihedral:6": 2, "dihedral:7": 1}[spec]
        assert {"group": g.name, "set": list(range(n)), "what": "semi-normal atom subgroup",
                "observed": {"atom": sorted(h), "normalizer": norm}} in cover.ces, spec


def test_tally_turns_masks_into_ids_on_failure():
    t = verify._Tally("G")
    t.test(True, set=0b101, observed={"atom": 0b11})
    t.test(False, set={"A": 0b101, "B": 0b10}, what="w",
           observed={"atom": 0b110, "atoms": (0b1, 0b11), "j": 3})
    t.test(False, set=0b1001)
    assert (t.tested, t.passing) == (3, 1)
    assert t.ces == [
        {"group": "G", "set": {"A": [0, 2], "B": [1]}, "what": "w",
         "observed": {"atom": [1, 2], "atoms": [[0], [0, 1]], "j": 3}},
        {"group": "G", "set": [0, 3]},
    ]


# ---------------------------------------------------------------------------
# checker sweeps (small orders; acceptance covers the stated scopes)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reports7():
    # order 8 keeps every pair sweep in its exhaustive regime
    return {r.theorem: r for r in verify.run("all", max_order=8, seed=0)}


def test_all_checkers_pass(reports7):
    for tid, rep in reports7.items():
        assert rep.ok, f"{tid}: {rep.counterexamples[:2]}"
        assert rep.instances_tested > 0


def test_orderbase_known_defect_shape(reports7):
    # the literal exponent floor(2n/|S|) - 1 fails on exactly the proper
    # S with |S| > 2n/3; the checked exponent max(2, ...) never fails
    rep = reports7["orderbase"]
    assert rep.ok, rep.counterexamples[:2]
    zone = sum(o_literal_orderbase_zone(build(e.spec).order) for e in entries(8))
    assert rep.details["literal_bound_violations"] == zone


def test_olson_details_have_zemor(reports7):
    rep = reports7["olson"]
    z = rep.details["zemor_f21"]
    assert z["found"] is True
    assert z["kappa1"] == 3 and z["alpha1"] == 3
    assert z["alpha_neg1"] > 3
    assert z["negative_atom"] is not None


def test_skips_are_counted(reports7):
    assert reports7["classical"].instances_skipped > 0
    assert reports7["coset_deficiency"].instances_skipped > 0


def test_equality_instances_observed(reports7):
    # Z6 with S = {0,1,3,4} realizes the half bound with structure H u Hu
    assert reports7["olson"].details.get("equality_instances", 0) > 0


def test_small_sets_found_progressions(reports7):
    assert reports7["small_sets"].details.get("progressions", 0) > 0


def test_determinism_and_workers():
    a = [r.to_payload() for r in verify.run("classical", max_order=6, seed=3)]
    b = [r.to_payload() for r in verify.run("classical", max_order=6, seed=3)]
    assert strip_elapsed(a) == strip_elapsed(b)
    c = [
        r.to_payload()
        for r in verify.run("classical", max_order=6, seed=3, workers=2)
    ]
    assert strip_elapsed(a) == strip_elapsed(c)
    d = [r.to_payload() for r in verify.run("classical", max_order=6, seed=4)]
    # different seed may sample different pairs but the schema is stable
    assert [r["theorem"] for r in d] == [r["theorem"] for r in a]


def test_workers_split_scan_sweep_identically():
    # the abelian groups to order 8 go to two workers one group at a
    # time; the report must not change
    a = [r.to_payload() for r in verify.run("abelian_two_atoms", max_order=8, seed=0)]
    b = [
        r.to_payload()
        for r in verify.run("abelian_two_atoms", max_order=8, seed=0, workers=2)
    ]
    assert strip_elapsed(a) == strip_elapsed(b)


# the sweeps (ks, collect, rev) a run of one theorem requests on a group of
# order at least 3: what that theorem reads, and nothing more
_OWN_SWEEPS = {
    "one_atom": [((1,), "atoms", False), ((1,), "atoms", True)],
    "olson": [((1,), "atoms", False), ((1,), "atoms", True)],
    "orderbase": [],
    "coset_deficiency": [((1,), "none", False)],
    "small_sets": [((1, 2), "atoms", False), ((2,), "alpha", True)],
    "abelian_two_atoms": [((1, 2), "atoms", False), ((1, 2), "alpha", True)],
    "atom_coverage": [((2,), "atoms", False), ((2,), "atoms", True)],
    "classical": [],
}
_LEAST_ORDER = {"one_atom": 2, "olson": 2, "atom_coverage": 3}


def _own_sweeps(tid, n):
    """What a run of one theorem sweeps on a group of order n: nothing below
    its least order, and each k only when 2k - 1 <= n."""
    if n < _LEAST_ORDER.get(tid, 1):
        return []
    kept = [(tuple(k for k in ks if 2 * k - 1 <= n), collect, rev)
            for ks, collect, rev in _OWN_SWEEPS[tid]]
    return [sweep for sweep in kept if sweep[0]]


GOLDEN_ALL_12 = Path(__file__).parent / "data" / "verify_all_12.json"


def golden_text(reports) -> str:
    """Reports as the golden file holds them: ``elapsed`` set to 0."""
    payload = [dict(r.to_payload(), elapsed=0) for r in reports]
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def test_verify_all_12_matches_golden_payload():
    # every report to order 12, byte for byte.  A change that alters a
    # report on purpose writes golden_text(verify.run("all", max_order=12,
    # seed=0)) to GOLDEN_ALL_12 (this module imports with PYTHONPATH=src:tests
    # from the repository root) and lists the old and new counts per
    # theorem with the reason.  Order 16 is pinned in verify_all_16.json
    # beside it, outside tier 1; README gives the one command that compares
    # a fresh run with it.
    assert golden_text(verify.run("all", max_order=12, seed=0)) == GOLDEN_ALL_12.read_text()


def test_one_pass_per_group(reports7, monkeypatch):
    # "all" builds one GroupScan per group and sweeps it at most once each
    # way; a run of one theorem requests exactly its own sweeps, and every
    # theorem reports alone, on one worker or two, what it reports in "all"
    from collections import Counter

    scans, sweeps = [], []
    init, sweep = GroupScan.__init__, GroupScan.sweep

    def counted_init(self, group):
        scans.append(group.name)
        init(self, group)

    def counted_sweep(self, ks, collect, rev=False):
        sweeps.append((self.group.name, (tuple(ks), collect, rev)))
        return sweep(self, ks, collect, rev)

    monkeypatch.setattr(GroupScan, "__init__", counted_init)
    monkeypatch.setattr(GroupScan, "sweep", counted_sweep)
    groups = [build(e.spec) for e in entries(8)]
    assert len({g.name for g in groups}) == len(groups)

    def payload(reports):
        return strip_elapsed([r.to_payload() for r in reports])

    assert payload(verify.run("all", max_order=8, seed=0)) == payload(reports7.values())
    # the olson report's F21 witness builds its own GroupScan
    assert Counter(scans) == Counter([g.name for g in groups] + ["F21"])
    for g in groups:
        directions = Counter(rev for name, (_, _, rev) in sweeps if name == g.name)
        assert max(directions.values(), default=0) <= 1, (g.name, directions)
        if g.order >= 3:
            assert sorted(directions) == [False, True], g.name

    for tid in _OWN_SWEEPS:
        scans.clear()
        sweeps.clear()
        assert payload(verify.run(tid, max_order=8, seed=0)) == payload([reports7[tid]])
        tasks = [g for g in groups if g.abelian or tid != "abelian_two_atoms"]
        assert Counter(scans) == Counter([g.name for g in tasks]
                                         + ["F21"] * (tid == "olson")), tid
        for g in tasks:
            assert [sw for name, sw in sweeps if name == g.name] == _own_sweeps(tid, g.order), (
                tid, g.name)
        two = verify.run(tid, max_order=8, seed=0, workers=2)
        assert payload(two) == payload([reports7[tid]]), tid


def test_run_bounds_pool_and_checks_arguments(monkeypatch):
    # a fake context records each pool's size and maps serially, so no
    # process starts: the pool never outgrows the task list
    pools = []

    class Pool:
        def __init__(self, processes):
            pools.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            assert chunksize == 1
            return [fn(task) for task in tasks]

    class Context:
        def __init__(self, method):
            assert method == "fork"
            self.Pool = Pool

    monkeypatch.setattr(verify, "get_context", Context)
    serial = [r.to_payload() for r in verify.run("classical", max_order=2)]
    assert pools == []
    many = [r.to_payload() for r in verify.run("classical", max_order=2, workers=5000)]
    assert pools == [2] and strip_elapsed(many) == strip_elapsed(serial)
    verify.run("classical", max_order=4, workers=3)
    assert pools == [2, 3]
    for bad in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            verify.run("classical", max_order=2, workers=bad)
    with pytest.raises(ValueError, match="twice"):
        verify.run(["olson", "classical", "olson"], max_order=2)
    assert pools == [2, 3]


def test_unknown_theorem_rejected():
    with pytest.raises(ValueError, match="unknown theorem"):
        verify.run("nonsense", max_order=6)


def test_zemor_witness_atom_is_not_subgroup():
    wit = verify.zemor_f21_witness()
    assert wit["found"]
    g = frobenius21()
    qm = ElementSet(21, wit["negative_atom"]).mask
    assert not is_subgroup_mask(g, qm)
    # H itself is a subgroup and a forward atom
    hm = ElementSet(21, wit["H"]).mask
    assert is_subgroup_mask(g, hm)


def test_abelian_two_atoms_exclusion_scanned():
    # order 10 puts |S| = |G| - 6 = 4 in range: the excluded region is
    # scanned informationally, never asserted
    reps = verify.run("abelian_two_atoms", max_order=10, seed=0)
    assert reps[0].ok
    assert "excluded_region_instances" in reps[0].details


# ---------------------------------------------------------------------------
# targeted spec instances
# ---------------------------------------------------------------------------


def test_one_atom_instance_z6():
    # S = {0,1,3,4}: the identity 1-atom is the subgroup generated by S n H
    import isoperim as ip

    z6 = ip.make_group("cyclic:6")
    g = ip.cayley_graph(z6, z6.subset([0, 1, 3, 4]))
    _, ats = ip.atoms(g, 1)
    h = next(t for t in ats if 0 in t)
    assert h.indices() == (0, 3)
    trace = z6.subset([0, 1, 3, 4]) & h
    assert ip.subgroup_generated(z6, trace) == h


def test_small_sets_instance_z11():
    # {0,2,4} in Z11: kappa_2 = |S|-1 and the progression has ratio 2
    import isoperim as ip
    from isoperim.groups import progression_ratios

    z11 = ip.make_group("cyclic:11")
    s = z11.subset([0, 2, 4])
    inv = ip.classify(z11, s)
    assert inv.cauchy and inv.kappa2 == 2 == inv.delta - 1
    assert 2 in progression_ratios(z11, s)


def test_small_sets_instance_z13_pair():
    # A = {0,1,2}, B = {0,1} in Z13: |A+B| = |A|+|B|-1 and both are
    # progressions with the common ratio 1
    import isoperim as ip
    from isoperim.groups import progression_ratios, product_mask

    z13 = ip.make_group("cyclic:13")
    a, b = z13.subset([0, 1, 2]), z13.subset([0, 1])
    assert product_mask(z13, a.mask, b.mask).bit_count() == 4
    ra = set(progression_ratios(z13, a))
    rb = set(progression_ratios(z13, b))
    assert 1 in ra & rb


def test_abelian_two_atom_instance_z8():
    # S = {0,1,4,5} = H u (H+1): the identity 2-atom is the subgroup {0,4}
    import isoperim as ip
    from isoperim.groups import is_subgroup_mask

    z8 = ip.make_group("cyclic:8")
    g = ip.cayley_graph(z8, z8.subset([0, 1, 4, 5]))
    alpha, ats = ip.atoms(g, 2)
    assert alpha == 2
    ident = [t for t in ats if 0 in t]
    assert ident == [ElementSet(8, [0, 4])]
    assert is_subgroup_mask(z8, ident[0].mask)


def test_coset_deficiency_z12_instance():
    # S = {0,4,8} generates a proper subgroup; the deficiency bound holds
    # for every sampled A in Z12
    tally = verify._run_group(("cyclic:12", ("coset_deficiency",), 0))["coset_deficiency"]
    assert tally.tested > 0 and not tally.ces


def test_atom_coverage_order10_clean():
    rep = verify.run("atom_coverage", max_order=10, seed=0)[0]
    assert rep.ok
    assert rep.instances_skipped > 0  # coverage-bound hypotheses rarely fire


def test_f21_kappa_flow_dispatch():
    # 21 vertices routes kappa_1 through max-flow; the pinned scan in the
    # witness found kappa_1 = 3, the flow value must agree
    import isoperim as ip
    from isoperim.catalog import frobenius21

    wit = verify.zemor_f21_witness()
    g = ip.cayley_graph(frobenius21(), ElementSet(21, wit["S"]))
    assert ip.kappa(g, 1) == 3 == wit["kappa1"]


def test_core_types_immutable():
    import isoperim as ip

    z5 = ip.make_group("cyclic:5")
    with pytest.raises(AttributeError):
        z5.order = 6
    g = ip.cayley_graph(z5, z5.subset([0, 1]))
    with pytest.raises(AttributeError):
        g.rows = ()
    s = z5.subset([0, 1])
    with pytest.raises(AttributeError):
        s.mask = 0
