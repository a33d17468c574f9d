"""Theorem harness: one checker per structural result, swept over the catalog.

Each checker filters catalog instances by the result's hypotheses,
asserts its conclusion exactly, and tallies tested/passing/skipped.  A
counterexample is an implementation bug by contract, never new
mathematics.  Reports are deterministic for a fixed (catalog, seed,
max_order) regardless of worker count; only ``elapsed`` varies.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from multiprocessing import get_context

from . import iso
from .catalog import GroupScan, build, entries, frobenius21
from .digraph import FWD, REV, cayley_graph
from .groups import (
    FiniteGroup,
    closure_mask,
    conjugate_mask,
    elem_mul_mask,
    inverse_mask,
    is_subgroup_mask,
    mask_mul_elem,
    min_subgroup_order,
    normality_witness,
    product_mask,
    progression_ratios,
    seminormality,
    subgroup_as_group,
)
from .sets import ElementSet, bits_of

THEOREM_IDS = (
    "one_atom",
    "olson",
    "orderbase",
    "coset_deficiency",
    "small_sets",
    "abelian_two_atoms",
    "atom_coverage",
    "classical",
)

_EXHAUSTIVE_PAIR_ORDER = 8
_PAIR_SAMPLES = 10_000
_MAX_CES_PER_GROUP = 5
_BIJECTION_STRIDE = {9: 16, 13: 64}  # order threshold -> stride


@dataclass
class CheckReport:
    theorem: str
    instances_tested: int
    instances_passing: int
    instances_skipped: int
    counterexamples: list[dict]
    elapsed: float
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.counterexamples and (
            self.instances_passing == self.instances_tested
        )

    def to_payload(self) -> dict:
        return {
            "theorem": self.theorem,
            "instances_tested": self.instances_tested,
            "instances_passing": self.instances_passing,
            "instances_skipped": self.instances_skipped,
            "counterexamples": self.counterexamples,
            "elapsed": self.elapsed,
            "details": self.details,
        }


class _Tally:
    __slots__ = ("group", "tested", "passing", "skipped", "ces", "details")

    def __init__(self, group_name: str):
        self.group = group_name
        self.tested = 0
        self.passing = 0
        self.skipped = 0
        self.ces: list[dict] = []
        self.details: dict[str, int] = {}

    def test(self, ok: bool, **ce) -> None:
        """Count one instance.  ``set`` and the ``atom``/``atoms`` entries of
        ``observed`` hold raw masks (or dicts or lists of masks), turned into
        id lists only when a counterexample is recorded."""
        self.tested += 1
        if ok:
            self.passing += 1
        elif len(self.ces) < _MAX_CES_PER_GROUP:
            if "set" in ce:
                ce["set"] = _ids(ce["set"])
            observed = ce.get("observed", {})
            for key in ("atom", "atoms"):
                if key in observed:
                    observed[key] = _ids(observed[key])
            self.ces.append({"group": self.group, **ce})

    def skip(self, k: int = 1) -> None:
        self.skipped += k

    def bump(self, key: str, by: int = 1) -> None:
        self.details[key] = self.details.get(key, 0) + by


def _ids(masks):
    """Element ids of a mask, or of each mask in a dict or list of masks."""
    if isinstance(masks, dict):
        return {key: _ids(m) for key, m in masks.items()}
    if isinstance(masks, (list, tuple)):
        return [_ids(m) for m in masks]
    return list(bits_of(masks))


def _instance_seed(seed: int, theorem: str, spec: str) -> int:
    digest = hashlib.sha256(f"{seed}:{theorem}:{spec}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _pair_iter(n: int, rng: random.Random):
    """Nonempty (A, B) mask pairs: exhaustive for small n, seeded sample above."""
    full = (1 << n) - 1
    if n <= _EXHAUSTIVE_PAIR_ORDER:
        for a in range(1, full + 1):
            for b in range(1, full + 1):
                yield a, b
    else:
        for _ in range(_PAIR_SAMPLES):
            yield rng.randrange(1, full + 1), rng.randrange(1, full + 1)


def _left_stab_size(g: FiniteGroup, hm: int) -> int:
    return sum(1 for a in range(g.order) if elem_mul_mask(g, a, hm) == hm)


def _kappa_of_subset(g: FiniteGroup, scan: GroupScan, smask: int, k: int) -> int:
    """kappa_k(S) inside the subgroup S generates (S contains 1)."""
    hull = scan.hull(smask)
    if hull == (1 << g.order) - 1:
        return scan.scan(smask, (k,), collect="none")[k].kappa
    sub, elems = subgroup_as_group(g, ElementSet(g.order, hull))
    pos = {e: i for i, e in enumerate(elems)}
    s_sub = ElementSet(sub.order, [pos[e] for e in bits_of(smask)])
    return iso.kappa(cayley_graph(sub, s_sub), k)


# ---------------------------------------------------------------------------
# per-group checkers
# ---------------------------------------------------------------------------


def _grp_one_atom(g: FiniteGroup, scan: GroupScan, rng) -> _Tally:
    """Identity 1-atoms are subgroups generated by their trace on S, and
    witness the kappa_1 coset formula."""
    t = _Tally(g.name)
    n = g.order
    if n < 2:
        return t
    full = (1 << n) - 1
    for (smask, fwd), (_, rev) in zip(scan.sweep((1,), "atoms"),
                                      scan.sweep((1,), "atoms", rev=True)):
        if not scan.generates(smask):
            continue
        f, r = fwd[1], rev[1]
        a_f = f.alpha if f.separable else 1
        a_r = r.alpha if r.separable else 1
        kap = f.kappa
        if a_f <= a_r:
            side, eff_s = f, smask
        else:
            side, eff_s = r, inverse_mask(g, smask)
        atoms0 = side.atom_masks if side.separable else (1,)
        ok = True
        for hm in atoms0:
            sub_ok = is_subgroup_mask(g, hm)
            gen_ok = closure_mask(g, eff_s & hm) == hm
            ls = product_mask(g, hm, smask).bit_count() - hm.bit_count()
            sl = product_mask(g, smask, hm).bit_count() - hm.bit_count()
            formula_ok = hm != full and min(ls, sl) == kap
            ok = ok and sub_ok and gen_ok and formula_ok
        t.test(
            ok,
            set=smask,
            observed={"alpha": a_f, "alpha_neg": a_r, "kappa1": kap},
        )
    return t


def _structure_two_cosets(g: FiniteGroup, smask: int, hm: int, side: str) -> bool:
    """S = H u Hu (right) or S = K u uK (left) for some u."""
    if not is_subgroup_mask(g, hm):
        return False
    rest = smask & ~hm
    if not rest or (smask & hm) != hm:
        return False
    u = (rest & -rest).bit_length() - 1
    coset = mask_mul_elem(g, hm, u) if side == "right" else elem_mul_mask(g, u, hm)
    return rest == coset


def _grp_olson(g: FiniteGroup, scan: GroupScan, rng) -> _Tally:
    """kappa_1(S) >= |S|/2, with the two-coset structure at equality, and
    the product bounds |B^j| >= min(|K|, (j+1)|B|/2), |AB| >= min(|AK|, |A|+|B|/2)."""
    t = _Tally(g.name)
    n = g.order
    if n < 2:
        return t
    for (smask, fwd), (_, rev) in zip(scan.sweep((1,), "atoms"),
                                      scan.sweep((1,), "atoms", rev=True)):
        if not scan.generates(smask):
            continue
        f, r = fwd[1], rev[1]
        kap = f.kappa
        size = smask.bit_count()
        if 2 * kap < size:
            t.test(False, set=smask, observed={"kappa1": kap, "size": size})
            continue
        if 2 * kap != size:
            t.test(True)
            continue
        h0 = f.atom_masks if f.separable else (1,)
        k0 = r.atom_masks if r.separable else (1,)
        found = False
        for hm in h0:
            for km in k0:
                hb, kb = hm.bit_count(), km.bit_count()
                if hb <= kb and _structure_two_cosets(g, smask, hm, "right"):
                    found = True
                if hb >= kb and _structure_two_cosets(g, smask, km, "left"):
                    found = True
        t.test(
            found,
            set=smask,
            observed={"kappa1": kap, "atoms": h0},
            what="equality without two-coset structure",
        )
        if found:
            t.bump("equality_instances")
    # product bounds over pairs
    k_cache: dict[int, tuple[int, list[int]]] = {}
    row_cache: dict[int, list[int]] = {}
    for am, bm in _pair_iter(n, rng):
        if bm not in k_cache:
            km = closure_mask(g, product_mask(g, bm, inverse_mask(g, bm)))
            rows_b = [elem_mul_mask(g, x, bm) for x in range(n)]
            k_cache[bm] = (km, rows_b)
            # |B^j| bound, checked once per B: sizes grow until they hit |K|
            cur = bm
            j = 1
            ok8 = True
            while True:
                if 2 * cur.bit_count() < min(2 * km.bit_count(), (j + 1) * bm.bit_count()):
                    ok8 = False
                    break
                nxt = 0
                for v in bits_of(cur):
                    nxt |= rows_b[v]
                if nxt.bit_count() == cur.bit_count():
                    break
                cur = nxt
                j += 1
            t.test(ok8, set={"B": bm}, observed={"j": j}, what="power bound")
        km, rows_b = k_cache[bm]
        ab = 0
        for v in bits_of(am):
            ab |= rows_b[v]
        ak = product_mask(g, am, km)
        ok9 = 2 * ab.bit_count() >= min(
            2 * ak.bit_count(), 2 * am.bit_count() + bm.bit_count()
        )
        t.test(
            ok9,
            set={"A": am, "B": bm},
            observed={"AB": ab.bit_count()},
            what="product bound",
        )
    return t


def _grp_orderbase(g: FiniteGroup, scan: GroupScan, rng) -> _Tally:
    """S^e = G for generating S, with e = max(2, floor(2n/|S|) - 1), or
    e = 1 when S = G.

    The literal exponent floor(2n/|S|) - 1 is 1 exactly when |S| > 2n/3,
    and S^1 = G only when S = G, so it fails on every proper S in that
    zone; the covering argument needs two factors there, and |S| > n/2
    already gives S.S = G.  Each S that the literal exponent misses is
    tallied under ``literal_bound_violations``, never as a counterexample.
    """
    t = _Tally(g.name)
    t.bump("literal_bound_violations", 0)
    n = g.order
    full = (1 << n) - 1
    for smask in scan.subsets_with_identity():
        steps = scan.power_steps_to_full(smask)
        if steps is None:
            continue
        literal = (2 * n) // smask.bit_count() - 1
        bound = 1 if smask == full else max(2, literal)
        t.test(
            steps <= bound,
            set=smask,
            observed={"steps": steps, "bound": bound},
        )
        if steps > literal:
            t.bump("literal_bound_violations")
    return t


def _grp_coset_deficiency(g: FiniteGroup, scan: GroupScan, rng) -> _Tally:
    """At most (|AS|-|A|)/kappa_1(S) parts of a coset decomposition of A
    have a deficient product with S."""
    t = _Tally(g.name)
    n = g.order
    full = (1 << n) - 1
    kappa_cache: dict[int, int] = {}
    hull_cache: dict[int, int] = {}
    rows_cache: dict[int, list[int]] = {}

    if n <= _EXHAUSTIVE_PAIR_ORDER:
        pairs = (
            (sm, am)
            for sm in range(1, full + 1, 2)
            for am in range(1, full + 1)
        )
    else:
        pairs = (
            (rng.randrange(0, full + 1) | 1, rng.randrange(1, full + 1))
            for _ in range(_PAIR_SAMPLES)
        )
    for sm, am in pairs:
        if sm not in hull_cache:
            hull_cache[sm] = scan.hull(sm)
            rows_cache[sm] = scan.rows(sm)
        km = hull_cache[sm]
        if km == 1:
            t.skip()
            continue
        if sm not in kappa_cache:
            kappa_cache[sm] = _kappa_of_subset(g, scan, sm, 1)
        kap = kappa_cache[sm]
        rows = rows_cache[sm]
        k_size = km.bit_count()
        # left K-decomposition of A
        w = 0
        a_s = 0
        rest = am
        while rest:
            x = (rest & -rest).bit_length() - 1
            coset = elem_mul_mask(g, x, km)
            part = rest & coset
            rest &= ~coset
            part_s = 0
            for v in bits_of(part):
                part_s |= rows[v]
            a_s |= part_s
            if part_s.bit_count() < k_size:
                w += 1
        t.test(
            w * kap <= a_s.bit_count() - am.bit_count(),
            set={"S": sm, "A": am},
            observed={"W": w, "kappa1": kap},
        )
    return t


def _grp_small_sets(g: FiniteGroup, scan: GroupScan, rng) -> _Tally:
    """Subsets no larger than p(G) are Cauchy; kappa_2 = |S|-1 forces a
    progression; small-stabilizer 2-atoms stay below |S|; critical pairs
    with small B are progressions with a common ratio."""
    t = _Tally(g.name)
    n = g.order
    p = min_subgroup_order(g)
    ks = (1, 2) if n >= 3 else (1,)
    # the reverse scan is read at k = 2 only
    for (smask, res), (_, rev) in zip(scan.sweep(ks, "atoms"),
                                      scan.sweep(ks[-1:], "alpha", rev=True)):
        if not scan.generates(smask):
            continue
        size = smask.bit_count()
        if size <= p:
            ok_i = res[1].kappa == size - 1
            t.test(ok_i, set=smask, observed={"kappa1": res[1].kappa},
                   what="cauchy")
            if n >= 3 and res[2].separable and res[2].kappa == size - 1:
                s_set = ElementSet(n, smask)
                ratios = progression_ratios(g, s_set)
                t.test(bool(ratios), set=smask, what="progression")
                if ratios:
                    t.bump("progressions")
        # bounded 2-atoms with trivial left stabilizer
        if size >= 3 and n >= 3:
            if not res[2].separable:
                t.test(True)  # convention atoms are pairs, bound is immediate
                continue
            f2, r2 = res[2], rev[2]
            a_r = r2.alpha if r2.separable else 2
            if f2.alpha > a_r:
                t.skip()
                continue
            for hm in f2.atom_masks:
                if _left_stab_size(g, hm) == 1:
                    t.test(
                        hm.bit_count() <= size - 1,
                        set=smask,
                        observed={"atom": hm},
                        what="2-atom size",
                    )
    # critical pairs (Vosper-type structure for |B| <= p(G))
    for am, bm in _pair_iter(n, rng):
        if not (am & 1 and bm & 1):
            continue
        asz, bsz = am.bit_count(), bm.bit_count()
        if asz < 2 or bsz < 2 or bsz > p:
            continue
        km = scan.hull(bm)
        ab = product_mask(g, am, bm)
        if ab.bit_count() != asz + bsz - 1 or ab.bit_count() > km.bit_count() - 1:
            continue
        if asz + bsz == km.bit_count():
            inv_a = inverse_mask(g, am)
            target = km & ~bm
            found = any(
                mask_mul_elem(g, inv_a, a) == target for a in range(n)
            )
            t.test(found, set={"A": am, "B": bm}, what="complement pair")
        else:
            ra = set(progression_ratios(g, ElementSet(n, am)))
            rb = set(progression_ratios(g, ElementSet(n, bm)))
            if ra & rb:
                t.test(True)
                t.bump("pairs_literal")
            else:
                ra_t = set(progression_ratios(g, ElementSet(n, am), translated=True))
                rb_t = set(progression_ratios(g, ElementSet(n, bm), translated=True))
                common = ra_t & rb_t
                t.test(
                    bool(common),
                    set={"A": am, "B": bm},
                    what="no common progression ratio",
                )
                if common:
                    t.bump("pairs_translated")
    return t


def _grp_abelian_two_atoms(g: FiniteGroup, scan: GroupScan, rng) -> _Tally:
    """Abelian symmetry kappa_k = kappa_-k and alpha_k = alpha_-k, and the
    2-atom dichotomy (subgroup or a pair) for mu <= 0 outside |S| = |G|-6."""
    t = _Tally(g.name)
    n = g.order
    ks = (1, 2) if n >= 3 else (1,)
    for (smask, fwd), (_, rev) in zip(scan.sweep(ks, "atoms"),
                                      scan.sweep(ks, "alpha", rev=True)):
        if not scan.generates(smask):
            continue
        size = smask.bit_count()
        sym_ok = True
        for k in ks:
            fk, rk = fwd[k], rev[k]
            sym_ok = sym_ok and fk.separable == rk.separable and fk.kappa == rk.kappa
            if fk.separable:
                sym_ok = sym_ok and fk.alpha == rk.alpha
        t.test(sym_ok, set=smask, what="mirror symmetry")
        if n < 3:
            continue
        f2 = fwd[2]
        if not f2.separable:
            t.skip()
            continue
        mu = f2.kappa - size
        if mu > 0:
            t.skip()
            continue
        excluded = mu == 0 and size == n - 6
        nontrivial = [
            m
            for m in f2.atom_masks
            if m.bit_count() != 2 and not is_subgroup_mask(g, m)
        ]
        if excluded:
            t.bump("excluded_region_instances")
            if any(m.bit_count() == 3 for m in nontrivial):
                t.bump("excluded_region_size3_atoms")
        else:
            t.test(
                not nontrivial,
                set=smask,
                observed={"atoms": nontrivial},
                what="2-atom neither subgroup nor pair",
            )
        for hm in nontrivial:
            # |H| <= kappa_2(H), and |H| = 3 when H generates
            kap2_h = _kappa_of_subset(g, scan, hm, 2)
            hull_h = scan.hull(hm)
            ok = hm.bit_count() <= kap2_h
            if hull_h == (1 << n) - 1:
                ok = ok and hm.bit_count() == 3
            t.test(
                ok,
                set=smask,
                observed={"atom": hm, "kappa2_atom": kap2_h},
                what="degenerate atom bound",
            )
    return t


def _bijection_stride(n: int) -> int:
    stride = 1
    for threshold, s in _BIJECTION_STRIDE.items():
        if n >= threshold:
            stride = s
    return stride


def _grp_atom_coverage(g: FiniteGroup, scan: GroupScan, rng) -> _Tally:
    """Coverage multiplicity of 2-atoms, stabilizers of large 2-atoms under
    symmetric or semi-normal S, and the fragment reversal bijection."""
    t = _Tally(g.name)
    n = g.order
    if n < 3:
        return t
    full = (1 << n) - 1
    stride = _bijection_stride(n)
    idx = -1
    for (smask, fwd), (_, rev) in zip(scan.sweep((2,), "atoms"),
                                      scan.sweep((2,), "atoms", rev=True)):
        if not scan.generates(smask):
            continue
        idx += 1
        size = smask.bit_count()
        f2 = fwd[2]
        symmetric = inverse_mask(g, smask) == smask

        # coverage bound
        if f2.separable and f2.alpha >= 3:
            r2 = rev[2]
            if r2.separable and f2.alpha <= r2.alpha:
                om2 = len(f2.atom_masks)
                om2r = len(r2.atom_masks)
                bound = 3 + max(f2.kappa, r2.kappa) - size
                t.test(
                    min(om2, om2r) <= 2 or f2.alpha <= bound,
                    set=smask,
                    observed={"omega2": om2, "omega_neg2": om2r, "alpha2": f2.alpha},
                    what="coverage bound",
                )
            else:
                t.skip()
        else:
            t.skip()

        # large symmetric 2-atoms have nontrivial left stabilizer
        if symmetric and f2.separable and f2.alpha >= f2.kappa - size + 4:
            for hm in f2.atom_masks:
                t.test(
                    _left_stab_size(g, hm) >= 2,
                    set=smask,
                    observed={"atom": hm},
                    what="symmetric stabilizer",
                )

        sem = seminormality(g, ElementSet(n, smask))
        if sem.kind == "neither":
            continue
        a = sem.witness if sem.kind == "semi-normal" else 0

        # fragment reversal bijection Y -> a^-1 Y^-1 a (sampled on big groups,
        # except genuinely semi-normal instances, which are always checked)
        if sem.kind == "semi-normal" or idx % stride == 0:
            graph = cayley_graph(g, ElementSet(n, smask))
            ai = g.inv[a]
            for k in (1, 2):
                pf = iso.profile(graph, k, FWD)
                pr = iso.profile(graph, k, REV)
                ok = (
                    pf.kappa == pr.kappa
                    and pf.separable == pr.separable
                    and pf.alpha == pr.alpha
                    and pf.omega == pr.omega
                )
                if pf.separable and ok:
                    rev_set = {fr.mask for fr in pr.fragments}
                    mapped = set()
                    for fr in pf.fragments:
                        ym = inverse_mask(g, fr.mask)
                        mapped.add(mask_mul_elem(g, elem_mul_mask(g, ai, ym), a))
                    ok = mapped == rev_set and len(mapped) == len(pf.fragments)
                t.test(ok, set=smask, what=f"reversal bijection k={k}")

        # large semi-normal 2-atoms are subgroups of near-normal type
        if f2.separable and f2.alpha >= f2.kappa - size + 4:
            for hm in f2.atom_masks:
                sub_ok = is_subgroup_mask(g, hm)
                norm = sum(
                    1 for x in range(n) if conjugate_mask(g, x, hm) == hm
                )
                t.test(
                    sub_ok and n <= 2 * norm,
                    set=smask,
                    observed={"atom": hm, "normalizer": norm},
                    what="semi-normal atom subgroup",
                )
    return t


def _grp_classical(g: FiniteGroup, scan: GroupScan, rng) -> _Tally:
    """|AB| >= |A|+|B|-1 for aperiodic products (abelian, or commuting B),
    and AB = G as soon as |A|+|B| > |G|."""
    t = _Tally(g.name)
    n = g.order
    full = (1 << n) - 1
    abelian = g.abelian
    commute_cache: dict[int, bool] = {}
    rows_cache: dict[int, list[int]] = {}
    for am, bm in _pair_iter(n, rng):
        if bm not in rows_cache:
            rows_cache[bm] = [elem_mul_mask(g, x, bm) for x in range(n)]
            commute_cache[bm] = abelian or all(
                g.table[x][y] == g.table[y][x]
                for x in bits_of(bm)
                for y in bits_of(bm)
            )
        rows_b = rows_cache[bm]
        ab = 0
        for v in bits_of(am):
            ab |= rows_b[v]
        asz, bsz = am.bit_count(), bm.bit_count()
        if asz + bsz > n:
            t.test(ab == full, set={"A": am, "B": bm}, what="full product")
        if not (abelian or commute_cache[bm]):
            t.skip()
            continue
        aperiodic = not any(
            mask_mul_elem(g, ab, x) == ab for x in range(1, n)
        )
        if not aperiodic:
            t.skip()
            continue
        t.test(
            ab.bit_count() >= asz + bsz - 1,
            set={"A": am, "B": bm},
            observed={"AB": ab.bit_count()},
            what="lower bound",
        )
    return t


_CHECKERS = {
    "one_atom": _grp_one_atom,
    "olson": _grp_olson,
    "orderbase": _grp_orderbase,
    "coset_deficiency": _grp_coset_deficiency,
    "small_sets": _grp_small_sets,
    "abelian_two_atoms": _grp_abelian_two_atoms,
    "atom_coverage": _grp_atom_coverage,
    "classical": _grp_classical,
}

_ABELIAN_ONLY = {"abelian_two_atoms"}


# ---------------------------------------------------------------------------
# the nonabelian order-21 witness
# ---------------------------------------------------------------------------


def zemor_f21_witness() -> dict:
    """Locate a negative 1-atom that is not a subgroup in the order-21
    Frobenius group with S = H u Hu, H non-normal of order 3.

    Returns a report dict with ``found`` True when the witness exists.
    """
    g = frobenius21()
    n = g.order
    hm = None
    for x in range(1, n):
        if g.order_of(x) == 3:
            cand = closure_mask(g, 1 << x)
            if normality_witness(g, cand) is not None:
                hm = cand
                break
    if hm is None:
        return {"found": False, "reason": "no non-normal subgroup of order 3"}
    u = next(
        x
        for x in range(1, n)
        if not (hm >> x) & 1
        and elem_mul_mask(g, x, hm) != mask_mul_elem(g, hm, x)
    )
    smask = hm | mask_mul_elem(g, hm, u)
    scan = GroupScan(g)
    if not scan.generates(smask):
        return {"found": False, "reason": "S does not generate"}
    f = scan.scan(smask, (1,), collect="atoms")[1]
    r = scan.scan(smask, (1,), rev=True, collect="atoms")[1]
    h_is_atom = f.separable and hm in f.atom_masks
    bad_atoms = [
        qm for qm in (r.atom_masks or ()) if not is_subgroup_mask(g, qm)
    ]
    found = (
        h_is_atom
        and f.kappa * 2 == smask.bit_count()
        and r.separable
        and len(bad_atoms) == len(r.atom_masks)
        and bad_atoms
    )
    return {
        "found": bool(found),
        "group": g.name,
        "S": _ids(smask),
        "H": _ids(hm),
        "u": u,
        "kappa1": f.kappa,
        "alpha1": f.alpha,
        "alpha_neg1": r.alpha,
        "negative_atom": _ids(bad_atoms[0]) if bad_atoms else None,
    }


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def _run_group(args: tuple[str, str, int]) -> dict:
    theorem, spec, seed = args
    g = build(spec)
    scan = GroupScan(g)
    rng = random.Random(_instance_seed(seed, theorem, spec))
    tally = _CHECKERS[theorem](g, scan, rng)
    return {
        "tested": tally.tested,
        "passing": tally.passing,
        "skipped": tally.skipped,
        "counterexamples": tally.ces,
        "details": tally.details,
    }


def run(
    theorems: str | list[str] = "all",
    max_order: int = 12,
    seed: int = 0,
    workers: int = 1,
) -> list[CheckReport]:
    """Run the selected checkers over the catalog up to max_order."""
    if theorems == "all":
        selected = list(THEOREM_IDS)
    elif isinstance(theorems, str):
        selected = [theorems]
    else:
        selected = list(theorems)
    for tid in selected:
        if tid not in _CHECKERS:
            raise ValueError(
                f"unknown theorem {tid!r}; known: {', '.join(THEOREM_IDS)}"
            )
    reports = []
    for tid in selected:
        start = time.perf_counter()
        group_entries = [
            e
            for e in entries(max_order)
            if tid not in _ABELIAN_ONLY or build(e.spec).abelian
        ]
        tasks = [(tid, e.spec, seed) for e in group_entries]
        if workers > 1 and len(tasks) > 1:
            with get_context("fork").Pool(workers) as pool:
                partials = pool.map(_run_group, tasks, chunksize=1)
        else:
            partials = [_run_group(task) for task in tasks]
        tested = sum(p["tested"] for p in partials)
        passing = sum(p["passing"] for p in partials)
        skipped = sum(p["skipped"] for p in partials)
        ces = [ce for p in partials for ce in p["counterexamples"]]
        details: dict = {}
        for p in partials:
            for key, val in p["details"].items():
                details[key] = details.get(key, 0) + val
        if tid == "olson":
            witness = zemor_f21_witness()
            details["zemor_f21"] = witness
            tested += 1
            if witness["found"]:
                passing += 1
            else:
                ces.append({"group": "F21", "what": "missing witness", **witness})
        reports.append(
            CheckReport(
                theorem=tid,
                instances_tested=tested,
                instances_passing=passing,
                instances_skipped=skipped,
                counterexamples=ces,
                elapsed=time.perf_counter() - start,
                details=details,
            )
        )
    return reports
