"""Theorem harness: one checker per structural result, swept over the catalog.

Each checker filters catalog instances by the result's hypotheses,
asserts its conclusion exactly, and tallies tested/passing/skipped.  A
counterexample is an implementation bug by contract, never new
mathematics.  Reports are deterministic for a fixed (catalog, seed,
max_order) regardless of worker count; only ``elapsed`` varies.

``run`` makes one task per catalog group, which builds one ``GroupScan``
and sweeps it at most once forward and once in reverse, over the union of
the ks the selected theorems read (``_THEOREMS``) at the highest level any
of them needs.  Each generating S goes to every selected per-S check, then
each theorem's set-pair half runs.  A run of one theorem sweeps exactly
what that theorem reads.  The per-S checks read subgroups, inverses and
translates from ``GroupScan``'s tables too.

The set-pair checkers draw their (A, B) pairs as two mask vectors: every
pair, A outer and B inner, up to order ``_EXHAUSTIVE_PAIR_ORDER``, and
above it ``_PAIR_SAMPLES`` pairs from the per-(theorem, group) seeded
``random.Random``, A drawn before B, both from ``randrange(1, 2^n)``:
``sets.randrange_draws`` returns the values that loop would, from the
generator's own ``getrandbits`` words.  They compute
products, subgroups and coset parts for the whole vector from
``GroupScan``'s translation tables, count the passing checks in bulk, and
replay only the failures through ``_Tally.test`` in (pair, check) order,
so the counterexamples kept, their order and the per-group cap are those
of a pair-by-pair loop.
``orderbase`` runs the same way over the vector of every S containing 1,
and it and Olson's |B^j| bound read ``GroupScan.powers``.  Where kappa_k
of a set inside the subgroup it generates is needed, it is taken in
``iso.cayley_in_hull``, the Cayley graph of S inside <S>.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Callable, NamedTuple

import numpy as np

from . import iso
from .catalog import GroupScan, build, entries, frobenius21
from .groups import (
    FiniteGroup,
    closure_mask,
    is_subgroup_mask,
    mask_mul_elem,
    min_subgroup_order,
    normality_witness,
    progression_ratios,
)
from .sets import ElementSet, bits_of, randrange_draws

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
    __slots__ = ("group", "tested", "passing", "skipped", "ces", "details", "kappa1")

    def __init__(self, group_name: str):
        self.group = group_name
        self.tested = 0
        self.passing = 0
        self.skipped = 0
        self.ces: list[dict] = []
        self.details: dict[str, int] = {}
        self.kappa1: np.ndarray | None = None  # of each S, index S >> 1

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


def _pairs(n: int, rng: random.Random, odd_first: bool = False):
    """Nonempty (A, B) mask pairs as two uint32 vectors: every pair, A outer
    and B inner, up to order _EXHAUSTIVE_PAIR_ORDER, and _PAIR_SAMPLES seeded
    draws above it, A before B in each.  With ``odd_first`` A contains 1:
    the draw of A is ORed with 1."""
    full = (1 << n) - 1
    if n <= _EXHAUSTIVE_PAIR_ORDER:
        firsts = np.arange(1, full + 1, 2 if odd_first else 1, dtype=np.uint32)
        seconds = np.arange(1, full + 1, dtype=np.uint32)
        return np.repeat(firsts, len(seconds)), np.tile(seconds, len(firsts))
    draws = randrange_draws(rng, 1, full + 1, 2 * _PAIR_SAMPLES).astype(np.uint32)
    return draws[0::2] | np.uint32(odd_first), draws[1::2]


def _size(masks: np.ndarray) -> np.ndarray:
    return np.bitwise_count(masks).astype(np.int64)


def _tally_pairs(t: _Tally, checks) -> None:
    """Tally pair checks in bulk.  ``checks`` lists, in the order the checks
    run within one pair, ``(applies, ok, ce)``: bool vectors over the pairs
    and ``ce(i)``, the counterexample fields of pair i.  Passes are counted
    at once; failures are replayed through ``t.test`` in (pair, check)
    order, so the counterexamples kept are those a pair-by-pair loop keeps."""
    failures = []
    for order, (applies, ok, ce) in enumerate(checks):
        passed = int(np.count_nonzero(applies & ok))
        t.tested += passed
        t.passing += passed
        failures += [(i, order, ce) for i in np.flatnonzero(applies & ~ok).tolist()]
    for i, _, ce in sorted(failures, key=lambda f: f[:2]):
        t.test(False, **ce(i))


# ---------------------------------------------------------------------------
# per-group checkers
# ---------------------------------------------------------------------------


def _one_atom(t: _Tally, scan: GroupScan, smask: int, idx: int, fwd, rev) -> None:
    """Identity 1-atoms are subgroups generated by their trace on S, and
    witness the kappa_1 coset formula."""
    f, r = fwd[1], rev[1]
    a_f = f.alpha if f.separable else 1
    a_r = r.alpha if r.separable else 1
    kap = f.kappa
    if a_f <= a_r:
        side, eff_s = f, smask
    else:
        side, eff_s = r, int(scan.inverses[smask])
    atoms0 = side.atom_masks if side.separable else (1,)
    s_elems = list(bits_of(smask))
    ok = True
    for hm in atoms0:
        # HS and SH: the OR of Hs and of sH over the s in S
        hs = int(np.bitwise_or.reduce(scan.right[s_elems, hm]))
        sh = int(np.bitwise_or.reduce(scan.left[s_elems, hm]))
        ok = (ok and scan.hulls[hm] == hm and scan.hulls[eff_s & hm] == hm
              and hm != (1 << scan.n) - 1
              and min(hs.bit_count(), sh.bit_count()) - hm.bit_count() == kap)
    t.test(
        ok,
        set=smask,
        observed={"alpha": a_f, "alpha_neg": a_r, "kappa1": kap},
    )


def _structure_two_cosets(scan: GroupScan, smask: int, hm: int, side: str) -> bool:
    """S = H u Hu (right) or S = K u uK (left) for some u."""
    rest = smask & ~hm
    if scan.hulls[hm] != hm or not rest or (smask & hm) != hm:
        return False
    u = (rest & -rest).bit_length() - 1
    return rest == (scan.right if side == "right" else scan.left)[u, hm]


def _olson(t: _Tally, scan: GroupScan, smask: int, idx: int, fwd, rev) -> None:
    """kappa_1(S) >= |S|/2, with the two-coset structure at equality; the
    product bounds are ``_olson_pairs``."""
    f, r = fwd[1], rev[1]
    kap = f.kappa
    size = smask.bit_count()
    if 2 * kap < size:
        t.test(False, set=smask, observed={"kappa1": kap, "size": size})
        return
    if 2 * kap != size:
        t.test(True)
        return
    h0 = f.atom_masks if f.separable else (1,)
    k0 = r.atom_masks if r.separable else (1,)
    found = False
    for hm in h0:
        for km in k0:
            hb, kb = hm.bit_count(), km.bit_count()
            if hb <= kb and _structure_two_cosets(scan, smask, hm, "right"):
                found = True
            if hb >= kb and _structure_two_cosets(scan, smask, km, "left"):
                found = True
    t.test(
        found,
        set=smask,
        observed={"kappa1": kap, "atoms": h0},
        what="equality without two-coset structure",
    )
    if found:
        t.bump("equality_instances")


def _power_failures(scan: GroupScan, b: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Per B (K = <BB^-1>), the first j with 2|B^j| < min(2|K|, (j+1)|B|)
    while B^j still grows, or 0 when there is none."""
    size_b, size_k = _size(b), _size(k)
    fail_j = np.zeros(len(b), dtype=np.int64)
    for j, size, growing in scan.powers(b):
        bad = growing & (fail_j == 0) & (2 * size < np.minimum(2 * size_k, (j + 1) * size_b))
        fail_j[bad] = j
    return fail_j


def _olson_pairs(g: FiniteGroup, scan: GroupScan, rng, t: _Tally) -> None:
    """|B^j| >= min(|K|, (j+1)|B|/2) once per B, at its first pair, and
    |AB| >= min(|AK|, |A|+|B|/2) for every pair, with K = <BB^-1>."""
    a, b = _pairs(g.order, rng)
    ub, first, which = np.unique(b, return_index=True, return_inverse=True)
    kb = scan.hulls[scan.products(ub, scan.inverses[ub])]
    fail_j = _power_failures(scan, ub, kb)[which]
    first_pair = np.zeros(len(a), dtype=bool)
    first_pair[first] = True
    ab = scan.products(a, b)
    ak = scan.products(a, kb[which])
    size_ab = _size(ab)
    _tally_pairs(t, [
        (first_pair, fail_j == 0, lambda i: {
            "set": {"B": int(b[i])}, "observed": {"j": int(fail_j[i])},
            "what": "power bound"}),
        (True, 2 * size_ab >= np.minimum(2 * _size(ak), 2 * _size(a) + _size(b)),
         lambda i: {"set": {"A": int(a[i]), "B": int(b[i])},
                    "observed": {"AB": int(size_ab[i])}, "what": "product bound"}),
    ])


def _orderbase(g: FiniteGroup, scan: GroupScan, rng, t: _Tally) -> None:
    """S^e = G for generating S, with e = max(2, floor(2n/|S|) - 1), or
    e = 1 when S = G.

    The literal exponent floor(2n/|S|) - 1 is 1 exactly when |S| > 2n/3,
    and S^1 = G only when S = G, so it fails on every proper S in that
    zone; the covering argument needs two factors there, and |S| > n/2
    already gives S.S = G.  Each S that the literal exponent misses is
    tallied under ``literal_bound_violations``, never as a counterexample.
    """
    n = g.order
    full = (1 << n) - 1
    s = np.arange(1, full + 1, 2, dtype=np.uint32)
    # steps: the first j with S^j = G, 0 when <S> != G
    steps = np.zeros(len(s), dtype=np.int64)
    for j, size, _ in scan.powers(s):
        steps[(steps == 0) & (size == n)] = j
    gen = steps > 0
    literal = 2 * n // _size(s) - 1
    bound = np.where(s == full, 1, np.maximum(2, literal))
    t.bump("literal_bound_violations", int(np.count_nonzero(gen & (steps > literal))))
    _tally_pairs(t, [
        (gen, steps <= bound, lambda i: {
            "set": int(s[i]),
            "observed": {"steps": int(steps[i]), "bound": int(bound[i])}}),
    ])


def _deficient_parts(scan: GroupScan, s: np.ndarray, a: np.ndarray,
                     k: np.ndarray) -> np.ndarray:
    """W per pair (K = <S>): how many parts A & xK of A, x the lowest
    element of A left, have a product with S smaller than K."""
    size_k = _size(k)
    w = np.zeros(len(a), dtype=np.int64)
    rest = a.copy()
    while rest.any():
        live = rest != 0
        x = np.minimum(np.bitwise_count((rest & -rest) - np.uint32(1)), scan.n - 1)
        coset = scan.left[x, k]
        part = rest & coset
        rest &= ~coset
        w += live & (_size(scan.products(part, s)) < size_k)
    return w


def _keep_kappa1(t: _Tally, scan: GroupScan, smask: int, idx: int, fwd, rev) -> None:
    """Keep kappa_1 of each generating S for ``_coset_deficiency``."""
    if t.kappa1 is None:
        t.kappa1 = np.zeros(1 << scan.n - 1, dtype=np.int64)
    t.kappa1[smask >> 1] = fwd[1].kappa


def _coset_deficiency(g: FiniteGroup, scan: GroupScan, rng, t: _Tally) -> None:
    """At most (|AS|-|A|)/kappa_1(S) parts of a coset decomposition of A
    have a deficient product with S."""
    n = g.order
    s, a = _pairs(n, rng, odd_first=True)
    k = scan.hulls[s]
    trivial = k == 1
    t.skip(int(np.count_nonzero(trivial)))
    s, a, k = s[~trivial], a[~trivial], k[~trivial]
    # kappa_1 of S inside <S>: kept from the pass for the generating S,
    # and the Cayley graph inside <S> for each distinct other S
    kap = np.zeros(len(s), dtype=np.int64)
    gen = k == (1 << n) - 1
    if gen.any():
        kap[gen] = t.kappa1[s[gen] >> 1]
    if not gen.all():
        others, where = np.unique(s[~gen], return_inverse=True)
        kap[~gen] = np.array(
            [iso.kappa(iso.cayley_in_hull(g, ElementSet(n, sm))[0], 1)
             for sm in others.tolist()]
        )[where]
    w = _deficient_parts(scan, s, a, k)
    _tally_pairs(t, [
        (True, w * kap <= _size(scan.products(a, s)) - _size(a), lambda i: {
            "set": {"S": int(s[i]), "A": int(a[i])},
            "observed": {"W": int(w[i]), "kappa1": int(kap[i])}}),
    ])


def _small_sets(t: _Tally, scan: GroupScan, smask: int, idx: int, res, rev) -> None:
    """Subsets no larger than p(G) are Cauchy; kappa_2 = |S|-1 forces a
    progression; small-stabilizer 2-atoms stay below |S|.  Critical pairs
    with small B are ``_small_sets_pairs``."""
    g, n = scan.group, scan.n
    size = smask.bit_count()
    if size <= min_subgroup_order(g):
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
            return
        f2, r2 = res[2], rev[2]
        a_r = r2.alpha if r2.separable else 2
        if f2.alpha > a_r:
            t.skip()
            return
        for hm in f2.atom_masks:
            if np.count_nonzero(scan.left[:, hm] == hm) == 1:
                t.test(
                    hm.bit_count() <= size - 1,
                    set=smask,
                    observed={"atom": hm},
                    what="2-atom size",
                )


def _small_sets_pairs(g: FiniteGroup, scan: GroupScan, rng, t: _Tally) -> None:
    """Critical pairs (Vosper-type structure for |B| <= p(G)): pairs with
    |AB| = |A|+|B|-1 < |<B>| are complement pairs or progressions with a
    common ratio."""
    n = g.order
    a, b = _pairs(n, rng)
    size_a, size_b = _size(a), _size(b)
    keep = ((a & b & 1) != 0) & (size_a >= 2) & (size_b >= 2)
    keep &= size_b <= min_subgroup_order(g)
    a, b, size_a, size_b = a[keep], b[keep], size_a[keep], size_b[keep]
    k = scan.hulls[b]
    size_ab = _size(scan.products(a, b))
    critical = (size_ab == size_a + size_b - 1) & (size_ab <= _size(k) - 1)
    for am, bm, km in zip(a[critical].tolist(), b[critical].tolist(),
                          k[critical].tolist()):
        if am.bit_count() + bm.bit_count() == km.bit_count():
            # A^-1 a = K \ B for some a
            found = bool((scan.right[:, scan.inverses[am]] == km & ~bm).any())
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


def _abelian_two_atoms(t: _Tally, scan: GroupScan, smask: int, idx: int, fwd, rev) -> None:
    """Abelian symmetry kappa_k = kappa_-k and alpha_k = alpha_-k, and the
    2-atom dichotomy (subgroup or a pair) for mu <= 0 outside |S| = |G|-6."""
    g, n = scan.group, scan.n
    size = smask.bit_count()
    sym_ok = True
    for k in (1, 2) if n >= 3 else (1,):
        fk, rk = fwd[k], rev[k]
        sym_ok = sym_ok and fk.separable == rk.separable and fk.kappa == rk.kappa
        if fk.separable:
            sym_ok = sym_ok and fk.alpha == rk.alpha
    t.test(sym_ok, set=smask, what="mirror symmetry")
    if n < 3:
        return
    f2 = fwd[2]
    if not f2.separable:
        t.skip()
        return
    mu = f2.kappa - size
    if mu > 0:
        t.skip()
        return
    excluded = mu == 0 and size == n - 6
    nontrivial = [m for m in f2.atom_masks if m.bit_count() != 2 and scan.hulls[m] != m]
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
        # |H| <= kappa_2(H) inside <H>, and |H| = 3 when H generates
        kap2_h = iso.kappa(iso.cayley_in_hull(g, ElementSet(n, hm))[0], 2)
        t.test(
            hm.bit_count() <= kap2_h and (hm.bit_count() == 3 or not scan.generates(hm)),
            set=smask,
            observed={"atom": hm, "kappa2_atom": kap2_h},
            what="degenerate atom bound",
        )


def _bijection_stride(n: int) -> int:
    stride = 1
    for threshold, s in _BIJECTION_STRIDE.items():
        if n >= threshold:
            stride = s
    return stride


def _atom_coverage(t: _Tally, scan: GroupScan, smask: int, idx: int, fwd, rev) -> None:
    """Coverage multiplicity of 2-atoms, stabilizers of large 2-atoms under
    symmetric or semi-normal S, and the fragment reversal bijection."""
    g, n = scan.group, scan.n
    size = smask.bit_count()
    f2 = fwd[2]
    symmetric = scan.inverses[smask] == smask

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
                np.count_nonzero(scan.left[:, hm] == hm) >= 2,
                set=smask,
                observed={"atom": hm},
                what="symmetric stabilizer",
            )

    a = scan.seminormal_witness(smask)  # 0 when S is normal
    if a is None:
        return

    # fragment reversal bijection Y -> a^-1 Y^-1 a (sampled on big groups by
    # the index of S among the generating S, except genuinely semi-normal
    # instances, which are always checked).  It cannot test a itself: the
    # fragments of Cay(G, S) and of Cay(G, S^-1) are closed under left
    # translation, so the images are a^-1 {Y^-1 : Y a fragment}, and they
    # match the reverse fragments for one a exactly when they do for all.
    # What it tests is the classification: most S that are neither fail at
    # k = 1 (52 of 54 non-symmetric generating S on D4, 1446 of 1452 on D6).
    # S passes with witness a exactly when S a^-1 is normal; in the catalog's
    # non-abelian groups each x is conjugate to x^-1, so S a^-1 is symmetric
    # and Cay(G, S) and Cay(G, S^-1) have the same fragments.
    if a != 0 or idx % _bijection_stride(n) == 0:
        # the reverse graph of Cay(G, S) is Cay(G, S^-1); on a Cayley graph
        # omega = |atoms| alpha / n, so equal atom counts mean equal omega
        fwd_all = iso.subset_scan(scan.rows(smask), n, (1, 2))
        rev_all = iso.subset_scan(scan.rows(int(scan.inverses[smask])), n, (1, 2))
        for k in (1, 2):
            pf, pr = fwd_all[k], rev_all[k]
            ok = pf[:3] == pr[:3]  # separable, kappa, alpha
            if pf.separable and ok:
                ys = np.array(pf.frag_masks, dtype=np.uint32)
                mapped = np.unique(scan.right[a, scan.left[g.inv[a], scan.inverses[ys]]])
                ok = (len(pf.atom_masks) == len(pr.atom_masks) and len(mapped) == len(ys)
                      and np.array_equal(mapped, pr.frag_masks))
            t.test(ok, set=smask, what=f"reversal bijection k={k}")

    # large semi-normal 2-atoms are subgroups of near-normal type
    if f2.separable and f2.alpha >= f2.kappa - size + 4:
        for hm in f2.atom_masks:
            # the normaliser of H: x H x^-1 = H exactly when xH = Hx
            norm = int(np.count_nonzero(scan.left[:, hm] == scan.right[:, hm]))
            t.test(
                scan.hulls[hm] == hm and n <= 2 * norm,
                set=smask,
                observed={"atom": hm, "normalizer": norm},
                what="semi-normal atom subgroup",
            )


def _classical(g: FiniteGroup, scan: GroupScan, rng, t: _Tally) -> None:
    """|AB| >= |A|+|B|-1 for aperiodic products (abelian, or commuting B),
    and AB = G as soon as |A|+|B| > |G|."""
    n = g.order
    a, b = _pairs(n, rng)
    ab = scan.products(a, b)
    size_a, size_b, size_ab = _size(a), _size(b), _size(ab)
    # aperiodic: AB x != AB for every x != 1
    eligible = np.ones(len(a), dtype=bool)
    for row in scan.right[1:]:
        eligible &= row[ab] != ab
    if not g.abelian:
        # B commutes when each x in B centralizes all of B
        tbl = np.array(g.table)
        for x, same in enumerate(tbl == tbl.T):
            centralizer = np.uint32(sum(1 << y for y in np.flatnonzero(same).tolist()))
            eligible &= (b >> np.uint32(x) & 1 == 0) | (b & ~centralizer == 0)
    t.skip(len(a) - int(np.count_nonzero(eligible)))

    def pair(i):
        return {"A": int(a[i]), "B": int(b[i])}

    _tally_pairs(t, [
        (size_a + size_b > n, ab == (1 << n) - 1,
         lambda i: {"set": pair(i), "what": "full product"}),
        (eligible, size_ab >= size_a + size_b - 1,
         lambda i: {"set": pair(i), "observed": {"AB": int(size_ab[i])},
                    "what": "lower bound"}),
    ])


class _Theorem(NamedTuple):
    """One theorem on a group of order at least ``least_order`` (abelian with
    ``abelian_only``): ``fwd`` and ``rev`` are the (ks, collect) of the
    sweeps that ``per_s(t, scan, smask, idx, fwd, rev)`` reads for each
    generating S, ``idx`` its index among them; ``pairs(g, scan, rng, t)``
    runs after the pass."""

    fwd: tuple | None = None
    rev: tuple | None = None
    per_s: Callable | None = None
    pairs: Callable | None = None
    least_order: int = 1
    abelian_only: bool = False


_THEOREMS = {
    "one_atom": _Theorem(((1,), "atoms"), ((1,), "atoms"), _one_atom, least_order=2),
    "olson": _Theorem(((1,), "atoms"), ((1,), "atoms"), _olson, _olson_pairs,
                      least_order=2),
    "orderbase": _Theorem(pairs=_orderbase),
    "coset_deficiency": _Theorem(((1,), "none"), None, _keep_kappa1, _coset_deficiency),
    "small_sets": _Theorem(((1, 2), "atoms"), ((2,), "alpha"), _small_sets,
                           _small_sets_pairs),
    "abelian_two_atoms": _Theorem(((1, 2), "atoms"), ((1, 2), "alpha"), _abelian_two_atoms,
                                  abelian_only=True),
    "atom_coverage": _Theorem(((2,), "atoms"), ((2,), "atoms"), _atom_coverage,
                              least_order=3),
    "classical": _Theorem(pairs=_classical),
}
THEOREM_IDS = tuple(_THEOREMS)


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
            # xH = H = Hx for x in H, so u lies outside H
            u = normality_witness(g, cand)
            if u is not None:
                hm = cand
                break
    if hm is None:
        return {"found": False, "reason": "no non-normal subgroup of order 3"}
    smask = hm | mask_mul_elem(g, hm, u)
    scan = GroupScan(g)
    if scan.hull(smask) != (1 << n) - 1:
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


def _sweep(scan: GroupScan, wants: list[tuple], rev: bool):
    """One sweep over the union of the ks with 2k - 1 <= n in ``wants``, a
    list of (ks, collect), at its highest level; empty results if no k."""
    ks = sorted({k for want_ks, _ in wants for k in want_ks if 2 * k - 1 <= scan.n})
    if not ks:
        return itertools.repeat((None, {}))
    level = max((c for _, c in wants), key=("none", "alpha", "atoms").index)
    return scan.sweep(tuple(ks), level, rev=rev)


def _run_group(task: tuple[str, tuple[str, ...], int]) -> dict[str, _Tally]:
    """The given theorems on one catalog group, in one pass: at most one
    sweep each way, each generating S handed to every per-S check, then
    each theorem's pair half with its per-(theorem, group) seed."""
    spec, theorems, seed = task
    g = build(spec)
    scan = GroupScan(g)
    tallies = {tid: _Tally(g.name) for tid in theorems}
    live = [(tid, _THEOREMS[tid]) for tid in theorems]
    live = [(tid, th) for tid, th in live
            if g.order >= th.least_order and (g.abelian or not th.abelian_only)]
    checks = [(tallies[tid], th.per_s) for tid, th in live if th.per_s]
    if checks:
        fwd = _sweep(scan, [th.fwd for _, th in live if th.fwd], rev=False)
        rev = _sweep(scan, [th.rev for _, th in live if th.rev], rev=True)
        idx = 0
        for (smask, f), (_, r) in zip(fwd, rev):
            if scan.generates(smask):
                for t, per_s in checks:
                    per_s(t, scan, smask, idx, f, r)
                idx += 1
    for tid, th in live:
        if th.pairs:
            th.pairs(g, scan, random.Random(_instance_seed(seed, tid, spec)), tallies[tid])
    return tallies


def run(
    theorems: str | list[str] = "all",
    max_order: int = 12,
    seed: int = 0,
    workers: int = 1,
) -> list[CheckReport]:
    """Run the selected checkers over the catalog up to max_order, one task
    per group.  Theorems share each group's pass, so each report's
    ``elapsed`` is the wall time of the whole call."""
    start = time.perf_counter()
    if theorems == "all":
        selected = list(THEOREM_IDS)
    elif isinstance(theorems, str):
        selected = [theorems]
    else:
        selected = list(theorems)
    for tid in selected:
        if tid not in _THEOREMS:
            raise ValueError(
                f"unknown theorem {tid!r}; known: {', '.join(THEOREM_IDS)}"
            )
    if len(set(selected)) < len(selected):
        raise ValueError(f"theorem listed twice: {', '.join(selected)}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, not {workers}")
    abelian_only = all(_THEOREMS[tid].abelian_only for tid in selected)
    tasks = [(e.spec, tuple(selected), seed) for e in entries(max_order)
             if not abelian_only or build(e.spec).abelian]
    if workers > 1 and len(tasks) > 1:
        with get_context("fork").Pool(min(workers, len(tasks))) as pool:
            partials = pool.map(_run_group, tasks, chunksize=1)
    else:
        partials = [_run_group(task) for task in tasks]
    reports = []
    for tid in selected:
        tallies = [p[tid] for p in partials]
        tested = sum(t.tested for t in tallies)
        passing = sum(t.passing for t in tallies)
        ces = [ce for t in tallies for ce in t.ces]
        details: dict = {}
        for t in tallies:
            for key, val in t.details.items():
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
                instances_skipped=sum(t.skipped for t in tallies),
                counterexamples=ces,
                elapsed=0.0,
                details=details,
            )
        )
    elapsed = time.perf_counter() - start
    for rep in reports:
        rep.elapsed = elapsed
    return reports
