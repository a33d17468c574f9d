"""Exact isoperimetric connectivity: kappa_k, fragments, atoms, omega.

The k-th connectivity of a reflexive graph is the minimum boundary size
|Gamma(X) \\ X| over finite X with |X| >= k and at least k vertices
outside Gamma(X).  Minimizers are k-fragments; minimum-cardinality
minimizers are k-atoms.  When no X qualifies the graph is non
k-separable and kappa_k = |V| - 2k + 1 by convention, with every
k-subset counting as a fragment and an atom.

Everything here is exact.  ``subset_scan`` enumerates the powerset in
one vectorized pass (numpy over 2^20-entry chunks) and, for
vertex-transitive graphs, can be pinned to subsets containing vertex 0,
which loses nothing: translating a qualifying set by a graph automorphism
preserves its boundary size.  ``or_table`` builds every image table, here
and in the catalog sweeps, by doubling over the power set: the images of
the low vertices once per scan, then one OR per chunk for the high ones.
Each (chunk, k) reduces to one uint16 key per subset, 32 times the
boundary plus the size, so its minimum gives kappa and alpha, and the
fragment count, fragments and atoms come from the same key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .digraph import FWD, REV, Digraph, GraphError, image_mask, _k_subset_masks
from .groups import FiniteGroup, GroupError, closure_mask, subgroup_as_group
from .sets import ElementSet

_CHUNK_BITS = 20
_EXHAUSTIVE_CAP = 24
_FLOW_THRESHOLD = 20  # above this, kappa_1 goes through max-flow

_pc_tables: dict[int, np.ndarray] = {}


def _pc_of_indices(bits: int) -> np.ndarray:
    tbl = _pc_tables.get(bits)
    if tbl is None:
        tbl = np.bitwise_count(np.arange(1 << bits, dtype=np.uint32)).astype(np.uint8)
        _pc_tables[bits] = tbl
    return tbl


def or_table(base, gens) -> np.ndarray:
    """uint32 table with ``out[y] = base | OR of gens[j] over the set bits j
    of y``.  ``base`` and every ``gens[j]`` are int masks or uint32 arrays
    of one shape; the table doubles along its first axis, one slice per gen."""
    out = np.empty((1 << len(gens), *np.shape(base)), dtype=np.uint32)
    out[0] = base
    for j, gen in enumerate(gens):
        np.bitwise_or(out[:1 << j], gen, out=out[1 << j:2 << j])
    return out


class ScanResult(NamedTuple):
    separable: bool
    kappa: int
    alpha: int | None
    atom_masks: tuple[int, ...] | None
    frag_masks: tuple[int, ...] | None
    frag_count: int | None


def subset_scan(
    rows: Sequence[int],
    n: int,
    ks: tuple[int, ...],
    *,
    pin0: bool = False,
    collect: str = "all",
) -> dict[int, ScanResult]:
    """Scan every subset X (optionally only X containing vertex 0).

    ``rows`` must be reflexive adjacency masks.  Returns per requested k
    the exact connectivity data at the ``collect`` level: "none" (kappa
    and separability), "alpha" (plus atom cardinality and fragment
    count), "atoms" (plus atom masks), "all" (plus every fragment mask).

    One pass: the images of the low ``_CHUNK_BITS`` free vertices form
    one table, each chunk ORs in one image of the high vertices, and each
    (chunk, k) is reduced once through the key ``32 |XB \\ X| + |X|``.
    Chunks merge into a running minimum, in ascending mask order.
    """
    if collect not in ("none", "alpha", "atoms", "all"):
        raise ValueError(f"unknown collect level {collect!r}")
    free = rows[1:n] if pin0 else rows[:n]
    lo = min(len(free), _CHUNK_BITS)
    low = or_table(rows[0] if pin0 else 0, free[:lo])
    high = or_table(0, free[lo:])
    pc_y = _pc_of_indices(lo)
    img = low if len(high) == 1 else np.empty_like(low)
    pc = np.empty(low.shape, dtype=np.uint8)
    key = np.empty(low.shape, dtype=np.uint16)
    flag = np.empty(low.shape, dtype=bool)
    def masks(h: int) -> list[int]:
        """The flagged X of chunk h, ascending."""
        m = np.flatnonzero(flag) + (h << lo)
        return (m << 1 | 1 if pin0 else m).tolist()

    # per k: [kappa, alpha, fragment count, fragment masks, atom masks]
    state: dict[int, list] = {}
    for h, hmask in enumerate(high):
        if img is not low:
            np.bitwise_or(low, hmask, out=img)
        np.bitwise_count(img, out=pc)
        c = h.bit_count() + pin0  # |X| = pc_y + c
        for k in ks:
            # key = 32 (|XB| - |X|) + |X|, or 0xFFFF when X is infeasible:
            # |X| < k, or fewer than k vertices outside XB
            np.subtract(pc, pc_y, out=key, dtype=np.uint16)
            np.left_shift(key, 5, out=key)
            np.add(key, pc_y, out=key)
            np.subtract(key, 31 * c, out=key)
            np.greater(pc, n - k, out=flag)
            np.copyto(key, 0xFFFF, where=flag)
            np.less(pc_y, k - c, out=flag)
            np.copyto(key, 0xFFFF, where=flag)
            m = int(key.min())
            kap, alpha = m >> 5, m & 31
            st = state.get(k)
            if m == 0xFFFF or (st is not None and kap > st[0]):
                continue
            if st is None or kap < st[0]:
                st = state[k] = [kap, alpha, 0, [], []]
            if collect == "none":
                continue
            np.less_equal(key, 32 * kap + 31, out=flag)
            st[2] += int(np.count_nonzero(flag))
            if collect == "all":
                st[3].extend(masks(h))
            if alpha < st[1]:
                st[1], st[4] = alpha, []
            if alpha == st[1] and collect != "alpha":
                np.equal(key, m, out=flag)
                st[4].extend(masks(h))

    out: dict[int, ScanResult] = {}
    for k in ks:
        st = state.get(k)
        if st is None:
            out[k] = ScanResult(False, n - 2 * k + 1, None, None, None, None)
        elif collect == "none":
            out[k] = ScanResult(True, st[0], None, None, None, None)
        else:
            kap, alpha, count, frags, atoms_k = st
            out[k] = ScanResult(
                True,
                kap,
                alpha,
                tuple(atoms_k) if collect != "alpha" else None,
                tuple(frags) if collect == "all" else None,
                count,
            )
    return out


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsoProfile:
    """Connectivity record for one (k, sign) of a graph.

    For non-separable graphs ``fragments``/``atoms`` are None and the
    convention values apply: every k-subset is a fragment and an atom.
    """

    k: int
    sign: str
    separable: bool
    kappa: int
    alpha: int
    omega: int
    atoms: tuple[ElementSet, ...] | None
    fragments: tuple[ElementSet, ...] | None
    fragments_count: int


def _require_scannable(g: Digraph, k: int) -> None:
    if k < 1:
        raise GraphError("k must be >= 1")
    if not g.reflexive:
        raise GraphError("isoperimetric quantities need a reflexive graph")
    if g.n < 2 * k - 1:
        raise GraphError(f"kappa_{k} undefined: need at least {2 * k - 1} vertices")


def _translate_mask(mask: int, perm: Sequence[int]) -> int:
    out = 0
    m = mask
    while m:
        low = m & -m
        out |= 1 << perm[low.bit_length() - 1]
        m ^= low
    return out


def _expand_by_translation(
    masks: Sequence[int], translations: Sequence[Sequence[int]]
) -> tuple[int, ...]:
    seen = set()
    for perm in translations:
        for m in masks:
            seen.add(_translate_mask(m, perm))
    return tuple(sorted(seen))


@lru_cache(maxsize=128)
def _profile_impl(g: Digraph, k: int, sign: str) -> IsoProfile:
    rows = g.rows_for(sign)
    n = g.n
    pinnable = g.transitive and g.translations is not None
    use_pin = pinnable and n > 16
    res = subset_scan(rows, n, (k,), pin0=use_pin, collect="all")[k]
    if not res.separable:
        return IsoProfile(
            k=k,
            sign=sign,
            separable=False,
            kappa=res.kappa,
            alpha=k,
            omega=math.comb(n - 1, k - 1),
            atoms=None,
            fragments=None,
            fragments_count=math.comb(n, k),
        )
    frag_masks = res.frag_masks
    atom_masks = res.atom_masks
    count = res.frag_count
    if use_pin:
        frag_masks = _expand_by_translation(frag_masks, g.translations)
        atom_masks = tuple(
            m for m in frag_masks if m.bit_count() == res.alpha
        )
        count = len(frag_masks)
    if g.transitive:
        omega = sum(1 for m in atom_masks if m & 1)
    else:
        per_vertex = [0] * n
        for m in atom_masks:
            mm = m
            while mm:
                low = mm & -mm
                per_vertex[low.bit_length() - 1] += 1
                mm ^= low
        omega = min(per_vertex)
    return IsoProfile(
        k=k,
        sign=sign,
        separable=True,
        kappa=res.kappa,
        alpha=res.alpha,
        omega=omega,
        atoms=tuple(ElementSet(n, m) for m in atom_masks),
        fragments=tuple(ElementSet(n, m) for m in frag_masks),
        fragments_count=count,
    )


def profile(g: Digraph, k: int, sign: str = FWD) -> IsoProfile:
    """Full exact connectivity profile (enumerative; |V| capped at 24)."""
    _require_scannable(g, k)
    if g.n > _EXHAUSTIVE_CAP:
        raise GraphError(
            f"exhaustive enumeration is capped at {_EXHAUSTIVE_CAP} vertices "
            f"(graph has {g.n}); refusing to approximate"
        )
    return _profile_impl(g, k, sign)


def kappa(g: Digraph, k: int, sign: str = FWD) -> int:
    """kappa_k, exact.  k=1 on graphs above 20 vertices goes through flow."""
    _require_scannable(g, k)
    if k == 1 and g.n > _FLOW_THRESHOLD:
        from .menger import kappa1_flow
        from .digraph import reverse

        return kappa1_flow(g if sign == FWD else reverse(g))
    if g.n > _EXHAUSTIVE_CAP:
        raise GraphError(
            f"exhaustive enumeration is capped at {_EXHAUSTIVE_CAP} vertices "
            f"(graph has {g.n}); refusing to approximate"
        )
    return _profile_impl(g, k, sign).kappa


def fragments(g: Digraph, k: int, sign: str = FWD) -> Iterator[ElementSet]:
    """All k-fragments in increasing bitmask order (streamed when the
    graph is non-separable and the convention lists every k-subset)."""
    p = profile(g, k, sign)
    if p.separable:
        return iter(p.fragments)
    n = g.n
    return (ElementSet(n, m) for m in _k_subset_masks(n, k))


def atoms(g: Digraph, k: int, sign: str = FWD) -> tuple[int, tuple[ElementSet, ...]]:
    """(alpha_k, all k-atoms).  Non-separable graphs list every k-subset."""
    p = profile(g, k, sign)
    if p.separable:
        return p.alpha, p.atoms
    return k, tuple(ElementSet(g.n, m) for m in _k_subset_masks(g.n, k))


def omega(g: Digraph, k: int, sign: str = FWD) -> int:
    """Minimum over vertices of the number of k-atoms containing it."""
    return profile(g, k, sign).omega


def alpha(g: Digraph, k: int, sign: str = FWD) -> int:
    return profile(g, k, sign).alpha


# ---------------------------------------------------------------------------
# subset classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsetInvariants:
    """Connectivity invariants of a generating-or-not subset S with 1 in S.

    Quantities live in the subgroup generated by S.  ``kappa2``/``mu``
    are None when that subgroup has fewer than 3 elements.
    """

    delta: int
    kappa1: int
    kappa2: int | None
    mu: int | None
    cauchy: bool
    vosper: bool
    two_separable: bool
    generates: bool
    hull_order: int


def cayley_in_hull(g: FiniteGroup, s: ElementSet) -> tuple[Digraph, FiniteGroup]:
    """Cay(<S>, S): the Cayley graph of S inside the subgroup it generates."""
    from .digraph import cayley_graph

    if 0 not in s:
        raise GroupError("subset invariants need the identity in S")
    hull = closure_mask(g, s.mask)
    if hull == (1 << g.order) - 1:
        return cayley_graph(g, s), g
    sub, elems = subgroup_as_group(g, ElementSet(g.order, hull))
    pos = {e: i for i, e in enumerate(elems)}
    s_sub = ElementSet(sub.order, [pos[e] for e in s])
    return cayley_graph(sub, s_sub), sub


def classify(g: FiniteGroup, s: ElementSet) -> SubsetInvariants:
    """Cauchy/Vosper classification and the defect of S (inside <S>)."""
    from .digraph import is_k_separable

    graph, hull_group = cayley_in_hull(g, s)
    n = graph.n
    delta = len(s)
    k1 = kappa(graph, 1)
    if n >= 3:
        k2 = kappa(graph, 2)
        mu = k2 - delta
    else:
        k2 = None
        mu = None
    two_sep = is_k_separable(graph, 2)[0] if n >= 4 else False
    vosper = (not two_sep) or (k2 is not None and k2 >= delta)
    return SubsetInvariants(
        delta=delta,
        kappa1=k1,
        kappa2=k2,
        mu=mu,
        cauchy=(k1 == delta - 1),
        vosper=vosper,
        two_separable=two_sep,
        generates=(n == g.order),
        hull_order=n,
    )


# ---------------------------------------------------------------------------
# structural checks (each returns a CheckResult instead of asserting)
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    ok: bool
    checked: int
    counterexamples: list[dict]

    def __bool__(self) -> bool:
        return self.ok


def _frag_env(g: Digraph, k: int, sign: str):
    """(kappa, fragment masks, fragment mask set) for one sign."""
    p = profile(g, k, sign)
    if not p.separable:
        return p.kappa, None, None
    masks = tuple(f.mask for f in p.fragments)
    return p.kappa, masks, frozenset(masks)


def check_duality(g: Digraph, k: int) -> CheckResult:
    """kappa_k == kappa_-k, plus the boundary identities linking every
    forward fragment X to its far side X^wedge."""
    _require_scannable(g, k)
    pf = profile(g, k, FWD)
    pr = profile(g, k, REV)
    ces: list[dict] = []
    checked = 1
    if pf.kappa != pr.kappa:
        ces.append({"what": "kappa mismatch", "fwd": pf.kappa, "rev": pr.kappa})
    if pf.separable and not ces:
        full = (1 << g.n) - 1
        rows_f = g.rows
        rows_r = g.in_rows
        rev_frags = frozenset(f.mask for f in pr.fragments)
        for frag in pf.fragments:
            checked += 1
            xm = frag.mask
            gx = image_mask(rows_f, xm)
            wedge = full & ~gx
            bnd = gx & ~xm
            bnd_rev = image_mask(rows_r, wedge) & ~wedge
            back = full & ~image_mask(rows_r, wedge)
            if bnd_rev != bnd or back != xm or wedge not in rev_frags:
                ces.append(
                    {
                        "what": "fragment duality failure",
                        "fragment": frag.indices(),
                        "boundary": sorted(ElementSet(g.n, bnd)),
                        "reverse_boundary_of_wedge": sorted(ElementSet(g.n, bnd_rev)),
                        "wedge_is_reverse_fragment": wedge in rev_frags,
                    }
                )
    return CheckResult(not ces, checked, ces)


def check_submodularity(
    g: Digraph, samples: int | None = None, seed: int = 0
) -> CheckResult:
    """|bd(X u Y)| + |bd(X n Y)| <= |bd(X)| + |bd(Y)| over set pairs."""
    if not g.reflexive:
        raise GraphError("submodularity check needs a reflexive graph")
    n, rows = g.n, g.rows
    full = (1 << n) - 1

    def bnd(m: int) -> int:
        return (image_mask(rows, m) & ~m).bit_count()

    if samples is None:
        if n > 8:
            raise GraphError("exhaustive pair check capped at 8 vertices")
        pairs = (
            (x, y) for x in range(1, full + 1) for y in range(1, full + 1)
        )
    else:
        import random

        rng = random.Random(seed)
        pairs = (
            (rng.randrange(1, full + 1), rng.randrange(1, full + 1))
            for _ in range(samples)
        )
    checked = 0
    for x, y in pairs:
        checked += 1
        if bnd(x | y) + bnd(x & y) > bnd(x) + bnd(y):
            return CheckResult(
                False,
                checked,
                [{"X": sorted(ElementSet(n, x)), "Y": sorted(ElementSet(n, y))}],
            )
    return CheckResult(True, checked, [])


def check_fragment_intersection(g: Digraph, k: int) -> CheckResult:
    """Closure of fragments under union/intersection, and the atom laws:
    an atom meeting a fragment in >= k points lies inside it, so distinct
    atoms share at most k-1 points (when alpha_k <= alpha_-k)."""
    _require_scannable(g, k)
    sep, _ = _separable(g, k)
    if not sep:
        raise GraphError("fragment intersection needs a k-separable graph")
    n, rows = g.n, g.rows
    full = (1 << n) - 1
    kap, masks, frag_set = _frag_env(g, k, FWD)
    ces: list[dict] = []
    checked = 0
    wedge_of = {m: full & ~image_mask(rows, m) for m in masks}
    for x in masks:
        for y in masks:
            inter = x & y
            if inter.bit_count() < k:
                continue
            if x.bit_count() - inter.bit_count() + k > wedge_of[y].bit_count():
                continue
            checked += 1
            if inter not in frag_set or (x | y) not in frag_set:
                ces.append(
                    {
                        "what": "union/intersection not fragments",
                        "X": sorted(ElementSet(n, x)),
                        "Y": sorted(ElementSet(n, y)),
                    }
                )
    pf = profile(g, k, FWD)
    pr = profile(g, k, REV)
    a_fwd = pf.alpha
    a_rev = pr.alpha if pr.separable else k
    if a_fwd <= a_rev:
        atom_masks = [a.mask for a in pf.atoms]
        for i, a in enumerate(atom_masks):
            for b in atom_masks[i + 1 :]:
                checked += 1
                if (a & b).bit_count() > k - 1:
                    ces.append(
                        {
                            "what": "distinct atoms overlap too much",
                            "A": sorted(ElementSet(n, a)),
                            "B": sorted(ElementSet(n, b)),
                        }
                    )
            for f in masks:
                if (a & f).bit_count() >= k:
                    checked += 1
                    if a & ~f:
                        ces.append(
                            {
                                "what": "atom not inside fragment it meets",
                                "A": sorted(ElementSet(n, a)),
                                "F": sorted(ElementSet(n, f)),
                            }
                        )
    return CheckResult(not ces, checked, ces)


def _separable(g: Digraph, k: int) -> tuple[bool, int]:
    p = profile(g, k, FWD)
    return p.separable, p.kappa


def check_overlap_bounds(g: Digraph, k: int) -> CheckResult:
    """Boundary/image bounds for ordered fragment pairs (A, F) with
    |A| <= |F^wedge| and |A n F| >= k-1 (needs k >= 2)."""
    if k < 2:
        raise GraphError("overlap bounds need k >= 2")
    _require_scannable(g, k)
    sep, kap = _separable(g, k)
    if not sep:
        raise GraphError("overlap bounds need a k-separable graph")
    kap_prev = kappa(g, k - 1)
    n, rows = g.n, g.rows
    full = (1 << n) - 1
    _, masks, _ = _frag_env(g, k, FWD)
    ces: list[dict] = []
    checked = 0
    img_of = {m: image_mask(rows, m) for m in masks}
    for a in masks:
        ia = img_of[a]
        wa = full & ~ia
        ba = ia & ~a
        for f in masks:
            iff = img_of[f]
            wf = full & ~iff
            if a.bit_count() > wf.bit_count():
                continue
            if (a & f).bit_count() < k - 1:
                continue
            checked += 1
            bf = iff & ~f
            ok = (
                (a & bf).bit_count() <= (ba & wf).bit_count()
                and (ia & iff).bit_count() <= (a & f).bit_count() + kap
                and (wf & ~wa).bit_count() <= (a & ~f).bit_count() + kap - kap_prev
            )
            if not ok:
                ces.append(
                    {
                        "A": sorted(ElementSet(n, a)),
                        "F": sorted(ElementSet(n, f)),
                    }
                )
    return CheckResult(not ces, checked, ces)


def check_dual_order(g: Digraph, k: int) -> CheckResult:
    """X subset-of Y iff Y^wedge subset-of X^wedge, over fragment pairs."""
    _require_scannable(g, k)
    sep, _ = _separable(g, k)
    if not sep:
        raise GraphError("dual order check needs a k-separable graph")
    n, rows = g.n, g.rows
    full = (1 << n) - 1
    _, masks, _ = _frag_env(g, k, FWD)
    wedge_of = {m: full & ~image_mask(rows, m) for m in masks}
    ces: list[dict] = []
    checked = 0
    for x in masks:
        for y in masks:
            checked += 1
            if (x & ~y == 0) != (wedge_of[y] & ~wedge_of[x] == 0):
                ces.append(
                    {"X": sorted(ElementSet(n, x)), "Y": sorted(ElementSet(n, y))}
                )
    return CheckResult(not ces, checked, ces)


def verify_isoperimetric_inequality(g: Digraph, k: int, sign: str = FWD) -> bool:
    """|Gamma(X)| >= min(|V|-k+1, |X|+kappa_k) for every |X| >= k, and
    kappa_k is largest with that property when the graph is separable."""
    _require_scannable(g, k)
    if g.n > _CHUNK_BITS:
        raise GraphError("inequality sweep materializes 2^n arrays; capped at 20")
    rows = g.rows_for(sign)
    n = g.n
    res = subset_scan(rows, n, (k,), collect="none")[k]
    kap = res.kappa
    pc_x = _pc_of_indices(n).astype(np.int16)
    pc_img = np.bitwise_count(or_table(0, rows)).astype(np.int16)
    rel = pc_x >= k
    holds = bool(
        np.all(pc_img[rel] >= np.minimum(n - k + 1, pc_x[rel] + kap))
    )
    if not holds:
        return False
    if res.separable:
        # maximality: some qualifying X attains |Gamma(X)| = |X| + kappa <= n - k
        attains = rel & (pc_img == pc_x + kap) & (pc_img <= n - k)
        return bool(attains.any())
    return True
