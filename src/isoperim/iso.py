"""Exact isoperimetric connectivity: kappa_k, fragments, atoms, omega.

The k-th connectivity of a reflexive graph is the minimum boundary size
|Gamma(X) \\ X| over finite X with |X| >= k and at least k vertices
outside Gamma(X).  Minimizers are k-fragments; minimum-cardinality
minimizers are k-atoms.  When no X qualifies the graph is non
k-separable and kappa_k = |V| - 2k + 1 by convention, with every
k-subset counting as a fragment and an atom.

Everything here is exact.  ``subset_scan`` enumerates the powerset in
one vectorized pass (numpy over 2^16-entry chunks, whose image and
popcount buffers, about 320 KB, fit in a 2 MB L2 cache) and, for
vertex-transitive graphs, can be pinned to subsets containing vertex 0,
which loses nothing: translating a qualifying set by a graph automorphism
preserves its boundary size.  ``or_table`` builds every image table, here
and in the catalog sweeps, by doubling over the power set.  A chunk of
``subset_scan`` is laid out by |X| class: the outer OR of two tables of
the images of the low vertices, each in popcount order, with the image
of the high ones.  Split by s = |X|, kappa_k is the least min |XB| - s over the
classes s >= k, and since |XB| <= |V| - k is the feasibility bound, a
class is feasible exactly when its minimum is; so one popcount and one
minimum per class give kappa and alpha, and fragments are counted and
listed only in the classes of a chunk that can still tie.  ``_Reducer``,
the kernel of the catalog sweeps, reduces each row of a block (one S) to
one key per subset: the row minimum gives kappa and alpha, and fragments
and atoms come from the same keys.

Single-graph queries scan only what they return.  ``kappa`` (below the
flow threshold), ``alpha``, ``atoms``, ``omega`` and ``classify`` read
cached atoms-level records, scanned at collect "atoms": no fragment is
listed.  One scan serves the pair k = 2j - 1, 2j (each with 2k - 1 <= |V|)
and is cached per (graph, pair, sign), since the queries ask for kappa_1
and kappa_2 together and a scan for both costs little more than one for
either.  Above 16 vertices a vertex-transitive graph's records are
scanned through vertex 0 and their few atoms expanded by the
translations.  ``profile``, ``fragments`` and the ``check_*``
functions read the full profile, scanned at collect "all" and never
pinned, since mapping every fragment by every translation costs far more
than the half of the scan that pinning saves; it takes kappa, alpha, the
atoms and omega from the same record builder.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .digraph import FWD, REV, Digraph, GraphError, image_mask, _k_subset_masks
from .groups import FiniteGroup, GroupError, closure_mask, subgroup_as_group
from .sets import ElementSet, bits_of, randrange_draws

# 2^16 subsets per chunk: an image (uint32) and a popcount (uint8) buffer,
# about 320 KB, L2-sized.  GroupScan.sweep's blocks hold as many (S, X)
# pairs, in about 1 MB of image tables and key buffers, which 2^17 would
# double.
_CHUNK_BITS = 16
_EXHAUSTIVE_CAP = 24
_INEQUALITY_CAP = 20  # verify_isoperimetric_inequality holds 2^n arrays
_FLOW_THRESHOLD = 20  # above this, kappa_1 goes through max-flow


@lru_cache(maxsize=None)
def _pc_of_indices(bits: int) -> np.ndarray:
    """The popcount of every y < 2^bits (uint8)."""
    return np.bitwise_count(np.arange(1 << bits, dtype=np.uint32))


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


@lru_cache(maxsize=None)
def _small_columns(bits: int, t: int) -> tuple[int, ...]:
    """The few y < 2^bits with fewer than t bits set."""
    return tuple(y for j in range(t) for y in _k_subset_masks(bits, j))


def _check_ks(n: int, ks: tuple[int, ...]) -> None:
    if any(k < 1 or 2 * k - 1 > n for k in ks):
        raise ValueError(f"kappa_k needs 1 <= k and 2k - 1 <= {n}, not ks={ks!r}")


class _Reducer:
    """Reduces 2-D uint32 blocks of images XB to ``ScanResult`` fields:
    the kernel of ``catalog.GroupScan.sweep``.

    Each row of a block is one scan; column y holds the image of X = y,
    or ``y << 1 | 1`` when ``pin`` keeps vertex 0 in X.  Each (row, k)
    minimises the key ``(|XB| - |X|) << w | (|X| - 1)``, uint8 with w = 4
    up to 16 vertices and uint16 with w = 5 above, or the maximum when X
    is infeasible (|X| < k, or fewer than k vertices outside XB).  The
    buffers, allocated once, hold ``~key``: a multiply by the feasibility
    flags sends an infeasible X to 0, and the row maximum is ~(min key).
    """

    def __init__(self, shape: tuple[int, int], n: int, ks: tuple[int, ...],
                 collect: str, pin: bool):
        _check_ks(n, ks)
        self.n, self.ks, self.collect, self.pin = n, ks, collect, pin
        self.bits = shape[1].bit_length() - 1
        self.w, dtype = (4, np.uint8) if n <= 16 else (5, np.uint16)
        self.top = np.iinfo(dtype).max
        self.size = _pc_of_indices(self.bits) + pin  # |X|
        # a row's fragment count is at most its column count
        self.count_dtype = np.uint16 if self.bits < 16 else np.uint32
        self.pc = np.empty(shape, dtype=np.uint8)
        self.key = np.empty(shape, dtype=dtype)
        # with one k, ~key is masked in place and the flags overwrite |XB|
        one = len(ks) == 1
        self.kk = self.key if one else np.empty(shape, dtype=dtype)
        self.flag = self.pc.view(bool) if one else np.empty(shape, dtype=bool)

    def _masks(self, m: np.ndarray) -> list[tuple[int, ...]]:
        """Per row, the flagged X, ascending; none where no X is feasible."""
        self.flag[m == 0] = False
        at = np.flatnonzero(self.flag)  # 2-D np.nonzero is many times slower
        per_row = np.bincount(at >> self.bits, minlength=len(m)).tolist()
        pin = self.pin
        xs = iter(((at & ((1 << self.bits) - 1)) << pin | pin).tolist())
        return [tuple(islice(xs, count)) for count in per_row]

    def __call__(self, img: np.ndarray) -> list[dict[int, ScanResult]]:
        """Per row of ``img``, the result of each k over the row's X."""
        pc, key, kk, flag = self.pc, self.key, self.kk, self.flag
        n, w, top, collect = self.n, self.w, self.top, self.collect
        low = (1 << w) - 1
        np.bitwise_count(img, out=pc)
        # ~key = -1 - key = 2^w (|X| - |XB|) - |X|, mod 2^8 or 2^16
        np.subtract(self.size, pc, out=key, dtype=key.dtype)
        np.multiply(key, 1 << w, out=key)
        np.subtract(key, self.size, out=key)
        out: list[dict[int, ScanResult]] = [{} for _ in range(len(img))]
        for k in self.ks:
            np.less_equal(pc, n - k, out=flag)
            if k > self.pin:
                flag[:, _small_columns(self.bits, k - self.pin)] = False
            np.multiply(key, flag.view(np.uint8), out=kk)
            m = kk.max(axis=1)
            counts = atoms = frags = [None] * len(m)
            if collect != "none":
                # fragments: key <= kappa << w | low, that is ~key >= m & ~low
                np.greater_equal(kk, (m & (top - low))[:, None], out=flag)
                counts = np.add.reduce(flag.view(np.uint8), axis=1,
                                       dtype=self.count_dtype).tolist()
            if collect == "all":
                frags = self._masks(m)
            if collect in ("atoms", "all"):
                np.equal(kk, m[:, None], out=flag)
                atoms = self._masks(m)
            nonsep = ScanResult(False, n - 2 * k + 1, None, None, None, None)
            for i, v in enumerate(m.tolist()):
                v = top - v
                alpha = None if collect == "none" else (v & low) + 1
                out[i][k] = nonsep if v == top else ScanResult(
                    True, v >> w, alpha, atoms[i], frags[i], counts[i])
        return out


@lru_cache(maxsize=None)
def _classes(bits: int) -> tuple[np.ndarray, list[int]]:
    """The y < 2^bits ordered by popcount, ascending within a popcount,
    and the bounds of the popcount classes 0..bits in that order."""
    pc = _pc_of_indices(bits)
    order = np.argsort(pc, kind="stable")
    return order, np.searchsorted(pc[order], np.arange(bits + 2)).tolist()


class _Layout(NamedTuple):
    """A chunk of 2^lo subsets y as a grid: row i holds the high lo - la
    bits ``b_ord[i]`` of y, column j the low bits ``a_ord[j]``, and both
    halves run in popcount order, so that a (row class, column class)
    pair is a block and |y| is the sum of the two classes."""

    la: int
    a_ord: np.ndarray
    a_bd: list[int]  # column class c spans a_bd[c]:a_bd[c + 1]
    b_ord: np.ndarray
    b_bd: list[int]
    starts: np.ndarray  # flat start of each (row, column class) segment
    diag: np.ndarray  # the segments grouped by |y| ...
    diag_st: np.ndarray  # ... and where each group starts
    ys: np.ndarray  # y in every cell (uint32); ascending along each block's rows


@lru_cache(maxsize=None)
def _layout(lo: int) -> _Layout:
    # rows of at least 2^12 entries, and at most 16 of them, keep the outer
    # OR as fast as a flat OR; 2^11 entries or 32 rows ran 2-3x slower
    lb = min(4, max(0, lo - 12))
    la = lo - lb
    a_ord, a_bd = _classes(la)
    b_ord, b_bd = _classes(lb)
    starts = (np.arange(1 << lb)[:, None] << la) + np.array(a_bd[:-1])
    size = (_pc_of_indices(lb)[b_ord][:, None] + np.arange(la + 1)).ravel()
    diag = np.argsort(size, kind="stable")
    return _Layout(la, a_ord, a_bd, b_ord, b_bd, starts.ravel(), diag,
                   np.searchsorted(size[diag], np.arange(lo + 1)),
                   (b_ord[:, None] << la | a_ord).astype(np.uint32))


def subset_scan(
    rows: Sequence[int],
    n: int,
    ks: tuple[int, ...],
    *,
    pin0: bool = False,
    collect: str = "all",
) -> dict[int, ScanResult]:
    """Scan every subset X (optionally only X containing vertex 0).

    ``rows`` must be reflexive adjacency masks.  Returns per requested
    (distinct) k the exact connectivity data at the ``collect`` level: "none" (kappa
    and separability), "alpha" (plus atom cardinality and fragment
    count), "atoms" (plus atom masks), "all" (plus every fragment mask).
    A k outside 1 <= k, 2k - 1 <= n raises ``ValueError``.

    One pass over chunks of 2^``_CHUNK_BITS`` subsets, in ascending mask
    order.  A chunk is a grid: the outer OR of two tables of the images
    of its low free vertices, rows and columns each in popcount order,
    with the image of its high ones, so that each |X| class is a few
    rectangular blocks.  One popcount and ``minimum.reduceat`` over the
    blocks give each class's least |XB|.  Since |XB| <=
    n - k is the feasibility bound, a class is feasible exactly when its
    minimum is, and the chunk's kappa_k is the least ``min |XB| - |X|``
    over the feasible classes with |X| >= k.  A chunk whose kappa exceeds
    the running one is dropped; otherwise fragments are counted only in
    the blocks that can hold them, and masks listed only from the classes
    that attain kappa (atoms from the least such class, when it does not
    exceed the running alpha).
    """
    if collect not in ("none", "alpha", "atoms", "all"):
        raise ValueError(f"unknown collect level {collect!r}")
    if len(set(ks)) != len(ks):
        raise ValueError(f"repeated k in {ks!r}")
    _check_ks(n, ks)
    pin = int(pin0)
    free = rows[1:n] if pin else rows[:n]
    lo = min(len(free), _CHUNK_BITS)
    lay = _layout(lo)
    la, a_bd, b_bd = lay.la, lay.a_bd, lay.b_bd
    a = or_table(rows[0] if pin else 0, free[:la])[lay.a_ord]
    b = or_table(0, free[la:lo])[lay.b_ord]
    img = np.empty((len(b), len(a)), dtype=np.uint32)
    pc = np.empty(img.shape, dtype=np.uint8)
    runs: dict[int, list] = {}  # k -> [kappa, alpha, count, atom arrays, fragment arrays]

    def blocks(j):
        # the blocks of class j whose least |XB| is cm[j], flagging those X
        for rc in range(max(0, j - la), min(lo - la, j) + 1):
            if grid[rc][j - rc] == cm[j]:
                at = slice(b_bd[rc], b_bd[rc + 1]), slice(a_bd[j - rc], a_bd[j - rc + 1])
                yield at, pc[at] == cm[j]

    def listed(j):
        # the masks X of class j with |XB| = cm[j], ascending; each block
        # lists its own in order, and a stable sort merges those runs
        if j not in memo:
            ys = np.concatenate([lay.ys[at][hit] for at, hit in blocks(j)])
            memo[j] = (np.sort(ys, kind="stable") | h << lo) << pin | pin
        return memo[j]

    def tally(j):
        # how many X of class j have |XB| = cm[j]
        if j in memo:
            return len(memo[j])
        return sum(int(np.count_nonzero(hit)) for _, hit in blocks(j))

    for h, hmask in enumerate(or_table(0, free[lo:]).tolist()):
        np.bitwise_or(np.bitwise_or(b, hmask)[:, None], a, out=img)
        np.bitwise_count(img, out=pc)
        per_row = np.minimum.reduceat(pc.ravel(), lay.starts)
        # class j holds the chunk's X with |y| = j, and cm[j] is its least |XB|
        cm = np.minimum.reduceat(per_row[lay.diag], lay.diag_st).tolist()
        grid, memo = None, {}
        c = h.bit_count() + pin  # |X| = j + c
        for k in ks:
            feasible = [j for j in range(max(0, k - c), lo + 1) if cm[j] <= n - k]
            if not feasible:
                continue
            kap, al = min((cm[j] - j - c, j) for j in feasible)
            run = runs.get(k)
            if run is None or kap < run[0]:
                run = runs[k] = [kap, al + c, 0, [], []]
            elif kap > run[0]:
                continue
            if collect == "none":
                continue
            if grid is None:
                grid = np.minimum.reduceat(per_row.reshape(len(b), -1), b_bd[:-1],
                                           axis=0).tolist()
            if al + c < run[1]:
                run[1], run[3] = al + c, []
            if collect in ("atoms", "all") and al + c == run[1]:
                run[3].append(listed(al))
            attain = [j for j in feasible if cm[j] - j - c == kap]
            if collect == "all":
                run[4].append(np.sort(np.concatenate([listed(j) for j in attain]),
                                      kind="stable"))
            run[2] += sum(tally(j) for j in attain)
    out: dict[int, ScanResult] = {}
    for k in ks:
        if k not in runs:
            out[k] = ScanResult(False, n - 2 * k + 1, None, None, None, None)
            continue
        kap, alpha, frag_count, atoms, frags = runs[k]
        out[k] = ScanResult(
            True, kap, None if collect == "none" else alpha,
            tuple(np.concatenate(atoms).tolist()) if collect in ("atoms", "all") else None,
            tuple(np.concatenate(frags).tolist()) if collect == "all" else None,
            None if collect == "none" else frag_count)
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


class _AtomRecord(NamedTuple):
    """kappa_k, alpha_k, the k-atom masks (ascending) and omega_k of one
    (graph, k, sign); ``atom_masks`` is None for a non-separable graph."""

    separable: bool
    kappa: int
    alpha: int
    omega: int
    atom_masks: tuple[int, ...] | None


def _atom_record(g: Digraph, k: int, res: ScanResult, pinned: bool) -> _AtomRecord:
    """The atoms-level record from a scan at collect "atoms" or "all".  A
    pinned scan found the atoms through vertex 0; every atom translates
    onto one of those, so their translates are all the atoms."""
    n = g.n
    if not res.separable:
        return _AtomRecord(False, res.kappa, k, math.comb(n - 1, k - 1), None)
    atom_masks = res.atom_masks
    if pinned:
        atom_masks = _expand_by_translation(atom_masks, g.translations)
    per_vertex = [0] * n
    for m in atom_masks:
        for v in bits_of(m):
            per_vertex[v] += 1
    return _AtomRecord(True, res.kappa, res.alpha, min(per_vertex), atom_masks)


@lru_cache(maxsize=128)
def _atoms_impl(g: Digraph, j: int, sign: str) -> dict[int, _AtomRecord]:
    # one scan for k = 2j - 1 and 2j; pinning halves it, and the few
    # atoms expand cheaply
    pin = g.transitive and g.n > 16
    ks = tuple(k for k in (2 * j - 1, 2 * j) if 2 * k - 1 <= g.n)
    res = subset_scan(g.rows_for(sign), g.n, ks, pin0=pin, collect="atoms")
    return {k: _atom_record(g, k, res[k], pin) for k in ks}


@lru_cache(maxsize=128)
def _profile_impl(g: Digraph, k: int, sign: str) -> IsoProfile:
    # unpinned: expanding every fragment by every translation costs far
    # more than the half of the scan that pinning saves
    res = subset_scan(g.rows_for(sign), g.n, (k,), collect="all")[k]
    rec = _atom_record(g, k, res, False)
    n = g.n
    if not rec.separable:
        return IsoProfile(k=k, sign=sign, separable=False, kappa=rec.kappa,
                          alpha=rec.alpha, omega=rec.omega, atoms=None,
                          fragments=None, fragments_count=math.comb(n, k))
    frag_masks = res.frag_masks
    return IsoProfile(
        k=k,
        sign=sign,
        separable=True,
        kappa=rec.kappa,
        alpha=rec.alpha,
        omega=rec.omega,
        atoms=tuple(ElementSet(n, m) for m in rec.atom_masks),
        fragments=tuple(ElementSet(n, m) for m in frag_masks),
        fragments_count=len(frag_masks),
    )


def _require_exhaustive(g: Digraph, k: int) -> None:
    _require_scannable(g, k)
    if g.n > _EXHAUSTIVE_CAP:
        raise GraphError(
            f"exhaustive enumeration is capped at {_EXHAUSTIVE_CAP} vertices "
            f"(graph has {g.n}); refusing to approximate"
        )


def _atoms_level(g: Digraph, k: int, sign: str) -> _AtomRecord:
    """The cached atoms-level record (enumerative; |V| capped at 24)."""
    _require_exhaustive(g, k)
    return _atoms_impl(g, (k + 1) // 2, sign)[k]


def profile(g: Digraph, k: int, sign: str = FWD) -> IsoProfile:
    """Full exact connectivity profile (enumerative; |V| capped at 24)."""
    _require_exhaustive(g, k)
    return _profile_impl(g, k, sign)


def kappa(g: Digraph, k: int, sign: str = FWD) -> int:
    """kappa_k, exact.  k=1 on graphs above 20 vertices goes through flow."""
    if k == 1 and g.n > _FLOW_THRESHOLD:
        _require_scannable(g, k)
        from .menger import kappa1_flow
        from .digraph import reverse

        return kappa1_flow(g if sign == FWD else reverse(g))
    return _atoms_level(g, k, sign).kappa


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
    rec = _atoms_level(g, k, sign)
    masks = rec.atom_masks if rec.separable else _k_subset_masks(g.n, k)
    return rec.alpha, tuple(ElementSet(g.n, m) for m in masks)


def omega(g: Digraph, k: int, sign: str = FWD) -> int:
    """Minimum over vertices of the number of k-atoms containing it."""
    return _atoms_level(g, k, sign).omega


def alpha(g: Digraph, k: int, sign: str = FWD) -> int:
    return _atoms_level(g, k, sign).alpha


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
    graph, hull_group = cayley_in_hull(g, s)
    n = graph.n
    delta = len(s)
    k1 = kappa(graph, 1)
    if n >= 3:
        r2 = _atoms_level(graph, 2, FWD)
        k2, mu, two_sep = r2.kappa, r2.kappa - delta, r2.separable
    else:
        k2 = mu = None
        two_sep = False
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
    """|bd(X u Y)| + |bd(X n Y)| <= |bd(X)| + |bd(Y)| over set pairs: every
    pair up to 8 vertices, or ``samples`` seeded ``randrange`` pairs (at
    most 32 vertices)."""
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
        draws = randrange_draws(random.Random(seed), 1, full + 1, 2 * samples)
        pairs = zip(draws[0::2].tolist(), draws[1::2].tolist())
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
    if g.n > _INEQUALITY_CAP:
        raise GraphError(
            f"inequality sweep materializes 2^n arrays; capped at {_INEQUALITY_CAP}")
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
