"""Brute-force reference implementations, independent of the package.

Everything here works on plain Python sets and itertools enumeration,
deliberately avoiding the bitmask/numpy machinery under test.  Slow and
obviously correct; used to freeze expected values and to cross-check.

The checker oracles at the end are the exception: they are the scalar
loops of the ``olson``, ``classical``, ``coset_deficiency`` and
``small_sets`` pair checks, one pair at a time over the plain mask
functions of ``isoperim.groups`` (each checked against ``o_product`` and
``o_closure``), and of ``orderbase``, one S at a time over the group
table, tallying into the checker's own ``_Tally``.  Each takes
``(group, GroupScan, rng, tally)`` and none reads the scan;
``o_coset_deficiency`` takes kappa_1 inside <S> from ``o_closure`` and
``o_kappa``.  ``o_scan_flat`` uses numpy too, on graphs too large for
plain sets: one pass over the whole power set in natural mask order,
with none of ``subset_scan``'s chunks or popcount classes.  The four
``o_check_*`` at the very end are the Python pair loops of ``iso``'s
structural checkers, reading fragments from ``iso.profile`` and images
from ``image_mask``.
"""

import itertools
import math


def adj_sets(g):
    """Adjacency of a Digraph as a tuple of successor sets."""
    return tuple({v for v in range(g.n) if (g.rows[u] >> v) & 1} for u in range(g.n))


def o_product(table, a, b):
    return {table[x][y] for x in a for y in b}


def o_closure(table, s):
    cur = set(s) | {0}
    while True:
        nxt = cur | o_product(table, cur, cur)
        if nxt == cur:
            return cur
        cur = nxt


def o_image(adj, xs):
    out = set()
    for x in xs:
        out |= adj[x]
    return out


def o_boundary(adj, xs):
    return o_image(adj, xs) - set(xs)


def o_wedge(adj, n, xs):
    return set(range(n)) - set(xs) - o_image(adj, xs)


def o_kappa(adj, n, k):
    """(separable, kappa, fragments as frozensets), fully exhaustive."""
    best = None
    frags = []
    for r in range(k, n + 1):
        for xs in itertools.combinations(range(n), r):
            if len(o_wedge(adj, n, xs)) < k:
                continue
            b = len(o_boundary(adj, xs))
            if best is None or b < best:
                best = b
                frags = [frozenset(xs)]
            elif b == best:
                frags.append(frozenset(xs))
    if best is None:
        return False, n - 2 * k + 1, []
    return True, best, frags


def assert_scan_matches_oracle(res, oracle, collect, through=None):
    """Compare one ScanResult with o_kappa; ``through`` keeps only the
    oracle's fragments containing that vertex (a pinned scan)."""
    sep, kap, frags = oracle
    assert (res.separable, res.kappa) == (sep, kap)
    if not sep or collect == "none":
        return
    alpha = min(len(f) for f in frags)
    if through is not None:
        frags = [f for f in frags if through in f]
    want_atoms = {f for f in frags if len(f) == alpha}

    def as_sets(masks):
        return {frozenset(v for v in range(32) if m >> v & 1) for m in masks}

    assert res.alpha == alpha
    assert res.frag_count == len(frags)
    if collect in ("atoms", "all"):
        assert as_sets(res.atom_masks) == want_atoms
        assert len(res.atom_masks) == len(want_atoms)
    if collect == "all":
        assert as_sets(res.frag_masks) == set(frags)
        assert list(res.frag_masks) == sorted(res.frag_masks)


def o_scan_flat(rows, n, k, pin0):
    """``subset_scan``'s fields for one k at collect "all", as a tuple
    (separable, kappa, alpha, atom masks, fragment masks, fragment
    count), from one numpy pass over every X (every X through vertex 0
    when ``pin0``) in natural mask order: image tables doubled one vertex
    at a time, up to 2^21 entries."""
    import numpy as np

    free = rows[1:n] if pin0 else rows[:n]
    img = np.array([rows[0] if pin0 else 0], dtype=np.uint32)
    size = np.array([int(pin0)], dtype=np.int16)
    for row in free:
        img = np.concatenate([img, img | np.uint32(row)])
        size = np.concatenate([size, size + 1])
    image = np.bitwise_count(img).astype(np.int16)
    feasible = (size >= k) & (image <= n - k)
    if not feasible.any():
        return False, n - 2 * k + 1, None, None, None, None
    boundary = image - size
    kap = int(boundary[feasible].min())
    frag = np.flatnonzero(feasible & (boundary == kap))
    alpha = int(size[frag].min())
    masks = frag << int(pin0) | int(pin0)
    atoms = masks[size[frag] == alpha]
    return True, kap, alpha, tuple(atoms.tolist()), tuple(masks.tolist()), len(frag)


def o_pinned_profile(g, k, sign):
    """A full profile built through vertex 0: one pinned scan, then every
    atom and fragment mapped by every translation of ``g`` and omega
    counted per vertex, on plain sets.  Returns (separable, kappa, alpha,
    omega, atom masks, fragment masks, fragments_count), masks ascending."""
    from isoperim.iso import subset_scan

    n = g.n
    res = subset_scan(g.rows_for(sign), n, (k,), pin0=True, collect="all")[k]
    if not res.separable:
        return False, res.kappa, k, math.comb(n - 1, k - 1), None, None, math.comb(n, k)

    def expand(masks):
        return sorted({sum(1 << perm[v] for v in range(n) if m >> v & 1)
                       for perm in g.translations for m in masks})

    ats, frags = expand(res.atom_masks), expand(res.frag_masks)
    omega = min(sum(m >> v & 1 for m in ats) for v in range(n))
    return True, res.kappa, res.alpha, omega, ats, frags, len(frags)


def o_cayley_adj(table, s, rev=False):
    """Successor sets of Cay(G, S), x -> xS, or of its reverse Cay(G, S^-1)."""
    if rev:
        s = {y for y in range(len(table)) if any(table[x][y] == 0 for x in s)}
    return tuple({table[x][y] for y in s} for x in range(len(table)))


def o_seminormality(table, s):
    """(kind, least a) for a set S, by the definition: S is normal when
    x S x^-1 = S for every x, and semi-normal with witness a when
    x S x^-1 = S (a^-1 x a x^-1) for every x.  The least a is 0 for a
    normal S and None when S is neither."""
    n = len(table)
    inv = [next(y for y in range(n) if table[x][y] == 0) for x in range(n)]
    s = set(s)
    conj = [{table[table[x][y]][inv[x]] for y in s} for x in range(n)]
    for a in range(n):
        if all(conj[x] == {table[y][table[table[table[inv[a]][x]][a]][inv[x]]] for y in s}
               for x in range(n)):
            normal = all(conj[x] == s for x in range(n))
            return ("normal" if normal else "semi-normal", a)
    return ("neither", None)


def o_local_connectivity(adj, n, x, y):
    """min |boundary(A)| over A with x in A and y outside Gamma(A)."""
    best = None
    others = [v for v in range(n) if v not in (x, y)]
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            a = {x, *extra}
            if y in o_image(adj, a):
                continue
            b = len(o_boundary(adj, a))
            if best is None or b < best:
                best = b
    return best


def o_min_k_part(adj, n, x, y):
    """(lambda, least minimum k-part): the intersection of every A with x
    in A, y outside Gamma(A) and |boundary(A)| = lambda, the least such
    boundary."""
    parts = {}
    others = [v for v in range(n) if v not in (x, y)]
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            a = {x, *extra}
            if y not in o_image(adj, a):
                parts.setdefault(len(o_boundary(adj, a)), []).append(a)
    lam = min(parts)
    return lam, set.intersection(*parts[lam])


def o_is_matching(g, x_set, pairs, k):
    xs = set(x_set)
    if len(pairs) != k:
        return False
    heads = [p[0] for p in pairs]
    tails = [p[1] for p in pairs]
    if len(set(heads)) != k or len(set(tails)) != k:
        return False
    return all(
        u in xs and v not in xs and (g.rows[u] >> v) & 1 for u, v in pairs
    )


def o_literal_orderbase_zone(n):
    """Number of S containing the identity with 2n/3 < |S| < n.

    These are the proper S on which the literal exponent floor(2n/|S|)-1
    of the order-of-basis bound is 1, and S^1 = S is not G.
    """
    return sum(math.comb(n - 1, s - 1) for s in range(1, n) if 3 * s > 2 * n)


# ---------------------------------------------------------------------------
# scalar pair loops of the set-pair checkers
# ---------------------------------------------------------------------------

_EXHAUSTIVE_PAIR_ORDER = 8
_PAIR_SAMPLES = 10_000


def o_pair_iter(n, rng):
    """Nonempty (A, B) mask pairs: exhaustive for small n, seeded sample above."""
    full = (1 << n) - 1
    if n <= _EXHAUSTIVE_PAIR_ORDER:
        for a in range(1, full + 1):
            for b in range(1, full + 1):
                yield a, b
    else:
        for _ in range(_PAIR_SAMPLES):
            yield rng.randrange(1, full + 1), rng.randrange(1, full + 1)


def _bits(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def o_olson_pairs(g, scan, rng, t):
    from isoperim.groups import closure_mask, elem_mul_mask, inverse_mask, product_mask

    n = g.order
    k_cache = {}
    for am, bm in o_pair_iter(n, rng):
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
                for v in _bits(cur):
                    nxt |= rows_b[v]
                if nxt.bit_count() == cur.bit_count():
                    break
                cur = nxt
                j += 1
            t.test(ok8, set={"B": bm}, observed={"j": j}, what="power bound")
        km, rows_b = k_cache[bm]
        ab = 0
        for v in _bits(am):
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


def o_classical(g, scan, rng, t):
    from isoperim.groups import elem_mul_mask, mask_mul_elem

    n = g.order
    full = (1 << n) - 1
    abelian = g.abelian
    for am, bm in o_pair_iter(n, rng):
        ab = 0
        for v in _bits(am):
            ab |= elem_mul_mask(g, v, bm)
        asz, bsz = am.bit_count(), bm.bit_count()
        if asz + bsz > n:
            t.test(ab == full, set={"A": am, "B": bm}, what="full product")
        commute = abelian or all(
            g.table[x][y] == g.table[y][x] for x in _bits(bm) for y in _bits(bm)
        )
        if not commute:
            t.skip()
            continue
        if any(mask_mul_elem(g, ab, x) == ab for x in range(1, n)):
            t.skip()
            continue
        t.test(
            ab.bit_count() >= asz + bsz - 1,
            set={"A": am, "B": bm},
            observed={"AB": ab.bit_count()},
            what="lower bound",
        )


def o_orderbase(g, scan, rng, t):
    """S^e = G for generating S, e = max(2, floor(2n/|S|) - 1) (1 when
    S = G): the powers of each S by repeated x*S from the group table."""
    n = g.order
    full = (1 << n) - 1
    t.bump("literal_bound_violations", 0)
    for sm in range(1, full + 1, 2):
        rows = [0] * n
        for x in range(n):
            for s in _bits(sm):
                rows[x] |= 1 << g.table[x][s]
        cur, steps = sm, 1
        while cur != full:
            nxt = 0
            for v in _bits(cur):
                nxt |= rows[v]
            if nxt == cur:
                break
            cur, steps = nxt, steps + 1
        if cur != full:
            continue
        literal = 2 * n // sm.bit_count() - 1
        bound = 1 if sm == full else max(2, literal)
        t.test(steps <= bound, set=sm, observed={"steps": steps, "bound": bound})
        if steps > literal:
            t.bump("literal_bound_violations")


def o_kappa1_in_hull(table, s):
    """kappa_1 of Cay(<S>, S) by exhaustion, from plain sets."""
    elems = sorted(o_closure(table, s))
    pos = {e: i for i, e in enumerate(elems)}
    adj = tuple({pos[table[e][x]] for x in s} for e in elems)
    return o_kappa(adj, len(elems), 1)[1]


def o_coset_deficiency(g, scan, rng, t):
    from isoperim.groups import closure_mask, elem_mul_mask, product_mask

    n = g.order
    full = (1 << n) - 1
    if n <= _EXHAUSTIVE_PAIR_ORDER:
        pairs = ((sm, am) for sm in range(1, full + 1, 2) for am in range(1, full + 1))
    else:
        pairs = (
            (rng.randrange(1, full + 1) | 1, rng.randrange(1, full + 1))
            for _ in range(_PAIR_SAMPLES)
        )
    kappa_cache = {}
    for sm, am in pairs:
        km = closure_mask(g, sm)
        if km == 1:
            t.skip()
            continue
        if sm not in kappa_cache:
            kappa_cache[sm] = o_kappa1_in_hull(g.table, set(_bits(sm)))
        kap = kappa_cache[sm]
        # left K-decomposition of A
        w = 0
        rest = am
        while rest:
            x = (rest & -rest).bit_length() - 1
            coset = elem_mul_mask(g, x, km)
            part = rest & coset
            rest &= ~coset
            if product_mask(g, part, sm).bit_count() < km.bit_count():
                w += 1
        t.test(
            w * kap <= product_mask(g, am, sm).bit_count() - am.bit_count(),
            set={"S": sm, "A": am},
            observed={"W": w, "kappa1": kap},
        )


def o_small_sets_pairs(g, scan, rng, t):
    from isoperim.groups import (closure_mask, inverse_mask, mask_mul_elem,
                                 min_subgroup_order, product_mask, progression_ratios)
    from isoperim.sets import ElementSet

    n = g.order
    p = min_subgroup_order(g)
    for am, bm in o_pair_iter(n, rng):
        if not (am & 1 and bm & 1):
            continue
        asz, bsz = am.bit_count(), bm.bit_count()
        if asz < 2 or bsz < 2 or bsz > p:
            continue
        km = closure_mask(g, bm)
        ab = product_mask(g, am, bm)
        if ab.bit_count() != asz + bsz - 1 or ab.bit_count() > km.bit_count() - 1:
            continue
        if asz + bsz == km.bit_count():
            inv_a = inverse_mask(g, am)
            target = km & ~bm
            found = any(mask_mul_elem(g, inv_a, a) == target for a in range(n))
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
                t.test(bool(common), set={"A": am, "B": bm},
                       what="no common progression ratio")
                if common:
                    t.bump("pairs_translated")


# The four structural checkers of ``isoperim.iso`` as they were written
# before their fragment arrays: one Python loop per fragment pair, over
# masks read from ``iso.profile`` (so a patched ``iso._profile_impl``
# reaches them too) and images from ``image_mask``.


def _o_frag_env(g, k, sign):
    from isoperim.iso import profile

    p = profile(g, k, sign)
    if not p.separable:
        return p.kappa, None, None
    masks = tuple(f.mask for f in p.fragments)
    return p.kappa, masks, frozenset(masks)


def _o_separable(g, k):
    from isoperim.digraph import FWD
    from isoperim.iso import profile

    p = profile(g, k, FWD)
    return p.separable, p.kappa


def o_check_duality(g, k):
    from isoperim.digraph import FWD, REV, image_mask
    from isoperim.iso import CheckResult, _require_scannable, profile
    from isoperim.sets import ElementSet

    _require_scannable(g, k)
    pf = profile(g, k, FWD)
    pr = profile(g, k, REV)
    ces = []
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


def o_check_fragment_intersection(g, k):
    from isoperim.digraph import FWD, REV, GraphError, image_mask
    from isoperim.iso import CheckResult, _require_scannable, profile
    from isoperim.sets import ElementSet

    _require_scannable(g, k)
    sep, _ = _o_separable(g, k)
    if not sep:
        raise GraphError("fragment intersection needs a k-separable graph")
    n, rows = g.n, g.rows
    full = (1 << n) - 1
    kap, masks, frag_set = _o_frag_env(g, k, FWD)
    ces = []
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


def o_check_overlap_bounds(g, k):
    from isoperim.digraph import FWD, GraphError, image_mask
    from isoperim.iso import CheckResult, _require_scannable, kappa
    from isoperim.sets import ElementSet

    if k < 2:
        raise GraphError("overlap bounds need k >= 2")
    _require_scannable(g, k)
    sep, kap = _o_separable(g, k)
    if not sep:
        raise GraphError("overlap bounds need a k-separable graph")
    kap_prev = kappa(g, k - 1)
    n, rows = g.n, g.rows
    full = (1 << n) - 1
    _, masks, _ = _o_frag_env(g, k, FWD)
    ces = []
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


def o_check_dual_order(g, k):
    from isoperim.digraph import FWD, GraphError, image_mask
    from isoperim.iso import CheckResult, _require_scannable
    from isoperim.sets import ElementSet

    _require_scannable(g, k)
    sep, _ = _o_separable(g, k)
    if not sep:
        raise GraphError("dual order check needs a k-separable graph")
    n, rows = g.n, g.rows
    full = (1 << n) - 1
    _, masks, _ = _o_frag_env(g, k, FWD)
    wedge_of = {m: full & ~image_mask(rows, m) for m in masks}
    ces = []
    checked = 0
    for x in masks:
        for y in masks:
            checked += 1
            if (x & ~y == 0) != (wedge_of[y] & ~wedge_of[x] == 0):
                ces.append(
                    {"X": sorted(ElementSet(n, x)), "Y": sorted(ElementSet(n, y))}
                )
    return CheckResult(not ces, checked, ces)
