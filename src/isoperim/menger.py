"""Local vertex connectivity, openly disjoint paths, and boundary matchings.

Connectivity between a non-adjacent pair is computed as unit-capacity
max-flow after vertex splitting, by one flow on the graph's bitmask rows
(``_BitFlow``): the flow is kept as openly disjoint paths, each search
layer is an OR of rows, and each pair starts from the paths through its
common neighbours.  The paths are the flow's decomposition, and its
residual side is the least minimum k-part.  Every certificate returned
here is re-verified by independent set arithmetic before it leaves the
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .digraph import Digraph, GraphError, image_mask
from .groups import (
    FiniteGroup,
    GroupError,
    is_subgroup_mask,
    mask_mul_elem,
    coset_decomposition,
    quotient_group,
)
from .sets import ElementSet, bits_of


class ConnectivityError(GraphError):
    """A connectivity precondition failed; carries the violating cut."""

    def __init__(self, message: str, min_cut: ElementSet | None = None):
        super().__init__(message)
        self.min_cut = min_cut


@dataclass(frozen=True)
class PathFamily:
    """Openly disjoint paths between one vertex pair."""

    source: int
    target: int
    paths: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class KPart:
    """Source side of a minimum vertex cut for a pair (x, y)."""

    set: ElementSet
    boundary_size: int
    x: int
    y: int


@dataclass(frozen=True)
class Matching:
    """Arcs (x_i, y_i) with distinct heads in X and distinct tails outside."""

    pairs: tuple[tuple[int, int], ...]


# ---------------------------------------------------------------------------
# unit-capacity flow after vertex splitting, on bitmasks
# ---------------------------------------------------------------------------


class _BitFlow:
    """Max-flow from x to y in the vertex-split network, on bitmask rows.

    Vertex v becomes an in-node and an out-node joined by a unit arc, and
    each arc u -> v of the graph becomes u_out -> v_in.  No capacity is
    stored: a flow is a set of openly disjoint x-y paths, held as the
    ``pred`` and ``succ`` of each vertex it passes through, and as the
    mask ``used`` of those vertices (x and y are never in it).  The
    residual moves are then
      - u_out -> v_in for each v in ``rows[u]``; the loop at u makes the
        reverse split move of a used u, from its out-node back to its
        in-node (an unused u's out-node was reached from its in-node,
        so there the loop adds nothing);
      - v_in -> v_out for an unused v, and v_in -> pred[v]_out for a used v.
    So a search is a layered BFS from x_out: each layer of in-nodes is
    one OR of ``rows[u]`` over the out-node frontier, and the next
    frontier follows from it in one step.  An out-node is reached only
    from its own in-node (unused vertex) or from its succ's in-node (used
    vertex), so a path is recovered through the in-nodes alone, each from
    ``in_rows[v] & frontier``.

    ``run`` starts each pair from its common neighbours w, the openly
    disjoint paths x -> w -> y, at most ``limit`` of them.  After a run
    that ends short of ``limit``, ``reach`` holds the in-nodes and
    out-nodes reachable from x_out in the residual network.
    """

    def __init__(self, g: Digraph):
        self.rows = g.rows
        self.in_rows = g.in_rows

    def run(self, x: int, y: int, limit: int | None = None) -> int:
        """The flow value from x to y, stopping once it reaches ``limit``."""
        n = len(self.rows)
        self.x, self.y = x, y
        self.pred = [-1] * n
        self.succ = [-1] * n
        # x and y are not common neighbours: the pair is non-adjacent and
        # the rows are reflexive
        seed = self.rows[x] & self.in_rows[y]
        while limit is not None and seed.bit_count() > limit:
            seed ^= 1 << (seed.bit_length() - 1)
        for w in bits_of(seed):
            self.pred[w], self.succ[w] = x, y
        self.used = seed
        value = seed.bit_count()
        while (limit is None or value < limit) and self._augment():
            value += 1
        return value

    def _augment(self) -> bool:
        rows, pred, used = self.rows, self.pred, self.used
        ybit = 1 << self.y
        seen_in, seen_out = 0, 1 << self.x
        fronts = []
        front = seen_out
        while front:
            fronts.append(front)
            reach = 0
            while front:
                low = front & -front
                reach |= rows[low.bit_length() - 1]
                front ^= low
            new = reach & ~seen_in
            if new & ybit:
                self._push(fronts)
                return True
            seen_in |= new
            front = new & ~used
            back = new & used
            while back:
                low = back & -back
                front |= 1 << pred[low.bit_length() - 1]
                back ^= low
            front &= ~seen_out
            seen_out |= front
        self.reach = seen_in, seen_out
        return False

    def _push(self, fronts: list[int]) -> None:
        """Augment along the path that reached y_in, read back from the
        out-node frontiers of the search."""
        in_rows, pred, succ, used = self.in_rows, self.pred, self.succ, self.used
        x = self.x
        added, dropped = [], []
        flip = 0  # vertices whose split arc gains or loses its unit
        v = self.y
        for front in reversed(fronts):
            low = in_rows[v] & front
            u = (low & -low).bit_length() - 1
            if u == v:
                flip |= 1 << v  # the reverse split move of a used v
            else:
                added.append((u, v))
            if u == x:
                break
            if (used >> u) & 1:
                v = succ[u]
                dropped.append((u, v))
            else:
                flip |= 1 << u
                v = u
        for u, w in dropped:
            succ[u] = pred[w] = -1
        for u, w in added:
            succ[u], pred[w] = w, u  # x's succ and y's pred are never read
        self.used ^= flip

    def source_side(self) -> tuple[int, int]:
        """(A, C) masks after a maximum flow: the side A of x in the
        residual network, and the cut C of vertices whose in-node alone
        is in it."""
        seen_in, seen_out = self.reach
        return seen_out, seen_in & ~seen_out

    def decompose(self) -> list[list[int]]:
        """The flow's paths, each followed from x along ``succ``."""
        x, y, succ = self.x, self.y, self.succ
        paths = []
        for w, p in enumerate(self.pred):
            if p == x:
                path = [x, w]
                while path[-1] != y and len(path) <= len(succ):
                    path.append(succ[path[-1]])
                paths.append(path)
        return paths


def _check_pair(g: Digraph, x: int, y: int) -> None:
    n = g.n
    if not (0 <= x < n and 0 <= y < n):
        raise GraphError(f"vertices must lie in 0..{n - 1}")
    if not g.reflexive:
        raise GraphError("connectivity is defined on reflexive graphs")
    if g.has_arc(x, y):
        raise GraphError(f"adjacent pair: ({x}, {y}) is an arc, connectivity unbounded")


def local_connectivity(g: Digraph, x: int, y: int) -> int:
    """Largest k such that every A with x in A, y outside Gamma(A) has
    |boundary(A)| >= k.  Exact, via vertex-split max-flow."""
    _check_pair(g, x, y)
    return _BitFlow(g).run(x, y)


def min_k_part(g: Digraph, x: int, y: int) -> KPart:
    """The source side of a minimum vertex cut between x and y."""
    _check_pair(g, x, y)
    net = _BitFlow(g)
    value = net.run(x, y)
    a, c = net.source_side()
    img = image_mask(g.rows, a)
    bnd = img & ~a
    if not (a >> x) & 1 or (img >> y) & 1 or bnd != c or c.bit_count() != value:
        raise RuntimeError("flow cut extraction produced an inconsistent k-part")
    # local duality: the reverse boundary of the far side equals the cut
    full = (1 << g.n) - 1
    wedge = full & ~img
    if image_mask(g.in_rows, wedge) & ~wedge != bnd:
        raise RuntimeError("k-part violates boundary duality")
    return KPart(set=ElementSet(g.n, a), boundary_size=value, x=x, y=y)


def verify_path_family(g: Digraph, fam: PathFamily, k: int) -> bool:
    """Independent validity check: arc-correct, openly disjoint, k paths."""
    if len(fam.paths) != k:
        return False
    interiors: set[int] = set()
    for path in fam.paths:
        if len(path) < 2 or path[0] != fam.source or path[-1] != fam.target:
            return False
        for u, v in zip(path, path[1:]):
            if u == v or not g.has_arc(u, v):
                return False
        inner = set(path[1:-1])
        if len(inner) != len(path) - 2:
            return False
        if fam.source in inner or fam.target in inner or interiors & inner:
            return False
        interiors |= inner
    return True


def disjoint_paths(g: Digraph, x: int, y: int, k: int) -> PathFamily:
    """Exactly k pairwise openly disjoint paths from x to y.

    Fails with the violating minimum cut when x is not k-connected to y.
    """
    _check_pair(g, x, y)
    if k < 0:
        raise GraphError("k must be >= 0")
    if k == 0:
        return PathFamily(source=x, target=y, paths=())
    net = _BitFlow(g)
    lam = net.run(x, y, limit=k)
    if lam < k:
        # the flow stopped short of k with no augmenting path: it is maximum
        a, c = net.source_side()
        raise ConnectivityError(
            f"{x} is only {lam}-connected to {y}, needed {k}",
            min_cut=ElementSet(g.n, c),
        )
    fam = PathFamily(
        source=x, target=y, paths=tuple(tuple(p) for p in net.decompose())
    )
    if not verify_path_family(g, fam, k):
        raise RuntimeError("flow decomposition produced an invalid path family")
    return fam


def fan(g: Digraph, x: int, targets: ElementSet) -> tuple[tuple[int, ...], ...] | None:
    """Openly disjoint paths from x to each target, via a super-sink.

    Returns one path per target (in path-end order), or None when no
    such family exists.
    """
    if targets.universe != g.n:
        raise GraphError("targets universe mismatch")
    if x in targets or not targets:
        raise GraphError("fan targets must be nonempty and avoid x")
    n = g.n
    rows = [r | 0 for r in g.rows] + [1 << n]
    sink = n
    for t in targets:
        rows[t] |= 1 << sink
    aug = Digraph(rows)
    k = len(targets)
    try:
        fam = disjoint_paths(aug, x, sink, k)
    except ConnectivityError:
        return None
    return tuple(tuple(p[:-1]) for p in fam.paths)


# ---------------------------------------------------------------------------
# kappa_1 via flow
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def kappa1_flow(g: Digraph) -> int:
    """kappa_1 as the minimum local connectivity over non-adjacent pairs.

    Results are cached per graph, so ``iso.kappa``, ``classify`` and
    ``strong_iso_matching`` on one graph share one flow.  Vertex-transitive
    graphs scan only the pairs (0, y); every other pair is a translate.
    Other graphs take sources v = 0, 1, ... in turn, each with its pairs
    (v, w) and (w, v) not run before, and stop before source i once
    i >= best (Even's bound).  A minimum cut C misses one of the first
    |C| + 1 vertices, which lies on one side of C and has a partner on
    the other side at local connectivity |C|; so once i >= best, either
    best = |C| or those |C| + 1 sources have run and found it.
    Non-1-separable graphs get |V| - 1 by the usual convention.  One
    flow object serves every pair, and each pair's flow starts from its
    common neighbours and stops once it reaches the least value so far,
    since a larger one cannot lower the minimum; a pair with at least
    that many common neighbours is skipped without a search.
    """
    if not g.reflexive:
        raise GraphError("kappa via flow needs a reflexive graph")
    n, rows, in_rows = g.n, g.rows, g.in_rows
    best = n - 1

    def pairs():
        if g.transitive:
            yield from ((0, y) for y in range(n))
            return
        for x in range(n):
            if x >= best:
                return
            for w in range(x + 1, n):
                yield x, w
                yield w, x

    net = _BitFlow(g)
    for x, y in pairs():
        if (rows[x] >> y) & 1 or (rows[x] & in_rows[y]).bit_count() >= best:
            continue
        best = net.run(x, y, limit=best)
        if best == 0:
            break
    return best


# ---------------------------------------------------------------------------
# strong isoperimetric matching
# ---------------------------------------------------------------------------


def _bipartite_matching(
    lefts: list[int], rights: list[int], adj_mask: dict[int, int], k: int
) -> dict[int, int]:
    """Kuhn's algorithm, stopped at k pairs; returns right -> left assignment."""
    match_right: dict[int, int] = {}

    def try_augment(u: int, visited: set[int]) -> bool:
        m = adj_mask[u]
        for v in rights:
            if not (m >> v) & 1 or v in visited:
                continue
            visited.add(v)
            if v not in match_right or try_augment(match_right[v], visited):
                match_right[v] = u
                return True
        return False

    for u in lefts:
        if len(match_right) == k:
            break
        try_augment(u, set())
    return match_right


def strong_iso_matching(g: Digraph, x_set: ElementSet, k: int) -> Matching:
    """k arcs leaving X with pairwise distinct tails and heads.

    Requires k <= kappa_1 and min(|X|, |V \\ X|) >= k; existence is then
    guaranteed and the construction is a bipartite matching on the
    boundary arcs.
    """
    from .iso import kappa

    if x_set.universe != g.n:
        raise GraphError("set universe mismatch")
    if k < 0:
        raise GraphError("k must be >= 0")
    if k == 0:
        return Matching(pairs=())
    k1 = kappa(g, 1)
    if k > k1:
        raise GraphError(f"k={k} exceeds kappa_1={k1}")
    xm = x_set.mask
    size = xm.bit_count()
    if min(size, g.n - size) < k:
        raise GraphError(
            f"need min(|X|, |V\\X|) >= k: |X|={size}, |V\\X|={g.n - size}, k={k}"
        )
    lefts = list(bits_of(xm))
    rights = [v for v in range(g.n) if not (xm >> v) & 1]
    adj = {u: g.rows[u] & ~xm for u in lefts}
    match_right = _bipartite_matching(lefts, rights, adj, k)
    chosen = tuple(sorted((u, v) for v, u in match_right.items()))
    if len(chosen) < k:
        raise RuntimeError(
            f"matching of size {len(chosen)} < k={k}; this falsifies the "
            "boundary-matching guarantee"
        )
    heads = {p[0] for p in chosen}
    tails = {p[1] for p in chosen}
    if len(heads) != k or len(tails) != k or any(
        not g.has_arc(u, v) or (xm >> v) & 1 or not (xm >> u) & 1 for u, v in chosen
    ):
        raise RuntimeError("constructed matching failed independent verification")
    return Matching(pairs=chosen)


# ---------------------------------------------------------------------------
# quotient matching for subgroup fragments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientWitness:
    """Certificate that translated parts of X cover t+1+u cosets."""

    indices: tuple[int, ...]
    elements: tuple[int, ...]
    image_size: int
    t: int
    u: int
    r: int
    quotient_order: int


def abelian_strong_iso(
    g: FiniteGroup, s: ElementSet, h: ElementSet, x: ElementSet
) -> QuotientWitness:
    """Match parts of X to fresh cosets through G/H.

    H must be a subgroup that is a 2-fragment of Cay(G, S).  With
    S split into u+1 coset parts and X into t+1, picks distinct part
    indices n_i and elements y_i of S outside H so that X together with
    the translates X_{n_i} y_i covers exactly t+1+u cosets.
    """
    from .digraph import cayley_graph
    from .iso import kappa

    if not g.abelian:
        raise GroupError("quotient matching requires an abelian group")
    if 0 not in s:
        raise GroupError("S must contain the identity")
    if not is_subgroup_mask(g, h.mask):
        raise GroupError("H is not a subgroup")
    if not x:
        raise GroupError("X must be nonempty")
    graph = cayley_graph(g, s)
    if g.order < 3:
        raise GroupError("group too small for a 2-fragment")
    hs = image_mask(graph.rows, h.mask)
    if len(h) < 2 or g.order - hs.bit_count() < 2:
        raise GroupError("H is not a 2-fragment: separation sizes too small")
    k2 = kappa(graph, 2)
    if hs.bit_count() - len(h) != k2:
        raise GroupError(
            f"H is not a 2-fragment: |boundary(H)|={hs.bit_count() - len(h)}, "
            f"kappa_2={k2}"
        )
    s_parts = coset_decomposition(g, s, h, side="left").parts
    x_parts = coset_decomposition(g, x, h, side="left").parts
    u = len(s_parts) - 1
    t = len(x_parts) - 1
    if g.order - (t + 1) * len(h) < u * len(h):
        raise GroupError(
            f"need |G| - (t+1)|H| >= u|H|: |G|={g.order}, t={t}, u={u}, |H|={len(h)}"
        )
    quot, proj = quotient_group(g, h)
    phi_s = ElementSet(quot.order, {proj[e] for e in s})
    phi_x = ElementSet(quot.order, {proj[e] for e in x})
    qgraph = cayley_graph(quot, phi_s)
    qk1 = kappa(qgraph, 1) if quot.order > 1 else 0
    if quot.order > 1 and qk1 < u:
        raise RuntimeError(
            f"kappa_1 of the quotient is {qk1} < u={u}; this falsifies the "
            "quotient connectivity bound"
        )
    matching = strong_iso_matching(qgraph, phi_x, u)
    part_of_coset = {proj[min(part)]: i for i, part in enumerate(x_parts)}
    indices = []
    elements = []
    for xbar, ybar in matching.pairs:
        n_i = part_of_coset[xbar]
        y_i = next(e for e in s if quot.mul(xbar, proj[e]) == ybar)
        indices.append(n_i)
        elements.append(y_i)
    covered = {proj[v] for v in x}
    for n_i, y_i in zip(indices, elements):
        shifted = mask_mul_elem(g, x_parts[n_i].mask, y_i)
        covered |= {proj[v] for v in bits_of(shifted)}
    if len(covered) != t + 1 + u:
        raise RuntimeError(
            f"quotient image has {len(covered)} cosets, expected {t + 1 + u}"
        )
    return QuotientWitness(
        indices=tuple(indices),
        elements=tuple(elements),
        image_size=len(covered),
        t=t,
        u=u,
        r=len(indices),
        quotient_order=quot.order,
    )
