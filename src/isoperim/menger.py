"""Local vertex connectivity, openly disjoint paths, and boundary matchings.

Connectivity between a non-adjacent pair is computed as unit-capacity
max-flow after vertex splitting; the flow decomposes into openly
disjoint paths and its residual cut yields the minimum k-part.  Every
certificate returned here is re-verified by independent set arithmetic
before it leaves the module.
"""

from __future__ import annotations

from collections import deque
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
# unit-capacity flow after vertex splitting
# ---------------------------------------------------------------------------


class _SplitFlow:
    """Max-flow network for vertex connectivity: v becomes 2v -> 2v+1.

    Every vertex is split, x and y too: no augmenting path can use the
    split edge into the source 2x+1 or out of the sink 2y, so flows,
    paths and cuts are those of the network without them, and ``reset``
    can move one network to another pair.
    """

    def __init__(self, g: Digraph, x: int, y: int):
        n = g.n
        self.g = g
        self.adj: list[list[int]] = [[] for _ in range(2 * n)]
        self.to: list[int] = []
        self.cap: list[int] = []
        big = n + 2
        for v in range(n):
            self._add(2 * v, 2 * v + 1, 1)
        for u in range(n):
            row = g.rows[u]
            for v in bits_of(row):
                if v != u:
                    self._add(2 * u + 1, 2 * v, big)
        self.orig = list(self.cap)
        self.reset(x, y)

    def reset(self, x: int, y: int) -> None:
        """Zero flow from x to y: the original capacities, new ends."""
        self.cap[:] = self.orig
        self.x = x
        self.y = y
        self.src = 2 * x + 1
        self.snk = 2 * y
        self.value = 0

    def _add(self, u: int, v: int, c: int) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def _augment_once(self) -> bool:
        prev_edge = [-1] * len(self.adj)
        prev_edge[self.src] = -2
        q = deque([self.src])
        while q:
            u = q.popleft()
            if u == self.snk:
                break
            for e in self.adj[u]:
                v = self.to[e]
                if self.cap[e] > 0 and prev_edge[v] == -1:
                    prev_edge[v] = e
                    q.append(v)
        if prev_edge[self.snk] == -1:
            return False
        v = self.snk
        while v != self.src:
            e = prev_edge[v]
            self.cap[e] -= 1
            self.cap[e ^ 1] += 1
            v = self.to[e ^ 1]
        self.value += 1
        return True

    def run(self, limit: int | None = None) -> int:
        while (limit is None or self.value < limit) and self._augment_once():
            pass
        return self.value

    def residual_reachable(self) -> set[int]:
        seen = {self.src}
        q = deque([self.src])
        while q:
            u = q.popleft()
            for e in self.adj[u]:
                v = self.to[e]
                if self.cap[e] > 0 and v not in seen:
                    seen.add(v)
                    q.append(v)
        return seen

    def source_side(self) -> tuple[int, int]:
        """(A, C) masks: cut side A with x, and the cut vertices C."""
        reach = self.residual_reachable()
        a = 1 << self.x
        c = 0
        for v in range(self.g.n):
            if v == self.x or v == self.y:
                continue
            if 2 * v + 1 in reach:
                a |= 1 << v
            elif 2 * v in reach:
                c |= 1 << v
        return a, c

    def decompose(self) -> list[list[int]]:
        flow = [self.orig[e] - self.cap[e] for e in range(len(self.cap))]
        paths = []
        for _ in range(self.value):
            path = [self.x]
            u = self.src
            while u != self.snk:
                for e in self.adj[u]:
                    if e % 2 == 0 and flow[e] > 0:
                        flow[e] -= 1
                        u = self.to[e]
                        break
                else:
                    raise RuntimeError("flow decomposition lost a unit")
                if u % 2 == 0:
                    path.append(u // 2)
                    if u != self.snk:
                        e_split = self.adj[u][0]
                        flow[e_split] -= 1
                        u = self.to[e_split]
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
    return _SplitFlow(g, x, y).run()


def min_k_part(g: Digraph, x: int, y: int) -> KPart:
    """The source side of a minimum vertex cut between x and y."""
    _check_pair(g, x, y)
    net = _SplitFlow(g, x, y)
    value = net.run()
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
    net = _SplitFlow(g, x, y)
    lam = net.run(limit=k)
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
    flow network serves every pair, reset between them, and each pair's
    flow stops once it reaches the least value so far, since a larger
    one cannot lower the minimum.
    """
    if not g.reflexive:
        raise GraphError("kappa via flow needs a reflexive graph")
    n, rows = g.n, g.rows
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

    net = None
    for x, y in pairs():
        if (rows[x] >> y) & 1:
            continue
        if net is None:
            net = _SplitFlow(g, x, y)
        else:
            net.reset(x, y)
        best = net.run(limit=best)
        if best == 0:
            break
    return best


# ---------------------------------------------------------------------------
# strong isoperimetric matching
# ---------------------------------------------------------------------------


def _max_bipartite_matching(
    lefts: list[int], rights: list[int], adj_mask: dict[int, int]
) -> dict[int, int]:
    """Kuhn's algorithm; returns right -> left assignment."""
    right_pos = {v: i for i, v in enumerate(rights)}
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
    match_right = _max_bipartite_matching(lefts, rights, adj)
    pairs = sorted((u, v) for v, u in match_right.items())
    if len(pairs) < k:
        raise RuntimeError(
            f"matching of size {len(pairs)} < k={k}; this falsifies the "
            "boundary-matching guarantee"
        )
    chosen = tuple(pairs[:k])
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
