"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each ``isoperim`` layer
in place, in every module that bound them, so calls between layers go
through the wrappers too.  A wrapper records one span per call: its
duration, and the part of that duration spent in child spans, so a
layer's self time is its span time minus its children's.  Spans are
summed per name in memory; nothing is written while the round runs.
"""

from __future__ import annotations

import sys
import time

THEOREMS = ("one_atom", "olson", "orderbase", "coset_deficiency", "small_sets",
            "abelian_two_atoms", "atom_coverage", "classical")
COLLECT_LEVELS = ("none", "alpha", "atoms", "all")
SPANNED = {
    "groups": ("product_mask", "closure_mask", "elem_mul_mask", "mask_mul_elem",
               "inverse_mask", "progression_ratios", "seminormality"),
    "iso": ("profile", "kappa", "atoms", "classify"),
    "menger": ("kappa1_flow", "strong_iso_matching", "local_connectivity"),
}
GROUPSCAN_METHODS = ("rows", "hull", "generates", "scan")
US_PER_CALL = ("menger.kappa1_flow", "menger.strong_iso_matching",
               "menger.local_connectivity")


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.stack: list[list[float]] = []  # child seconds of each open span
        self.counts = {"scan_subsets": 0, "elementsets": 0, "reflexive": 0,
                       "lookups": 0, "hits": 0}
        self.scan_levels = {c: [0, 0.0] for c in COLLECT_LEVELS}

    # -- wrappers ------------------------------------------------------

    def _span(self, name: str, fn, on_exit=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - children[0]
                if stack:
                    stack[-1][0] += dt
                if on_exit is not None:
                    on_exit(dt, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _scan_exit(self, dt, args, kwargs):
        n = args[1]
        pinned = kwargs.get("pin0", False)
        self.counts["scan_subsets"] += 1 << (n - 1 if pinned else n)
        level = self.scan_levels[kwargs.get("collect", "all")]
        level[0] += 1
        level[1] += dt

    def _lookup(self, fn):
        """Count profile lookups that ran no scan and no flow: cache hits."""
        counts, spans = self.counts, self.spans

        def wrapper(*args, **kwargs):
            before = (spans["iso.subset_scan"][0], spans["menger.kappa1_flow"][0])
            out = fn(*args, **kwargs)
            after = (spans["iso.subset_scan"][0], spans["menger.kappa1_flow"][0])
            if after[1] == before[1]:
                counts["lookups"] += 1
                if after[0] == before[0]:
                    counts["hits"] += 1
            return out

        return wrapper

    # -- installation --------------------------------------------------

    def install(self) -> None:
        from isoperim import catalog, digraph, groups, iso, menger, sets

        replace: dict = {}
        replace[iso.subset_scan] = self._span("iso.subset_scan", iso.subset_scan,
                                              self._scan_exit)
        mods = {"groups": groups, "iso": iso, "menger": menger}
        for mod_name, names in SPANNED.items():
            for fname in names:
                fn = getattr(mods[mod_name], fname)
                replace[fn] = self._span(f"{mod_name}.{fname}", fn)
        for fn in (iso.profile, iso.kappa):
            replace[fn] = self._lookup(replace[fn])
        for mod in [m for k, m in sys.modules.items()
                    if k == "isoperim" or k.startswith("isoperim.")]:
            for attr, val in list(vars(mod).items()):
                if callable(val) and val in replace:
                    setattr(mod, attr, replace[val])
        for meth in GROUPSCAN_METHODS:
            fn = getattr(catalog.GroupScan, meth)
            setattr(catalog.GroupScan, meth,
                    self._span(f"catalog.GroupScan.{meth}", fn))

        counts = self.counts
        init = sets.ElementSet.__init__

        def counted_init(obj, *args, **kwargs):
            counts["elementsets"] += 1
            init(obj, *args, **kwargs)

        sets.ElementSet.__init__ = counted_init
        reflexive = digraph.Digraph.reflexive.fget

        def counted_reflexive(obj):
            counts["reflexive"] += 1
            return reflexive(obj)

        digraph.Digraph.reflexive = property(counted_reflexive)

    # -- report --------------------------------------------------------

    def metrics(self, theorem_seconds: dict[str, float]) -> dict[str, float]:
        """Per-layer figures of one round, keyed by metric name."""
        out: dict[str, float] = {}
        calls, _, self_s = self.spans["iso.subset_scan"]
        out["iso.subset_scan.calls"] = calls
        out["iso.subset_scan.self_s"] = self_s
        out["iso.subset_scan.subsets"] = self.counts["scan_subsets"]
        for level, (c, total) in self.scan_levels.items():
            out[f"iso.subset_scan.us_per_call.{level}"] = 1e6 * total / c if c else 0.0
        for meth in GROUPSCAN_METHODS:
            c, _, s = self.spans[f"catalog.GroupScan.{meth}"]
            out[f"catalog.GroupScan.{meth}.calls"] = c
            out[f"catalog.GroupScan.{meth}.self_s"] = s
        for mod_name, names in SPANNED.items():
            for fname in names:
                name = f"{mod_name}.{fname}"
                c, total, s = self.spans[name]
                if name in US_PER_CALL:
                    out[f"{name}.calls"] = c
                    out[f"{name}.us_per_call"] = 1e6 * total / c if c else 0.0
                else:
                    out[f"{name}.calls"] = c
                    out[f"{name}.self_s"] = s
        out["iso.profile.lookups"] = self.counts["lookups"]
        out["iso.profile.cache_hits"] = self.counts["hits"]
        out["sets.ElementSet.created"] = self.counts["elementsets"]
        out["digraph.Digraph.reflexive.calls"] = self.counts["reflexive"]
        for theorem in THEOREMS:
            out[f"verify.{theorem}.s"] = theorem_seconds.get(theorem, 0.0)
        return out


def metric_units(name: str) -> str:
    if name.endswith(".us_per_call") or ".us_per_call." in name:
        return "us"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"
