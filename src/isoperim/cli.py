"""Command line interface: compute, enumerate, verify, export.

All output is JSON (sorted keys, one trailing newline) so runs with the
same flags and seed are byte-identical; the only exception is the
``elapsed`` field of verify reports.
"""

from __future__ import annotations

import json
import math
import sys

import click

from . import catalog, digraph, iso, menger, verify
from .groups import FiniteGroup, GroupError, make_group
from .sets import ElementSet


def _fail_usage(message: str):
    raise click.UsageError(message)


def _parse_elems(text: str, universe: int) -> ElementSet:
    try:
        indices = [int(tok) for tok in text.split(",") if tok.strip() != ""]
        return ElementSet(universe, indices)
    except ValueError as exc:
        _fail_usage(f"bad element list {text!r}: {exc}")


def _build_group(spec: str) -> FiniteGroup:
    try:
        return make_group(spec)
    except (GroupError, OSError, json.JSONDecodeError) as exc:
        _fail_usage(f"bad group spec {spec!r}: {exc}")


def _build_cayley(spec: str, elems: str):
    g = _build_group(spec)
    s = _parse_elems(elems, g.order)
    try:
        return g, s, digraph.cayley_graph(g, s)
    except (GroupError, digraph.GraphError) as exc:
        _fail_usage(str(exc))


def _load_graph_arg(graph: str) -> digraph.Digraph:
    """A --graph value is either `group-spec@elems` or a JSON file path."""
    if "@" in graph:
        spec, _, elems = graph.rpartition("@")
        return _build_cayley(spec, elems)[2]
    try:
        return digraph.load_graph(graph)
    except (OSError, json.JSONDecodeError, digraph.GraphError) as exc:
        _fail_usage(f"cannot load graph {graph!r}: {exc}")


def _emit(payload) -> None:
    click.echo(json.dumps(payload, sort_keys=True))


def _profile_payload(g: digraph.Digraph, k: int, sign: str) -> dict:
    try:
        prof = iso.profile(g, k, sign)
    except digraph.GraphError as exc:
        _fail_usage(str(exc))
    if prof.separable:
        atom_sets = prof.atoms
    else:
        if math.comb(g.n, k) > 200_000:
            _fail_usage(
                "non-separable convention would list too many k-subsets; "
                "use `iso fragments --limit`"
            )
        atom_sets = iso.atoms(g, k, sign)[1]
    return {
        "kappa": prof.kappa,
        "alpha": prof.alpha,
        "omega": prof.omega,
        "separable": prof.separable,
        "atoms": [sorted(a) for a in atom_sets],
        "fragments_count": prof.fragments_count,
    }


@click.group()
def main():
    """Isoperimetric connectivity of finite Cayley graphs and digraphs."""


# ---------------------------------------------------------------------------
# iso
# ---------------------------------------------------------------------------


@main.group(name="iso")
def iso_group():
    """Connectivity, atoms, fragments, classification of Cayley graphs."""


_group_opt = click.option("--group", "spec", required=True, help="group spec")
_set_opt = click.option("--set", "elems", required=True, help="comma-separated elements")
_k_opt = click.option("--k", "k", type=int, default=1, show_default=True)
_sign_opt = click.option(
    "--sign", type=click.Choice(["fwd", "rev"]), default="fwd", show_default=True
)


@iso_group.command()
@_group_opt
@_set_opt
@_k_opt
@_sign_opt
def kappa(spec, elems, k, sign):
    """Exact kappa_k with the full connectivity profile."""
    _, _, g = _build_cayley(spec, elems)
    _emit(_profile_payload(g, k, sign))


@iso_group.command()
@_group_opt
@_set_opt
@_k_opt
@_sign_opt
def atoms(spec, elems, k, sign):
    """k-atoms of the Cayley graph."""
    _, _, g = _build_cayley(spec, elems)
    _emit(_profile_payload(g, k, sign))


@iso_group.command()
@_group_opt
@_set_opt
@_k_opt
@_sign_opt
@click.option("--limit", type=int, default=None, help="list at most this many")
def fragments(spec, elems, k, sign, limit):
    """k-fragments in canonical order (use --limit on big families)."""
    _, _, g = _build_cayley(spec, elems)
    try:
        prof = iso.profile(g, k, sign)
        frags = []
        for i, f in enumerate(iso.fragments(g, k, sign)):
            if limit is not None and i >= limit:
                break
            frags.append(sorted(f))
    except digraph.GraphError as exc:
        _fail_usage(str(exc))
    _emit(
        {
            "kappa": prof.kappa,
            "separable": prof.separable,
            "fragments_count": prof.fragments_count,
            "fragments": frags,
        }
    )


@iso_group.command()
@_group_opt
@_set_opt
def classify(spec, elems):
    """Cauchy/Vosper classification and the defect of S."""
    g, s, _ = _build_cayley(spec, elems)
    try:
        inv = iso.classify(g, s)
    except (GroupError, digraph.GraphError) as exc:
        _fail_usage(str(exc))
    _emit(
        {
            "delta": inv.delta,
            "kappa1": inv.kappa1,
            "kappa2": inv.kappa2,
            "mu": inv.mu,
            "cauchy": inv.cauchy,
            "vosper": inv.vosper,
            "two_separable": inv.two_separable,
            "generates": inv.generates,
            "hull_order": inv.hull_order,
        }
    )


# ---------------------------------------------------------------------------
# menger
# ---------------------------------------------------------------------------


@main.group(name="menger")
def menger_group():
    """Local connectivity, disjoint paths, boundary matchings."""


_graph_opt = click.option(
    "--graph",
    required=True,
    help="JSON graph file, or `group-spec@elems` for a Cayley graph",
)


@menger_group.command()
@_graph_opt
@click.option("--x", type=int, required=True)
@click.option("--y", type=int, required=True)
def connect(graph, x, y):
    """Local connectivity between a non-adjacent pair."""
    g = _load_graph_arg(graph)
    try:
        lam = menger.local_connectivity(g, x, y)
        part = menger.min_k_part(g, x, y)
    except digraph.GraphError as exc:
        _fail_usage(str(exc))
    _emit(
        {
            "x": x,
            "y": y,
            "connectivity": lam,
            "min_part": sorted(part.set),
            "cut_size": part.boundary_size,
        }
    )


@menger_group.command()
@_graph_opt
@click.option("--x", type=int, required=True)
@click.option("--y", type=int, required=True)
@click.option("--k", type=int, required=True)
def paths(graph, x, y, k):
    """k openly disjoint paths from x to y."""
    g = _load_graph_arg(graph)
    try:
        fam = menger.disjoint_paths(g, x, y, k)
    except menger.ConnectivityError as exc:
        _fail_usage(
            f"{exc} (min cut: {sorted(exc.min_cut) if exc.min_cut else None})"
        )
    except digraph.GraphError as exc:
        _fail_usage(str(exc))
    _emit({"x": x, "y": y, "k": k, "paths": [list(p) for p in fam.paths]})


@menger_group.command()
@_graph_opt
@_set_opt
@click.option("--k", type=int, required=True)
def match(graph, elems, k):
    """Size-k matching from X into its complement along arcs."""
    g = _load_graph_arg(graph)
    x_set = _parse_elems(elems, g.n)
    try:
        m = menger.strong_iso_matching(g, x_set, k)
    except digraph.GraphError as exc:
        _fail_usage(str(exc))
    _emit({"k": k, "pairs": [list(p) for p in m.pairs]})


# ---------------------------------------------------------------------------
# verify / catalog / export
# ---------------------------------------------------------------------------


@main.command(name="verify")
@click.option("--theorem", default="all", show_default=True)
@click.option("--max-order", type=int, default=12, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--report", "report_path", default=None, help="write JSON report here")
@click.option("--workers", type=int, default=1, show_default=True)
def verify_cmd(theorem, max_order, seed, report_path, workers):
    """Sweep the catalog checking every implemented structural result."""
    try:
        reports = verify.run(
            theorem, max_order=max_order, seed=seed, workers=workers
        )
    except ValueError as exc:
        _fail_usage(str(exc))
    payload = [r.to_payload() for r in reports]
    if report_path:
        try:
            with open(report_path, "w") as fh:
                json.dump(payload, fh, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            _fail_usage(f"cannot write {report_path!r}: {exc}")
        for r in reports:
            status = "ok" if r.ok else "COUNTEREXAMPLES"
            click.echo(
                f"{r.theorem}: {status} tested={r.instances_tested} "
                f"skipped={r.instances_skipped} ({r.elapsed:.1f}s)"
            )
    else:
        _emit(payload)
    if any(not r.ok for r in reports):
        sys.exit(1)


@main.command(name="catalog")
@click.option("--max-order", type=int, default=16, show_default=True)
@click.option("--sets", "list_sets", is_flag=True, help="list generating sets")
def catalog_cmd(max_order, list_sets):
    """The group catalog and its generating subsets containing 1."""
    out = []
    for entry in catalog.entries(max_order):
        g = catalog.build(entry.spec)
        scan = catalog.GroupScan(g)
        gens = [
            sm for sm in scan.subsets_with_identity() if scan.generates(sm)
        ]
        rec = {
            "spec": entry.spec,
            "name": entry.name,
            "order": g.order,
            "abelian": g.abelian,
            "generating_sets": len(gens),
        }
        if list_sets:
            rec["sets"] = [sorted(ElementSet(g.order, sm)) for sm in gens]
        out.append(rec)
    _emit(out)


@main.command(name="export-graph")
@_group_opt
@_set_opt
@click.option("--output", required=True, help="output JSON path")
def export_graph(spec, elems, output):
    """Write the Cayley graph in the JSON graph format."""
    _, _, g = _build_cayley(spec, elems)
    try:
        digraph.save_graph(g, output)
    except OSError as exc:
        _fail_usage(f"cannot write {output!r}: {exc}")
    click.echo(f"wrote {output}")


if __name__ == "__main__":
    main()
