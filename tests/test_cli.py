import json

from click.testing import CliRunner

from isoperim import verify
from isoperim.cli import main


def run_cli(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def test_iso_kappa_prime_case():
    r = run_cli("iso", "kappa", "--group", "cyclic:7", "--set", "0,1,3", "--k", "1")
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["kappa"] == 2
    assert set(data) == {
        "kappa", "alpha", "omega", "separable", "atoms", "fragments_count"
    }


def test_iso_atoms_and_sign():
    r = run_cli("iso", "atoms", "--group", "cyclic:6", "--set", "0,1,3,4")
    data = json.loads(r.output)
    assert data["alpha"] == 2 and [0, 3] in data["atoms"]
    r2 = run_cli(
        "iso", "atoms", "--group", "cyclic:6", "--set", "0,1,3,4", "--sign", "rev"
    )
    assert json.loads(r2.output)["kappa"] == data["kappa"]


def test_iso_fragments_limit():
    r = run_cli(
        "iso", "fragments", "--group", "cyclic:5", "--set", "0,1", "--limit", "4"
    )
    data = json.loads(r.output)
    assert data["fragments_count"] == 15
    assert len(data["fragments"]) == 4


def test_iso_classify():
    r = run_cli("iso", "classify", "--group", "cyclic:7", "--set", "0,1,3")
    data = json.loads(r.output)
    assert data["cauchy"] is True and data["kappa1"] == 2


def test_menger_commands_roundtrip(tmp_path):
    r = run_cli("menger", "connect", "--graph", "cyclic:5@0,1,2", "--x", "0", "--y", "3")
    data = json.loads(r.output)
    assert data["connectivity"] == 2 and data["min_part"] == [0]
    r = run_cli(
        "menger", "paths", "--graph", "cyclic:5@0,1,2", "--x", "0", "--y", "3",
        "--k", "2",
    )
    assert len(json.loads(r.output)["paths"]) == 2
    r = run_cli(
        "menger", "match", "--graph", "cyclic:7@0,1,3", "--set", "0,1", "--k", "2"
    )
    assert len(json.loads(r.output)["pairs"]) == 2
    # graph file input
    path = tmp_path / "g.json"
    r = run_cli(
        "export-graph", "--group", "cyclic:5", "--set", "0,1,2",
        "--output", str(path),
    )
    assert r.exit_code == 0
    r = run_cli("menger", "connect", "--graph", str(path), "--x", "0", "--y", "3")
    assert json.loads(r.output)["connectivity"] == 2


def test_export_graph_counts(tmp_path):
    path = tmp_path / "g4.json"
    run_cli("export-graph", "--group", "cyclic:4", "--set", "0,1,2",
            "--output", str(path))
    data = json.loads(path.read_text())
    arcs = data["arcs"]
    assert len(arcs) == 12
    assert sum(1 for a in arcs if a[0] == a[1]) == 4
    # trivial group: one vertex, one loop
    p1 = tmp_path / "g1.json"
    run_cli("export-graph", "--group", "cyclic:1", "--set", "0", "--output", str(p1))
    d1 = json.loads(p1.read_text())
    assert d1["n"] == 1 and d1["arcs"] == [[0, 0]]
    # full dihedral set: complete reflexive digraph
    p2 = tmp_path / "g8.json"
    run_cli("export-graph", "--group", "dihedral:4", "--set",
            "0,1,2,3,4,5,6,7", "--output", str(p2))
    d2 = json.loads(p2.read_text())
    assert len(d2["arcs"]) == 64


def test_catalog_listing():
    r = run_cli("catalog", "--max-order", "8")
    data = json.loads(r.output)
    names = {rec["name"] for rec in data}
    assert {"Z8", "Q8", "D4", "Z2xZ4", "Z2xZ2xZ2"} <= names
    q8 = next(rec for rec in data if rec["name"] == "Q8")
    assert q8["order"] == 8 and q8["abelian"] is False
    assert q8["generating_sets"] > 0


def test_catalog_sets_flag():
    r = run_cli("catalog", "--max-order", "3", "--sets")
    data = json.loads(r.output)
    z3 = next(rec for rec in data if rec["name"] == "Z3")
    assert [0, 1] in z3["sets"]


def test_verify_exit_codes(tmp_path, monkeypatch):
    r = run_cli("verify", "--theorem", "classical", "--max-order", "5")
    assert r.exit_code == 0
    payload = json.loads(r.output)
    assert payload[0]["theorem"] == "classical"
    # the literal power exponent fails on dense sets, which is tallied in
    # details; the checked exponent holds, so exit 0
    r = run_cli("verify", "--theorem", "orderbase", "--max-order", "4")
    assert r.exit_code == 0
    payload = json.loads(r.output)
    assert not payload[0]["counterexamples"]
    assert payload[0]["details"]["literal_bound_violations"] > 0

    # a checker that records a counterexample makes verify exit 1
    def failing(g, scan, rng):
        t = verify._Tally(g.name)
        t.test(False, set=0b1)
        return t

    monkeypatch.setitem(verify._CHECKERS, "classical", failing)
    report = tmp_path / "rep.json"
    r = run_cli(
        "verify", "--theorem", "classical", "--max-order", "4",
        "--report", str(report),
    )
    assert r.exit_code == 1
    recs = json.loads(report.read_text())
    assert recs[0]["counterexamples"]


def test_usage_errors_exit_2():
    r = CliRunner().invoke(main, ["iso", "kappa", "--group", "bogus:9",
                                  "--set", "0", "--k", "1"])
    assert r.exit_code == 2
    r = CliRunner().invoke(main, ["iso", "kappa", "--group", "cyclic:5",
                                  "--set", "1,2", "--k", "1"])
    assert r.exit_code == 2  # identity missing from S
    r = CliRunner().invoke(main, ["verify", "--theorem", "nope"])
    assert r.exit_code == 2
    r = CliRunner().invoke(main, ["menger", "connect", "--graph",
                                  "cyclic:5@0,1,2", "--x", "0", "--y", "1"])
    assert r.exit_code == 2  # adjacent pair


def test_byte_determinism():
    a = run_cli("iso", "kappa", "--group", "cyclic:7", "--set", "0,1,3", "--k", "1")
    b = run_cli("iso", "kappa", "--group", "cyclic:7", "--set", "0,1,3", "--k", "1")
    assert a.output == b.output
    c = run_cli("catalog", "--max-order", "6")
    d = run_cli("catalog", "--max-order", "6")
    assert c.output == d.output
