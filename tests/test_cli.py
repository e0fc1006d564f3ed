import json
import os
import subprocess
import sys

import pytest

import graphfactor

from graphfactor.cli import main
from graphfactor.census import enumerate_graphs, read_catalog, run_census, verify_catalog
from graphfactor.errors import CatalogSchemaError
from graphfactor.factorization import StoredWitness
from graphfactor.graphs import (
    cycle, disjoint_union, edgeless, encode_edge_list, encode_graph6, path,
)
from graphfactor.search import SearchConfig, is_factorizable


C6 = encode_graph6(cycle(6))
K2 = encode_graph6(path(2))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_k2_ruled_out(capsys):
    code, out, _ = run_cli(capsys, "check", "--graph6", K2)
    assert code == 0
    assert "ruled_out" in out
    assert "R1" in out


def test_check_json_roundtrips_schema(capsys):
    code, out, _ = run_cli(capsys, "check", "--graph6", C6, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] == "inconclusive"
    assert [r["rule_id"] for r in payload["rules"]] == ["R1", "R2", "R3", "R4"]
    assert all(
        set(r) == {"rule_id", "status", "paper_ref", "detail"} for r in payload["rules"]
    )


def test_factor_c6_all_lists_pair(capsys):
    code, out, _ = run_cli(capsys, "factor", "--graph6", C6, "--all")
    assert code == 0
    assert "verdict: yes" in out
    assert "factor pair:" in out


def test_factor_json_witnesses_parse(capsys):
    code, out, _ = run_cli(capsys, "factor", "--graph6", C6, "--all", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "yes"
    assert payload["factor_pairs"]
    for w in payload["witnesses"]:
        f = StoredWitness.from_json(w).to_factorization()
        assert f.g.order == 6


def test_factor_screened_graph_skips_search(capsys):
    code, out, _ = run_cli(capsys, "factor", "--graph6", K2)
    assert code == 0
    assert "verdict: no" in out
    assert "ruled out by R1" in out


def test_factor_edges_file(tmp_path, capsys):
    f = tmp_path / "c6.txt"
    f.write_text(encode_edge_list(cycle(6)))
    code, out, _ = run_cli(capsys, "factor", "--edges", str(f))
    assert code == 0
    assert "verdict: yes" in out


def test_spectral_c6(capsys):
    code, out, _ = run_cli(capsys, "spectral", "--graph6", C6, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda_max"] == pytest.approx(2.0, abs=1e-9)
    assert payload["bipartite"] is True
    assert payload["perron"]["value"] == pytest.approx(2.0, abs=1e-9)


def test_spectral_text_12_digits(capsys):
    code, out, _ = run_cli(capsys, "spectral", "--graph6", K2)
    assert code == 0
    assert "spectrum: 1 -1" in out


def test_construct_counterexample(capsys):
    code, out, _ = run_cli(capsys, "construct", "--kind", "counterexample", "--n", "3")
    assert code == 0
    assert "lambda_max(G) = 2" in out
    assert "= 4" in out
    assert "validation: ok" in out


def test_construct_cycle_json(capsys):
    code, out, _ = run_cli(capsys, "construct", "--kind", "cycle", "--n", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda_max_g"] == pytest.approx(2.0, abs=1e-9)
    assert payload["violations"]["items"] == []
    StoredWitness.from_json(payload["witness"]).to_factorization()


def test_construct_double_requires_input(capsys):
    code, _, err = run_cli(capsys, "construct", "--kind", "double")
    assert code == 2
    assert "double" in err


def test_census_and_verify_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "n4.jsonl"
    code, out, _ = run_cli(
        capsys, "census", "--order", "4", "--out", str(out_path), "--jobs", "1"
    )
    assert code == 0
    assert "classes: 11" in out
    records = read_catalog(out_path)
    assert verify_catalog(records).total_violations == 0
    code, out, _ = run_cli(capsys, "verify", "--catalog", str(out_path))
    assert code == 0
    assert "total violations: 0" in out


def test_verify_json_schema(tmp_path, capsys):
    out_path = tmp_path / "n3.jsonl"
    assert run_cli(capsys, "census", "--order", "3", "--out", str(out_path))[0] == 0
    code, out, _ = run_cli(capsys, "verify", "--catalog", str(out_path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["total_violations"] == 0
    assert set(payload["assertions"]) >= {"W0", "V1", "V13", "S1"}
    for tally in payload["assertions"].values():
        assert set(tally) == {"instances_checked", "violations"}


def test_verify_exit_1_on_corruption(tmp_path, capsys):
    out_path = tmp_path / "n3.jsonl"
    assert run_cli(capsys, "census", "--order", "3", "--out", str(out_path))[0] == 0
    lines = out_path.read_text().splitlines()
    obj = json.loads(lines[0])
    row = list(obj["witnesses"][0]["b"][0])
    row[1] = "1"
    obj["witnesses"][0]["b"][0] = "".join(row)
    obj["witnesses"][0]["b"][1] = "1" + obj["witnesses"][0]["b"][1][1:]
    lines[0] = json.dumps(obj)
    out_path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "verify", "--catalog", str(out_path))
    assert code == 1
    assert "total violations" in out


def test_verify_exit_1_on_wrong_order(tmp_path, capsys):
    out_path = tmp_path / "n3.jsonl"
    assert run_cli(capsys, "census", "--order", "3", "--out", str(out_path))[0] == 0
    lines = out_path.read_text().splitlines()
    obj = json.loads(lines[0])
    assert obj["witnesses"]
    obj["n"] = 2
    lines[0] = json.dumps(obj)
    out_path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "verify", "--catalog", str(out_path))
    assert code == 1
    assert "stored n mismatch" in out


def test_order_9_screened_without_labelling(capsys):
    c9 = encode_graph6(cycle(9))
    code, out, _ = run_cli(capsys, "check", "--graph6", c9, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["graph_key"] is None
    r1 = payload["rules"][0]
    assert (r1["rule_id"], r1["status"]) == ("R1", "ruled_out")
    code, out, _ = run_cli(capsys, "factor", "--graph6", c9, "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "no"


def test_order_9_survivor_hits_the_search_cap(capsys):
    g6 = encode_graph6(disjoint_union(cycle(4), edgeless(5)))
    assert run_cli(capsys, "check", "--graph6", g6)[0] == 0
    code, _, err = run_cli(capsys, "factor", "--graph6", g6)
    assert code == 2
    assert "capped at order 8" in err


def test_library_default_and_cli_agree_at_order_8(capsys):
    g = disjoint_union(cycle(4), cycle(4))
    assert is_factorizable(g).verdict == "yes"
    code, out, _ = run_cli(capsys, "factor", "--graph6", encode_graph6(g), "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "yes"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("--kind", "cycle", "--n", "101"), "--n 101"),
        (("--kind", "counterexample", "--n", "16"), "--n 16"),
        (("--kind", "double", "--graph6", encode_graph6(cycle(32))), "--kind double"),
    ],
)
def test_construct_refuses_a_product_above_the_graph6_cap(capsys, monkeypatch, argv, flag):
    from graphfactor import cli

    def never(*args, **kwargs):
        raise AssertionError("built a product graph6 cannot print")

    monkeypatch.setattr(cli, "construct", never)
    code, _, err = run_cli(capsys, "construct", *argv)
    assert code == 2
    assert err.startswith(f"error: {flag}: product order ")


def test_factor_edgeless_order_9_lists_the_zero_pair(capsys):
    g6 = encode_graph6(edgeless(9))
    assert g6 == "H??????"
    code, out, _ = run_cli(capsys, "factor", "--graph6", g6)
    assert code == 0
    assert "verdict: yes" in out
    assert "witnesses: 1" in out
    assert "factor pair: H?????? * H??????" in out
    code, out, _ = run_cli(capsys, "factor", "--graph6", g6, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "yes"
    assert len(payload["witnesses"]) == 1
    assert payload["factor_pairs"] == [{"h_graph6": g6, "k_graph6": g6}]


@pytest.mark.parametrize(
    "field_name, forged", [("overall", "pass"), ("trivial", "yes")]
)
def test_verify_rejects_forged_screen_field(tmp_path, capsys, field_name, forged):
    out_path = tmp_path / "n6.jsonl"
    assert run_cli(capsys, "census", "--order", "6", "--out", str(out_path))[0] == 0
    lines = out_path.read_text().splitlines()
    obj = json.loads(lines[0])
    obj["screen"][field_name] = forged
    lines[0] = json.dumps(obj)
    out_path.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "verify", "--catalog", str(out_path))
    assert code == 1
    assert "line 1" in err and f"'{field_name}'" in err


def test_verify_missing_catalog_is_a_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", "--catalog", str(tmp_path / "missing.jsonl"))
    assert code == 2
    assert err.startswith("error: --catalog: ")


def test_verify_non_utf8_catalog_is_a_schema_error(tmp_path, capsys):
    out_path = tmp_path / "n3.jsonl"
    assert run_cli(capsys, "census", "--order", "3", "--out", str(out_path))[0] == 0
    lines = out_path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1].replace(b'"graph6"', b'"gr\xffph6"')
    out_path.write_bytes(b"".join(lines))
    with pytest.raises(CatalogSchemaError, match="line 2"):
        read_catalog(out_path)
    code, _, err = run_cli(capsys, "verify", "--catalog", str(out_path))
    assert code == 1
    assert "line 2" in err


@pytest.mark.parametrize("out", ["missing/x.jsonl", "."])
def test_census_unwritable_out_exits_before_enumerating(tmp_path, capsys, monkeypatch, out):
    from graphfactor import census as census_mod

    def never(*args, **kwargs):
        raise AssertionError("enumerated before checking --out")

    monkeypatch.setattr(census_mod, "run_census", never)
    code, _, err = run_cli(capsys, "census", "--order", "3", "--out", str(tmp_path / out))
    assert code == 2
    assert err.startswith("error: --out: ")


def test_census_write_error_is_a_usage_error(tmp_path, capsys, monkeypatch):
    from graphfactor import census as census_mod

    def full(records, path):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(census_mod, "write_catalog", full)
    code, _, err = run_cli(capsys, "census", "--order", "3", "--out", str(tmp_path / "x.jsonl"))
    assert code == 2
    assert "error: --out: " in err and "No space left" in err


def test_census_order_8_needs_flag(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "census", "--order", "8", "--out", str(tmp_path / "x.jsonl")
    )
    assert code == 2
    assert "--allow-order-8" in err


def test_census_order_9_rejected(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "census", "--order", "9", "--out", str(tmp_path / "x.jsonl")
    )
    assert code == 2


def test_usage_error_bad_graph6(capsys):
    code, _, err = run_cli(capsys, "factor", "--graph6", "~~~~")
    assert code == 2
    assert "--graph6" in err


def test_usage_error_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        main(["factor", "--graph6", "Bw", "--frobnicate"])
    assert exc.value.code == 2


def test_identical_invocations_identical_output(capsys):
    first = run_cli(capsys, "factor", "--graph6", C6, "--all", "--json")
    second = run_cli(capsys, "factor", "--graph6", C6, "--all", "--json")
    assert first == second


def test_factor_include_trivial_on_edgeless(capsys):
    g6 = encode_graph6(edgeless(3))
    code, out, _ = run_cli(capsys, "factor", "--graph6", g6, "--all", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "yes"
    assert any(w["trivial"] for w in payload["witnesses"])


def test_one_decision_path_for_library_cli_and_census(order6_records, capsys):
    records = [r for n in range(1, 6) for r in run_census(n)]
    records += [r for r in order6_records if r.graph6 == "E???"]
    assert len(records) == 53
    for rec in records:
        g = next(x for x in enumerate_graphs(rec.n) if encode_graph6(x) == rec.graph6)
        decision = is_factorizable(g, SearchConfig(mode="all"))
        code, out, _ = run_cli(capsys, "factor", "--graph6", rec.graph6, "--all", "--json")
        assert code == 0
        payload = json.loads(out)
        stored = [w.to_json() for w in rec.witnesses]
        assert decision.verdict == payload["verdict"] == rec.verdict, rec.graph6
        assert [f.to_json() for f in decision.witnesses] == payload["witnesses"] == stored
    assert len(records[-1].witnesses) == 1  # E???, so factor --all printed one witness


def test_import_cli_loads_no_process_pool():
    # Only census --jobs > 1 needs multiprocessing; it is imported there.
    probe = (
        "import sys, graphfactor.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
        "if m in sys.modules))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(graphfactor.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
