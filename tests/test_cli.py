import hashlib
import json
import os
import subprocess
import sys

import pytest

import graphfactor

from graphfactor import census as census_mod
from graphfactor.cli import main
from graphfactor.census import (
    enumerate_graphs, read_catalog, run_census, verify_catalog, write_catalog,
)
from graphfactor.errors import CatalogSchemaError, TheoremViolationError
from graphfactor.factorization import StoredWitness
from graphfactor.graphs import (
    canonical_key, cycle, disjoint_union, edgeless, encode_graph6,
)
from graphfactor.search import SearchConfig, is_factorizable
from oracles import encode_edge_list, path


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


# sha256 of `construct --kind ... --json`; the double is of the triangle.
CONSTRUCT_JSON_SHA256 = {
    ("cycle", "--n", "3"): "9855ec0a29d0654279cd41fd3c484eab8a77e28ee5b792e7aa577e557be5513f",
    ("cycle", "--n", "31"): "76fb62621178e0db4d4fd6a25314c4c4f20b1c28cc2d36387addad2a0c125259",
    ("counterexample", "--n", "3"): (
        "c69adbf260a3579f6b6fa816ab32af1463d9a1f544d02079d3cb053b8e82cc8d"
    ),
    ("double", "--graph6", "Bw"): "9e53263383ba577fdcd293309a607f209075a8d774588c93777d17dac748441a",
}


@pytest.mark.parametrize("args", sorted(CONSTRUCT_JSON_SHA256))
def test_construct_json_bytes_pinned(capsys, args):
    code, out, _ = run_cli(capsys, "construct", "--kind", *args, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CONSTRUCT_JSON_SHA256[args]


# sha256 of the text of `construct --kind ...`, which prints the A, B and C
# rows; the same kinds as CONSTRUCT_JSON_SHA256.
CONSTRUCT_TEXT_SHA256 = {
    ("cycle", "--n", "3"): "2611bbea4dcdf65c1794e1756f514b05764852a0ac9f9c4753baa48eb9e77ce8",
    ("cycle", "--n", "31"): "17fd81e61fbfcd7b3ecfda7d8afeebc4514da4721ec1d8e2ac517616b76a0e12",
    ("counterexample", "--n", "3"): (
        "3adc051485d37c49cf9548131e4113635ca8837c6b30595c01daa369661ec1cd"
    ),
    ("double", "--graph6", "Bw"): "93a587aabb4267a1542e2b8dd56fbf8a9cb193b89b7b185a175787d7a0ed1162",
}


@pytest.mark.parametrize("args", sorted(CONSTRUCT_TEXT_SHA256))
def test_construct_text_bytes_pinned(capsys, args):
    code, out, _ = run_cli(capsys, "construct", "--kind", *args)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CONSTRUCT_TEXT_SHA256[args]


# sha256 of the concatenated outputs of `spectral`, `check` and
# `factor --all`, as text and as --json, over every class of orders 1-6
# (208 graphs, in enumeration order), and of `spectral` and `spectral
# --json` of graphs above the canonical cap, whose Jacobi sweep walks the
# rotation plan.
COMMAND_SHA256 = {
    ("spectral",): "a70a2e198b12cf6d7bae61490979ceeb1f6a1311723fb5be4c058dc8dc6b9810",
    ("check",): "76cf6c428fd0186dcdf22b997917a52c97b45bdfd27bfb66f5ecfedbc3d0f576",
    ("factor", "--all"): "42c76741d7ba4de73084854cde691109a49a0edd1151ded8419f095f571682bb",
    ("spectral", "--json"): "01bf5534f7eb210ea96cfea83826022e2842bb20f747980a75ad647dda08ac9f",
    ("check", "--json"): "6ebd9a1e1cff61eac88fae096ca618e9ae69636a5168a3f416483cc31c15d67c",
    ("factor", "--all", "--json"): (
        "116d08c75131bdad6b436ef057d101fdae8c0691b288642262eac57be9a18e69"
    ),
}
# name: (graph, sha256 of the text, sha256 of --json)
SPECTRAL_SHA256 = {
    "P20": (
        path(20),
        "2fa2d7482dfe34c3fe4264216b3169a09203e9f5291a598033a39c5b4553cd20",
        "870958783e0d552ee326fb5c6da3707197d561cc9afe0c0680dacd198aabf29f",
    ),
    "C31": (
        cycle(31),
        "f9630266795fb917a3c4355c86cd92ef9e6adea97b26f03d98aa9990ca5eab50",
        "a899333db4207a09eee3378cf2e0d9d8bd9a75d5cc73cf547b5900b78eaefe69",
    ),
    "P62": (
        path(62),
        "c5c98673b73c4d533d44ecebce9b8f40148e589ccd5c21d5d5f3057834b00785",
        "fcf372dfb962da88525bad2736574e38bdecaff6b45ec6c27f2bed21b69376db",
    ),
}


@pytest.mark.parametrize("argv", sorted(COMMAND_SHA256), ids=" ".join)
def test_command_json_bytes_pinned_on_every_class_to_order_6(capsys, argv):
    command, *flags = argv
    digest = hashlib.sha256()
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            code, out, _ = run_cli(capsys, command, "--graph6", encode_graph6(g), *flags)
            assert code == 0
            digest.update(out.encode("utf-8"))
    assert digest.hexdigest() == COMMAND_SHA256[argv]


@pytest.mark.parametrize("name", sorted(SPECTRAL_SHA256))
def test_spectral_json_bytes_pinned_above_the_canonical_cap(capsys, name):
    g, text, json_ = SPECTRAL_SHA256[name]
    for flags, want in (((), text), (("--json",), json_)):
        code, out, _ = run_cli(capsys, "spectral", "--graph6", encode_graph6(g), *flags)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want


def test_construct_double_requires_input(capsys):
    code, _, err = run_cli(capsys, "construct", "--kind", "double")
    assert code == 2
    assert "double" in err


@pytest.mark.parametrize("argv, flag", [
    (["--kind", "double", "--graph6", "Bw", "--n", "5"], "--n"),
    (["--kind", "counterexample", "--n", "3", "--graph6", "Bw"], "--graph6"),
    (["--kind", "cycle", "--n", "3", "--edges", "missing.txt"], "--edges"),
])
def test_construct_rejects_a_flag_its_kind_never_reads(capsys, argv, flag):
    code, out, err = run_cli(capsys, "construct", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: --kind {argv[1]} does not read {flag}\n"


def test_construct_double_refuses_graph6_and_edges_together(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--kind", "double", "--graph6", "Bw", "--edges", "missing.txt"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "argument --edges: not allowed with argument --graph6" in captured.err


def test_construct_reports_a_violation_of_its_witness(capsys, monkeypatch):
    # A lambda_max that lies about the product of cycle 3 inside the spectral
    # module, where V13 reads it, makes V13 fail; construct validates its
    # witness once, reports the violation and exits 1.
    from graphfactor import search, spectral

    g = search.cycle_product(3).g
    truth = spectral.lambda_max
    monkeypatch.setattr(spectral, "lambda_max", lambda x: 3.0 if x == g else truth(x))
    code, out, _ = run_cli(capsys, "construct", "--kind", "cycle", "--n", "3")
    assert code == 1
    assert out.endswith("lambda_max(G) = 2 vs lambda_max(H)*lambda_max(K) = 1*2 = 2\n"
                        "validation: VIOLATIONS\n")
    code, out, _ = run_cli(capsys, "construct", "--kind", "cycle", "--n", "3", "--json")
    assert code == 1
    items = json.loads(out)["violations"]["items"]
    assert [v["assertion_id"] for v in items] == ["V13"]
    assert items[0]["expected"] == "lambda_max(G) = lambda_max(H) * lambda_max(K)"
    assert items[0]["observed"] == "3.0 vs 2.0"


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
    for tally in payload["rules"].values():
        assert set(tally) == {"instances_checked", "ruled_out", "violations"}


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

    for name in ("cycle_product", "disconnected_counterexample", "doubled_graph"):
        monkeypatch.setattr(cli, name, never)
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


@pytest.mark.parametrize("lineno, graph6, forged", [(1, "A?", False), (2, "A_", True)])
def test_verify_rejects_a_boolean_lambda_max(tmp_path, capsys, lineno, graph6, forged):
    # JSON true and false would read as 1 and 0, the two lambda_max values
    # of order 2.
    out_path = tmp_path / "n2.jsonl"
    assert run_cli(capsys, "census", "--order", "2", "--out", str(out_path))[0] == 0
    lines = out_path.read_text().splitlines()
    obj = json.loads(lines[lineno - 1])
    assert obj["graph6"] == graph6 and obj["lambda_max"] == int(forged)
    obj["lambda_max"] = forged
    lines[lineno - 1] = json.dumps(obj)
    out_path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "verify", "--catalog", str(out_path))
    assert code == 1
    assert out == ""
    assert err == f"error: line {lineno}: field 'lambda_max' has the wrong type\n"


def test_verify_missing_catalog_is_a_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", "--catalog", str(tmp_path / "missing.jsonl"))
    assert code == 2
    assert err.startswith("error: --catalog: ")


@pytest.mark.parametrize("argv", [
    ["factor"], ["check"], ["spectral"], ["construct", "--kind", "double"],
], ids=" ".join)
def test_non_utf8_edges_file_is_a_usage_error(tmp_path, capsys, argv):
    f = tmp_path / "g.txt"
    f.write_bytes(b"0 1\n\xff\n")
    code, out, err = run_cli(capsys, *argv, "--edges", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith("error: --edges: ") and err.count("\n") == 1


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


def verify_at_jobs_1_and_2(capsys, path):
    return [
        run_cli(capsys, "verify", "--catalog", str(path), "--json", "--jobs", jobs)
        for jobs in ("1", "2")
    ]


def test_verify_order_6_report_is_the_same_at_any_jobs(
    tmp_path, capsys, pool_of_two, order6_records
):
    path = tmp_path / "n6.jsonl"
    write_catalog(order6_records, path)
    serial, parallel = verify_at_jobs_1_and_2(capsys, path)
    assert pool_of_two == [2]
    assert serial == parallel
    assert serial[0] == 0
    expected = verify_catalog([rec.to_json() for rec in order6_records]).to_json()
    assert serial[1] == json.dumps(expected, indent=2) + "\n"


@pytest.fixture(scope="module")
def verify_catalogs(tmp_path_factory, order6_records):
    """The order-7 catalog, and the order-6 catalog with one bit of the
    first witness of C6 flipped."""
    root = tmp_path_factory.mktemp("verify")
    order7 = root / "n7.jsonl"
    write_catalog(run_census(7, jobs=1), order7)
    objs = [rec.to_json() for rec in order6_records]
    c6 = next(obj for obj in objs if obj["canonical_key"] == canonical_key(cycle(6)))
    row = c6["witnesses"][0]["b"][0]
    c6["witnesses"][0]["b"][0] = row[0] + ("1" if row[1] == "0" else "0") + row[2:]
    forged = root / "forged6.jsonl"
    forged.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    return {"order 7": order7, "forged order 6": forged}


def test_verify_order_7_counts_the_classes_each_rule_rules_out(
    capsys, pool_of_two, verify_catalogs
):
    path = verify_catalogs["order 7"]
    serial, parallel = verify_at_jobs_1_and_2(capsys, path)
    assert serial == parallel
    assert serial[0] == 0
    ruled_out = {"R1": 522, "R2": 73, "R3": 11, "R4": 12}
    assert json.loads(serial[1])["rules"] == {
        rid: {"instances_checked": 1044, "ruled_out": count, "violations": 0}
        for rid, count in ruled_out.items()
    }
    text = [
        run_cli(capsys, "verify", "--catalog", str(path), "--jobs", jobs)
        for jobs in ("1", "2")
    ]
    assert text[0] == text[1]
    assert pool_of_two == [2, 2]
    for rid, count in ruled_out.items():
        assert f"  {rid}:   1044 / {count:6d} / 0\n" in text[0][1]


# sha256 of the `verify` report of each catalog of verify_catalogs, as
# text and as --json; any change to a report byte is a change to a count,
# an integrity message or the report format.
VERIFY_REPORT_SHA256 = {
    "order 7": (
        "80d21fabea5b26441df4877fed856fca91405d3787a70dfbbf37a7e6c979f645",
        "22fb302b531925866eaf3bebd46084824c6e557480ab32770799952fa6e704c4",
    ),
    "forged order 6": (
        "a931679cd97700cd4ac6bd0970e5b3a5bfe855a9dbffbedd45a6f7b0c30ddf05",
        "43b65f9cd57b18b75ab49044690dd0a0004708fcbb89379191372e01fdae65b0",
    ),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", sorted(VERIFY_REPORT_SHA256))
def test_verify_report_bytes_pinned(capsys, pool_of_two, verify_catalogs, name, jobs):
    path = str(verify_catalogs[name])
    for flags, digest in zip(((), ("--json",)), VERIFY_REPORT_SHA256[name]):
        code, out, _ = run_cli(capsys, "verify", "--catalog", path, "--jobs", jobs, *flags)
        assert code == (0 if name == "order 7" else 1)
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, flags


def test_verify_forged_catalog_report_is_the_same_at_any_jobs(
    tmp_path, capsys, pool_of_two, order6_records
):
    objs = [rec.to_json() for rec in order6_records]
    yes = [i for i, obj in enumerate(objs) if obj["witnesses"]]
    objs[3]["graph6"] = "E??"  # does not decode
    objs[yes[-1]]["witnesses"][0] = objs[yes[-2]]["witnesses"][0]
    objs[100]["lambda_max"] += 1.0
    objs.append(objs[5])  # line 157 repeats line 6, four runs of lines later
    assert len(objs) > 4 * census_mod.RUN_RECORDS
    path = tmp_path / "forged.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    serial, parallel = verify_at_jobs_1_and_2(capsys, path)
    assert pool_of_two == [2]
    assert serial == parallel
    assert serial[0] == 1
    report = json.loads(serial[1])
    assert report == verify_catalog(read_catalog(path)).to_json()
    assert report["integrity"] == [
        "record 'E??': graph6 does not decode to a class: "
        "byte 3: order 6 needs 3 edge bytes, got 2",
        f"record {objs[100]['graph6']!r}: stored lambda_max mismatch",
        f"record {objs[yes[-1]]['graph6']!r}: witness 0 targets a different graph",
        f"record {objs[yes[-1]]['graph6']!r}: stored witnesses mismatch",
        f"record {objs[5]['graph6']!r}: class listed more than once",
    ]


def _edited(change, message):
    """A catalog edit: the first record with a witness, after change(record);
    returns the line and the schema error text it raises."""
    def edit(objs):
        obj = next(obj for obj in objs if obj["witnesses"])
        change(obj)
        return json.dumps(obj).encode() + b"\n", message
    return edit


def _unknown_field(what, pick):
    """A catalog edit that adds a field 'forged' to the object pick(record)."""
    return _edited(lambda obj: pick(obj).update(forged=1), f"{what} has unknown field 'forged'")


def _violation(obj):
    """The record's one violation, after giving it one."""
    obj["violations"]["items"] = [
        {"assertion_id": "V1", "expected": "", "observed": "", "paper_ref": ""}
    ]
    return obj["violations"]["items"][0]


@pytest.mark.parametrize("bad", [
    b'{"n": 6, "gr\xffph6": "E???"}\n',
    b'{"n": 6,\n',
    pytest.param(b"[" * 5000 + b"]" * 5000 + b"\n", id="nested-5000-deep"),
    pytest.param(b'{"n": 1' + b"0" * 4_400 + b"}\n", id="integer-past-the-digit-limit"),
    pytest.param(_unknown_field("record", lambda obj: obj), id="unknown-record-field"),
    pytest.param(_unknown_field("screen", lambda obj: obj["screen"]), id="unknown-screen-field"),
    pytest.param(
        _unknown_field("screen rule", lambda obj: obj["screen"]["rules"][1]),
        id="unknown-rule-field",
    ),
    pytest.param(
        _unknown_field("witness", lambda obj: obj["witnesses"][0]), id="unknown-witness-field"
    ),
    pytest.param(
        _unknown_field("violations", lambda obj: obj["violations"]),
        id="unknown-violations-field",
    ),
    pytest.param(_unknown_field("violation", _violation), id="unknown-violation-field"),
    pytest.param(
        _edited(lambda obj: obj.update(verdict="maybe"), "invalid verdict 'maybe'"),
        id="invalid-verdict",
    ),
    pytest.param(
        _edited(
            lambda obj: obj["screen"].update(overall="ruled_out"),
            "screen field 'overall' is 'ruled_out' but its rules give 'inconclusive'",
        ),
        id="overall-against-its-rules",
    ),
    pytest.param(
        _edited(
            lambda obj: obj.update(component_iso_evidence="yes"),
            "field 'component_iso_evidence' must be bool or null",
        ),
        id="non-boolean-iso-evidence",
    ),
    pytest.param(
        _edited(
            lambda obj: obj["factor_pairs"][0].pop("k_graph6"),
            "factor_pairs entries need h_graph6 and k_graph6",
        ),
        id="half-a-factor-pair",
    ),
    pytest.param(
        _edited(
            lambda obj: obj["screen"].update(trivial=1),
            "screen field 'trivial' must be a boolean",
        ),
        id="non-boolean-screen-trivial",
    ),
    pytest.param(
        _edited(lambda obj: obj.update(connected=1), "field 'connected' has the wrong type"),
        id="integer-connected",
    ),
    pytest.param(lambda objs: (b"5\n", "record is not a JSON object"), id="number-line"),
    pytest.param(lambda objs: (b"null\n", "record is not a JSON object"), id="null-line"),
    pytest.param(
        _edited(lambda obj: obj.pop("n"), "record is missing field 'n'"), id="record-without-n"
    ),
    pytest.param(
        _edited(lambda obj: obj["screen"].pop("graph_key"), "screen is missing field 'graph_key'"),
        id="screen-without-graph-key",
    ),
    pytest.param(
        _edited(lambda obj: obj["screen"].update(rules=5), "screen field 'rules' must be a list"),
        id="rules-not-a-list",
    ),
    pytest.param(
        _edited(
            lambda obj: obj["screen"]["rules"][1].pop("detail"),
            "screen rule is missing field 'detail'",
        ),
        id="rule-without-detail",
    ),
    pytest.param(
        _edited(
            lambda obj: obj["screen"]["rules"].__setitem__(1, "R2"),
            "screen rule is not a JSON object",
        ),
        id="rule-as-a-string",
    ),
    pytest.param(
        _edited(lambda obj: obj["violations"].pop("items"), "violations is missing field 'items'"),
        id="violations-without-items",
    ),
    pytest.param(
        _edited(
            lambda obj: obj["violations"].update(items=5), "violations field 'items' must be a list"
        ),
        id="items-not-a-list",
    ),
    pytest.param(
        _edited(
            lambda obj: obj["violations"]["items"].append("V1"), "violation is not a JSON object"
        ),
        id="violation-as-a-string",
    ),
    pytest.param(
        _edited(
            lambda obj: obj["witnesses"].__setitem__(0, "abc"), "witness is not a JSON object"
        ),
        id="witness-as-a-string",
    ),
])
def test_verify_schema_error_is_the_same_at_any_jobs(
    tmp_path, capsys, pool_of_two, order6_records, bad
):
    path = tmp_path / "n6.jsonl"
    write_catalog(order6_records, path)
    lines = path.read_bytes().splitlines(keepends=True)
    named = None
    if callable(bad):
        bad, named = bad([rec.to_json() for rec in order6_records])
    lines[70:70] = [b"\n", b"  \n", bad]
    path.write_bytes(b"".join(lines))
    with pytest.raises(CatalogSchemaError, match="^line 73: ") as caught:
        read_catalog(path)
    if named is not None:
        assert str(caught.value) == f"line 73: {named}"
    serial, parallel = verify_at_jobs_1_and_2(capsys, path)
    assert pool_of_two == [2]
    assert serial == parallel == (1, "", f"error: {caught.value}\n")


def test_verify_lambda_max_beyond_a_float_is_a_schema_error_at_any_jobs(
    tmp_path, capsys, pool_of_two, order6_records
):
    path = tmp_path / "n6.jsonl"
    write_catalog(order6_records, path)
    lines = path.read_bytes().splitlines(keepends=True)
    head, sep, tail = lines[72].partition(b'"lambda_max":')
    lines[72] = head + sep + b"1" + b"0" * 400 + tail[tail.index(b","):]
    path.write_bytes(b"".join(lines))
    with pytest.raises(CatalogSchemaError, match="^line 73: ") as caught:
        read_catalog(path)
    serial, parallel = verify_at_jobs_1_and_2(capsys, path)
    assert pool_of_two == [2]
    assert serial == parallel == (1, "", f"error: {caught.value}\n")


@pytest.mark.parametrize("out",["missing/x.jsonl", "."])
def test_census_unwritable_out_exits_before_enumerating(tmp_path, capsys, monkeypatch, out):
    from graphfactor import census as census_mod

    def never(*args, **kwargs):
        raise AssertionError("enumerated before checking --out")

    monkeypatch.setattr(census_mod, "run_census", never)
    code, _, err = run_cli(capsys, "census", "--order", "3", "--out", str(tmp_path / out))
    assert code == 2
    assert err.startswith("error: --out: ")


@pytest.mark.parametrize("out", ["", "new/", "existing.jsonl/"])
def test_census_out_naming_no_file_exits_before_enumerating(tmp_path, capsys, monkeypatch, out):
    # Made absolute, these paths name the working directory, or a directory
    # that the catalog would be written over as a file.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "existing.jsonl").write_text("kept\n")
    code, out_text, err = run_cli(capsys, "census", "--order", "3", "--out", out)
    assert code == 2
    assert err.startswith("error: --out: ")
    assert "classes" not in err and out_text == ""
    assert sorted(os.listdir(tmp_path)) == ["existing.jsonl"]
    assert (tmp_path / "existing.jsonl").read_text() == "kept\n"


def test_census_write_error_is_a_usage_error(tmp_path, capsys, monkeypatch):
    from graphfactor import census as census_mod

    def full(records, path):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(census_mod, "write_catalog", full)
    code, _, err = run_cli(capsys, "census", "--order", "3", "--out", str(tmp_path / "x.jsonl"))
    assert code == 2
    assert "error: --out: " in err and "No space left" in err


@pytest.mark.parametrize("command", ["census", "verify", "factor"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_a_usage_error(tmp_path, capsys, monkeypatch, command, jobs):
    # factor's --node-limit is a count like --jobs, and is named the same way.
    from graphfactor import cli

    def never(*args, **kwargs):
        raise AssertionError("ran with a count below 1")

    monkeypatch.setattr(census_mod, "run_census", never)
    monkeypatch.setattr(census_mod, "verify_lines", never)
    monkeypatch.setattr(cli, "is_factorizable", never)
    out = tmp_path / "x.jsonl"
    out.write_text("")
    argv, flag = {
        "census": (["census", "--order", "3", "--out", str(out)], "--jobs"),
        "verify": (["verify", "--catalog", str(out)], "--jobs"),
        "factor": (["factor", "--graph6", "A_"], "--node-limit"),
    }[command]
    code, stdout, err = run_cli(capsys, *argv, flag, jobs)
    assert (code, stdout, err) == (2, "", f"error: {flag} must be at least 1\n")
    assert out.read_text() == ""


# The --jobs help of census and verify, which states the one work-splitting
# rule, and census's --order help, as one line each.
JOBS_HELP = (
    "--jobs JOBS worker processes (default: the core count); the work goes to them "
    "in runs of 32 records (classes or catalog lines), at most one worker per 4 "
    "runs, and the output is byte-identical at any count"
)
ORDER_HELP = "--order ORDER graph order, 1 to 8"


@pytest.mark.parametrize("command", ["census", "verify"])
def test_census_and_verify_help_state_the_jobs_rule(capsys, monkeypatch, command):
    # Wide enough that argparse wraps no line, so a hyphen is never split.
    monkeypatch.setenv("COLUMNS", "1000")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert JOBS_HELP in text
    assert (ORDER_HELP in text) == (command == "census")


def test_census_order_8_needs_no_flag(tmp_path, capsys, monkeypatch):
    # run_census is stubbed: a census of order 8 takes seconds.
    orders = []

    def stub(n, *, jobs, progress):
        orders.append(n)
        return []

    monkeypatch.setattr(census_mod, "run_census", stub)
    out = tmp_path / "x.jsonl"
    code, _, _ = run_cli(capsys, "census", "--order", "8", "--out", str(out), "--jobs", "1")
    assert (code, orders) == (0, [8])
    assert out.read_text() == ""


@pytest.mark.parametrize("order", ["0", "9"])
def test_census_order_9_rejected(tmp_path, capsys, order):
    code, _, err = run_cli(
        capsys, "census", "--order", order, "--out", str(tmp_path / "x.jsonl")
    )
    assert code == 2
    assert err == "error: --order must lie in 1..8\n"


@pytest.mark.parametrize("command", ["spectral", "census", "verify"])
def test_tol_is_not_an_option(tmp_path, capsys, command):
    # Every spectral value is computed and compared to one fixed tolerance.
    out = tmp_path / "x.jsonl"
    argv = {
        "spectral": ["spectral", "--graph6", "Ch"],
        "census": ["census", "--order", "4", "--out", str(out), "--jobs", "1"],
        "verify": ["verify", "--catalog", str(out)],
    }[command]
    if command == "verify":
        out.write_text("")
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", "1e-9"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-9" in err
    assert out.exists() == (command == "verify")


@pytest.mark.parametrize(
    "flag", [["--keep-going"], ["--node-limit", "10"], ["--allow-order-8"]]
)
def test_census_takes_no_search_or_outcome_option(tmp_path, capsys, flag):
    # A catalog is a function of its order alone, and a violation always
    # fails the run.
    out = tmp_path / "x.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["census", "--order", "3", "--out", str(out), "--jobs", "1"] + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(flag) in capsys.readouterr().err
    assert not out.exists()


def test_census_writes_a_catalog_with_violations_and_exits_1(tmp_path, capsys, monkeypatch):
    from graphfactor.conditions import AssertionOutcome, Violation

    fake = (
        AssertionOutcome("V1", True, Violation("V1", "forced", "forced", "injected")),
    )
    monkeypatch.setattr(census_mod, "check_assertions", lambda f: fake)
    out = tmp_path / "n3.jsonl"
    code, stdout, _ = run_cli(
        capsys, "census", "--order", "3", "--jobs", "1", "--out", str(out)
    )
    assert code == 1
    assert "records with violations: 1" in stdout
    records = read_catalog(out)
    assert len(records) == 4
    assert [r["violations"]["items"] for r in records if r["violations"]["items"]] == [
        [{"assertion_id": "V1", "expected": "forced", "observed": "forced",
          "paper_ref": "injected"}]
    ]
    # verify rebuilds each record with the same checks and counts the one
    # violation the catalog stores.
    report = verify_catalog(records)
    assert report.assertions["V1"]["violations"] == 1
    assert report.total_violations == 1


def test_a_failing_census_worker_fails_the_run_and_keeps_the_catalog(
    tmp_path, capsys, monkeypatch, pool_of_two
):
    # One class of order 5's two runs of 32 and 2 classes fails to build:
    # class 33, in the second run, which the fork builds, then class 10, in
    # the first, which the parent builds.  No worker outlives the error.
    real = census_mod._build_record
    out = tmp_path / "n5.jsonl"
    out.write_bytes(b"kept\n")
    for index in (33, 10):
        failing_class = enumerate_graphs(5)[index]

        def build(g):
            if g == failing_class:
                raise TheoremViolationError("forced failure")
            return real(g)

        monkeypatch.setattr(census_mod, "_build_record", build)
        serial, parallel = (
            run_cli(capsys, "census", "--order", "5", "--jobs", jobs, "--out", str(out))
            for jobs in ("1", "2")
        )
        assert serial == parallel == (1, "", "error: forced failure\n")
        assert out.read_bytes() == b"kept\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert pool_of_two == [2, 2]


def test_a_census_worker_that_dies_fails_the_run_without_a_traceback(
    tmp_path, capsys, monkeypatch, pool_of_two
):
    # Of order 5's two runs, the fork builds the second and dies first.
    parent = os.getpid()
    real = census_mod._build_records

    def build(run):
        if os.getpid() != parent:
            os._exit(7)
        return real(run)

    monkeypatch.setattr(census_mod, "_build_records", build)
    out = tmp_path / "n5.jsonl"
    code, stdout, err = run_cli(capsys, "census", "--order", "5", "--jobs", "2", "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err == "error: worker 1 ended without the result of run 1\n"
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []
    assert pool_of_two == [2]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def test_import_cli_loads_no_process_pool(tmp_path, order6_records):
    # census and verify fork their own workers, so neither multiprocessing
    # nor concurrent.futures.process is ever imported, even by a verify at
    # --jobs 2 that forks one worker beside its own process.  The catalog
    # is large enough for two workers.
    path = tmp_path / "n6x2.jsonl"
    write_catalog(list(order6_records) * 2, path)
    probe = (
        "import contextlib, io, os, sys\n"
        "from graphfactor.cli import main\n"
        "def pool_modules():\n"
        "    return sorted(m for m in ('multiprocessing', 'concurrent.futures.process')"
        " if m in sys.modules)\n"
        "forks, real_fork = [], os.fork\n"
        "def fork():\n"
        "    forks.append(1)\n"
        "    return real_fork()\n"
        "os.fork, os.cpu_count = fork, lambda: 2\n"
        "print(pool_modules())\n"
        "for jobs in ('1', '2'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        main(['verify', '--catalog', {str(path)!r}, '--jobs', jobs])\n"
        "    print(len(forks), pool_modules())\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(graphfactor.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split("\n") == ["[]", "0 []", "1 []", ""]


# The stats object closing `factor --all --json`, byte for byte: C6 reaches
# the search, and D?K passes the screen but is refuted by the root filter.
FACTOR_STATS_JSON = {
    C6: (
        '  "stats": {\n'
        '    "nodes_expanded": 208,\n'
        '    "prunes_by_rule": {\n'
        '      "P1": 83,\n'
        '      "P2": 12,\n'
        '      "P3": 7\n'
        "    },\n"
        '    "witnesses_found": 2,\n'
        '    "exhausted": true\n'
        "  }\n"
        "}\n"
    ),
    "D?K": (
        '  "stats": {\n'
        '    "nodes_expanded": 1,\n'
        '    "prunes_by_rule": {\n'
        '      "P1": 0,\n'
        '      "P2": 0,\n'
        '      "P3": 1\n'
        "    },\n"
        '    "witnesses_found": 0,\n'
        '    "exhausted": true\n'
        "  }\n"
        "}\n"
    ),
}


@pytest.mark.parametrize("graph6", sorted(FACTOR_STATS_JSON))
def test_factor_json_stats_object_pinned(capsys, graph6):
    code, out, _ = run_cli(capsys, "factor", "--graph6", graph6, "--all", "--json")
    assert code == 0
    assert out[out.index('  "stats": '):] == FACTOR_STATS_JSON[graph6]


def _env_with_src() -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(graphfactor.__file__)))
    return dict(os.environ, PYTHONPATH=src)


def test_import_cli_loads_no_dataclasses_or_inspect():
    # -S keeps site hooks, which may import anything, out of the count.
    probe = (
        "import sys\n"
        "import graphfactor.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=_env_with_src(), capture_output=True, text=True, check=True,
    )
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_141_without_a_traceback(unbuffered):
    env = _env_with_src()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        done = subprocess.run(
            [sys.executable, "-m", "graphfactor.cli",
             "factor", "--graph6", "G]~v~w", "--all", "--json"],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert "BrokenPipeError" not in done.stderr
    assert "Traceback" not in done.stderr
