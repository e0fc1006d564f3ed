"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""
from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from graphfactor import census, cli, conditions, factorization, search, spectral  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

MODULES = (census, conditions, search, spectral, factorization.StoredWitness)


def _attributes() -> dict:
    return {(id(m), name): value for m in MODULES for name, value in vars(m).items()}


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _traced(fn):
    tracer = Tracer("test")
    tracer.install()
    try:
        return fn(), tracer.summary()
    finally:
        tracer.restore()


def test_restore_puts_every_original_back():
    before = _attributes()
    tracer = Tracer("test")
    tracer.install()
    try:
        assert search.is_factorizable is not before[(id(search), "is_factorizable")]
        assert _attributes() != before
    finally:
        tracer.restore()
    assert _attributes() == before


def test_traced_census_and_verify_match_untraced(tmp_path):
    census._CLASS_CACHE.pop(6, None)
    traced_out = tmp_path / "traced.jsonl"
    plain_out = tmp_path / "plain.jsonl"
    argv = ["census", "--order", "6", "--jobs", "1", "--out"]
    (code, _), layers = _traced(lambda: _cli(argv + [str(traced_out)]))
    assert code == 0
    assert _cli(argv + [str(plain_out)])[0] == 0
    assert traced_out.read_bytes() == plain_out.read_bytes()
    assert layers["graphs.canonical.enumerate.calls"] > 0
    assert layers["census.catalog_bytes"] == traced_out.stat().st_size

    verify = ["verify", "--catalog", str(plain_out), "--json"]
    (traced_report, layers) = _traced(lambda: _cli(verify))
    assert traced_report == _cli(verify)
    assert json.loads(traced_report[1])["total_violations"] == 0
    assert layers["graphs.canonical.verify.calls"] == layers["conditions.screen.calls"] == 156


def test_traced_decisions_match_untraced_and_counters_repeat():
    graphs = [worker.graph_of(mask) for mask in run.decide_inputs(run.DEFAULT_SEED)[:150]]
    cfg = search.SearchConfig(order_cap=8)

    def decide():
        return [search.is_factorizable(g, cfg).verdict for g in graphs]

    plain = decide()
    first, layers1 = _traced(decide)
    second, layers2 = _traced(decide)
    assert first == second == plain
    assert layers1["search.is_factorizable.calls"] == len(graphs)
    exact = {k for k, v in layers1.items() if isinstance(v, int)}
    assert "search.nodes" in exact and layers1["search.nodes"] > 0
    assert {k: layers1[k] for k in exact} == {k: layers2[k] for k in exact}


def test_witness_check_rejects_a_wrong_product():
    g = worker.graph_of(run.decide_inputs(run.DEFAULT_SEED)[0])
    f = search.cycle_product(3)
    assert worker.witness_ok(f.g, f)
    assert not worker.witness_ok(g, f)


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(1000)))[0] == "p99"
    assert run.tail(list(range(100)))[0] == "p90"
    assert run.tail(list(range(5))) == ("max", 4)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decide-8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
