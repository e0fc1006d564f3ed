"""A defect matrix: each row plants one defect in one layer and names the
checker that must catch it, with the message or oracle failure it gives.

Census-only rows patch the census as run_census(6) runs it, write the
catalog, and run verify unpatched on its lines: verify must name the
defect.  Shared rows patch code that census and verify both run, which
verify cannot see, and run the tier-1 oracle that must.

A catalog with one class deleted has no row: verify checks each line it
is given, and naming a missing class needs a completeness check by class
count that it does not have.

The single-edit fuzz below edits one field of an order-6 line at a time;
verify must report every edit but a lambda_max moved inside the tolerance
of its certificate.
"""
from __future__ import annotations

import json
from typing import Callable, NamedTuple

import pytest

from graphfactor import census as census_mod
from graphfactor import graphs as graphs_mod
from graphfactor import spectral
from graphfactor.census import enumerate_graphs, run_census, verify_lines, write_catalog
from graphfactor.errors import CatalogSchemaError, TheoremViolationError
from graphfactor.graphs import decode_graph6, graph_bits, is_connected
from graphfactor.search import FactorDecision, _degree_pairs
from graphfactor.spectral import DEFAULT_TOL, lambda_max

# The order-6 class the forgeries edit: three disjoint edges, "yes" with
# six witnesses, lambda_max 1.0.
FORGED = "E?C_"


def _decisions(monkeypatch, change) -> None:
    """Patch the census's decision of each class g to change(g, decision)."""
    real = census_mod.is_factorizable

    def decide(g, cfg):
        return change(g, real(g, cfg))

    monkeypatch.setattr(census_mod, "is_factorizable", decide)


def _of_forged(change):
    """A defect that applies change to the decision of FORGED alone."""
    def plant(monkeypatch):
        _decisions(monkeypatch, lambda g, d: change(d) if graph_bits(g) == _forged_key() else d)
    return plant


def _forged_key() -> str:
    return graph_bits(decode_graph6(FORGED))


def _as_no(d: FactorDecision) -> FactorDecision:
    return d._replace(verdict="no", witnesses=())


def _drop_last_witness(d: FactorDecision) -> FactorDecision:
    return d._replace(witnesses=d.witnesses[:-1])


def _integer_lambda(monkeypatch):
    """The census writes a lambda_max of 1.0 as the JSON integer 1."""
    def written(g):
        value = lambda_max(g)
        return int(value) if value == 1.0 else value

    monkeypatch.setattr(census_mod, "lambda_max", written)


def _loose_kernel(monkeypatch):
    """Jacobi stops at 1e6 times its tolerance."""
    kernel = spectral._jacobi_flat
    monkeypatch.setattr(spectral, "_jacobi_flat", lambda n, a, tol: kernel(n, a, tol * 1e6))
    spectral._lambda_max.cache_clear()


def _loosened(records) -> list:
    """The records whose lambda_max the loose kernel moves past the
    certificate's tolerance."""
    with pytest.MonkeyPatch.context() as patched:
        _loose_kernel(patched)
        loose = [lambda_max(decode_graph6(r.graph6)) for r in records]
    spectral._lambda_max.cache_clear()
    return [
        r for r, v in zip(records, loose)
        if abs(v - r.lambda_max) > DEFAULT_TOL * max(1.0, abs(r.lambda_max))
    ]


def _mismatches(records, *fields):
    """Verify's messages for each of the records, one per field named."""
    return [f"record {r.graph6!r}: stored {name} mismatch" for r in records for name in fields]


def _said_no(records):
    """Verify's messages for each of the "yes" records written as "no":
    each field that a "no" writes otherwise."""
    return [
        message for r in records for message in _mismatches(
            [r], "verdict", "factor_pairs",
            *(["component_iso_evidence"] if r.component_iso_evidence is not None else []),
            "witnesses",
        )
    ]


def _loose_kernel_found(honest, planted):
    """Verify's messages for a catalog the loose kernel wrote: each
    lambda_max it moved, and each violation of V13 or S1 it made up."""
    moved = {r.graph6 for r in _loosened(honest)}
    return [
        message for h, p in zip(honest, planted) for message in _mismatches(
            [h], *(["lambda_max"] if h.graph6 in moved else []),
            *(["violations"] if p.violations else []),
        )
    ]


class Defect(NamedTuple):
    layer: str
    plant: Callable  # plant(monkeypatch) puts the defect in place
    checker: str
    # expected(honest records, planted records) -> verify's integrity
    # messages, for a census-only row; () -> (exception, message) for a
    # shared one
    expected: Callable


def _forged(records):
    return [r for r in records if r.graph6 == FORGED]


# Census-only rows: verify of the catalog run_census(6) writes with the
# defect in place.
CENSUS_ONLY = {
    "a 'yes' class written as 'no'": Defect(
        "catalog",
        _of_forged(_as_no),
        "verify",
        lambda honest, planted: _said_no(_forged(honest)),
    ),
    "one witness of a class dropped": Defect(
        "catalog",
        _of_forged(_drop_last_witness),
        "verify",
        lambda honest, planted: _mismatches(_forged(honest), "witnesses"),
    ),
    "lambda_max 1.0 written as 1": Defect(
        "catalog",
        _integer_lambda,
        "verify",
        lambda honest, planted: _mismatches(
            [r for r in honest if r.lambda_max == 1.0], "lambda_max"
        ),
    ),
    "search drops the last witness of each class with several": Defect(
        "search",
        lambda mp: _decisions(
            mp, lambda g, d: _drop_last_witness(d) if len(d.witnesses) > 1 else d
        ),
        "verify",
        lambda honest, planted: _mismatches(
            [r for r in honest if len(r.witnesses) > 1], "witnesses"
        ),
    ),
    "search answers 'no' for every connected 'yes' class": Defect(
        "search",
        lambda mp: _decisions(
            mp, lambda g, d: _as_no(d) if d.verdict == "yes" and is_connected(g) else d
        ),
        "verify",
        lambda honest, planted: _said_no(
            [r for r in honest if r.verdict == "yes" and r.connected]
        ),
    ),
    "Jacobi kernel loosened 10^6 times": Defect(
        "spectral",
        _loose_kernel,
        "verify (lambda_max_certified)",
        _loose_kernel_found,
    ),
}


def _verify_written(records, tmp_path):
    path = tmp_path / "catalog.jsonl"
    write_catalog(records, path)
    return verify_lines(path.read_bytes().splitlines(keepends=True))


@pytest.mark.parametrize("name", sorted(CENSUS_ONLY))
def test_verify_names_a_census_only_defect(order6_records, tmp_path, monkeypatch, name):
    defect = CENSUS_ONLY[name]
    with monkeypatch.context() as patched:
        defect.plant(patched)
        planted = run_census(6)
    spectral._lambda_max.cache_clear()  # of the loose kernel's values
    expected = defect.expected(order6_records, planted)
    assert expected
    report = _verify_written(planted, tmp_path)
    assert report.integrity == expected
    assert report.total_violations == len(expected)
    assert _verify_written(order6_records, tmp_path).total_violations == 0


def _identity_labelling(monkeypatch):
    """Every graph's key is its own bit-string, as if each labelling were
    canonical."""
    real = graphs_mod._canonical_order
    monkeypatch.setattr(
        graphs_mod, "_canonical_order", lambda g: (graph_bits(g), *real(g)[1:])
    )
    monkeypatch.delitem(census_mod._CLASS_CACHE, 5, raising=False)


# Shared rows: the oracle that must fail with the defect in place.
SHARED = {
    "a wrong canonical key": Defect(
        "graphs",
        _identity_labelling,
        "enumerate_graphs's orbit-count recheck (every census; "
        "test_enumerate_matches_networkx_atlas)",
        lambda: (TheoremViolationError, "class count mismatch at order 5"),
    ),
}


@pytest.mark.parametrize("name", sorted(SHARED))
def test_an_oracle_names_a_shared_defect(monkeypatch, name):
    defect = SHARED[name]
    kind, message = defect.expected()
    with monkeypatch.context() as patched:
        defect.plant(patched)
        with pytest.raises(kind, match=message):
            enumerate_graphs(5)
    assert len(enumerate_graphs(5)) == 34


# ---------------------------------------------------------------------------
# single-edit fuzz
# ---------------------------------------------------------------------------

def _variants(value) -> list:
    """Values that replace value in one edit: another value of its type,
    and an equal value of another JSON type where one exists."""
    if isinstance(value, bool):
        return [not value, int(value)]
    if isinstance(value, int):
        return [value + 1, float(value)]
    if isinstance(value, float):
        return [value + 1.0] + ([int(value)] if value.is_integer() else [])
    if isinstance(value, str):
        return [value[:-1] + chr(ord(value[-1]) ^ 1) if value else "x"]
    if value is None:
        return [False]
    if isinstance(value, list):
        return [value[:-1], value + [value[-1] if value else 0]]
    return [{k: v for k, v in value.items() if k != gone} for gone in value] + [
        {**value, "forged": 0}
    ]


def _edits(value, path=()):
    """(path, edited copy of value) for each single edit of value or of a
    value nested in it."""
    for other in _variants(value):
        if json.dumps(other) != json.dumps(value):
            yield path, other
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in children:
        for where, edited in _edits(child, path + (key,)):
            copy = json.loads(json.dumps(value))
            copy[key] = edited
            yield where, copy


def _kind(rec) -> str:
    if rec.screen.overall == "ruled_out":
        return "screened no"
    if rec.screen.trivial:
        return "edgeless"
    if rec.verdict == "yes":
        return "yes"
    return "root-refuted no" if _degree_pairs(decode_graph6(rec.graph6)) is None else "searched no"


def _reported(line: str) -> bool:
    try:
        return verify_lines([line.encode() + b"\n"]).total_violations > 0
    except CatalogSchemaError:
        return True


@pytest.mark.parametrize(
    "kind", ["screened no", "root-refuted no", "searched no", "yes", "edgeless"]
)
def test_verify_reports_every_single_edit_of_a_line(order6_records, kind):
    # The first record of the kind with the fewest witnesses.
    rec = min((r for r in order6_records if _kind(r) == kind), key=lambda r: len(r.witnesses))
    obj = rec.to_json()
    encode = census_mod._CATALOG_ENCODER.encode
    assert not _reported(encode(obj))
    edits = list(_edits(obj))
    fields = {path[0] for path, _ in edits if path}
    assert fields == set(obj)
    assert [path for path, edited in edits if not _reported(encode(edited))] == []
    if kind == "yes":
        assert any(path[:1] == ("witnesses",) and len(path) == 4 for path, _ in edits)
    assert any(path[:2] == ("screen", "rules") and len(path) == 4 for path, _ in edits)
    # Inside the certificate's tolerance, a moved lambda_max stands.
    lam = obj["lambda_max"]
    assert not _reported(encode({**obj, "lambda_max": lam + DEFAULT_TOL * max(1.0, lam) / 4}))
