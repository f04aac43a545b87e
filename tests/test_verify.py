"""Registry coverage, verdict determinism, and the pinned regression fixture."""

import json
from pathlib import Path

import pytest

from setgraphs import (
    ALL_CLAIM_IDS,
    DEFAULT_CAPS,
    REGISTRY,
    materialize,
    max_cliques,
    render_report,
    run_claims,
    triangle_count_claimed,
    triangle_count_exact,
)
from setgraphs import parameters, verify
from setgraphs.verdicts import CONFIRMED, REFUTED, SKIPPED, ClaimVerdict

FIXTURE = Path(__file__).parent / "fixtures" / "claim_verdicts.json"


def test_registry_covers_c1_to_c22():
    assert ALL_CLAIM_IDS == tuple(f"C{i}" for i in range(1, 23))
    anchors = [claim.anchor for claim in REGISTRY]
    assert len(set(anchors)) == len(anchors)
    assert all(claim.description for claim in REGISTRY)
    assert all(claim.anchor for claim in REGISTRY)


def test_selection_handling():
    verdicts = run_claims("C8,C11", 6)
    assert [v.claim_id for v in verdicts] == ["C8", "C11"]
    # order is registry order regardless of how the selection is written
    verdicts = run_claims(["C11", "C8"], 6)
    assert [v.claim_id for v in verdicts] == ["C8", "C11"]
    with pytest.raises(ValueError):
        run_claims([], 6)
    with pytest.raises(ValueError):
        run_claims("C99", 6)
    with pytest.raises(ValueError):
        run_claims("all", 0)


def test_c8_confirmed_up_to_10():
    (verdict,) = run_claims("C8", 10)
    assert verdict.status == CONFIRMED
    assert verdict.n_tested == tuple(range(1, 11))


def test_c11_refuted_at_3():
    (verdict,) = run_claims("C11", 6)
    assert verdict.status == REFUTED
    ce = verdict.counterexample
    assert ce["n"] == 3
    assert ce["expected"] == 12
    assert ce["actual"] == 13
    # the stored counterexample re-verifies against both routes
    assert triangle_count_claimed(ce["n"]) == ce["expected"]
    assert triangle_count_exact(materialize(ce["n"])) == ce["actual"]


def test_c10_refuted_at_3():
    (verdict,) = run_claims("C10", 6)
    assert verdict.status == REFUTED
    ce = verdict.counterexample
    assert ce["n"] == 3
    assert ce["expected"] == 2
    assert ce["actual"] == 4
    found = max_cliques(materialize(ce["n"]))
    assert len(found.cliques) == ce["actual"]
    assert [list(c) for c in found.cliques] == ce["witness"]["cliques"]


def test_everything_confirmed_at_2():
    for verdict in run_claims("all", 2):
        assert verdict.status == CONFIRMED, verdict


def test_skipped_below_first_applicable_size():
    statuses = {v.claim_id: v.status for v in run_claims("all", 1)}
    assert statuses["C10"] == SKIPPED
    assert statuses["C16"] == SKIPPED
    assert statuses["C22"] == SKIPPED
    assert statuses["C1"] == CONFIRMED


def test_runs_are_deterministic_and_thread_insensitive():
    first = run_claims("all", 5)
    second = run_claims("all", 5)
    threaded = run_claims("all", 5, threads=3)
    assert first == second == threaded
    assert render_report(first, "json", max_n=5) == render_report(second, "json", max_n=5)


def test_render_report_json_schema():
    verdicts = run_claims("C1,C11", 4)
    doc = json.loads(render_report(verdicts, "json", max_n=4))
    assert set(doc) == {"claims", "generated_at", "config"}
    assert doc["config"]["max_n"] == 4
    assert doc["config"]["canonical_order"]
    assert doc["config"]["caps"]["count_max_n"] == 20
    by_id = {c["id"]: c for c in doc["claims"]}
    assert set(by_id) == {"C1", "C11"}
    for entry in doc["claims"]:
        assert {"id", "description", "anchor", "n_tested", "status", "notes"} <= set(entry)
    assert by_id["C11"]["counterexample"]["n"] == 3


def test_render_report_markdown():
    verdicts = run_claims("C10", 4)
    text = render_report(verdicts, "md", max_n=4)
    assert "| C10 | REFUTED |" in text
    assert "counterexample" in text
    assert render_report(verdicts, "markdown", max_n=4) == text


def test_render_report_markdown_single_confirmed_row():
    verdicts = run_claims("C1", 5)
    text = render_report(verdicts, "md", max_n=5)
    body = [line for line in text.splitlines() if line.startswith("| C")]
    assert len(body) == 1
    assert body[0].startswith("| C1 | CONFIRMED | 1..5 |")


def test_render_report_markdown_skipped_row():
    verdicts = run_claims("C10", 1)
    text = render_report(verdicts, "md", max_n=1)
    assert "| C10 | SKIPPED | - |" in text


def test_render_report_errors():
    verdicts = run_claims("C1", 3)
    with pytest.raises(ValueError):
        render_report(verdicts, "xml")
    with pytest.raises(ValueError):
        render_report([], "json")


def test_verdict_invariants():
    with pytest.raises(ValueError):
        ClaimVerdict("C1", (1,), "REFUTED")  # refutation without counterexample
    with pytest.raises(ValueError):
        ClaimVerdict("C1", (), "CONFIRMED")  # confirmation without instances
    with pytest.raises(ValueError):
        ClaimVerdict("C1", (1,), "MAYBE")


def test_regression_fixture():
    """Statuses pinned from the first full oracle run of this harness."""
    pinned = json.loads(FIXTURE.read_text())
    verdicts = run_claims("all", pinned["max_n"])
    got = {
        v.claim_id: {"status": v.status, "counterexample": v.counterexample}
        for v in verdicts
    }
    for claim_id, expected in pinned["verdicts"].items():
        assert got[claim_id]["status"] == expected["status"], claim_id
        if expected["counterexample"] is not None:
            ce = got[claim_id]["counterexample"]
            for key in ("n", "expected", "actual"):
                assert ce[key] == expected["counterexample"][key], claim_id


@pytest.mark.parametrize("n", [3, 6, 12])
def test_c13_rejects_a_witness_with_a_disjoint_pair(monkeypatch, n):
    # {a2} in place of {a1}: same size, no repeat, but {a2} misses {a1, a3}
    witness = parameters.clique_witness(n)
    assert verify._c13(n, DEFAULT_CAPS, 4) is None
    bad = (0b010,) + witness[1:]
    monkeypatch.setattr(parameters, "clique_witness", lambda n, caps: bad)
    target = parameters.clique_number(n)
    assert verify._c13(n, DEFAULT_CAPS, 4) == {"n": n, "expected": target, "actual": target}


@pytest.mark.parametrize("bad", [lambda w: w[:-1] + w[:1], lambda w: w[:-1] + (1 << 20,)])
def test_c13_rejects_a_witness_with_a_repeat_or_a_foreign_mask(monkeypatch, bad):
    witness = bad(parameters.clique_witness(5))
    monkeypatch.setattr(parameters, "clique_witness", lambda n, caps: witness)
    assert verify._c13(5, DEFAULT_CAPS, 4) == {"n": 5, "expected": 16, "actual": 16}
