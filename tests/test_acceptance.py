"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen; without -s they still appear in captured output.
"""

import json
import subprocess
import sys
import time

from setgraphs import (
    apex_primitive_degree,
    canonical_masks,
    check_closure,
    check_divisibility,
    chromatic_coloring,
    clique_number,
    clique_witness,
    degree_closed,
    degree_extremes,
    degree_inclusion_exclusion,
    disjointness_graph,
    edge_count_brute,
    edge_count_closed,
    edge_count_recursive,
    full_mask,
    materialize,
    mcpherson_number,
    mela,
    primitive_degree,
    primitive_degrees,
    render_report,
    run_claims,
    simulate_explosions,
    single_edge_bondage,
    tightness_checksum,
    tightness_recursion_step,
    tightness_vector,
    triangle_count_corrected,
    triangle_count_exact,
    vertex_count,
)
from setgraphs.oracle import (
    chromatic_exact,
    mis_exact,
    dominating_exact,
    vertex_cover_exact,
)
from setgraphs.verdicts import CONFIRMED, REFUTED


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_order_formula():
    start = time.perf_counter()
    ok = True
    for n in range(1, 17):
        v = vertex_count(n)
        ok = ok and v == 2**n - 1 and v % 2 == 1
    for n in range(1, 13):
        ok = ok and len(canonical_masks(n)) == vertex_count(n)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, ok, f"|V| = 2^n - 1 and odd, formula n<=16, enumeration n<=12 ({elapsed:.2f}s)")


def test_criterion_02_degree_suite():
    start = time.perf_counter()
    ok = True
    for n in range(1, 11):
        g = materialize(n)
        lo, hi = degree_extremes(n)
        ok = ok and (lo, hi) == (2 ** (n - 1) - 1, 2**n - 2) and hi == 2 * lo
        if n >= 2:
            ok = ok and lo % 2 == 1 and hi % 2 == 0
        max_hits = 0
        for m, d in zip(g.masks, g.degrees):
            closed = degree_closed(n, m.bit_count())
            ok = ok and degree_inclusion_exclusion(n, m) == closed
            ok = ok and d == closed
            max_hits += closed == hi
        ok = ok and max_hits == 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(2, ok, f"three degree routes agree on every vertex, n<=10 ({elapsed:.1f}s)")


def test_criterion_03_edge_counts():
    ok = True
    for n, pinned in zip(range(1, 6), (0, 2, 15, 80, 375)):
        ok = ok and edge_count_closed(n) == pinned
    for n in range(1, 20):
        ok = ok and edge_count_recursive(n) == edge_count_closed(n)
    for n in range(1, 11):
        ok = ok and edge_count_brute(materialize(n)) == edge_count_closed(n)
    _report(3, ok, "recursion = closed form (n<=19) = pair scan (n<=10); 0,2,15,80,375 pinned")


def test_criterion_04_triangle_suite():
    start = time.perf_counter()
    ok = True
    for n, pinned in zip(range(1, 5), (0, 0, 13, 222)):
        ok = ok and triangle_count_exact(materialize(n)) == pinned
    for n in range(2, 10):
        g = materialize(n)
        h = triangle_count_exact(g)
        ok = ok and triangle_count_corrected(n) == h
        ok = ok and sum(primitive_degrees(g)) == 3 * h
        ok = ok and apex_primitive_degree(n) == primitive_degree(g, full_mask(n))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _report(4, ok, f"exact 0,0,13,222; corrected matches n<=9; sum dp = 3h; apex formula ({elapsed:.1f}s)")


def test_criterion_05_claims_adjudication():
    verdicts = run_claims("all", 12)
    by_id = {v.claim_id: v for v in verdicts}
    ok = len(verdicts) == 22
    for claim_id, verdict in by_id.items():
        if claim_id in ("C10", "C11"):
            ok = ok and verdict.status == REFUTED and verdict.counterexample["n"] == 3
        else:
            ok = ok and verdict.status == CONFIRMED
    ok = ok and by_id["C10"].counterexample["expected"] == 2
    ok = ok and by_id["C10"].counterexample["actual"] == 4
    ok = ok and by_id["C11"].counterexample["expected"] == 12
    ok = ok and by_id["C11"].counterexample["actual"] == 13
    again = run_claims("all", 12)
    ok = ok and render_report(verdicts, "json", max_n=12) == render_report(again, "json", max_n=12)
    _report(5, ok, "C1-C22 complete; C10 and C11 refuted at n=3, the rest confirmed; report deterministic")


def test_criterion_06_parameter_suite():
    start = time.perf_counter()
    ok = True
    for n in range(1, 13):
        coloring = chromatic_coloring(n)
        witness = clique_witness(n)
        ok = ok and coloring.color_count == 2 ** (n - 1)
        ok = ok and coloring.is_proper()
        ok = ok and len(witness) == clique_number(n)
        ok = ok and all(u & v for i, u in enumerate(witness) for v in witness[i + 1 :])
    for n in range(1, 5):
        ok = ok and chromatic_exact(materialize(n)) == 2 ** (n - 1)
    for n in range(1, 6):
        ok = ok and mis_exact(materialize(n)) == n
    for n in range(1, 5):
        ok = ok and dominating_exact(materialize(n)) == 1
    for n in range(2, 5):
        ok = ok and single_edge_bondage(materialize(n)) is not None
    for n in range(1, 5):
        ok = ok and vertex_cover_exact(disjointness_graph(n)) == 2 ** (n - 1) - 1
        cover = [m for m in canonical_masks(n) if not m & 1]
        ok = ok and simulate_explosions(materialize(n), cover) == mcpherson_number(n)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    _report(6, ok, f"chi certificate n<=12; exact chi/alpha/gamma/b/Y oracles agree ({elapsed:.1f}s)")


def test_criterion_07_tightness():
    ok = True
    for n in range(1, 11):
        stepped = tightness_recursion_step(n, tightness_vector(n))
        ok = ok and stepped == tightness_vector(n + 1)
    for n in range(1, 20):
        ok = ok and tightness_checksum(n) == 2 * edge_count_closed(n)
    _report(7, ok, "recursion parts (i)-(iii) match direct tightness n<=10; handshake n<=19")


def test_criterion_08_mela():
    start = time.perf_counter()
    ok = mela(4) == [1, 3, 7, 15]
    closure = check_closure(20)
    divis = check_divisibility(20, 20)
    ok = ok and closure.status == CONFIRMED and divis.status == CONFIRMED
    ok = ok and any("index 1" in note for note in closure.notes)
    ok = ok and any("degenerate" in note for note in divis.notes)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(8, ok, f"prefix 1,3,7,15; closure+divisibility to index 20 with degeneracy notes ({elapsed:.2f}s)")


def test_criterion_09_performance_n13():
    g = materialize(13)
    start = time.perf_counter()
    h = triangle_count_exact(g)
    elapsed = time.perf_counter() - start
    ok = elapsed <= 60.0 and h == triangle_count_corrected(13)
    _report(9, ok, f"n=13 exact count {h} in {elapsed:.1f}s (budget 60s), matches the corrected recursion")


def test_criterion_10_determinism(child_env):
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "setgraphs", *args], capture_output=True, check=True,
            env=child_env,
        ).stdout

    verify_args = ("verify", "--claims", "all", "--max-n", "6")
    build_args = ("build", "6", "--format", "csv")
    first, second = run(*verify_args), run(*verify_args)
    third, fourth = run(*build_args), run(*build_args)
    ok = first == second and third == fourth and len(first) > 0 and len(third) > 0
    ok = ok and json.loads(first.decode())["generated_at"] is None
    _report(10, ok, "verify and build outputs byte-identical across consecutive runs")
