"""The claims harness: pinned report bytes, independent routes, and the check hook.

The golden digests were taken from the hand-written per-claim checks; any
rewrite of the harness must reproduce them byte for byte. The route tests
perturb one library function at a time and expect the claim that reads it to
be refuted at its first size, which shows that the formula route and the
explicit-graph route of the claim still run through different code.
"""

import dataclasses
import hashlib
import importlib
import subprocess
import sys

import pytest

from setgraphs import DEFAULT_CAPS, core, invariants, render_report, run_claims, verify
from setgraphs.verdicts import REFUTED

GOLDEN = {
    (1, None): "725feef50d23c74ffa9e8c17a0eb4c569468608d261757aa580ce93f42553413",
    (2, None): "eabbf65d4987d3537fcc85de4db32cb74f3863de2a3ea5b7b9ffc4d8ea3f6aec",
    (3, None): "5095e35db148bad6c4f747ac5b15a860a4be0300b8e64f083c5715c7a777d694",
    (6, None): "98043f453fd453633d0c9171b180bec5d0dcdac7354efb8ac5b772246b2e78d5",
    (9, None): "ea5d630f30b1575212a7af5990b463d3b6ac60b42838c021364e6af14fd6922e",
    (6, ("materialize_max_n", 8)): "340b97e2f523e70e112095edb93f10e529d6e281ac692f28bc7b5e4352daafe6",
    (6, ("triangle_exact_max_n", 5)): "bf8c1b75aafa5b85bd7fdd9a2a64760b6fc9bf94aaa63576cddd6df2b7a2500c",
    (6, ("clique_oracle_max_n", 2)): "a4e9bbe4e2616303c13216ecff0cda2b8ea1ad0496eefa167ec8a83359dcb291",
    (6, ("corrected_max_n", 4)): "7384a244dfe046719bc7d74d35ab81b93a04598f15b1765222079df51e665e68",
    (6, ("chromatic_oracle_max_n", 1)): "ece0b62af942f457fd3fcfb77d9f49d18f681f095074e95a911ce7c1e1cf021f",
    (6, ("mis_oracle_max_n", 1)): "153f300563ae072f05d86a7a0d31e0c63d5227a10a26cf4899a58c4316f0dff6",
    (6, ("cover_oracle_max_n", 1)): "d962c6611f30ef8b4d0311e5a407adbac7904c7361f482a15ea04f0c636544c4",
    (6, ("bondage_oracle_max_n", 1)): "cabb05040bf439998f14dd923a0910b21396399d4921e179d532a4e1b54aa0fb",
    # last, so the generated ids of the entries above stay as they were
    (12, None): "91b76f1451c11b76833462fd335d09459908ea41a8799210327518656a9f400b",
}


def _report_digest(max_n, override):
    caps = DEFAULT_CAPS.with_overrides(**dict([override] if override else []))
    verdicts = run_claims("all", max_n, caps=caps)
    text = render_report(verdicts, "json", max_n=max_n, caps=caps) + render_report(
        verdicts, "md", max_n=max_n, caps=caps
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("max_n, override", list(GOLDEN))
def test_report_bytes_are_pinned(max_n, override):
    assert _report_digest(max_n, override) == GOLDEN[max_n, override]


def test_report_bytes_hold_under_optimize_flag(child_env):
    # every check must decide by itself, not through an assert that -O drops
    code = """
import hashlib
from setgraphs import render_report, run_claims
verdicts = run_claims("all", 6)
text = render_report(verdicts, "json", max_n=6) + render_report(verdicts, "md", max_n=6)
print(hashlib.sha256(text.encode()).hexdigest())
"""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=child_env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == GOLDEN[6, None]


def test_warm_caches_change_no_report():
    # graphs and tightness vectors kept from one run must not reach past the
    # caps of the next, nor change a verdict or a note: the max_n 9 run keeps
    # G(9) and the vector of n = 10, beyond the lowered cap of the run after it
    core._materialize.cache_clear()
    invariants._tightness_vector.cache_clear()
    capped = ("materialize_max_n", 8)
    for key in ((6, capped), (6, None), (9, None), (6, capped), (6, None)):
        assert _report_digest(*key) == GOLDEN[key]


def _plus_one(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) + 1


def _first_plus_one(fn):
    def perturbed(*args, **kwargs):
        first, *rest = fn(*args, **kwargs)
        return (first + 1, *rest)

    return perturbed


def _last_plus_one(fn):
    def perturbed(*args, **kwargs):
        *rest, last = fn(*args, **kwargs)
        return (*rest, last + 1)

    return perturbed


def _no_result(fn):
    return lambda *args, **kwargs: None


def _doubled_replica(fn):
    # the new singleton repeats the last replica: the part sizes still add up
    def perturbed(*args, **kwargs):
        em = fn(*args, **kwargs)
        return dataclasses.replace(em, new_singleton=em.replicas[-1])

    return perturbed


def _extra_triangle(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) + [(0, 0, 0)]


def _last_dropped(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs)[:-1]


def _witness_repeated(fn):
    def perturbed(*args, **kwargs):
        size, witness = fn(*args, **kwargs)
        return size, (*witness, witness[0])

    return perturbed


def _replaced_at(n0, value):
    # the value at n = n0 only, so the sweep passes every size below it
    def perturb(fn):
        return lambda n, **kwargs: value if n == n0 else fn(n, **kwargs)

    return perturb


def _only_at(n0, perturb):
    # perturbed at n = n0 only, so every other call of fn stays exact
    def wrap(fn):
        changed = perturb(fn)
        return lambda n, **kwargs: changed(n, **kwargs) if n == n0 else fn(n, **kwargs)

    return wrap


def _last_clique_dropped(fn):
    def perturbed(*args, **kwargs):
        found = fn(*args, **kwargs)
        return dataclasses.replace(found, cliques=found.cliques[:-1])

    return perturbed


def _extra_color(fn):
    def perturbed(*args, **kwargs):
        coloring = fn(*args, **kwargs)
        return dataclasses.replace(coloring, color_count=coloring.color_count + 1)

    return perturbed


def _one_color(fn):
    # every vertex in color 0, with the color count left as it was
    def perturbed(*args, **kwargs):
        coloring = fn(*args, **kwargs)
        return dataclasses.replace(coloring, colors=(0,) * len(coloring.colors))

    return perturbed


def _apex_edge_dropped(fn):
    # G(n) without the edge from the first vertex to the full-set vertex
    def perturbed(*args, **kwargs):
        g = fn(*args, **kwargs)
        return g.without_edge(0, g.num_vertices - 1)

    return perturbed


# (claim, module.function as the claim's code looks it up, perturbation,
#  the counterexample the claim must report at its first size)
ROUTES = [
    ("C1", "verify.vertex_count", _plus_one, {"n": 1, "expected": 1, "actual": 2}),
    ("C1", "verify.canonical_masks", _last_dropped, {"n": 1, "expected": 1, "actual": 0}),
    ("C3", "invariants.degree_closed", _plus_one, {"n": 1, "expected": [0, 0], "actual": 1}),
    ("C3", "invariants.degree_extremes", _last_plus_one,
     {"n": 1, "expected": [0, 1], "actual": [0, 0]}),
    ("C4", "invariants.degree_extremes", _last_plus_one, {"n": 2, "expected": 2, "actual": 3}),
    ("C4", "verify.materialize", _apex_edge_dropped, {"n": 2, "expected": 0, "actual": 1}),
    ("C5", "invariants.degree_closed", _plus_one, {"n": 2, "expected": 1, "actual": 2}),
    ("C6", "invariants.degree_extremes", _first_plus_one,
     {"n": 2, "expected": "odd min, even max", "actual": [2, 2]}),
    ("C6", "verify.materialize", _apex_edge_dropped,
     {"n": 2, "expected": "odd min, even max", "actual": [0, 1]}),
    ("C7", "holes.apex_primitive_degree", _plus_one, {"n": 2, "expected": 1, "actual": 0}),
    ("C7", "holes.primitive_degree", _plus_one, {"n": 2, "expected": 0, "actual": 1}),
    ("C8", "invariants.edge_count_recursive", _plus_one, {"n": 1, "expected": 1, "actual": 0}),
    ("C8", "invariants.edge_count_closed", _plus_one, {"n": 1, "expected": 0, "actual": 1}),
    ("C8", "invariants.edge_count_brute", _plus_one, {"n": 1, "expected": 0, "actual": 1}),
    ("C9", "verify.vertex_count", _plus_one, {"n": 1, "expected": 5, "actual": 4}),
    ("C9", "verify.extension_map", _doubled_replica,
     {"n": 1, "expected": "each mask of G(n+1) once", "actual": {"missing": [2], "surplus": [3]}}),
    ("C10", "parameters.clique_number", _plus_one, {"n": 2, "expected": 3, "actual": 2}),
    ("C10", "parameters.max_cliques", _last_clique_dropped,
     {"n": 2, "expected": 2, "actual": 1, "witness": {"cliques": [[1, 3]]}}),
    ("C11", "holes.triangle_count_claimed", _plus_one, {"n": 2, "expected": 1, "actual": 0}),
    ("C11", "holes.triangle_count_exact", _plus_one, {"n": 2, "expected": 0, "actual": 1}),
    ("C12", "invariants.tightness_recursion_step", _first_plus_one,
     {"n": 1, "expected": 2, "actual": 1, "witness": {"mask": 1}}),
    ("C12", "invariants.tightness_vector", _only_at(2, _first_plus_one),
     {"n": 1, "expected": 1, "actual": 2, "witness": {"mask": 1}}),
    ("C13", "parameters.clique_number", _plus_one,
     {"n": 1, "expected": {"colors": 2}, "actual": {"colors": 1}}),
    ("C13", "parameters.chromatic_coloring", _extra_color,
     {"n": 1, "expected": {"colors": 1}, "actual": {"colors": 2}}),
    ("C13", "parameters.clique_witness", _last_dropped,
     {"n": 1, "expected": {"clique order": 1}, "actual": {"witness": []}}),
    ("C13", "verify.chromatic_exact", _plus_one, {"n": 1, "expected": 1, "actual": 2}),
    ("C14", "verify.mis_exact", _plus_one, {"n": 1, "expected": 1, "actual": 2}),
    ("C14", "parameters.independence_number", _first_plus_one,
     {"n": 1, "expected": 2, "actual": 1}),
    ("C14", "parameters.independence_number", _witness_repeated,
     {"n": 1, "expected": "independent witness", "actual": [1, 1]}),
    ("C15", "verify.dominating_exact", _plus_one, {"n": 1, "expected": 1, "actual": 2}),
    ("C16", "parameters.single_edge_bondage", _no_result,
     {"n": 2, "expected": 1, "actual": "no single edge suffices"}),
    ("C16", "parameters.bondage_number", _first_plus_one, {"n": 2, "expected": 2, "actual": 1}),
    ("C17", "parameters.mcpherson_number", _plus_one, {"n": 1, "expected": 1, "actual": 0}),
    ("C17", "verify.vertex_cover_exact", _plus_one, {"n": 1, "expected": 0, "actual": 1}),
    ("C17", "parameters.simulate_explosions", _plus_one,
     {"n": 1, "expected": 0, "actual": 1, "witness": {"explosion_order": []}}),
    ("C18", "invariants.tightness_checksum", _plus_one, {"n": 1, "expected": 0, "actual": 1}),
    ("C18", "invariants.edge_count_closed", _plus_one, {"n": 1, "expected": 2, "actual": 0}),
    ("C18", "invariants.tightness_vector", _first_plus_one,
     {"n": 1, "expected": 0, "actual": 1}),
    ("C19", "verify.enum_triangles", _extra_triangle, {"n": 1, "expected": 0, "actual": 1}),
    ("C20", "holes.triangle_count_corrected", _plus_one, {"n": 1, "expected": 1, "actual": 0}),
    ("C20", "holes.triangle_count_exact", _plus_one, {"n": 1, "expected": 0, "actual": 1}),
]


# the notes a refutation carries, by (claim, perturbed function); every other
# route refutes with none. C10's note holds only when its count check fails,
# so a failed size check (clique_number) must not carry it.
_C11_NOTES = ("exact count via exhaustive bit-parallel edge scan",)
ROUTE_NOTES = {
    ("C10", "parameters.max_cliques"):
        ("the clique order 2^(n-1) itself holds at every size tested",),
    ("C11", "holes.triangle_count_claimed"): _C11_NOTES,
    ("C11", "holes.triangle_count_exact"): _C11_NOTES,
}


@pytest.mark.parametrize(
    "claim_id, target, perturb, counterexample",
    ROUTES,
    ids=[f"{claim_id}-{target}" for claim_id, target, _, _ in ROUTES],
)
def test_one_perturbed_route_refutes_at_first_size(
    monkeypatch, claim_id, target, perturb, counterexample
):
    module_name, name = target.split(".")
    module = importlib.import_module(f"setgraphs.{module_name}")
    monkeypatch.setattr(module, name, perturb(getattr(module, name)))
    (verdict,) = run_claims(claim_id, 6)
    assert verdict.status == REFUTED
    assert verdict.n_tested == (counterexample["n"],)
    assert verdict.counterexample == counterexample
    assert verdict.notes == ROUTE_NOTES.get((claim_id, target), ())


# (claim, perturbed function, perturbation, cap override, sizes swept up to
#  the refutation, counterexample): routes that pass the first size and
#  refute at a later one; with triangle_exact_max_n at 0, C20 compares no
#  exact count, so its bound and monotonicity checks decide alone
LATER_ROUTES = [
    ("C2", "verify.materialize", _apex_edge_dropped, None, (1, 2),
     {"n": 2, "expected": "one degree per cardinality",
      "actual": {"cardinality": 1, "degrees": [0, 1]}}),
    ("C5", "verify.materialize", _apex_edge_dropped, None, (2,),
     {"n": 2, "expected": [2], "actual": []}),
    ("C13", "parameters.chromatic_coloring", _one_color, None, (1, 2),
     {"n": 2, "expected": "proper coloring", "actual": {"same color": [1, 3]}}),
    ("C15", "verify.materialize", _apex_edge_dropped, None, (1, 2),
     {"n": 2, "expected": 2, "actual": 1}),
    ("C20", "holes.triangle_count_corrected", _replaced_at(2, 2),
     ("triangle_exact_max_n", 0), (1, 2), {"n": 2, "expected": [0, 1], "actual": 2}),
    ("C20", "holes.triangle_count_corrected", _replaced_at(4, 0),
     ("triangle_exact_max_n", 0), (1, 2, 3, 4), {"n": 4, "expected": ">= 13", "actual": 0}),
]


@pytest.mark.parametrize(
    "claim_id, target, perturb, override, n_tested, counterexample",
    LATER_ROUTES,
    ids=[f"{row[0]}-{row[1]}-n{row[5]['n']}" for row in LATER_ROUTES],
)
def test_one_perturbed_route_refutes_at_its_size(
    monkeypatch, claim_id, target, perturb, override, n_tested, counterexample
):
    module_name, name = target.split(".")
    module = importlib.import_module(f"setgraphs.{module_name}")
    monkeypatch.setattr(module, name, perturb(getattr(module, name)))
    caps = DEFAULT_CAPS.with_overrides(**dict([override] if override else []))
    (verdict,) = run_claims(claim_id, 6, caps=caps)
    assert verdict.status == REFUTED
    assert verdict.n_tested == n_tested
    assert verdict.counterexample == counterexample


def test_run_claims_calls_the_check_registered_at_call_time(monkeypatch):
    claim = verify.CLAIMS_BY_ID["C8"]
    calls = []

    def wrapped(max_n, caps):
        calls.append((max_n, caps))
        return claim.check(max_n, caps)

    monkeypatch.setitem(
        verify.CLAIMS_BY_ID, "C8", dataclasses.replace(claim, check=wrapped)
    )
    assert run_claims("C8", 4) == [claim.check(4, DEFAULT_CAPS)]
    assert calls == [(4, DEFAULT_CAPS)]
