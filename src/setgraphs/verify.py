"""Claims registry and adjudication harness.

Twenty-two claims about subset intersection graphs (C1-C22) are registered
here, each with a formula route and an independent explicit-graph route.
Most claims are data: a `_swept` entry gives the cap of its range, an
optional second cut for a costlier route, its notes, and a `_cN` probe that
compares the two routes at one n. One runner sweeps n over the clamped range,
refutes at the first disagreement, and records every clamp in the verdict
notes. Four claims keep a check of their own: C10, whose refutation note is
true only when its count check fails, not its size check; C19, whose range
runs over m up to min(16, 2^max_n), not over n; and C21 and C22, whose
verdicts the Mela module builds. Verdicts are a pure function of (selection,
max_n, caps): no clock, no randomness, no environment.

A refutation is a finding, not a failure; the runner never raises on one.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Callable

from . import holes, invariants, parameters
from .config import CANONICAL_ORDER_TAG, DEFAULT_CAPS, Caps
from .core import (
    Graph,
    _bit_positions,
    canonical_masks,
    extension_map,
    full_mask,
    materialize,
    vertex_count,
)
from .mela import PRODUCT_CAP_INDEX, check_closure, check_divisibility
from .oracle import (
    chromatic_exact,
    dominating_exact,
    enum_triangles,
    mis_exact,
    vertex_cover_exact,
)
from .verdicts import ClaimVerdict, _confirmed, _refuted, _skipped


@dataclass(frozen=True)
class Claim:
    """One registered claim: identity, statement, and its check procedure."""

    claim_id: str
    description: str
    anchor: str
    min_n: int
    check: Callable[[int, Caps], ClaimVerdict]


_EMPTY_RANGE = "needs n >= {min_n} within cap {cap}"


def _clamp(min_n: int, max_n: int, cap: int, caps: Caps):
    """(Effective cap, range, clamp notes); count_max_n also bounds every n-range."""
    cap = min(cap, caps.count_max_n)
    top = min(max_n, cap)
    ns = list(range(min_n, top + 1))
    notes = []
    if max_n > cap:
        notes.append(f"range clamped to n <= {cap} (cap); n <= {max_n} requested")
    return cap, ns, notes


def _swept(
    claim_id: str, description: str, anchor: str, min_n: int,
    probe: Callable[[int, Caps, int | None], dict | None],
    cap: Callable[[Caps], int],
    *,
    top: Callable[[Caps], int] | None = None,
    skip: str = _EMPTY_RANGE,
    notes: tuple[str, ...] = (),
    refuted_note: str | None = None,
) -> Claim:
    """A claim decided by sweeping n upward over the range that cap(caps) allows.

    An empty range is SKIPPED with skip.format(min_n=..., cap=...).
    probe(n, caps, top) compares the two routes at one n and returns None or
    a counterexample; top = min(max_n, top(caps)) bounds a costlier route. The
    first counterexample refutes over the sizes swept so far (with the clamp
    notes and refuted_note, if one is given); otherwise the verdict carries
    the clamp notes and `notes` formatted with {top} and {last}, the last n.
    """

    def check(max_n: int, caps: Caps) -> ClaimVerdict:
        bound, ns, clamp_notes = _clamp(min_n, max_n, cap(caps), caps)
        if not ns:
            return _skipped(claim_id, skip.format(min_n=min_n, cap=bound))
        cut = min(max_n, top(caps)) if top else None
        for n in ns:
            counterexample = probe(n, caps, cut)
            if counterexample is not None:
                extra = clamp_notes + [refuted_note] if refuted_note else ()
                return _refuted(claim_id, range(ns[0], n + 1), counterexample, extra)
        return _confirmed(
            claim_id, ns, clamp_notes + [note.format(top=cut, last=ns[-1]) for note in notes]
        )

    return Claim(claim_id, description, anchor, min_n, check)


# --- degree and order claims -------------------------------------------------


def _c1(n: int, caps: Caps, top: int | None) -> dict | None:
    v = vertex_count(n, caps=caps)
    if v != (1 << n) - 1 or v % 2 == 0:
        return {"n": n, "expected": (1 << n) - 1, "actual": v}
    if n <= top and len(canonical_masks(n)) != v:
        return {"n": n, "expected": v, "actual": len(canonical_masks(n))}


def _c2(n: int, caps: Caps, top: int | None) -> dict | None:
    g = materialize(n, caps=caps)
    degrees_by_card: dict[int, set[int]] = {}
    for m, d in zip(g.masks, g.degrees):
        degrees_by_card.setdefault(m.bit_count(), set()).add(d)
    for k, seen in degrees_by_card.items():
        if len(seen) != 1:
            return {"n": n, "expected": "one degree per cardinality",
                    "actual": {"cardinality": k, "degrees": sorted(seen)}}


def _c3(n: int, caps: Caps, top: int | None) -> dict | None:
    lo, hi = invariants.degree_extremes(n, caps=caps)
    for k in range(1, n + 1):
        d = invariants.degree_closed(n, k)
        if not lo <= d <= hi:
            return {"n": n, "expected": [lo, hi], "actual": d}
    if n <= top:
        degs = materialize(n, caps=caps).degrees
        if min(degs) != lo or max(degs) != hi:
            return {"n": n, "expected": [lo, hi], "actual": [min(degs), max(degs)]}


def _c4(n: int, caps: Caps, top: int | None) -> dict | None:
    lo, hi = invariants.degree_extremes(n, caps=caps)
    if hi != 2 * lo:
        return {"n": n, "expected": 2 * lo, "actual": hi}
    if n <= top:
        degs = materialize(n, caps=caps).degrees
        if max(degs) != 2 * min(degs):
            return {"n": n, "expected": 2 * min(degs), "actual": max(degs)}


def _c5(n: int, caps: Caps, top: int | None) -> dict | None:
    _, hi = invariants.degree_extremes(n, caps=caps)
    attained = sum(
        comb(n, k) for k in range(1, n + 1) if invariants.degree_closed(n, k) == hi
    )
    if attained != 1:
        return {"n": n, "expected": 1, "actual": attained}
    if n <= top:
        g = materialize(n, caps=caps)
        hits = [i for i, d in enumerate(g.degrees) if d == hi]
        if hits != [g.num_vertices - 1]:
            return {"n": n, "expected": [g.num_vertices - 1], "actual": hits}


def _c6(n: int, caps: Caps, top: int | None) -> dict | None:
    lo, hi = invariants.degree_extremes(n, caps=caps)
    if lo % 2 != 1 or hi % 2 != 0:
        return {"n": n, "expected": "odd min, even max", "actual": [lo, hi]}
    if n <= top:
        degs = materialize(n, caps=caps).degrees
        if min(degs) % 2 != 1 or max(degs) % 2 != 0:
            return {"n": n, "expected": "odd min, even max", "actual": [min(degs), max(degs)]}


# --- triangle claims ----------------------------------------------------------


def _c7(n: int, caps: Caps, top: int | None) -> dict | None:
    direct = holes.primitive_degree(materialize(n, caps=caps), full_mask(n))
    formula = holes.apex_primitive_degree(n, caps=caps)
    if direct != formula:
        return {"n": n, "expected": formula, "actual": direct}


def _c8(n: int, caps: Caps, top: int | None) -> dict | None:
    rec = invariants.edge_count_recursive(n, caps=caps)
    closed = invariants.edge_count_closed(n, caps=caps)
    if rec != closed:
        return {"n": n, "expected": rec, "actual": closed}
    if n <= top:
        brute = invariants.edge_count_brute(materialize(n, caps=caps))
        if brute != closed:
            return {"n": n, "expected": rec, "actual": brute}


def _c9(n: int, caps: Caps, top: int | None) -> dict | None:
    lhs = vertex_count(n + 1, caps=caps) if n + 1 <= caps.count_max_n else None
    if lhs is not None and lhs != 2 * vertex_count(n, caps=caps) + 1:
        return {"n": n, "expected": 2 * vertex_count(n, caps=caps) + 1, "actual": lhs}
    if n <= top:
        # erstwhile, replicas and the new singleton hold each mask of G(n+1) once
        em = extension_map(n, caps=caps)
        parts = (*em.erstwhile, *em.replicas, em.new_singleton)
        masks = range(1, 1 << (n + 1))
        if sorted(parts) != list(masks):
            held, want = Counter(parts), Counter(masks)
            return {"n": n, "expected": "each mask of G(n+1) once",
                    "actual": {"missing": sorted(want - held), "surplus": sorted(held - want)}}


def _check_c10(max_n: int, caps: Caps) -> ClaimVerdict:
    _, ns, notes = _clamp(2, max_n, min(caps.clique_oracle_max_n, caps.materialize_max_n), caps)
    if not ns:
        return _skipped("C10", "needs n >= 2 within the clique oracle cap")
    for n in ns:
        found = parameters.max_cliques(materialize(n, caps=caps), caps=caps)
        expected_size = parameters.clique_number(n, caps=caps)
        if found.size != expected_size:
            return _refuted(
                "C10", range(ns[0], n + 1),
                {"n": n, "expected": expected_size, "actual": found.size},
            )
        if len(found.cliques) != 2:
            return _refuted(
                "C10", range(ns[0], n + 1),
                {"n": n, "expected": 2, "actual": len(found.cliques),
                 "witness": {"cliques": [list(c) for c in found.cliques]}},
                notes + ["the clique order 2^(n-1) itself holds at every size tested"],
            )
    return _confirmed("C10", ns, notes)


def _c11(n: int, caps: Caps, top: int | None) -> dict | None:
    stated = holes.triangle_count_claimed(n, caps=caps)
    exact = holes.triangle_count_exact(materialize(n, caps=caps), caps=caps)
    if stated != exact:
        return {"n": n, "expected": stated, "actual": exact}


def _c12(n: int, caps: Caps, top: int | None) -> dict | None:
    old = invariants.tightness_vector(n, caps=caps)
    stepped = invariants.tightness_recursion_step(n, old)
    direct = invariants.tightness_vector(n + 1, caps=caps)
    if stepped != direct:
        mask, a, b = next(
            t for t in zip(canonical_masks(n + 1), stepped, direct) if t[1] != t[2]
        )
        return {"n": n, "expected": a, "actual": b, "witness": {"mask": mask}}


# --- parameter claims ---------------------------------------------------------


def _c13(n: int, caps: Caps, top: int | None) -> dict | None:
    target = parameters.clique_number(n, caps=caps)
    coloring = parameters.chromatic_coloring(n, caps=caps)
    witness = parameters.clique_witness(n, caps=caps)
    g = materialize(n, caps=caps)
    # the witness as a bitmap of canonical indices: a clique exactly when
    # each member's closed row covers every member
    index = {m: i for i, m in enumerate(g.masks)}
    members = sum(1 << index[m] for m in set(witness) if m in index)
    clique_ok = len(witness) == target == members.bit_count() and all(
        (g.rows[i] | 1 << i) & members == members for i in _bit_positions(members))
    if coloring.color_count != target or not coloring.is_proper() or not clique_ok:
        return {"n": n, "expected": target, "actual": coloring.color_count}
    if n <= top:
        chi = chromatic_exact(g)
        if chi != target:
            return {"n": n, "expected": target, "actual": chi}


def _c14(n: int, caps: Caps, top: int | None) -> dict | None:
    expected, witness = parameters.independence_number(n, caps=caps)
    if any(u & v for i, u in enumerate(witness) for v in witness[i + 1 :]):
        return {"n": n, "expected": "independent witness", "actual": list(witness)}
    alpha = mis_exact(materialize(n, caps=caps))
    if alpha != expected:
        return {"n": n, "expected": expected, "actual": alpha}


def _c15(n: int, caps: Caps, top: int | None) -> dict | None:
    g = materialize(n, caps=caps)
    apex_row = g.rows[g.num_vertices - 1]
    if apex_row.bit_count() != g.num_vertices - 1:
        return {"n": n, "expected": g.num_vertices - 1, "actual": apex_row.bit_count()}
    if n <= top:
        gamma = dominating_exact(g)
        if gamma != 1:
            return {"n": n, "expected": 1, "actual": gamma}


def _c16(n: int, caps: Caps, top: int | None) -> dict | None:
    count, _ = parameters.bondage_number(n, caps=caps)
    edge = parameters.single_edge_bondage(materialize(n, caps=caps))
    found = 1 if edge is not None else "no single edge suffices"
    if found != count:
        return {"n": n, "expected": count, "actual": found}


def _c17(n: int, caps: Caps, top: int | None) -> dict | None:
    expected = parameters.mcpherson_number(n, caps=caps)
    cover = vertex_cover_exact(parameters.disjointness_graph(n, caps=caps))
    if cover != expected:
        return {"n": n, "expected": expected, "actual": cover}
    # a concrete completing sequence: every subset missing a_1, except the
    # full set has a_1, take all non-a_1 subsets
    masks = [m for m in canonical_masks(n) if not m & 1]
    done = parameters.simulate_explosions(materialize(n, caps=caps), masks)
    if done != expected:
        return {"n": n, "expected": expected, "actual": done,
                "witness": {"explosion_order": masks}}


def _c18(n: int, caps: Caps, top: int | None) -> dict | None:
    twice_edges = 2 * invariants.edge_count_closed(n, caps=caps)
    checksum = invariants.tightness_checksum(n, caps=caps)
    if checksum != twice_edges:
        return {"n": n, "expected": twice_edges, "actual": checksum}
    if n <= top:
        direct = sum(invariants.tightness_vector(n, caps=caps))
        if direct != twice_edges:
            return {"n": n, "expected": twice_edges, "actual": direct}


def _check_c19(max_n: int, caps: Caps) -> ClaimVerdict:
    top = min(16, 1 << max_n)
    ms = list(range(1, top + 1))
    for m in ms:
        count = len(enum_triangles(Graph.complete(m)))
        if count != comb(m, 3):
            return _refuted("C19", range(1, m + 1), {"n": m, "expected": comb(m, 3), "actual": count})
    return _confirmed("C19", ms, [f"complete graphs on 1..{top} vertices, exhaustive enumeration"])


def _c20(n: int, caps: Caps, top: int | None) -> dict | None:
    h = holes.triangle_count_corrected(n, caps=caps)
    if n <= top:
        exact = holes.triangle_count_exact(materialize(n, caps=caps), caps=caps)
        if exact != h:
            return {"n": n, "expected": h, "actual": exact}
    bound = comb((1 << n) - 1, 3)
    if not 0 <= h <= bound:
        return {"n": n, "expected": [0, bound], "actual": h}
    # the sweep reaches n only after n - 1 passed, so where the exact count
    # was taken at n - 1 it equalled the corrected one
    if n > 1:
        prev = holes.triangle_count_corrected(n - 1, caps=caps)
        if prev > h:
            return {"n": n, "expected": f">= {prev}", "actual": h}


def _check_c21(max_n: int, caps: Caps) -> ClaimVerdict:
    bound = min(max_n, PRODUCT_CAP_INDEX, caps.mela_max_index)
    if bound < 1:
        return _skipped("C21", _EMPTY_RANGE.format(min_n=1, cap=bound))
    return check_closure(bound, caps=caps)


def _check_c22(max_n: int, caps: Caps) -> ClaimVerdict:
    # m_{ki} with k, i <= bound must stay within the sequence cap
    bound = min(max_n, PRODUCT_CAP_INDEX, caps.mela_max_index // 2)
    if bound < 2:
        return _skipped("C22", _EMPTY_RANGE.format(min_n=2, cap=bound))
    return check_divisibility(bound, bound, caps=caps)


REGISTRY: tuple[Claim, ...] = (
    _swept("C1", "the graph has an odd number of vertices, 2^n - 1",
           "|V(G(n))| = 2^n - 1, odd", 1, _c1,
           lambda c: c.count_max_n, top=lambda c: min(12, c.materialize_max_n),
           notes=("vertex enumeration cross-checked for n <= {top}",)),
    _swept("C2", "vertices whose subsets have equal cardinality share one degree",
           "d(v_{s,i}) = d(v_{s,j})", 1, _c2,
           lambda c: min(10, c.materialize_max_n), skip="needs n >= 1 within oracle cap {cap}",
           notes=("degrees read from explicit adjacency rows",)),
    _swept("C3", "every degree lies between 2^(n-1) - 1 and 2(2^(n-1) - 1)",
           "2^(n-1) - 1 <= d(v) <= 2(2^(n-1) - 1)", 1, _c3,
           lambda c: c.count_max_n, top=lambda c: min(10, c.materialize_max_n),
           notes=(
               "explicit-row extremes cross-checked for n <= {top}",
               "the stated maximum degree is read as 2^n - 2 = 2(2^(n-1) - 1); a literal "
               "'2n - 2' would contradict the universal full-set vertex on 2^n - 1 vertices",
           )),
    _swept("C4", "the maximum degree is exactly twice the minimum degree",
           "max_deg(G) = 2 * min_deg(G)", 2, _c4,
           lambda c: 12, top=lambda c: min(10, c.materialize_max_n), skip="needs n >= 2"),
    _swept("C5", "exactly one vertex, the full set, attains the maximum degree",
           "unique vertex of maximum degree", 2, _c5,
           lambda c: 12, top=lambda c: min(10, c.materialize_max_n),
           skip="needs n >= 2", notes=("exhaustive degree scan for n <= {top}",)),
    _swept("C6", "the minimum degree is odd and the maximum degree is even",
           "min_deg odd, max_deg even", 2, _c6,
           lambda c: 12, top=lambda c: min(10, c.materialize_max_n), skip="needs n >= 2"),
    _swept("C7", "the full-set vertex lies on |E| - max_deg triangles",
           "dp(v_{n,1}) = |E(G)| - max_deg(G)", 2, _c7,
           lambda c: min(9, c.materialize_max_n, c.triangle_exact_max_n),
           skip="needs n >= 2 within oracle cap {cap}",
           notes=("direct per-vertex triangle incidence at the full-set vertex",)),
    _swept("C8", "edge recursion E(n+1) = 3E(n) + V(n) + C(V(n)+1, 2) matches direct counts",
           "|E(G(n+1))| = 3|E(G(n))| + |V(G(n))| + C(|V(G(n))|+1, 2)", 1, _c8,
           lambda c: 19, top=lambda c: min(10, c.materialize_max_n),
           notes=("brute-force pair scan cross-checked for n <= {top}",)),
    _swept("C9", "vertex recursion V(n+1) = 2V(n) + 1",
           "|V(G(n+1))| = 2|V(G(n))| + 1", 1, _c9,
           lambda c: 19,
           top=lambda c: min(12, c.materialize_max_n, c.count_max_n - 1),
           notes=("extension-map enumeration cross-checked for n <= {top}",)),
    Claim("C10", "the graph has exactly two largest complete subgraphs, of order 2^(n-1)",
          "exactly two largest complete subgraphs K_{2^(n-1)}", 2, _check_c10),
    _swept("C11", "triangle recursion h(n+1) = h(n) + C(2^n, 3) + 4|E(n)| matches the exact count",
           "h(G(n+1)) = h(G(n)) + C(2^n, 3) + 4|E(G(n))|", 2, _c11,
           lambda c: min(c.triangle_exact_max_n, c.materialize_max_n),
           skip="needs n >= 2 within exact-count cap {cap}",
           refuted_note="exact count via exhaustive bit-parallel edge scan"),
    _swept("C12", "tightness recursion: new singleton 2^n - 1; erstwhile k -> 2k + 1; replica k -> 2^n + k",
           "tightness recursion parts (i)-(iii)", 1, _c12,
           lambda c: min(10, c.materialize_max_n - 1),
           skip="needs n >= 1 within oracle cap {cap}",
           notes=("recursion output compared vertex by vertex with definition-level sums",)),
    _swept("C13", "the chromatic number is 2^(n-1)",
           "chi(G(n)) = 2^(n-1)", 1, _c13,
           lambda c: min(12, c.materialize_max_n), top=lambda c: c.chromatic_oracle_max_n,
           notes=("certificate (proper coloring + matching clique) for n <= {last}; "
                  "exact search for n <= {top}",)),
    _swept("C14", "the independence number is n",
           "alpha(G(n)) = n", 1, _c14,
           lambda c: min(c.mis_oracle_max_n, c.materialize_max_n),
           skip="nothing within the independent-set oracle cap",
           notes=("exhaustive maximum-independent-set search",)),
    _swept("C15", "the domination number is 1",
           "gamma(G(n)) = 1", 1, _c15,
           lambda c: min(12, c.materialize_max_n), top=lambda c: c.domination_oracle_max_n,
           notes=("universal-vertex check for n <= {last}; "
                  "exact minimum dominating set for n <= {top}",)),
    _swept("C16", "the bondage number is 1",
           "b(G(n)) = 1", 2, _c16,
           lambda c: min(c.bondage_oracle_max_n, c.materialize_max_n),
           skip="needs n >= 2 within the bondage oracle cap",
           notes=("per-edge removal sweep with exact domination recount",)),
    _swept("C17", "the McPherson number is 2^(n-1) - 1",
           "Upsilon(G(n)) = 2^(n-1) - 1", 1, _c17,
           lambda c: min(c.cover_oracle_max_n, c.materialize_max_n),
           skip="nothing within the vertex-cover oracle cap",
           notes=("vertex cover of the disjointness graph plus explosion simulation",)),
    _swept("C18", "the tightness values sum to twice the edge count",
           "|E(G(n))| = (1/2) * sum(tightness)", 1, _c18,
           lambda c: 19, top=lambda c: min(10, c.materialize_max_n),
           notes=("definition-level tightness sums cross-checked for n <= {top}",)),
    Claim("C19", "a complete graph on m vertices has C(m, 3) triangles",
          "h(K_m) = C(m, 3)", 1, _check_c19),
    _swept("C20", "0 <= h <= C(|V|, 3), and h never drops when the ground set grows",
           "0 <= h(G) <= C(|V|, 3); h(H) <= h(G) for subgraphs H", 1, _c20,
           lambda c: min(12, c.corrected_max_n),
           top=lambda c: min(9, c.corrected_max_n, c.triangle_exact_max_n, c.materialize_max_n),
           notes=("exact counts for n <= {top}, corrected recursion beyond "
                  "(the two agree on the overlap)",)),
    Claim("C21", "sums, products, and ordered differences of Mela numbers are never Mela",
          "m_i + m_j, m_i * m_j, m_i - m_j not in M", 1, _check_c21),
    Claim("C22", "m_i divides m_{ki} and the quotient is never a Mela number",
          "m_i | m_{ki} and m_{ki}/m_i not in M", 2, _check_c22),
)

CLAIMS_BY_ID = {claim.claim_id: claim for claim in REGISTRY}
ALL_CLAIM_IDS = tuple(claim.claim_id for claim in REGISTRY)


def resolve_selection(selection) -> tuple[str, ...]:
    """Expand 'all' and validate claim ids, preserving registry order."""
    if isinstance(selection, str):
        selection = [selection]
    wanted = []
    for item in selection:
        for part in str(item).split(","):
            part = part.strip()
            if part:
                wanted.append(part)
    if not wanted:
        raise ValueError("empty claim selection")
    if any(w.lower() == "all" for w in wanted):
        return ALL_CLAIM_IDS
    unknown = [w for w in wanted if w not in CLAIMS_BY_ID]
    if unknown:
        raise ValueError(f"unknown claim id(s): {', '.join(unknown)}")
    chosen = set(wanted)
    return tuple(cid for cid in ALL_CLAIM_IDS if cid in chosen)


def run_claims(selection, max_n: int, *, caps: Caps = DEFAULT_CAPS) -> list[ClaimVerdict]:
    """Adjudicate the selected claims up to ground-set size max_n.

    Claims run one after another in registry order. Each check is looked up
    in CLAIMS_BY_ID at call time, so a wrapper written there is the check
    that runs.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be positive, got {max_n}")
    verdicts = []
    for claim_id in resolve_selection(selection):
        claim = CLAIMS_BY_ID[claim_id]
        if max_n < claim.min_n:
            verdicts.append(_skipped(claim_id, f"first applicable size is n = {claim.min_n}"))
        else:
            verdicts.append(claim.check(max_n, caps))
    return verdicts


def render_report(
    verdicts: list[ClaimVerdict],
    fmt: str = "json",
    *,
    max_n: int | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> str:
    """Render verdicts as a JSON document or a markdown table.

    The JSON keeps a "generated_at" field that is always null: no clock is
    read, so consecutive runs are byte-identical.
    """
    if not verdicts:
        raise ValueError("no verdicts to render")
    rows = []
    for v in verdicts:
        claim = CLAIMS_BY_ID[v.claim_id]
        entry = {"id": v.claim_id, "description": claim.description, "anchor": claim.anchor}
        entry.update(v.as_dict())
        rows.append(entry)
    if fmt == "json":
        doc = {
            "claims": rows,
            "generated_at": None,
            "config": {
                "max_n": max_n,
                "caps": caps.as_dict(),
                "canonical_order": CANONICAL_ORDER_TAG,
            },
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt in ("markdown", "md"):
        lines = [
            "# Claim verification report",
            "",
            f"Canonical order: `{CANONICAL_ORDER_TAG}`"
            + (f"; max n requested: {max_n}" if max_n is not None else ""),
            "",
            "| claim | status | n tested | statement | details |",
            "|---|---|---|---|---|",
        ]
        def cell(text: str) -> str:
            return text.replace("|", "\\|")

        for row in rows:
            ns = row["n_tested"]
            span = f"{ns[0]}..{ns[-1]}" if ns else "-"
            details = []
            if "counterexample" in row:
                details.append("counterexample: " + json.dumps(row["counterexample"]))
            details.extend(row["notes"])
            lines.append(
                f"| {row['id']} | {row['status']} | {span} "
                f"| {cell(row['description'])} | {cell('; '.join(details)) or '-'} |"
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
