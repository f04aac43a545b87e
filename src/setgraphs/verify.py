"""Claims registry and adjudication harness.

Twenty-two claims about subset intersection graphs (C1-C22) are registered
here, each with a formula route and an independent explicit-graph route.
Most claims are data: a `_swept` entry gives the cap of its range, an
optional second cut for a costlier route, its notes, and a `_cN` probe that
compares the two routes at one n. One runner sweeps n over the clamped range,
refutes at the first disagreement, and records every clamp in the verdict
notes. Three claims keep a check of their own: C19, whose range runs over
m up to min(16, 2^max_n), not over n; and C21 and C22, whose verdicts the
Mela module builds. Verdicts are a pure function of (selection, max_n,
caps): no clock, no randomness, no environment.

A refutation is a finding, not a failure; the runner never raises on one.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations
from math import comb
from operator import and_, or_
from typing import Callable, Sequence

from . import holes, invariants, parameters
from .config import CANONICAL_ORDER_TAG, DEFAULT_CAPS, Caps
from .core import (
    Graph,
    canonical_masks,
    extension_map,
    full_mask,
    materialize,
    vertex_count,
)
from .mela import PRODUCT_CAP_INDEX, check_closure, check_divisibility
from .oracle import (
    CHROMATIC_MAX_VERTICES,
    CLIQUE_MAX_VERTICES,
    SEARCH_MAX_VERTICES,
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


_EMPTY_RANGE = "needs {} >= {} within cap {}"  # n or a Mela index, its least value, the cap

# the largest n whose G(n), with 2^n - 1 vertices, each oracle's vertex bound admits
_CLIQUE_MAX_N, _CHROMATIC_MAX_N, _SEARCH_MAX_N = (
    (v + 1).bit_length() - 1
    for v in (CLIQUE_MAX_VERTICES, CHROMATIC_MAX_VERTICES, SEARCH_MAX_VERTICES)
)


def _swept(
    claim_id: str, description: str, anchor: str, min_n: int,
    probe: Callable[[int, Caps, int | None], dict | tuple[dict, str] | None],
    cap: Callable[[Caps], int],
    *,
    top: Callable[[Caps], int] | None = None,
    notes: tuple[str, ...] = (),
) -> Claim:
    """A claim decided by sweeping n upward over the range that cap(caps) allows.

    count_max_n also bounds every range. An empty range is SKIPPED with
    _EMPTY_RANGE, which names the cap's value. probe(n, caps, top) compares
    the two routes at one n; top = min(max_n, top(caps)) bounds a costlier
    route. It returns None where the routes agree, else a counterexample, or
    a (counterexample, note) pair when the note holds only for that failure.
    The first counterexample refutes over the sizes swept so far; the verdict
    carries the clamp notes and the note if the probe gave one, and no notes
    otherwise. A confirmation carries the clamp notes and `notes` formatted
    with {top} and {last}, the last n.
    """

    def check(max_n: int, caps: Caps) -> ClaimVerdict:
        bound = min(cap(caps), caps.count_max_n)
        ns = range(min_n, min(max_n, bound) + 1)
        if not ns:
            return _skipped(claim_id, _EMPTY_RANGE.format("n", min_n, bound))
        clamp_notes = []
        if max_n > bound:
            clamp_notes.append(f"range clamped to n <= {bound} (cap); n <= {max_n} requested")
        cut = min(max_n, top(caps)) if top else None
        for n in ns:
            found = probe(n, caps, cut)
            if found is not None:
                counterexample, note = found if isinstance(found, tuple) else (found, None)
                extra = clamp_notes + [note] if note else ()
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
    # cardinality ascending, the order in which the canonical masks meet them
    for k, d in sorted(set(zip(map(int.bit_count, g.masks), g.degrees))):
        degrees_by_card.setdefault(k, set()).add(d)
    for k, seen in degrees_by_card.items():
        if len(seen) != 1:
            return {"n": n, "expected": "one degree per cardinality",
                    "actual": {"cardinality": k, "degrees": sorted(seen)}}
        formula = invariants.degree_inclusion_exclusion(n, (1 << k) - 1)
        if seen != {formula}:
            return {"n": n, "expected": formula,
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


def _partition_gap(parts: Sequence[int], n: int) -> dict | None:
    """None when parts holds each mask of G(n) exactly once, else the masks
    it misses and those it holds too often, each ascending."""
    masks = range(1, 1 << n)
    if sorted(parts) == list(masks):
        return None
    held, want = Counter(parts), Counter(masks)
    return {"missing": sorted(want - held), "surplus": sorted(held - want)}


def _c9(n: int, caps: Caps, top: int | None) -> dict | None:
    lhs = vertex_count(n + 1, caps=caps) if n + 1 <= caps.count_max_n else None
    if lhs is not None and lhs != 2 * vertex_count(n, caps=caps) + 1:
        return {"n": n, "expected": 2 * vertex_count(n, caps=caps) + 1, "actual": lhs}
    if n <= top:
        # erstwhile, replicas and the new singleton hold each mask of G(n+1) once
        erstwhile, replicas, new_singleton = extension_map(n, caps=caps)
        gap = _partition_gap((*erstwhile, *replicas, new_singleton), n + 1)
        if gap is not None:
            return {"n": n, "expected": "each mask of G(n+1) once", "actual": gap}


def _c10(n: int, caps: Caps, top: int | None) -> dict | tuple[dict, str] | None:
    cliques = parameters.max_cliques(materialize(n, caps=caps), caps=caps)
    size = len(cliques[0]) if cliques else 0
    expected_size = parameters.clique_number(n, caps=caps)
    if size != expected_size:
        return {"n": n, "expected": expected_size, "actual": size}
    if len(cliques) != 2:
        return ({"n": n, "expected": 2, "actual": len(cliques),
                 "witness": {"cliques": [list(c) for c in cliques]}},
                "the clique order 2^(n-1) itself holds at every size tested")


def _c11(n: int, caps: Caps, top: int | None) -> tuple[dict, str] | None:
    stated = holes.triangle_count_claimed(n, caps=caps)
    exact = holes.triangle_count_exact(materialize(n, caps=caps), caps=caps)
    if stated != exact:
        return ({"n": n, "expected": stated, "actual": exact},
                "exact count via exhaustive bit-parallel edge scan")


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
    classes = parameters.chromatic_coloring(n, caps=caps)
    if len(classes) != target:
        return {"n": n, "expected": {"colors": target}, "actual": {"colors": len(classes)}}
    for cls in classes:
        for u, v in combinations(cls, 2):
            if u & v and u != v:  # adjacent in G(n)
                return {"n": n, "expected": "proper coloring",
                        "actual": {"same color": [u, v]}}
    gap = _partition_gap(tuple(chain.from_iterable(classes)), n)
    if gap is not None:
        return {"n": n, "expected": "each mask of G(n) once", "actual": gap}
    # distinct masks of G(n) that share an element are pairwise adjacent
    witness = parameters.clique_witness(n, caps=caps)
    if not (len(witness) == len(set(witness)) == target
            and 0 < min(witness) and max(witness) < 1 << n and reduce(and_, witness)):
        return {"n": n, "expected": {"clique order": target}, "actual": {"witness": list(witness)}}
    if n <= top:
        chi = chromatic_exact(materialize(n, caps=caps))
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
    # masks whose union is the ground set meet every non-empty mask, so they
    # dominate G(n); one such mask is the least dominating set there is
    gamma, witness = parameters.domination(n, caps=caps)
    if not (gamma == len(witness) == 1 and reduce(or_, witness) == full_mask(n)):
        return {"n": n, "expected": {"dominating set of size": 1},
                "actual": {"gamma": gamma, "witness": list(witness)}}
    if n <= top:
        exact = dominating_exact(materialize(n, caps=caps))
        if exact != gamma:
            return {"n": n, "expected": gamma, "actual": exact}


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
    # 2^4 already reaches 16, so no huge max_n is ever shifted into an int
    top = min(16, 1 << min(max_n, 4))
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
        return _skipped("C21", _EMPTY_RANGE.format("index", 1, bound))
    return check_closure(bound, caps=caps)


def _check_c22(max_n: int, caps: Caps) -> ClaimVerdict:
    # m_{ki} with k, i <= bound must stay within the sequence cap
    bound = min(max_n, PRODUCT_CAP_INDEX, caps.mela_max_index // 2)
    if bound < 2:
        return _skipped("C22", _EMPTY_RANGE.format("index", 2, bound))
    return check_divisibility(bound, caps=caps)


REGISTRY: tuple[Claim, ...] = (
    _swept("C1", "the graph has an odd number of vertices, 2^n - 1",
           "|V(G(n))| = 2^n - 1, odd", 1, _c1,
           lambda c: c.count_max_n, top=lambda c: min(12, c.materialize_max_n),
           notes=("vertex enumeration cross-checked for n <= {top}",)),
    _swept("C2", "vertices whose subsets have equal cardinality share one degree",
           "d(v_{s,i}) = d(v_{s,j})", 1, _c2,
           lambda c: min(10, c.materialize_max_n),
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
           lambda c: 12, top=lambda c: min(10, c.materialize_max_n)),
    _swept("C5", "exactly one vertex, the full set, attains the maximum degree",
           "unique vertex of maximum degree", 2, _c5,
           lambda c: 12, top=lambda c: min(10, c.materialize_max_n),
           notes=("exhaustive degree scan for n <= {top}",)),
    _swept("C6", "the minimum degree is odd and the maximum degree is even",
           "min_deg odd, max_deg even", 2, _c6,
           lambda c: 12, top=lambda c: min(10, c.materialize_max_n)),
    _swept("C7", "the full-set vertex lies on |E| - max_deg triangles",
           "dp(v_{n,1}) = |E(G)| - max_deg(G)", 2, _c7,
           lambda c: min(9, holes._exact_max_n(c)),
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
    _swept("C10", "the graph has exactly two largest complete subgraphs, of order 2^(n-1)",
           "exactly two largest complete subgraphs K_{2^(n-1)}", 2, _c10,
           lambda c: min(c.clique_oracle_max_n, c.materialize_max_n, _CLIQUE_MAX_N)),
    _swept("C11", "triangle recursion h(n+1) = h(n) + C(2^n, 3) + 4|E(n)| matches the exact count",
           "h(G(n+1)) = h(G(n)) + C(2^n, 3) + 4|E(G(n))|", 2, _c11,
           holes._exact_max_n),
    _swept("C12", "tightness recursion: new singleton 2^n - 1; erstwhile k -> 2k + 1; replica k -> 2^n + k",
           "tightness recursion parts (i)-(iii)", 1, _c12,
           lambda c: min(10, c.materialize_max_n - 1),
           notes=("recursion output compared vertex by vertex with definition-level sums",)),
    _swept("C13", "the chromatic number is 2^(n-1)",
           "chi(G(n)) = 2^(n-1)", 1, _c13,
           lambda c: min(12, c.materialize_max_n),
           top=lambda c: min(c.chromatic_oracle_max_n, _CHROMATIC_MAX_N),
           notes=("certificate (proper coloring + matching clique) for n <= {last}; "
                  "exact search for n <= {top}",)),
    _swept("C14", "the independence number is n",
           "alpha(G(n)) = n", 1, _c14,
           lambda c: min(c.mis_oracle_max_n, c.materialize_max_n, _SEARCH_MAX_N),
           notes=("exhaustive maximum-independent-set search",)),
    _swept("C15", "the domination number is 1",
           "gamma(G(n)) = 1", 1, _c15,
           lambda c: min(12, c.materialize_max_n),
           top=lambda c: min(c.domination_oracle_max_n, _SEARCH_MAX_N),
           notes=("universal-vertex check for n <= {last}; "
                  "exact minimum dominating set for n <= {top}",)),
    _swept("C16", "the bondage number is 1",
           "b(G(n)) = 1", 2, _c16,
           lambda c: min(c.bondage_oracle_max_n, c.materialize_max_n, _SEARCH_MAX_N),
           notes=("per-edge removal sweep with exact domination recount",)),
    _swept("C17", "the McPherson number is 2^(n-1) - 1",
           "Upsilon(G(n)) = 2^(n-1) - 1", 1, _c17,
           lambda c: min(c.cover_oracle_max_n, c.materialize_max_n, _SEARCH_MAX_N),
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
           top=lambda c: min(9, c.corrected_max_n, holes._exact_max_n(c)),
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
    """Validate claim ids, then expand 'all', preserving registry order.

    selection is a str or a list or tuple of strs; each may hold
    comma-separated ids. An unknown id is refused even next to 'all'.
    """
    if isinstance(selection, str):
        selection = [selection]
    if not isinstance(selection, (list, tuple)) or not all(
        isinstance(item, str) for item in selection
    ):
        raise ValueError(f"claims must be a string or a list of strings, got {selection!r}")
    wanted = []
    for item in selection:
        for part in item.split(","):
            part = part.strip()
            if part:
                wanted.append(part)
    if not wanted:
        raise ValueError("empty claim selection")
    unknown = [w for w in wanted if w not in CLAIMS_BY_ID and w.lower() != "all"]
    if unknown:
        raise ValueError(f"unknown claim id(s): {', '.join(unknown)}")
    if any(w.lower() == "all" for w in wanted):
        return ALL_CLAIM_IDS
    chosen = set(wanted)
    return tuple(cid for cid in ALL_CLAIM_IDS if cid in chosen)


def run_claims(selection, max_n: int, *, caps: Caps = DEFAULT_CAPS) -> list[ClaimVerdict]:
    """Adjudicate the selected claims up to ground-set size max_n.

    Claims run one after another in registry order. Each check is looked up
    in CLAIMS_BY_ID at call time, so a wrapper written there is the check
    that runs.
    """
    if type(max_n) is not int:
        raise ValueError(f"max_n must be an integer, got {max_n!r}")
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


REPORT_FORMATS = ("json", "md", "markdown")


def check_report_format(fmt) -> None:
    """Refuse a report format that render_report does not write."""
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")


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
    check_report_format(fmt)
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
