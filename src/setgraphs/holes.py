"""Triangle (3-cycle) counting and per-vertex triangle incidence.

Three routes to the triangle count are provided and deliberately kept apart:

* an exact count on explicit rows by Goodman's identity: C(V,3), minus half
  the sum of d(V-1-d) over the row degrees, minus the triangles of the
  complement, counted edge by edge on explicit complement rows;
* the claimed recursion h(n+1) = h(n) + C(2^n, 3) + 4*E(n), evaluated exactly
  as stated so the harness can adjudicate it (it is not ground truth);
* a corrected recursion that accounts for all three ways a triangle can use
  replica vertices, evaluated in closed form over cardinality classes so it
  reaches well beyond materialization range.

The complement of G(n) is the sparse disjointness graph, so the exact count
does one AND and popcount per complement edge: about 0.8M of them at n = 13
(8191 vertices, ~32.7M edges), against the ~33.5M vertex pairs of a sweep
over all rows. Each complement triangle is counted once, at its two highest
vertices (Chiba and Nishizeki's orientation): the rows keep only the
complement neighbours below each vertex, and in canonical order the lower
end of a disjoint pair is almost always a small subset near the start, so
the ANDs run over a few low bits instead of all V.

Per-vertex incidence has two routes on explicit rows. primitive_degrees runs the per-vertex
identity t(v) = |E| - d(v) - sum_{w in comp(v)} d(w) + C(V-1-d(v), 2) - t_c(v)
on its own scan of the complement rows (t_c(v): complement triangles at v),
reading each complement edge once and crediting both of its ends. The scalar
primitive_degree intersects v's row with each neighbour's row; beyond the row
check of `Graph.degrees` it shares no code with the identity, so it stays the
reference for the tests and claim C7.

hole_report reads its histogram and h_exact from a third route to the
incidences, _incidence_by_size, which builds no graph. A permutation of the
ground set maps G(n) onto itself and any k-subset onto any other, so every
vertex of cardinality k has the same degree and the same incidence t_k. The
route runs the per-vertex identity above at one vertex per cardinality,
(1 << k) - 1, in mask space: the complement row of a mask w is the indicator
of the non-empty submasks of ~w, built by doubling, one row at a time, and
the degrees come from the popcounts of those rows. That is about 2^n
neighbour rows in all, against the ~0.26M complement edges that
primitive_degrees reads at n = 12. h_exact is a third of
sum_k C(n,k) * t_k, and a sum that is not a multiple of 3 raises ValueError.
The route reads no closed form, so h_exact stays independent of the
corrected recursion; primitive_degrees on full rows stays the test that the
symmetry assumption holds. The Goodman kernel stays the route for
`invariants`, claims C11 and C20 and the n = 13 acceptance gate, and the
tests compare it with primitive_degrees, the per-size route and hole_report.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .config import DEFAULT_CAPS, CapExceeded, Caps
from .core import Graph, _bit_positions, canonical_index, check_ground_size
from .invariants import degree_closed, edge_count_closed


def _complement_triangles(g: Graph) -> int:
    """Triangles of the complement of g, counted on explicit complement rows.

    comp[u] keeps only the complement neighbours below u, so each complement
    edge (u, w), w < u, adds the common complement neighbours below w and
    every complement triangle is counted once, at its two highest vertices.
    comp[w] has at most w bits, so the AND is as short as the lower end.
    comp[u] is one AND-NOT per row: the low u bits, less g's row.
    """
    comp = [((1 << u) - 1) & ~row for u, row in enumerate(g.rows)]
    total = 0
    for cu in comp:
        for w in _bit_positions(cu):
            total += (cu & comp[w]).bit_count()
    return total


def triangle_count_exact(g: Graph, *, caps: Caps = DEFAULT_CAPS) -> int:
    """Exact triangle count of the materialized graph, by Goodman's identity.

    t(G) = C(V,3) - 1/2 sum_v d(v)(V-1-d(v)) - t(complement of G): the sum
    counts twice each vertex triple holding one or two edges. For G(n) the
    complement is the sparse disjointness graph.

    Rows that fail the check of `Graph.degrees`, or that give a negative
    count, raise ValueError.
    """
    if g.n > caps.triangle_exact_max_n:
        raise CapExceeded(
            f"exact triangle count capped at n <= {caps.triangle_exact_max_n}, got n={g.n}"
        )
    v = g.num_vertices
    mixed_twice = sum(d * (v - 1 - d) for d in g.degrees)
    count = comb(v, 3) - mixed_twice // 2 - _complement_triangles(g)
    if count < 0:
        raise ValueError("rows are not symmetric: negative triangle count")
    return count


def triangle_count_claimed(n: int, *, caps: Caps = DEFAULT_CAPS) -> int:
    """The claimed recursion, evaluated literally from the base h(2) = 0.

    Kept separate from ground truth: the harness compares it against the
    exact count and reports the verdict.
    """
    check_ground_size(n, caps.count_max_n)
    if n < 2:
        raise ValueError(f"the claimed recursion starts at n=2, got n={n}")
    h = 0
    for m in range(2, n):
        h = h + comb(1 << m, 3) + 4 * edge_count_closed(m, caps=caps)
    return h


def triangle_count_corrected(n: int, *, caps: Caps = DEFAULT_CAPS) -> int:
    """Corrected recursion for the triangle count, from the base h(1) = 0.

    Extending G(m) to G(m+1) adds, beyond the C(2^m, 3) triples inside the
    replica clique:

    * for every old edge (S, T), one triangle per replica adjacent to both
      ends; there are 2^m - 2^(m-|S|) - 2^(m-|T|) + 2^(m-|S u T|) such
      subsets (count-by-complement over the two ends);
    * for every old vertex, one triangle per pair of adjacent replicas,
      C(d+1, 2) of them (the +1 is the vertex's own replica).

    Both sums are evaluated over cardinality classes: the number of ordered
    subset pairs with |S| = s, |T| = t, |S n T| = j is
    C(m,s) * C(s,j) * C(m-s, t-j).
    """
    check_ground_size(n, caps.count_max_n)
    if n > caps.corrected_max_n:
        raise CapExceeded(
            f"corrected triangle recursion capped at n <= {caps.corrected_max_n}, got n={n}"
        )
    h = 0
    for m in range(1, n):
        replica_clique = comb(1 << m, 3)
        edge_term_doubled = 0
        for s in range(1, m + 1):
            for t in range(1, m + 1):
                for j in range(max(1, s + t - m), min(s, t) + 1):
                    if j == s == t:
                        continue  # the (s,s,s) cell is exactly the diagonal S = T
                    pairs = comb(m, s) * comb(s, j) * comb(m - s, t - j)
                    union = s + t - j
                    common = (
                        (1 << m) - (1 << (m - s)) - (1 << (m - t)) + (1 << (m - union))
                    )
                    edge_term_doubled += pairs * common
        if edge_term_doubled % 2:
            raise ValueError(f"corrected recursion: odd doubled edge term at m={m}")
        vertex_term = sum(
            comb(m, k) * comb(degree_closed(m, k) + 1, 2) for k in range(1, m + 1)
        )
        h = h + replica_clique + edge_term_doubled // 2 + vertex_term
    return h


def primitive_degree(g: Graph, m: int) -> int:
    """Number of triangles containing the vertex of mask m.

    Rows that fail the check of `Graph.degrees`, or whose doubled incidence
    comes out odd, raise ValueError.
    """
    g.degrees  # checks the rows, once per graph
    v = canonical_index(g.n, m)
    row_v = g.rows[v]
    twice = sum((row_v & g.rows[u]).bit_count() for u in _bit_positions(row_v))
    if twice % 2:
        raise ValueError("rows are not symmetric: odd doubled triangle incidence")
    return twice // 2


def primitive_degrees(g: Graph) -> tuple[int, ...]:
    """Per-vertex triangle incidence in canonical order, by Goodman's identity.

    The triangles at v are the edges among its neighbours: the |E| - d(v)
    edges that miss v, less those with an end among the complement
    neighbours w of v. Summing d(w) counts each of those once, and twice the
    C(V-1-d(v), 2) - t_c(v) edges with both ends there, where t_c(v), the
    complement triangles at v, is half the sum of |comp[v] & comp[w]|. Every
    sum runs over complement edges only, and each complement edge (u, w),
    w < u, is read once: its AND goes to both ends, and each end's degree
    to the other.

    Rows that fail the check of `Graph.degrees`, that give a negative count,
    or whose doubled complement incidence comes out odd raise ValueError.
    """
    v = g.num_vertices
    degrees = g.degrees
    edges = sum(degrees) // 2
    comp = g.complement().rows
    far = [0] * v
    shared = [0] * v
    for u, cu in enumerate(comp):
        du = degrees[u]
        shared_u = far_u = 0
        for w in _bit_positions(cu & ((1 << u) - 1)):
            c = (cu & comp[w]).bit_count()
            shared_u += c
            shared[w] += c
            far_u += degrees[w]
            far[w] += du
        shared[u] += shared_u
        far[u] += far_u
    out = tuple(
        _incidence(v, edges, d, f, s) for d, f, s in zip(degrees, far, shared)
    )
    if min(out, default=0) < 0:
        raise ValueError("rows are not symmetric: negative triangle incidence")
    return out


def _incidence(v: int, edges: int, d: int, far: int, shared: int) -> int:
    """The per-vertex identity: triangles at a vertex of degree d.

    far is the summed degree of its complement neighbours and shared the
    summed |comp[v] & comp[w]| over them, twice its complement triangles;
    an odd shared raises ValueError.
    """
    if shared % 2:
        raise ValueError("rows are not symmetric: odd doubled complement incidence")
    return edges - d - far + comb(v - 1 - d, 2) - shared // 2


def _submask_row(free: int) -> int:
    """Indicator of the non-empty submasks of free, bit x for mask x.

    This is the complement row, in mask space, of the mask whose bits
    outside free are all set: each element of free doubles the submasks.
    """
    row = 1
    for b in _bit_positions(free):
        row |= row << (1 << b)
    return row ^ 1


def _incidence_by_size(n: int) -> tuple[int, ...]:
    """(t_1, ..., t_n): the triangle incidence of the vertex (1 << k) - 1.

    Every k-subset has incidence t_k (the module docstring says why). The
    per-vertex identity of primitive_degrees runs at each representative
    over its 2^(n-k) - 1 complement neighbours, whose rows are built one at
    a time and dropped; |E| is half of sum_k C(n,k) * d_k. Degrees are read
    from the popcounts of the rows, not from a closed form. An odd doubled
    edge count or complement incidence, or a negative incidence, raises
    ValueError.
    """
    full = (1 << n) - 1
    v = full  # 2^n - 1 vertices
    rep_rows = [_submask_row(full ^ ((1 << k) - 1)) for k in range(1, n + 1)]
    degrees = [v - 1 - row.bit_count() for row in rep_rows]
    twice_edges = sum(comb(n, k) * d for k, d in enumerate(degrees, 1))
    if twice_edges % 2:
        raise ValueError("odd doubled edge count")
    edges = twice_edges // 2
    out = []
    for d, row in zip(degrees, rep_rows):
        far = shared = 0
        for w in _bit_positions(row):
            row_w = _submask_row(full ^ w)
            far += v - 1 - row_w.bit_count()
            shared += (row & row_w).bit_count()
        out.append(_incidence(v, edges, d, far, shared))
    if min(out, default=0) < 0:
        raise ValueError("negative triangle incidence")
    return tuple(out)


def apex_primitive_degree(n: int, *, caps: Caps = DEFAULT_CAPS) -> int:
    """Triangle incidence of the full-set vertex: |E| - max degree.

    Every edge not touching the apex forms a triangle with it, because the
    apex meets every other subset.
    """
    check_ground_size(n, caps.count_max_n)
    return edge_count_closed(n, caps=caps) - ((1 << n) - 2)


@dataclass(frozen=True)
class HoleReport:
    """Triangle statistics of G(n); exact fields are None above their caps."""

    n: int
    h_exact: int | None
    h_paper_formula: int | None
    h_corrected: int | None
    apex_primitive_degree: int
    primitive_degree_histogram: dict[int, int] | None

    def as_dict(self) -> dict:
        hist = self.primitive_degree_histogram
        return {
            "n": self.n,
            "h_exact": self.h_exact,
            "h_paper_formula": self.h_paper_formula,
            "h_corrected": self.h_corrected,
            "apex_primitive_degree": self.apex_primitive_degree,
            "primitive_degree_histogram": (
                None if hist is None else {str(k): hist[k] for k in sorted(hist)}
            ),
        }


def hole_report(n: int, *, threads: int = 1, caps: Caps = DEFAULT_CAPS) -> HoleReport:
    """Triangle statistics of G(n).

    Below the gate, _incidence_by_size gives t_k at one vertex per
    cardinality; the histogram maps t_k to the C(n,k) vertices that share
    it, and h_exact is a third of sum_k C(n,k) * t_k, checked for
    divisibility by 3. No graph is materialized: permuting the ground set
    preserves G(n) and moves any k-subset onto any other, so the vertices of
    one size share one incidence (the module docstring has the route).

    The gate n <= min(triangle_exact_max_n, materialize_max_n) is interim:
    the route needs neither cap, but keeping their gate keeps every report
    byte-identical under every cap until a cap of its own is added.

    ``threads`` is accepted and ignored: everything runs on one thread. It
    stays because the benchmark's child process (perfbench/child.py) calls
    ``hole_report(n, threads=1)``.
    """
    check_ground_size(n, caps.count_max_n)
    h_exact = None
    histogram = None
    if n <= min(caps.triangle_exact_max_n, caps.materialize_max_n):
        incidence = _incidence_by_size(n)
        histogram = {}
        for k, t in enumerate(incidence, 1):
            histogram[t] = histogram.get(t, 0) + comb(n, k)
        h_exact, rest = divmod(sum(t * count for t, count in histogram.items()), 3)
        if rest:
            raise ValueError("triangle incidences do not sum to a multiple of 3")
    claimed = triangle_count_claimed(n, caps=caps) if n >= 2 else None
    corrected = (
        triangle_count_corrected(n, caps=caps) if n <= caps.corrected_max_n else None
    )
    return HoleReport(
        n=n,
        h_exact=h_exact,
        h_paper_formula=claimed,
        h_corrected=corrected,
        apex_primitive_degree=apex_primitive_degree(n, caps=caps),
        primitive_degree_histogram=histogram,
    )
