"""Triangle (3-cycle) counting and per-vertex triangle incidence.

Three routes to the triangle count h are kept apart:

* triangle_count_exact, Goodman's identity on explicit rows. The complement
  of G(n) is the sparse disjointness graph, and its triangles cost one AND
  and popcount per complement edge: about 0.8M of them at n = 13 (8191
  vertices, ~32.7M edges);
* the claimed recursion h(n+1) = h(n) + C(2^n, 3) + 4*E(n), evaluated exactly
  as stated so the harness can adjudicate it (it is not ground truth);
* a corrected recursion that accounts for all three ways a triangle can use
  replica vertices; each step is one pass over the subset sizes k = 1..m,
  so it reaches well beyond materialization range.

Per-vertex incidence has three routes:

* primitive_degrees runs the per-vertex identity
  t(v) = |E| - d(v) - sum_{w in comp(v)} d(w) + C(V-1-d(v), 2) - t_c(v)
  (t_c(v): complement triangles at v) on explicit complement rows;
* the scalar primitive_degree intersects v's row with each neighbour's row;
  beyond the row check of every `Graph` it shares no code with the
  identity, so it stays the reference for the tests and claim C7;
* _incidence_by_size runs the same identity at one vertex per cardinality,
  in mask space, and builds no graph. It reads one complement neighbour per
  orbit too: the neighbours of one size that a representative has are
  carried onto each other by permutations that fix it, so one row of each
  size, weighed by the number of its peers, stands for them all: about
  n^2 / 2 row ANDs in all, not one per neighbour. Its rows are half-width:
  they index the 2^(n-1) masks of {a_2, ..., a_n}, because a_1 is free at
  every complement neighbour it reads (each full-width mask comes twice,
  with and without a_1) and lies in every representative. Rows, not time,
  bound its range: a row holds 2^(n-1) bits. primitive_degrees on full rows
  stays the test that its symmetry assumption holds.

hole_report reads h_exact and its histogram from _incidence_by_size and
checks them against the closed forms and the corrected recursion; `setgraph
invariants` reads its triangle fields there. The Goodman kernel stays the
route for claims C11 and C20, the n = 13 acceptance gate and the tests.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import comb

from .config import DEFAULT_CAPS, CapExceeded, Caps, RouteMismatch
from .core import Graph, _bit_positions, canonical_index, check_ground_size
from .invariants import degree_closed, edge_count_closed


def _complement_triangles(g: Graph) -> int:
    """Triangles of the complement of g, counted on explicit complement rows.

    comp[u] keeps only the complement neighbours below u, so each complement
    edge (u, w), w < u, adds the common complement neighbours below w and
    every complement triangle is counted once, at its two highest vertices
    (Chiba and Nishizeki's orientation). comp[w] has at most w bits, so the
    AND is as short as the lower end, which in canonical order is almost
    always a small subset near the start.
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

    Rows that give a negative count raise ValueError: they passed the O(V)
    row check of a Graph above 64 vertices, yet are not symmetric.
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

    The doubled edge term (summed over ordered pairs) is one pass over k:

    * size terms, by the S <-> T symmetry: d_k * (2^m - 2^(m-k+1)) for each
      k-set S, with d_k = degree_closed(m, k);
    * union term, by U = S u T: 3^k - 2^k ordered pairs of meeting subsets
      have union U when |U| = k (each element of U lies in S only, T only or
      both, and at least one in both); less the diagonal pair (U, U), each
      k-set U gives 2^(m-k) * (3^k - 2^k - 1).

    Each summand is even, so the halving is exact and needs no parity guard.
    A wrong recursion is caught where it meets other routes: hole_report's
    h_exact for n <= 13, and C20's Goodman kernel for n <= 9.
    """
    check_ground_size(n, caps.count_max_n)
    if n > caps.corrected_max_n:
        raise CapExceeded(
            f"corrected triangle recursion capped at n <= {caps.corrected_max_n}, got n={n}"
        )
    h = 0
    for m in range(1, n):
        edge_term_doubled = vertex_term = 0
        for k in range(1, m + 1):
            sets, d, outside = comb(m, k), degree_closed(m, k), 1 << (m - k)
            edge_term_doubled += sets * (d * ((1 << m) - 2 * outside) + outside * (3**k - (1 << k) - 1))
            vertex_term += sets * comb(d + 1, 2)
        h += comb(1 << m, 3) + edge_term_doubled // 2 + vertex_term
    return h


def primitive_degree(g: Graph, m: int) -> int:
    """Number of triangles containing the vertex of mask m.

    Rows whose doubled incidence comes out odd raise ValueError.
    """
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

    Rows that give a negative count, or whose doubled complement incidence
    comes out odd, raise ValueError.
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
    return _incidences(v, edges, degrees, far, shared)


def _incidences(v: int, edges: int, degrees, far, shared) -> tuple[int, ...]:
    """The per-vertex identity at each vertex: its triangles, from its degree.

    far[i] is the summed degree of vertex i's complement neighbours and
    shared[i] the summed |comp[v] & comp[w]| over them, twice its complement
    triangles. An odd shared or a negative incidence raises ValueError.
    """
    if any(s % 2 for s in shared):
        raise ValueError("rows are not symmetric: odd doubled complement incidence")
    out = tuple(
        edges - d - f + comb(v - 1 - d, 2) - s // 2
        for d, f, s in zip(degrees, far, shared)
    )
    if min(out, default=0) < 0:
        raise ValueError("rows are not symmetric: negative triangle incidence")
    return out


def _with_element(row: int, b: int) -> int:
    """A submask indicator once element b joins its free set: one shift-or.

    Bit x of the row marks mask x; each element of the free set doubles the
    submasks, so the row of the empty free set is 1, the empty mask alone.
    """
    return row | row << (1 << b)


def _incidence_by_size(n: int) -> tuple[tuple[int, ...], list[int], int]:
    """((t_1, ..., t_n), [d_1, ..., d_n], |E|): the triangle incidence and
    degree of the vertex (1 << k) - 1, and the edge count of G(n).

    A permutation of the ground set maps G(n) onto itself and any k-subset
    onto any other, so every k-subset has degree d_k and incidence t_k. The
    per-vertex identity of primitive_degrees runs at the representative
    rep_k = {a_1, ..., a_k} over its complement neighbours w, the non-empty
    subsets of {a_(k+1), ..., a_n}; the complement row of a mask marks the
    non-empty submasks of its free set, the elements it lacks. Every
    permutation of {a_(k+1), ..., a_n} fixes rep_k and maps G(n) onto
    itself, and these permutations carry any j-subset of those elements
    onto any other. So d(w) and |comp(rep_k) & comp(w)| depend on j alone,
    and one neighbour per j stands for its C(n-k, j) peers: w_j =
    {a_(n-j+1), ..., a_n}, which lies above a_k for every j <= n - k.

    Rows are half-width: they index the 2^(n-1) masks of the reduced
    lattice {a_2, ..., a_n} (bit i stands for a_(i+2)). a_1 lies in no w, so
    it is free at every w, and w's full-width row is its reduced row with
    each mask taken with and without a_1: d(w) = V - 2 * popcount(row), the
    row keeping the empty mask. Every representative holds a_1, so its
    full-width row is its reduced row, and an AND of two reduced rows counts
    the masks that the AND of the full-width rows counts.
    The free set of rep_k is {a_(k+1), ..., a_n}, so its row is the row of
    size k + 1 with a_(k+1) joined: a chain of n - 1 shift-ors from the apex
    row, 1, builds all n of them, and dropping the empty mask gives the
    representative rows. The reduced free set of w_j is {a_2, ..., a_(n-j)},
    so the neighbour rows are a second chain of n - 2 shift-ors from the
    row of w_(n-1), 1. The sizes then take about n^2 / 2 ANDs in all.

    |E| is half of sum_k C(n,k) * d_k. Degrees are read from the popcounts
    of the rows, not from a closed form; w_j and the representative of size
    j are two vertices of one orbit, so a neighbour row whose degree is not
    d_j raises ValueError, as do an odd doubled edge count or complement
    incidence and a negative incidence.
    """
    v = (1 << n) - 1  # 2^n - 1 vertices
    top = n - 1  # reduced elements 0..top-1 are a_2..a_n
    chain = [1]  # sizes n, n - 1, ..., 1
    for b in range(top - 1, -1, -1):
        chain.append(_with_element(chain[-1], b))
    rep_rows = [row ^ 1 for row in reversed(chain)]
    degrees = [v - 1 - row.bit_count() for row in rep_rows]
    twice_edges = sum(comb(n, k) * d for k, d in enumerate(degrees, 1))
    if twice_edges % 2:
        raise ValueError("odd doubled edge count")
    edges = twice_edges // 2
    w_rows = [1] if top else []  # w_(n-1), ..., w_1
    for b in range(top - 1):
        w_rows.append(_with_element(w_rows[-1], b))
    w_rows.reverse()
    w_degrees = [v - 2 * row.bit_count() for row in w_rows]
    if w_degrees != degrees[:top]:
        raise ValueError(
            f"rows are not symmetric: the neighbour rows give the degrees {w_degrees}, "
            f"the representative rows {degrees[:top]}"
        )
    far = []
    shared = []
    for k, rep in enumerate(rep_rows, 1):
        weights = [comb(n - k, j) for j in range(1, n - k + 1)]
        far.append(sum(c * d for c, d in zip(weights, w_degrees)))
        shared.append(sum(c * (rep & row).bit_count() for c, row in zip(weights, w_rows)))
    return _incidences(v, edges, degrees, far, shared), degrees, edges


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
        out = asdict(self)
        hist = self.primitive_degree_histogram
        if hist is not None:
            out["primitive_degree_histogram"] = {str(k): hist[k] for k in sorted(hist)}
        return out


def _exact_max_n(caps: Caps) -> int:
    """The largest n at which h is counted exactly: hole_report's gate, read
    also by `setgraph invariants` and the ranges of claims C7, C11 and C20.

    The per-size route needs neither cap, but keeping the gate
    min(triangle_exact_max_n, materialize_max_n) keeps every report
    byte-identical under every cap until the route gets a cap of its own.
    """
    return min(caps.triangle_exact_max_n, caps.materialize_max_n)


def hole_report(n: int, *, threads: int = 1, caps: Caps = DEFAULT_CAPS) -> HoleReport:
    """Triangle statistics of G(n).

    For n <= _exact_max_n(caps), _incidence_by_size gives t_k at one vertex
    per cardinality; the histogram maps t_k to the C(n,k) vertices that
    share it, and h_exact is a third of sum_k C(n,k) * t_k. The route's d_k
    must equal degree_closed(n, k) and its |E| edge_count_closed(n); the sum
    must be a multiple of 3; t_n must equal the apex incidence |E| - max
    degree; and h_exact must equal h_corrected where both are computed. The
    first check that fails raises RouteMismatch, which names n and both
    routes; so does a ValueError from a guard of the route, whose message
    it keeps. The route reads no input, so each is a fault in the program.

    ``threads`` is accepted and ignored: everything runs on one thread. It
    stays because the benchmark's child process (perfbench/child.py) calls
    ``hole_report(n, threads=1)``.
    """
    check_ground_size(n, caps.count_max_n)
    apex = apex_primitive_degree(n, caps=caps)
    claimed = triangle_count_claimed(n, caps=caps) if n >= 2 else None
    corrected = (
        triangle_count_corrected(n, caps=caps) if n <= caps.corrected_max_n else None
    )
    h_exact = None
    histogram = None
    if n <= _exact_max_n(caps):
        try:
            incidence, degrees, edges = _incidence_by_size(n)
        except ValueError as exc:
            raise RouteMismatch(f"n={n}: {exc}") from exc
        closed = [degree_closed(n, k) for k in range(1, n + 1)]
        closed_edges = edge_count_closed(n, caps=caps)
        histogram = {}
        for k, t in enumerate(incidence, 1):
            histogram[t] = histogram.get(t, 0) + comb(n, k)
        h_exact, rest = divmod(sum(t * count for t, count in histogram.items()), 3)
        checks = (
            ((degrees, edges) == (closed, closed_edges),
             f"the per-size route gives the degrees {degrees} and |E| = {edges}, "
             f"degree_closed and edge_count_closed give {closed} and {closed_edges}"),
            (not rest, "triangle incidences do not sum to a multiple of 3"),
            (incidence[-1] == apex,
             f"the per-size route gives the apex incidence {incidence[-1]}, "
             f"|E| - max degree gives {apex}"),
            (corrected is None or h_exact == corrected,
             f"the per-size incidences give h_exact = {h_exact}, "
             f"the corrected recursion gives {corrected}"),
        )
        for holds, message in checks:
            if not holds:
                raise RouteMismatch(f"n={n}: {message}")
    return HoleReport(
        n=n,
        h_exact=h_exact,
        h_paper_formula=claimed,
        h_corrected=corrected,
        apex_primitive_degree=apex,
        primitive_degree_histogram=histogram,
    )
