"""Degrees, edge counts, and tightness numbers of G(n).

Each quantity is available along independent routes: a closed form, the
recursion that the claims harness adjudicates, and a brute-force scan over
explicit rows. The routes are kept separate on purpose so they can be played
against each other. Tightness is counted over explicit subsets twice: the
scalar `tightness` walks one mask's disjoint submasks and is the reference
that the tests hold `tightness_vector` to, while the vector counts every
mask's disjoint subsets at once by a subset-sum sweep.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .config import DEFAULT_CAPS, Caps
from .core import (
    Graph,
    _submasks,
    canonical_masks,
    check_ground_size,
    check_mask,
    full_mask,
)


def degree_closed(n: int, k: int) -> int:
    """Degree of any vertex of cardinality k: 2^n - 2^(n-k) - 1.

    Counts the subsets meeting a fixed k-set (all but the 2^(n-k) subsets of
    its complement) and excludes the vertex itself.
    """
    if not 1 <= k <= n:
        raise ValueError(f"cardinality {k} out of range for n={n}")
    return (1 << n) - (1 << (n - k)) - 1


def degree_inclusion_exclusion(n: int, m: int) -> int:
    """Degree of the vertex of mask m by inclusion-exclusion over element stars.

    Sums (-1)^(|J|-1) * 2^(n-|J|) over the non-empty sub-collections J of m's
    elements (each |J|-fold star intersection has 2^(n-|J|) subsets), then
    subtracts 1 for the vertex itself.
    """
    check_mask(n, m)
    total = 0
    for sub in _submasks(m):
        j = sub.bit_count()
        total += (-1) ** (j - 1) * (1 << (n - j))
    return total - 1


def degree_extremes(n: int, *, caps: Caps = DEFAULT_CAPS) -> tuple[int, int]:
    """(min degree, max degree) = (2^(n-1) - 1, 2^n - 2); the max is twice the min."""
    check_ground_size(n, caps.count_max_n)
    return (1 << (n - 1)) - 1, (1 << n) - 2


def edge_count_closed(n: int, *, caps: Caps = DEFAULT_CAPS) -> int:
    """Edge count: all pairs minus disjoint pairs.

    Ordered disjoint pairs of non-empty subsets are counted by assigning each
    element to the first set, the second set, or neither: 3^n - 2*2^n + 1.
    """
    check_ground_size(n, caps.count_max_n)
    v = (1 << n) - 1
    disjoint_pairs = (3**n - (1 << (n + 1)) + 1) // 2
    return comb(v, 2) - disjoint_pairs


def edge_count_recursive(n: int, *, caps: Caps = DEFAULT_CAPS) -> int:
    """Edge count by the extension recursion E(m+1) = 3E(m) + V(m) + C(V(m)+1, 2).

    The three terms are the doubled-plus-original old edges, the parallel
    linkages, and the clique on the replicas plus the new singleton.
    """
    check_ground_size(n, caps.count_max_n)
    e = 0  # single vertex, no edges
    for m in range(1, n):
        v = (1 << m) - 1
        e = 3 * e + v + comb(v + 1, 2)
    return e


def edge_count_brute(g: Graph) -> int:
    """Half the degree sum; rows that fail the check of `Graph.degrees` raise ValueError."""
    return sum(g.degrees) // 2


def tightness(n: int, m: int) -> int:
    """Number of other non-empty subsets meeting m, counted over an explicit set.

    The 2^n - 1 non-empty subsets, less m itself, less those disjoint from m:
    the non-empty submasks of ~m, walked one by one (2^(n-|m|) steps). It uses
    no closed form, so the recursion and the degree formula stay independent
    routes to the same values. `tightness_vector` does not call it; this
    one-mask walk is the scalar reference the tests compare the vector with.
    """
    check_mask(n, m)
    disjoint = len(tuple(_submasks(full_mask(n) & ~m)))
    return (1 << n) - 2 - disjoint


def tightness_vector(n: int, *, caps: Caps = DEFAULT_CAPS) -> tuple[int, ...]:
    """Tightness value per vertex in canonical order; equals the degree sequence.

    One subset-sum (zeta transform) sweep over the explicit subset lattice
    counts, for every mask x, its non-empty submasks: start from 1 at each
    non-empty x, then for each element bit add the count of x without the bit
    into every x that holds it, n * 2^(n-1) additions in all against about
    3^n steps of `tightness` over every mask. The value of m is 2^n - 2 less
    the count at ~m, its disjoint subsets. No closed form, recursion step or
    row is read, so C12 and C18 keep two independent routes.

    The vector depends on n alone, so each one is computed once per process
    and kept (see _tightness_vector); the cap is checked on every call, in
    front of the cache. It holds up to 16 vectors; at 2^n - 1 ints each, they
    add up to less than twice the largest, far below the rows of G(n).
    """
    check_ground_size(n, caps.materialize_max_n)
    return _tightness_vector(n)


@lru_cache(maxsize=16)
def _tightness_vector(n: int) -> tuple[int, ...]:
    size = 1 << n
    inside = [1] * size  # inside[x]: non-empty submasks of x counted so far
    inside[0] = 0
    for b in range(n):
        bit = 1 << b
        for x in range(size):
            if x & bit:
                inside[x] += inside[x ^ bit]
    full = size - 1
    return tuple(size - 2 - inside[full ^ m] for m in canonical_masks(n))


def tightness_recursion_step(n: int, old_values) -> tuple[int, ...]:
    """Tightness values of G(n+1) from those of G(n), in canonical order.

    The new singleton gets 2^n - 1, an erstwhile vertex with old value k gets
    2k + 1, and the replica of a vertex with old value k gets 2^n + k.
    """
    old_values = tuple(old_values)
    expected = (1 << n) - 1
    if len(old_values) != expected:
        raise ValueError(f"expected {expected} values for n={n}, got {len(old_values)}")
    old_by_mask = dict(zip(canonical_masks(n), old_values))
    new_bit = 1 << n
    out = []
    for m in canonical_masks(n + 1):
        if m == new_bit:
            out.append((1 << n) - 1)
        elif m & new_bit:
            out.append((1 << n) + old_by_mask[m ^ new_bit])
        else:
            out.append(2 * old_by_mask[m] + 1)
    return tuple(out)


def tightness_checksum(n: int, *, caps: Caps = DEFAULT_CAPS) -> int:
    """Sum of all tightness values via the closed degree form; equals 2|E|."""
    check_ground_size(n, caps.count_max_n)
    return sum(comb(n, k) * degree_closed(n, k) for k in range(1, n + 1))
