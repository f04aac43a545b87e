"""Three independent degree routes, the edge-count recursion, and tightness.

Every vertex of cardinality k has degree 2^n - 2^(n-k) - 1. The closed form,
the inclusion-exclusion sum over element stars, and the popcount of the
explicit adjacency row (`Graph.degrees`, of rows checked when made) must
agree vertex by vertex, and the tightness number of a subset (how many other
subsets it meets) is just its degree again.
"""

from setgraphs import (
    degree_closed,
    degree_inclusion_exclusion,
    edge_count_closed,
    edge_count_recursive,
    materialize,
    subset_str,
    tightness,
    tightness_recursion_step,
    tightness_vector,
)

N = 4
g = materialize(N)

print(f"degrees in G({N}) along three routes:")
print(f"{'subset':<16}{'closed':>8}{'incl-excl':>11}{'row scan':>10}")
for m, brute in zip(g.masks, g.degrees):
    closed = degree_closed(N, m.bit_count())
    ie = degree_inclusion_exclusion(N, m)
    assert closed == ie == brute
    print(f"{subset_str(m):<16}{closed:>8}{ie:>11}{brute:>10}")

print("\nedge counts, recursion vs closed form:")
for n in range(1, 11):
    rec, closed = edge_count_recursive(n), edge_count_closed(n)
    assert rec == closed
    print(f"  n={n:<2}  E = {closed}")

print("\ntightness equals degree, and the handshake holds:")
total = sum(tightness(N, m) for m in g.masks)
print(f"  sum of tightness over G({N}) = {total} = 2 * {edge_count_closed(N)}")

print("\nstepping the tightness recursion from G(2) to G(3):")
old = tightness_vector(2)
new = tightness_recursion_step(2, old)
direct = tightness_vector(3)
print(f"  recursion: {new}")
print(f"  direct:    {direct}")
assert new == direct
