"""Cliques, coloring, independence, domination, bondage, and explosions.

Cliques of G(n) are exactly the intersecting families of subsets, so the
clique number is 2^(n-1) (fix an element). A proper coloring with the same
number of colors comes from pairing each subset with its complement, which
certifies the chromatic number without any search. The exact oracles then
confirm the small cases.
"""

from setgraphs import (
    adjacent,
    chromatic_coloring,
    clique_number,
    disjointness_graph,
    domination,
    independence_number,
    materialize,
    max_cliques,
    mcpherson_number,
    simulate_explosions,
    single_edge_bondage,
    subset_str,
)
from setgraphs.oracle import vertex_cover_exact

N = 4

cliques = max_cliques(materialize(N))
print(f"G({N}): clique number {clique_number(N)}; "
      f"{len(cliques)} maximum cliques found by enumeration")
print("  (so the 'exactly two largest complete subgraphs' claim fails for n >= 3)")
for c in cliques[:4]:
    print("   ", ", ".join(subset_str(m) for m in c))
print(f"    ... and {len(cliques) - 4} more")

# one color class per complement pair, plus the full set alone
classes = chromatic_coloring(N)
proper = not any(adjacent(u, v) for c in classes for u in c for v in c)
print(f"\ncomplement-pair coloring: {len(classes)} colors, proper = {proper}")

alpha, witness = independence_number(N)
print(f"\nindependence number {alpha}, witness: "
      + ", ".join(subset_str(m) for m in witness))

gamma, dom_witness = domination(N)
print(f"domination number {gamma}, witness {subset_str(dom_witness[0])} "
      "(the full set meets everything)")

edge = single_edge_bondage(materialize(N))
print(f"bondage: removing {subset_str(edge[0])} -- {subset_str(edge[1])} "
      "raises the domination number to 2")

print(f"\nMcPherson number: {mcpherson_number(N)} explosions needed.")
print("an exploded vertex set completes the graph iff it covers every")
print("disjoint pair, i.e. it is a vertex cover of the disjointness graph:")
print(f"  minimum vertex cover = {vertex_cover_exact(disjointness_graph(N))}")
cover = [m for m in materialize(N).masks if not m & 1]
steps = simulate_explosions(materialize(N), cover)
print(f"  exploding every subset missing a_1 completes after {steps} steps")
