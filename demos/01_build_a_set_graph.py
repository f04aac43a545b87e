"""Build G(3) from scratch: masks, labels, adjacency, and a DOT rendering.

G(n) has one vertex per non-empty subset of {a_1, ..., a_n}; two subsets are
adjacent when they intersect. Everything below is driven by integer masks.
"""

import sys

from setgraphs import (
    adjacent,
    canonical_masks,
    label_of_mask,
    materialize,
    subset_str,
    vertex_count,
)
from setgraphs.cli import render_dot

N = 3

print(f"G({N}) has {vertex_count(N)} vertices (2^{N} - 1, always odd):\n")
for m in canonical_masks(N):
    s, i = label_of_mask(N, m)
    print(f"  v_{s},{i}  mask {m:0{N}b}  {subset_str(m)}")

print("\nAdjacency is a single AND on masks:")
print(f"  {subset_str(0b001)} ~ {subset_str(0b011)} ? {adjacent(0b001, 0b011)}")
print(f"  {subset_str(0b001)} ~ {subset_str(0b010)} ? {adjacent(0b001, 0b010)}")

g = materialize(N)
edges = [(g.masks[u], g.masks[v]) for u, v in g.edges()]
print(f"\nMaterialized: {len(edges)} edges")
for u, v in edges:
    print(f"  {subset_str(u)} -- {subset_str(v)}")

print("\nDOT output (feed to graphviz):\n")
render_dot(N, sys.stdout)
