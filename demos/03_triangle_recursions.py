"""Where the claimed triangle recursion breaks, and what fixes it.

The claimed recursion h(n+1) = h(n) + C(2^n, 3) + 4|E(n)| counts the replica
clique and a K_4 per old edge, but misses triangles that use exactly one or
two replica vertices beyond those patterns. The corrected recursion adds a
per-edge common-replica term and a per-vertex replica-pair term; it matches
the exhaustive count wherever the count can be afforded.
"""

import time

from setgraphs import (
    apex_primitive_degree,
    full_mask,
    materialize,
    primitive_degree,
    triangle_count_claimed,
    triangle_count_corrected,
    triangle_count_exact,
)

print(f"{'n':>3} {'claimed':>12} {'corrected':>13} {'exact':>13}")
for n in range(2, 10):
    claimed = triangle_count_claimed(n)
    corrected = triangle_count_corrected(n)
    exact = triangle_count_exact(materialize(n))
    flag = "" if claimed == exact else "   <- claimed diverges"
    print(f"{n:>3} {claimed:>12} {corrected:>13} {exact:>13}{flag}")

print("\nfirst divergence at n=3: 12 claimed vs 13 exact.")
print("the corrected recursion reaches far beyond materialization range:")
for n in (14, 16, 19):
    print(f"  h({n}) = {triangle_count_corrected(n)}")

print("\nper-vertex incidence at the full set: every edge avoiding the apex")
print("forms a triangle with it, so dp(apex) = |E| - max_deg:")
for n in (3, 4, 5):
    g = materialize(n)
    print(f"  n={n}: direct {primitive_degree(g, full_mask(n))}, "
          f"formula {apex_primitive_degree(n)}")

print("\nthe exact count at n=13 (8191 vertices, ~32.7M edges), by Goodman's")
print("identity on the ~0.8M edges of the complement (the disjointness graph):")
g13 = materialize(13)
start = time.perf_counter()
h13 = triangle_count_exact(g13)
elapsed = time.perf_counter() - start
print(f"  exact h(13) = {h13} in {elapsed:.1f}s; corrected gives {triangle_count_corrected(13)}")
