"""Masks, labels, adjacency, materialization, and the extension map."""

import dataclasses
import hashlib
import random
from math import comb

import pytest

from setgraphs import (
    CapExceeded,
    Graph,
    VertexLabel,
    adjacent,
    canonical_index,
    canonical_masks,
    extension_map,
    hole_report,
    label_of_mask,
    mask_of_elements,
    mask_of_label,
    materialize,
    subset_str,
    vertex_count,
)
from setgraphs.config import DEFAULT_CAPS
from setgraphs.core import _STRING_WALK_MIN_BITS, _bit_positions, _submasks


def test_mask_helpers():
    assert mask_of_elements([1, 2]) == 0b011
    assert mask_of_elements([3]) == 0b100
    assert subset_str(0b101) == "{a1,a3}"
    assert subset_str(0b1) == "{a1}"
    with pytest.raises(ValueError, match="1-based"):
        mask_of_elements([0])


def test_adjacent_examples():
    # {a1} meets {a1,a2}; {a1} misses {a2}; never a self-loop
    assert adjacent(0b001, 0b011)
    assert not adjacent(0b001, 0b010)
    for m in range(1, 16):
        assert not adjacent(m, m)


def test_adjacent_symmetric_irreflexive_exhaustive():
    for n in range(1, 11):
        top = 1 << n
        for u in range(1, top):
            for v in range(u, top):
                assert adjacent(u, v) == adjacent(v, u)


def test_vertex_count_values_and_parity():
    assert vertex_count(3) == 7
    assert vertex_count(1) == 1
    assert vertex_count(10) == 1023
    for n in range(1, 17):
        v = vertex_count(n)
        assert v == 2**n - 1
        assert v % 2 == 1


def test_vertex_count_cap():
    with pytest.raises(CapExceeded):
        vertex_count(DEFAULT_CAPS.count_max_n + 1)
    with pytest.raises(ValueError):
        vertex_count(0)


def test_canonical_order_n3():
    # cardinality ascending, mask ascending
    assert canonical_masks(3) == (1, 2, 4, 3, 5, 6, 7)


def test_label_examples():
    assert label_of_mask(3, 0b011) == VertexLabel(2, 1)
    assert mask_of_label(3, VertexLabel(3, 1)) == 0b111
    assert mask_of_label(3, VertexLabel(1, 3)) == 0b100
    # {a1,a3} is the second 2-element subset in mask order
    assert mask_of_label(3, VertexLabel(2, 2)) == 0b101


def test_label_roundtrip_exhaustive():
    for n in range(1, 13):
        for idx, m in enumerate(canonical_masks(n)):
            label = label_of_mask(n, m)
            assert mask_of_label(n, label) == m
            assert canonical_index(n, m) == idx


def test_label_roundtrip_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 14))
        m = data.draw(st.integers(1, (1 << n) - 1))
        s, i = label_of_mask(n, m)
        assert s == m.bit_count() and 1 <= i <= comb(n, s)
        assert mask_of_label(n, VertexLabel(s, i)) == m
        s = data.draw(st.integers(1, n))
        i = data.draw(st.integers(1, comb(n, s)))
        assert label_of_mask(n, mask_of_label(n, VertexLabel(s, i))) == (s, i)

    check()


def test_bools_are_neither_sizes_nor_masks():
    # bool is a subclass of int, so an isinstance check would let True pass
    # as 1 and hole_report(True) report "n": true
    materialize(1)  # a cached G(1) must not answer for True either
    for call in (
        lambda: vertex_count(True),
        lambda: vertex_count(False),
        lambda: materialize(True),
        lambda: hole_report(True),
        lambda: label_of_mask(3, True),
    ):
        with pytest.raises(ValueError):
            call()


def test_label_errors():
    with pytest.raises(ValueError):
        mask_of_label(3, VertexLabel(2, 4))  # only C(3,2)=3 pairs
    with pytest.raises(ValueError):
        mask_of_label(3, VertexLabel(4, 1))
    with pytest.raises(ValueError):
        label_of_mask(3, 0)
    with pytest.raises(ValueError):
        label_of_mask(3, 8)


def test_materialize_n1_trivial():
    g = materialize(1)
    assert g.num_vertices == 1
    assert g.rows == (0,)


def test_materialize_n2_path():
    g = materialize(2)
    edges = {(g.masks[u], g.masks[v]) for u, v in g.edges()}
    assert edges == {(1, 3), (2, 3)}


def test_materialize_matches_pair_scan():
    assert sum(row.bit_count() for row in materialize(3).rows) // 2 == 15
    for n in range(1, 9):
        g = materialize(n)
        masks = g.masks
        for u in range(g.num_vertices):
            for v in range(g.num_vertices):
                expected = adjacent(masks[u], masks[v])
                assert bool(g.rows[u] >> v & 1) == expected


# sha256 of the rows of materialize(n), each as ceil(V/8) little-endian bytes,
# taken from the per-(vertex, element) OR build that preceded the one-OR-per-
# vertex build
MATERIALIZE_SHA256 = {
    9: "034019fc933f4f8aae33247102d17caf92607a9d965145ec38ed72a1a008d7e3",
    10: "81eb76b19aff194e3961db85acca5362264f4cd9e8d993a4810f1eaaa2e5d1f5",
    11: "b8fc7cce49b40adc5d581d6005554142bd43681498926a3f47484edc3a808179",
    12: "3e7c2c4d7ea09f90cb7235eb58cfcac620d3f859424f81d38a8d6c1e6c0aa59a",
    13: "6365ec7802b339e7517923df36d604c8eabe2f3c783c2e61879c1f0459dee124",
}


@pytest.mark.parametrize("n", sorted(MATERIALIZE_SHA256))
def test_materialize_pinned(n):
    rows = materialize(n).rows
    width = (len(rows) + 7) // 8
    digest = hashlib.sha256(b"".join(row.to_bytes(width, "little") for row in rows))
    assert digest.hexdigest() == MATERIALIZE_SHA256[n]


def test_materialize_rows_symmetric_irreflexive():
    for n in range(1, 9):
        g = materialize(n)
        for u, row in enumerate(g.rows):
            assert not row >> u & 1
            rest = row
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                rest ^= low
                assert g.rows[v] >> u & 1


def _row_check_reference(rows):
    """The row check of a Graph of at most 64 vertices as a walk over every
    set bit: row by row, first the range, then each bit against its mirror."""
    v = len(rows)
    if any(row >> u & 1 for u, row in enumerate(rows)):
        raise ValueError("rows are not irreflexive: a row holds its own bit")
    for u, row in enumerate(rows):
        if row >> v:
            raise ValueError(f"row {u} has bits beyond the vertex range")
        for w in range(v):
            if row >> w & 1 and not rows[w] >> u & 1:
                raise ValueError(f"rows are not symmetric: asymmetric pair ({u}, {w})")


def _row_check_outcome(check, rows):
    """None if check accepts rows, else the message of its ValueError."""
    try:
        check(rows)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("rows, message", [
    # an asymmetric pair in row 0 comes before row 2's bit beyond the range
    ((0b010, 0b000, 0b1000), "rows are not symmetric: asymmetric pair (0, 1)"),
    # row 0 is out of range before row 1's asymmetric pair is reached
    ((0b1000, 0b100, 0b000), "row 0 has bits beyond the vertex range"),
    # within one row the range is checked first
    ((0b1100, 0b000, 0b000), "row 0 has bits beyond the vertex range"),
    # a negative row has bits beyond any range
    ((0b10, -3), "row 1 has bits beyond the vertex range"),
    # the lowest w of the first asymmetric row is reported
    ((0b110, 0b000, 0b000), "rows are not symmetric: asymmetric pair (0, 1)"),
    ((0b000, 0b101, 0b000), "rows are not symmetric: asymmetric pair (1, 0)"),
    # a self bit is reported before any other fault
    ((0b1000, 0b10, 0b0), "rows are not irreflexive: a row holds its own bit"),
    ((0b0,) * 63 + (1 << 64,), "row 63 has bits beyond the vertex range"),
    ((1 << 63,) + (0,) * 63, "rows are not symmetric: asymmetric pair (0, 63)"),
], ids=["asymmetric-before-range", "range-before-asymmetric", "range-first-in-a-row",
        "negative-row", "lowest-w", "later-row", "self-bit", "range-at-64", "pair-at-64"])
def test_row_check_reports_the_first_fault_of_the_bit_walk(rows, message):
    assert _row_check_outcome(_row_check_reference, rows) == message
    with pytest.raises(ValueError) as raised:
        Graph(rows)
    assert str(raised.value) == message


def test_row_check_agrees_with_the_bit_walk():
    # symmetric rows on 0-64 vertices with up to three bits flipped: a flip
    # at (u, w), w != u in range, makes an asymmetric pair, one at (u, u) a
    # self bit, one at w >= V a bit beyond the range
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = set()

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        st.integers(0, 64), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1),
        st.lists(st.tuples(st.integers(0, 63), st.sampled_from(["pair", "self", "beyond"]),
                           st.integers(0, 63)), max_size=3),
    )
    def check(v, density, seed, flips):
        rng = random.Random(seed)
        rows = [0] * v
        for u in range(v):
            for w in range(u + 1, v):
                if rng.random() < density:
                    rows[u] |= 1 << w
                    rows[w] |= 1 << u
        for u, kind, w in flips:
            if v:
                u %= v
                w = {"pair": w % v, "self": u, "beyond": v + w % 4}[kind]
                rows[u] ^= 1 << w
        rows = tuple(rows)
        expected = _row_check_outcome(_row_check_reference, rows)
        assert _row_check_outcome(Graph, rows) == expected
        if expected is None:
            assert Graph(rows).degrees == tuple(row.bit_count() for row in rows)
            seen.add("accepted")
        else:
            seen.add(next(k for k in ("irreflexive", "beyond", "asymmetric") if k in expected))

    check()
    assert seen == {"accepted", "irreflexive", "beyond", "asymmetric"}


@pytest.mark.parametrize("rows, message", [
    ((0b10, 0, 0) + (0,) * 67, "column sums differ from row sums"),
    ((0b0010, 0b0100, 0b1000, 0b0001) + (0,) * 66, "bits above the diagonal are not half"),
], ids=["one-arc", "directed-4-cycle"])
def test_degrees_above_64_vertices_checks_its_o_v_conditions(rows, message):
    # 70 rows: past the full pair scan, so each O(V) condition must raise alone
    with pytest.raises(ValueError, match=message):
        Graph(rows)


def test_complement_is_an_involution_equal_to_networkx():
    for m in range(6):
        assert Graph.complete(m).complement() == Graph.edgeless(m)
        assert Graph.edgeless(m).complement() == Graph.complete(m)
    nx = pytest.importorskip("networkx")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        st.integers(0, 48), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1)
    )
    def check(v, density, seed):
        graph = nx.gnp_random_graph(v, density, seed=seed)
        g = Graph.from_edges(v, graph.edges)
        comp = g.complement()
        assert comp.complement() == g
        assert comp == Graph.from_edges(v, nx.complement(graph).edges)
        assert comp.degrees == tuple(v - 1 - d for d in g.degrees)

    check()


def test_materialize_cap_names_memory():
    with pytest.raises(CapExceeded, match="MiB"):
        materialize(DEFAULT_CAPS.materialize_max_n + 1)


def test_materialize_builds_each_graph_once_behind_its_caps():
    g = materialize(9)
    assert materialize(9) is g
    # the cap is checked in front of the cache, so a lowered one still refuses
    with pytest.raises(CapExceeded):
        materialize(9, caps=DEFAULT_CAPS.with_overrides(materialize_max_n=8))
    assert materialize(9) is g


def test_cap_overrides_take_only_non_negative_ints():
    assert DEFAULT_CAPS.with_overrides(materialize_max_n=0).materialize_max_n == 0
    for bad in ("13", 13.0, True, False, -1, None):
        with pytest.raises(ValueError, match="materialize_max_n"):
            DEFAULT_CAPS.with_overrides(materialize_max_n=bad)
    with pytest.raises(ValueError, match="unknown"):
        DEFAULT_CAPS.with_overrides(no_such_cap=1)


def test_cap_overrides_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    names = [f.name for f in dataclasses.fields(DEFAULT_CAPS)]
    values = st.one_of(
        st.integers(), st.booleans(), st.floats(), st.text(max_size=3), st.none(),
        st.lists(st.integers(), max_size=2),
    )

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.sampled_from(names), values)
    def check(name, value):
        accepted = type(value) is int and value >= 0
        try:
            caps = DEFAULT_CAPS.with_overrides(**{name: value})
        except ValueError:
            assert not accepted
        else:
            assert accepted and getattr(caps, name) == value

    check()


def test_extension_map_counts_and_examples():
    assert extension_map(2) == ((1, 2, 3), (5, 6, 7), 4)
    assert extension_map(1) == ((1,), (3,), 2)
    for n in range(1, 11):
        erstwhile, replicas, new_singleton = extension_map(n)
        assert len(erstwhile) == 2**n - 1
        assert len(replicas) == 2**n - 1
        # the three parts partition the masks of G(n+1) by the new element
        assert not any(m & new_singleton for m in erstwhile)
        assert all(m & new_singleton for m in replicas)
        assert sorted((*erstwhile, *replicas, new_singleton)) == list(range(1, 1 << (n + 1)))
    # n is checked as given, before n + 1 is computed from it
    for bad in ("3", 3.0):
        with pytest.raises(ValueError, match=f"got {bad!r}$"):
            extension_map(bad)


def test_extension_parallel_linkage_and_replica_clique():
    for n in range(1, 11):
        erstwhile, replicas, new_singleton = extension_map(n)
        for m, replica in zip(erstwhile, replicas):
            assert replica == m | new_singleton
            assert adjacent(m, replica)
        block = [*replicas, new_singleton]
        assert len(block) == 2**n
        for i, u in enumerate(block):
            for v in block[i + 1 :]:
                assert adjacent(u, v)


def test_vertex_recursion():
    for n in range(1, 20):
        assert vertex_count(n + 1) == 2 * vertex_count(n) + 1


def test_submasks_walks_each_nonempty_submask_once_descending():
    for m in range(1 << 9):
        walked = list(_submasks(m))
        assert walked == sorted((s for s in range(1, m + 1) if s & m == s), reverse=True)


def _positions_by_filter(m):
    return [i for i in range(m.bit_length()) if m >> i & 1]


def test_bit_positions_exhaustive_below_2_to_12():
    for m in range(1 << 12):
        assert list(_bit_positions(m)) == _positions_by_filter(m)


def test_bit_positions_on_both_sides_of_the_walk_switch():
    # blocks of ones and spread-out bits, starting at and across CPython's
    # 30-bit digit boundaries, with popcounts just below and above the switch
    for k in range(_STRING_WALK_MIN_BITS - 3, _STRING_WALK_MIN_BITS + 4):
        for shift in (0, 1, 29, 30, 31, 59, 8000):
            for gap in (1, 2, 29, 31, 37):
                m = sum(1 << (shift + gap * i) for i in range(k))
                assert list(_bit_positions(m)) == _positions_by_filter(m)


def test_bit_positions_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    top = 20000
    sparse = st.frozensets(st.integers(0, top - 1), max_size=2 * _STRING_WALK_MIN_BITS).map(
        lambda ps: sum(1 << p for p in ps))
    blocks = st.tuples(st.integers(0, top - 64), st.integers(0, 64)).map(
        lambda t: ((1 << t[1]) - 1) << t[0])
    dense = st.integers(0, (1 << top) - 1)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.one_of(sparse, blocks, dense))
    def check(m):
        assert list(_bit_positions(m)) == _positions_by_filter(m)

    check()
