"""Masks, labels, adjacency, materialization, and the extension map."""

import dataclasses
from math import comb

import pytest

from setgraphs import (
    CapExceeded,
    VertexLabel,
    adjacent,
    canonical_index,
    canonical_masks,
    extension_map,
    label_of_mask,
    mask_of_elements,
    mask_of_label,
    materialize,
    subset_str,
    vertex_count,
)
from setgraphs.config import DEFAULT_CAPS
from setgraphs.core import _submasks


def test_mask_helpers():
    assert mask_of_elements([1, 2]) == 0b011
    assert mask_of_elements([3]) == 0b100
    assert subset_str(0b101) == "{a1,a3}"
    assert subset_str(0b1) == "{a1}"


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


def test_materialize_n3_matches_pair_scan():
    g = materialize(3)
    assert sum(row.bit_count() for row in g.rows) // 2 == 15
    masks = g.masks
    for u in range(g.num_vertices):
        for v in range(g.num_vertices):
            expected = adjacent(masks[u], masks[v])
            assert bool(g.rows[u] >> v & 1) == expected


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


def test_materialize_cap_names_memory():
    with pytest.raises(CapExceeded, match="MiB"):
        materialize(DEFAULT_CAPS.materialize_max_n + 1)


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
    em = extension_map(2)
    assert em.erstwhile == (1, 2, 3)
    assert em.replicas == (5, 6, 7)
    assert em.new_singleton == 4
    em1 = extension_map(1)
    assert em1.erstwhile == (1,)
    assert em1.replicas == (3,)
    assert em1.new_singleton == 2
    for n in range(1, 11):
        em = extension_map(n)
        assert len(em.erstwhile) == 2**n - 1
        assert len(em.replicas) == 2**n - 1
        assert em.classify(em.new_singleton) == "new"
        assert em.classify(em.erstwhile[0]) == "erstwhile"
        assert em.classify(em.replicas[0]) == "replica"


def test_extension_parallel_linkage_and_replica_clique():
    for n in range(1, 11):
        em = extension_map(n)
        for m, replica in zip(em.erstwhile, em.replicas):
            assert replica == m | em.new_singleton
            assert adjacent(m, replica)
        block = list(em.replicas) + [em.new_singleton]
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
