"""Mela sequence, membership, and the two finite-range checks."""

import importlib

import pytest

from setgraphs import (
    CapExceeded,
    check_closure,
    check_divisibility,
    is_mela,
    mela,
    vertex_count,
)
from setgraphs.verdicts import CONFIRMED, REFUTED

MELA = importlib.import_module("setgraphs.mela")


def test_sequence_prefix():
    assert mela(4) == [1, 3, 7, 15]
    assert mela(1) == [1]


def test_closed_form():
    values = mela(62)
    for i, v in enumerate(values, start=1):
        assert v == 2**i - 1


def test_sequence_matches_vertex_count():
    values = mela(20)
    for n in range(1, 21):
        assert values[n - 1] == vertex_count(n)


def test_sequence_caps():
    with pytest.raises(CapExceeded):
        mela(63)
    with pytest.raises(ValueError):
        mela(0)


def test_is_mela():
    assert is_mela(7)
    assert not is_mela(8)
    assert not is_mela(0)
    assert is_mela(1)
    values = set(mela(62))
    for x in range(1, 2**16):
        assert is_mela(x) == (x in values)


def test_bools_and_floats_are_not_indices_or_members():
    # bool is a subclass of int, but True is neither a term count nor m_1
    assert not is_mela(True)
    assert not is_mela(False)
    assert not is_mela(1.0)
    with pytest.raises(ValueError):
        mela(True)
    with pytest.raises(ValueError):
        mela(2.5)


def test_closure_examples():
    assert not is_mela(3 + 7)
    assert not is_mela(3 * 7)
    assert not is_mela(7 - 3)


def test_closure_verdict():
    verdict = check_closure(20)
    assert verdict.status == CONFIRMED
    assert verdict.claim_id == "C21"
    assert any("index 1" in note for note in verdict.notes)
    with pytest.raises(CapExceeded):
        check_closure(32)
    with pytest.raises(ValueError):
        check_closure(0)


def test_divisibility_examples():
    values = mela(62)
    assert values[3] // values[1] == 5 and not is_mela(5)  # m_4 / m_2
    assert values[5] // values[2] == 9 and not is_mela(9)  # m_6 / m_3


def test_divisibility_verdict():
    verdict = check_divisibility(20)
    assert verdict.status == CONFIRMED
    assert verdict.claim_id == "C22"
    assert any("degenerate" in note for note in verdict.notes)
    with pytest.raises(ValueError):
        check_divisibility(1)
    with pytest.raises(CapExceeded):
        check_divisibility(32)


def test_divisibility_is_exhaustive_over_reachable_pairs():
    verdict = check_divisibility(31)
    assert verdict.status == CONFIRMED
    values = mela(62)
    pairs = sum(
        1
        for i in range(2, 32)
        for k in range(2, 32)
        if i * k <= 62 and values[k * i - 1] % values[i - 1] == 0
    )
    assert f"verified {pairs} (i, k) pairs" in verdict.notes[0]


# membership test read as "x == target": the first (i, j) pair whose sum,
# difference or non-degenerate product equals target refutes the closure
# check (12 = m_4 - m_2 is no sum or product; 9 = m_2 * m_2 is neither a sum
# nor a difference)
@pytest.mark.parametrize("target, counterexample", [
    (2, {"kind": "sum", "i": 1, "j": 1, "value": 2}),
    (12, {"kind": "difference", "i": 4, "j": 2, "value": 12}),
    (9, {"kind": "product", "i": 2, "j": 2, "value": 9}),
])
def test_closure_refutes_on_each_kind(monkeypatch, target, counterexample):
    monkeypatch.setattr(MELA, "is_mela", lambda x: x == target)
    verdict = check_closure(5)
    assert verdict.status == REFUTED
    assert verdict.n_tested == (1, 2, 3, 4, 5)
    assert verdict.counterexample == counterexample


def test_divisibility_refutes_on_each_kind(monkeypatch):
    monkeypatch.setattr(MELA, "is_mela", lambda x: x == 5)  # m_4 / m_2
    verdict = check_divisibility(3)
    assert verdict.status == REFUTED
    assert verdict.n_tested == (2, 3)
    assert verdict.counterexample == {
        "i": 2, "k": 2, "quotient": 5, "kind": "quotient is a Mela number"}
    monkeypatch.undo()
    sequence = mela

    def m_4_plus_one(k, **kwargs):
        values = sequence(k, **kwargs)
        values[3] += 1
        return values

    monkeypatch.setattr(MELA, "mela", m_4_plus_one)
    verdict = check_divisibility(3)
    assert verdict.status == REFUTED
    assert verdict.n_tested == (2, 3)
    assert verdict.counterexample == {
        "i": 2, "k": 2, "m_i": 3, "m_ki": 16, "kind": "not divisible"}
