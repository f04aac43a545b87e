"""Mela numbers: m_1 = 1, m_i = 2*m_{i-1} + 1, i.e. 2^i - 1.

The last Mela number m_n equals the vertex count of G(n). The two open
claims about the sequence (closure under +, *, - and the divisibility of
m_{ki} by m_i with a non-Mela quotient) are checked over finite index
ranges; nothing here attempts a proof.
"""

from __future__ import annotations

from .config import DEFAULT_CAPS, CapExceeded, Caps
from .verdicts import ClaimVerdict, _confirmed, _refuted

PRODUCT_CAP_INDEX = 31  # m_31^2 < 2^63, keeps pairwise products desk-checkable


def mela(k: int, *, caps: Caps = DEFAULT_CAPS) -> list[int]:
    """The first k Mela numbers; k must be a plain int (not a bool)."""
    if type(k) is not int or k < 1:
        raise ValueError(f"need at least one term (a plain int), got k={k!r}")
    if k > caps.mela_max_index:
        raise CapExceeded(f"Mela sequence capped at index {caps.mela_max_index}, got {k}")
    values = [1]
    for _ in range(k - 1):
        values.append(2 * values[-1] + 1)
    return values


def is_mela(x: int) -> bool:
    """True iff x is a plain int (not a bool) equal to 2^i - 1 for some i >= 1."""
    return type(x) is int and x >= 1 and (x + 1) & x == 0


def check_closure(max_index: int, *, caps: Caps = DEFAULT_CAPS) -> ClaimVerdict:
    """Check that sums, products, and ordered differences of Mela numbers
    never land back in the sequence.

    The product claim fails trivially when one factor is m_1 = 1 (the
    multiplicative identity), so products are verified for indices >= 2 and
    the index-1 degeneracy is reported in the notes instead of as a
    refutation.
    """
    if max_index < 1:
        raise ValueError(f"need at least one index, got {max_index}")
    if max_index > PRODUCT_CAP_INDEX:
        raise CapExceeded(
            f"closure check capped at index {PRODUCT_CAP_INDEX}, got {max_index}"
        )
    m = mela(max_index, caps=caps)
    indices = range(1, max_index + 1)
    notes = []
    degenerate = []
    for i in indices:
        for j in indices:
            mi, mj = m[i - 1], m[j - 1]
            if is_mela(mi + mj):
                return _refuted("C21", indices, {"kind": "sum", "i": i, "j": j, "value": mi + mj})
            if mi > mj and is_mela(mi - mj):
                return _refuted(
                    "C21", indices, {"kind": "difference", "i": i, "j": j, "value": mi - mj}
                )
            if is_mela(mi * mj):
                if i == 1 or j == 1:
                    degenerate.append((i, j))
                else:
                    return _refuted(
                        "C21", indices, {"kind": "product", "i": i, "j": j, "value": mi * mj}
                    )
    if degenerate:
        notes.append(
            "product check including index 1 fails trivially (m_1 = 1 is the "
            f"multiplicative identity, {len(degenerate)} such pairs); products "
            "verified for indices >= 2"
        )
    notes.append("sums and ordered differences verified for all index pairs")
    return _confirmed("C21", indices, notes)


def check_divisibility(max_index: int, *, caps: Caps = DEFAULT_CAPS) -> ClaimVerdict:
    """Check that m_i divides m_{ki} while the quotient is never a Mela number.

    Runs over divisor indices i and multipliers k in 2..max_index with k*i
    within the sequence cap; the i = 1 case is degenerate (every quotient is
    m_k itself) and is noted rather than refuted.
    """
    # i and k both run to max_index, so the pair k = 2, i = max_index bounds it
    if max_index < 2:
        raise ValueError(f"need max_index >= 2 for a non-trivial check, got {max_index}")
    if 2 * max_index > caps.mela_max_index:
        raise CapExceeded(
            f"divisibility check needs 2*max_index <= {caps.mela_max_index}; "
            f"got max_index={max_index}"
        )
    m = mela(caps.mela_max_index, caps=caps)
    tested = []
    skipped = 0
    indices = range(2, max_index + 1)
    for i in indices:
        for k in indices:
            if k * i > caps.mela_max_index:
                skipped += 1
                continue
            tested.append((i, k))
            mi, mki = m[i - 1], m[k * i - 1]
            if mki % mi != 0:
                counterexample = {"i": i, "k": k, "m_i": mi, "m_ki": mki, "kind": "not divisible"}
            elif is_mela(mki // mi):
                counterexample = {"i": i, "k": k, "quotient": mki // mi,
                                  "kind": "quotient is a Mela number"}
            else:
                continue
            return _refuted("C22", indices, counterexample)
    notes = [
        f"verified {len(tested)} (i, k) pairs with i, k >= 2",
        "i = 1 is degenerate (m_k / m_1 = m_k is always a Mela number) and is excluded",
    ]
    if skipped:
        notes.append(f"{skipped} pairs with k*i > {caps.mela_max_index} skipped (cap)")
    return _confirmed("C22", indices, notes)
