"""Resource caps and shared configuration.

Every expensive operation is guarded by a cap so that nothing allocates or
searches beyond a declared budget. Caps are plain data and can be overridden
per call; the defaults keep all exact counts within 64 bits and all searches
within seconds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

CANONICAL_ORDER_TAG = "cardinality-asc.mask-asc.v1"


class CapExceeded(ValueError):
    """A requested computation exceeds its configured resource cap."""


class RouteMismatch(RuntimeError):
    """Two routes to one value disagree: a fault in the program, not its input."""


def check_int(what: str, value, minimum: int = 0) -> int:
    """Return value if it is an int (bool excluded) of at least minimum, else raise ValueError."""
    if type(value) is not int or value < minimum:
        raise ValueError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return value


@dataclass(frozen=True)
class Caps:
    """Per-subsystem size limits.

    count_max_n:        closed-form counting (largest count is C(2^n-1, 3))
    materialize_max_n:  explicit adjacency rows (~V^2/8 bytes)
    triangle_exact_max_n: exact triangle count on explicit rows (time budget)
    corrected_max_n:    corrected triangle recursion
    clique_oracle_max_n: exhaustive maximum-clique enumeration
    chromatic_oracle_max_n / mis_oracle_max_n / domination_oracle_max_n /
    bondage_oracle_max_n / cover_oracle_max_n: exact searches
    mela_max_index:     Mela sequence length (values stay below 2^63)
    """

    count_max_n: int = 20
    materialize_max_n: int = 14
    triangle_exact_max_n: int = 13
    corrected_max_n: int = 19
    clique_oracle_max_n: int = 6
    chromatic_oracle_max_n: int = 4
    mis_oracle_max_n: int = 5
    domination_oracle_max_n: int = 4
    bondage_oracle_max_n: int = 4
    cover_oracle_max_n: int = 5
    mela_max_index: int = 62

    def with_overrides(self, **kwargs: int) -> "Caps":
        """Return a copy with the given fields replaced by non-negative ints."""
        unknown = set(kwargs) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise ValueError(f"unknown cap name(s): {sorted(unknown)}")
        for name, value in kwargs.items():
            check_int(f"cap {name}", value)
        return dataclasses.replace(self, **kwargs)

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


DEFAULT_CAPS = Caps()
