"""Multi-index arithmetic and coordinate subsets.

Multi-indices are plain tuples of non-negative ints; windings are tuples of
signed ints.  Coordinate subsets are frozensets of 1-based indices drawn from
{1, ..., dim}.
"""

from __future__ import annotations

from itertools import combinations
from math import prod

MultiIndex = tuple[int, ...]
Winding = tuple[int, ...]


class DimensionMismatch(ValueError):
    pass


def as_multiindex(entries, *, dim: int | None = None, name: str = "multi-index") -> MultiIndex:
    """Validate and normalize a multi-index (non-negative integer entries)."""
    values = tuple(entries)  # one pass: a generator would be spent before the integer check
    t = tuple(int(e) for e in values)
    if any(int(e) != e for e in values):
        raise ValueError(f"{name} entries must be integers: {entries!r}")
    if len(t) < 1:
        raise ValueError(f"{name} must have length >= 1")
    if any(e < 0 for e in t):
        raise ValueError(f"{name} entries must be non-negative: {t}")
    if dim is not None and len(t) != dim:
        raise DimensionMismatch(f"{name} has length {len(t)}, expected {dim}")
    return t


def as_winding(entries, *, dim: int | None = None) -> Winding:
    """Validate a signed integer exponent vector."""
    values = tuple(entries)
    t = tuple(int(e) for e in values)
    if any(int(e) != e for e in values):
        raise ValueError(f"winding entries must be integers: {entries!r}")
    if len(t) < 1:
        raise ValueError("winding must have length >= 1")
    if dim is not None and len(t) != dim:
        raise DimensionMismatch(f"winding has length {len(t)}, expected {dim}")
    return t


def common_dim(*vectors) -> int:
    dims = {len(v) for v in vectors}
    if len(dims) != 1:
        raise DimensionMismatch(f"mixed dimensions: {sorted(dims)}")
    return dims.pop()


def is_nonnegative(a) -> bool:
    return all(x >= 0 for x in a)


def weight(alpha: MultiIndex) -> int:
    """prod(alpha_k + 1): the reciprocal monomial norm coefficient."""
    return prod(a + 1 for a in alpha)


def box_exceeds(side: int, dim: int, limit: int) -> bool:
    """Whether side**dim > limit >= 1; side and dim are bounded before the power is taken."""
    return side > 1 and (side > limit or dim >= limit.bit_length() or side**dim > limit)


def full_set(dim: int) -> frozenset[int]:
    return frozenset(range(1, dim + 1))


def normalize_subset(subset, dim: int) -> frozenset[int]:
    """Validate a non-empty coordinate subset of {1, ..., dim}."""
    members = frozenset(int(k) for k in subset)
    if not members:
        raise ValueError("coordinate subset must be non-empty")
    if not members <= full_set(dim):
        raise ValueError(f"subset {sorted(members)} not within 1..{dim}")
    return members


def nonempty_subsets(dim: int) -> list[frozenset[int]]:
    """All non-empty subsets of {1, ..., dim} in (size, lexicographic) order."""
    out = []
    for size in range(1, dim + 1):
        for combo in combinations(range(1, dim + 1), size):
            out.append(frozenset(combo))
    return out
