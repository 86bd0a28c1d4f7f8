"""Closed-form spectra of Hermitian squares of Hankel operators with monomial symbols.

For a symbol z^n zbar^m on the polydisc, the Hermitian square acts diagonally
on monomials and its full spectrum is {0} together with the two-case rational
family lambda(n, m, alpha, B) over multi-indices alpha and non-empty coordinate
subsets B.  Values with B a proper subset are limit points of the eigenvalue
sequence; values with B the full coordinate set are genuine eigenvalues with
eigenvector z^alpha.  The essential spectrum is read off the spectrum's
provenance, not enumerated again.

Both cases of lambda are products of per-coordinate integer factors, so
_subset_table builds integer numerator and denominator tables over a grid of
alpha values, one value range per coordinate of B, as outer products.  An
enumeration takes 0..cap on every axis for each subset B, reduces all tables
with one gcd and groups equal fractions; lambda_value takes a one-point grid.
The tables are int64 while every product fits, Python ints beyond; float keys
only order values that are far apart, and near-ties are ordered exactly.  So
all arithmetic here stays exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from itertools import product
from typing import NamedTuple

import numpy as np

from .multiindex import (
    MultiIndex,
    as_multiindex,
    box_exceeds,
    common_dim,
    full_set,
    nonempty_subsets,
    normalize_subset,
)

__all__ = [
    "MonomialSymbol",
    "MultiplicityClass",
    "SymbolClass",
    "Provenance",
    "EigenRecord",
    "SpectrumSet",
    "lambda_value",
    "multiplicity_class",
    "enumerate_spectrum",
    "essential_part",
    "enumerate_essential_spectrum",
]

# Closed-form evaluations one enumeration may make: (cap+2)^dim - 1 points.
MAX_ENUM_POINTS = 100_000
# Subset enumeration is exponential in dim; interesting cases live in dim <= 3.
MAX_ENUM_DIM = 8
# Tables stay int64 while every product they form is below this; else Python ints.
_INT64_LIMIT = 2**62
# Relative gap under which two float keys may misorder distinct fractions.
_NEAR = 1e-12


class MultiplicityClass(Enum):
    FINITE = "finite"
    INFINITE = "infinite"


class SymbolClass(Enum):
    """Multiplicity classification of a whole monomial symbol."""

    ALL_FINITE = "all-finite"
    ALL_INFINITE = "all-infinite"
    ZERO_OPERATOR = "zero-operator"


@dataclass(frozen=True)
class MonomialSymbol:
    """psi(z) = z^holo * zbar^antiholo."""

    holo: MultiIndex
    antiholo: MultiIndex

    def __post_init__(self):
        object.__setattr__(self, "holo", as_multiindex(self.holo, name="holo exponent"))
        object.__setattr__(self, "antiholo", as_multiindex(self.antiholo, name="antiholo exponent"))
        common_dim(self.holo, self.antiholo)

    @property
    def dim(self) -> int:
        return len(self.holo)

    @property
    def is_holomorphic(self) -> bool:
        return all(m == 0 for m in self.antiholo)

    def __str__(self) -> str:
        parts = [f"z{k + 1}^{n}" for k, n in enumerate(self.holo) if n]
        parts += [f"zb{k + 1}^{m}" for k, m in enumerate(self.antiholo) if m]
        return "*".join(parts) if parts else "1"


class Provenance(NamedTuple):
    """One (alpha, B) witness producing a spectrum value.

    Entries of alpha outside B are canonicalized to 0; the value does not
    depend on them.
    """

    alpha: MultiIndex
    subset: frozenset[int]


@dataclass(frozen=True)
class EigenRecord:
    """One spectrum point with provenance and classification flags."""

    value: Fraction
    provenance: tuple[Provenance, ...]
    is_eigenvalue: bool
    is_limit_point: bool
    multiplicity: MultiplicityClass | None


@dataclass(frozen=True)
class SpectrumSet:
    """Finite enumeration of a (necessarily truncated) spectrum.

    records are deduplicated by exact value, sorted ascending, with merged
    provenance lists.  `truncated` is False only for the zero operator, whose
    spectrum {0} is complete.
    """

    records: tuple[EigenRecord, ...]
    alpha_cap: int
    contains_zero: bool
    truncated: bool
    kind: str  # "spectrum" | "essential"
    note: str | None = None

    def values(self) -> list[Fraction]:
        return [r.value for r in self.records]

    def value_set(self) -> frozenset[Fraction]:
        return frozenset(r.value for r in self.records)


def lambda_value(n, m, alpha, subset) -> Fraction:
    """The two-case closed-form spectrum value for the monomial symbol z^n zbar^m.

    First case (alpha_k < m_k - n_k for some k in B):
        prod_{k in B} (alpha_k+1)/(alpha_k+n_k+m_k+1)
    Second case (alpha_k >= m_k - n_k for all k in B): the same product minus
        prod_{k in B} (alpha_k+1)(alpha_k+n_k-m_k+1)/(alpha_k+n_k+1)^2.

    Returns a reduced Fraction in [0, 1], read from the one-point table of
    _subset_table, the tables enumerate_spectrum is built from.
    """
    n = as_multiindex(n, name="n")
    m = as_multiindex(m, name="m")
    alpha = as_multiindex(alpha, name="alpha")
    dim = common_dim(n, m, alpha)
    coords = sorted(normalize_subset(subset, dim))
    axes = [range(alpha[k - 1], alpha[k - 1] + 1) for k in coords]
    (num,), (den,) = _subset_table(n, m, coords, axes, _table_dtype(n, m, max(alpha)))
    return Fraction(int(num), int(den))


def multiplicity_class(sym: MonomialSymbol) -> SymbolClass:
    """Classify eigenvalue multiplicities of the Hermitian square of z^n zbar^m."""
    if sym.is_holomorphic:
        return SymbolClass.ZERO_OPERATOR
    if any(nk + mk == 0 for nk, mk in zip(sym.holo, sym.antiholo)):
        return SymbolClass.ALL_INFINITE
    return SymbolClass.ALL_FINITE


def _table_dtype(n, m, top: int):
    """int64 when every product a table of z^n zbar^m forms with alpha entries up to top fits, else object."""
    # each table entry is a product of at most 3*dim factors bounded by this base
    return object if box_exceeds(top + max(n) + max(m) + 1, 3 * len(n), _INT64_LIMIT - 1) else np.int64


def _subset_table(n, m, coords, axes, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Unreduced numerators and denominators of lambda(n, m, alpha, B) over a grid.

    coords is B sorted and axes holds one range of alpha values per coordinate
    of B; alpha runs over the grid in itertools.product order.  Each case is a
    product of per-coordinate factors, built as outer products of per-axis
    tables; see lambda_value for the formula.
    """
    tables = None
    for k, values in zip(coords, axes):
        nk, mk = n[k - 1], m[k - 1]
        steps = np.arange(len(values))
        a = steps.astype(dtype) + values.start
        factors = (
            a + 1,
            a + (nk + mk + 1),
            (a + 1) * (a + (nk - mk + 1)),
            (a + (nk + 1)) ** 2,
            steps < min(max(mk - nk - values.start, 0), len(values)),  # a < m_k - n_k, bound kept in int64 range
        )
        if tables is None:
            tables = factors
        else:
            ops = (np.multiply,) * 4 + (np.logical_or,)
            tables = tuple(op.outer(t, f).ravel() for op, t, f in zip(ops, tables, factors))
    num1, den1, num2, den2, first_case = tables
    num = np.where(first_case, num1, num1 * den2 - num2 * den1)
    den = np.where(first_case, den1, den1 * den2)
    if not ((num >= 0) & (num <= den)).all():
        raise AssertionError("lambda value outside [0, 1]")  # pragma: no cover
    return num, den


def _exact_order(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Stable ascending order of the reduced fractions num/den.

    Float keys order the bulk; a run of keys within _NEAR of each other that
    holds distinct fractions is ordered again with exact Fraction keys.
    """
    key = (num / den).astype(np.float64)
    order = np.argsort(key, kind="stable")
    k, sn, sd = key[order], num[order], den[order]
    near = np.diff(k) <= _NEAR * k[1:]
    mixed = np.flatnonzero(near & ((sn[1:] != sn[:-1]) | (sd[1:] != sd[:-1])))
    if not mixed.size:
        return order
    runs = np.flatnonzero(np.concatenate(([True], ~near)))  # starts of chained near-ties
    bounds = np.append(runs, len(order))
    for r in np.unique(np.searchsorted(runs, mixed, side="right") - 1):
        s, e = bounds[r], bounds[r + 1]
        order[s:e] = sorted(order[s:e].tolist(), key=lambda i: Fraction(int(num[i]), int(den[i])))
    return order


def _records(sym: MonomialSymbol, alpha_cap: int, symbol_class: SymbolClass) -> tuple[EigenRecord, ...]:
    """Sorted records with merged provenance, from one table per non-empty subset B."""
    n, m, dim = sym.holo, sym.antiholo, sym.dim
    dtype = _table_dtype(n, m, alpha_cap)
    nums, dens, provs = [], [], []
    for members in nonempty_subsets(dim):
        num, den = _subset_table(n, m, sorted(members), [range(alpha_cap + 1)] * len(members), dtype)
        nums.append(num)
        dens.append(den)
        axes = [range(alpha_cap + 1) if k in members else (0,) for k in range(1, dim + 1)]
        provs.extend(Provenance(alpha, members) for alpha in product(*axes))
    num, den = np.concatenate(nums), np.concatenate(dens)
    g = np.gcd(num, den)
    num, den = num // g, den // g

    # (size, lexicographic) subsets with alpha in product order: provenance is
    # already in output order, and the stable sort keeps it within a value
    order = _exact_order(num, den)
    num, den = num[order], den[order]
    starts = np.flatnonzero(np.concatenate(([True], (num[1:] != num[:-1]) | (den[1:] != den[:-1]))))
    # the full subset comes last in nonempty_subsets, with (cap+1)^dim points
    is_full = order >= len(order) - (alpha_cap + 1) ** dim
    fulls = np.add.reduceat(is_full.astype(np.int64), starts).tolist()
    starts = starts.tolist()
    ends = starts[1:] + [len(order)]
    num, den = num.tolist(), den.tolist()
    provs = [provs[i] for i in order.tolist()]

    eigen_mult = MultiplicityClass.FINITE if symbol_class is SymbolClass.ALL_FINITE else MultiplicityClass.INFINITE
    records = [] if num[0] == 0 else [EigenRecord(Fraction(0), (), False, True, None)]
    for s, e, f in zip(starts, ends, fulls):
        v = Fraction(num[s], den[s])
        records.append(EigenRecord(v, tuple(provs[s:e]), f > 0, not v or f < e - s, eigen_mult if f else None))
    return tuple(records)


def _check_enum_args(sym: MonomialSymbol, alpha_cap: int) -> None:
    if alpha_cap < 0:
        raise ValueError("alpha_cap must be >= 0")
    if sym.dim > MAX_ENUM_DIM:
        raise ValueError(f"dim {sym.dim} exceeds the subset-enumeration bound {MAX_ENUM_DIM}")
    # every non-empty B with all (cap+1)^|B| multi-indices: (cap+2)^dim - 1 points
    if not sym.is_holomorphic and box_exceeds(alpha_cap + 2, sym.dim, MAX_ENUM_POINTS + 1):
        raise ValueError(
            f"alpha_cap {alpha_cap} at dim {sym.dim} needs (cap+2)^dim - 1 closed-form "
            f"evaluations, over the budget of {MAX_ENUM_POINTS}"
        )


def enumerate_spectrum(sym: MonomialSymbol, alpha_cap: int) -> SpectrumSet:
    """{0} union {lambda(n, m, alpha, B)} over alpha <= alpha_cap and non-empty B.

    The true spectrum is the closure of the diagonal eigenvalue family; the
    returned set is the exact finite sub-enumeration up to the cap, flagged
    truncated (except for the zero operator).
    """
    _check_enum_args(sym, alpha_cap)
    cls = multiplicity_class(sym)
    if cls is SymbolClass.ZERO_OPERATOR:
        # its spectrum {0} is complete: the eigenvalue 0, with no provenance
        zero = EigenRecord(Fraction(0), (), True, True, MultiplicityClass.INFINITE)
        return SpectrumSet((zero,), alpha_cap, True, False, "spectrum")
    return SpectrumSet(_records(sym, alpha_cap, cls), alpha_cap, True, True, "spectrum")


def essential_part(sym: MonomialSymbol, spectrum: SpectrumSet) -> SpectrumSet:
    """The essential spectrum of sym, read off its enumerated spectrum.

    If some coordinate has n_k + m_k = 0 (and m != 0), every eigenvalue has
    infinite multiplicity and the essential spectrum equals the full spectrum.
    Otherwise it is {0} and the records reached with a proper subset B != B_n,
    their provenance restricted to those subsets; is_eigenvalue still says
    whether the full B reaches the value at the cap (truncation-honest, not
    certified beyond it).  The zero operator yields {0} with a warning note.
    """
    cls = multiplicity_class(sym)
    if cls is SymbolClass.ZERO_OPERATOR:
        return replace(
            spectrum,
            kind="essential",
            note="zero operator: holomorphic symbol, essential spectrum is {0}",
        )
    if cls is SymbolClass.ALL_INFINITE:
        return replace(spectrum, kind="essential")
    full = full_set(sym.dim)
    records = []
    for r in spectrum.records:
        proper = tuple(p for p in r.provenance if p.subset != full)
        if proper or r.value == 0:
            records.append(replace(r, provenance=proper))
    return replace(spectrum, records=tuple(records), kind="essential")


def enumerate_essential_spectrum(sym: MonomialSymbol, alpha_cap: int) -> SpectrumSet:
    """Essential spectrum enumeration for a monomial symbol (see essential_part)."""
    return essential_part(sym, enumerate_spectrum(sym, alpha_cap))
