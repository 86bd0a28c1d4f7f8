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
Past dim MAX_COORDINATE or MAX_ENUM_POINTS evaluations it is refused at once.
The tables are int64 while every product fits, Python ints beyond; float keys
only order values that are far apart, and near-ties are ordered exactly.  So
all arithmetic here stays exact rational.

A SpectrumSet keeps the enumeration as those integer tables: the reduced value
of each record, its flags and witness range, and one alpha row and subset id
per witness.  essential_part is a mask over them.  SpectrumSet.records builds
the EigenRecord, Provenance and Fraction objects on first read; the exact
command renders from the tables and builds none of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .multiindex import (
    MAX_COORDINATE,
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
# Tables stay int64 while every product they form is below this; else Python ints.
_INT64_LIMIT = 2**62
# Relative gap under which two float keys may misorder distinct fractions.
_NEAR = 1e-12


class MultiplicityClass(Enum):
    FINITE = "finite"
    INFINITE = "infinite"


# SpectrumSet.multiplicity holds codes: a record's class is MULTIPLICITIES[code].
MULTIPLICITIES = (None, MultiplicityClass.FINITE, MultiplicityClass.INFINITE)


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


@dataclass(frozen=True, eq=False)
class SpectrumSet:
    """Finite enumeration of a (necessarily truncated) spectrum, stored as its tables.

    One record per distinct exact value, in ascending order; record i is
    num[i]/den[i] (reduced; int64 or object arrays of Python ints) with the
    flags is_eigenvalue[i], is_limit_point[i] and MULTIPLICITIES[multiplicity[i]]
    (MultiplicityClass or None), and it holds the witnesses
    starts[i]:starts[i + 1] (starts has one entry more than there are records).
    Witness w is the pair (alpha[w], nonempty_subsets(dim)[subset[w]]), alpha
    an int64 row of length dim.  records builds the EigenRecord view on first
    read; compare spectra by their records (a SpectrumSet equals only itself).
    `truncated` is False only for the zero operator, whose spectrum {0} is
    complete.
    """

    num: np.ndarray
    den: np.ndarray
    is_eigenvalue: np.ndarray
    is_limit_point: np.ndarray
    multiplicity: np.ndarray
    starts: np.ndarray
    alpha: np.ndarray
    subset: np.ndarray
    alpha_cap: int
    contains_zero: bool
    truncated: bool
    kind: str  # "spectrum" | "essential"
    note: str | None = None

    @cached_property
    def records(self) -> tuple[EigenRecord, ...]:
        """The records with merged provenance, as EigenRecord and Provenance objects."""
        subsets = nonempty_subsets(self.alpha.shape[1])
        witnesses = tuple(map(Provenance, zip(*self.alpha.T.tolist()), map(subsets.__getitem__, self.subset.tolist())))
        bounds = self.starts.tolist()
        provenance = [witnesses[s:e] for s, e in zip(bounds, bounds[1:])]
        multiplicity = map(MULTIPLICITIES.__getitem__, self.multiplicity.tolist())
        flags = (self.is_eigenvalue.tolist(), self.is_limit_point.tolist(), multiplicity)
        return tuple(map(EigenRecord, self.values(), provenance, *flags))

    def record_slice(self, lo: int, hi: int) -> SpectrumSet:
        """Records lo:hi with their witnesses, as a SpectrumSet whose starts begin at 0."""
        first, last = self.starts[lo], self.starts[hi]
        return replace(
            self,
            num=self.num[lo:hi],
            den=self.den[lo:hi],
            is_eigenvalue=self.is_eigenvalue[lo:hi],
            is_limit_point=self.is_limit_point[lo:hi],
            multiplicity=self.multiplicity[lo:hi],
            starts=self.starts[lo : hi + 1] - first,
            alpha=self.alpha[first:last],
            subset=self.subset[first:last],
        )

    def values(self) -> list[Fraction]:
        return list(map(Fraction, self.num.tolist(), self.den.tolist()))

    def full_witness_values(self) -> dict[tuple[int, ...], Fraction]:
        """alpha -> the value of its record, for every witness whose subset is the full set."""
        dim = self.alpha.shape[1]
        full = self.subset == nonempty_subsets(dim).index(full_set(dim))
        record = np.repeat(np.arange(len(self.num)), np.diff(self.starts))[full]
        values = self.values()
        return dict(zip(map(tuple, self.alpha[full].tolist()), map(values.__getitem__, record.tolist())))

    def value_set(self) -> frozenset[Fraction]:
        return frozenset(self.values())


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
    key = np.asarray(num / den, dtype=np.float64)
    order = np.argsort(key, kind="stable")
    k, sn, sd = key[order], num[order], den[order]
    near = k[1:] - k[:-1] <= _NEAR * k[1:]
    mixed = (near & ((sn[1:] != sn[:-1]) | (sd[1:] != sd[:-1]))).nonzero()[0]
    if not mixed.size:
        return order
    runs = np.flatnonzero(np.concatenate(([True], ~near)))  # starts of chained near-ties
    bounds = np.append(runs, len(order))
    # the distinct runs, ascending; an option-less np.unique would import numpy.ma to check for a mask
    for r in sorted(set((np.searchsorted(runs, mixed, side="right") - 1).tolist())):
        s, e = bounds[r], bounds[r + 1]
        order[s:e] = sorted(order[s:e].tolist(), key=lambda i: Fraction(int(num[i]), int(den[i])))
    return order


def _spectrum_tables(sym: MonomialSymbol, alpha_cap: int, symbol_class: SymbolClass) -> dict:
    """The SpectrumSet tables of the enumeration, from one table per non-empty subset B."""
    n, m, dim = sym.holo, sym.antiholo, sym.dim
    dtype = _table_dtype(n, m, alpha_cap)
    side = alpha_cap + 1
    subsets = nonempty_subsets(dim)
    tables = [_subset_table(n, m, sorted(b), [range(side)] * len(b), dtype) for b in subsets]
    num, den = np.concatenate([t[0] for t in tables]), np.concatenate([t[1] for t in tables])
    g = np.gcd(num, den)
    num, den = num // g, den // g

    # (size, lexicographic) subsets with alpha in product order: the witnesses
    # are already in output order, and the stable sort keeps it within a value
    order = _exact_order(num, den)
    num, den = num[order], den[order]
    # witness w is point place[w] of its subset's table, in product order over
    # sorted B: alpha_k is the base-side digit of place of weight side^(members
    # of B above k) for k in B, and 0 outside B, where the weight side^dim > place
    sizes, weights = [], []
    for b in subsets:
        sizes.append(side ** len(b))
        weights.append([side**dim] * dim)
        for e, k in enumerate(sorted(b, reverse=True)):
            weights[-1][k - 1] = side**e
    subset = np.arange(len(subsets)).repeat(sizes)[order]
    place = order - np.array([0, *accumulate(sizes)])[subset]
    alpha = place[:, None] // np.array(weights)[subset] % side

    starts = ((num[1:] != num[:-1]) | (den[1:] != den[:-1])).nonzero()[0] + 1
    # 0 lies in every spectrum: if no witness reaches it, a record with the
    # empty witness range 0:0 comes first
    no_zero = num[0] != 0
    bounds = np.concatenate(([0, 0] if no_zero else [0], starts, [len(order)]))
    # the full subset comes last in nonempty_subsets
    fulls = np.add.reduceat(subset == len(subsets) - 1, bounds[:-1])
    num, den = num[bounds[:-1]], den[bounds[:-1]]
    if no_zero:  # reduceat and the gather read witness 0 for the range 0:0
        num[0], den[0], fulls[0] = 0, 1, 0
    is_eigenvalue = fulls > 0
    eigen_mult = MultiplicityClass.FINITE if symbol_class is SymbolClass.ALL_FINITE else MultiplicityClass.INFINITE
    return dict(
        num=num,
        den=den,
        is_eigenvalue=is_eigenvalue,
        is_limit_point=(num == 0) | (fulls < bounds[1:] - bounds[:-1]),
        multiplicity=is_eigenvalue * np.int8(MULTIPLICITIES.index(eigen_mult)),
        starts=bounds,
        alpha=alpha,
        subset=subset,
    )


def _check_enum_args(sym: MonomialSymbol, alpha_cap: int) -> None:
    if alpha_cap < 0:
        raise ValueError("alpha_cap must be >= 0")
    if sym.dim > MAX_COORDINATE:  # subset enumeration is exponential in dim
        raise ValueError(f"dim {sym.dim} exceeds the subset-enumeration bound {MAX_COORDINATE}")
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
        # its spectrum {0} is complete: the eigenvalue 0, with no witness
        tables = dict(
            num=np.array([0]),
            den=np.array([1]),
            is_eigenvalue=np.array([True]),
            is_limit_point=np.array([True]),
            multiplicity=np.array([MULTIPLICITIES.index(MultiplicityClass.INFINITE)], dtype=np.int8),
            starts=np.array([0, 0]),
            alpha=np.zeros((0, sym.dim), dtype=np.int64),
            subset=np.zeros(0, dtype=np.int64),
        )
    else:
        tables = _spectrum_tables(sym, alpha_cap, cls)
    truncated = cls is not SymbolClass.ZERO_OPERATOR
    return SpectrumSet(**tables, alpha_cap=alpha_cap, contains_zero=True, truncated=truncated, kind="spectrum")


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
    # a mask over the tables: drop the full-B witnesses, keep a record that keeps a witness or is 0
    proper = spectrum.subset != nonempty_subsets(sym.dim).index(full_set(sym.dim))
    kept = np.diff(np.concatenate(([0], np.cumsum(proper)))[spectrum.starts])
    keep = (kept > 0) | (spectrum.num == 0)
    return replace(
        spectrum,
        num=spectrum.num[keep],
        den=spectrum.den[keep],
        is_eigenvalue=spectrum.is_eigenvalue[keep],
        is_limit_point=spectrum.is_limit_point[keep],
        multiplicity=spectrum.multiplicity[keep],
        starts=np.concatenate(([0], np.cumsum(kept[keep]))),
        alpha=spectrum.alpha[proper],
        subset=spectrum.subset[proper],
        kind="essential",
    )


def enumerate_essential_spectrum(sym: MonomialSymbol, alpha_cap: int) -> SpectrumSet:
    """Essential spectrum enumeration for a monomial symbol (see essential_part)."""
    return essential_part(sym, enumerate_spectrum(sym, alpha_cap))
