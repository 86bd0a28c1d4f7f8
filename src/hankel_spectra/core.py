"""Closed-form spectra of Hermitian squares of Hankel operators with monomial symbols.

For a symbol z^n zbar^m on the polydisc, the Hermitian square acts diagonally
on monomials and its full spectrum is {0} together with the two-case rational
family lambda(n, m, alpha, B) over multi-indices alpha and non-empty coordinate
subsets B.  Values with B a proper subset are limit points of the eigenvalue
sequence; values with B the full coordinate set are genuine eigenvalues with
eigenvector z^alpha.  The essential spectrum is read off the spectrum's
provenance, not enumerated again.  All arithmetic here is exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .multiindex import (
    DEFAULT_MAX_DIM,
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

    def floats(self) -> list[float]:
        return [float(v) for v in self.values()]

    def record_for(self, value: Fraction) -> EigenRecord | None:
        for r in self.records:
            if r.value == value:
                return r
        return None

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "alpha_cap": self.alpha_cap,
            "contains_zero": self.contains_zero,
            "truncated": self.truncated,
            "note": self.note,
            "records": [
                {
                    "value": _frac_str(r.value),
                    "value_float": float(r.value),
                    "is_eigenvalue": r.is_eigenvalue,
                    "is_limit_point": r.is_limit_point,
                    "multiplicity": r.multiplicity.value if r.multiplicity else None,
                    "provenance": [
                        {"alpha": list(p.alpha), "B": sorted(p.subset)}
                        for p in r.provenance
                    ],
                }
                for r in self.records
            ],
        }


def _frac_str(v: Fraction) -> str:
    # always "num/den", integers too: the "0/1" JSON values are pinned by tests and split on "/" by readers
    return f"{v.numerator}/{v.denominator}"


def lambda_value(n, m, alpha, subset) -> Fraction:
    """The two-case closed-form spectrum value for the monomial symbol z^n zbar^m.

    First case (alpha_k < m_k - n_k for some k in B):
        prod_{k in B} (alpha_k+1)/(alpha_k+n_k+m_k+1)
    Second case (alpha_k >= m_k - n_k for all k in B): the same product minus
        prod_{k in B} (alpha_k+1)(alpha_k+n_k-m_k+1)/(alpha_k+n_k+1)^2.

    Returns a reduced Fraction in [0, 1].
    """
    n = as_multiindex(n, name="n")
    m = as_multiindex(m, name="m")
    alpha = as_multiindex(alpha, name="alpha")
    dim = common_dim(n, m, alpha)
    members = sorted(normalize_subset(subset, dim))
    return _lambda_unchecked(n, m, alpha, members)


def _lambda_unchecked(n, m, alpha, members) -> Fraction:
    # hot path for the enumerations; callers have validated the inputs
    first = Fraction(1)
    first_case = False
    for k in members:
        a, nk, mk = alpha[k - 1], n[k - 1], m[k - 1]
        first *= Fraction(a + 1, a + nk + mk + 1)
        if a < mk - nk:
            first_case = True
    if first_case:
        return first

    second = Fraction(1)
    for k in members:
        a, nk, mk = alpha[k - 1], n[k - 1], m[k - 1]
        second *= Fraction((a + 1) * (a + nk - mk + 1), (a + nk + 1) ** 2)
    value = first - second
    if not (0 <= value <= 1):
        raise AssertionError(f"lambda value {value} outside [0, 1]")  # pragma: no cover
    return value


def multiplicity_class(sym: MonomialSymbol) -> SymbolClass:
    """Classify eigenvalue multiplicities of the Hermitian square of z^n zbar^m."""
    if sym.is_holomorphic:
        return SymbolClass.ZERO_OPERATOR
    if any(nk + mk == 0 for nk, mk in zip(sym.holo, sym.antiholo)):
        return SymbolClass.ALL_INFINITE
    return SymbolClass.ALL_FINITE


def _collect(sym: MonomialSymbol, alpha_cap: int) -> dict[Fraction, set[Provenance]]:
    dim = sym.dim
    buckets: dict[Fraction, set[Provenance]] = {Fraction(0): set()}
    for members in nonempty_subsets(dim):
        coords = sorted(members)
        for assignment in product(range(alpha_cap + 1), repeat=len(coords)):
            alpha = [0] * dim
            for k, a in zip(coords, assignment):
                alpha[k - 1] = a
            v = _lambda_unchecked(sym.holo, sym.antiholo, alpha, coords)
            buckets.setdefault(v, set()).add(Provenance(tuple(alpha), members))
    return buckets


def _prov_key(p: Provenance):
    return (len(p.subset), tuple(sorted(p.subset)), p.alpha)


def _build_records(
    buckets: dict[Fraction, set[Provenance]],
    dim: int,
    symbol_class: SymbolClass,
) -> tuple[EigenRecord, ...]:
    """Assemble sorted, deduplicated records."""
    full = full_set(dim)
    finite = symbol_class is SymbolClass.ALL_FINITE
    eigen_mult = MultiplicityClass.FINITE if finite else MultiplicityClass.INFINITE
    records = []
    for v in sorted(buckets):
        prov = tuple(sorted(buckets[v], key=_prov_key))
        # the zero operator's only bucket is its eigenvalue 0, with no provenance
        is_eig = symbol_class is SymbolClass.ZERO_OPERATOR or any(p.subset == full for p in prov)
        is_lp = v == 0 or any(p.subset != full for p in prov)
        records.append(EigenRecord(v, prov, is_eig, is_lp, eigen_mult if is_eig else None))
    return tuple(records)


def _check_enum_args(sym: MonomialSymbol, alpha_cap: int, max_dim: int) -> None:
    if alpha_cap < 0:
        raise ValueError("alpha_cap must be >= 0")
    if sym.dim > max_dim:
        raise ValueError(f"dim {sym.dim} exceeds the subset-enumeration bound {max_dim}")
    # every non-empty B with all (cap+1)^|B| multi-indices: (cap+2)^dim - 1 points
    if not sym.is_holomorphic and box_exceeds(alpha_cap + 2, sym.dim, MAX_ENUM_POINTS + 1):
        raise ValueError(
            f"alpha_cap {alpha_cap} at dim {sym.dim} needs (cap+2)^dim - 1 closed-form "
            f"evaluations, over the budget of {MAX_ENUM_POINTS}"
        )


def enumerate_spectrum(
    sym: MonomialSymbol, alpha_cap: int, *, max_dim: int = DEFAULT_MAX_DIM
) -> SpectrumSet:
    """{0} union {lambda(n, m, alpha, B)} over alpha <= alpha_cap and non-empty B.

    The true spectrum is the closure of the diagonal eigenvalue family; the
    returned set is the exact finite sub-enumeration up to the cap, flagged
    truncated (except for the zero operator).
    """
    _check_enum_args(sym, alpha_cap, max_dim)
    cls = multiplicity_class(sym)
    zero = cls is SymbolClass.ZERO_OPERATOR
    buckets = {Fraction(0): set()} if zero else _collect(sym, alpha_cap)
    return SpectrumSet(_build_records(buckets, sym.dim, cls), alpha_cap, True, not zero, "spectrum")


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


def enumerate_essential_spectrum(
    sym: MonomialSymbol, alpha_cap: int, *, max_dim: int = DEFAULT_MAX_DIM
) -> SpectrumSet:
    """Essential spectrum enumeration for a monomial symbol (see essential_part)."""
    return essential_part(sym, enumerate_spectrum(sym, alpha_cap, max_dim=max_dim))
