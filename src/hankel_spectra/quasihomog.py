"""Eigenvalues of Hermitian squares for quasi-homogeneous symbols f(|z|)e^{ik.theta}.

The operator acts diagonally on monomials z^alpha.  When alpha + k leaves the
non-negative lattice the eigenvalue is a plain Rayleigh quotient of radial
integrals; otherwise a projection correction is subtracted.  Separable radial
profiles with rational polynomial factors run on an exact Fraction path; other
profiles go through Gauss-Legendre quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .multiindex import (
    MultiIndex,
    Winding,
    add,
    as_multiindex,
    as_winding,
    graded_lex_box,
    is_nonnegative,
    scale,
    weight,
)
from .rational import frac_str

__all__ = [
    "MonomialNorm",
    "PiValue",
    "RadialProfile",
    "QuasiHomogeneousSymbol",
    "QhBranch",
    "QhEigenvalue",
    "QhSpectrum",
    "monomial_norm_sq",
    "radial_integral",
    "qh_eigenvalue",
    "qh_spectrum",
]

DEFAULT_NODES = 64

PolyCoeffs = tuple[Fraction, ...]
RadialFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class MonomialNorm:
    """||z^beta||^2 on the polydisc: an exact rational multiple of pi^dim."""

    beta: MultiIndex
    pi_coeff: Fraction

    @property
    def pi_power(self) -> int:
        return len(self.beta)

    @property
    def value(self) -> float:
        return float(self.pi_coeff) * float(np.pi) ** self.pi_power


def monomial_norm_sq(beta) -> MonomialNorm:
    """||z^beta||^2_{L^2(D^n)} = pi^n / prod(beta_k + 1)."""
    beta = as_multiindex(beta, name="beta")
    return MonomialNorm(beta, Fraction(1, weight(beta)))


@dataclass(frozen=True)
class PiValue:
    """A scalar coeff * pi^power; coeff is a Fraction on the exact path."""

    coeff: Fraction | float | complex
    power: int

    @property
    def is_exact(self) -> bool:
        return isinstance(self.coeff, Fraction)

    def __complex__(self) -> complex:
        return complex(self.coeff) * float(np.pi) ** self.power

    def __float__(self) -> float:
        c = complex(self)
        if abs(c.imag) > 1e-12 * max(1.0, abs(c.real)):
            raise ValueError(f"{self!r} is not real")
        return c.real


@lru_cache(maxsize=None)
def _gauss_legendre_01(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [0, 1]; exact for polynomial degree <= 2*nodes - 1."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    return (x + 1.0) / 2.0, w / 2.0


def _poly_coeffs(factor) -> PolyCoeffs | None:
    if isinstance(factor, tuple):
        return factor
    return None


class RadialProfile:
    """Radial part f of a quasi-homogeneous symbol on the closed unit polydisc.

    A product of per-coordinate factors, each either a
    polynomial in r (tuple of rational coefficients, degree-ascending) or a
    bounded callable on [0, 1].
    """

    __slots__ = ("dim", "factors")

    def __init__(self, dim: int, factors):
        if len(factors) != dim:
            raise ValueError("one factor per coordinate required")
        self.dim = dim
        self.factors = tuple(factors)

    @classmethod
    def polynomial(cls, coeff_lists: Sequence[Sequence]) -> "RadialProfile":
        factors = []
        for coeffs in coeff_lists:
            factors.append(tuple(Fraction(c) for c in coeffs))
        return cls(len(factors), factors=factors)

    @classmethod
    def from_callables(cls, fns: Sequence[RadialFn]) -> "RadialProfile":
        return cls(len(fns), factors=tuple(fns))

    @property
    def is_polynomial(self) -> bool:
        return all(_poly_coeffs(f) is not None for f in self.factors)

    @property
    def is_zero(self) -> bool:
        return self.is_polynomial and all(
            all(c == 0 for c in f) for f in self.factors
        )

    def to_json_obj(self) -> dict:
        """Coefficient-list serialization; polynomial profiles only."""
        if not self.is_polynomial:
            raise ValueError("only polynomial profiles serialize to JSON")
        return {
            "factors": [[frac_str(c) for c in f] for f in self.factors],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RadialProfile":
        return cls.polynomial([[Fraction(c) for c in f] for f in obj["factors"]])

    def squared_modulus(self) -> "RadialProfile":
        """The profile |f|^2, formed symbolically for polynomial factors."""
        out = []
        for f in self.factors:
            coeffs = _poly_coeffs(f)
            if coeffs is not None:
                out.append(_convolve(coeffs, coeffs))
            else:
                out.append(_abs_sq_wrap(f))
        return RadialProfile(self.dim, factors=out)


def _convolve(a: PolyCoeffs, b: PolyCoeffs) -> PolyCoeffs:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def _abs_sq_wrap(fn: RadialFn) -> RadialFn:
    return lambda r: np.abs(fn(r)) ** 2


def _factor_integral_exact(coeffs: PolyCoeffs, p: int) -> Fraction:
    """2 * integral_0^1 r^{p+1} f(r) dr for a polynomial factor, exactly."""
    total = Fraction(0)
    for d, c in enumerate(coeffs):
        if c == 0:
            continue
        if p + d + 1 < 0:
            raise ValueError(
                f"non-integrable exponent: r^{p + d + 1} near 0 (power {p}, degree {d})"
            )
        total += c * Fraction(2, p + d + 2)
    return total


# Small-radius probes for the boundedness screen: quadrature nodes never reach
# 0, so singularities like 1/r must be caught separately.
_PROBE_RADII = np.array([1e-15, 1e-12, 1e-9, 1e-6, 1e-3])
_BOUNDEDNESS_CAP = 1e9


def _screen_bounded(vals: np.ndarray) -> None:
    if not np.all(np.isfinite(vals)) or np.max(np.abs(vals)) > _BOUNDEDNESS_CAP:
        raise ValueError("radial profile is unbounded or undefined on (0, 1)")


def _factor_integral_quad(fn: RadialFn, p: int, nodes: int):
    if p + 1 < 0:
        raise ValueError(f"non-integrable exponent {p} for a general radial factor")
    r, w = _gauss_legendre_01(nodes)
    _screen_bounded(np.asarray(fn(_PROBE_RADII), dtype=complex))
    vals = np.asarray(fn(r), dtype=complex)
    _screen_bounded(vals)
    total = 2.0 * np.sum(w * r ** (p + 1) * vals)
    return total.real if abs(total.imag) < 1e-15 * max(1.0, abs(total.real)) else total


def radial_integral(profile: RadialProfile, exponent, *, nodes: int = DEFAULT_NODES) -> PiValue:
    """integral over D^n of |w|^exponent f(|w|) dV(w), as a multiple of pi^n.

    The profile factors into 2*pi * integral_0^1 r^{p_k+1} f_k(r) dr per
    coordinate (the 2^n is folded into the returned pi^n coefficient); the
    result is exact when every factor is a rational polynomial.
    """
    exponent = as_winding(exponent, dim=profile.dim)
    exact = profile.is_polynomial
    coeff: Fraction | float | complex = Fraction(1) if exact else 1.0
    for f, p in zip(profile.factors, exponent):
        poly = _poly_coeffs(f)
        if poly is not None:
            part = _factor_integral_exact(poly, p)
            coeff = coeff * part if exact else coeff * float(part)
        else:
            coeff = coeff * _factor_integral_quad(f, p, nodes)
    return PiValue(coeff, profile.dim)


class QhBranch(Enum):
    KERNEL = "kernel"  # alpha + k leaves the lattice: pure Rayleigh quotient
    PROJECTION = "projection"  # alpha + k stays: projection term subtracted


@dataclass(frozen=True)
class QuasiHomogeneousSymbol:
    """psi(z) = f(|z|) e^{i k.theta} with radial profile f and winding k."""

    profile: RadialProfile
    winding: Winding

    def __post_init__(self):
        object.__setattr__(self, "winding", as_winding(self.winding, dim=self.profile.dim))

    @property
    def dim(self) -> int:
        return self.profile.dim

    def to_json_obj(self) -> dict:
        return {"profile": self.profile.to_json_obj(), "winding": list(self.winding)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "QuasiHomogeneousSymbol":
        return cls(RadialProfile.from_json_obj(obj["profile"]), tuple(obj["winding"]))

    @classmethod
    def from_monomial(cls, holo, antiholo) -> "QuasiHomogeneousSymbol":
        """z^n zbar^m = |z|^{n+m} e^{i(n-m).theta}."""
        n = as_multiindex(holo, name="n")
        m = as_multiindex(antiholo, name="m")
        dim = len(n)
        if len(m) != dim:
            raise ValueError("exponent dimension mismatch")
        coeffs = []
        for nk, mk in zip(n, m):
            c = [Fraction(0)] * (nk + mk) + [Fraction(1)]
            coeffs.append(c)
        return cls(RadialProfile.polynomial(coeffs), tuple(x - y for x, y in zip(n, m)))


@dataclass(frozen=True)
class QhEigenvalue:
    alpha: MultiIndex
    value: Fraction | float
    branch: QhBranch

    @property
    def is_exact(self) -> bool:
        return isinstance(self.value, Fraction)


def _ratio(num, den: Fraction):
    if isinstance(num, Fraction):
        return num / den
    return num / float(den)


def qh_eigenvalue(
    sym: QuasiHomogeneousSymbol, alpha, *, nodes: int = DEFAULT_NODES
) -> QhEigenvalue:
    """Eigenvalue of the Hermitian square on the eigenvector z^alpha.

    Kernel branch (alpha + k not in N_0^n):
        ||z^alpha psi||^2 / ||z^alpha||^2
    Projection branch: the same quotient minus
        |integral |w|^{2 alpha + k} f|^2 / (||z^alpha||^2 ||z^{alpha+k}||^2).
    """
    alpha = as_multiindex(alpha, dim=sym.dim, name="alpha")
    shifted = add(alpha, sym.winding)
    norm_a = monomial_norm_sq(alpha).pi_coeff

    first = _ratio(radial_integral(sym.profile.squared_modulus(), scale(alpha, 2), nodes=nodes).coeff, norm_a)

    if not is_nonnegative(shifted):
        value = first
        branch = QhBranch.KERNEL
    else:
        cross = radial_integral(sym.profile, add(scale(alpha, 2), sym.winding), nodes=nodes).coeff
        norm_ak = monomial_norm_sq(shifted).pi_coeff
        if isinstance(cross, Fraction):
            second = cross * cross / (norm_a * norm_ak)
        else:
            second = abs(cross) ** 2 / float(norm_a * norm_ak)
        _check_cauchy_schwarz(first, second)
        value = first - second
        branch = QhBranch.PROJECTION

    if isinstance(value, Fraction):
        if value < 0:
            raise AssertionError(f"negative exact eigenvalue {value}")  # pragma: no cover
    else:
        value = float(np.real(value))
        if value < -1e-12:
            raise AssertionError(f"eigenvalue {value} below -1e-12")
        value = max(value, 0.0)
    return QhEigenvalue(alpha, value, branch)


def _check_cauchy_schwarz(first, second) -> None:
    # The subtracted projection term can never exceed the Rayleigh quotient.
    if isinstance(first, Fraction) and isinstance(second, Fraction):
        if second > first:
            raise AssertionError("Cauchy-Schwarz violated on the exact path")  # pragma: no cover
    else:
        f = float(np.real(complex(first)))
        s = float(np.real(complex(second)))
        if s > f + 1e-12 * max(1.0, abs(f)):
            raise AssertionError("Cauchy-Schwarz violated beyond quadrature tolerance")


@dataclass(frozen=True)
class QhSpectrum:
    """Eigenvalue sweep over a box of multi-indices, sorted ascending."""

    records: tuple[QhEigenvalue, ...]
    alpha_cap: int

    def values(self) -> list:
        return [r.value for r in self.records]

    def floats(self) -> list[float]:
        return [float(r.value) for r in self.records]

    @property
    def is_exact(self) -> bool:
        return all(r.is_exact for r in self.records)


def qh_spectrum(sym: QuasiHomogeneousSymbol, alpha_cap: int, *, nodes: int = DEFAULT_NODES) -> QhSpectrum:
    """All eigenvalues for alpha <= alpha_cap componentwise, sorted ascending."""
    if alpha_cap < 0:
        raise ValueError("alpha_cap must be >= 0")
    evs = [qh_eigenvalue(sym, a, nodes=nodes) for a in graded_lex_box(alpha_cap, sym.dim)]
    evs.sort(key=lambda e: (float(e.value), e.alpha))
    return QhSpectrum(tuple(evs), alpha_cap)
