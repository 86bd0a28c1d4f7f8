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
    is_nonnegative,
    scale,
    weight,
)

__all__ = [
    "RadialProfile",
    "QuasiHomogeneousSymbol",
    "QhBranch",
    "QhEigenvalue",
    "monomial_norm_sq",
    "radial_integral",
    "qh_eigenvalue",
]

DEFAULT_NODES = 64

PolyCoeffs = tuple[Fraction, ...]
RadialFn = Callable[[np.ndarray], np.ndarray]


def monomial_norm_sq(beta) -> Fraction:
    """||z^beta||^2_{L^2(D^n)} = pi^n / prod(beta_k + 1), as its pi^n coefficient."""
    return Fraction(1, weight(as_multiindex(beta, name="beta")))


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


def radial_integral(profile: RadialProfile, exponent, *, nodes: int = DEFAULT_NODES) -> Fraction | float | complex:
    """integral over D^n of |w|^exponent f(|w|) dV(w), as its pi^n coefficient.

    The profile factors into 2*pi * integral_0^1 r^{p_k+1} f_k(r) dr per
    coordinate (the 2^n is folded into the returned pi^n coefficient); the
    coefficient is an exact Fraction when every factor is a rational polynomial.
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
    return coeff


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
    norm_a = monomial_norm_sq(alpha)

    first = _ratio(radial_integral(sym.profile.squared_modulus(), scale(alpha, 2), nodes=nodes), norm_a)

    if not is_nonnegative(shifted):
        value = first
        branch = QhBranch.KERNEL
    else:
        cross = radial_integral(sym.profile, add(scale(alpha, 2), sym.winding), nodes=nodes)
        norm_ak = monomial_norm_sq(shifted)
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
