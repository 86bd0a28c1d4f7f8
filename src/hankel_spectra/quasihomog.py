"""Eigenvalues of Hermitian squares for quasi-homogeneous symbols f(|z|)e^{ik.theta}.

The operator acts diagonally on monomials z^alpha.  When alpha + k leaves the
non-negative lattice the eigenvalue is a plain Rayleigh quotient of radial
integrals; otherwise a projection correction is subtracted.  Both terms are
products of per-coordinate factors, so qh_eigenvalue_box evaluates a whole box
of alpha from one table per coordinate, indexed by the alpha value a: the
integral of r^{2a+1} |f_k|^2 and, where a + k_k >= 0, the cross integral of
r^{2a+k_k+1} f_k.  Each integral is taken once per (coordinate, exponent);
qh_eigenvalue is the one-point box.  Separable radial profiles with rational
polynomial factors run on an exact path (Python-int products, one Fraction
per point); other profiles go through Gauss-Legendre quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import prod
from typing import Callable, Sequence

import numpy as np

from .multiindex import (
    DimensionMismatch,
    MultiIndex,
    Winding,
    as_multiindex,
    as_winding,
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
    "qh_eigenvalue_box",
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
        if ca:
            for j, cb in enumerate(b):
                if cb:
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


def _factor_integral(factor, p: int, exact: bool, nodes: int):
    """2 * integral_0^1 r^{p+1} f(r) dr for one factor: a Fraction if exact, else a float or complex."""
    coeffs = _poly_coeffs(factor)
    if coeffs is None:
        return _factor_integral_quad(factor, p, nodes)
    part = _factor_integral_exact(coeffs, p)
    return part if exact else float(part)


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
        coeff = coeff * _factor_integral(f, p, exact, nodes)
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

    @cached_property
    def squared_modulus(self) -> RadialProfile:
        """|psi|^2 = |f|^2, formed once per symbol: every box of qh_eigenvalue_box integrates it."""
        return self.profile.squared_modulus()

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


def _coordinate_table(factor, square, k: int, axis, exact: bool, nodes: int) -> list[tuple]:
    """One entry per alpha value a of one coordinate with factor f and winding k.

    Exact: (p, q, s, t), Python ints with p/q = (a+1) * I(|f|^2, 2a) and
    s/t = (a+1)(a+k+1) * I(f, 2a+k)^2, where I(g, e) = 2 integral_0^1 r^{e+1} g;
    s and t are None where a + k < 0.  Float: (I(|f|^2, 2a), I(f, 2a+k), a+1,
    a+k+1), the cross integral None where a + k < 0; _float_point divides by
    the norms as floats.
    """
    table = []
    for a in axis:
        first = _factor_integral(square, 2 * a, exact, nodes)
        cross = _factor_integral(factor, 2 * a + k, exact, nodes) if a + k >= 0 else None
        if not exact:
            table.append((first, cross, a + 1, a + k + 1))
            continue
        first = first * (a + 1)
        second = (None, None) if cross is None else (cross * cross * ((a + 1) * (a + k + 1))).as_integer_ratio()
        table.append(first.as_integer_ratio() + second)
    return table


def _exact_point(entries) -> tuple[Fraction, QhBranch]:
    """The eigenvalue at one alpha from its per-coordinate exact table entries."""
    ps, qs, ss, ts = zip(*entries)
    p, q = prod(ps), prod(qs)
    if None in ss:
        value, branch = Fraction(p, q), QhBranch.KERNEL
    else:
        s, t = prod(ss), prod(ts)
        # the subtracted projection term s/t can never exceed the Rayleigh quotient p/q
        if s * q > p * t:
            raise AssertionError("Cauchy-Schwarz violated on the exact path")  # pragma: no cover
        value, branch = Fraction(p * t - s * q, q * t), QhBranch.PROJECTION
    if value < 0:
        raise AssertionError(f"negative exact eigenvalue {value}")  # pragma: no cover
    return value, branch


def _float_point(entries) -> tuple[float, QhBranch]:
    """The eigenvalue at one alpha from its per-coordinate float table entries.

    The Rayleigh quotient is prod I(|f|^2, 2a) / ||z^alpha||^2, the norm taken
    as the float 1/prod(a+1); the projection term |prod I(f, 2a+k)|^2 over the
    float of 1/(||z^alpha||^2 ||z^{alpha+k}||^2) is subtracted.  The integrals
    of |f|^2 are real, so the quotient is.
    """
    firsts, crosses, w, wk = zip(*entries)
    value, branch = prod(firsts, start=1.0) / (1 / prod(w)), QhBranch.KERNEL
    if None not in crosses:
        second = abs(prod(crosses, start=1.0)) ** 2 / (1 / (prod(w) * prod(wk)))
        # the subtracted projection term can never exceed the Rayleigh quotient
        if second > value + 1e-12 * max(1.0, abs(value)):
            raise AssertionError("Cauchy-Schwarz violated beyond quadrature tolerance")
        value, branch = value - second, QhBranch.PROJECTION
    if value < -1e-12:
        raise AssertionError(f"eigenvalue {value} below -1e-12")
    return max(float(value), 0.0), branch


def qh_eigenvalue_box(sym: QuasiHomogeneousSymbol, axes, *, nodes: int = DEFAULT_NODES) -> list[QhEigenvalue]:
    """Eigenvalues on z^alpha for alpha over the box axes[0] x ... x axes[dim-1].

    Each axis lists the non-negative alpha values of one coordinate; the
    result is in itertools.product order.  For alpha + k not in N_0^n (kernel
    branch) the eigenvalue is ||z^alpha psi||^2 / ||z^alpha||^2; otherwise
    (projection branch) the same quotient minus
        |integral |w|^{2 alpha + k} f|^2 / (||z^alpha||^2 ||z^{alpha+k}||^2).
    Both are products over the coordinates, read from one table per
    coordinate (_coordinate_table), so each radial integral is taken once per
    (coordinate, exponent).  The Cauchy-Schwarz and negativity checks run at
    every point.
    """
    axes = [as_multiindex(axis, name="alpha axis") for axis in axes]
    if len(axes) != sym.dim:
        raise DimensionMismatch(f"{len(axes)} alpha axes for a symbol of dim {sym.dim}")
    exact = sym.profile.is_polynomial
    factors = zip(sym.profile.factors, sym.squared_modulus.factors, sym.winding, axes)
    tables = [_coordinate_table(f, sq, k, axis, exact, nodes) for f, sq, k, axis in factors]
    point = _exact_point if exact else _float_point
    return [QhEigenvalue(alpha, *point(entries)) for alpha, entries in zip(product(*axes), product(*tables))]


def qh_eigenvalue(
    sym: QuasiHomogeneousSymbol, alpha, *, nodes: int = DEFAULT_NODES
) -> QhEigenvalue:
    """Eigenvalue of the Hermitian square on the eigenvector z^alpha: the one-point box
    of qh_eigenvalue_box, which states the two branches.
    """
    alpha = as_multiindex(alpha, dim=sym.dim, name="alpha")
    return qh_eigenvalue_box(sym, [(a,) for a in alpha], nodes=nodes)[0]
