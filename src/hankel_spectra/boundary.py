"""Boundary-slice analysis: slice Hankel norms and essential-spectrum predictions.

Freezing one polydisc coordinate at a boundary point q turns psi into a slice
symbol psi_q on a lower-dimensional polydisc.  The squared slice Hankel norm
lambda_q = ||H_{psi_q}||^2 belongs to the essential spectrum of the Hermitian
square, and for product symbols phi(z') chi(z_n) the whole set
{|chi(q)|^2 mu : |q| = 1, mu in sigma(H*_phi H_phi)} is contained in it.  The
continuous image over the circle is an interval, so predictions are emitted
as closed intervals [mu * min|chi|^2, mu * max|chi|^2], with the extrema of
|chi|^2 taken at its critical points (circle_abs_sq_range).

lambda_q is approximated from below by the top eigenvalue of the slice
Galerkin compression; every report carries the truncation degree.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import MonomialSymbol, enumerate_spectrum
from .galerkin import BasisTruncation, assemble, eigenvalues, top_eigenvalues
from .rational import CRat
from .symbols import PolySymbol

__all__ = [
    "SliceNormProfile",
    "PredictedPoint",
    "PredictedInterval",
    "EssentialSetPrediction",
    "slice_symbol",
    "slice_norm_profile",
    "circle_abs_sq_range",
    "product_essential_prediction",
    "separable_essential_prediction",
    "containment_report",
]

DEFAULT_SAMPLES = 256
MAX_SAMPLES = 65536  # circle samples per profile or range: each costs time and batch memory
CONSTANCY_RTOL = 1e-8
PROFILE_ZERO_FLOOR = 1e-12  # times (sum |c|)^2: profiles below solver noise count as identically zero
MAX_CIRCLE_DEGREE = 128  # reduced degree D of chi on the circle: np.roots solves a 2D x 2D companion, ~0.2 s at 128
UNIT_MODULUS_TOL = 1e-14
POINT_RTOL = 1e-12  # a predicted interval shorter than this times max(|c|^2, |hi|) is a point
POINT_MATCH_RTOL = 1e-9  # a predicted point is matched when its gap is at most this times |c|^2


def slice_symbol(sym: PolySymbol, q, coord: int) -> PolySymbol:
    """Substitute z_coord = q, zbar_coord = conj(q) and merge terms.

    q may be a CRat (exactness is preserved, e.g. q = 1 or q = i) or a complex
    of modulus 1 to 1e-14.
    """
    if sym.dim < 2:
        raise ValueError("slicing needs dim >= 2")
    if isinstance(q, CRat):
        if q.abs2() != 1:
            raise ValueError(f"slice point must be unimodular, |q|^2 = {q.abs2()}")
    else:
        q = complex(q)
        if abs(abs(q) - 1.0) > UNIT_MODULUS_TOL:
            raise ValueError(f"slice point must satisfy |q| = 1, got |q| = {abs(q)!r}")
    return sym.substitute_coordinate(coord, q)


@dataclass(frozen=True)
class SliceNormProfile:
    """Sampled theta -> lambda_q = ||H_{psi_q}||^2 (compression estimate)."""

    coord: int
    thetas: tuple[float, ...]
    values: tuple[float, ...]
    truncation: BasisTruncation
    constant: bool

    @property
    def vmin(self) -> float:
        return min(self.values)

    @property
    def vmax(self) -> float:
        return max(self.values)

    def to_json_obj(self) -> dict:
        return {
            "coord": self.coord,
            "degree_cap": self.truncation.degree_cap,
            "note": "compression estimate: a lower bound for ||H||^2, non-decreasing in N",
            "constant": self.constant,
            "samples": [
                {"theta": t, "lambda_q": v} for t, v in zip(self.thetas, self.values)
            ],
        }


def slice_norm_profile(
    sym: PolySymbol,
    coord: int,
    num_samples: int,
    trunc: BasisTruncation,
) -> SliceNormProfile:
    """Sample lambda_q over q = e^{2 pi i j / num_samples}.

    lambda_q is the top eigenvalue of the slice compression at the given
    truncation (a lower bound for the true squared norm, non-decreasing in N).
    The profile is flagged constant when max - min < 1e-8 * max, or when max
    is below 1e-12 (sum |c|)^2: every value is at most ||psi||_inf^2 <=
    (sum |c|)^2, and the rounding noise of a vanishing profile scales alike.

    On the circle q = e^{i theta} a term z^h zbar^a contributes e^{i w theta}
    with w = h_c - a_c, its winding in the sliced coordinate c, so
    psi_q = sum_w e^{i w theta} phi_w with phi_w the terms of winding w sliced
    at q = 1.  The slice compression is then the matrix trigonometric
    polynomial sum_d e^{i d theta} G_d, which galerkin.top_eigenvalues solves
    at every sample in one batch.  A symbol that is a monomial in the sliced
    coordinate has d = 0 only, so its profile is constant bit for bit.
    """
    if num_samples < 4:
        raise ValueError("num_samples must be >= 4")
    if num_samples > MAX_SAMPLES:
        raise ValueError(f"num_samples must be <= {MAX_SAMPLES}")
    if sym.dim < 2:
        raise ValueError("profiles need dim >= 2")
    if not 1 <= coord <= sym.dim:
        raise ValueError(f"coord {coord} out of range 1..{sym.dim}")
    slice_trunc = BasisTruncation(trunc.degree_cap, sym.dim - 1)
    thetas = [2.0 * math.pi * j / num_samples for j in range(num_samples)]
    float_sym = sym.as_float()
    classes: dict[int, list] = {}
    for c, h, a in float_sym.terms:
        classes.setdefault(h[coord - 1] - a[coord - 1], []).append((c, h, a))
    fourier = {w: slice_symbol(PolySymbol(terms, dim=sym.dim), 1, coord) for w, terms in classes.items()}

    def name_of(j: int) -> PolySymbol:
        return slice_symbol(float_sym, cmath.exp(1j * thetas[j]), coord)

    values = [float(v) for v in top_eigenvalues(fourier, thetas, slice_trunc, name_of)]
    vmax = max(values)
    vmin = min(values)
    zero_floor = PROFILE_ZERO_FLOOR * sum(abs(c) for c, _, _ in float_sym.terms) ** 2
    constant = vmax <= zero_floor or (vmax - vmin) <= CONSTANCY_RTOL * vmax
    return SliceNormProfile(coord, tuple(thetas), tuple(values), slice_trunc, constant)


def circle_abs_sq_range(chi: PolySymbol, num_samples: int = DEFAULT_SAMPLES) -> tuple[float, float]:
    """Range of |chi(e^{i theta})|^2 over the circle, from its critical points.

    On the circle z^h zbar^a = e^{i(h-a) theta}.  With the winding gaps
    divided by their gcd g, chi = e^{i k0 theta} sum_j a_j w^j for
    w = e^{i g theta}, so |chi|^2 = sum_j b_j w^(j-D) with
    b = a * conj(reversed a), and its critical points are the roots of
    sum_j (j-D) b_j w^j.  The range is the min and max of |chi|^2 over the
    num_samples grid and the angles of all roots, so it contains the grid
    range and each endpoint is a value |chi|^2 takes; roots off the circle
    only add samples.  Refuses a reduced degree D above MAX_CIRCLE_DEGREE and
    a range that overflows floats.
    """
    if chi.dim != 1:
        raise ValueError("chi must be univariate")
    if num_samples < 4:
        raise ValueError("num_samples must be >= 4")
    if num_samples > MAX_SAMPLES:
        raise ValueError(f"num_samples must be <= {MAX_SAMPLES}")
    float_chi = chi.as_float()  # evaluate() converts every coefficient to complex anyway
    ks = [h[0] - a[0] for _, h, a in float_chi.terms]
    g = math.gcd(*(k - min(ks) for k in ks)) if ks else 0  # 0: |chi| is constant on the circle
    degree = (max(ks) - min(ks)) // g if g else 0
    if degree > MAX_CIRCLE_DEGREE:
        raise ValueError(f"chi has degree {degree} on the circle; at most {MAX_CIRCLE_DEGREE} is supported")
    thetas = [2.0 * math.pi * j / num_samples for j in range(num_samples)]
    try:
        if degree:
            a = np.zeros(degree + 1, dtype=complex)
            with np.errstate(over="ignore", invalid="ignore"):
                np.add.at(a, [(k - min(ks)) // g for k in ks], [c for c, _, _ in float_chi.terms])
                b = np.convolve(a, a[::-1].conj())
                slopes = np.arange(degree, -degree - 1, -1) * b[::-1]  # highest power first
                sizes = np.abs(slopes)
            if not np.isfinite(sizes).all():
                raise OverflowError
            # coefficients below the convolution's rounding error are noise; a leading one that
            # np.roots divides by loses every root near the circle once it is ~1e-18 of the largest
            slopes[sizes < np.finfo(float).eps * sizes.max()] = 0
            thetas += (np.angle(np.roots(slopes)) / g).tolist()
        vals = [abs(float_chi.evaluate((cmath.exp(1j * t),))) ** 2 for t in thetas]
        if not np.isfinite(vals).all():
            raise OverflowError
    except OverflowError:
        raise ValueError("the circle range of |chi|^2 overflows floats; coefficients too large?") from None
    return max(min(vals), 0.0), max(vals)


@dataclass(frozen=True)
class PredictedPoint:
    value: float
    mu: float
    source: str


@dataclass(frozen=True)
class PredictedInterval:
    lo: float
    hi: float
    mu: float
    source: str

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class EssentialSetPrediction:
    """Predicted subset of the essential spectrum: points and closed intervals."""

    points: tuple[PredictedPoint, ...]
    intervals: tuple[PredictedInterval, ...]

    def merged_intervals(self) -> list[tuple[float, float]]:
        spans = sorted((iv.lo, iv.hi) for iv in self.intervals)
        out: list[tuple[float, float]] = []
        for lo, hi in spans:
            if out and lo <= out[-1][1]:
                out[-1] = (out[-1][0], max(out[-1][1], hi))
            else:
                out.append((lo, hi))
        return out

    def covers_interval(self, lo: float, hi: float, tol: float = 1e-12) -> bool:
        for a, b in self.merged_intervals():
            if a <= lo + tol and hi <= b + tol:
                return True
        return False

    def to_json_obj(self) -> dict:
        return {
            "points": [
                {"value": p.value, "mu": p.mu, "source": p.source} for p in self.points
            ],
            "intervals": [
                {"lo": iv.lo, "hi": iv.hi, "mu": iv.mu, "source": iv.source}
                for iv in self.intervals
            ],
        }


def coefficient_scale(sym: PolySymbol) -> float:
    """|c|^2, the largest |coefficient|^2 of sym: its predicted values and eigenvalues scale alike."""
    c = max((abs(c) for c, _, _ in sym.as_float().terms), default=0.0)
    return c * c  # inf past the float range, where ** would raise OverflowError


def _prediction_entries(mus, t_lo: float, t_hi: float, source: str, unit: float):
    points, intervals = [], []
    for mu in mus:
        lo, hi = mu * t_lo, mu * t_hi
        if hi - lo <= POINT_RTOL * max(unit, abs(hi)):
            points.append(PredictedPoint((lo + hi) / 2.0, mu, source))
        else:
            intervals.append(PredictedInterval(lo, hi, mu, source))
    return points, intervals


def _spectrum_of(phi: PolySymbol, trunc: BasisTruncation):
    """(mu values, source tag) over the box alpha <= trunc.degree_cap: for one term
    c z^n zbar^m, |c|^2 times the exact enumeration of z^n zbar^m (formed exactly for
    an exact c, then rounded once), else the compression at trunc."""
    if len(phi.terms) == 1:
        c, n, m = phi.terms[0]
        scale = c.abs2() if isinstance(c, CRat) else abs(c) * abs(c)
        spec = enumerate_spectrum(MonomialSymbol(n, m), trunc.degree_cap)
        try:
            mus = [float(v * scale) for v in spec.values()]
        except OverflowError:
            mus = [math.inf]
        if not all(map(math.isfinite, mus)):
            raise ValueError(
                f"the enumerated spectrum of {phi} has non-finite entries; coefficients too large for floats?"
            )
        return mus, f"exact-monomial(cap={trunc.degree_cap})"
    if phi.is_zero or phi.is_holomorphic:
        return [0.0], "holomorphic"
    w = eigenvalues(assemble(phi.as_float(), trunc))
    return [float(x) for x in w], f"compression(N={trunc.degree_cap})"


def product_essential_prediction(
    phi: PolySymbol, chi: PolySymbol, num_samples: int, trunc: BasisTruncation
) -> EssentialSetPrediction:
    """Prediction {|chi(q)|^2 mu} for the product symbol phi(z') chi(z_n).

    mu runs over the spectrum of the lower-dimensional Hermitian square on the
    box alpha <= trunc.degree_cap (exact for a one-term phi, else the compression
    at trunc, labeled as such); the q-image is the interval
    [mu min|chi|^2, mu max|chi|^2].
    """
    if chi.dim != 1:
        raise ValueError("chi must be univariate")
    t_lo, t_hi = circle_abs_sq_range(chi, num_samples)  # refuses a bad chi before phi's spectrum
    mus, source = _spectrum_of(phi, trunc)
    unit = coefficient_scale(phi) * coefficient_scale(chi)  # |c|^2 of the product: its terms do not merge
    points, intervals = _prediction_entries(sorted(set(mus)), t_lo, t_hi, source, unit)
    return EssentialSetPrediction(tuple(points), tuple(intervals))


def separable_essential_prediction(
    factors: list[PolySymbol], num_samples: int, trunc: BasisTruncation
) -> EssentialSetPrediction:
    """Union over j of {mu_j prod_{k != j} t_k} for separable psi = prod chi_k(z_k); trunc has dim 1."""
    if len(factors) < 2:
        raise ValueError("separable prediction needs >= 2 factors")
    for f in factors:
        if f.dim != 1:
            raise ValueError("every factor must be univariate")
    ranges = [circle_abs_sq_range(f, num_samples) for f in factors]
    unit = math.prod(map(coefficient_scale, factors))
    if any(f.is_zero for f in factors):
        return EssentialSetPrediction((PredictedPoint(0.0, 0.0, "zero-factor"),), ())
    points: list[PredictedPoint] = []
    intervals: list[PredictedInterval] = []
    for j, factor in enumerate(factors):
        mus, source = _spectrum_of(factor, trunc)
        t_lo = math.prod(r[0] for k, r in enumerate(ranges) if k != j)
        t_hi = math.prod(r[1] for k, r in enumerate(ranges) if k != j)
        p, iv = _prediction_entries(sorted(set(mus)), t_lo, t_hi, f"factor-{j + 1}: {source}", unit)
        points.extend(p)
        intervals.extend(iv)
    return EssentialSetPrediction(tuple(points), tuple(intervals))


def containment_report(
    prediction: EssentialSetPrediction, compression_spectrum, tol: float
) -> dict:
    """Compare a prediction against one compression spectrum.

    For points: the nearest eigenvalue and its gap.  For intervals: the max
    gap between consecutive eigenvalues inside the interval (or the interval
    length when fewer than two fall inside).  Finite-section caveat: the
    compression only approximates the operator spectrum at this N.  A point
    is matched when its gap is at most tol (>= 0).
    """
    if tol < 0:
        raise ValueError("tol must be non-negative")
    eigs = np.sort(np.asarray(compression_spectrum, dtype=float))
    report: dict = {"tol": tol, "points": [], "intervals": []}
    for p in prediction.points:
        if eigs.size:
            gap = float(np.min(np.abs(eigs - p.value)))
            nearest = float(eigs[int(np.argmin(np.abs(eigs - p.value)))])
        else:
            gap, nearest = math.inf, math.nan
        report["points"].append(
            {"value": p.value, "nearest": nearest, "gap": gap, "matched": gap <= tol}
        )
    for iv in prediction.intervals:
        inside = eigs[(eigs >= iv.lo) & (eigs <= iv.hi)]
        if inside.size >= 2:
            max_gap = float(np.max(np.diff(inside)))
        else:
            max_gap = iv.length
        report["intervals"].append(
            {
                "lo": iv.lo,
                "hi": iv.hi,
                "eigenvalues_inside": int(inside.size),
                "max_gap": max_gap,
            }
        )
    report["all_points_matched"] = all(p["matched"] for p in report["points"])
    return report

