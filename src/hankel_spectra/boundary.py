"""Boundary-slice analysis: slice Hankel norms and essential-spectrum predictions.

Freezing one polydisc coordinate at a boundary point q turns psi into a slice
symbol psi_q on a lower-dimensional polydisc.  The squared slice Hankel norm
lambda_q = ||H_{psi_q}||^2 belongs to the essential spectrum of the Hermitian
square, and for product symbols phi(z') chi(z_n) the whole set
{|chi(q)|^2 mu : |q| = 1, mu in sigma(H*_phi H_phi)} is contained in it.  The
continuous image over the circle is an interval, so predictions are emitted
as closed intervals [mu * min|chi|^2, mu * max|chi|^2] with sampled extrema
refined by golden-section search.

lambda_q is approximated from below by the top eigenvalue of the slice
Galerkin compression; every report carries the truncation degree.
"""

from __future__ import annotations

import cmath
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import enumerate_spectrum
from .galerkin import BasisTruncation, assemble, eigenvalues
from .rational import CRat
from .symbols import PolySymbol

__all__ = [
    "BoundarySlice",
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
    "sup_norm_on_torus",
]

DEFAULT_SAMPLES = 256
CONSTANCY_RTOL = 1e-8
PROFILE_ZERO_FLOOR = 1e-12  # profiles below solver noise count as identically zero
GOLDEN_TOL = 1e-12
UNIT_MODULUS_TOL = 1e-14


def worker_count() -> int:
    """Parallelism cap from HANKEL_SPECTRA_THREADS (default 1)."""
    try:
        return max(1, int(os.environ.get("HANKEL_SPECTRA_THREADS", "1")))
    except ValueError:
        return 1


@dataclass(frozen=True)
class BoundarySlice:
    """psi frozen at z_coord = q (|q| = 1), as a symbol on the remaining coordinates."""

    q: complex
    coord: int
    slice_sym: PolySymbol

    @classmethod
    def at(cls, sym: PolySymbol, q, coord: int) -> "BoundarySlice":
        return cls(q, coord, slice_symbol(sym, q, coord))


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
    *,
    threads: int | None = None,
) -> SliceNormProfile:
    """Sample lambda_q over q = e^{2 pi i j / num_samples}.

    lambda_q is the top eigenvalue of the slice compression at the given
    truncation (a lower bound for the true squared norm, non-decreasing in N).
    The profile is flagged constant when max - min < 1e-8 * max.
    """
    if num_samples < 4:
        raise ValueError("num_samples must be >= 4")
    if sym.dim < 2:
        raise ValueError("profiles need dim >= 2")
    slice_trunc = BasisTruncation(trunc.degree_cap, sym.dim - 1)
    thetas = [2.0 * math.pi * j / num_samples for j in range(num_samples)]

    def top(theta: float) -> float:
        sliced = slice_symbol(sym, cmath.exp(1j * theta), coord)
        if sliced.is_zero:
            return 0.0
        w = eigenvalues(assemble(sliced, slice_trunc))
        return float(w[-1])

    n_workers = worker_count() if threads is None else max(1, threads)
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            values = list(pool.map(top, thetas))
    else:
        values = [top(t) for t in thetas]

    vmax = max(values)
    vmin = min(values)
    constant = vmax <= PROFILE_ZERO_FLOOR or (vmax - vmin) <= CONSTANCY_RTOL * vmax
    return SliceNormProfile(coord, tuple(thetas), tuple(values), slice_trunc, constant)


def _golden_section_min(f, a: float, b: float, tol: float = GOLDEN_TOL) -> tuple[float, float]:
    """Minimize a unimodal f on [a, b]; returns (theta, value)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    xm = (a + b) / 2.0
    return xm, f(xm)


def circle_abs_sq_range(chi: PolySymbol, num_samples: int = DEFAULT_SAMPLES) -> tuple[float, float]:
    """Range of |chi(e^{i theta})|^2: coarse grid plus golden-section refinement.

    |chi|^2 is a trigonometric polynomial, so every extremum sits in a bracket
    around a grid extremum of a fine enough grid.
    """
    if chi.dim != 1:
        raise ValueError("chi must be univariate")
    if num_samples < 8:
        raise ValueError("num_samples must be >= 8")

    def f(theta: float) -> float:
        return abs(chi.evaluate((cmath.exp(1j * theta),))) ** 2

    step = 2.0 * math.pi / num_samples
    vals = [f(j * step) for j in range(num_samples)]
    lo = min(vals)
    hi = max(vals)
    for j in range(num_samples):
        prev = vals[(j - 1) % num_samples]
        here = vals[j]
        nxt = vals[(j + 1) % num_samples]
        a, b = (j - 1) * step, (j + 1) * step
        if here <= prev and here <= nxt:
            lo = min(lo, _golden_section_min(f, a, b)[1])
        if here >= prev and here >= nxt:
            hi = max(hi, -_golden_section_min(lambda t: -f(t), a, b)[1])
    return max(lo, 0.0), hi


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


def _prediction_entries(mus, t_lo: float, t_hi: float, source: str, point_tol: float = 1e-12):
    points, intervals = [], []
    for mu in mus:
        lo, hi = mu * t_lo, mu * t_hi
        if hi - lo <= point_tol * max(1.0, abs(hi)):
            points.append(PredictedPoint((lo + hi) / 2.0, mu, source))
        else:
            intervals.append(PredictedInterval(lo, hi, mu, source))
    return points, intervals


def _spectrum_of(phi: PolySymbol, alpha_cap: int, trunc: BasisTruncation | None):
    """(mu values, source tag): exact enumeration for monomials, else compression."""
    if phi.is_plain_monomial:
        mono = phi.to_monomial_symbol()
        spec = enumerate_spectrum(mono, alpha_cap)
        return spec.floats(), f"exact-monomial(cap={alpha_cap})"
    if phi.is_zero or phi.is_holomorphic:
        return [0.0], "holomorphic"
    t = trunc if trunc is not None else BasisTruncation(10, phi.dim)
    w = eigenvalues(assemble(phi.as_float(), t))
    return [float(x) for x in w], f"compression(N={t.degree_cap})"


def product_essential_prediction(
    phi: PolySymbol,
    chi: PolySymbol,
    num_samples: int = DEFAULT_SAMPLES,
    *,
    alpha_cap: int = 6,
    trunc: BasisTruncation | None = None,
) -> EssentialSetPrediction:
    """Prediction {|chi(q)|^2 mu} for the product symbol phi(z') chi(z_n).

    mu runs over the spectrum of the lower-dimensional Hermitian square (exact
    for monomial phi, else a compression approximation, labeled as such); the
    q-image is the interval [mu min|chi|^2, mu max|chi|^2].
    """
    if chi.dim != 1:
        raise ValueError("chi must be univariate")
    mus, source = _spectrum_of(phi, alpha_cap, trunc)
    t_lo, t_hi = circle_abs_sq_range(chi, num_samples)
    points, intervals = _prediction_entries(sorted(set(mus)), t_lo, t_hi, source)
    return EssentialSetPrediction(tuple(points), tuple(intervals))


def separable_essential_prediction(
    factors: list[PolySymbol],
    num_samples: int = DEFAULT_SAMPLES,
    *,
    alpha_cap: int = 6,
    trunc: BasisTruncation | None = None,
) -> EssentialSetPrediction:
    """Union over j of {mu_j prod_{k != j} t_k} for separable psi = prod chi_k(z_k)."""
    if len(factors) < 2:
        raise ValueError("separable prediction needs >= 2 factors")
    for f in factors:
        if f.dim != 1:
            raise ValueError("every factor must be univariate")
    ranges = [circle_abs_sq_range(f, num_samples) for f in factors]
    if any(f.is_zero for f in factors):
        return EssentialSetPrediction((PredictedPoint(0.0, 0.0, "zero-factor"),), ())
    points: list[PredictedPoint] = []
    intervals: list[PredictedInterval] = []
    for j, factor in enumerate(factors):
        mus, source = _spectrum_of(factor, alpha_cap, trunc)
        t_lo = math.prod(r[0] for k, r in enumerate(ranges) if k != j)
        t_hi = math.prod(r[1] for k, r in enumerate(ranges) if k != j)
        p, iv = _prediction_entries(sorted(set(mus)), t_lo, t_hi, f"factor-{j + 1}: {source}")
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
    compression only approximates the operator spectrum at this N.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
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


def sup_norm_on_torus(sym: PolySymbol, samples: int = DEFAULT_SAMPLES) -> float:
    """max |psi| over a grid of the distinguished boundary (torus).

    A grid proxy for the polydisc sup norm of the low-degree slice differences
    used in the Lipschitz check; exact extrema are not needed there.
    """
    if samples**sym.dim > 4_000_000:
        raise ValueError("torus grid too large; reduce samples or dim")
    thetas = [2.0 * math.pi * j / samples for j in range(samples)]
    best = 0.0
    for combo in itertools.product(thetas, repeat=sym.dim):
        z = tuple(cmath.exp(1j * t) for t in combo)
        best = max(best, abs(sym.evaluate(z)))
    return best
