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

boundary_report decides between the two routes: the product prediction when
psi factors across the sliced coordinate, else the connected image of the
slice profile {lambda_q}.  It returns the document the boundary command prints.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import MonomialSymbol, enumerate_spectrum
from .galerkin import BasisTruncation, assemble, eigenvalues, top_eigenvalues
from .rational import CRat
from .symbols import PolySymbol, _monomial_str

__all__ = [
    "SliceNormProfile",
    "PredictedPoint",
    "PredictedInterval",
    "EssentialSetPrediction",
    "slice_symbol",
    "slice_norm_profile",
    "circle_abs_sq_range",
    "product_essential_prediction",
    "containment_report",
    "boundary_report",
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
        if not abs(abs(q) - 1.0) <= UNIT_MODULUS_TOL:  # NaN too
            raise ValueError(f"slice point must satisfy |q| = 1, got |q| = {abs(q)!r}")
    return sym.substitute_coordinate(coord, q)


def _circle_grid(num_samples: int) -> list[float]:
    """The angles 2 pi j / num_samples, j < num_samples, of a sample count in 4..MAX_SAMPLES."""
    if num_samples < 4:
        raise ValueError("num_samples must be >= 4")
    if num_samples > MAX_SAMPLES:
        raise ValueError(f"num_samples must be <= {MAX_SAMPLES}")
    return [2.0 * math.pi * j / num_samples for j in range(num_samples)]


def _profile_grid(sym: PolySymbol, coord: int, num_samples: int) -> list[float]:
    """The circle grid of a profile of sym over z_coord, after checking the request."""
    thetas = _circle_grid(num_samples)
    if sym.dim < 2:
        raise ValueError("profiles need dim >= 2")
    if not 1 <= coord <= sym.dim:
        raise ValueError(f"coord {coord} out of range 1..{sym.dim}")
    return thetas


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

    On the circle q = e^{i theta} a term z^h zbar^a contributes e^{i w theta} with
    w = h_c - a_c, its winding in the sliced coordinate c, so psi_q =
    sum_w e^{i w theta} phi_w with phi_w the terms of winding w sliced at q = 1.
    The slice compression is then sum_d e^{i d theta} G_d, whose blocks
    galerkin._fourier_blocks builds once, in columns keyed by winding offset, and
    galerkin.top_eigenvalues solves every sample in one batch.  A symbol that is a
    monomial in the sliced coordinate, or any whose slice has pairs of phase d = 0
    only, is the same matrix at every sample: it is solved once and its value repeated.
    """
    thetas = _profile_grid(sym, coord, num_samples)
    slice_trunc = BasisTruncation(trunc.degree_cap, sym.dim - 1)
    float_sym = sym.as_float()
    classes: dict[int, list] = {}
    for c, h, a in float_sym.terms:
        classes.setdefault(h[coord - 1] - a[coord - 1], []).append((c, h, a))
    fourier = {w: slice_symbol(PolySymbol._of_terms(terms, sym.dim), 1, coord) for w, terms in classes.items()}

    def name_of(j: int) -> PolySymbol:
        return slice_symbol(float_sym, cmath.exp(1j * thetas[j]), coord)

    values = [float(v) for v in top_eigenvalues(fourier, thetas, slice_trunc, name_of)]
    vmax = max(values)
    vmin = min(values)
    coeff_sum = sum(abs(c) for c, _, _ in float_sym.terms)
    zero_floor = PROFILE_ZERO_FLOOR * coeff_sum * coeff_sum  # finite past 1.34e154, where ** 2 overflows
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
    thetas = _circle_grid(num_samples)
    float_chi = chi.as_float()  # evaluate() converts every coefficient to complex anyway
    ks = [h[0] - a[0] for _, h, a in float_chi.terms]
    g = math.gcd(*(k - min(ks) for k in ks)) if ks else 0  # 0: |chi| is constant on the circle
    degree = (max(ks) - min(ks)) // g if g else 0
    if degree > MAX_CIRCLE_DEGREE:
        raise ValueError(f"chi has degree {degree} on the circle; at most {MAX_CIRCLE_DEGREE} is supported")
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
            # scale by a power of two, exactly: np.roots divides by the leading slope, and a
            # complex division by a subnormal overflows (2.0**k itself overflows past k = 1023)
            shift = -np.frexp(sizes.max())[1]
            slopes.real, slopes.imag = np.ldexp(slopes.real, shift), np.ldexp(slopes.imag, shift)
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
        if not all(map(math.isfinite, mus)):  # named by its monomial: str() may not print c
            raise ValueError(
                f"the enumerated spectrum of the {_monomial_str(n, m) or '1'} term has non-finite entries: "
                "its coefficient's squared modulus is past the float range"
            )
        return mus, f"exact-monomial(cap={trunc.degree_cap})"
    if phi.is_zero or phi.is_holomorphic:
        return [0.0], "holomorphic"
    w = eigenvalues(assemble(phi.as_float(), trunc))
    return w.tolist(), f"compression(N={trunc.degree_cap})"


def product_essential_prediction(
    phi: PolySymbol, chi: PolySymbol, num_samples: int, trunc: BasisTruncation
) -> EssentialSetPrediction:
    """Prediction {|chi(q)|^2 mu} for the product symbol phi(z') chi(z_n).

    mu runs over the spectrum of the lower-dimensional Hermitian square on the
    box alpha <= trunc.degree_cap (exact for a one-term phi, else the compression
    at trunc, labeled as such); the q-image is the interval
    [mu min|chi|^2, mu max|chi|^2].
    """
    t_lo, t_hi = circle_abs_sq_range(chi, num_samples)  # refuses a bad chi before phi's spectrum
    mus, source = _spectrum_of(phi, trunc)
    unit = coefficient_scale(phi) * coefficient_scale(chi)  # |c|^2 of the product: its terms do not merge
    points, intervals = _prediction_entries(sorted(set(mus)), t_lo, t_hi, source, unit)
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
    if not tol >= 0:  # NaN too: no gap is <= NaN
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


def _rational(c) -> CRat:
    """A coefficient as the Gaussian rational it stores: a CRat as it is, a float exactly."""
    if isinstance(c, CRat):
        return c
    return CRat(Fraction(complex(c).real), Fraction(complex(c).imag))


def _factor_across(sym: PolySymbol, coord: int):
    """Split psi = phi(z without coord) * chi(z_coord) when possible, else None.

    The coefficients of psi form a table rows[(n_c, m_c)][(h', a')], one row per
    pair of z_coord exponents, and psi is a product exactly when the table is
    chi (x) phi.  phi is the lowest-key row and chi_r = rows[r][s0] / phi[s0],
    with s0 the first term of phi, both read as the exact rationals they store
    (_rational).  A float or mixed symbol emits each chi_r rounded once, and
    when one overflows floats phi pivots to the row of the largest |c|, so that
    every |chi_r| <= 1.  Every row must have the support of phi and pass the
    rank-one test row[s] phi[s0] = row[s0] phi[s] in exact rationals: exactly
    for an exact symbol, else to 1e-12 of the row's largest |c| times
    |phi[s0]|.  For any other symbol the emitted chi_r * phi[s] must also be
    non-zero, finite and as close plus |phi[s]| 2**-1074, a subnormal chi_r's
    spacing.
    """
    k = coord - 1
    rows: dict[tuple[int, int], dict] = {}
    for c, h, a in sym.terms:
        rows.setdefault((h[k], a[k]), {})[h[:k] + h[k + 1:], a[:k] + a[k + 1:]] = c
    if not rows:
        return None
    key = min(rows)
    if any(row.keys() != rows[key].keys() for row in rows.values()):
        return None
    q = {r: {s: _rational(c) for s, c in row.items()} for r, row in rows.items()}

    def row_symbol(r) -> PolySymbol:
        return PolySymbol._of_terms([(c, h, a) for (h, a), c in rows[r].items()], sym.dim - 1)

    def ratios(key, s0) -> dict:
        chi = {r: row[s0] / q[key][s0] for r, row in q.items()}
        return chi if sym.is_exact else {r: complex(x) for r, x in chi.items()}

    phi = row_symbol(key)
    s0 = phi.terms[0][1:]
    try:
        chi = ratios(key, s0)
    except OverflowError:
        # a ratio overflows floats: pivot on the largest |c| instead, so that every |chi_r| <= 1
        _, key, s0 = max((v.abs2(), r, s) for r, row in q.items() for s, v in row.items())
        phi = row_symbol(key)
        chi = ratios(key, s0)
    slack = 0 if sym.is_exact else Fraction(1, 10**24)
    pivot = q[key][s0]
    for r, row in q.items():
        # an exact symbol's slack is 0: no bound, and the test is an equality
        bound = slack and slack * max(v.abs2() for v in row.values()) * pivot.abs2()
        if any((lhs := row[s] * pivot) != (rhs := row[s0] * q[key][s]) and (lhs - rhs).abs2() > bound for s in row):
            return None
    if not sym.is_exact:
        try:
            f = {r: {s: complex(c) for s, c in row.items()} for r, row in rows.items()}
            tol = {r: 1e-12 * max(map(abs, row.values())) for r, row in f.items()}
        except OverflowError:  # a coefficient too large for floats, which as_float refuses later
            return None
        for r, row in f.items():
            for s, c in row.items():
                p = chi[r] * f[key][s]
                near = abs(c - p) <= tol[r] + math.ulp(0.0) * abs(f[key][s])
                if p == 0 or not cmath.isfinite(p) or not near:
                    return None
    return phi, PolySymbol._of_terms([(x, (n,), (m,)) for (n, m), x in chi.items()], 1)


def boundary_report(sym: PolySymbol, coord: int, num_samples: int, trunc: BasisTruncation) -> dict:
    """The boundary document without its command, symbol, dim and coord fields.

    A symbol that factors as phi(z') chi(z_coord) is predicted by
    {|chi(q)|^2 mu}; that prediction runs first, so a bad chi is refused before
    any solve.  Any other symbol is predicted by the connected image of the
    slice profile {lambda_q} (ThmGenSym): one point when the profile is
    constant, else the interval [min, max].  The prediction is compared with
    the compression spectrum at trunc to POINT_MATCH_RTOL * coefficient_scale(sym).
    """
    _profile_grid(sym, coord, num_samples)  # refuses a bad request before any work
    factored = _factor_across(sym, coord)
    if factored is not None:
        phi, chi = factored
        prediction = product_essential_prediction(phi, chi, num_samples, BasisTruncation(trunc.degree_cap, phi.dim))
    w = eigenvalues(assemble(sym.as_float(), trunc)).tolist()
    profile = slice_norm_profile(sym, coord, num_samples, trunc)
    if factored is None:
        lo, hi = profile.vmin, profile.vmax
        if profile.constant:
            mid = (lo + hi) / 2.0
            prediction = EssentialSetPrediction((PredictedPoint(mid, mid, "slice-profile"),), ())
        else:
            prediction = EssentialSetPrediction((), (PredictedInterval(lo, hi, 1.0, "slice-profile"),))
    return {
        "profile": profile.to_json_obj(),
        "constant": profile.constant,
        "prediction": prediction.to_json_obj(),
        "prediction_source": "slice-profile" if factored is None else "product-factorization",
        "compression": {"degree_cap": trunc.degree_cap, "eigenvalues": w},
        "containment": containment_report(prediction, w, POINT_MATCH_RTOL * coefficient_scale(sym)),
    }
