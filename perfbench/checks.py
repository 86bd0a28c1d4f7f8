"""Output checks and their references.

References are computed before the timed loop starts.  Galerkin spectra are
checked against ``eigvalsh`` of ``assemble_via_toeplitz``, the package's
independent T_{|psi|^2} - T_conj(psi) T_psi route, applied to a float copy of
the symbol (the float route of that assembly is about twice as fast as the
exact one and agrees with it to ~1e-15).  Exact spectra are checked against
this file's own copy of the closed form, never against ``core``.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from workloads import Request, coeff_complex

EIGEN_RTOL = 1e-9
PSD_FLOOR = -1e-10


def reference_spectrum(req: Request) -> np.ndarray:
    """Ascending compression eigenvalues of req's symbol at its N, via the Toeplitz route."""
    from hankel_spectra.galerkin import BasisTruncation, assemble_via_toeplitz
    from hankel_spectra.symbols import PolySymbol

    sym = PolySymbol([(coeff_complex(c), h, a) for c, h, a in req.terms], dim=req.dim)
    mat = assemble_via_toeplitz(sym, BasisTruncation(req.degree, req.dim))
    return np.linalg.eigvalsh(mat.dense)


def closed_form(n, m, alpha, subset) -> tuple[int, int]:
    """lambda(n, m, alpha, B) of the Hermitian square of z^n zbar^m, as an
    unreduced (numerator, denominator) pair.

    prod_{k in B} (a_k+1)/(a_k+n_k+m_k+1), minus, unless a_k < m_k - n_k for
    some k in B, prod_{k in B} (a_k+1)(a_k+n_k-m_k+1)/(a_k+n_k+1)^2.
    """
    p1 = q1 = p2 = q2 = 1
    first_case = False
    for k in subset:
        a, nk, mk = alpha[k - 1], n[k - 1], m[k - 1]
        p1 *= a + 1
        q1 *= a + nk + mk + 1
        p2 *= (a + 1) * (a + nk - mk + 1)
        q2 *= (a + nk + 1) ** 2
        first_case = first_case or a < mk - nk
    if first_case:
        return p1, q1
    return p1 * q2 - p2 * q1, q1 * q2


def _spectrum_failure(ev: list, ref: np.ndarray) -> str | None:
    if len(ev) != ref.size:
        return f"{len(ev)} eigenvalues, expected {ref.size}"
    w = np.asarray(ev, dtype=float)
    if np.any(np.diff(w) < 0):
        return "eigenvalues not ascending"
    if w.size and w[0] < PSD_FLOOR:
        return f"eigenvalue {w[0]!r} below {PSD_FLOOR}"
    scale = max(float(ref[-1]) if ref.size else 0.0, 1e-300)
    err = float(np.max(np.abs(w - ref))) if w.size else 0.0
    if err > EIGEN_RTOL * scale:
        return f"eigenvalues differ from the Toeplitz reference by {err:.3g} (top {scale:.6g})"
    return None


def _check_approx(req: Request, obj: dict, ref) -> str | None:
    ev = obj["eigenvalues"]
    bad = _spectrum_failure(ev, ref)
    if bad:
        return bad
    bound = sum(abs(coeff_complex(c)) for c, _, _ in req.terms) ** 2
    if ev and ev[-1] > bound * (1 + 1e-12):
        return f"top eigenvalue {ev[-1]!r} exceeds (sum |c|)^2 = {bound!r}"
    if req.dump:
        with open(req.dump) as fh:
            header = fh.readline().split()
            rows = sum(1 for _ in fh)
        want = ["hankel-spectra-matrix", "v1", f"dim={req.dim}", f"N={req.degree}"]
        if header[:4] != want or header[-1] != f"exact={int(req.exact)}" or rows != len(ev):
            return f"matrix dump header {header} with {rows} rows"
    return None


def _check_boundary(req: Request, obj: dict, ref) -> str | None:
    bad = _spectrum_failure(obj["compression"]["eigenvalues"], ref)
    if bad:
        return "compression: " + bad
    samples = obj["profile"]["samples"]
    if len(samples) != req.samples:
        return f"{len(samples)} profile samples, requested {req.samples}"
    if req.monomial_in_coord and not obj["constant"]:
        return "symbol is a monomial in the sliced coordinate but the profile is not constant"
    return None


def _record_failure(n, m, rec: dict) -> str | None:
    num, den = (int(x) for x in rec["value"].split("/"))
    prov = rec["provenance"]
    p, q = closed_form(n, m, prov[0]["alpha"], prov[0]["B"]) if prov else (0, 1)
    if den <= 0 or num * q != p * den:  # exact rational equality
        return f"record {rec['value']} != closed form {Fraction(p, q)} at {prov[:1]}"
    return None


def _check_exact(req: Request, obj: dict) -> str | None:
    _, n, m = req.terms[0]
    if obj["n"] != list(n) or obj["m"] != list(m):
        return f"symbol exponents {obj['n']}, {obj['m']} != {list(n)}, {list(m)}"
    values = {}
    for kind in ("spectrum", "essential"):
        records = obj[kind]["records"]
        for rec in records:
            bad = _record_failure(n, m, rec)
            if bad:
                return f"{kind}: {bad}"
        values[kind] = [Fraction(r["value"]) for r in records]
        if values[kind] != sorted(set(values[kind])):
            return f"{kind} values are not strictly ascending"
    if not set(values["essential"]) <= set(values["spectrum"]):
        return "essential values are not a subset of the spectrum"
    return None


def check(req: Request, rc, text: str, ref=None) -> str | None:
    """None when the request's output is correct, else a one-line reason."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        obj = json.loads(text)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    try:
        if req.kind == "approx":
            return _check_approx(req, obj, ref)
        if req.kind == "boundary":
            return _check_boundary(req, obj, ref)
        if req.kind == "exact":
            return _check_exact(req, obj)
        return None if obj["passed"] is True else "verify report did not pass"
    except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
