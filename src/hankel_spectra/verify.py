"""Cross-engine verification suites behind the `verify` CLI command.

Each suite re-derives a family of values two independent ways (exact formula,
radial integrals, Galerkin compression, golden fixtures) and compares.  Suites
return (passed, details); the runner aggregates them into a JSON-ready report.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np

from .boundary import circle_abs_sq_range, product_essential_prediction, slice_norm_profile
from .core import (
    MonomialSymbol,
    SymbolClass,
    enumerate_essential_spectrum,
    enumerate_spectrum,
    lambda_value,
    multiplicity_class,
)
from .galerkin import (
    BasisTruncation,
    assemble,
    assemble_via_toeplitz,
    eigenvalues,
    matrices_equal,
    scaled_gram_entry,
    weyl_residual,
)
from .quasihomog import (
    QuasiHomogeneousSymbol,
    RadialProfile,
    monomial_norm_sq,
    qh_eigenvalue,
    qh_eigenvalue_box,
)
from .rational import CRat
from .symbols import PolySymbol, parse_symbol

__all__ = ["SUITES", "run_verify"]

# Golden regression fixtures (frozen from the closed forms; the oracle history
# lives in the test suite).  Deliberately a mutable module-level mapping so a
# corrupted entry is reported as a named suite failure.
FIXTURES: dict[str, object] = {
    "lambda:z_bar:alpha0": Fraction(1, 2),
    "lambda:z_bar:alpha1": Fraction(1, 6),
    "lambda:two_var_mixed": Fraction(1, 6),
    "spectrum:z_bar:cap3": {
        Fraction(0),
        Fraction(1, 2),
        Fraction(1, 6),
        Fraction(1, 12),
        Fraction(1, 20),
    },
    "gram:zb1(zb2+1):origin": Fraction(3, 4),
    "norm:(2,3,4)": Fraction(1, 60),
    "qh:radial_r2": Fraction(1, 12),
}


def _suite_fixtures() -> tuple[bool, dict]:
    checks = {}
    checks["lambda:z_bar:alpha0"] = (
        lambda_value((0,), (1,), (0,), {1}) == FIXTURES["lambda:z_bar:alpha0"]
    )
    checks["lambda:z_bar:alpha1"] = (
        lambda_value((0,), (1,), (1,), {1}) == FIXTURES["lambda:z_bar:alpha1"]
    )
    checks["lambda:two_var_mixed"] = (
        lambda_value((1, 0), (1, 1), (0, 0), {1, 2}) == FIXTURES["lambda:two_var_mixed"]
    )
    spec = enumerate_spectrum(MonomialSymbol((0,), (1,)), 3)
    checks["spectrum:z_bar:cap3"] = spec.value_set() == FIXTURES["spectrum:z_bar:cap3"]
    g = scaled_gram_entry(parse_symbol("zb1*(zb2+1)"), (0, 0), (0, 0))
    checks["gram:zb1(zb2+1):origin"] = g == CRat(FIXTURES["gram:zb1(zb2+1):origin"])
    checks["norm:(2,3,4)"] = monomial_norm_sq((2, 3, 4)) == FIXTURES["norm:(2,3,4)"]
    qh = QuasiHomogeneousSymbol(RadialProfile.polynomial([[0, 0, 1]]), (0,))
    checks["qh:radial_r2"] = qh_eigenvalue(qh, (0,)).value == FIXTURES["qh:radial_r2"]
    return all(checks.values()), {"checks": checks}


def _suite_engines_agree() -> tuple[bool, dict]:
    """Exact agreement of the enumerated spectrum, qh eigenvalue, and Galerkin diagonal.

    lambda comes from the full-B provenance of enumerate_spectrum, the tables
    `exact` prints; an alpha missing there is a mismatch.  The zero operator's
    spectrum carries no provenance: its lambda is 0 at every alpha.  Each
    symbol gets one enumeration, one qh box and one Galerkin diagonal over
    alpha <= 2.
    """
    mismatches = []
    tested = 0
    for dim in (1, 2):
        full = frozenset(range(1, dim + 1))
        trunc = BasisTruncation(2, dim)
        for n in product(range(3), repeat=dim):
            for m in product(range(3), repeat=dim):
                sym = MonomialSymbol(n, m)
                spec = enumerate_spectrum(sym, 2)
                enumerated = {p.alpha: r.value for r in spec.records for p in r.provenance if p.subset == full}
                qh = qh_eigenvalue_box(QuasiHomogeneousSymbol.from_monomial(n, m), [range(3)] * dim)
                diagonal = assemble(PolySymbol([(CRat(1), n, m)], dim=dim), trunc).exact_diagonal()
                for ev in qh:
                    tested += 1
                    lam = Fraction(0) if sym.is_holomorphic else enumerated.get(ev.alpha)
                    gd = diagonal[trunc.index_of[ev.alpha]]
                    if not (lam == ev.value == gd):
                        mismatches.append({"n": n, "m": m, "alpha": ev.alpha})
    return not mismatches, {"tested": tested, "mismatches": mismatches[:5]}


def _suite_toeplitz_identity() -> tuple[bool, dict]:
    results = {}
    for expr in ("zb1", "zb1*zb2", "zb1*(zb2+1)"):
        sym = parse_symbol(expr, dim=2)
        trunc = BasisTruncation(4, 2)
        results[expr] = matrices_equal(assemble(sym, trunc), assemble_via_toeplitz(sym, trunc))
    return all(results.values()), {"symbols": results}


def _suite_essential_spectrum() -> tuple[bool, dict]:
    checks = {}
    sym = MonomialSymbol((0, 0), (1, 0))  # zb1 on D^2
    checks["zb1:essential=spectrum"] = (
        enumerate_essential_spectrum(sym, 4).value_set()
        == enumerate_spectrum(sym, 4).value_set()
    )
    sym2 = MonomialSymbol((0, 0), (1, 1))  # zb1*zb2
    spec = enumerate_spectrum(sym2, 4)
    ess = enumerate_essential_spectrum(sym2, 4)
    full_only = {
        r.value for r in spec.records if r.provenance and all(
            p.subset == frozenset({1, 2}) for p in r.provenance
        )
    }
    checks["zb1zb2:excluded=full-B-only"] = (
        ess.value_set() == spec.value_set() - full_only
    )
    checks["zb1zb2:quarter_excluded"] = Fraction(1, 4) not in ess.value_set()
    checks["zb1zb2:half_included"] = Fraction(1, 2) in ess.value_set()
    checks["classifier"] = (
        multiplicity_class(MonomialSymbol((0, 0), (1, 0))) is SymbolClass.ALL_INFINITE
        and multiplicity_class(MonomialSymbol((0, 0), (1, 1))) is SymbolClass.ALL_FINITE
        and multiplicity_class(MonomialSymbol((3, 1), (0, 0))) is SymbolClass.ZERO_OPERATOR
    )
    return all(checks.values()), {"checks": checks}


def _suite_slice_constancy() -> tuple[bool, dict]:
    trunc = BasisTruncation(8, 2)
    mono = parse_symbol("zb1^2*zb2", dim=2)
    p1 = slice_norm_profile(mono, 1, 16, trunc)
    p2 = slice_norm_profile(mono, 2, 16, trunc)
    mixed = slice_norm_profile(parse_symbol("zb1*(zb2+1)"), 2, 16, trunc)
    checks = {
        "monomial_coord1_constant": p1.constant,
        "monomial_coord2_constant": p2.constant,
        "product_coord2_nonconstant": not mixed.constant,
    }
    return all(checks.values()), {"checks": checks}


def _suite_interval_prediction() -> tuple[bool, dict]:
    phi = parse_symbol("zb1")
    chi = parse_symbol("zb1 + 1")
    pred = product_essential_prediction(phi, chi, 128, BasisTruncation(4, 1))
    t_lo, t_hi = circle_abs_sq_range(chi, 128)
    checks = {
        "chi_range": abs(t_lo) <= 1e-10 and abs(t_hi - 4.0) <= 1e-10,
        "contains_0_2": pred.covers_interval(0.0, 2.0, tol=1e-9),
    }
    return all(checks.values()), {"checks": checks, "t_range": [t_lo, t_hi]}


def _suite_hygiene() -> tuple[bool, dict]:
    checks = {}
    sym = parse_symbol("zb1*(zb2+1)")
    mat = assemble(sym, BasisTruncation(6, 2))
    checks["hermitian"] = mat.hermiticity_defect() <= 1e-13 * max(1.0, mat.scale())
    w = eigenvalues(mat)
    checks["psd_floor"] = bool(w[0] >= -1e-10)

    # quadrature doubling on a degree-8 polynomial profile, forced float path
    coeffs = [0.25, 0, Fraction(1, 3), 0, 0, 0, 0, 0, 1]

    def f(r, c=tuple(float(x) for x in coeffs)):
        return sum(ck * r**k for k, ck in enumerate(c))

    qh = QuasiHomogeneousSymbol(RadialProfile.from_callables([f]), (1,))
    coarse, fine = (qh_eigenvalue_box(qh, [range(5)], nodes=nodes) for nodes in (64, 128))
    drift = max(abs(a.value - b.value) for a, b in zip(coarse, fine))
    checks["quadrature_doubling"] = drift < 1e-10
    return all(checks.values()), {"checks": checks, "quadrature_drift": drift}


def _suite_matrix_roundtrip() -> tuple[bool, dict]:
    import io

    from .galerkin import dump_matrix, load_matrix

    checks = {}
    for expr, scale in (("zb1*(zb2+1)", 1), ("zb1*zb2", 0.5 + 0.25j)):
        sym = parse_symbol(expr, dim=2) * scale
        mat = assemble(sym, BasisTruncation(3, 2))
        buf = io.StringIO()
        dump_matrix(mat, buf)
        buf.seek(0)
        back = load_matrix(buf)
        same = bool(np.array_equal(back.dense, mat.dense))
        if mat.scaled is not None:
            same = same and back.scaled == mat.scaled
        checks[f"{expr} x {scale}"] = same
    return all(checks.values()), {"checks": checks}


def _suite_weyl() -> tuple[bool, dict]:
    sym = parse_symbol("zb1", dim=2)
    trunc = BasisTruncation(14, 2)
    mat = assemble(sym, trunc)
    g = np.zeros(trunc.degree_cap + 1, dtype=complex)
    g[0] = 1.0
    residuals = [
        weyl_residual(sym, 0.5, g, p, trunc, mat=mat) for p in (0.3, 0.5, 0.7)
    ]
    non_increasing = all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))
    tiny = all(r <= 1e-12 for r in residuals)
    far = weyl_residual(sym, 10.0, g, 0.5, trunc, mat=mat)
    return non_increasing and tiny and far > 8.0, {
        "residuals": residuals,
        "far_residual": far,
    }


SUITES = {
    "fixtures": _suite_fixtures,
    "engines-agree": _suite_engines_agree,
    "toeplitz-identity": _suite_toeplitz_identity,
    "essential-spectrum": _suite_essential_spectrum,
    "slice-constancy": _suite_slice_constancy,
    "interval-prediction": _suite_interval_prediction,
    "hygiene": _suite_hygiene,
    "matrix-roundtrip": _suite_matrix_roundtrip,
    "weyl": _suite_weyl,
}


def run_verify(suite: str | None = None) -> dict:
    """Run one named suite or all of them; returns a JSON-ready report."""
    if suite is not None and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; available: {sorted(SUITES)}")
    names = [suite] if suite else list(SUITES)
    results = []
    for name in names:
        try:
            passed, details = SUITES[name]()
        except Exception as exc:  # a crashed suite is a failed suite
            passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
        results.append({"suite": name, "passed": passed, "details": details})
    return {"passed": all(r["passed"] for r in results), "suites": results}
