"""Acceptance criteria: one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines inline).
Every tolerance below is the one fixed in the build contract; exact means
Fraction equality, zero tolerance.
"""

import json
import time
from fractions import Fraction
from itertools import product

import numpy as np

from hankel_spectra import (
    BasisTruncation,
    KernelVector,
    MonomialSymbol,
    QuasiHomogeneousSymbol,
    RadialProfile,
    assemble,
    assemble_via_toeplitz,
    eigenvalues,
    enumerate_essential_spectrum,
    enumerate_spectrum,
    lambda_value,
    matrices_equal,
    parse_symbol,
    product_essential_prediction,
    qh_eigenvalue,
    slice_norm_profile,
    weyl_residual,
)
from hankel_spectra.cli import main
from hankel_spectra.galerkin import scaled_gram_entry
from hankel_spectra.multiindex import full_set, weight


def _report(name: str, ok: bool, elapsed: float, budget: float) -> None:
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{verdict} {name} ({elapsed:.2f}s, budget {budget:g}s)")
    assert ok, name
    assert elapsed < budget, f"{name} exceeded runtime budget: {elapsed:.2f}s"


def _cli_exact_json(symbol: str, dim: int, cap: int, tmp_path) -> dict:
    out = tmp_path / "out.json"
    code = main(["exact", symbol, "--dim", str(dim), "--cap", str(cap), "--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())


def test_criterion_1_exact_conjugate_power_fixtures(tmp_path):
    """zb1^n on D^2, n in {1,2,3}: both eigenvalue families to alpha_1 <= 50, exact."""
    start = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        expr = "zb1" if n == 1 else f"zb1^{n}"
        obj = _cli_exact_json(expr, 2, 50, tmp_path)
        values = {r["value"]: r for r in obj["spectrum"]["records"]}
        ok &= obj["multiplicity_class"] == "all-infinite"
        family = [Fraction(a + 1, a + n + 1) for a in range(n)]
        family += [Fraction(n * n, (a + n + 1) * (a + 1)) for a in range(n, 51)]
        for v in family:
            key = f"{v.numerator}/{v.denominator}"
            ok &= key in values
            ok &= values[key]["multiplicity"] == "infinite"
        ok &= "0/1" in values
    _report("criterion-1 exact conjugate-power fixtures", ok, time.perf_counter() - start, 1.0)


def test_criterion_2_two_variable_families(tmp_path):
    """zb1^n zb2^m for (n,m) in {(1,1),(2,1),(2,3)}: all five displayed families, exact."""
    start = time.perf_counter()
    ok = True
    for n, m in ((1, 1), (2, 1), (2, 3)):
        cap = 10 + max(n, m)
        expr = f"zb1^{n}*zb2^{m}"
        obj = _cli_exact_json(expr, 2, cap, tmp_path)
        values = {r["value"] for r in obj["spectrum"]["records"]}

        fams: list[Fraction] = []
        fams += [Fraction(a1 + 1, a1 + n + 1) for a1 in range(n)]
        fams += [Fraction(a2 + 1, a2 + m + 1) for a2 in range(m)]
        fams += [Fraction(n * n, (a1 + n + 1) * (a1 + 1)) for a1 in range(n, 11)]
        fams += [Fraction(m * m, (a2 + m + 1) * (a2 + 1)) for a2 in range(m, 11)]
        for a1 in range(n, 11):
            for a2 in range(m, 11):
                num = n * n * (a2 + 1) ** 2 + m * m * (a1 + 1) ** 2 - n * n * m * m
                den = (a1 + n + 1) * (a2 + m + 1) * (a1 + 1) * (a2 + 1)
                fams.append(Fraction(num, den))
        for a1 in range(n):
            for a2 in range(11):
                fams.append(Fraction((a1 + 1) * (a2 + 1), (a1 + n + 1) * (a2 + m + 1)))
        for a1 in range(11):
            for a2 in range(m):
                fams.append(Fraction((a1 + 1) * (a2 + 1), (a1 + n + 1) * (a2 + m + 1)))

        for v in fams:
            ok &= f"{v.numerator}/{v.denominator}" in values
    _report("criterion-2 two-variable families", ok, time.perf_counter() - start, 5.0)


def test_criterion_3_engine_agreement():
    """core lambda == qh eigenvalue == Galerkin diagonal, exactly, entries <= 3, alpha <= (4,4)."""
    start = time.perf_counter()
    ok = True
    for dim in (1, 2):
        full = full_set(dim)
        for n in product(range(4), repeat=dim):
            for m in product(range(4), repeat=dim):
                qh = QuasiHomogeneousSymbol.from_monomial(n, m)
                poly = parse_symbol(str(MonomialSymbol(n, m)), dim=dim)
                for alpha in product(range(5), repeat=dim):
                    lam = lambda_value(n, m, alpha, full)
                    ok &= qh_eigenvalue(qh, alpha).value == lam
                    gram = scaled_gram_entry(poly, alpha, alpha) * weight(alpha)
                    ok &= gram.im == 0 and gram.re == lam
                if not ok:
                    break
    _report("criterion-3 engine agreement", ok, time.perf_counter() - start, 30.0)


def test_criterion_4_toeplitz_identity():
    """T_{|psi|^2} - T_conj(psi) T_psi assembly equals the Hankel assembly, exactly, N=6."""
    start = time.perf_counter()
    ok = True
    trunc = BasisTruncation(6, 2)
    for expr in ("zb1", "zb1*zb2", "zb1*(zb2+1)"):
        sym = parse_symbol(expr, dim=2)
        ok &= matrices_equal(assemble(sym, trunc), assemble_via_toeplitz(sym, trunc))
    _report("criterion-4 compressed Toeplitz identity", ok, time.perf_counter() - start, 10.0)


def _lambda_brute(n, m, alpha, members):
    # independent re-derivation, straight from the two-case display
    first = Fraction(1)
    for k in members:
        a, nk, mk = alpha[k - 1], n[k - 1], m[k - 1]
        first *= Fraction(a + 1, a + nk + mk + 1)
    if any(alpha[k - 1] < m[k - 1] - n[k - 1] for k in members):
        return first
    second = Fraction(1)
    for k in members:
        a, nk, mk = alpha[k - 1], n[k - 1], m[k - 1]
        second *= Fraction((a + 1) * (a + nk - mk + 1), (a + nk + 1) ** 2)
    return first - second


def test_criterion_5_essential_spectrum_classifier():
    """Essential enumerations vs brute-force set comparison at cap 6, exact."""
    start = time.perf_counter()
    ok = True
    cap = 6

    # zb1 on D^2: essential equals the full spectrum at every cap
    sym = MonomialSymbol((0, 0), (1, 0))
    for c in range(cap + 1):
        ok &= (
            enumerate_essential_spectrum(sym, c).value_set()
            == enumerate_spectrum(sym, c).value_set()
        )

    # zb1*zb2: sigma_e drops exactly the values attainable only with B = B_n
    n, m = (0, 0), (1, 1)
    sym2 = MonomialSymbol(n, m)
    spec = enumerate_spectrum(sym2, cap).value_set()
    ess = enumerate_essential_spectrum(sym2, cap).value_set()

    brute_all: set[Fraction] = {Fraction(0)}
    brute_proper: set[Fraction] = {Fraction(0)}
    for members in [frozenset({1}), frozenset({2}), frozenset({1, 2})]:
        coords = sorted(members)
        for assign in product(range(cap + 1), repeat=len(coords)):
            alpha = [0, 0]
            for k, a in zip(coords, assign):
                alpha[k - 1] = a
            v = _lambda_brute(n, m, alpha, sorted(members))
            brute_all.add(v)
            if members != frozenset({1, 2}):
                brute_proper.add(v)
    ok &= spec == brute_all
    ok &= ess == brute_proper
    full_b_only = brute_all - brute_proper
    ok &= ess == spec - full_b_only
    ok &= Fraction(1, 4) in full_b_only
    _report("criterion-5 essential-spectrum classifier", ok, time.perf_counter() - start, 5.0)


def test_criterion_6_constant_slice_norms():
    """zb1^2 zb2^3: both coordinate profiles at N=12, 64 samples, variation < 1e-10."""
    start = time.perf_counter()
    ok = True
    sym = parse_symbol("zb1^2*zb2^3")
    trunc = BasisTruncation(12, 2)
    for coord in (1, 2):
        prof = slice_norm_profile(sym, coord, 64, trunc)
        ok &= prof.constant
        ok &= (prof.vmax - prof.vmin) < 1e-10 * prof.vmax
    _report("criterion-6 constant slice norms", ok, time.perf_counter() - start, 60.0)


def test_criterion_7_interval_evidence():
    """zb1*(zb2+1): prediction contains [0,2]; gaps in [0.2,1.8] shrink over N in {8,12,16}."""
    start = time.perf_counter()
    pred = product_essential_prediction(
        parse_symbol("zb1"), parse_symbol("zb1+1"), 256, BasisTruncation(6, 1)
    )
    ok = pred.covers_interval(0.0, 2.0, tol=1e-9)
    sym = parse_symbol("zb1*(zb2+1)")
    gaps = []
    for n in (8, 12, 16):
        w = eigenvalues(assemble(sym, BasisTruncation(n, 2)))
        inside = w[(w >= 0.2) & (w <= 1.8)]
        ok &= inside.size >= 2
        gaps.append(float(np.max(np.diff(inside))))
    ok &= gaps[0] > gaps[1] > gaps[2]
    _report("criterion-7 interval evidence", ok, time.perf_counter() - start, 300.0)


def test_criterion_8_weyl_residual_trend():
    """zb1 on D^2 at lambda = 1/2: residuals strictly decreasing over p in {0.5, 0.7, 0.9}.

    N is adapted once so the p = 0.9 truncated kernel mass reaches 0.99 (the
    smaller p then hold more mass).  g is the normalized non-eigenvector
    (e_0 + e_1)/sqrt(2): the exact eigenvector e_0 gives an identically zero
    residual, which cannot decrease strictly.
    """
    start = time.perf_counter()
    n_cap = 1
    while KernelVector(0.9, n_cap).truncated_norm ** 2 < 0.99:
        n_cap += 1
    trunc = BasisTruncation(n_cap, 2)
    for p in (0.5, 0.7, 0.9):
        assert KernelVector(p, n_cap).truncated_norm ** 2 >= 0.99
    sym = parse_symbol("zb1", dim=2)
    mat = assemble(sym, trunc)
    g = np.zeros(n_cap + 1, dtype=complex)
    g[0] = g[1] = 1.0 / np.sqrt(2.0)
    residuals = [weyl_residual(mat, 0.5, g, p) for p in (0.5, 0.7, 0.9)]
    ok = residuals[0] > residuals[1] > residuals[2]
    _report(
        f"criterion-8 Weyl residual trend (N={n_cap}, residuals={['%.6g' % r for r in residuals]})",
        ok,
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_9_numerical_hygiene():
    """Hermiticity to 1e-13, eigenvalues >= -1e-10, quadrature doubling < 1e-10."""
    start = time.perf_counter()
    ok = True
    cases = [
        (parse_symbol("zb1", dim=2), 10),
        (parse_symbol("zb1*zb2"), 8),
        (parse_symbol("zb1*(zb2+1)"), 12),
        (parse_symbol("zb1*(zb2+1)") * (0.3 + 0.7j), 8),
        (parse_symbol("z1*zb1 + 1/2*zb2^2"), 8),
    ]
    for sym, n in cases:
        mat = assemble(sym, BasisTruncation(n, 2))
        ok &= mat.hermiticity_defect() <= 1e-13 * max(1.0, mat.scale())
        w = eigenvalues(mat)
        ok &= bool(w[0] >= -1e-10)

    # quadrature doubling on polynomial profiles of degree <= 20 (float path)
    for degree in (6, 13, 20):
        coeffs = tuple(1.0 / (k + 1) for k in range(degree + 1))
        fn = lambda r, c=coeffs: sum(ck * r**k for k, ck in enumerate(c))
        sym = QuasiHomogeneousSymbol(RadialProfile.from_callables([fn]), (1,))
        for a in range(5):
            v64 = qh_eigenvalue(sym, (a,), nodes=64).value
            v128 = qh_eigenvalue(sym, (a,), nodes=128).value
            ok &= abs(v64 - v128) < 1e-10
    _report("criterion-9 numerical hygiene", ok, time.perf_counter() - start, 60.0)
