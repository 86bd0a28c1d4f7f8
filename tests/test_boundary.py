"""Boundary slices, slice-norm profiles, and essential-set predictions."""

import cmath
import contextlib
import inspect
import io
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hankel_spectra import (
    BasisTruncation,
    MonomialSymbol,
    assemble,
    circle_abs_sq_range,
    containment_report,
    enumerate_spectrum,
    eigenvalues,
    parse_symbol,
    product_essential_prediction,
    slice_norm_profile,
    slice_symbol,
)
from hankel_spectra.boundary import PredictedPoint, _factor_across
from hankel_spectra.cli import main
from hankel_spectra.rational import CRat
from hankel_spectra.symbols import PolySymbol
from oracles import (
    one_angle_profile_values,
    profile_fourier_symbols,
    reference_checked_eigenvalues,
    reference_profile_values,
    solve_outcome,
    sup_norm_on_torus,
)


def test_slice_symbol_exact_points():
    sym = parse_symbol("zb1*(zb2+1)")
    assert slice_symbol(sym, CRat(1), 2) == parse_symbol("2*zb1")
    assert slice_symbol(sym, CRat(-1), 2).is_zero


def test_slice_symbol_unimodular_factor():
    sym = parse_symbol("zb1^2*zb2^3")
    q = cmath.exp(0.4j)
    sliced = slice_symbol(sym, q, 2)
    (c, h, a), = sliced.terms
    assert (h, a) == ((0,), (2,))
    assert abs(abs(complex(c)) - 1.0) < 1e-14
    assert abs(complex(c) - q.conjugate() ** 3) < 1e-14


def test_slice_symbol_guards():
    with pytest.raises(ValueError):
        slice_symbol(parse_symbol("zb1"), 1.0, 1)
    with pytest.raises(ValueError):
        slice_symbol(parse_symbol("zb1*zb2"), 0.5, 1)
    with pytest.raises(ValueError):
        slice_symbol(parse_symbol("zb1*zb2"), CRat(2), 1)


def test_profile_monomial_constant():
    # conjugate monomials have constant slice norms in every coordinate; a monomial has one
    # winding in the sliced coordinate, so its profile solves one sample and repeats the value
    trunc = BasisTruncation(8, 2)
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            sym = parse_symbol(f"zb1^{n}*zb2^{m}")
            for coord in (1, 2):
                prof = slice_norm_profile(sym, coord, 8, trunc)
                assert prof.constant and len(set(prof.values)) == 1
    prof = slice_norm_profile(parse_symbol("zb1^2*zb2"), 1, 256, BasisTruncation(6, 2))
    assert prof.constant and len(set(prof.values)) == 1


def test_profile_product_symbol_range():
    # lambda_q = |1 + conj(q)|^2 * ||H_zb||^2 sweeps [0, 4 * 1/2]
    trunc = BasisTruncation(10, 2)
    prof = slice_norm_profile(parse_symbol("zb1*(zb2+1)"), 2, 64, trunc)
    assert not prof.constant
    assert abs(prof.vmax - 2.0) < 1e-10
    assert prof.vmin < 1e-12
    theta0 = prof.values[0]  # q = 1
    assert abs(theta0 - 2.0) < 1e-12


def test_profile_labels_its_sectors_once():
    # every sample's slice has the same windings, so one labeling serves the one batched solve
    from hankel_spectra.galerkin import _sectors

    _sectors.cache_clear()
    prof = slice_norm_profile(parse_symbol("zb1*(zb2+1)*(zb3+2)"), 3, 64, BasisTruncation(6, 3))
    assert len(prof.values) == 64
    info = _sectors.cache_info()
    assert (info.misses, info.hits) == (1, 0)


_COEFFS = (CRat(1), CRat(-1), CRat(2), CRat(0, 1), CRat(1) / 2 + CRat(0, -3) / 4)


@st.composite
def _profile_cases(draw):
    dim = draw(st.integers(2, 3))
    coord = draw(st.integers(1, dim))
    exps = st.lists(st.integers(0, 2), min_size=dim, max_size=dim).map(tuple)
    # unit-size coefficients times an exact power of two: large ones make cancelling samples cancel big blocks
    scale = 2 ** draw(st.integers(0, 40))
    terms = [(draw(st.sampled_from(_COEFFS)) * scale, draw(exps), draw(exps)) for _ in range(draw(st.integers(0, 3)))]
    if terms and draw(st.booleans()):
        c, h, a = terms[0]
        k = coord - 1
        if draw(st.booleans()):
            # c X z_k^n zbar_k^m - c X z_k^n' zbar_k^m' slices to c X' - c X' = 0 exactly at q = 1
            n, m = draw(st.integers(0, 2)), draw(st.integers(0, 2))
            terms.append((c * -1, h[:k] + (n,) + h[k + 1:], a[:k] + (m,) + a[k + 1:]))
        else:
            # c X (1 + zbar_k + zbar_k^2) vanishes at q = e^{+-2 pi i / 3} (sample counts divisible
            # by 3), where its Fourier blocks cancel only up to rounding
            terms += [(c, h, a[:k] + (a[k] + j,) + a[k + 1:]) for j in (1, 2)]
    sym = PolySymbol(terms, dim=dim)
    return sym, coord, draw(st.integers(4, 64)), BasisTruncation(draw(st.integers(0, 8)), dim), scale**2


def _assert_matches_reference(got, want, unit=1.0):
    # the trigonometric polynomial rounds differently from a per-sample slice: within 1e-12 relative,
    # where unit (the squared coefficient size) bounds the rounding of blocks that cancel at a sample
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * max(unit, abs(w))


# despite the name, agreement within rounding (_assert_matches_reference), not bitwise equality
@settings(max_examples=40, deadline=None)
@given(_profile_cases())
def test_profile_equals_per_sample_solves_bitwise(case):
    sym, coord, samples, trunc, unit = case
    got = slice_norm_profile(sym, coord, samples, trunc).values
    _assert_matches_reference(got, reference_profile_values(sym, coord, samples, trunc), unit)


# one winding in coord 2 (zb2 throughout); one winding whose slice at q = 1 cancels to zero, so
# the zero symbol is its Fourier symbol; the same beside a winding that does not cancel
@settings(max_examples=40, deadline=None)
@given(_profile_cases())
@example((parse_symbol("zb1^2*zb2 + z1*zb1*zb2"), 2, 16, BasisTruncation(6, 2), 1))
@example((parse_symbol("zb1*zb2 - z2*zb1*zb2^2"), 2, 8, BasisTruncation(4, 2), 1))
@example((parse_symbol("zb1*zb2 - z2*zb1*zb2^2 + zb1^2*zb2^2"), 2, 12, BasisTruncation(5, 2), 1))
@example((parse_symbol("zb1*(zb2 + 1) + z1*zb1^2*zb3"), 2, 16, BasisTruncation(3, 3), 1))
def test_profile_equals_one_angle_solves(case):
    sym, coord, samples, trunc, unit = case
    got = slice_norm_profile(sym, coord, samples, trunc).values
    want = one_angle_profile_values(sym, coord, samples, trunc)
    if sum(not phi.is_zero for phi in profile_fourier_symbols(sym, coord).values()) <= 1:
        # no phase d != 0: the profile solves sample 0 and repeats it, bit for bit what each angle solves
        assert [v.hex() for v in got] == [v.hex() for v in want]
    else:
        _assert_matches_reference(got, want, unit)


@pytest.mark.parametrize(
    "text, coord, solved",
    [("zb1^2*zb2", 1, 1), ("zb1*(zb2+1)", 2, 256), ("zb1*zb2 - z2*zb1*zb2^2 + zb1^2*zb2^2", 2, 1)],
)
def test_profile_solves_a_theta_independent_slice_once(monkeypatch, text, coord, solved):
    from hankel_spectra import galerkin

    handed = []
    real = galerkin._checked_eigenvalues

    def counting(values, *rest):
        handed.append(values.shape[0])
        return real(values, *rest)

    monkeypatch.setattr(galerkin, "_checked_eigenvalues", counting)
    prof = slice_norm_profile(parse_symbol(text), coord, 256, BasisTruncation(6, 2))
    assert handed == [solved] and len(prof.values) == 256
    assert prof.constant == (solved == 1)


def test_profile_passes_the_guards_where_large_blocks_cancel():
    # at q = e^{+-2 pi i / 3} the slice vanishes: G_0 ~ 1.5e8 cancels to noise ~1e-9, below the
    # absolute PSD floor -1e-10, so the guards are taken relative to the blocks' size
    sym = parse_symbol("10000*zb1*(zb2^2+zb2+1)")
    trunc = BasisTruncation(8, 2)
    got = slice_norm_profile(sym, 2, 48, trunc).values
    _assert_matches_reference(got, reference_profile_values(sym, 2, 48, trunc), 1e8)


# despite the name, a profile where one sample's slice loses a term, checked within rounding
def test_profile_batches_every_exponent_list():
    # q = 1 cancels zb1*zb2 - zb1 exactly: that sample has one term fewer than the others
    sym = parse_symbol("zb1*(zb2-1) + z1*zb1*zb2")
    trunc = BasisTruncation(8, 2)
    assert len(slice_symbol(sym.as_float(), 1 + 0j, 2).terms) == 1
    got = slice_norm_profile(sym, 2, 64, trunc).values
    _assert_matches_reference(got, reference_profile_values(sym, 2, 64, trunc))
    zero = parse_symbol("zb1*(zb2-1)")
    assert slice_norm_profile(zero, 2, 8, trunc).values[0] == 0.0


def test_profile_chunks_keep_the_values(monkeypatch):
    from hankel_spectra import galerkin

    sym = parse_symbol("zb1*(zb2+1)*(zb3+2) + z1*zb2*zb3")
    trunc = BasisTruncation(5, 3)
    whole = slice_norm_profile(sym, 3, 32, trunc).values
    sliced = slice_symbol(sym.as_float(), cmath.exp(0.1j), 3)
    offsets = frozenset(galerkin._pair_offsets(sliced.terms, sliced.terms))
    groups = galerkin._sectors(BasisTruncation(5, 2), offsets)[0]
    stored = sum(g.size * g.shape[1] for g in groups)
    monkeypatch.setattr(galerkin, "MAX_STORED_ENTRIES", 3 * stored + 1)
    chunks = []
    real = galerkin._checked_eigenvalues

    def counting(values, *rest):
        chunks.append(values.shape[0])
        return real(values, *rest)

    monkeypatch.setattr(galerkin, "_checked_eigenvalues", counting)
    chunked = slice_norm_profile(sym, 3, 32, trunc).values
    assert chunks == [3] * 10 + [2]
    assert [v.hex() for v in chunked] == [v.hex() for v in whole]


_PARITY_PROFILES = [
    ("zb1*(zb2+1)", 2),
    ("(zb1+z1)*(zb2+1)", 2),
    ("zb1*(zb2-1) + z1*zb1*zb2", 2),
    ("(2-1/2i)*z2*zb1^2*zb2 + (1+i)*zb1 + (-1/2-i)*z2*zb2^2", 2),
    ("zb1*(zb2+1)*(zb3+2) + z1*zb2*zb3", 3),
]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(_PARITY_PROFILES),
    st.integers(1, 3),
    st.sampled_from([1.0, 0.5 + 1j, 1e150, 7e153, 1e200]),
    st.integers(4, 12),
    st.integers(2, 5),
    st.sampled_from([None, 2, 3]),
)
def test_cell_route_parity_with_block_stacks_on_profile_batches(case, coord, scale, samples, n_cap, chunk):
    # every batch top_eigenvalues solves, chunked too, must come out of the padded (samples,
    # stored) stacks of the same entries bit for bit, or with the same first error
    from hankel_spectra import galerkin

    text, dim = case
    sym, coord = parse_symbol(text).as_float() * scale, min(coord, dim)
    trunc = BasisTruncation(min(n_cap, 3) if dim == 3 else n_cap, dim)
    real = galerkin._checked_eigenvalues
    batches = []

    def both(values, at, mirror, groups, stored, name_of, magnitude):
        flat = np.zeros((values.shape[0], stored), dtype=complex)
        flat[:, at] = values
        want = solve_outcome(lambda: reference_checked_eigenvalues(galerkin._split(flat, groups), name_of, magnitude))
        got = solve_outcome(lambda: real(values, at, mirror, groups, stored, name_of, magnitude))
        assert got == want
        batches.append(values.shape[0])
        return real(values, at, mirror, groups, stored, name_of, magnitude)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(galerkin, "_checked_eigenvalues", both)
        if chunk is not None:  # chunks of that many samples
            fourier = profile_fourier_symbols(sym, coord).values()
            offsets = {d for phi in fourier for chi in fourier for d in galerkin._pair_offsets(phi.terms, chi.terms)}
            slice_trunc = BasisTruncation(trunc.degree_cap, dim - 1)
            patch.setattr(galerkin, "MAX_STORED_ENTRIES", chunk * galerkin._sectors(slice_trunc, frozenset(offsets))[1][2])
        with contextlib.suppress(ValueError):
            slice_norm_profile(sym, coord, samples, trunc)
    assert batches


def test_profile_keeps_the_non_finite_guard():
    trunc = BasisTruncation(4, 2)
    # every sample of this one-winding profile is the same matrix, solved once: sample 0 is the
    # first failing sample, and its slice is the one the message names
    with pytest.raises(ValueError) as failed:
        slice_norm_profile(PolySymbol([(1e200 + 0j, (0, 0), (1, 1))]), 2, 8, trunc)
    assert str(failed.value) == (
        "compression of ((1e+200+0j))*zb1 has non-finite entries; coefficients too large for floats?"
    )
    # 7e153 * zb1 * (zb2 + 1) is finite, but its slice at q = 1 squares to 1.96e308
    sym = PolySymbol([(7e153 + 0j, (0, 0), (1, 1)), (7e153 + 0j, (0, 0), (1, 0))])
    with pytest.raises(ValueError, match=r"compression of \(\(1\.4e\+154\+0j\)\)\*zb1 has non-finite"):
        slice_norm_profile(sym, 2, 8, trunc)


def test_samples_are_bounded(monkeypatch, capsys):
    from hankel_spectra import boundary
    from hankel_spectra.cli import main

    assert boundary.MAX_SAMPLES == 65536

    def no_slicing(*args):
        raise AssertionError("an over-budget profile sliced a sample")

    monkeypatch.setattr(boundary, "slice_symbol", no_slicing)
    with pytest.raises(ValueError, match="num_samples must be <= 65536"):
        boundary.slice_norm_profile(parse_symbol("zb1*(zb2+1)"), 2, 65537, BasisTruncation(2, 2))
    with pytest.raises(ValueError, match="num_samples must be <= 65536"):
        boundary.circle_abs_sq_range(parse_symbol("zb1+1"), 65537)
    assert main(["boundary", "zb1*(zb2+1)", "--samples", "100000000"]) == 2
    assert capsys.readouterr().err == "error: samples must be <= 65536\n"


def test_profile_holomorphic_zero():
    prof = slice_norm_profile(parse_symbol("z1*z2"), 2, 8, BasisTruncation(6, 2))
    assert prof.constant and prof.vmax <= 1e-12


def test_profile_zero_floor_is_relative_to_the_symbol(capsys):
    from hankel_spectra.cli import main

    # the unit-scale profile spans [0.0833, 2.1233]; at 1e-7 it spans 1e-14 times that, still an interval
    out = {}
    for scale in ("1", "1/10000000"):
        assert main(["boundary", f"{scale}*(zb1*zb2 - zb1 + z1*zb1*zb2)", "--coord", "2", "--samples", "64"]) == 0
        out[scale] = json.loads(capsys.readouterr().out)
    unit, small = out["1"], out["1/10000000"]
    assert not small["constant"] and small["prediction"]["points"] == []
    (iv,), (unit_iv,) = small["prediction"]["intervals"], unit["prediction"]["intervals"]
    assert abs(unit_iv["lo"] - 0.0833) < 1e-4 and abs(unit_iv["hi"] - 2.1233) < 1e-4
    assert iv["lo"] == pytest.approx(1e-14 * unit_iv["lo"], rel=1e-9)
    assert iv["hi"] == pytest.approx(1e-14 * unit_iv["hi"], rel=1e-9)


_terms_2d = st.lists(
    st.tuples(
        st.complex_numbers(min_magnitude=1e-2, max_magnitude=1e2, allow_nan=False, allow_infinity=False),
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=40, deadline=None)
@given(_terms_2d, st.integers(-40, 40))
@example([(1 + 0j, (1, 1), (0, 0))], -40)  # holomorphic: a zero profile of rounding noise
@example([(1 + 0j, (0, 0), (1, 1))], 40)  # a monomial in z2: constant bit for bit
@example([(1 + 0j, (0, 0), (1, 1)), (1 + 0j, (0, 0), (1, 0))], -40)  # zb1*(zb2+1): not constant
def test_profile_constant_flag_is_invariant_under_power_of_two_scaling(terms, k):
    sym = PolySymbol(terms, dim=2)
    trunc = BasisTruncation(3, 2)
    base = slice_norm_profile(sym, 2, 8, trunc)
    scaled = slice_norm_profile(sym * 2.0**k, 2, 8, trunc)
    assert scaled.constant == base.constant


def test_profile_scaling_law():
    trunc = BasisTruncation(6, 2)
    sym = parse_symbol("zb1*(zb2+1)")
    base = slice_norm_profile(sym, 2, 16, trunc)
    scaled = slice_norm_profile(sym * 3, 2, 16, trunc)
    assert np.allclose(np.array(scaled.values), 9.0 * np.array(base.values), rtol=1e-12)
    # exact form of the scaling law on the assembled matrices
    m1 = assemble(sym, trunc)
    m2 = assemble(sym * 3, trunc)
    for i in range(m1.size):
        for j in range(m1.size):
            assert m2.scaled[i][j] == m1.scaled[i][j] * 9


def test_profile_unimodular_rotation_is_cyclic_shift():
    # multiplying the z2-dependence by a grid rotation shifts the profile
    trunc = BasisTruncation(6, 2)
    samples = 16
    sym = parse_symbol("zb1*(zb2+1)")
    shift = 3
    theta0 = 2.0 * math.pi * shift / samples
    w = cmath.exp(1j * theta0)
    rotated = PolySymbol(
        [(c * (w ** h[1]) * (w.conjugate() ** a[1]), h, a) for c, h, a in sym.terms],
        dim=2,
    )
    base = slice_norm_profile(sym, 2, samples, trunc)
    rot = slice_norm_profile(rotated, 2, samples, trunc)
    assert np.allclose(np.roll(base.values, -shift), rot.values, atol=1e-10)


def test_profile_lipschitz_in_q():
    # |lambda_q1 - lambda_q2| <= C ||psi_q1 - psi_q2||_inf with C the norm sum
    trunc = BasisTruncation(8, 2)
    sym = parse_symbol("zb1*(zb2+1)")
    prof = slice_norm_profile(sym, 2, 32, trunc)
    for i, j in ((0, 1), (3, 9), (10, 25), (7, 8)):
        q1 = cmath.exp(1j * prof.thetas[i])
        q2 = cmath.exp(1j * prof.thetas[j])
        diff = slice_symbol(sym, q1, 2) - slice_symbol(sym, q2, 2)
        sup = sup_norm_on_torus(diff, 128)
        c = math.sqrt(prof.values[i]) + math.sqrt(prof.values[j])
        assert abs(prof.values[i] - prof.values[j]) <= c * sup + 1e-12


def test_circle_range():
    lo, hi = circle_abs_sq_range(parse_symbol("zb1+1"), 128)
    assert abs(lo) < 1e-10 and abs(hi - 4.0) < 1e-10
    lo, hi = circle_abs_sq_range(parse_symbol("zb1"), 64)
    assert abs(lo - 1.0) < 1e-12 and abs(hi - 1.0) < 1e-12
    lo, hi = circle_abs_sq_range(parse_symbol("z1^2 + 2"), 256)
    assert abs(lo - 1.0) < 1e-9 and abs(hi - 9.0) < 1e-9
    # the critical-point polynomial has a leading coefficient near 1e-320 and others near 1e-10
    chi = PolySymbol([(1e-160, (0,), (0,)), (1e150, (0,), (1,)), (1e-160, (0,), (5,))], dim=1)
    lo, hi = circle_abs_sq_range(chi, 8)
    assert abs(lo / 1e300 - 1.0) < 1e-12 and abs(hi / 1e300 - 1.0) < 1e-12


def _grid_abs_sq(terms, points):
    """|chi|^2 on a uniform grid of the circle, summed by numpy from the (c, h, a) terms."""
    theta = 2.0 * np.pi * np.arange(points) / points
    values = sum(c * np.exp(1j * (h - a) * theta) for c, h, a in terms)
    return np.abs(values) ** 2


def test_circle_range_finds_extrema_between_coarse_grid_points(capsys):
    from hankel_spectra.cli import main

    # the minimum lies between grid points of an 8-sample grid
    lo, hi = circle_abs_sq_range(parse_symbol("2*zb1 - 1 - 2*z1^4"), 8)
    dense = _grid_abs_sq([(2, 0, 1), (-1, 0, 0), (-2, 4, 0)], 2**16)
    assert abs(lo - 0.0262193) < 1e-7
    assert 0.0 <= dense.min() - lo <= 0.5 * (math.pi / 2**16) ** 2 * 5**2 * hi  # Bernstein, span 5
    assert abs(hi - 25.0) < 1e-12 and hi >= dense.max() - 1e-12
    symbol = "zb1*(2*zb2 - 1 - 2*z2^4)"
    assert main(["boundary", symbol, "--coord", "2", "--degree", "4", "--samples", "8"]) == 0
    out = json.loads(capsys.readouterr().out)
    (half,) = [iv for iv in out["prediction"]["intervals"] if iv["mu"] == 0.5]
    assert abs(half["lo"] - 0.5 * lo) < 1e-15 and abs(half["lo"] - 0.013110) < 1e-6


_coefficients = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False)
_exponents = st.integers(0, 6)


@settings(max_examples=60, deadline=None)
@given(_coefficients, _coefficients, _exponents, _exponents, _exponents, _exponents, st.integers(4, 64))
def test_circle_range_of_two_windings_is_closed_form(a, b, p, q, r, s, samples):
    if p - q == r - s:
        return
    lo, hi = circle_abs_sq_range(PolySymbol([(a, (p,), (q,)), (b, (r,), (s,))], dim=1), samples)
    tol = 1e-12 * (abs(a) + abs(b)) ** 2
    assert abs(lo - (abs(a) - abs(b)) ** 2) <= tol
    assert abs(hi - (abs(a) + abs(b)) ** 2) <= tol


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_coefficients, _exponents, _exponents), min_size=1, max_size=4), st.integers(4, 64))
# 1 + zbar + 6.7e-280i z: a leading critical-point coefficient 1e-279 of the others once lost the minimum 0
@example([(1 + 0j, 0, 0), (1 + 0j, 0, 1), (-1 + 0j, 1, 0), (1 + 6.697432834898251e-280j, 1, 0)], 5)
# 1 - 260 z + (260 + 2.5e-24i) z: the unmerged terms once summed to a grid minimum 1.2e-13 below 1
@example([(1 + 0j, 0, 0), (-260 + 0j, 1, 0), (260 + 2.49e-24j, 1, 0)], 4)
# 1 - 1000 z^6 zbar^6 + 1000 = 1 on the circle: the range, summed term by term, reads 1 - 2.7e-12
@example([(1 + 0j, 0, 0), (-1000 + 0j, 6, 6), (1000 + 0j, 0, 0)], 16)
def test_circle_range_brackets_a_dense_grid(terms, samples):
    chi = PolySymbol([(c, (h,), (a,)) for c, h, a in terms], dim=1)
    lo, hi = circle_abs_sq_range(chi, samples)
    merged = [(c, h[0], a[0]) for c, h, a in chi.as_float().terms]
    dense = _grid_abs_sq(merged, 4096)
    windings = [h - a for _, h, a in terms]
    # Bernstein: |f''| <= span^2 max f, and every extremum is within pi/4096 of a grid point
    over = 0.5 * (math.pi / 4096) ** 2 * (max(windings) - min(windings)) ** 2 * hi + 1e-13 * hi
    # chi is summed term by term in floats: each term's rounding grows with |c| and its
    # exponents, and |chi|^2 about doubles the error of |chi| <= sqrt(hi)
    rounding = sum(abs(c) * (h + a + 1) for c, h, a in merged) * np.finfo(float).eps
    slack = 1e-13 * max(1.0, hi) + 4 * rounding * max(1.0, math.sqrt(hi))
    assert lo <= dense.min() + slack and hi >= dense.max() - slack
    assert lo >= dense.min() - over - slack and hi <= dense.max() + over + slack


def test_circle_range_degree_budget():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="chi has degree 201 on the circle; at most 128"):
        circle_abs_sq_range(parse_symbol("zb1^200 + z1 + 1"))
    assert time.perf_counter() - start < 0.1
    # the winding gap 100000 reduces to degree 1
    lo, hi = circle_abs_sq_range(parse_symbol("zb1^100000 + 1"))
    assert abs(lo) < 1e-9 and abs(hi - 4.0) < 1e-12


@pytest.mark.parametrize("holo", ["[0,1]", "[0,0]"])
def test_circle_range_overflow_exits_2(capsys, holo):
    from hankel_spectra.cli import main

    # chi = 1 + 1e300 z2 zb2 (holo [0,1]) or 1 + 1e300 zb2 (holo [0,0]): |chi|^2 overflows
    symbol = (
        '{"dim":2,"terms":[{"coeff":[1e-150,0],"holo":[0,0],"antiholo":[1,0]},'
        '{"coeff":[1e150,0],"holo":%s,"antiholo":[1,1]}]}' % holo
    )
    assert main(["boundary", symbol, "--coord", "2", "--degree", "2", "--samples", "8"]) == 2
    assert capsys.readouterr().err == (
        "error: the circle range of |chi|^2 overflows floats; coefficients too large?\n"
    )


def test_circle_range_takes_four_samples(capsys):
    from hankel_spectra.cli import main

    assert circle_abs_sq_range(parse_symbol("zb1+1"), 4) == circle_abs_sq_range(parse_symbol("zb1+1"), 128)
    with pytest.raises(ValueError, match="num_samples must be >= 4"):
        circle_abs_sq_range(parse_symbol("zb1+1"), 3)
    assert main(["boundary", "zb1*(zb2+1)", "--coord", "2", "--samples", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["profile"]["samples"]) == 4


def test_circle_range_of_a_subnormal_coefficient(capsys):
    from hankel_spectra.cli import main

    # np.roots divided by the subnormal leading slope, and numpy's complex division overflowed
    for tiny in (3e-309, 5e-324):
        chi = PolySymbol([(1.0 + 0j, (0,), (0,)), (tiny + 0j, (0,), (1,))], dim=1)
        assert circle_abs_sq_range(chi, 8) == (1.0, 1.0)
    symbol = (
        '{"dim":2,"terms":[{"coeff":[1.0,0.0],"holo":[0,0],"antiholo":[1,0]},'
        '{"coeff":[3e-309,0.0],"holo":[0,0],"antiholo":[1,1]}]}'
    )
    assert main(["boundary", symbol, "--coord", "2", "--degree", "4", "--samples", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["prediction_source"] == "product-factorization"


def test_product_prediction_interval():
    pred = product_essential_prediction(
        parse_symbol("zb1"), parse_symbol("zb1+1"), 128, BasisTruncation(4, 1)
    )
    assert pred.covers_interval(0.0, 2.0, tol=1e-9)
    half = [iv for iv in pred.intervals if abs(iv.mu - 0.5) < 1e-12]
    assert half and abs(half[0].hi - 2.0) < 1e-9


def test_product_prediction_unimodular_chi():
    spec = enumerate_spectrum(MonomialSymbol((0,), (1,)), 4)
    pred = product_essential_prediction(
        parse_symbol("zb1"), parse_symbol("zb1"), 64, BasisTruncation(4, 1)
    )
    assert not pred.intervals
    got = sorted(p.value for p in pred.points)
    want = sorted({float(v) for v in spec.values()})
    assert np.allclose(got, want, atol=1e-12)


def test_product_prediction_scales_a_one_term_phi():
    # c * z^n zbar^m is enumerated like z^n zbar^m, its values |c|^2 times, rounded once
    chi, trunc = parse_symbol("zb1"), BasisTruncation(4, 1)
    spec = enumerate_spectrum(MonomialSymbol((0,), (2,)), 4)
    for phi, scale in (("zb1^2", 1), ("2*zb1^2", 4), ("(1/3+i)*zb1^2", Fraction(10, 9))):
        pred = product_essential_prediction(parse_symbol(phi), chi, 64, trunc)
        assert not pred.intervals
        assert {p.source for p in pred.points} == {"exact-monomial(cap=4)"}
        assert sorted(p.value for p in pred.points) == sorted({float(v * scale) for v in spec.values()})
    float_phi = parse_symbol("zb1^2").as_float() * (0.6 - 0.8j)  # |c| = 1 up to rounding
    pred = product_essential_prediction(float_phi, chi, 64, trunc)
    assert np.allclose(sorted(p.value for p in pred.points), sorted({float(v) for v in spec.values()}), rtol=1e-15, atol=0)
    with pytest.raises(ValueError, match="non-finite entries"):
        product_essential_prediction(parse_symbol("10^200*zb1^2"), chi, 64, trunc)


def test_product_prediction_holomorphic_phi():
    pred = product_essential_prediction(
        parse_symbol("z1^2"), parse_symbol("zb1+1"), 64, BasisTruncation(3, 1)
    )
    vals = [p.value for p in pred.points] + [iv.lo for iv in pred.intervals] + [
        iv.hi for iv in pred.intervals
    ]
    assert max(abs(v) for v in vals) < 1e-12


def test_a_holomorphic_phi_of_several_terms_predicts_the_point_zero(capsys):
    assert main(["boundary", "(z1+z1^2)*zb2", "--coord", "2", "--degree", "3", "--samples", "8"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["prediction_source"] == "product-factorization"
    assert obj["prediction"] == {"intervals": [], "points": [{"mu": 0.0, "source": "holomorphic", "value": 0.0}]}


def test_containment_report_points_match_diagonal():
    sym = parse_symbol("zb1", dim=2)
    w = eigenvalues(assemble(sym, BasisTruncation(20, 2)))
    pred = product_essential_prediction(
        parse_symbol("zb1"), parse_symbol("zb1"), 64, BasisTruncation(6, 1)
    )
    report = containment_report(pred, w, 1e-10)
    # every nonzero predicted point is a diagonal entry of the compression;
    # 0 is a pure limit point and only approached as N grows
    nonzero = [p for p in report["points"] if p["value"] > 0]
    assert nonzero and all(p["matched"] for p in nonzero)
    zero_gap = [p["gap"] for p in report["points"] if p["value"] == 0.0]
    assert zero_gap and zero_gap[0] < 3e-3


def test_containment_report_gap_trend():
    sym = parse_symbol("zb1*(zb2+1)")
    pred = product_essential_prediction(
        parse_symbol("zb1"), parse_symbol("zb1+1"), 64, BasisTruncation(2, 1)
    )
    gaps = []
    for n in (8, 12):
        w = eigenvalues(assemble(sym, BasisTruncation(n, 2)))
        report = containment_report(pred, [float(x) for x in w], 1e-8)
        top = [iv for iv in report["intervals"] if iv["hi"] > 1.9]
        gaps.append(top[0]["max_gap"])
    assert gaps[1] < gaps[0]


def test_containment_report_empty_prediction():
    from hankel_spectra import EssentialSetPrediction

    report = containment_report(EssentialSetPrediction((), ()), [0.1, 0.2], 1e-8)
    assert report["points"] == [] and report["intervals"] == []
    with pytest.raises(ValueError):
        containment_report(EssentialSetPrediction((), ()), [], -1.0)
    # tol 0 is the zero symbol's: its one point has gap exactly 0
    report = containment_report(EssentialSetPrediction((PredictedPoint(0.0, 0.0, "holomorphic"),), ()), [0.0], 0.0)
    assert report["tol"] == 0.0 and report["all_points_matched"]


def test_containment_report_refuses_a_nan_tol():
    # no gap is <= NaN, so a NaN tol would report every point unmatched, with "tol": NaN
    from hankel_spectra import EssentialSetPrediction

    prediction = EssentialSetPrediction((PredictedPoint(0.0, 0.0, "holomorphic"),), ())
    with pytest.raises(ValueError, match="tol must be non-negative"):
        containment_report(prediction, [0.0], math.nan)


def test_prediction_has_one_truncation():
    params = inspect.signature(product_essential_prediction).parameters
    assert "alpha_cap" not in params and params["trunc"].default is inspect.Parameter.empty
    # a monomial phi is enumerated over the box alpha <= N that its compression covers
    pred = product_essential_prediction(parse_symbol("zb1"), parse_symbol("zb1"), 8, BasisTruncation(5, 1))
    want = [float(v) for v in enumerate_spectrum(MonomialSymbol((0,), (1,)), 5).values()]
    assert [p.value for p in pred.points] == pytest.approx(want, abs=1e-15)
    assert {p.source for p in pred.points} == {"exact-monomial(cap=5)"}


def _boundary_json(symbol, *options) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["boundary", symbol, *options]) == 0  # the symbol may start with "-"
    return json.loads(out.getvalue())


def test_point_match_tolerance_follows_the_coefficients():
    args = ("--coord", "2", "--degree", "8", "--samples", "16")
    # an absolute 1e-9 matched every point of 1/100000*zb1*zb2 (gaps up to 5e-12)
    small = _boundary_json("1/100000*zb1*zb2", *args)["containment"]
    assert small["tol"] == pytest.approx(1e-19, rel=1e-12) and not small["all_points_matched"]
    assert max(p["gap"] for p in small["points"]) == pytest.approx(5e-12, rel=1e-9)
    assert _boundary_json("1000*zb1*zb2", *args)["containment"]["tol"] == pytest.approx(1e-3, rel=1e-12)
    assert _boundary_json("zb1*(zb2+1)", *args)["containment"]["tol"] == 1e-9
    zero = _boundary_json("0", "--dim", "2", *args)["containment"]
    assert zero["tol"] == 0.0 and zero["all_points_matched"] and [p["gap"] for p in zero["points"]] == [0.0]


_gaussian = st.builds(
    lambda re, d, im: CRat(Fraction(re, d), im), st.integers(-3, 3), st.sampled_from([1, 2, 4]), st.integers(-3, 3)
).filter(bool)
_factor_terms = st.lists(st.tuples(_gaussian, st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=2)


@settings(max_examples=40, deadline=None)
@given(_factor_terms, _factor_terms, st.one_of(st.none(), _gaussian), st.integers(-20, 20))
# (-2+4i)*z1*zb1*zb2^2 + (1-2i)*z1*z2^2*zb1: with an absolute point floor its
# intervals turned into points at 2^-20
@example([(CRat(1), 1, 1)], [(CRat(-2, 4), 0, 2), (CRat(1, -2), 2, 0)], None, -20)
# phi = zb1 was enumerated and 2*zb1 compressed, so the scaled prediction changed route
@example([(CRat(1), 0, 1)], [(CRat(1), 0, 1), (CRat(1), 0, 0)], None, 1)
def test_point_matching_is_invariant_under_power_of_two_scaling(phi, chi, nudge, k):
    sym = PolySymbol([(c, (h, 0), (a, 0)) for c, h, a in phi], dim=2) * PolySymbol(
        [(c, (0, h), (0, a)) for c, h, a in chi], dim=2
    )
    if nudge is not None:  # most often no product any more: the slice-profile route
        sym = sym + PolySymbol([(nudge, (1, 1), (0, 0))], dim=2)
    args = ("--dim", "2", "--coord", "2", "--degree", "4", "--samples", "8")
    base = _boundary_json(sym.to_expression(), *args)
    scaled = _boundary_json((sym * CRat(Fraction(2) ** k)).to_expression(), *args)

    def sources(obj):
        return sorted(e["source"] for part in obj["prediction"].values() for e in part)

    # a one-term phi is enumerated whatever its coefficient, so scaling keeps every route
    assert sources(scaled) == sources(base)
    b, s = base["containment"], scaled["containment"]
    unit = 4.0**k * b["tol"] / 1e-9  # |c|^2 of the scaled symbol
    assert s["tol"] == b["tol"] * 4.0**k
    assert len(s["points"]) == len(b["points"]) and len(s["intervals"]) == len(b["intervals"])
    for p, q in zip(b["points"], s["points"]):
        assert q["gap"] == pytest.approx(p["gap"] * 4.0**k, rel=1e-12, abs=1e-12 * unit)
        assert q["matched"] == p["matched"]
    for p, q in zip(b["intervals"], s["intervals"]):
        assert (q["lo"], q["hi"]) == pytest.approx((p["lo"] * 4.0**k, p["hi"] * 4.0**k), rel=1e-12, abs=1e-12 * unit)
    assert s["all_points_matched"] == b["all_points_matched"]


_wide = st.one_of(
    _gaussian, st.complex_numbers(min_magnitude=1e-300, max_magnitude=1e300, allow_nan=False, allow_infinity=False)
)
_exponent = st.tuples(st.integers(0, 2))
_pair = st.tuples(st.integers(0, 2), st.integers(0, 2))
_triple = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


def _embed(terms, dim: int, coords) -> PolySymbol:
    """A symbol of dim coordinates whose terms (c, h, a) have their exponents at the 0-based coords."""

    def place(exponents):
        out = [0] * dim
        for k, e in zip(coords, exponents):
            out[k] = e
        return tuple(out)

    return PolySymbol([(c, place(h), place(a)) for c, h, a in terms], dim=dim)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_wide, _pair, _pair), min_size=1, max_size=3),
    st.lists(st.tuples(_wide, _exponent, _exponent), min_size=1, max_size=3),
    st.lists(st.tuples(_wide, _triple, _triple), max_size=2),
    st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]),
)
# 1e-30 * (zb1 + 1e-300*z1) drops its z1 term, and 7*z1*zb2 went unchecked
@example(
    [(1.0 + 0j, (0,), (1,)), (1e-300 + 0j, (1,), (0,))],
    [(1.0 + 0j, (0,), (0,)), (1e-30 + 0j, (0,), (1,))],
    [(7.0 + 0j, (1, 0), (0, 1))],
    (2, 2),
)
# 1e-300*i * (1 + inf*zb1): the ratio of the zb1 row to the constant overflows, so the
# factorization pivots on the largest |c|
@example(
    [(1e-300 + 0j, (0,), (0,)), (179769314 + 179769314j, (0,), (1,))], [(CRat(0, 1), (0,), (0,))], [], (2, 1)
)
# zb1 * (1e150 + 1e-170*zb2): chi's ratio 1e-320 is subnormal, so chi_r * phi misses the symbol by 1e-5
@example([(1.0 + 0j, (0, 0), (1, 0))], [(1e150 + 0j, (0,), (0,)), (1e-170 + 0j, (0,), (1,))], [], (2, 2))
# (1e-170 + 1e150*zb1) * 1: phi's first term is 1e-320 of its largest, a subnormal at any common scale
@example([(1e-170 + 0j, (0,), (0,)), (1e150 + 0j, (0,), (1,))], [(1.0 + 0j, (0,), (0,))], [], (2, 2))
# (1e-315+2e-316i + zb1) * (1 + b*zb2): the ratio of two subnormal coefficients is formed exactly and rounded once
@example(
    [(1e-315 + 2e-316j, (0,), (0,)), (1.0 + 0j, (0,), (1,))],
    [(1.0 + 0j, (0,), (0,)), (1.1211538497387457 + 0.10576923035629128j, (0,), (1,))],
    [],
    (2, 2),
)
# (1 + 0.1*zb1) * (1 + 1/10*zb2) and (1 + 0.1*zb1) * (3 + 1/3*zb2) mix exact and float coefficients; in the
# second the exact ratio 1/9 of the zb2 row's exact entries, times the float 0.30000000000000004, misses
# the float product 0.1 * 1/3 in its last bit, and a per-row exact match refused the product
@example([(CRat(1), (0,), (0,)), (0.1 + 0j, (0,), (1,))], [(CRat(1), (0,), (0,)), (CRat(Fraction(1, 10)), (0,), (1,))], [], (2, 2))
@example([(CRat(1), (0,), (0,)), (0.1 + 0j, (0,), (1,))], [(CRat(3), (0,), (0,)), (CRat(Fraction(1, 3)), (0,), (1,))], [], (2, 2))
def test_factorization_multiplies_back_to_the_symbol(phi, chi, extra, shape):
    # phi lives on all coordinates but the last and chi on the last; in dim 3 a middle coord
    # splits the exponents on both sides of the sliced one
    dim, coord = shape
    phi_sym, chi_sym = _embed(phi, dim, range(dim - 1)), _embed(chi, dim, [dim - 1])
    psi = phi_sym * chi_sym + _embed(extra, dim, range(dim))
    assume(all(cmath.isfinite(complex(c)) for c, _, _ in psi.terms))
    factored = _factor_across(psi, coord)
    # psi = phi * chi across coord with no term lost to underflow: with every |c| normal, below 2**1000
    # and within 2**1070 of each other, every ratio the factorization forms is finite and non-zero
    # (hypot, not abs: the modulus of finite parts can pass the float range, which abs raises on)
    mags = [math.hypot(complex(c).real, complex(c).imag) for c, _, _ in psi.terms]
    if (not extra and coord == dim and mags and len(mags) == len(phi_sym.terms) * len(chi_sym.terms)
            and sys.float_info.min <= min(mags) and max(mags) <= 2.0**1000
            and math.log2(max(mags)) - math.log2(min(mags)) <= 1070):
        assert factored is not None
    if factored is None:
        return
    k = coord - 1
    rest = [j for j in range(dim) if j != k]
    back = _embed(factored[0].terms, dim, rest) * _embed(factored[1].terms, dim, [k])
    if psi.is_exact:
        assert back == psi
        return
    # per term, to the factorization's 1e-12 * max|c| over the terms of psi with the same z_coord
    # exponents, plus |phi| times the spacing 2**-1074 that a subnormal chi coefficient is rounded to
    scale: dict = {}
    for c, h, a in psi.terms:
        scale[h[k], a[k]] = max(scale.get((h[k], a[k]), 0.0), abs(complex(c)))
    phi_of = {(h, a): abs(complex(c)) for c, h, a in factored[0].terms}
    want = {(h, a): c for c, h, a in psi.terms}
    got = {(h, a): c for c, h, a in back.terms}
    assert got.keys() == want.keys()
    for (h, a), c in want.items():
        slack = math.ulp(0.0) * phi_of[h[:k] + h[k + 1:], a[:k] + a[k + 1:]]
        assert abs(complex(got[h, a]) - complex(c)) <= 1e-12 * scale[h[k], a[k]] + slack


def test_a_subnormal_ratio_keeps_the_rank_one_resolution():
    # zb1*(1 + 2*z1)*(1e150 + 1e-170*zb2) factors over z2.  Raising the z1*zb1*zb2 coefficient by
    # 5e-5 of its row breaks the product, though the subnormal ratio 1e-320 holds that row only to 1e-5
    def sym(c):
        return PolySymbol([(1e150 + 0j, (0, 0), (1, 0)), (2e150 + 0j, (1, 0), (1, 0)),
                           (1e-170 + 0j, (0, 0), (1, 1)), (c, (1, 0), (1, 1))])

    assert _factor_across(sym(2e-170 + 0j), 2) is not None
    assert _factor_across(sym(2.0001e-170 + 0j), 2) is None


def test_a_ratio_that_rounds_to_zero_is_no_factorization():
    # 1e300*(1 + zb1) + 1e-30*(1 + zb1)*zb2 is 1e300*(1 + zb1)*(1 + 1e-330*zb2) and passes the exact
    # rank-one test, but the ratio 1e-330 rounds to 0.0, and a chi without its zb2 term is no factor
    sym = PolySymbol([(1e300 + 0j, (0, 0), (0, 0)), (1e300 + 0j, (0, 0), (1, 0)),
                      (1e-30 + 0j, (0, 0), (0, 1)), (1e-30 + 0j, (0, 0), (1, 1))])
    assert _factor_across(sym, 2) is None


def test_a_float_chi_is_the_exact_ratio_rounded_once():
    # (0.1+0.2i + zb1) * (1 + (0.3-0.7i)*zb2) in floats: chi's zb2 coefficient is the ratio of the
    # stored floats, the zb2 row's constant to 0.1+0.2i, rounded once; complex division gave 0.3-0.7i
    a = PolySymbol([(0.1 + 0.2j, (0, 0), (0, 0)), (1.0 + 0j, (0, 0), (1, 0))])
    b = PolySymbol([(1.0 + 0j, (0, 0), (0, 0)), (0.3 - 0.7j, (0, 0), (0, 1))])
    psi = a * b
    row = {(h, a): c for c, h, a in psi.terms}[(0, 0), (0, 1)]
    ratio = CRat(Fraction(row.real), Fraction(row.imag)) / CRat(Fraction(0.1), Fraction(0.2))
    _, chi = _factor_across(psi, 2)
    assert {(h, a): c for c, h, a in chi.terms}[(0,), (1,)] == complex(ratio) == 0.3 - 0.6999999999999998j


def test_boundary_report_checks_its_request_first(monkeypatch):
    from hankel_spectra import boundary

    def no_assembly(*args):
        raise AssertionError("boundary_report started work on a bad request")

    monkeypatch.setattr(boundary, "assemble", no_assembly)
    for sym, coord, samples, message in (
        (parse_symbol("zb1*(zb2+1)"), 3, 16, r"coord 3 out of range 1\.\.2"),
        (parse_symbol("zb1"), 1, 16, "profiles need dim >= 2"),
        (parse_symbol("zb1*zb2 + z1"), 2, 3, "num_samples must be >= 4"),
    ):
        with pytest.raises(ValueError, match=message) as info:
            boundary.boundary_report(sym, coord, samples, BasisTruncation(4, sym.dim))
        assert "\n" not in str(info.value)


def test_boundary_degree_over_the_basis_budget_exits_2_at_once(capsys):
    # a monomial phi is enumerated with cap N: the basis guard refuses N before the enumeration budget is reached
    for symbol, degree, dim in (("zb1*zb2*zb3", 400, 3), ("zb1*zb2", 99998, 2)):
        start = time.perf_counter()
        assert main(["boundary", symbol, "--degree", str(degree)]) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert err == f"error: basis size (N+1)^dim exceeds guard 20000 (N={degree}, dim={dim})\n"
