"""Radial-integral engine: norms, integrals, and quasi-homogeneous eigenvalues."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hankel_spectra import (
    QhBranch,
    QuasiHomogeneousSymbol,
    RadialProfile,
    lambda_value,
    monomial_norm_sq,
    qh_eigenvalue,
    qh_eigenvalue_box,
    radial_integral,
)
from oracles import qh_point_oracle, radial_integral_oracle


def test_monomial_norms():
    # the pi^n coefficient, an exact Fraction
    assert monomial_norm_sq((0, 0)) == 1  # pi^2
    assert monomial_norm_sq((1,)) == Fraction(1, 2)  # pi/2
    assert monomial_norm_sq((2, 3, 4)) == Fraction(1, 60)  # pi^3/60
    assert isinstance(monomial_norm_sq((2, 3, 4)), Fraction)


def test_radial_integral_matches_norm_formula():
    # f = 1 with exponent 2 alpha reproduces ||z^alpha||^2
    ones = RadialProfile.polynomial([[1]])
    for a in range(6):
        got = radial_integral(ones, (2 * a,))
        assert got == Fraction(1, a + 1) and isinstance(got, Fraction)  # pi^1 coefficient


def test_radial_integral_polynomial_factor():
    prof = RadialProfile.polynomial([[0, 0, 1]])  # f(r) = r^2
    got = radial_integral(prof, (0,))
    assert got == Fraction(1, 2)  # value pi/2


def test_radial_integral_separable_two_factors():
    # f = (r, 1): (2 pi * 1/4)(2 pi * 1/2) = pi^2/2
    prof = RadialProfile.polynomial([[0, 1], [1]])
    got = radial_integral(prof, (1, 0))
    assert got == Fraction(1, 2)  # value pi^2/2
    oracle = radial_integral_oracle([lambda r: r, lambda r: np.ones_like(r)], (1, 0))
    assert abs(float(got) * np.pi**2 - oracle) < 1e-12


def test_radial_integral_float_path_matches_exact():
    coeffs = [Fraction(1, 3), 0, Fraction(2, 5), 1]
    prof_exact = RadialProfile.polynomial([coeffs])
    fn = lambda r: sum(float(c) * r**k for k, c in enumerate(coeffs))
    prof_quad = RadialProfile.from_callables([fn])
    for p in (-1, 0, 3, 8):
        exact = radial_integral(prof_exact, (p,))
        assert isinstance(exact, Fraction)
        # compared as values, coefficient times pi
        assert abs(float(exact) - radial_integral(prof_quad, (p,))) * np.pi < 1e-13


def test_radial_integral_integrability_guard():
    prof = RadialProfile.polynomial([[1]])
    with pytest.raises(ValueError):
        radial_integral(prof, (-2,))
    # r^2 factor shifts the integrable range
    shifted = RadialProfile.polynomial([[0, 0, 1]])
    assert radial_integral(shifted, (-2,)) == Fraction(1)
    fn = RadialProfile.from_callables([lambda r: np.ones_like(r)])
    with pytest.raises(ValueError):
        radial_integral(fn, (-2,))


def test_unbounded_profile_rejected():
    prof = RadialProfile.from_callables([lambda r: 1.0 / r])
    with pytest.raises(ValueError):
        radial_integral(prof, (0,))


def test_qh_eigenvalue_conjugate_coordinate():
    sym = QuasiHomogeneousSymbol.from_monomial((0,), (1,))
    ev = qh_eigenvalue(sym, (0,))
    assert ev.branch is QhBranch.KERNEL
    assert ev.value == Fraction(1, 2)
    ev1 = qh_eigenvalue(sym, (1,))
    assert ev1.branch is QhBranch.PROJECTION
    assert ev1.value == Fraction(1, 6)


def test_qh_eigenvalue_holomorphic_vanishes():
    for j in (1, 2, 3):
        sym = QuasiHomogeneousSymbol.from_monomial((j,), (0,))
        for a in range(4):
            assert qh_eigenvalue(sym, (a,)).value == 0


def test_qh_eigenvalue_radial():
    sym = QuasiHomogeneousSymbol(RadialProfile.polynomial([[0, 0, 1]]), (0,))
    assert qh_eigenvalue(sym, (0,)).value == Fraction(1, 12)


def test_qh_eigenvalue_unimodular_symbol():
    # f = 1, winding 1 on the disc: eigenvalue 1 - |I(2a+1)|^2/(n_a n_{a+1}) = 1/(2a+3)^2
    sym = QuasiHomogeneousSymbol(RadialProfile.polynomial([[1]]), (1,))
    one = lambda r: np.ones_like(r)
    for a in range(4):
        got = qh_eigenvalue(sym, (a,)).value
        assert got == Fraction(1, (2 * a + 3) ** 2)
        cross = radial_integral_oracle([one], (2 * a + 1,))
        na = np.pi / (a + 1)
        nak = np.pi / (a + 2)
        assert abs(float(got) - (1.0 - cross**2 / (na * nak))) < 1e-12


def test_qh_matches_core_exactly():
    for dim in (1, 2):
        full = frozenset(range(1, dim + 1))
        for n in product(range(4), repeat=dim):
            for m in product(range(4), repeat=dim):
                sym = QuasiHomogeneousSymbol.from_monomial(n, m)
                for alpha in product(range(4), repeat=dim):
                    assert qh_eigenvalue(sym, alpha).value == lambda_value(n, m, alpha, full)


def test_qh_float_path_matches_exact_to_tolerance():
    for n1, m1 in product(range(3), repeat=2):
        fn = lambda r, d=n1 + m1: r**d
        sym = QuasiHomogeneousSymbol(RadialProfile.from_callables([fn]), (n1 - m1,))
        for a in range(4):
            got = qh_eigenvalue(sym, (a,)).value
            want = float(lambda_value((n1,), (m1,), (a,), {1}))
            assert abs(got - want) < 1e-12


def test_qh_float_path_dim2():
    n, m = (1, 0), (1, 2)
    fns = [lambda r: r**2, lambda r: r**2]
    sym = QuasiHomogeneousSymbol(RadialProfile.from_callables(fns), (0, -2))
    for alpha in product(range(3), repeat=2):
        got = qh_eigenvalue(sym, alpha).value
        want = float(lambda_value(n, m, alpha, {1, 2}))
        assert abs(got - want) < 1e-12


def test_qh_positivity_and_cauchy_schwarz():
    profiles = [
        RadialProfile.polynomial([[Fraction(1, 2), Fraction(-1, 3), 1]]),
        RadialProfile.from_callables([lambda r: np.cos(3 * r)]),
    ]
    for prof, k in product(profiles, ((0,), (1,), (-2,))):
        sym = QuasiHomogeneousSymbol(prof, k)
        for a in range(5):
            v = float(qh_eigenvalue(sym, (a,)).value)
            assert v >= -1e-12


def test_qh_spectrum_matches_enumeration_diagonal():
    from hankel_spectra import MonomialSymbol, enumerate_spectrum
    from hankel_spectra.multiindex import full_set

    n, m = (1, 0), (1, 1)
    sym = QuasiHomogeneousSymbol.from_monomial(n, m)
    evs = [qh_eigenvalue(sym, alpha) for alpha in product(range(4), repeat=2)]
    assert all(e.is_exact for e in evs)
    diag = {
        lambda_value(n, m, alpha, full_set(2))
        for alpha in product(range(4), repeat=2)
    }
    assert {e.value for e in evs} == diag
    # diagonal family values all appear in the core enumeration
    core_vals = enumerate_spectrum(MonomialSymbol(n, m), 3).value_set()
    assert diag <= core_vals


def test_qh_spectrum_zero_profile():
    sym = QuasiHomogeneousSymbol(RadialProfile.polynomial([[0]]), (1,))
    values = {qh_eigenvalue(sym, (a,)).value for a in range(4)}
    assert values == {Fraction(0)}


def test_quadrature_doubling_stability():
    # forced float path, polynomial profile of degree 20
    coeffs = tuple(1.0 / (k + 1) for k in range(21))
    fn = lambda r: sum(c * r**k for k, c in enumerate(coeffs))
    sym = QuasiHomogeneousSymbol(RadialProfile.from_callables([fn]), (2,))
    for a in range(6):
        v64 = qh_eigenvalue(sym, (a,), nodes=64).value
        v128 = qh_eigenvalue(sym, (a,), nodes=128).value
        assert abs(v64 - v128) < 1e-10


_coeffs = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5), min_size=1, max_size=4)


@st.composite
def _qh_boxes(draw):
    """A polynomial profile (monomial factors among them), a winding, a box of alpha, and
    whether the factors run as callables (the quadrature path)."""
    dim = draw(st.integers(1, 3))
    factors = [draw(st.one_of(_coeffs, st.integers(0, 4).map(lambda d: [0] * d + [1]))) for _ in range(dim)]
    winding = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
    starts = draw(st.lists(st.integers(0, 3), min_size=dim, max_size=dim))
    lengths = draw(st.lists(st.integers(1, (5, 3, 2)[dim - 1]), min_size=dim, max_size=dim))
    return factors, winding, [range(a, a + n) for a, n in zip(starts, lengths)], draw(st.booleans())


def _profile(factors, callables: bool) -> RadialProfile:
    if not callables:
        return RadialProfile.polynomial(factors)
    fns = [lambda r, c=tuple(map(float, cs)): sum(ck * r**k for k, ck in enumerate(c)) for cs in factors]
    return RadialProfile.from_callables(fns)


@settings(max_examples=80, deadline=None)
@given(_qh_boxes())
@example(([[0, 1]], [-2], [range(4)], False))  # kernel branch at a < 2, projection from a = 2
@example(([[1, 0, Fraction(-1, 2)], [0, 0, 1]], [1, -1], [range(3), range(3)], False))
@example(([[1, 0, Fraction(-1, 2)], [0, 0, 1]], [1, -1], [range(3), range(3)], True))
@example(([[0]], [1], [range(3)], False))  # the zero profile
def test_box_matches_the_point_oracle(case):
    factors, winding, axes, callables = case
    sym = QuasiHomogeneousSymbol(_profile(factors, callables), winding)
    got = qh_eigenvalue_box(sym, axes)
    alphas = list(product(*axes))
    assert [ev.alpha for ev in got] == alphas
    for ev, alpha in zip(got, alphas):
        value, branch = qh_point_oracle(sym, alpha)
        assert ev.branch is branch
        assert ev.value == value and type(ev.value) is type(value)
        assert qh_eigenvalue(sym, alpha) == ev


def test_box_examples_cover_both_branches():
    sym = QuasiHomogeneousSymbol(RadialProfile.polynomial([[0, 1]]), (-2,))
    branches = [ev.branch for ev in qh_eigenvalue_box(sym, [range(4)])]
    assert branches == [QhBranch.KERNEL] * 2 + [QhBranch.PROJECTION] * 2


def test_box_integrates_each_callable_exponent_once():
    calls = []

    def f(r):
        calls.append(len(np.atleast_1d(r)))
        return r**2

    sym = QuasiHomogeneousSymbol(RadialProfile.from_callables([f, f]), (1, -1))
    qh_eigenvalue_box(sym, [range(4), range(3)])
    # the probe radii and the nodes per integral: 4 + 3 exponents of |f|^2, 4 + 2 cross exponents
    assert len(calls) == 2 * (4 + 3 + 4 + 2)


def test_box_rejects_bad_axes():
    sym = QuasiHomogeneousSymbol.from_monomial((0, 1), (1, 0))
    with pytest.raises(ValueError, match="alpha axis entries must be non-negative"):
        qh_eigenvalue_box(sym, [range(-1, 2), range(2)])
    with pytest.raises(ValueError, match="3 alpha axes for a symbol of dim 2"):
        qh_eigenvalue_box(sym, [range(2)] * 3)
