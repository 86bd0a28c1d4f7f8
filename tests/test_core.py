"""Exact engine: the closed-form eigenvalue family and its set-level consequences."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankel_spectra import (
    EigenRecord,
    MonomialSymbol,
    MultiplicityClass,
    Provenance,
    SymbolClass,
    enumerate_essential_spectrum,
    enumerate_spectrum,
    lambda_value,
    multiplicity_class,
)
from hankel_spectra import core
from hankel_spectra.multiindex import DimensionMismatch, as_winding, full_set, nonempty_subsets
from oracles import _lambda_unchecked, reference_records


def test_lambda_one_variable_conjugate_families():
    # zbar on the disc: (alpha+1)/(alpha+2) below the winding, then 1/((alpha+1)(alpha+2))
    assert lambda_value((0,), (1,), (0,), {1}) == Fraction(1, 2)
    assert lambda_value((0,), (1,), (1,), {1}) == Fraction(1, 6)
    assert lambda_value((0,), (1,), (2,), {1}) == Fraction(1, 12)


def test_lambda_holomorphic_symbol_vanishes():
    assert lambda_value((2, 0), (0, 0), (3, 5), {1, 2}) == 0
    for a in range(5):
        assert lambda_value((3,), (0,), (a,), {1}) == 0


def test_lambda_mixed_two_variable_first_case():
    # alpha_2 = 0 < m_2 - n_2 = 1 fires the first case
    assert lambda_value((1, 0), (1, 1), (0, 0), {1, 2}) == Fraction(1, 6)


def test_lambda_errors():
    with pytest.raises(DimensionMismatch):
        lambda_value((0,), (1, 0), (0,), {1})
    with pytest.raises(ValueError):
        lambda_value((0,), (1,), (0,), set())
    with pytest.raises(ValueError):
        lambda_value((0,), (1,), (0,), {2})
    with pytest.raises(ValueError):
        lambda_value((-1,), (1,), (0,), {1})


def test_lambda_refuses_generators_of_non_integers():
    # each check sees the entries once, so a generator cannot skip the integer test
    with pytest.raises(ValueError, match="alpha entries must be integers"):
        lambda_value((0,), (1,), (x for x in [0.5]), {1})
    with pytest.raises(ValueError, match="holo exponent entries must be integers"):
        MonomialSymbol((x for x in [1.5, 2]), (0, 1))
    assert lambda_value((x for x in [0]), (1,), (x for x in [1]), {1}) == Fraction(1, 6)
    assert MonomialSymbol((x for x in [1, 2]), (0, 1)).holo == (1, 2)
    with pytest.raises(ValueError, match="winding entries must be integers"):
        as_winding(x for x in [1.5, -2])
    assert as_winding(x for x in [1, -2]) == (1, -2)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lambda_matches_the_point_oracle(data):
    # entries up to 10^20 put the one-point table past int64: it holds Python ints
    dim = data.draw(st.integers(1, 3))
    entries = st.one_of(st.integers(0, 6), st.integers(0, 10**20))
    n, m, alpha = (data.draw(st.tuples(*[entries] * dim)) for _ in range(3))
    subset = data.draw(st.sets(st.integers(1, dim), min_size=1))
    assert lambda_value(n, m, alpha, subset) == _lambda_unchecked(n, m, alpha, sorted(subset))


def test_lambda_range_and_case_bound():
    # value in [0,1]; the second case never exceeds the first-case product
    for n1 in range(4):
        for m1 in range(4):
            for a1 in range(5):
                v = lambda_value((n1,), (m1,), (a1,), {1})
                assert 0 <= v <= 1
                if a1 >= m1 - n1:
                    first = Fraction(a1 + 1, a1 + n1 + m1 + 1)
                    assert v <= first


def test_lambda_permutation_symmetry():
    n, m, alpha = (1, 2, 0), (2, 0, 1), (3, 1, 2)
    base = lambda_value(n, m, alpha, {1, 2, 3})
    perm = (2, 0, 1)
    n2 = tuple(n[p] for p in perm)
    m2 = tuple(m[p] for p in perm)
    a2 = tuple(alpha[p] for p in perm)
    assert lambda_value(n2, m2, a2, {1, 2, 3}) == base
    # relabeled proper subset
    assert lambda_value(n, m, alpha, {2}) == lambda_value(n2, m2, a2, {3})


def test_limit_point_law():
    # lambda(alpha(j), B_n) -> lambda(alpha, B) as the off-B coordinates grow
    cases = [
        ((0, 1), (2, 1), (1, 0), frozenset({1})),
        ((1, 0, 2), (1, 3, 0), (0, 2, 1), frozenset({2, 3})),
        ((0, 0), (1, 1), (0, 0), frozenset({2})),
    ]
    for n, m, alpha, B in cases:
        dim = len(n)
        limit = lambda_value(n, m, alpha, B)
        for j in (1, 10, 100, 1000, 10**4):
            alpha_j = tuple(alpha[k] if (k + 1) in B else j for k in range(dim))
            moving = lambda_value(n, m, alpha_j, full_set(dim))
            assert abs(moving - limit) < Fraction(10, j)


def test_multiplicity_class():
    assert multiplicity_class(MonomialSymbol((0, 0), (2, 1))) is SymbolClass.ALL_FINITE
    assert multiplicity_class(MonomialSymbol((0, 0), (2, 0))) is SymbolClass.ALL_INFINITE
    assert multiplicity_class(MonomialSymbol((3, 1), (0, 0))) is SymbolClass.ZERO_OPERATOR
    assert multiplicity_class(MonomialSymbol((1,), (1,))) is SymbolClass.ALL_FINITE


def test_enumerate_spectrum_zbar_disc():
    spec = enumerate_spectrum(MonomialSymbol((0,), (1,)), 3)
    assert spec.value_set() == {
        Fraction(0),
        Fraction(1, 2),
        Fraction(1, 6),
        Fraction(1, 12),
        Fraction(1, 20),
    }
    assert spec.values() == sorted(spec.values())
    assert spec.truncated and spec.contains_zero


def test_enumerate_spectrum_holomorphic():
    spec = enumerate_spectrum(MonomialSymbol((1,), (0,)), 5)
    assert spec.value_set() == {Fraction(0)}
    assert not spec.truncated
    zero = spec.records[0]
    assert zero.is_eigenvalue and zero.multiplicity is MultiplicityClass.INFINITE


def _record(spec, value):
    return next(r for r in spec.records if r.value == value)


def test_enumerate_spectrum_two_variable():
    spec = enumerate_spectrum(MonomialSymbol((0, 0), (1, 1)), 2)
    values = spec.value_set()
    assert Fraction(1, 2) in values and Fraction(1, 4) in values
    half = _record(spec, Fraction(1, 2))
    subsets = {p.subset for p in half.provenance}
    assert frozenset({1}) in subsets and frozenset({2}) in subsets
    quarter = _record(spec, Fraction(1, 4))
    assert {p.subset for p in quarter.provenance} == {frozenset({1, 2})}
    assert quarter.is_eigenvalue and not quarter.is_limit_point
    assert quarter.multiplicity is MultiplicityClass.FINITE
    assert half.is_limit_point and not half.is_eigenvalue


def test_enumerate_merges_provenance_across_subsets():
    # for zb1 on D^2 the trivial second coordinate duplicates every value
    spec = enumerate_spectrum(MonomialSymbol((0, 0), (1, 0)), 2)
    half = _record(spec, Fraction(1, 2))
    subsets = {p.subset for p in half.provenance}
    assert frozenset({1}) in subsets and frozenset({1, 2}) in subsets
    assert half.is_eigenvalue and half.is_limit_point
    assert half.multiplicity is MultiplicityClass.INFINITE


def test_zero_value_flags_when_not_an_eigenvalue():
    spec = enumerate_spectrum(MonomialSymbol((0,), (1,)), 2)
    zero = _record(spec, Fraction(0))
    assert zero.is_limit_point and not zero.is_eigenvalue
    assert zero.multiplicity is None


def test_essential_equals_spectrum_for_infinite_multiplicity():
    sym = MonomialSymbol((0, 0), (1, 0))
    for cap in (2, 3, 5):
        assert (
            enumerate_essential_spectrum(sym, cap).value_set()
            == enumerate_spectrum(sym, cap).value_set()
        )


def test_essential_proper_subsets_only():
    sym = MonomialSymbol((0, 0), (1, 1))
    ess = enumerate_essential_spectrum(sym, 2)
    assert Fraction(1, 4) not in ess.value_set()
    assert Fraction(1, 2) in ess.value_set()
    assert all(r.is_limit_point for r in ess.records)
    # removed values are exactly the ones attainable only with B = B_n
    spec = enumerate_spectrum(sym, 2)
    full = full_set(2)
    full_only = {
        r.value
        for r in spec.records
        if r.provenance and all(p.subset == full for p in r.provenance)
    }
    assert ess.value_set() == spec.value_set() - full_only


@st.composite
def monomial_cases(draw):
    """(symbol, cap): dim 1-3, exponents 0-3, cap 0-6; every symbol class occurs."""
    dim = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 3)] * dim)
    return MonomialSymbol(draw(exponents), draw(exponents)), draw(st.integers(0, 6))


@settings(max_examples=120, deadline=None)
@given(monomial_cases())
def test_full_witness_values_match_the_records(case):
    sym, cap = case
    spec = enumerate_spectrum(sym, cap)
    full = full_set(sym.dim)
    want = {p.alpha: r.value for r in spec.records for p in r.provenance if p.subset == full}
    assert spec.full_witness_values() == want
    if not sym.is_holomorphic:  # every alpha in the box has its full-B witness
        box = product(range(cap + 1), repeat=sym.dim)
        assert want == {alpha: lambda_value(sym.holo, sym.antiholo, alpha, full) for alpha in box}


def _essential_brute_force(sym, cap):
    """Essential records built directly: proper-subset values and 0, full-B values as eigenvalues."""
    full = full_set(sym.dim)
    witnesses: dict[Fraction, set] = {Fraction(0): set()}
    full_values = set()
    for subset in nonempty_subsets(sym.dim):
        coords = sorted(subset)
        for assignment in product(range(cap + 1), repeat=len(coords)):
            alpha = [0] * sym.dim
            for k, a in zip(coords, assignment):
                alpha[k - 1] = a
            v = lambda_value(sym.holo, sym.antiholo, alpha, subset)
            if subset == full:
                full_values.add(v)
            else:
                witnesses.setdefault(v, set()).add(Provenance(tuple(alpha), subset))
    return tuple(
        EigenRecord(
            v,
            tuple(sorted(witnesses[v], key=lambda p: (len(p.subset), sorted(p.subset), p.alpha))),
            v in full_values,
            True,
            MultiplicityClass.FINITE if v in full_values else None,
        )
        for v in sorted(witnesses)
    )


@settings(max_examples=120, deadline=None)
@given(monomial_cases())
def test_essential_spectrum_matches_brute_force(case):
    sym, cap = case
    ess = enumerate_essential_spectrum(sym, cap)
    spec = enumerate_spectrum(sym, cap)
    assert (ess.kind, ess.alpha_cap, ess.contains_zero) == ("essential", cap, True)
    cls = multiplicity_class(sym)
    if cls is SymbolClass.ALL_FINITE:
        assert ess.truncated and ess.note is None
        assert ess.records == _essential_brute_force(sym, cap)
    else:
        assert ess.records == spec.records and ess.truncated == spec.truncated
        assert (ess.note is not None) == (cls is SymbolClass.ZERO_OPERATOR)


def test_essential_dim_one_is_zero_only():
    ess = enumerate_essential_spectrum(MonomialSymbol((1,), (1,)), 8)
    assert ess.value_set() == {Fraction(0)}


def test_essential_zero_operator_warns():
    ess = enumerate_essential_spectrum(MonomialSymbol((2,), (0,)), 3)
    assert ess.value_set() == {Fraction(0)}
    assert ess.note is not None


def test_enumeration_guards():
    sym = MonomialSymbol((0,), (1,))
    with pytest.raises(ValueError):
        enumerate_spectrum(sym, -1)
    wide = MonomialSymbol((0,) * 9, (1,) * 9)
    with pytest.raises(ValueError, match="subset-enumeration bound 8"):
        enumerate_spectrum(wide, 0)
    assert enumerate_spectrum(MonomialSymbol((0,) * 8, (1,) * 8), 0).contains_zero


def test_enumeration_budget():
    # (cap+2)^dim - 1 closed-form evaluations: 316^2 - 1 fits the budget, 317^2 - 1 does not
    with pytest.raises(ValueError, match="budget"):
        enumerate_spectrum(MonomialSymbol((0, 0), (1, 1)), 315)
    with pytest.raises(ValueError, match="budget"):
        enumerate_essential_spectrum(MonomialSymbol((0,) * 8, (1,) * 8), 3)
    # holomorphic symbols evaluate nothing, so any cap is within budget
    assert enumerate_spectrum(MonomialSymbol((1, 1), (0, 0)), 10**6).value_set() == {0}


def test_m_zero_gives_zero_everywhere():
    for n in product(range(3), repeat=2):
        sym = MonomialSymbol(n, (0, 0))
        for B in nonempty_subsets(2):
            for alpha in product(range(3), repeat=2):
                assert lambda_value(n, (0, 0), alpha, B) == 0
        assert enumerate_spectrum(sym, 2).value_set() == {Fraction(0)}


def test_rayleigh_quotient_oracle_dim1():
    # core lambda equals the exact Galerkin Rayleigh quotient <H z^a, H z^a>/||z^a||^2
    from hankel_spectra.galerkin import scaled_gram_entry
    from hankel_spectra.multiindex import weight
    from hankel_spectra.symbols import PolySymbol
    from hankel_spectra.rational import CRat

    for n1, m1, a1 in product(range(5), repeat=3):
        sym = PolySymbol([(CRat(1), (n1,), (m1,))])
        lam = lambda_value((n1,), (m1,), (a1,), {1})
        gram = scaled_gram_entry(sym, (a1,), (a1,)) * weight((a1,))
        assert gram.im == 0 and gram.re == lam


def test_rayleigh_quotient_oracle_dim2():
    from hankel_spectra.galerkin import scaled_gram_entry
    from hankel_spectra.multiindex import weight
    from hankel_spectra.symbols import PolySymbol
    from hankel_spectra.rational import CRat

    rng = range(5)
    for n in product(rng, repeat=2):
        for m in product(rng, repeat=2):
            sym = PolySymbol([(CRat(1), n, m)])
            for alpha in product(rng, repeat=2):
                lam = lambda_value(n, m, alpha, {1, 2})
                gram = scaled_gram_entry(sym, alpha, alpha) * weight(alpha)
                assert gram.im == 0 and gram.re == lam


_exponents = st.integers(0, 3)


@st.composite
def enumerated_monomials(draw):
    """(symbol, cap): dim 1-3, exponents 0-3, cap 0-8 (smaller caps at dim 3)."""
    dim = draw(st.integers(1, 3))
    n = draw(st.tuples(*[_exponents] * dim))
    m = draw(st.tuples(*[_exponents] * dim))
    cap = draw(st.integers(0, (8, 8, 4)[dim - 1]))
    return MonomialSymbol(n, m), cap


@settings(max_examples=80, deadline=None)
@given(enumerated_monomials())
def test_table_enumeration_matches_reference(drawn):
    sym, cap = drawn
    assert enumerate_spectrum(sym, cap).records == reference_records(sym, cap)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_table_enumeration_with_a_huge_exponent(data):
    # one exponent >= 10^5 puts the tables past int64: they hold Python ints
    dim = data.draw(st.integers(1, 2))
    exps = [data.draw(st.lists(_exponents, min_size=dim, max_size=dim)) for _ in range(2)]
    side, k = data.draw(st.integers(0, 1)), data.draw(st.integers(0, dim - 1))
    exps[side][k] = data.draw(st.integers(10**5, 10**9))
    sym, cap = MonomialSymbol(*exps), data.draw(st.integers(0, 6))
    assert enumerate_spectrum(sym, cap).records == reference_records(sym, cap)


def test_huge_exponent_takes_the_python_int_tables(monkeypatch):
    dtypes = []
    real = core._subset_table

    def recording(n, m, coords, axes, dtype):
        dtypes.append(dtype)
        return real(n, m, coords, axes, dtype)

    monkeypatch.setattr(core, "_subset_table", recording)
    sym = MonomialSymbol((0, 7), (100000, 0))
    assert enumerate_spectrum(sym, 5).records == reference_records(sym, 5)
    assert dtypes == [object] * 3
    dtypes.clear()
    enumerate_spectrum(MonomialSymbol((2, 1), (3, 3)), 90)  # (90+2+3+1)^6 < 2^62
    assert dtypes == [np.int64] * 3


def test_exact_order_separates_fractions_floats_cannot():
    # 1 - 1/q for q near 10^12 differ by about 10^-24: equal or misordered as floats
    fracs = [Fraction(10**12, 10**12 + 1), Fraction(10**12 - 1, 10**12), Fraction(1, 3),
             Fraction(10**12, 10**12 + 1), Fraction(10**12 + 1, 10**12 + 2), Fraction(0)]
    for dtype in (np.int64, object):
        num = np.array([f.numerator for f in fracs], dtype=dtype)
        den = np.array([f.denominator for f in fracs], dtype=dtype)
        order = core._exact_order(num, den).tolist()
        assert [fracs[i] for i in order] == sorted(fracs)
        assert order.index(0) < order.index(3)  # stable among equal values


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(0, 4),
    st.data(),
)
def test_record_slices_partition_the_records(n, m, cap, data):
    # record_slice(lo, hi) holds records lo:hi with their witnesses, for the spectrum and its essential part
    mono = MonomialSymbol(n, m)
    spectrum = enumerate_spectrum(mono, cap)
    for spec in (spectrum, core.essential_part(mono, spectrum)):
        count = len(spec.num)
        cuts = sorted(data.draw(st.lists(st.integers(0, count), max_size=4)))
        edges = [0, *cuts, count]
        parts = [spec.record_slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
        assert all(part.starts[0] == 0 and part.starts[-1] == len(part.subset) for part in parts)
        assert [r for part in parts for r in part.records] == list(spec.records)
        assert all((part.kind, part.alpha_cap, part.note) == (spec.kind, spec.alpha_cap, spec.note) for part in parts)
