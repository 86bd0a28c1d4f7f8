"""Property tests: the Galerkin kernel against the Toeplitz route, the exact arithmetic and the dense solve."""

import io
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hankel_spectra import (
    BasisTruncation,
    PolySymbol,
    assemble,
    assemble_via_toeplitz,
    eigenvalues,
    matrices_equal,
)
from hankel_spectra.galerkin import default_inner_caps, dump_matrix, load_matrix, scaled_gram_entry
from hankel_spectra.rational import CRat
from oracles import graded_lex_box

TOL = 1e-13

_parts = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@st.composite
def exact_symbols(draw):
    """(symbol, degree cap): dim 1-3, 1-4 terms, Gaussian-rational coefficients."""
    dim = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 2)] * dim)
    raw = draw(st.lists(st.tuples(_parts, _parts, exponents, exponents), min_size=1, max_size=4))
    terms = [(CRat(re, im), n, m) for re, im, n, m in raw if re or im]
    if not terms:
        terms = [(CRat(Fraction(1, 2), 1), raw[0][2], raw[0][3])]
    n_cap = draw(st.integers(0, (4, 4, 2)[dim - 1]))
    return PolySymbol(terms, dim=dim), n_cap


@settings(max_examples=60, deadline=None)
@given(exact_symbols())
def test_float_kernel_matches_exact_assembly(case):
    sym, n_cap = case
    trunc = BasisTruncation(n_cap, sym.dim)
    exact = assemble(sym, trunc)
    fast = assemble(sym.as_float(), trunc)
    assert exact.scaled is not None and fast.scaled is None
    assert default_inner_caps(fast.symbol, trunc) == default_inner_caps(sym, trunc)
    scale = max(1.0, exact.scale())
    assert np.max(np.abs(fast.dense - exact.dense)) <= TOL * scale
    assert fast.hermiticity_defect() <= TOL * scale
    w_exact, w_fast = eigenvalues(exact), eigenvalues(fast)
    assert np.max(np.abs(w_fast - w_exact)) <= TOL * w_exact[-1]


@settings(max_examples=60, deadline=None)
@given(exact_symbols())
def test_exact_assembly_matches_toeplitz_route(case):
    sym, n_cap = case
    trunc = BasisTruncation(n_cap, sym.dim)
    assert matrices_equal(assemble(sym, trunc), assemble_via_toeplitz(sym, trunc))


@settings(max_examples=60, deadline=None)
@given(exact_symbols(), st.data())
def test_scaled_gram_entry_matches_assembly(case, data):
    sym, n_cap = case
    trunc = BasisTruncation(n_cap, sym.dim)
    scaled = assemble(sym, trunc).scaled
    i = data.draw(st.integers(0, trunc.size - 1))
    alpha = trunc.indices[i]
    for j, beta in enumerate(trunc.indices):
        assert scaled_gram_entry(sym, alpha, beta) == scaled[i][j]


def test_basis_positions_follow_graded_lex_order():
    for n_cap, dim in ((0, 1), (5, 1), (3, 2), (2, 3), (3, 4)):
        trunc = BasisTruncation(n_cap, dim)
        order = graded_lex_box(n_cap, dim)
        for i, alpha in enumerate(order):
            assert trunc.positions[alpha] == i
        assert trunc.indices == order
        assert trunc.index_of == {alpha: i for i, alpha in enumerate(order)}


@settings(max_examples=60, deadline=None)
@given(exact_symbols())
def test_sectors_partition_the_basis_and_carry_the_spectrum(case):
    sym, n_cap = case
    trunc = BasisTruncation(n_cap, sym.dim)
    fast = assemble(sym.as_float(), trunc)
    dump = io.StringIO()
    dump_matrix(fast, dump)
    loaded = load_matrix(io.StringIO(dump.getvalue()))
    for mat in (fast, assemble_via_toeplitz(sym, trunc), loaded):
        members = np.concatenate([g.ravel() for g in mat.sectors])
        assert np.array_equal(np.sort(members), np.arange(trunc.size))
        sector = np.empty(trunc.size, dtype=np.intp)
        first = 0
        for g in mat.sectors:
            sector[g] = first + np.arange(len(g))[:, None]
            first += len(g)
        rows, cols = np.nonzero(mat.dense)
        assert np.array_equal(sector[rows], sector[cols])
        dense_w = np.linalg.eigvalsh(mat.dense)
        assert np.max(np.abs(eigenvalues(mat) - dense_w)) <= TOL * max(1.0, dense_w[-1])
