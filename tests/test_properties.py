"""Property tests: the float Galerkin kernel against the exact reference assembly."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hankel_spectra import BasisTruncation, InnerCapError, PolySymbol, assemble, eigenvalues
from hankel_spectra.galerkin import default_inner_caps
from hankel_spectra.rational import CRat

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
    assert fast.inner_caps == exact.inner_caps
    scale = max(1.0, exact.scale())
    assert np.max(np.abs(fast.dense - exact.dense)) <= TOL * scale
    assert fast.hermiticity_defect() <= TOL * scale
    w_exact, w_fast = eigenvalues(exact), eigenvalues(fast)
    assert np.max(np.abs(w_fast - w_exact)) <= TOL * w_exact[-1]


@settings(max_examples=40, deadline=None)
@given(exact_symbols(), st.data())
def test_inner_cap_below_default_raises_on_both_paths(case, data):
    sym, n_cap = case
    trunc = BasisTruncation(n_cap, sym.dim)
    # a term whose projection targets lie in the box, and a coordinate where
    # its winding k reaches N + k > 0: a cap of N + k - 1 there drops a target
    windings = [
        [nj - mj for nj, mj in zip(n, m)]
        for _, n, m in sym.terms
        if all(mj - nj <= n_cap for nj, mj in zip(n, m))
    ]
    choices = [(k, j) for k in windings for j in range(sym.dim) if n_cap + k[j] >= 1]
    assume(choices)
    k, j = data.draw(st.sampled_from(choices))
    caps = list(default_inner_caps(sym, trunc))
    caps[j] = n_cap + k[j] - 1
    for s in (sym, sym.as_float()):
        with pytest.raises(InnerCapError):
            assemble(s, trunc, inner_cap=caps)


def test_basis_positions_follow_graded_lex_order():
    for n_cap, dim in ((0, 1), (5, 1), (3, 2), (2, 3)):
        trunc = BasisTruncation(n_cap, dim)
        for i, alpha in enumerate(trunc.indices):
            assert trunc.positions[alpha] == i
