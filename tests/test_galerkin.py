"""Compression assembly, the Toeplitz identity, eigensolution, and Weyl residuals."""

import io
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from hankel_spectra import (
    BasisTruncation,
    Exactness,
    InnerCapError,
    KernelVector,
    assemble,
    assemble_via_toeplitz,
    eigenvalues,
    hankel_gram_entry,
    lambda_value,
    matrices_equal,
    parse_symbol,
    weyl_residual,
)
from hankel_spectra.galerkin import dump_matrix, load_matrix, scaled_gram_entry
from hankel_spectra.rational import CRat
from oracles import hankel_entry_oracle


def test_truncation_ordering_is_graded_lex():
    trunc = BasisTruncation(2, 2)
    assert trunc.size == 9
    assert trunc.indices[:4] == ((0, 0), (0, 1), (1, 0), (0, 2))
    assert trunc.index_of[(2, 2)] == 8


def test_gram_entry_zbar_diagonal():
    sym = parse_symbol("zb1")
    assert hankel_gram_entry(sym, (0,), (0,)) == CRat(Fraction(1, 2))
    assert hankel_gram_entry(sym, (1,), (1,)) == CRat(Fraction(1, 6))


def test_gram_entry_holomorphic_zero():
    sym = parse_symbol("z1")
    for a, b in product(range(3), repeat=2):
        assert hankel_gram_entry(sym, (a,), (b,)) == CRat(0)


def test_gram_entry_product_symbol_fixture():
    # frozen from the brute-force monomial-integration oracle: 3/4
    sym = parse_symbol("zb1*(zb2+1)")
    got = hankel_gram_entry(sym, (0, 0), (0, 0))
    assert got == CRat(Fraction(3, 4))
    oracle = hankel_entry_oracle(
        [(1.0, (0, 0), (1, 1)), (1.0, (0, 0), (1, 0))], (0, 0), (0, 0), 4
    )
    assert abs(complex(got) - oracle) < 1e-10


def test_gram_entry_offdiagonal_carries_sqrt_weight():
    # orthonormal entries are rational times sqrt(w_a w_b); here sqrt(2)/4
    sym = parse_symbol("zb1*(zb2+1)")
    got = hankel_gram_entry(sym, (0, 0), (0, 1))
    assert isinstance(got, complex)
    assert abs(got - math.sqrt(2) / 4) < 1e-14
    oracle = hankel_entry_oracle(
        [(1.0, (0, 0), (1, 1)), (1.0, (0, 0), (1, 0))], (0, 0), (0, 1), 4
    )
    assert abs(got - oracle) < 1e-10


def test_gram_entry_inner_cap_refusal():
    with pytest.raises(InnerCapError):
        scaled_gram_entry(parse_symbol("z1^2*zb1"), (3,), (3,), inner_cap=3)
    # ample cap succeeds
    scaled_gram_entry(parse_symbol("z1^2*zb1"), (3,), (3,), inner_cap=5)


def test_assemble_monomial_is_diagonal_with_core_values():
    sym = parse_symbol("zb1*zb2")
    trunc = BasisTruncation(2, 2)
    mat = assemble(sym, trunc)
    assert mat.exactness is Exactness.RATIONAL
    diag = mat.exact_diagonal()
    for i, alpha in enumerate(trunc.indices):
        assert diag[i] == lambda_value((0, 0), (1, 1), alpha, {1, 2})
        for j in range(trunc.size):
            if i != j:
                assert not mat.scaled[i][j]


def test_diagonality_sweep_small_monomials():
    trunc = BasisTruncation(3, 2)
    for n in product(range(3), repeat=2):
        for m in product(range(3), repeat=2):
            sym_txt = []
            for k, e in enumerate(n):
                if e:
                    sym_txt.append(f"z{k + 1}^{e}")
            for k, e in enumerate(m):
                if e:
                    sym_txt.append(f"zb{k + 1}^{e}")
            sym = parse_symbol("*".join(sym_txt) or "1", dim=2)
            mat = assemble(sym, trunc)
            diag = mat.exact_diagonal()
            for i, alpha in enumerate(trunc.indices):
                assert diag[i] == lambda_value(n, m, alpha, {1, 2})


def test_assemble_zero_and_scaling():
    trunc = BasisTruncation(3, 2)
    zero = assemble(parse_symbol("0", dim=2), trunc)
    assert not np.any(zero.dense)
    m1 = assemble(parse_symbol("zb1", dim=2), trunc)
    m2 = assemble(parse_symbol("zb1+zb1", dim=2), trunc)
    for i in range(trunc.size):
        for j in range(trunc.size):
            assert m2.scaled[i][j] == m1.scaled[i][j] * 4


def test_assemble_guards():
    with pytest.raises(ValueError):
        assemble(parse_symbol("zb1", dim=2), BasisTruncation(200, 2))  # 201^2 > 20000
    with pytest.raises(ValueError):
        assemble(parse_symbol("zb1", dim=1), BasisTruncation(3, 2))


def test_hermiticity_and_psd_float_path():
    sym = parse_symbol("zb1*(zb2+1)") * (0.5 + 0.25j)
    mat = assemble(sym, BasisTruncation(6, 2))
    assert mat.exactness is Exactness.FLOAT
    assert mat.hermiticity_defect() <= 1e-13 * max(1.0, mat.scale())
    w = eigenvalues(mat)
    assert w[0] >= -1e-10
    assert all(x <= y + 1e-15 for x, y in zip(w, w[1:]))


def test_eigenvalues_diagonal_and_closed_form():
    mat = assemble(parse_symbol("zb1"), BasisTruncation(40, 1))
    w = eigenvalues(mat)
    for target in (Fraction(1, 2), Fraction(1, 6), Fraction(1, 12)):
        assert min(abs(x - float(target)) for x in w) < 1e-12
    # 2x2 Hermitian block against the quadratic formula
    a, b, c = 0.7, 0.1 + 0.2j, 0.3
    tr, det = a + c, a * c - abs(b) ** 2
    roots = sorted(
        [tr / 2 - math.sqrt(tr**2 / 4 - det), tr / 2 + math.sqrt(tr**2 / 4 - det)]
    )
    h = np.array([[a, b], [np.conj(b), c]])
    got = np.linalg.eigvalsh(h)
    assert np.allclose(got, roots, atol=1e-14)


def test_toeplitz_identity_matches_hankel_assembly():
    trunc = BasisTruncation(4, 2)
    for expr in ("zb1", "zb1*zb2", "zb1*(zb2+1)", "z1*zb1 + 2*zb2"):
        sym = parse_symbol(expr, dim=2)
        assert matrices_equal(assemble(sym, trunc), assemble_via_toeplitz(sym, trunc))


def test_toeplitz_identity_float_path():
    sym = parse_symbol("zb1*(zb2+1)") * (0.37 + 0.11j)
    trunc = BasisTruncation(4, 2)
    m1, m2 = assemble(sym, trunc), assemble_via_toeplitz(sym, trunc)
    assert np.max(np.abs(m1.dense - m2.dense)) < 1e-14


def test_interior_eigenvalue_stability():
    # Finite-section stability heuristic: inside [0.1, 1.9], every eigenvalue at
    # truncation N has a neighbor at N+2, with the worst displacement bounded
    # and shrinking as N grows.  (Individual eigenvalues inside the essential
    # interval [0, 2] keep filling in, so pointwise stability to 5e-3 does not
    # hold at these N; the displacement trend is the stable statement.)
    sym = parse_symbol("zb1*(zb2+1)")
    ws = {n: eigenvalues(assemble(sym, BasisTruncation(n, 2))) for n in (10, 12, 14, 16)}
    moves = []
    for a, b in ((10, 12), (12, 14), (14, 16)):
        inside = ws[a][(ws[a] >= 0.1) & (ws[a] <= 1.9)]
        moves.append(max(float(np.min(np.abs(ws[b] - x))) for x in inside))
    assert all(m < 0.1 for m in moves)
    assert moves[0] > moves[1] > moves[2]


def test_kernel_vector_mass():
    for p in (0.0, 0.3, 0.6 + 0.2j):
        kv = KernelVector(p, 60)
        assert kv.truncated_norm <= 1.0 + 1e-12
        assert abs(kv.truncated_norm - 1.0) < 1e-6
    with pytest.raises(ValueError):
        KernelVector(1.0, 10)
    short = KernelVector(0.9, 3)
    assert short.truncated_norm < 0.99


def test_weyl_residual_eigenvector_is_annihilated():
    sym = parse_symbol("zb1", dim=2)
    trunc = BasisTruncation(14, 2)
    mat = assemble(sym, trunc)
    g = np.zeros(trunc.degree_cap + 1, dtype=complex)
    g[0] = 1.0
    residuals = [weyl_residual(sym, 0.5, g, p, trunc, mat=mat) for p in (0.3, 0.5, 0.7)]
    assert all(r < 1e-12 for r in residuals)
    assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))


def test_weyl_residual_far_lambda_lower_bound():
    sym = parse_symbol("zb1", dim=2)
    trunc = BasisTruncation(14, 2)
    g = np.zeros(trunc.degree_cap + 1, dtype=complex)
    g[0] = 1.0
    assert weyl_residual(sym, 10.0, g, 0.5, trunc) > 8.0


def test_weyl_residual_holomorphic_zero():
    sym = parse_symbol("z1*z2")
    trunc = BasisTruncation(10, 2)
    g = np.zeros(trunc.degree_cap + 1, dtype=complex)
    g[0] = 1.0
    assert weyl_residual(sym, 0.0, g, 0.5, trunc) == 0.0


def test_weyl_residual_rejects_thin_truncation():
    sym = parse_symbol("zb1", dim=2)
    trunc = BasisTruncation(4, 2)
    g = np.zeros(trunc.degree_cap + 1, dtype=complex)
    g[0] = 1.0
    with pytest.raises(ValueError):
        weyl_residual(sym, 0.5, g, 0.95, trunc)
    with pytest.raises(ValueError):
        weyl_residual(sym, 0.5, g * 2.0, 0.1, trunc)  # unnormalized g


def test_dump_and_load_roundtrip():
    for sym, exact in ((parse_symbol("zb1*(zb2+1)"), True),
                       (parse_symbol("zb1*(zb2+1)") * (0.3 + 0.4j), False)):
        mat = assemble(sym, BasisTruncation(3, 2))
        buf = io.StringIO()
        dump_matrix(mat, buf)
        buf.seek(0)
        back = load_matrix(buf)
        assert back.trunc == mat.trunc
        assert (back.exactness is Exactness.RATIONAL) == exact
        if exact:
            assert back.scaled == mat.scaled
        assert np.array_equal(back.dense, mat.dense)
    with pytest.raises(ValueError):
        load_matrix(io.StringIO("bogus header\n"))


def test_gram_entry_complex_coefficient_orientation():
    # complex coefficients expose the conjugation orientation that pure
    # Hermiticity checks cannot (both orientations are Hermitian)
    sym = parse_symbol("zb1 + i*zb1^2")
    got = scaled_gram_entry(sym, (0,), (1,))
    assert got == CRat(Fraction(0), Fraction(-1, 3))
    assert scaled_gram_entry(sym, (1,), (0,)) == CRat(Fraction(0), Fraction(1, 3))
    oracle = hankel_entry_oracle([(1, (0,), (1,)), (1j, (0,), (2,))], (0,), (1,), 5)
    assert abs(complex(got) * math.sqrt(2) - oracle) < 1e-10
    # float-path assembly agrees with the exact path entrywise
    trunc = BasisTruncation(4, 1)
    exact_m = assemble(sym, trunc)
    float_m = assemble(sym * (1.0 + 0.0j), trunc)
    assert np.max(np.abs(exact_m.dense - float_m.dense)) < 1e-15


def test_eigenvalues_rejects_non_finite_matrix():
    import dataclasses

    mat = assemble(parse_symbol("zb1*(zb2+1)") * (0.5 + 0j), BasisTruncation(2, 2))
    for bad in (math.nan, math.inf):
        dense = mat.dense.copy()
        dense[1, 1] = bad  # NaN passes the Hermiticity guard: NaN > tol is false
        with pytest.raises(ValueError, match="non-finite entries"):
            eigenvalues(dataclasses.replace(mat, dense=dense))
