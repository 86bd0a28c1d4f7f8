"""Compression assembly, the Toeplitz identity, eigensolution, and Weyl residuals."""

import io
import json
import math
import re
from fractions import Fraction
from itertools import product

import dataclasses
import functools
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hankel_spectra import (
    BasisTruncation,
    KernelVector,
    assemble,
    assemble_via_toeplitz,
    eigenvalues,
    lambda_value,
    matrices_equal,
    parse_symbol,
    weyl_residual,
)
from hankel_spectra.galerkin import dump_matrix, load_matrix, scaled_gram_entry
from hankel_spectra.rational import CR_ZERO, CRat
from hankel_spectra.symbols import PolySymbol
from oracles import (
    dense_weyl_residual,
    eager_exact_blocks,
    hankel_entry_oracle,
    reference_checked_eigenvalues,
    reference_gram_block,
    reference_scaled_blocks,
    reference_toeplitz_map,
    solve_outcome,
)


def test_truncation_ordering_is_graded_lex():
    trunc = BasisTruncation(2, 2)
    assert trunc.size == 9
    assert trunc.indices[:4] == ((0, 0), (0, 1), (1, 0), (0, 2))
    assert trunc.index_of[(2, 2)] == 8


def test_gram_entry_zbar_diagonal():
    sym = parse_symbol("zb1")
    assert assemble(sym, BasisTruncation(1, 1)).exact_diagonal() == [Fraction(1, 2), Fraction(1, 6)]
    assert scaled_gram_entry(sym, (1,), (1,)) == CRat(Fraction(1, 12))  # 1/6 over w = 2


def test_gram_entry_holomorphic_zero():
    sym = parse_symbol("z1")
    for a, b in product(range(3), repeat=2):
        assert scaled_gram_entry(sym, (a,), (b,)) == CRat(0)


def test_gram_entry_product_symbol_fixture():
    # frozen from the brute-force monomial-integration oracle: 3/4 (w = 1 at the origin)
    sym = parse_symbol("zb1*(zb2+1)")
    got = scaled_gram_entry(sym, (0, 0), (0, 0))
    assert got == CRat(Fraction(3, 4))
    oracle = hankel_entry_oracle(
        [(1.0, (0, 0), (1, 1)), (1.0, (0, 0), (1, 0))], (0, 0), (0, 0), 4
    )
    assert abs(complex(got) - oracle) < 1e-10


def test_gram_entry_offdiagonal_carries_sqrt_weight():
    # orthonormal entries are rational times sqrt(w_a w_b); here 1/4 * sqrt(2)
    sym = parse_symbol("zb1*(zb2+1)")
    assert scaled_gram_entry(sym, (0, 0), (0, 1)) == CRat(Fraction(1, 4))
    trunc = BasisTruncation(1, 2)
    got = assemble(sym, trunc).dense[trunc.index_of[(0, 0)], trunc.index_of[(0, 1)]]
    assert abs(got - math.sqrt(2) / 4) < 1e-14
    oracle = hankel_entry_oracle(
        [(1.0, (0, 0), (1, 1)), (1.0, (0, 0), (1, 0))], (0, 0), (0, 1), 4
    )
    assert abs(got - oracle) < 1e-10


def test_assemble_monomial_is_diagonal_with_core_values():
    sym = parse_symbol("zb1*zb2")
    trunc = BasisTruncation(2, 2)
    mat = assemble(sym, trunc)
    assert mat.is_exact
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
    assert not mat.is_exact and mat.scaled is None
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
    for p in (1.0, math.nan, complex(math.inf, 0)):
        with pytest.raises(ValueError, match="kernel center"):
            KernelVector(p, 10)
    short = KernelVector(0.9, 3)
    assert short.truncated_norm < 0.99


def test_weyl_residual_eigenvector_is_annihilated():
    sym = parse_symbol("zb1", dim=2)
    trunc = BasisTruncation(14, 2)
    mat = assemble(sym, trunc)
    g = np.zeros(trunc.degree_cap + 1, dtype=complex)
    g[0] = 1.0
    residuals = [weyl_residual(mat, 0.5, g, p) for p in (0.3, 0.5, 0.7)]
    assert all(r < 1e-12 for r in residuals)
    assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))


def test_weyl_residual_far_lambda_lower_bound():
    sym = parse_symbol("zb1", dim=2)
    trunc = BasisTruncation(14, 2)
    g = np.zeros(trunc.degree_cap + 1, dtype=complex)
    g[0] = 1.0
    assert weyl_residual(assemble(sym, trunc), 10.0, g, 0.5) > 8.0


def test_weyl_residual_holomorphic_zero():
    sym = parse_symbol("z1*z2")
    trunc = BasisTruncation(10, 2)
    g = np.zeros(trunc.degree_cap + 1, dtype=complex)
    g[0] = 1.0
    assert weyl_residual(assemble(sym, trunc), 0.0, g, 0.5) == 0.0


def test_weyl_residual_rejects_thin_truncation():
    sym = parse_symbol("zb1", dim=2)
    trunc = BasisTruncation(4, 2)
    g = np.zeros(trunc.degree_cap + 1, dtype=complex)
    g[0] = 1.0
    mat = assemble(sym, trunc)
    with pytest.raises(ValueError):
        weyl_residual(mat, 0.5, g, 0.95)
    with pytest.raises(ValueError):
        weyl_residual(mat, 0.5, g * 2.0, 0.1)  # unnormalized g
    # the slice size of g and the dim check come from the matrix's own truncation
    with pytest.raises(ValueError, match=r"g must have 5 coefficients, got \(6,\)"):
        weyl_residual(mat, 0.5, np.append(g, 0.0), 0.1)
    with pytest.raises(ValueError, match="needs dim >= 2"):
        weyl_residual(assemble(parse_symbol("zb1"), BasisTruncation(4, 1)), 0.5, g[:1], 0.1)


@pytest.mark.parametrize(
    "lam, g0, p, message",
    [
        (0.5, math.nan, 0.5, "g must have finite coefficients"),
        (math.nan, 1.0, 0.5, "lam must be finite"),
        (math.inf, 1.0, 0.5, "lam must be finite"),
        (0.5, 1.0, math.nan, r"kernel center must satisfy \|p\| < 1, got \(nan"),
        (0.5, 1.0, complex(0.1, math.nan), "kernel center"),
    ],
)
def test_weyl_residual_refuses_non_finite_input(lam, g0, p, message):
    sym = parse_symbol("zb1", dim=2)
    trunc = BasisTruncation(6, 2)
    g = np.zeros(trunc.degree_cap + 1, dtype=complex)
    g[0] = g0
    with pytest.raises(ValueError, match=message) as info:
        weyl_residual(assemble(sym, trunc), lam, g, p)
    assert "\n" not in str(info.value)


def test_weyl_residual_reads_the_sector_blocks(monkeypatch):
    from hankel_spectra.galerkin import CompressionMatrix

    cases = [
        (parse_symbol("zb1", dim=2), 0.5, 0.5),
        (parse_symbol("zb1*(zb2+1) + 1/2*z1*zb2^2"), 1.25, 0.3 + 0.2j),
        (parse_symbol("zb1*zb3 + zb2"), 0.75, -0.2),
    ]
    truncs = [BasisTruncation(4, sym.dim) for sym, _, _ in cases]
    gs = [np.arange(1.0, 5 ** (sym.dim - 1) + 1) * (1 - 0.5j) for sym, _, _ in cases]
    gs = [g / np.linalg.norm(g) for g in gs]
    mats = [assemble(sym, trunc) for (sym, _, _), trunc in zip(cases, truncs)]
    want = [dense_weyl_residual(mat, lam, g, p) for mat, (_, lam, p), g in zip(mats, cases, gs)]

    def no_full_matrix(*args):
        raise AssertionError("weyl_residual built the full matrix")

    monkeypatch.setattr(CompressionMatrix, "_graded_lex", no_full_matrix)
    for mat, (_, lam, p), g, w in zip(mats, cases, gs, want):
        assert abs(weyl_residual(mat, lam, g, p) - w) <= 1e-14 * max(1.0, w)


def test_weyl_residual_of_a_loaded_dump():
    exact = parse_symbol("zb1*(zb2+1) + 1/2*z1*zb2^2")
    g = np.arange(1.0, 6.0) * (1 - 0.5j)
    g /= np.linalg.norm(g)
    for sym in (exact, exact.as_float() * (0.3 + 0.4j)):
        mat = assemble(sym, BasisTruncation(4, 2))
        buf = io.StringIO()
        dump_matrix(mat, buf)
        buf.seek(0)
        back = load_matrix(buf)
        assert back.symbol is None
        assert weyl_residual(back, 1.25, g, 0.3 + 0.2j) == weyl_residual(mat, 1.25, g, 0.3 + 0.2j)


def test_dump_and_load_roundtrip():
    for sym, exact in ((parse_symbol("zb1*(zb2+1)"), True),
                       (parse_symbol("zb1*(zb2+1)") * (0.3 + 0.4j), False)):
        mat = assemble(sym, BasisTruncation(3, 2))
        buf = io.StringIO()
        dump_matrix(mat, buf)
        buf.seek(0)
        back = load_matrix(buf)
        assert back.trunc == mat.trunc
        assert back.is_exact == exact
        if exact:
            assert back.scaled == mat.scaled
        assert np.array_equal(back.dense, mat.dense)
    with pytest.raises(ValueError):
        load_matrix(io.StringIO("bogus header\n"))


@pytest.mark.parametrize(
    "header",
    [
        "hankel-spectra-matrix v1 N=2 symbol=x exact=1",
        "hankel-spectra-matrix v1 dim=2 symbol=x exact=1",
        "hankel-spectra-matrix v1 dim=2 N=2 exact=1",
        "hankel-spectra-matrix v1 dim=2 N=2 symbol=x",
        "hankel-spectra-matrix v1 dim=2 N=2 symbol=x exact=1 junk",
        "hankel-spectra-matrix v1 dim=two N=2 symbol=x exact=1",
        "hankel-spectra-matrix v1 dim=2 N=-1 symbol=x exact=1",
        "hankel-spectra-matrix v1 dim=2 N=1.5 symbol=x exact=1",
        "hankel-spectra-matrix v1 dim=0 N=2 symbol=x exact=1",
        "hankel-spectra-matrix v1 dim=2 N=2 symbol=x exact=yes",
        "hankel-spectra-matrix v1 dim=2 N=2 symbol=x exact=2",
        "hankel-spectra-matrix v1 dim=3 N=100000 symbol=x exact=1",
        "hankel-spectra-matrix v1 dim=100000 N=1 symbol=x exact=0",
        "hankel-spectra-matrix v1 dim=65 N=0 symbol=x exact=0",
        "hankel-spectra-matrix v1 dim=2 N=64 symbol=x exact=0",
        "hankel-spectra-matrix v1 dim=2 N=%s symbol=x exact=0" % ("9" * 4000),
        "hankel-spectra-matrix v1 dim=2 N=%s symbol=x exact=0" % ("9" * 5000),
        "hankel-spectra-matrix v2 dim=1 N=1 symbol=x exact=1",
        "hankel-spectra-matrix v1 dim=1 N=1 symbol=x exact=1 extra=1",
        "hankel-spectra-matrix v1 N=1 dim=1 symbol=x exact=1",
    ],
)
def test_load_matrix_rejects_bad_header(header):
    with pytest.raises(ValueError, match="matrix dump header"):
        load_matrix(io.StringIO(header + "\n"))


@pytest.mark.parametrize(
    "exact, cell",
    [
        (1, "1/0,0/1"),
        (1, "0/1,1/0"),
        (1, "1/2"),
        (1, "1/2,0/1,0/1"),
        (1, "x,0/1"),
        (1, ","),
        (1, "0.5,0/1"),
        (1, "1e3/1,0/1"),
        (1, "1_0/1,0/1"),
        (0, "1.5"),
        (0, "1.5,x"),
        (0, "1.5,2.5,3.5"),
        (0, "1_0,0.0"),
        (0, "infinity,0.0"),
        (0, "\u0663,0.0"),
        (0, "1e3,0.0"),
        (0, "+1.0,0.0"),
    ],
)
def test_load_matrix_rejects_bad_cell(exact, cell):
    good = "0/1,0/1" if exact else "0.0,0.0"
    dump = f"hankel-spectra-matrix v1 dim=1 N=1 symbol=x exact={exact}\n{good} {good}\n{good} {cell}\n"
    with pytest.raises(ValueError, match="matrix dump row 1, column 1: "):
        load_matrix(io.StringIO(dump))


@given(st.floats(), st.floats())
@example(-0.0, math.inf)
@example(5e-324, -math.inf)
def test_load_matrix_reads_every_float_repr_back(re_part, im_part):
    dump = f"hankel-spectra-matrix v1 dim=1 N=0 symbol=x exact=0\n{re_part!r},{im_part!r}\n"
    got = complex(load_matrix(io.StringIO(dump)).dense[0, 0])
    # repr tells every two floats apart but NaN payloads, and 'nan' reads back as a NaN
    assert (repr(got.real), repr(got.imag)) == (repr(re_part), repr(im_part))


def test_zero_cells_of_a_loaded_exact_dump_build_no_fraction(monkeypatch):
    import hankel_spectra.galerkin as galerkin_mod

    mat = assemble(parse_symbol("zb1*(zb2+1) + 1/2*z1*zb2^2"), BasisTruncation(4, 2))
    buf = io.StringIO()
    dump_matrix(mat, buf)
    text = buf.getvalue()
    cells = [cell for line in text.splitlines()[1:] for cell in line.split()]
    assert cells.count("0/1,0/1") > len(cells) // 2
    parsed = []
    real = galerkin_mod.read_rational

    def counting(*args):
        parsed.append(args)
        return real(*args)

    monkeypatch.setattr(galerkin_mod, "read_rational", counting)
    back = load_matrix(io.StringIO(text))
    # two parts of every non-zero cell, none of a zero cell
    assert len(parsed) == 2 * sum(cell != "0/1,0/1" for cell in cells)
    assert back.scaled == mat.scaled
    # every other spelling of zero is still parsed, to the same matrix
    header = "hankel-spectra-matrix v1 dim=1 N=1 symbol=x exact=1\n"
    want = load_matrix(io.StringIO(header + "0/1,0/1 1/2,0/1\n1/2,0/1 0/1,0/1\n"))
    for zero in ("0,0", "-0/3,0/1", "0/1,-0", "0/1,0"):
        got = load_matrix(io.StringIO(header + f"{zero} 1/2,0/1\n1/2,0/1 {zero}\n"))
        assert got.scaled == want.scaled
        assert all(np.array_equal(a, b) for a, b in zip(got.cells, want.cells))


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


def test_a_float_gram_entry_is_the_exact_entry_rounded():
    sym = parse_symbol("(1/2+i)*zb1*(zb2+1) - 3/4*z1*zb2^2")
    float_sym = sym.as_float()
    for alpha, beta in product(BasisTruncation(2, 2).indices, repeat=2):
        want = complex(scaled_gram_entry(sym, alpha, beta))
        got = scaled_gram_entry(float_sym, alpha, beta)
        assert type(got) is complex and abs(got - want) <= 1e-15 * max(1.0, abs(want))


def _with_cell(mat, i, j, value):
    """mat with cell (i, j) set to value (a complex, or a table-int column if exact), inserted
    at its row-major place when the listing leaves it out."""
    rows, cols, values = (a.copy() for a in mat.cells)
    at = np.searchsorted(rows * mat.size + cols, i * mat.size + j)
    if at == rows.size or (rows[at], cols[at]) != (i, j):
        return dataclasses.replace(
            mat, cells=(np.insert(rows, at, i), np.insert(cols, at, j), np.insert(values, at, value, axis=-1))
        )
    values[..., at] = value
    return dataclasses.replace(mat, cells=(rows, cols, values))


def test_eigenvalues_rejects_non_finite_matrix():
    mat = assemble(parse_symbol("zb1*(zb2+1)") * (0.5 + 0j), BasisTruncation(2, 2))
    i = mat.sectors[-1][0, 1]
    for bad in (math.nan, math.inf):
        # entry (1, 1) of the last group's first block; NaN passes the Hermiticity guard: NaN > tol is false
        with pytest.raises(ValueError, match="non-finite entries"):
            eigenvalues(_with_cell(mat, i, i, bad))


def test_exact_dump_bytes_match_per_cell_formatting():
    # zero cells are written as a constant; the bytes must equal formatting every cell,
    # for assembled matrices and loaded ones, whose cells (taken from the dump's non-zero
    # pattern) must be the assembled listing, with no zero cell among them
    mat = assemble(parse_symbol("(1/2+i)*zb1*(zb2+1) - 3/4*z1*zb2"), BasisTruncation(4, 2))
    buf = io.StringIO()
    dump_matrix(mat, buf)
    header = buf.getvalue().splitlines()[0]

    def per_cell(m):
        rows = [
            " ".join(f"{c.re.numerator}/{c.re.denominator},{c.im.numerator}/{c.im.denominator}" for c in row)
            for row in m.scaled
        ]
        return "\n".join([header, *rows]) + "\n"

    assert buf.getvalue() == per_cell(mat)
    back = load_matrix(io.StringIO(buf.getvalue()))
    assert back.scaled == mat.scaled and all(map(np.array_equal, back.cells, mat.cells))
    assert ((back.cells[2][0] != 0) | (back.cells[2][2] != 0)).all()
    again = io.StringIO()
    dump_matrix(back, again)
    assert again.getvalue() == buf.getvalue() == per_cell(back)


def test_eigenvalues_rejects_entry_between_sectors():
    # blocks have no room for such an entry: the cells-to-blocks constructor rejects it
    from hankel_spectra.galerkin import _from_cells, _pair_offsets

    sym = parse_symbol("zb1*(zb2+1)") * (0.5 + 0j)
    mat = assemble(sym, BasisTruncation(3, 2))
    i, j = mat.sectors[0][0][0], mat.sectors[0][1][0]
    rows, cols, values = mat.cells
    # Hermitian, so only the sector check can see it
    rows, cols, values = np.append(rows, [i, j]), np.append(cols, [j, i]), np.append(values, [1e-3, 1e-3])
    with pytest.raises(ValueError, match="outside its sector blocks"):
        _from_cells(
            mat.trunc, rows, cols, values, False, frozenset(_pair_offsets(sym.terms, sym.terms)),
            symbol=sym,
        )


def test_eigenvalues_rejects_non_hermitian_entry_inside_a_block():
    mat = assemble(parse_symbol("zb1*(zb2+1)") * (0.5 + 0j), BasisTruncation(3, 2))
    i, j = mat.sectors[0][1][:2]  # entry (0, 1) of the first group's second block
    with pytest.raises(ValueError, match="not Hermitian"):
        eigenvalues(_with_cell(mat, i, j, mat.blocks[0][1, 0, 1] + 1e-6))


def _as_cells(stacks, listed=None):
    """The cell-route arguments (values, at, mirror, groups, stored) of (samples, k, s, s) sector
    stacks laid end to end: every stored entry, or those where the flat mask listed is set."""
    groups, mirror, stored, first = [], [], 0, 0
    for b in stacks:
        _, k, s, _ = b.shape
        groups.append(first + np.arange(k * s).reshape(k, s))
        mirror.append(stored + np.arange(k * s * s).reshape(k, s, s).swapaxes(1, 2).ravel())
        stored, first = stored + k * s * s, first + k * s
    values = np.concatenate([b.reshape(b.shape[0], -1) for b in stacks], axis=1)
    at, mirror = np.arange(stored), np.concatenate(mirror)
    if listed is not None:
        values, at, mirror = values[:, listed], at[listed], mirror[listed]
    return values, at, mirror, tuple(groups), stored


def test_eigenvalues_rejects_a_cell_whose_mirror_is_unlisted():
    # zb1^2*zb2 + zb1 couples alpha only to alpha +- (1, 1): a sector is a diagonal chain with a
    # tridiagonal block, so cells (0, 2) and (2, 0) of a chain of three are both unlisted
    mat = assemble(parse_symbol("zb1^2*zb2 + zb1") * (0.5 + 0j), BasisTruncation(4, 2))
    g = next(g for g in mat.sectors if g.shape[1] >= 3)
    i, j = g[0, 0], g[0, 2]
    listed = set(zip(*(a.tolist() for a in mat.cells[:2])))
    assert (i, j) not in listed and (j, i) not in listed
    one_sided = _with_cell(mat, i, j, 1e-6)
    # its mirror reads as +0.0: the defect is the cell itself, whatever pairs are listed
    with pytest.raises(ValueError, match=r"not Hermitian: defect 1e-06$"):
        eigenvalues(one_sided)
    with pytest.raises(ValueError, match=r"not Hermitian: defect 1e-06$"):
        reference_checked_eigenvalues([b[None] for b in one_sided.blocks], str)
    assert one_sided.hermiticity_defect() == 1e-6


def test_the_sector_layout_is_computed_once_per_sectors(monkeypatch):
    import hankel_spectra.galerkin as galerkin

    calls = []
    real = galerkin._layout
    monkeypatch.setattr(galerkin, "_layout", lambda *args: calls.append(args) or real(*args))
    galerkin._sectors.cache_clear()
    sym = parse_symbol("(1/2+i)*zb1*(zb2+1) - 3/4*z1*zb2")
    trunc = BasisTruncation(6, 2)
    mats = [assemble(sym.as_float(), trunc)]
    assert len(calls) == 1
    mats.append(assemble(sym, trunc))  # the same (trunc, offsets)
    for mat in mats:
        assert mat.layout is mats[0].layout
        mat.blocks
        eigenvalues(mat)
        eigenvalues(mat)
        mat.hermiticity_defect(), mat.scale()
    assert len(calls) == 1


def test_guards_take_the_samples_in_order():
    # each sample fails as its own eigenvalues() call would; the first failing sample wins
    from hankel_spectra.galerkin import _checked_eigenvalues

    def stacks(*diagonals):
        return [np.array([[np.diag(d).astype(complex)] for d in diagonals])]

    def solve(stacks):
        return _checked_eigenvalues(*_as_cells(stacks), "s{}".format)

    skew = stacks([1.0, 1.0], [1.0, 1.0], [math.inf, 1.0])
    skew[0][1, 0, 0, 1] = 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        solve(skew)
    with pytest.raises(ValueError, match="below PSD floor"):
        solve(stacks([1.0, 1.0], [-1.0, 1.0], [math.nan, 1.0]))
    late_skew = stacks([1.0, 1.0], [-1.0, 1.0], [1.0, 1.0])
    late_skew[0][2, 0, 0, 1] = 1e-6
    with pytest.raises(ValueError, match="below PSD floor"):
        solve(late_skew)
    with pytest.raises(ValueError, match="compression of s1 has non-finite"):
        solve(stacks([1.0, 1.0], [math.inf, 1.0], [-1.0, 1.0]))
    w = solve(stacks([2.0, 1.0], [0.0, 3.0]))
    assert w.tolist() == [[1.0, 2.0], [0.0, 3.0]]


def test_cancelled_symbol_assembles_on_the_float_path(tmp_path):
    from hankel_spectra.cli import main

    zero = parse_symbol("zb1 - zb1")
    assert zero.is_exact and not zero.as_float().is_exact
    assert assemble(zero.as_float(), BasisTruncation(2, 1)).scaled is None
    # the exact zero symbol still dumps its exact (all-zero) Gram matrix
    dump = tmp_path / "zero.txt"
    assert main(["approx", "zb1 - zb1", "--degree", "2", "--dump-matrix", str(dump)]) == 0
    assert dump.read_text() == (
        "hankel-spectra-matrix v1 dim=1 N=2 symbol=7b7c0e238802 exact=1\n"
        + "0/1,0/1 0/1,0/1 0/1,0/1\n" * 3
    )


def test_sector_blocks_hold_the_dense_matrix():
    sym = parse_symbol("(1/2+i)*zb1*(zb2+1) - 3/4*z1*zb2")
    trunc = BasisTruncation(4, 2)
    mat = assemble(sym, trunc)
    ref = assemble_via_toeplitz(sym, trunc)
    assert matrices_equal(mat, ref) and np.array_equal(mat.dense, ref.dense)
    for g, b, sb in zip(mat.sectors, mat.blocks, reference_scaled_blocks(mat)):
        assert np.array_equal(b, mat.dense[g[:, :, None], g[:, None, :]])
        assert all(sb[r, p, q] == mat.scaled[i][j] for r, row in enumerate(g)
                   for p, i in enumerate(row) for q, j in enumerate(row))
    diagonal = [mat.scaled[i][i] * w for i, w in enumerate(np.prod(np.array(trunc.indices) + 1, axis=1))]
    assert all(d.im == 0 for d in diagonal) and mat.exact_diagonal() == [d.re for d in diagonal]
    assert mat.scale() == np.max(np.abs(mat.dense))
    assert mat.hermiticity_defect() == np.max(np.abs(mat.dense - mat.dense.conj().T))


def test_toeplitz_route_refuses_a_dense_fill_over_budget(monkeypatch):
    # zb1 at D2 N=140 passes the stored-entry guard with 19881 one-entry
    # sectors; the full fill would be 19881^2 object cells
    import hankel_spectra.galerkin as galerkin

    def no_fill(*args):
        raise AssertionError("the Toeplitz maps were built for an over-budget fill")

    monkeypatch.setattr(galerkin, "_toeplitz_map", no_fill)
    with pytest.raises(ValueError, match="entries"):
        assemble_via_toeplitz(parse_symbol("zb1", dim=2), BasisTruncation(140, 2))


@pytest.mark.parametrize("power", [3_100_000_000, 5_000_000_000])
def test_kernel_keeps_huge_exponents_exact(capsys, power):
    # (gamma + m_s + 1) * (gamma + m_t + 1) passes int64 once gamma is about 3.04e9
    from hankel_spectra.cli import main

    sym = parse_symbol(f"zb1*z2^{power}")
    trunc = BasisTruncation(1, 2)
    want = [lambda_value((0, power), (1, 0), alpha, {1, 2}) for alpha in trunc.indices]
    assert assemble(sym, trunc).exact_diagonal() == want
    want = np.sort(np.array(want, dtype=float))
    assert main(["approx", str(sym), "--degree", "1"]) == 0
    got = json.loads(capsys.readouterr().out)["eigenvalues"]
    assert np.allclose(got, want, rtol=1e-12, atol=0)
    assert main(["boundary", str(sym), "--coord", "1", "--degree", "1", "--samples", "8"]) == 0
    got = json.loads(capsys.readouterr().out)["compression"]["eigenvalues"]
    assert np.allclose(got, want, rtol=1e-12, atol=0)
    # its inner basis (2 x (power + 2) indices) is refused before it is built
    with pytest.raises(ValueError, match="inner basis"):
        assemble_via_toeplitz(sym, trunc)


def test_exact_diagonal_reads_the_sector_blocks(monkeypatch):
    from hankel_spectra.galerkin import CompressionMatrix
    from hankel_spectra.multiindex import weight

    cases = [("zb1*zb2", 6), ("(1/2+i)*zb1*(zb2+1) - 3/4*z1*zb2", 4), ("zb1^2 + 2*z1*zb1 + zb2", 3)]
    mats = [assemble(parse_symbol(expr, dim=2), BasisTruncation(n, 2)) for expr, n in cases]
    diagonals = [[m.scaled[i][i] * weight(a) for i, a in enumerate(m.trunc.indices)] for m in mats]
    assert all(d.im == 0 for diagonal in diagonals for d in diagonal)
    want = [[d.re for d in diagonal] for diagonal in diagonals]

    def no_full_matrix(*args):
        raise AssertionError("exact_diagonal built the full matrix")

    monkeypatch.setattr(CompressionMatrix, "_graded_lex", no_full_matrix)
    fresh = [assemble(parse_symbol(expr, dim=2), BasisTruncation(n, 2)) for expr, n in cases]
    assert [m.exact_diagonal() for m in fresh] == want


def test_matrices_equal_on_the_float_path_and_across_truncations():
    sym = parse_symbol("zb1*(zb2+1)") * (0.3 + 0.4j)
    mat = assemble(sym, BasisTruncation(3, 2))
    assert mat.scaled is None
    assert matrices_equal(mat, assemble(sym, BasisTruncation(3, 2)))
    assert not matrices_equal(mat, assemble(sym * 2, BasisTruncation(3, 2)))
    exact = parse_symbol("zb1*(zb2+1)")
    assert not matrices_equal(assemble(exact, BasisTruncation(2, 2)), assemble(exact, BasisTruncation(3, 2)))


def test_matrices_equal_across_sector_layouts():
    # z1 is holomorphic, so H_{z1+zb2} = H_{zb2}: the pairs with z1 assemble sectors 1 to 4 wide
    # whose off-diagonal entries all vanish, and the loaded dump is blocked into sixteen 1x1 sectors
    exact = parse_symbol("z1 + zb2")
    for sym in (exact, exact.as_float() * (0.3 - 0.4j)):
        mat = assemble(sym, BasisTruncation(3, 2))
        buf = io.StringIO()
        dump_matrix(mat, buf)
        back = load_matrix(io.StringIO(buf.getvalue()))
        assert sorted(g.shape[1] for g in mat.sectors) == [1, 2, 3, 4]
        assert [g.shape for g in back.sectors] == [(16, 1)]
        assert matrices_equal(mat, back) and matrices_equal(back, mat)
        other = assemble(sym * 2, BasisTruncation(3, 2))
        assert not matrices_equal(other, back) and not matrices_equal(back, other)


def test_load_matrix_rejects_a_short_row():
    dump = "hankel-spectra-matrix v1 dim=1 N=1 symbol=x exact=0\n0.5,0.0 0.0,0.0\n0.0,0.0\n"
    with pytest.raises(ValueError, match="row 1: expected 2 entries, got 1"):
        load_matrix(io.StringIO(dump))


def test_load_matrix_refuses_content_after_the_last_row():
    mat = assemble(parse_symbol("zb1*(zb2+1)"), BasisTruncation(1, 2))
    buf = io.StringIO()
    dump_matrix(mat, buf)
    text = buf.getvalue()
    # a second dump, a stray line, a fifth row: each would load as the first 4 rows alone
    for tail in (text, "garbage\n", "0/1,0/1 0/1,0/1 0/1,0/1 0/1,0/1"):
        with pytest.raises(ValueError, match=r"^matrix dump: unexpected content after row 3$"):
            load_matrix(io.StringIO(text + tail))
    assert load_matrix(io.StringIO(text + "\n \n")).scaled == mat.scaled


def test_basis_truncation_refuses_a_box_over_the_basis_budget():
    with pytest.raises(ValueError) as err:
        BasisTruncation(200, 2)
    assert str(err.value) == "basis size (N+1)^dim exceeds guard 20000 (N=200, dim=2)"
    assert BasisTruncation(140, 2).size == 19881  # the largest dim-2 box inside the budget
    for n_cap, dim in ((1, 15), (10**9, 8)):  # over the budget by dim alone, and by N
        with pytest.raises(ValueError, match=rf"exceeds guard 20000 \(N={n_cap}, dim={dim}\)$"):
            BasisTruncation(n_cap, dim)


_gaussian_rational = st.builds(
    lambda a, b, c, d: CRat(Fraction(a, b), Fraction(c, d)),
    st.integers(-8, 8), st.integers(1, 8), st.integers(-8, 8), st.integers(1, 8),
)


@st.composite
def _exact_symbols(draw):
    dim = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 3)] * dim)
    terms = draw(st.lists(st.tuples(_gaussian_rational, exponents, exponents), min_size=1, max_size=3))
    return PolySymbol(terms, dim=dim)


@settings(max_examples=60, deadline=None)
@given(_exact_symbols(), st.integers(0, 3), st.booleans())
def test_toeplitz_map_matches_the_per_factor_oracle(sym, n_cap, as_float):
    # one Fraction 2^dim / prod(...) per term: the same rationals, so the same CRat and
    # bit-equal complex rows as a product of one Fraction per coordinate
    from hankel_spectra.galerkin import _toeplitz_map

    if as_float:
        sym = sym.as_float()
    trunc = BasisTruncation(n_cap, sym.dim)
    inner = BasisTruncation(n_cap + 3, sym.dim)
    for phi in (sym, sym.modulus_squared(), sym.conjugate()):
        for out_index_of in (trunc.index_of, inner.index_of):
            got = _toeplitz_map(phi, trunc.indices, out_index_of)
            want = reference_toeplitz_map(phi, trunc.indices, out_index_of)
            assert got == want
            assert [[type(v) for _, v in row] for row in got] == [[type(v) for _, v in row] for row in want]
            if as_float:
                assert repr(got) == repr(want)


@settings(max_examples=60, deadline=None)
@given(_exact_symbols(), st.integers(0, 3))
@example(parse_symbol("zb1*z2^3100000000"), 1)  # its factor products pass int64
def test_gram_tables_match_the_fraction_oracle(sym, n_cap):
    from hankel_spectra.galerkin import _gram_tables, _offset_block, _pair_offsets

    trunc = BasisTruncation(n_cap, sym.dim)
    w = trunc.weights_sqrt
    want = np.zeros((trunc.size, trunc.size), dtype=complex)
    want_scaled = np.full((trunc.size, trunc.size), CR_ZERO, dtype=object)
    for delta, pairs in _pair_offsets(sym.terms, sym.terms).items():
        box = _offset_block(trunc, delta)
        if box is None:
            continue
        lo, hi, rows, cols = box
        oracle = reference_gram_block(pairs, lo, hi)
        got = list(zip(*(t.ravel() for t in _gram_tables(pairs, lo, hi))))
        assert got == [(c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator) for c in oracle.ravel()]
        want[rows, cols] = np.asarray(oracle, dtype=complex) * w[rows] * w[cols]
        want_scaled[rows, cols] = oracle
    mat = assemble(sym, trunc)
    for g, b, sb in zip(mat.sectors, mat.blocks, reference_scaled_blocks(mat)):
        assert b.tobytes() == want[g[:, :, None], g[:, None, :]].tobytes()
        assert np.array_equal(sb, want_scaled[g[:, :, None], g[:, None, :]])
        assert all(c is CR_ZERO for c in sb.ravel() if not c)


@settings(max_examples=60, deadline=None)
@given(_exact_symbols(), st.integers(0, 3), st.booleans(), st.data())
@example(parse_symbol("zb1*z2^3100000000"), 1, False, None)
def test_from_cells_rebuilds_the_matrix_nonzero_cells_lists(sym, n_cap, as_float, data):
    # _from_cells(trunc, *mat.cells, ...) gives back mat: equal cells and sectors and bit-equal
    # blocks, for exact and float symbols.  A float listing, built here from every entry of the
    # sector blocks in a drawn order, is row-major and leaves out exactly the cells the dump
    # writes as "0.0,0.0": -0.0 and NaN cells drawn into the blocks stay listed
    from hankel_spectra.galerkin import _from_cells, _pair_offsets

    if as_float:
        sym = sym.as_float()
    offsets = frozenset(_pair_offsets(sym.terms, sym.terms))
    mat = assemble(sym, BasisTruncation(n_cap, sym.dim))
    assert "blocks" not in vars(mat)
    if as_float:
        dense = mat.dense.copy()
        for _ in range(data.draw(st.integers(0, 3))):
            g = mat.sectors[data.draw(st.integers(0, len(mat.sectors) - 1))]
            r, p, q = (data.draw(st.integers(0, n - 1)) for n in g.shape + g.shape[1:])
            dense[g[r, p], g[r, q]] = data.draw(st.sampled_from(
                [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0j, complex(math.nan, -0.0)]
            ))
        rows = np.concatenate([np.repeat(g, g.shape[1], axis=1).ravel() for g in mat.sectors])
        cols = np.concatenate([np.tile(g, g.shape[1]).ravel() for g in mat.sectors])
        order = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(rows.size)
        rows, cols = rows[order], cols[order]
        mat = _from_cells(mat.trunc, rows, cols, dense[rows, cols], False, offsets, symbol=sym)
        want = sorted((i, j, z) for i, j, z in zip(rows.tolist(), cols.tolist(), dense[rows, cols].tolist())
                      if (repr(z.real), repr(z.imag)) != ("0.0", "0.0"))
        got_rows, got_cols, got_values = mat.cells
        assert [(i, j) for i, j, _ in want] == list(zip(got_rows.tolist(), got_cols.tolist()))
        assert np.array([z for *_, z in want], dtype=complex).tobytes() == got_values.tobytes()
        assert all(a.tobytes() == dense[g[:, :, None], g[:, None, :]].tobytes() for g, a in zip(mat.sectors, mat.blocks))
    assert mat.is_exact != as_float
    rows, cols, _ = mat.cells
    assert (np.diff(rows * mat.size + cols) > 0).all()  # row-major, each cell once
    back = _from_cells(mat.trunc, *mat.cells, not as_float, offsets, symbol=sym)
    assert [g.tolist() for g in back.sectors] == [g.tolist() for g in mat.sectors]
    assert all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(back.blocks, mat.blocks))
    assert back.is_exact == mat.is_exact
    assert all(a.shape == b.shape and a.dtype == b.dtype for a, b in zip(back.cells, mat.cells))
    if as_float:
        assert all(a.tobytes() == b.tobytes() for a, b in zip(back.cells, mat.cells))
    else:
        assert all(np.array_equal(a, b) for a, b in zip(back.cells, mat.cells))


def test_a_zero_cell_between_sectors_is_dropped():
    from hankel_spectra.galerkin import _from_cells, _pair_offsets

    for sym in (parse_symbol("zb1*(zb2+1)"), parse_symbol("zb1*(zb2+1)") * (0.5 + 0j)):
        exact = sym.is_exact
        mat = assemble(sym, BasisTruncation(3, 2))
        i, j = mat.sectors[0][0][0], mat.sectors[0][1][0]
        rows, cols, values = mat.cells
        # a -0.0 float cell, and an exact one of the table ints 0/1, 0/1
        zero = np.array([[0], [1], [0], [1]], dtype=object) if exact else np.array([complex(-0.0, -0.0)])
        back = _from_cells(
            mat.trunc, np.append(rows, i), np.append(cols, j), np.append(values, zero, axis=-1), exact,
            frozenset(_pair_offsets(sym.terms, sym.terms)), symbol=sym,
        )
        assert all(a.tobytes() == b.tobytes() for a, b in zip(back.blocks, mat.blocks))
        assert matrices_equal(back, mat)
        # a dump's -0.0 cell between its sectors is dropped too
        if not exact:
            buf = io.StringIO()
            dump_matrix(mat, buf)
            lines = buf.getvalue().splitlines(keepends=True)
            cells = lines[1 + i].split()
            assert cells[j] == "0.0,0.0"
            cells[j] = "-0.0,-0.0"
            lines[1 + i] = " ".join(cells) + "\n"
            loaded = load_matrix(io.StringIO("".join(lines)))
            assert [g.tolist() for g in loaded.sectors] == [g.tolist() for g in mat.sectors]
            assert all(a.tobytes() == b.tobytes() for a, b in zip(loaded.blocks, mat.blocks))


def test_load_matrix_allocates_no_n_by_n_array(tmp_path):
    # a full complex matrix of the basis alone takes 16 n^2 bytes
    import tracemalloc

    mat = assemble(parse_symbol("(1/2+i)*zb1*(zb2+1) - 3/4*z1*zb2").as_float(), BasisTruncation(32, 2))
    path = tmp_path / "mat.txt"
    with open(path, "w") as fh:
        dump_matrix(mat, fh)
    with open(path) as fh:
        tracemalloc.start()
        try:
            back = load_matrix(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 16 * mat.size**2
    assert matrices_equal(back, mat)


def test_an_exact_compression_holds_only_its_nonzero_cells():
    # 625 basis rows in one sector of 390 625 stored entries, 3 025 of them non-zero: a padded
    # sector table of those entries, four Python-int references each, took over 13 MB
    import tracemalloc

    import hankel_spectra.galerkin as galerkin

    trunc = BasisTruncation(24, 2)
    galerkin._sectors.cache_clear()
    tracemalloc.start()
    try:
        mat = assemble(parse_symbol("zb1 + zb2 + zb1*zb2"), trunc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows, cols, values = mat.cells
    assert rows.size == cols.size == values.shape[1] == 3025
    dump_matrix(mat, io.StringIO())  # the dump reads the stored listing: it builds no blocks
    assert "blocks" not in vars(mat)
    assert np.array_equal(np.stack([rows, cols]), np.stack(np.nonzero(mat.dense)))
    assert peak < 4 * 2**20


def test_huge_exponent_dump_holds_the_closed_form_diagonal(capsys, tmp_path):
    from hankel_spectra.cli import main

    path = tmp_path / "mat.txt"
    assert main(["approx", "zb1*z2^3100000000", "--degree", "1", "--dump-matrix", str(path)]) == 0
    capsys.readouterr()
    with open(path) as fh:
        back = load_matrix(fh)
    want = [lambda_value((0, 3_100_000_000), (1, 0), alpha, {1, 2}) for alpha in back.trunc.indices]
    assert back.exact_diagonal() == want


def test_exact_assembly_checks_hermitian_symmetry_on_the_tables(monkeypatch):
    import hankel_spectra.galerkin as galerkin

    original = galerkin._gram_tables

    def corrupted(pairs, lo, hi):
        re_num, re_den, im_num, im_den = original(pairs, lo, hi)
        im_num.flat[0] += im_den.flat[0]  # one entry's imaginary part moves by 1
        return re_num, re_den, im_num, im_den

    monkeypatch.setattr(galerkin, "_gram_tables", corrupted)
    for expr in ("zb1*zb2", "(1/2+i)*zb1*(zb2+1) - 3/4*z1*zb2"):
        with pytest.raises(AssertionError, match="lost Hermitian symmetry"):
            assemble(parse_symbol(expr), BasisTruncation(3, 2))


# sha256 of approx --dump-matrix files, recorded before the writer read the sector blocks
DUMP_DIGESTS = {
    "exact-unequal-sectors": (
        ["approx", "(1/3-2/7*i)*zb1^2*z2 + (5/8+i)*z1*zb2^3 - 2*zb1*zb2", "--degree", "5"],
        "92f2fabe8775ff367eaedc889171dc7d860cbbc443e86a81c426880e69b7abc2",
    ),
    "float-json": (
        ["approx", json.dumps({"dim": 2, "terms": [
            {"coeff": [0.3, -0.7], "holo": [1, 0], "antiholo": [0, 2]},
            {"coeff": [-1.25, 0.5], "holo": [0, 0], "antiholo": [1, 1]},
        ]}), "--degree", "5"],
        "2b82f03f6abbd255f327c9290d9431abdfe4a04d53fc956c33b6bbd7de1dd859",
    ),
    "exact-dim3": (
        ["approx", "zb1*zb2*zb3 + 1/2*z1*zb3^2 + i*zb2", "--degree", "3"],
        "fd43b18ce4c8e16c833eba6a8ac34cd5ede8dc335c8cf85d387cffe1f559678e",
    ),
}


@pytest.mark.parametrize("name", sorted(DUMP_DIGESTS))
def test_dump_digest(capsys, tmp_path, name):
    from hankel_spectra.cli import main

    argv, digest = DUMP_DIGESTS[name]
    path = tmp_path / "mat.txt"
    assert main([*argv, "--dump-matrix", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _per_cell_dump(m) -> str:
    """The dump of m with every cell of the full matrix formatted on its own."""
    header = (f"hankel-spectra-matrix v1 dim={m.trunc.dim} N={m.trunc.degree_cap} "
              f"symbol={m.symbol_hash} exact={int(m.scaled is not None)}\n")
    if m.scaled is not None:
        rows = [[f"{c.re.numerator}/{c.re.denominator},{c.im.numerator}/{c.im.denominator}" for c in row]
                for row in m.scaled]
    else:
        rows = [[f"{float(c.real)!r},{float(c.imag)!r}" for c in row] for row in m.dense]
    return header + "".join(" ".join(row) + "\n" for row in rows)


_DUMP_CASES = [
    ("(1/2+i)*zb1*(zb2+1) - 3/4*z1*zb2", 4),
    ("(1/3-2/7*i)*zb1^2*z2 + (5/8+i)*z1*zb2^3 - 2*zb1*zb2", 3),
    ("zb1*zb2*zb3 + 1/2*z1*zb3^2 + i*zb2", 2),
    ("zb1 + zb1^2", 3),  # one sector spans the basis
]


def test_dump_matrix_reads_the_sector_blocks(monkeypatch):
    from hankel_spectra.galerkin import CompressionMatrix

    syms = [parse_symbol(expr) for expr, _ in _DUMP_CASES]
    syms += [sym.as_float() * (0.3 - 0.1j) for sym in syms]
    truncs = [BasisTruncation(n, sym.dim) for sym, (_, n) in zip(syms, _DUMP_CASES * 2)]
    mats = [assemble(sym, trunc) for sym, trunc in zip(syms, truncs)]
    want = [_per_cell_dump(m) for m in mats]
    want += [_per_cell_dump(load_matrix(io.StringIO(text))) for text in want]
    assert any("-0.0" in text for text in want)  # signed zeros inside the blocks are kept

    def no_full_matrix(*args):
        raise AssertionError("dump_matrix built the full matrix")

    monkeypatch.setattr(CompressionMatrix, "_graded_lex", no_full_matrix)
    fresh = [assemble(sym, trunc) for sym, trunc in zip(syms, truncs)]
    fresh += [load_matrix(io.StringIO(text)) for text in want[:len(syms)]]
    got = []
    for m in fresh:
        buf = io.StringIO()
        dump_matrix(m, buf)
        got.append(buf.getvalue())
    assert got == want


_unit_parts = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    _exact_symbols().filter(lambda sym: sym.dim >= 2),
    st.integers(2, 4),
    st.booleans(),
    st.lists(st.tuples(_unit_parts, _unit_parts), min_size=25, max_size=25),
    st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
    st.floats(-5.0, 5.0),
)
def test_blockwise_weyl_residual_matches_the_dense_product(sym, n_cap, as_float, parts, p, lam):
    if as_float:
        sym = sym.as_float() * (0.3 - 0.7j)
    trunc = BasisTruncation(n_cap, sym.dim)
    g = np.array([complex(*z) for z in parts[: (n_cap + 1) ** (sym.dim - 1)]])
    if np.linalg.norm(g) < 0.1:
        g[0] += 1.0
    g /= np.linalg.norm(g)
    p = complex(*p)
    mat = assemble(sym, trunc)
    got = weyl_residual(mat, lam, g, p)
    want = dense_weyl_residual(mat, lam, g, p)
    # relative to the residual, or to the size of its terms where they cancel (||f|| <= 1)
    scale = float(np.abs(mat.dense).sum(axis=1).max()) + abs(lam)
    assert abs(got - want) <= 1e-14 * max(want, scale)


def test_exact_paths_build_no_crat_per_entry(monkeypatch):
    import hankel_spectra.galerkin as galerkin
    from hankel_spectra.verify import run_verify

    mats = [assemble(parse_symbol(expr), BasisTruncation(n, parse_symbol(expr).dim)) for expr, n in _DUMP_CASES]
    want = [(m.exact_diagonal(), _per_cell_dump(m)) for m in mats]

    def no_crats(*args):
        raise AssertionError("a CRat per entry was built")

    monkeypatch.setattr(galerkin, "_crats", no_crats)
    for (expr, n), (diagonal, dump) in zip(_DUMP_CASES, want):
        mat = assemble(parse_symbol(expr), BasisTruncation(n, parse_symbol(expr).dim))
        buf = io.StringIO()
        dump_matrix(mat, buf)
        assert mat.exact_diagonal() == diagonal and buf.getvalue() == dump
        assert matrices_equal(load_matrix(io.StringIO(dump)), mat)
    assert "scaled" not in vars(mat)  # nothing above read the CRat view
    assert run_verify("matrix-roundtrip")["passed"]


@settings(max_examples=60, deadline=None)
@given(_exact_symbols(), st.integers(0, 3))
def test_scaled_is_the_graded_lex_layout_of_the_reference_scaled_blocks(sym, n_cap):
    mat = assemble(sym, BasisTruncation(n_cap, sym.dim))
    want = np.full((mat.size, mat.size), CR_ZERO, dtype=object)
    for g, b in zip(mat.sectors, reference_scaled_blocks(mat)):
        want[g[:, :, None], g[:, None, :]] = b
    got = mat.scaled
    assert got == tuple(map(tuple, want))
    assert [c is CR_ZERO for row in got for c in row] == [c is CR_ZERO for c in want.ravel()]
    assert mat.scaled is got


@settings(max_examples=60, deadline=None)
@given(_exact_symbols(), st.integers(0, 3), st.data())
def test_matrices_equal_catches_one_changed_table_entry(sym, n_cap, data):
    # a/b -> (a + b)/b stays reduced, so the cells still hold a valid exact matrix, one entry
    # of the sector blocks off; an entry the listing leaves out is 0/1, 0/1, inserted in place
    mat = assemble(sym, BasisTruncation(n_cap, sym.dim))
    g = mat.sectors[data.draw(st.integers(0, len(mat.sectors) - 1))]
    part = data.draw(st.sampled_from([0, 2]))
    r, p, q = (data.draw(st.integers(0, n - 1)) for n in g.shape + g.shape[1:])
    i, j = g[r, p], g[r, q]
    rows, cols, values = (a.copy() for a in mat.cells)
    at = np.searchsorted(rows * mat.size + cols, i * mat.size + j)
    if at == rows.size or (rows[at], cols[at]) != (i, j):
        rows, cols, values = np.insert(rows, at, i), np.insert(cols, at, j), np.insert(values, at, [0, 1, 0, 1], axis=1)
    values[part, at] += values[part + 1, at]
    changed = dataclasses.replace(mat, cells=(rows, cols, values))
    assert matrices_equal(mat, dataclasses.replace(mat, cells=tuple(a.copy() for a in mat.cells)))
    assert not matrices_equal(mat, changed) and not matrices_equal(changed, mat)


# integer parts below, at and past 2^53, and past the float range (10**400 and 2**1024)
_table_parts = st.one_of(
    st.integers(-(2**60), 2**60),
    st.sampled_from([2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 3, 10**400, -(10**400), 2**1024, 3 * 2**1023]),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(_table_parts, _table_parts.filter(bool), _table_parts, _table_parts.filter(bool)),
        max_size=6,
    )
)
@example([(1, 3, -2, 7), (2**53 - 1, 5, 0, 1)])  # every int below 2^53, an exact double
@example([(1, 3, 2**53 + 1, 7)])  # past 2^53: made a double first, the int would lose its 1 and misround
@example([(10**400, 3, 1, 1), (-(10**400), 7, 2**1024, -1)])  # past the float range: +-inf
@example([(1, 10**400, -1, 2**1100)])  # quotients that round to +-0.0
def test_complex_of_tables_is_complex_of_crat(entries):
    from hankel_spectra.galerkin import _complex, _table_ints

    crats = [CRat(Fraction(a, b), Fraction(c, d)) for a, b, c, d in entries]
    got = _complex(*_table_ints((c.re, c.im) for c in crats))
    assert got.shape == (len(crats),)

    def part(x: Fraction) -> float:
        try:
            return float(x)
        except OverflowError:
            return math.inf if x > 0 else -math.inf

    for z, c in zip(got.tolist(), crats):
        try:
            want = complex(c)
        except OverflowError:  # a part past the float range, which _complex leaves at +-inf
            want = complex(part(c.re), part(c.im))
        assert (z.real.hex(), z.imag.hex()) == (want.real.hex(), want.imag.hex())


# multipliers of the corpus: table ints past 2^53, tiny parts, and parts past the float range
_SCALES = [1, 2**60 + 1, Fraction(1, 3**40), 10**400, CRat(10**200, -(10**400))]


@settings(max_examples=60, deadline=None)
@given(_exact_symbols(), st.integers(0, 3), st.sampled_from(_SCALES))
@example(parse_symbol("zb1*z2^3100000000"), 1, 1)
@example(parse_symbol("zb1*(zb2+1)"), 2, 10**400)
def test_exact_blocks_built_on_read_equal_the_eager_blocks(sym, n_cap, scale):
    mat = assemble(sym * scale, BasisTruncation(n_cap, sym.dim))
    assert mat.is_exact and "blocks" not in vars(mat)
    want = eager_exact_blocks(mat)
    assert all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(mat.blocks, want))
    assert mat.blocks is mat.blocks  # built once


def test_exact_reads_build_no_float_blocks(monkeypatch):
    from hankel_spectra.galerkin import CompressionMatrix

    cases = [(parse_symbol(expr), n) for expr, n in _DUMP_CASES]
    want = []
    for sym, n in cases:
        mat = assemble(sym, BasisTruncation(n, sym.dim))
        want.append((mat.exact_diagonal(), _per_cell_dump(mat)))

    def no_blocks(self):
        raise AssertionError("the float blocks were built")

    monkeypatch.setattr(CompressionMatrix, "blocks", property(no_blocks))
    for (sym, n), (diagonal, dump) in zip(cases, want):
        trunc = BasisTruncation(n, sym.dim)
        mat = assemble(sym, trunc)
        buf = io.StringIO()
        dump_matrix(mat, buf)
        assert buf.getvalue() == dump and mat.exact_diagonal() == diagonal
        loaded = load_matrix(io.StringIO(dump))
        assert matrices_equal(loaded, mat) and matrices_equal(mat, assemble_via_toeplitz(sym, trunc))
        assert loaded.exact_diagonal() == diagonal


class _CountingWrites(io.StringIO):
    """A text buffer that records the length of every write()."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(len(text))
        return super().write(text)


def test_dump_matrix_writes_in_chunks_of_about_one_mib():
    # the benchmark's D2 N=22 exact dump (2.2 MB), and a float dump with -0.0 cells
    exact = parse_symbol("(2-i)*z2*zb2 + (-1-i)*z1*z2*zb1^2*zb2^2")
    for sym in (exact, exact.as_float() * (0.3 - 0.1j)):
        mat = assemble(sym, BasisTruncation(22, 2))
        buf = _CountingWrites()
        dump_matrix(mat, buf)
        text = buf.getvalue()
        assert text == _per_cell_dump(mat) and ("-0.0" in text) == (not sym.is_exact)
        assert len(text) > 2**21 and len(buf.writes) <= 2 + len(text) // 2**20
        assert max(buf.writes) < 2**21  # never the whole dump in one string


def test_a_loaded_dump_holds_the_assembled_tables():
    for expr, n in _DUMP_CASES:
        mat = assemble(parse_symbol(expr), BasisTruncation(n, parse_symbol(expr).dim))
        buf = io.StringIO()
        dump_matrix(mat, buf)
        back = load_matrix(io.StringIO(buf.getvalue()))
        assert [g.tolist() for g in back.sectors] == [g.tolist() for g in mat.sectors]
        for a, b in zip(back.cells, mat.cells):
            assert a.shape == b.shape and np.array_equal(a, b)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(back.blocks, mat.blocks))


# an exact dump of one entry whose real part, 10**400, is past the float range
_PAST_FLOAT_DUMP = f"hankel-spectra-matrix v1 dim=1 N=0 symbol=x exact=1\n{10**400}/1,0/1\n"


def test_an_assembled_entry_past_the_float_range_is_refused_as_non_finite():
    from hankel_spectra.galerkin import _complex

    # each table part is divided on its own: +-inf past the float range, the others as before
    parts = [np.array(x, dtype=object) for x in ([10**400, -(10**400), 1], [1, 3, 2], [0, 1, -(10**400)], [1, 2, 1])]
    assert _complex(*parts).tolist() == [complex(math.inf, 0), complex(-math.inf, 0.5), complex(0.5, -math.inf)]
    mat = assemble(parse_symbol("10^200*zb1"), BasisTruncation(2, 1))
    assert mat.exact_diagonal()[0] == Fraction(10**400, 2) and not np.isfinite(np.diagonal(mat.dense)).any()
    with pytest.raises(ValueError, match="non-finite entries"):
        eigenvalues(mat)


def test_a_loaded_exact_cell_past_the_float_range_is_refused_as_non_finite():
    mat = load_matrix(io.StringIO(_PAST_FLOAT_DUMP))
    assert mat.exact_diagonal() == [Fraction(10**400)] and not np.isfinite(mat.dense).any()
    with pytest.raises(ValueError, match="compression of dumped symbol x has non-finite entries"):
        eigenvalues(mat)


@functools.cache
def _real_dumps() -> tuple[str, ...]:
    """Dumps of exact and float compressions: several sectors, one sector, dim 1 and 3."""
    dumps = []
    for expr, n_cap in (("(1/2+i)*zb1*(zb2+1) - 3/4*z1*zb2", 2), ("zb1 + 2*zb1^2", 3), ("zb1*zb2*zb3", 1)):
        sym = parse_symbol(expr)
        for s in (sym, sym.as_float() * (0.3 - 0.4j)):
            buf = io.StringIO()
            dump_matrix(assemble(s, BasisTruncation(n_cap, s.dim)), buf)
            dumps.append(buf.getvalue())
    return tuple(dumps)


_CELL_PARTS = st.sampled_from(["0", "1/0", "nan", "inf", str(10**400), "1/2", "-0.0", "0.25", "1e999999999/1"])


@st.composite
def _mutated_dumps(draw):
    """A real dump with a truncation, a replaced cell, an edited header field or trailing content."""
    lines = draw(st.sampled_from(_real_dumps())).splitlines(keepends=True)
    kind = draw(st.sampled_from(["truncate", "cell", "header", "trailing"]))
    if kind == "truncate":  # at a line end or inside a line
        text = "".join(lines)
        return text[: draw(st.integers(0, len(text) - 1))]
    if kind == "cell":
        i = draw(st.integers(1, len(lines) - 1))
        cells = lines[i].split()
        cells[draw(st.integers(0, len(cells) - 1))] = draw(
            st.one_of(st.sampled_from([",", "1,2,3", ""]), st.builds("{},{}".format, _CELL_PARTS, _CELL_PARTS))
        )
        lines[i] = " ".join(cells) + "\n"
    elif kind == "header":
        key = draw(st.sampled_from(["dim", "N", "exact", "symbol"]))
        value = draw(st.sampled_from(["0", "1", "2", "3", "9", "-1", "x", "", "99999", "1" * 12]))
        lines[0] = re.sub(rf"\b{key}=\S*", f"{key}={value}", lines[0])
    else:
        lines.append(draw(st.sampled_from(["x", "0/1,0/1\n", " \n\t\n", lines[0], lines[-1]])))
    return "".join(lines)


@settings(max_examples=200, deadline=None)
@given(_mutated_dumps())
@example(_PAST_FLOAT_DUMP)
@example(_PAST_FLOAT_DUMP.replace(str(10**400), "1e999999999"))
@example(_PAST_FLOAT_DUMP.replace(" v1 ", " v2 "))
def test_a_mutated_dump_loads_and_solves_or_raises_value_error(text):
    try:
        eigenvalues(load_matrix(io.StringIO(text)))
    except ValueError:
        pass


# -- the cell route against the padded block stacks (tests/oracles.py) ----------------

_PARITY_EXPRS = [
    "zb1*(zb2+1)",
    "(1/2+i)*zb1*(zb2+1) - 3/4*z1*zb2",
    "zb1^2*zb2 + zb1",
    "zb1 + zb1^2",
    "zb1*zb2*zb3 + 1/2*z1*zb3^2 + i*zb2",
]
# float cells: signed zeros, NaN and +-inf parts, small skews and an entry near the float range
_FLOAT_CELLS = [
    -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), math.nan, complex(0.5, math.nan), math.inf, -math.inf,
    complex(0.0, math.inf), 1e-3, complex(0.25, 1e-7), 1e308,
]
# exact cells, as table-int columns re_num, re_den, im_num, im_den: a small rational, a
# complex one and one past the float range
_EXACT_CELLS = [[1, 3, 0, 1], [-2, 7, 1, 5], [10**400, 1, 0, 1]]


def _padded_stacks(mat):
    """The (1, k, s, s) sector stacks of mat, each cell placed through the n x n matrix."""
    if mat.is_exact:
        blocks = eager_exact_blocks(mat)
    else:
        rows, cols, values = mat.cells
        dense = np.zeros((mat.size, mat.size), dtype=complex)
        dense[rows, cols] = values
        blocks = tuple(dense[g[:, :, None], g[:, None, :]] for g in mat.sectors)
    return [b[None] for b in blocks]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_PARITY_EXPRS), st.integers(1, 4), st.sampled_from(["float", "exact", "loaded"]), st.data())
def test_cell_route_parity_with_block_stacks_on_compressions(expr, n_cap, kind, data):
    # eigenvalues() must give the padded-stack route's eigenvalues bit for bit, or its first error
    sym = parse_symbol(expr)
    if kind == "exact":
        sym = sym * data.draw(st.sampled_from(_SCALES), label="scale")
    else:
        sym = sym.as_float() * data.draw(st.sampled_from([1.0, 0.3 - 0.1j, 1e154]), label="scale")
    mat = assemble(sym, BasisTruncation(n_cap, sym.dim))
    for _ in range(data.draw(st.integers(0, 3), label="cells")):
        # a cell anywhere in a sector block: listed or not, so its mirror may be unlisted
        g = mat.sectors[data.draw(st.integers(0, len(mat.sectors) - 1), label="group")]
        k, r, c = (data.draw(st.integers(0, n - 1)) for n in (g.shape[0], g.shape[1], g.shape[1]))
        value = data.draw(st.sampled_from(_EXACT_CELLS if mat.is_exact else _FLOAT_CELLS), label="value")
        mat = _with_cell(mat, g[k, r], g[k, c], value)
    if kind == "loaded":
        buf = io.StringIO()
        dump_matrix(mat, buf)
        mat = load_matrix(io.StringIO(buf.getvalue()))
    name = mat.symbol if mat.symbol is not None else f"dumped symbol {mat.dumped_hash}"
    stacks = _padded_stacks(mat)
    assert all(a.tobytes() == b[0].tobytes() for a, b in zip(mat.blocks, stacks))
    want = solve_outcome(lambda: reference_checked_eigenvalues(stacks, lambda i: name)[0])
    assert solve_outcome(lambda: eigenvalues(mat)) == want


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4),
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4)), min_size=1, max_size=3, unique_by=lambda t: t[1]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 0.7, 0.3]),
    st.sampled_from([1.0, 1e3]),
    st.data(),
)
def test_cell_route_parity_with_block_stacks_on_drawn_samples(samples, shapes, seed, density, magnitude, data):
    # batches of drawn samples, each its own Hermitian diagonally dominant blocks with a drawn
    # share of their entries listed, mirror pairs together, and a few drawn cells changed in
    # one sample: a special value, a skew, a listed -0.0 or an entry dropped from one side
    from hankel_spectra.galerkin import _checked_eigenvalues, _split

    rng = np.random.default_rng(seed)
    stacks = []
    for k, s in shapes:
        a = rng.standard_normal((samples, k, s, s)) + 1j * rng.standard_normal((samples, k, s, s))
        stacks.append((a + a.conj().swapaxes(2, 3)) / 2 + 2 * s * np.eye(s))
    values, at, mirror, groups, stored = _as_cells(stacks)
    flat = values.copy()
    pair = rng.random(stored) < density
    listed = pair | pair[mirror]
    for _ in range(data.draw(st.integers(0, 3), label="changes")):
        i = data.draw(st.integers(0, samples - 1), label="sample")
        j = data.draw(st.integers(0, stored - 1), label="entry")
        change = data.draw(st.sampled_from(["drop", "skew", "-0.0", *map(str, _FLOAT_CELLS)]), label="change")
        if change == "drop":
            listed[j] = False
        else:
            listed[j] = True
            flat[i, j] = flat[i, j] + 1e-9 if change == "skew" else complex(change)
    flat[:, ~listed] = 0.0
    stacks = list(_split(flat, groups))
    got = solve_outcome(lambda: _checked_eigenvalues(*_as_cells(stacks, listed), "s{}".format, magnitude))
    assert got == solve_outcome(lambda: reference_checked_eigenvalues(stacks, "s{}".format, magnitude))
