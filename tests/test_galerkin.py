"""Compression assembly, the Toeplitz identity, eigensolution, and Weyl residuals."""

import io
import json
import math
from fractions import Fraction
from itertools import product

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hankel_spectra import (
    BasisTruncation,
    Exactness,
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
from oracles import dense_weyl_residual, hankel_entry_oracle, reference_gram_block


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


def test_weyl_residual_rejects_a_matrix_of_another_symbol():
    sym = parse_symbol("zb1", dim=2)
    trunc = BasisTruncation(14, 2)
    g = np.zeros(trunc.degree_cap + 1, dtype=complex)
    g[0] = 1.0
    other = assemble(parse_symbol("3*zb2^2", dim=2), trunc)
    with pytest.raises(ValueError, match="supplied matrix is of symbol"):
        weyl_residual(sym, 0.5, g, 0.5, trunc, mat=other)
    with pytest.raises(ValueError, match="truncation does not match"):
        weyl_residual(sym, 0.5, g, 0.5, trunc, mat=assemble(sym, BasisTruncation(13, 2)))


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
        weyl_residual(sym, lam, g, p, trunc)
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
    want = [dense_weyl_residual(assemble(sym, trunc), lam, g, p) for (sym, lam, p), trunc, g in zip(cases, truncs, gs)]

    def no_full_matrix(*args):
        raise AssertionError("weyl_residual built the full matrix")

    monkeypatch.setattr(CompressionMatrix, "_graded_lex", no_full_matrix)
    for (sym, lam, p), trunc, g, w in zip(cases, truncs, gs, want):
        assert abs(weyl_residual(sym, lam, g, p, trunc) - w) <= 1e-14 * max(1.0, w)


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
        (0, "1.5"),
        (0, "1.5,x"),
        (0, "1.5,2.5,3.5"),
    ],
)
def test_load_matrix_rejects_bad_cell(exact, cell):
    good = "0/1,0/1" if exact else "0.0,0.0"
    dump = f"hankel-spectra-matrix v1 dim=1 N=1 symbol=x exact={exact}\n{good} {good}\n{good} {cell}\n"
    with pytest.raises(ValueError, match="matrix dump row 1, column 1: "):
        load_matrix(io.StringIO(dump))


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
        blocks = [b.copy() for b in mat.blocks]
        blocks[-1][0, 1, 1] = bad  # NaN passes the Hermiticity guard: NaN > tol is false
        with pytest.raises(ValueError, match="non-finite entries"):
            eigenvalues(dataclasses.replace(mat, blocks=tuple(blocks)))


def test_exact_dump_bytes_match_per_cell_formatting():
    # zero cells are written as a constant; the bytes must equal formatting every cell,
    # for assembled matrices (shared CR_ZERO) and loaded ones (fresh CRat zeros inside
    # the sector blocks, CR_ZERO between them)
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
    assert back.scaled == mat.scaled and any(c is not CR_ZERO and not c for row in back.scaled for c in row)
    again = io.StringIO()
    dump_matrix(back, again)
    assert again.getvalue() == buf.getvalue() == per_cell(back)


def test_eigenvalues_rejects_entry_between_sectors():
    # blocks have no room for such an entry: the dense-to-blocks constructor rejects it
    from hankel_spectra.galerkin import _from_dense, _pair_offsets

    sym = parse_symbol("zb1*(zb2+1)") * (0.5 + 0j)
    mat = assemble(sym, BasisTruncation(3, 2))
    i, j = mat.sectors[0][0][0], mat.sectors[0][1][0]
    dense = mat.dense.copy()
    dense[i, j] = dense[j, i] = 1e-3  # Hermitian, so only the sector check can see it
    with pytest.raises(ValueError, match="outside its sector blocks"):
        _from_dense(
            dense, False, frozenset(_pair_offsets(sym.terms, sym.terms)),
            symbol=sym, trunc=mat.trunc, symbol_hash=mat.symbol_hash,
        )


def test_eigenvalues_rejects_non_hermitian_entry_inside_a_block():
    import dataclasses

    mat = assemble(parse_symbol("zb1*(zb2+1)") * (0.5 + 0j), BasisTruncation(3, 2))
    blocks = [b.copy() for b in mat.blocks]
    blocks[0][1, 0, 1] += 1e-6  # entry (i, j) for i, j = mat.sectors[0][1][:2]
    with pytest.raises(ValueError, match="not Hermitian"):
        eigenvalues(dataclasses.replace(mat, blocks=tuple(blocks)))


def test_guards_take_the_samples_in_order():
    # each sample fails as its own eigenvalues() call would; the first failing sample wins
    from hankel_spectra.galerkin import _checked_eigenvalues

    def stacks(*diagonals):
        return [np.array([[np.diag(d).astype(complex)] for d in diagonals])]

    skew = stacks([1.0, 1.0], [1.0, 1.0], [math.inf, 1.0])
    skew[0][1, 0, 0, 1] = 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        _checked_eigenvalues(skew, "s{}".format)
    with pytest.raises(ValueError, match="below PSD floor"):
        _checked_eigenvalues(stacks([1.0, 1.0], [-1.0, 1.0], [math.nan, 1.0]), "s{}".format)
    late_skew = stacks([1.0, 1.0], [-1.0, 1.0], [1.0, 1.0])
    late_skew[0][2, 0, 0, 1] = 1e-6
    with pytest.raises(ValueError, match="below PSD floor"):
        _checked_eigenvalues(late_skew, "s{}".format)
    with pytest.raises(ValueError, match="compression of s1 has non-finite"):
        _checked_eigenvalues(stacks([1.0, 1.0], [math.inf, 1.0], [-1.0, 1.0]), "s{}".format)
    w = _checked_eigenvalues(stacks([2.0, 1.0], [0.0, 3.0]), "s{}".format)
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
    for g, b, sb in zip(mat.sectors, mat.blocks, mat.scaled_blocks):
        assert np.array_equal(b, mat.dense[g[:, :, None], g[:, None, :]])
        assert all(sb[r, p, q] == mat.scaled[i][j] for r, row in enumerate(g)
                   for p, i in enumerate(row) for q, j in enumerate(row))
    assert mat.exact_diagonal() == [(mat.scaled[i][i] * w).real_fraction()
                                    for i, w in enumerate(np.prod(np.array(trunc.indices) + 1, axis=1))]
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
    want = [[(m.scaled[i][i] * weight(a)).real_fraction() for i, a in enumerate(m.trunc.indices)] for m in mats]

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


def test_load_matrix_rejects_a_short_row():
    dump = "hankel-spectra-matrix v1 dim=1 N=1 symbol=x exact=0\n0.5,0.0 0.0,0.0\n0.0,0.0\n"
    with pytest.raises(ValueError, match="row 1: expected 2 entries, got 1"):
        load_matrix(io.StringIO(dump))


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
    for g, b, sb in zip(mat.sectors, mat.blocks, mat.scaled_blocks):
        assert b.tobytes() == want[g[:, :, None], g[:, None, :]].tobytes()
        assert np.array_equal(sb, want_scaled[g[:, :, None], g[:, None, :]])
        assert all(c is CR_ZERO for c in sb.ravel() if not c)


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


def test_dump_matrix_reads_the_sector_blocks(monkeypatch):
    from hankel_spectra.galerkin import CompressionMatrix

    cases = [
        ("(1/2+i)*zb1*(zb2+1) - 3/4*z1*zb2", 4),
        ("(1/3-2/7*i)*zb1^2*z2 + (5/8+i)*z1*zb2^3 - 2*zb1*zb2", 3),
        ("zb1*zb2*zb3 + 1/2*z1*zb3^2 + i*zb2", 2),
        ("zb1 + zb1^2", 3),  # one sector spans the basis
    ]
    syms = [parse_symbol(expr) for expr, _ in cases]
    syms += [sym.as_float() * (0.3 - 0.1j) for sym in syms]

    def header(m):
        return (f"hankel-spectra-matrix v1 dim={m.trunc.dim} N={m.trunc.degree_cap} "
                f"symbol={m.symbol_hash} exact={int(m.scaled is not None)}\n")

    def per_cell(m):  # every cell of the full matrix formatted on its own
        if m.scaled is not None:
            rows = [[f"{c.re.numerator}/{c.re.denominator},{c.im.numerator}/{c.im.denominator}" for c in row]
                    for row in m.scaled]
        else:
            rows = [[f"{float(c.real)!r},{float(c.imag)!r}" for c in row] for row in m.dense]
        return header(m) + "".join(" ".join(row) + "\n" for row in rows)

    truncs = [BasisTruncation(n, sym.dim) for sym, (_, n) in zip(syms, cases * 2)]
    mats = [assemble(sym, trunc) for sym, trunc in zip(syms, truncs)]
    want = [per_cell(m) for m in mats]
    want += [per_cell(load_matrix(io.StringIO(text))) for text in want]
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
    got = weyl_residual(sym, lam, g, p, trunc, mat=mat)
    want = dense_weyl_residual(mat, lam, g, p)
    # relative to the residual, or to the size of its terms where they cancel (||f|| <= 1)
    scale = float(np.abs(mat.dense).sum(axis=1).max()) + abs(lam)
    assert abs(got - want) <= 1e-14 * max(want, scale)
