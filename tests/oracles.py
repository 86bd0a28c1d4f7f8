"""Independent numerical oracles used to freeze and cross-check expected values.

Inner products over the polydisc are computed by tensor quadrature:
Gauss-Legendre in each radius and a uniform trapezoid grid in each angle
(exact for trigonometric polynomials of degree below the grid size).  Nothing
here touches the package's own inner-product code.

The point closed form ``_lambda_unchecked`` multiplies Fraction factors one
coordinate at a time, the way the package's lambda_value did before it read
its point from the enumeration's integer tables.  The reference enumeration of
a monomial spectrum evaluates it point by point into Fraction buckets, the way
the package did before it switched to integer tables.  The order oracle
``graded_lex_box`` sorts the basis box by (total degree, alpha), the way the
package did before it read the order off BasisTruncation.positions.  The
reference slice profile slices psi at every circle sample and solves one
compression each, the way the package did before it evaluated the profile as
a matrix trigonometric polynomial in theta; the one-angle profile builds the
same Fourier symbols and calls top_eigenvalues with one circle sample per
call, so it solves every sample of a profile that does not depend on theta,
which the package solves once.  The reference Gram block multiplies
Fraction factors entry by entry, the way the package's exact kernel did
before it summed reduced integer tables.  The torus sup norm is a grid proxy
used by the Lipschitz check of the profile.  The reference writers of the
``exact`` document build a SpectrumSet's records as dicts, JSON-ready or as CSV
rows, the way the package did before it rendered both formats from per-record
texts; spectrum_from_records stores hand-built records in a SpectrumSet's tables.
The quasi-homogeneous point formula takes the two whole-profile radial
integrals of one alpha and divides by the monomial norms, the way the
package's qh_eigenvalue did before it read a box of alpha off per-coordinate
tables.  The dense Weyl residual multiplies the graded-lex matrix by a test
vector filled entry by entry, the way the package's weyl_residual did before
it applied the sector blocks.  The reference scaled blocks turn an exact
compression's integer tables into CRat entries in one flat pass, the way
assemble did before it kept the tables and built CRat entries only on request.
The reference coordinate table sums each radial integral of a polynomial
factor in Fractions and reads its per-coordinate ratios off them, the way
quasihomog._coordinate_table did before it summed reduced integer pairs.  The
eager exact blocks divide the non-zero table cells one Python division at a
time and weight them, the way an exact compression's constructor filled its
float blocks before they were built on first read.  The reference checked
eigenvalues symmetrise whole padded (samples, k, s, s) sector stacks and take
the finiteness, Hermiticity and scale guards over every stored entry, the way
the package's eigensolve did before it read only the listed cells and their
mirrors; solve_outcome gives what either route returns in a form two routes
can be compared by: the eigenvalues' hex texts, or the error message.  The
reference blocks scatter a compression's listed entries into padded (k, s, s)
sector stacks, and the reference dense matrix places those stacks in the
graded-lex layout (one sector spanning the basis is its own matrix), the way
CompressionMatrix.blocks and dense did before every reader applied the cell
listing.  The reference top eigenvalues sum a slice's Fourier blocks on the
union of their cells, one column per cell found by np.unique, the way
top_eigenvalues did before galerkin._fourier_blocks keyed the columns by
winding offset.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from fractions import Fraction
from functools import reduce
from itertools import product

import numpy as np

from hankel_spectra import galerkin
from hankel_spectra.boundary import slice_symbol

from hankel_spectra.core import (
    MULTIPLICITIES,
    EigenRecord,
    MonomialSymbol,
    MultiplicityClass,
    Provenance,
    SpectrumSet,
    SymbolClass,
    multiplicity_class,
)
from hankel_spectra.galerkin import (
    EIGEN_FLOOR,
    HERMITICITY_TOL,
    BasisTruncation,
    KernelVector,
    assemble,
    eigenvalues,
    top_eigenvalues,
)
from hankel_spectra.multiindex import full_set, nonempty_subsets
from hankel_spectra.quasihomog import QhBranch, monomial_norm_sq, radial_integral
from hankel_spectra.rational import CR_ZERO, CRat
from hankel_spectra.symbols import PolySymbol

_RADIAL_NODES = 120
_ANGULAR_NODES = 512


def disc_inner_1d(a: int, b: int, c: int, d: int) -> complex:
    """<z^a zbar^b, z^c zbar^d> over the unit disc, dA = r dr dtheta."""
    x, w = np.polynomial.legendre.leggauss(_RADIAL_NODES)
    r = (x + 1.0) / 2.0
    wr = w / 2.0
    radial = np.sum(wr * r ** (a + b + c + d + 1))
    k = a - b - c + d
    theta = 2.0 * np.pi * np.arange(_ANGULAR_NODES) / _ANGULAR_NODES
    angular = 2.0 * np.pi * np.mean(np.exp(1j * k * theta))
    return complex(radial * angular)


def inner_nd(A, B, C, D) -> complex:
    """<z^A zbar^B, z^C zbar^D> over the polydisc (tensor product of discs)."""
    v = 1.0 + 0.0j
    for a, b, c, d in zip(A, B, C, D):
        v *= disc_inner_1d(a, b, c, d)
    return v


def monomial_norm_sq_nd(beta) -> float:
    zero = (0,) * len(beta)
    return inner_nd(beta, zero, beta, zero).real


def hankel_entry_oracle(terms, alpha, beta, gamma_cap: int) -> complex:
    """<H_psi e_alpha, H_psi e_beta> by brute-force quadrature.

    terms: list of (complex coefficient, holo tuple, antiholo tuple).
    The projection sum runs over the full gamma box up to gamma_cap.
    """
    import itertools

    dim = len(alpha)
    zero = (0,) * dim

    def psi_pair(x, y):
        # <psi z^x, psi z^y>
        total = 0j
        for cs, ns, ms in terms:
            for ct, nt, mt in terms:
                total += (
                    cs
                    * np.conj(ct)
                    * inner_nd(
                        tuple(xi + ni for xi, ni in zip(x, ns)), ms,
                        tuple(yi + ni for yi, ni in zip(y, nt)), mt,
                    )
                )
        return total

    def psi_mono(x, gamma):
        # <psi z^x, z^gamma>
        total = 0j
        for c, n, m in terms:
            total += c * inner_nd(tuple(xi + ni for xi, ni in zip(x, n)), m, gamma, zero)
        return total

    first = psi_pair(alpha, beta)
    proj = 0j
    for gamma in itertools.product(range(gamma_cap + 1), repeat=dim):
        ng = monomial_norm_sq_nd(gamma)
        proj += psi_mono(alpha, gamma) * np.conj(psi_mono(beta, gamma)) / ng
    na = np.sqrt(monomial_norm_sq_nd(alpha))
    nb = np.sqrt(monomial_norm_sq_nd(beta))
    return (first - proj) / (na * nb)


def radial_integral_oracle(fn, exponents) -> float:
    """prod_k 2 pi int_0^1 r^{p_k + 1} f_k(r) dr by quadrature."""
    x, w = np.polynomial.legendre.leggauss(_RADIAL_NODES)
    r = (x + 1.0) / 2.0
    wr = w / 2.0
    total = 1.0
    for f, p in zip(fn, exponents):
        total *= 2.0 * np.pi * np.sum(wr * r ** (p + 1) * f(r))
    return float(total)


def qh_point_oracle(sym, alpha, nodes: int = 64):
    """(value, branch) of the quasi-homogeneous eigenvalue on z^alpha, from
    radial_integral over the whole profile, one point at a time."""
    shifted = tuple(a + k for a, k in zip(alpha, sym.winding))
    norm_a = monomial_norm_sq(alpha)
    first = radial_integral(sym.squared_modulus, [2 * a for a in alpha], nodes=nodes)
    first = first / norm_a if isinstance(first, Fraction) else first / float(norm_a)
    if min(shifted) < 0:
        value, branch = first, QhBranch.KERNEL
    else:
        cross = radial_integral(sym.profile, [2 * a + k for a, k in zip(alpha, sym.winding)], nodes=nodes)
        norm_ak = monomial_norm_sq(shifted)
        if isinstance(cross, Fraction):
            second = cross * cross / (norm_a * norm_ak)
        else:
            second = abs(cross) ** 2 / float(norm_a * norm_ak)
        value, branch = first - second, QhBranch.PROJECTION
    if not isinstance(value, Fraction):
        value = max(float(np.real(value)), 0.0)
    return value, branch


def reference_factor_integral(coeffs, p: int) -> Fraction:
    """2 * integral_0^1 r^{p+1} f(r) dr for a polynomial factor, summed in Fractions."""
    total = Fraction(0)
    for d, c in enumerate(coeffs):
        if c == 0:
            continue
        if p + d + 1 < 0:
            raise ValueError(
                f"non-integrable exponent: r^{p + d + 1} near 0 (power {p}, degree {d})"
            )
        total += c * Fraction(2, p + d + 2)
    return total


def reference_convolve(a, b) -> tuple:
    """The coefficients of the product of two polynomial factors, one Fraction product and sum per pair."""
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return tuple(out)


def reference_toeplitz_map(phi, in_indices, out_index_of) -> list[list]:
    """Sparse rows of <phi z^a, z^gamma>/pi^n, each coefficient a product of one Fraction
    2/(a_k+n_k+m_k+gamma_k+2) per coordinate."""
    out = []
    for alpha in in_indices:
        acc = {}
        for c, n, m in phi.terms:
            gamma = tuple(a + nk - mk for a, nk, mk in zip(alpha, n, m))
            if min(gamma) < 0 or gamma not in out_index_of:
                continue
            val = Fraction(1)
            for a, nk, mk, gk in zip(alpha, n, m, gamma):
                val *= Fraction(2, a + nk + mk + gk + 2)
            g = out_index_of[gamma]
            acc[g] = acc.get(g, CR_ZERO) + c * val
        out.append(sorted(acc.items()))
    return out


def reference_coordinate_table(factor, square, k: int, axis) -> list[tuple]:
    """The exact (p, q, s, t) of quasihomog._coordinate_table for one coordinate, from
    Fraction integrals, each ratio reduced: p/q = (a+1) * I(|f|^2, 2a) and
    s/t = (a+1)(a+k+1) * I(f, 2a+k)^2, s and t None where a + k < 0."""
    table = []
    for a in axis:
        first = reference_factor_integral(square, 2 * a) * (a + 1)
        if a + k < 0:
            second = (None, None)
        else:
            cross = reference_factor_integral(factor, 2 * a + k)
            second = (cross * cross * ((a + 1) * (a + k + 1))).as_integer_ratio()
        table.append(first.as_integer_ratio() + second)
    return table


def _rounded(num: int, den: int) -> float:
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def eager_exact_blocks(mat) -> tuple[np.ndarray, ...]:
    """The float sector blocks of an exact compression, laid out cell by cell: (c * w_i) * w_j
    for every non-zero table cell (i, j), c each part num / den in one Python division (+-inf
    past the float range) and w the sqrt weights, +0.0 elsewhere."""
    rows, cols, values = mat.cells
    c = np.array([complex(_rounded(a, b), _rounded(p, q)) for a, b, p, q in zip(*values.tolist())], dtype=complex)
    w = mat.trunc.weights_sqrt
    dense = np.zeros((mat.size, mat.size), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        dense[rows, cols] = c * w[rows] * w[cols]
    return tuple(dense[g[:, :, None], g[:, None, :]] for g in mat.sectors)


def reference_blocks(mat) -> tuple[np.ndarray, ...]:
    """The orthonormal (k, s, s) sector stacks of mat: every listed entry at its place in the
    layout, +0.0 elsewhere, split by mat.sectors."""
    values, at, _ = mat.listing
    flat = np.zeros(mat.layout[2], dtype=complex)
    flat[at] = values
    blocks, start = [], 0
    for g in mat.sectors:
        k, s = g.shape
        blocks.append(flat[start:start + k * s * s].reshape(k, s, s))
        start += k * s * s
    return tuple(blocks)


def reference_dense(mat) -> np.ndarray:
    """The graded-lex matrix of mat laid out from its reference blocks, sector by sector."""
    blocks = reference_blocks(mat)
    if blocks[0].shape[1] == mat.size:  # one sector spans the basis: its block is the matrix
        return blocks[0][0]
    out = np.zeros((mat.size, mat.size), dtype=blocks[0].dtype)
    for g, b in zip(mat.sectors, blocks):
        out[g[:, :, None], g[:, None, :]] = b
    return out


def _stack_defects(stacks) -> np.ndarray:
    """Per sample, the largest |b - b^H| over its (samples, k, s, s) sector stacks."""
    return np.max([np.abs(b - b.conj().swapaxes(2, 3)).max(axis=(1, 2, 3)) for b in stacks], axis=0)


def _stack_scales(stacks) -> np.ndarray:
    """Per sample, the largest |entry| of its sector stacks."""
    return np.max([np.abs(b).max(axis=(1, 2, 3)) for b in stacks], axis=0)


def reference_checked_eigenvalues(stacks, name_of, magnitude: float = 1.0) -> np.ndarray:
    """Ascending eigenvalues of each sample's (samples, k, s, s) sector stacks, shape (samples, size),
    with the guards of eigenvalues() taken over every stored entry: the first failing sample
    raises for its first failing guard (non-finite symmetrised entries, then a Hermiticity
    defect, then the PSD floor), both bounds relative to max(1, magnitude)."""
    unit = max(1.0, magnitude)
    with np.errstate(over="ignore", invalid="ignore"):
        hermitian = [np.divide(h, 2.0, out=h) for h in (b + b.conj().swapaxes(2, 3) for b in stacks)]
        finite = np.logical_and.reduce([np.isfinite(h).all(axis=(1, 2, 3)) for h in hermitian])
        n_finite = finite.size if finite.all() else int(np.argmin(finite))
        stacks = [b[:n_finite] for b in stacks]
        defect = _stack_defects(stacks)
        skewed = np.flatnonzero(defect > HERMITICITY_TOL * np.maximum(unit, _stack_scales(stacks)))
    n_solved = skewed[0] if skewed.size else n_finite
    w = np.sort(np.concatenate([
        np.linalg.eigvalsh(h[:n_solved]).reshape(n_solved, h.shape[1] * h.shape[2]) for h in hermitian
    ], axis=1), axis=1)
    low = np.flatnonzero(w[:, 0] < EIGEN_FLOOR * unit)
    if low.size:
        raise ValueError(f"eigenvalue {w[low[0], 0]:g} below PSD floor {EIGEN_FLOOR * unit:g}")
    if skewed.size:
        raise ValueError(f"matrix is not Hermitian: defect {defect[n_solved]:g}")
    if n_finite < finite.size:
        raise ValueError(
            f"compression of {name_of(n_finite)} has non-finite entries; coefficients too large for floats?"
        )
    return w


def solve_outcome(solve):
    """The hex texts of the eigenvalues solve() returns, or the message of its ValueError."""
    try:
        return [v.hex() for v in np.ravel(solve()).tolist()]
    except ValueError as error:
        return str(error)


def dense_weyl_residual(mat, lam, g, p) -> float:
    """||(M - lam I)(g (x) k_p)|| with the dense graded-lex matrix of mat."""
    trunc = mat.trunc
    slice_index = {a: i for i, a in enumerate(graded_lex_box(trunc.degree_cap, trunc.dim - 1))}
    kc = KernelVector(complex(p), trunc.degree_cap).coefficients
    f = np.array([g[slice_index[a[:-1]]] * kc[a[-1]] for a in graded_lex_box(trunc.degree_cap, trunc.dim)])
    return float(np.linalg.norm(mat.dense @ f - lam * f))


def _lambda_unchecked(n, m, alpha, members) -> Fraction:
    """lambda(n, m, alpha, B) for B = members, as a product of Fraction factors;
    see core.lambda_value for the two cases.  The inputs are not validated."""
    first = Fraction(1)
    first_case = False
    for k in members:
        a, nk, mk = alpha[k - 1], n[k - 1], m[k - 1]
        first *= Fraction(a + 1, a + nk + mk + 1)
        if a < mk - nk:
            first_case = True
    if first_case:
        return first

    second = Fraction(1)
    for k in members:
        a, nk, mk = alpha[k - 1], n[k - 1], m[k - 1]
        second *= Fraction((a + 1) * (a + nk - mk + 1), (a + nk + 1) ** 2)
    return first - second


def graded_lex_box(cap: int, dim: int) -> tuple[tuple[int, ...], ...]:
    """The multi-indices alpha <= cap sorted graded-lexicographically (total degree, then lex)."""
    return tuple(sorted(product(range(cap + 1), repeat=dim), key=lambda a: (sum(a), a)))


def collect(sym: MonomialSymbol, alpha_cap: int) -> dict[Fraction, set[Provenance]]:
    """Value -> provenance buckets over every non-empty B and alpha <= cap; 0 always present."""
    dim = sym.dim
    buckets: dict[Fraction, set[Provenance]] = {Fraction(0): set()}
    for members in nonempty_subsets(dim):
        coords = sorted(members)
        for assignment in product(range(alpha_cap + 1), repeat=len(coords)):
            alpha = [0] * dim
            for k, a in zip(coords, assignment):
                alpha[k - 1] = a
            v = _lambda_unchecked(sym.holo, sym.antiholo, alpha, coords)
            buckets.setdefault(v, set()).add(Provenance(tuple(alpha), members))
    return buckets


def prov_key(p: Provenance):
    return (len(p.subset), tuple(sorted(p.subset)), p.alpha)


def reference_records(sym: MonomialSymbol, alpha_cap: int) -> tuple[EigenRecord, ...]:
    """The records enumerate_spectrum(sym, alpha_cap) must return, built point by point."""
    symbol_class = multiplicity_class(sym)
    zero_op = symbol_class is SymbolClass.ZERO_OPERATOR
    buckets = {Fraction(0): set()} if zero_op else collect(sym, alpha_cap)
    full = full_set(sym.dim)
    finite = symbol_class is SymbolClass.ALL_FINITE
    eigen_mult = MultiplicityClass.FINITE if finite else MultiplicityClass.INFINITE
    records = []
    for v in sorted(buckets):
        prov = tuple(sorted(buckets[v], key=prov_key))
        # the zero operator's only bucket is its eigenvalue 0, with no provenance
        is_eig = zero_op or any(p.subset == full for p in prov)
        is_lp = v == 0 or any(p.subset != full for p in prov)
        records.append(EigenRecord(v, prov, is_eig, is_lp, eigen_mult if is_eig else None))
    return tuple(records)


def spectrum_from_records(
    records, dim: int, alpha_cap: int, contains_zero: bool, truncated: bool, kind: str, note=None
) -> SpectrumSet:
    """The SpectrumSet whose tables hold records, in their order: every alpha has
    length dim and every subset is one of nonempty_subsets(dim)."""
    subsets = nonempty_subsets(dim)
    witnesses = [p for r in records for p in r.provenance]
    return SpectrumSet(
        num=np.array([r.value.numerator for r in records], dtype=object),
        den=np.array([r.value.denominator for r in records], dtype=object),
        is_eigenvalue=np.array([r.is_eigenvalue for r in records], dtype=bool),
        is_limit_point=np.array([r.is_limit_point for r in records], dtype=bool),
        multiplicity=np.array([MULTIPLICITIES.index(r.multiplicity) for r in records], dtype=np.int8),
        starts=np.cumsum([0] + [len(r.provenance) for r in records]),
        alpha=np.array([p.alpha for p in witnesses], dtype=np.int64).reshape(len(witnesses), dim),
        subset=np.array([subsets.index(p.subset) for p in witnesses], dtype=np.int64),
        alpha_cap=alpha_cap,
        contains_zero=contains_zero,
        truncated=truncated,
        kind=kind,
        note=note,
    )


def spectrum_json_obj(spec: SpectrumSet) -> dict:
    """A SpectrumSet as the JSON-ready dict of the exact document's "spectrum" and "essential"."""
    return {
        "kind": spec.kind,
        "alpha_cap": spec.alpha_cap,
        "contains_zero": spec.contains_zero,
        "truncated": spec.truncated,
        "note": spec.note,
        "records": [
            {
                "value": f"{r.value.numerator}/{r.value.denominator}",
                "value_float": float(r.value),
                "is_eigenvalue": r.is_eigenvalue,
                "is_limit_point": r.is_limit_point,
                "multiplicity": r.multiplicity.value if r.multiplicity else None,
                "provenance": [
                    {"alpha": list(p.alpha), "B": sorted(p.subset)}
                    for p in r.provenance
                ],
            }
            for r in spec.records
        ],
    }


def spectrum_obj_with_in_essential(spectrum: SpectrumSet, essential: SpectrumSet) -> dict:
    """spectrum_json_obj(spectrum), each record flagged in_essential by value."""
    ess_values = essential.value_set()
    spec_obj = spectrum_json_obj(spectrum)
    for rec, record in zip(spec_obj["records"], spectrum.records):
        rec["in_essential"] = record.value in ess_values
    return spec_obj


def reference_exact_csv(spectrum: SpectrumSet, essential: SpectrumSet) -> str:
    """The exact command's CSV, built from spectrum_obj_with_in_essential."""
    rows = []
    for rec in spectrum_obj_with_in_essential(spectrum, essential)["records"]:
        prov = ";".join(
            "alpha=({}) B=({})".format(
                ",".join(map(str, p["alpha"])), ",".join(map(str, p["B"]))
            )
            for p in rec["provenance"]
        )
        rows.append(
            [
                rec["value"],
                repr(rec["value_float"]),
                rec["is_eigenvalue"],
                rec["is_limit_point"],
                rec["multiplicity"] or "",
                rec["in_essential"],
                prov,
            ]
        )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["value", "value_float", "is_eigenvalue", "is_limit_point", "multiplicity", "in_essential", "provenance"])
    writer.writerows(rows)
    return buf.getvalue()


def _exact_ratios(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num/den as a Fraction object array."""
    return np.array([Fraction(int(p), int(q)) for p, q in zip(num, den)], dtype=object)


def reference_gram_block(pairs, lo, hi) -> np.ndarray:
    """CRat object array of the scaled Gram block that galerkin._gram_tables gives for
    the same term pairs of one winding offset over the box lo <= alpha <= hi.

    Per coordinate j, with gamma = alpha_j + n_sj - m_sj, the pair contributes
    c_s conj(c_t) times prod 1/(gamma+m_sj+m_tj+1) minus
    prod [gamma >= 0](gamma+1)/((gamma+m_sj+1)(gamma+m_tj+1)), formed as Fractions.
    """
    alphas = [np.arange(a, b + 1).astype(object) for a, b in zip(lo, hi)]
    block = 0
    for cs, ns, ms, ct, nt, mt in pairs:
        first, second = [], []
        for a, nsj, msj, mtj in zip(alphas, ns, ms, mt):
            gamma = a + (nsj - msj)
            first.append(_exact_ratios(np.ones_like(gamma), gamma + msj + mtj + 1))
            second.append(
                _exact_ratios(np.where(gamma >= 0, gamma + 1, 0), (gamma + msj + 1) * (gamma + mtj + 1))
            )
        outer = reduce(np.multiply.outer, first) - reduce(np.multiply.outer, second)
        block = block + cs * ct.conjugate() * outer
    return block


def reference_scaled_blocks(mat) -> tuple[np.ndarray, ...] | None:
    """The sector blocks of CRat entries an exact compression's cells stand for: one CRat per
    listed cell, the shared CR_ZERO elsewhere, cut out of the n x n layout sector by sector;
    None on the float path."""
    if not mat.is_exact:
        return None
    rows, cols, values = mat.cells
    scaled = np.full((mat.size, mat.size), CR_ZERO, dtype=object)
    scaled[rows, cols] = [CRat(Fraction(a, b), Fraction(c, d)) for a, b, c, d in zip(*values.tolist())]
    return tuple(scaled[g[:, :, None], g[:, None, :]] for g in mat.sectors)


def reference_profile_values(sym, coord: int, num_samples: int, trunc: BasisTruncation) -> list[float]:
    """slice_norm_profile(...).values, one slice, assemble and eigensolve per circle sample.

    They agree up to rounding of about eps times the squared coefficient size,
    which is absolute at a sample where the slice vanishes.
    """
    slice_trunc = BasisTruncation(trunc.degree_cap, sym.dim - 1)
    values = []
    for j in range(num_samples):
        sliced = slice_symbol(sym.as_float(), cmath.exp(1j * (2.0 * math.pi * j / num_samples)), coord)
        values.append(0.0 if sliced.is_zero else float(eigenvalues(assemble(sliced, slice_trunc))[-1]))
    return values


def profile_fourier_symbols(sym, coord: int) -> dict:
    """winding w -> phi_w, the terms of sym of winding w in z_coord, sliced at q = 1, as floats."""
    classes: dict[int, list] = {}
    for c, h, a in sym.as_float().terms:
        classes.setdefault(h[coord - 1] - a[coord - 1], []).append((c, h, a))
    return {w: slice_symbol(PolySymbol(terms, dim=sym.dim), 1, coord) for w, terms in classes.items()}


def one_angle_profile_values(sym, coord: int, num_samples: int, trunc: BasisTruncation) -> list[float]:
    """slice_norm_profile(...).values from the same Fourier symbols, one top_eigenvalues call per sample.

    Where at most one Fourier symbol is non-zero, every sample is the same
    matrix and the two agree bit for bit.  Otherwise they agree up to rounding:
    numpy's complex multiply of a batch of phases by a block may round unlike
    that of a single phase (a vectorised loop), while LAPACK solves each matrix
    of a batch as it solves it alone.
    """
    slice_trunc = BasisTruncation(trunc.degree_cap, sym.dim - 1)
    fourier = profile_fourier_symbols(sym, coord)
    return [
        float(top_eigenvalues(fourier, [2.0 * math.pi * j / num_samples], slice_trunc, str)[0])
        for j in range(num_samples)
    ]


def reference_top_eigenvalues(fourier, thetas, trunc: BasisTruncation, name_of) -> np.ndarray:
    """top_eigenvalues(...) with one column per cell of the union of the offset blocks of every G_d.

    The cells come from np.unique over the flat positions of every phase's offset
    blocks, and each block's entries are summed into the columns np.unique maps its
    cells to, phase after phase; the samples are chunked and guarded as in
    top_eigenvalues, and galerkin.MAX_STORED_ENTRIES is read at call time.
    """
    for phi in fourier.values():
        if phi.is_exact or phi.dim != trunc.dim:
            raise ValueError("top_eigenvalues needs float symbols of the basis dim")
    by_phase: dict[int, dict] = {}
    for w, phi in fourier.items():
        for v, chi in fourier.items():
            for delta, pairs in galerkin._pair_offsets(phi.terms, chi.terms).items():
                by_phase.setdefault(w - v, {}).setdefault(delta, []).extend(pairs)
    offsets = frozenset(delta for part in by_phase.values() for delta in part)
    groups, (row_start, col_pos, stored), _ = galerkin._sectors(trunc, offsets)
    step = galerkin.MAX_STORED_ENTRIES // stored
    with np.errstate(over="ignore", invalid="ignore"):
        kernel = [(d, list(galerkin._kernel_blocks(part, trunc, False))) for d, part in by_phase.items()]
    cells = [(r, c) for _, part in kernel for _, r, c, _ in part] or [(np.empty(0, np.intp),) * 2]
    # one column per cell: an offset block lists each cell once, but the G_d of several d share cells
    at, first, column = np.unique(
        np.concatenate([row_start[r] + col_pos[c] for r, c in cells]), return_index=True, return_inverse=True
    )
    mirror = np.concatenate([row_start[c] + col_pos[r] for r, c in cells])[first]
    columns = iter(np.split(column, np.cumsum([r.size for r, _ in cells])[:-1]))
    size = np.zeros(at.size)
    phases = []  # (d, [(columns, entries) of each offset block of G_d])
    for d, part in kernel:
        cells = [(next(columns), weighted) for _, _, _, weighted in part]
        for j, weighted in cells:
            size[j] += np.abs(weighted)
        phases.append((d, cells))
    thetas = np.asarray(thetas, dtype=float)
    copies = 1
    if set(by_phase) <= {0}:  # every sample is the same matrix: solve the first, repeat its top
        copies, thetas = thetas.size, thetas[:1]
    tops = []
    for start in range(0, thetas.size, step):
        chunk = thetas[start:start + step]
        values = np.zeros((chunk.size, at.size), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for d, cells in phases:
                phase = np.exp(1j * d * chunk)[:, None]
                for j, weighted in cells:
                    values[:, j] += phase * weighted
        w = galerkin._checked_eigenvalues(
            values, at, mirror, groups, stored, lambda i: name_of(start + i), size.max(initial=0.0)
        )
        tops.append(w[:, -1])
    return np.concatenate(tops).repeat(copies) if tops else np.empty(0)


def sup_norm_on_torus(sym, samples: int) -> float:
    """max |psi| over a grid of the distinguished boundary (torus).

    A grid proxy for the polydisc sup norm of the low-degree slice differences
    used in the Lipschitz check; exact extrema are not needed there.
    """
    if samples**sym.dim > 4_000_000:
        raise ValueError("torus grid too large; reduce samples or dim")
    thetas = [2.0 * math.pi * j / samples for j in range(samples)]
    best = 0.0
    for combo in product(thetas, repeat=sym.dim):
        z = tuple(cmath.exp(1j * t) for t in combo)
        best = max(best, abs(sym.evaluate(z)))
    return best
