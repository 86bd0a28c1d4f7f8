"""Galerkin compression of Hermitian squares of Hankel operators on the polydisc.

The compression acts on the truncated orthonormal monomial basis e_alpha =
z^alpha / ||z^alpha||, max entry of alpha <= N, ordered graded-lexicographically.
Entries are

    <H e_a, H e_b> = <psi e_a, psi e_b> - sum_gamma <psi e_a, e_gamma><e_gamma, psi e_b>

with the projection sum exact for polynomial symbols once the intermediate cap
covers N plus the symbol degree.  Exact symbols are carried as the scaled Gram
matrix  g[a][b] = <H z^a, H z^b> / pi^n  (Gaussian-rational, Hermitian) plus the
integer weights w_a = prod(alpha_k + 1); the orthonormal entry is
g[a][b] * sqrt(w_a w_b), so diagonal entries are exactly rational while
off-diagonal entries generally carry a square-root factor.  Float symbols are
assembled directly in the orthonormal basis by a vectorised kernel; callers that
only need floats pass a float copy of an exact symbol (PolySymbol.as_float).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, reduce

import numpy as np

from .multiindex import MultiIndex, add, as_multiindex, graded_lex_box, is_nonnegative, weight
from .rational import CRat, CR_ZERO
from .symbols import PolySymbol

__all__ = [
    "BasisTruncation",
    "Exactness",
    "CompressionMatrix",
    "InnerCapError",
    "KernelVector",
    "default_inner_caps",
    "hankel_gram_entry",
    "assemble",
    "assemble_via_toeplitz",
    "matrices_equal",
    "eigenvalues",
    "weyl_residual",
    "dump_matrix",
    "load_matrix",
]

MAX_BASIS_SIZE = 20000
HERMITICITY_TOL = 1e-13
EIGEN_FLOOR = -1e-10
MIN_KERNEL_NORM = 0.99


class InnerCapError(ValueError):
    """The projection cap would silently drop part of P(psi e_alpha)."""


class Exactness(Enum):
    RATIONAL = "rational"
    FLOAT = "float"


@dataclass(frozen=True)
class BasisTruncation:
    """Per-coordinate degree cap N; basis size (N+1)^dim, graded-lex ordered."""

    degree_cap: int
    dim: int

    def __post_init__(self):
        if self.degree_cap < 0 or self.dim < 1:
            raise ValueError("degree_cap must be >= 0 and dim >= 1")

    @cached_property
    def indices(self) -> tuple[MultiIndex, ...]:
        return graded_lex_box(self.degree_cap, self.dim)

    @cached_property
    def index_of(self) -> dict[MultiIndex, int]:
        return {a: i for i, a in enumerate(self.indices)}

    @cached_property
    def positions(self) -> np.ndarray:
        """Graded-lex position of every multi-index: positions[alpha] == index_of[alpha]."""
        shape = (self.degree_cap + 1,) * self.dim
        grid = np.indices(shape).reshape(self.dim, -1)
        # lexsort's last key is the primary one: total degree, then alpha_1, alpha_2, ...
        order = np.lexsort(tuple(grid[::-1]) + (grid.sum(axis=0),))
        pos = np.empty(order.size, dtype=np.intp)
        pos[order] = np.arange(order.size)
        return pos.reshape(shape)

    @property
    def size(self) -> int:
        return (self.degree_cap + 1) ** self.dim


def default_inner_caps(sym: PolySymbol, trunc: BasisTruncation) -> tuple[int, ...]:
    """degree_cap + per-coordinate symbol degree: makes the projection sum exact."""
    return tuple(trunc.degree_cap + d for d in sym.coordinate_degrees())


def _normalize_inner_caps(sym, trunc, inner_cap) -> tuple[int, ...]:
    if inner_cap is None:
        return default_inner_caps(sym, trunc)
    if isinstance(inner_cap, int):
        return (inner_cap,) * trunc.dim
    caps = tuple(int(c) for c in inner_cap)
    if len(caps) != trunc.dim:
        raise ValueError("inner_cap vector length must equal dim")
    return caps


def _inner_factor(total: int) -> Fraction:
    # <z^a zbar^b, z^c zbar^d> per coordinate = pi * 2/(a+b+c+d+2) when a-b=c-d
    return Fraction(2, total + 2)


def _projection_map(sym: PolySymbol, alpha: MultiIndex, inner_caps) -> dict:
    """gamma -> <psi z^alpha, z^gamma>/pi^n over the lattice points reached by psi."""
    out: dict[MultiIndex, object] = {}
    for c, n, m in sym.terms:
        gamma = tuple(a + nk - mk for a, nk, mk in zip(alpha, n, m))
        if not is_nonnegative(gamma):
            continue
        if any(g > cap for g, cap in zip(gamma, inner_caps)):
            raise InnerCapError(
                f"projection target {gamma} exceeds inner cap {tuple(inner_caps)}"
            )
        val = Fraction(1)
        for a, nk, mk, g in zip(alpha, n, m, gamma):
            val *= _inner_factor(a + nk + mk + g)
        out[gamma] = out.get(gamma, CR_ZERO) + c * val
    return out


def _pair_offsets(sym: PolySymbol) -> dict[tuple[int, ...], list]:
    """Group term pairs (s, t) by the column offset beta - alpha they couple."""
    offsets: dict[tuple[int, ...], list] = {}
    for cs, ns, ms in sym.terms:
        for ct, nt, mt in sym.terms:
            delta = tuple((a - b) - (c - d) for a, b, c, d in zip(ns, ms, nt, mt))
            offsets.setdefault(delta, []).append((cs, ns, ms, ct, nt, mt))
    return offsets


def _first_term(pairs, alpha, beta):
    total = CR_ZERO
    for cs, ns, ms, ct, nt, mt in pairs:
        val = Fraction(1)
        for a, nsk, msk, b, ntk, mtk in zip(alpha, ns, ms, beta, nt, mt):
            val *= _inner_factor(a + nsk + msk + b + ntk + mtk)
        total = total + cs * ct.conjugate() * val
    return total


def _second_term(pa: dict, pb: dict):
    total = CR_ZERO
    small, big = (pa, pb) if len(pa) <= len(pb) else (pb, pa)
    for gamma in small:
        if gamma in big:
            total = total + pa[gamma] * pb[gamma].conjugate() * weight(gamma)
    return total


def scaled_gram_entry(sym: PolySymbol, alpha, beta, inner_cap=None):
    """<H_psi z^alpha, H_psi z^beta> / pi^n, exact (CRat) for exact symbols."""
    alpha = as_multiindex(alpha, dim=sym.dim, name="alpha")
    beta = as_multiindex(beta, dim=sym.dim, name="beta")
    caps = _normalize_inner_caps(sym, BasisTruncation(max(max(alpha), max(beta)), sym.dim), inner_cap)
    delta = tuple(b - a for a, b in zip(alpha, beta))
    first = _first_term(_pair_offsets(sym).get(delta, []), alpha, beta)
    pa = _projection_map(sym, alpha, caps)
    pb = _projection_map(sym, beta, caps)
    val = first - _second_term(pa, pb)
    return val if sym.is_exact else complex(val)


def hankel_gram_entry(sym: PolySymbol, alpha, beta, inner_cap=None):
    """<H_psi e_alpha, H_psi e_beta> in the orthonormal basis.

    Exact symbols yield an exact CRat whenever sqrt(w_alpha * w_beta) is an
    integer (in particular on the diagonal); otherwise the square-root factor
    forces a float.  Equals <H*_psi H_psi e_alpha, e_beta>, exactly, provided
    the inner cap covers degree_cap + symbol degree (smaller caps raise
    InnerCapError rather than silently truncating the projection).
    """
    scaled = scaled_gram_entry(sym, alpha, beta, inner_cap)
    w = weight(as_multiindex(alpha)) * weight(as_multiindex(beta))
    root = math.isqrt(w)
    if isinstance(scaled, CRat):
        if root * root == w:
            return scaled * root
        return complex(scaled) * math.sqrt(w)
    return scaled * math.sqrt(w)


@dataclass(frozen=True)
class CompressionMatrix:
    """Dense Hermitian compression of H*_psi H_psi on a truncated basis.

    dense holds orthonormal-basis entries (complex floats).  For exact symbols
    scaled holds the Gaussian-rational scaled Gram matrix from which dense is
    derived; see the module docstring for the sqrt-weight relation.
    """

    symbol: PolySymbol | None
    trunc: BasisTruncation
    inner_caps: tuple[int, ...]
    exactness: Exactness
    dense: np.ndarray
    scaled: tuple[tuple[CRat, ...], ...] | None
    symbol_hash: str

    @property
    def size(self) -> int:
        return self.dense.shape[0]

    def entry(self, i: int, j: int) -> complex:
        return complex(self.dense[i, j])

    def exact_entry(self, i: int, j: int) -> CRat:
        """Scaled Gram entry <H z^a, H z^b>/pi^n; exact path only."""
        if self.scaled is None:
            raise ValueError("matrix was assembled on the float path")
        return self.scaled[i][j]

    def exact_diagonal(self) -> list[Fraction]:
        """Orthonormal diagonal <H e_a, H e_a>, exactly rational."""
        if self.scaled is None:
            raise ValueError("matrix was assembled on the float path")
        out = []
        for i, alpha in enumerate(self.trunc.indices):
            out.append((self.scaled[i][i] * weight(alpha)).real_fraction())
        return out

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.dense - self.dense.conj().T))) if self.size else 0.0

    def scale(self) -> float:
        return float(np.max(np.abs(self.dense))) if self.size else 0.0


def _symbol_hash(sym: PolySymbol | None) -> str:
    if sym is None:
        return "unknown"
    blob = json.dumps(sym.to_json_obj(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def assemble(sym: PolySymbol, trunc: BasisTruncation, inner_cap=None) -> CompressionMatrix:
    """Assemble the Hermitian compression matrix of H*_psi H_psi.

    Exact symbols take the Gaussian-rational reference path, which also keeps
    the scaled Gram matrix; float symbols take the vectorised float kernel.
    Callers that only need floats pass sym.as_float().  For a unit-coefficient
    monomial symbol the exact result is diagonal with the closed-form spectrum
    values on the diagonal.
    """
    if sym.dim != trunc.dim:
        raise ValueError(f"symbol dim {sym.dim} != truncation dim {trunc.dim}")
    if trunc.size > MAX_BASIS_SIZE:
        raise ValueError(f"basis size {trunc.size} exceeds guard {MAX_BASIS_SIZE}")
    caps = _normalize_inner_caps(sym, trunc, inner_cap)
    exact = sym.is_exact
    if exact:
        dense, scaled = _exact_compression(sym, trunc, caps)
    else:
        dense, scaled = _float_compression(sym, trunc, caps), None
    return CompressionMatrix(
        symbol=sym,
        trunc=trunc,
        inner_caps=caps,
        exactness=Exactness.RATIONAL if exact else Exactness.FLOAT,
        dense=dense,
        scaled=scaled,
        symbol_hash=_symbol_hash(sym),
    )


def _exact_compression(sym: PolySymbol, trunc: BasisTruncation, caps):
    """(dense, scaled) from the Gaussian-rational scaled Gram matrix, entry by entry."""
    indices = trunc.indices
    index_of = trunc.index_of
    size = trunc.size
    n_cap = trunc.degree_cap

    proj = [_projection_map(sym, a, caps) for a in indices]
    offsets = _pair_offsets(sym)
    weights_sqrt = np.array([math.sqrt(weight(a)) for a in indices])

    dense = np.zeros((size, size), dtype=complex)
    rows = [[CR_ZERO] * size for _ in range(size)]

    for i, alpha in enumerate(indices):
        for delta, pairs in offsets.items():
            beta = add(alpha, delta)
            if not all(0 <= b <= n_cap for b in beta):
                continue
            j = index_of[beta]
            val = _first_term(pairs, alpha, beta) - _second_term(proj[i], proj[j])
            rows[i][j] = val
            dense[i, j] = complex(val) * weights_sqrt[i] * weights_sqrt[j]

    for i in range(size):
        for j in range(i + 1, size):
            a, b = rows[i][j], rows[j][i]
            if a is CR_ZERO and b is CR_ZERO:
                continue
            if b != a.conjugate():  # pragma: no cover
                raise AssertionError("exact assembly lost Hermitian symmetry")
    return dense, tuple(tuple(r) for r in rows)


def _check_inner_caps(sym: PolySymbol, n_cap: int, caps) -> None:
    """Raise InnerCapError if some basis index alpha projects past the caps.

    Term k = n - m reaches gamma = alpha + k >= 0 for alpha_j in
    [max(0, -k_j), N], so its largest target is N + k wherever that range
    is non-empty in every coordinate.
    """
    for _, n, m in sym.terms:
        k = [nj - mj for nj, mj in zip(n, m)]
        if any(-kj > n_cap for kj in k):
            continue
        for j, cap in enumerate(caps):
            if n_cap + k[j] > cap:
                gamma = [max(0, ki) for ki in k]
                gamma[j] = max(gamma[j], cap + 1)
                raise InnerCapError(
                    f"projection target {tuple(gamma)} exceeds inner cap {tuple(caps)}"
                )


def _float_compression(sym: PolySymbol, trunc: BasisTruncation, caps) -> np.ndarray:
    """Orthonormal-basis compression of a float symbol, vectorised over the basis.

    Ordered term pairs (s, t) with winding offset d = k_s - k_t (k = n - m)
    couple alpha to beta = alpha + d.  With gamma = alpha + k_s = beta + k_t,
    each coordinate j contributes to c_s conj(c_t) times

        first:  2/(a_j+b_j+n_sj+m_sj+n_tj+m_tj+2) = 1/(gamma_j+m_sj+m_tj+1)
        second: v_s(alpha) v_t(beta) w(gamma)
                = (gamma_j+1) / ((gamma_j+m_sj+1)(gamma_j+m_tj+1)),  if gamma >= 0

    and the entry is (prod first - prod second) * sqrt(w_a w_b).  Each factor
    is one rounded integer division, so rationals that cancel exactly (e.g.
    for holomorphic symbols) cancel exactly here too.  Coefficients too large
    for floats leave inf/nan entries, which eigenvalues() rejects.
    """
    n_cap = trunc.degree_cap
    _check_inner_caps(sym, n_cap, caps)
    positions = trunc.positions
    dense = np.zeros((trunc.size, trunc.size), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for delta, pairs in _pair_offsets(sym).items():
            # alpha and beta = alpha + delta both in [0, N] per coordinate
            lo = [max(0, -d) for d in delta]
            hi = [min(n_cap, n_cap - d) for d in delta]
            if any(a > b for a, b in zip(lo, hi)):
                continue
            alphas = [np.arange(a, b + 1) for a, b in zip(lo, hi)]
            roots = [np.sqrt((a + 1.0) * (a + d + 1.0)) for a, d in zip(alphas, delta)]
            block = 0
            for cs, ns, ms, ct, nt, mt in pairs:
                first, second = [], []
                for a, root, nsj, msj, mtj in zip(alphas, roots, ns, ms, mt):
                    gamma = a + (nsj - msj)
                    first.append(root * (1.0 / (gamma + msj + mtj + 1)))
                    proj = (gamma + 1) / ((gamma + msj + 1) * (gamma + mtj + 1))
                    second.append(root * np.where(gamma >= 0, proj, 0.0))
                outer = reduce(np.multiply.outer, first) - reduce(np.multiply.outer, second)
                block = block + complex(cs) * complex(ct).conjugate() * outer
            rows = positions[tuple(slice(a, b + 1) for a, b in zip(lo, hi))]
            cols = positions[tuple(slice(a + d, b + d + 1) for a, b, d in zip(lo, hi, delta))]
            dense[rows, cols] = block
    return dense


def _toeplitz_map(phi: PolySymbol, in_indices, out_index_of, exact: bool) -> list[list]:
    """Sparse rows of <phi z^a, z^gamma>/pi^n from the in-basis to the out-basis."""
    out = []
    for alpha in in_indices:
        acc: dict[int, object] = {}
        for c, n, m in phi.terms:
            gamma = tuple(a + nk - mk for a, nk, mk in zip(alpha, n, m))
            if not is_nonnegative(gamma):
                continue
            g = out_index_of.get(gamma)
            if g is None:
                continue
            val = Fraction(1)
            for a, nk, mk, gk in zip(alpha, n, m, gamma):
                val *= _inner_factor(a + nk + mk + gk)
            contrib = c * val if exact else complex(c * val)
            acc[g] = acc.get(g, CR_ZERO if exact else 0j) + contrib
        out.append(sorted(acc.items()))
    return out


def assemble_via_toeplitz(sym: PolySymbol, trunc: BasisTruncation, inner_cap=None) -> CompressionMatrix:
    """Independent assembly through T_{|psi|^2} - T_conj(psi) T_psi.

    Both Toeplitz compressions use the same intermediate cap as the Hankel
    path, so for polynomial symbols the two assemblies agree entrywise and
    exactly on the scaled Gram representation.
    """
    if sym.dim != trunc.dim:
        raise ValueError(f"symbol dim {sym.dim} != truncation dim {trunc.dim}")
    if trunc.size > MAX_BASIS_SIZE:
        raise ValueError(f"basis size {trunc.size} exceeds guard {MAX_BASIS_SIZE}")
    caps = _normalize_inner_caps(sym, trunc, inner_cap)
    exact = sym.is_exact
    indices = trunc.indices
    size = trunc.size

    inner_indices = graded_lex_box(caps, trunc.dim)
    inner_index_of = {a: i for i, a in enumerate(inner_indices)}
    inner_weights = [weight(a) for a in inner_indices]

    mod_sq = sym.modulus_squared()
    t_mod = _toeplitz_map(mod_sq, indices, trunc.index_of, exact)
    t_psi = _toeplitz_map(sym, indices, inner_index_of, exact)
    t_psibar = _toeplitz_map(sym.conjugate(), inner_indices, trunc.index_of, exact)

    zero = CR_ZERO if exact else 0j
    rows = [[zero] * size for _ in range(size)]
    for i in range(size):
        for j, val in t_mod[i]:
            rows[i][j] = rows[i][j] + val
        for g, va in t_psi[i]:
            wg = inner_weights[g]
            for j, vb in t_psibar[g]:
                rows[i][j] = rows[i][j] - va * vb * wg

    weights_sqrt = np.array([math.sqrt(weight(a)) for a in indices])
    dense = np.zeros((size, size), dtype=complex)
    for i in range(size):
        for j in range(size):
            v = rows[i][j]
            if exact:
                if v:
                    dense[i, j] = complex(v) * weights_sqrt[i] * weights_sqrt[j]
            elif v != 0:
                dense[i, j] = v * weights_sqrt[i] * weights_sqrt[j]

    return CompressionMatrix(
        symbol=sym,
        trunc=trunc,
        inner_caps=caps,
        exactness=Exactness.RATIONAL if exact else Exactness.FLOAT,
        dense=dense,
        scaled=tuple(tuple(r) for r in rows) if exact else None,
        symbol_hash=_symbol_hash(sym),
    )


def matrices_equal(m1: CompressionMatrix, m2: CompressionMatrix) -> bool:
    """Entrywise equality: exact on the rational path, bitwise on the float path."""
    if m1.trunc != m2.trunc:
        return False
    if m1.scaled is not None and m2.scaled is not None:
        return m1.scaled == m2.scaled
    return bool(np.array_equal(m1.dense, m2.dense))


def eigenvalues(mat: CompressionMatrix) -> np.ndarray:
    """All eigenvalues of the compression, ascending.

    Rejects non-finite entries, verifies Hermiticity (to 1e-13 relative) and
    the PSD floor (>= -1e-10) before returning; the solve itself is LAPACK's
    Hermitian eigensolver.
    """
    h = mat.dense
    if not np.all(np.isfinite(h)):
        what = mat.symbol if mat.symbol is not None else f"dumped symbol {mat.symbol_hash}"
        raise ValueError(
            f"compression of {what} has non-finite entries; coefficients too large for floats?"
        )
    scale = max(1.0, mat.scale())
    defect = mat.hermiticity_defect()
    if defect > HERMITICITY_TOL * scale:
        raise ValueError(f"matrix is not Hermitian: defect {defect:g}")
    w = np.linalg.eigvalsh((h + h.conj().T) / 2.0)
    if w.size and w[0] < EIGEN_FLOOR:
        raise ValueError(f"eigenvalue {w[0]:g} below PSD floor {EIGEN_FLOOR:g}")
    return w


@dataclass(frozen=True)
class KernelVector:
    """Normalized Bergman kernel of the disc at p, truncated to degree N.

    Orthonormal-basis coefficients c_j = (1 - |p|^2) sqrt(j+1) conj(p)^j; the
    full vector has unit norm, so the truncated norm is at most 1 and tends to
    1 as N grows.
    """

    p: complex
    degree_cap: int

    def __post_init__(self):
        if abs(self.p) >= 1:
            raise ValueError("kernel center must satisfy |p| < 1")

    @cached_property
    def coefficients(self) -> np.ndarray:
        j = np.arange(self.degree_cap + 1)
        return (1.0 - abs(self.p) ** 2) * np.sqrt(j + 1.0) * np.conj(self.p) ** j

    @property
    def truncated_norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))


def weyl_residual(
    sym: PolySymbol,
    lam: float,
    g_coeffs,
    p: complex,
    trunc: BasisTruncation,
    *,
    min_kernel_norm: float = MIN_KERNEL_NORM,
    mat: CompressionMatrix | None = None,
) -> float:
    """||(M - lam I) f|| for the product test vector f = g (x) k_p.

    g lives on the (dim-1)-dimensional slice basis at the same degree cap and
    must be normalized; k_p occupies the last coordinate.  Truncations holding
    less than min_kernel_norm of the kernel mass are rejected, since the
    residual would reflect lost mass rather than spectral distance.
    """
    if sym.dim < 2:
        raise ValueError("weyl_residual needs dim >= 2 (kernel occupies the last coordinate)")
    kv = KernelVector(complex(p), trunc.degree_cap)
    if kv.truncated_norm < min_kernel_norm:
        raise ValueError(
            f"truncated kernel norm {kv.truncated_norm:.4f} < {min_kernel_norm}; increase N"
        )
    slice_trunc = BasisTruncation(trunc.degree_cap, trunc.dim - 1)
    g = np.asarray(g_coeffs, dtype=complex)
    if g.shape != (slice_trunc.size,):
        raise ValueError(f"g must have {slice_trunc.size} coefficients, got {g.shape}")
    if abs(np.linalg.norm(g) - 1.0) > 1e-8:
        raise ValueError("g must be normalized")

    if mat is None:
        mat = assemble(sym, trunc)
    elif mat.trunc != trunc:
        raise ValueError("supplied matrix truncation does not match")

    f = np.zeros(trunc.size, dtype=complex)
    kc = kv.coefficients
    for i, alpha in enumerate(trunc.indices):
        f[i] = g[slice_trunc.index_of[alpha[:-1]]] * kc[alpha[-1]]
    return float(np.linalg.norm(mat.dense @ f - lam * f))


# -- dump format --------------------------------------------------------------
# header: "hankel-spectra-matrix v1 dim=<d> N=<n> symbol=<hash> exact=<0|1>"
# then one row per line; entries "re,im" with float repr (float mode) or
# "num/den,num/den" (rational mode, scaled Gram entries).


def dump_matrix(mat: CompressionMatrix, fileobj) -> None:
    exact = mat.exactness is Exactness.RATIONAL
    fileobj.write(
        f"hankel-spectra-matrix v1 dim={mat.trunc.dim} N={mat.trunc.degree_cap} "
        f"symbol={mat.symbol_hash} exact={int(exact)}\n"
    )
    if exact:
        for row in mat.scaled:
            fileobj.write(
                " ".join(
                    f"{c.re.numerator}/{c.re.denominator},{c.im.numerator}/{c.im.denominator}"
                    for c in row
                )
                + "\n"
            )
    else:
        for row in mat.dense:
            fileobj.write(
                " ".join(f"{float(c.real)!r},{float(c.imag)!r}" for c in row) + "\n"
            )


def load_matrix(fileobj) -> CompressionMatrix:
    header = fileobj.readline().split()
    if not header or header[0] != "hankel-spectra-matrix":
        raise ValueError("not a matrix dump")
    fields = dict(part.split("=", 1) for part in header[2:])
    trunc = BasisTruncation(int(fields["N"]), int(fields["dim"]))
    exact = fields["exact"] == "1"
    size = trunc.size
    weights_sqrt = np.array([math.sqrt(weight(a)) for a in trunc.indices])
    dense = np.zeros((size, size), dtype=complex)
    scaled_rows = [] if exact else None
    for i in range(size):
        cells = fileobj.readline().split()
        if len(cells) != size:
            raise ValueError(f"row {i}: expected {size} entries, got {len(cells)}")
        if exact:
            row = []
            for j, cell in enumerate(cells):
                re_s, im_s = cell.split(",")
                c = CRat(Fraction(re_s), Fraction(im_s))
                row.append(c)
                dense[i, j] = complex(c) * weights_sqrt[i] * weights_sqrt[j]
            scaled_rows.append(tuple(row))
        else:
            for j, cell in enumerate(cells):
                re_s, im_s = cell.split(",")
                dense[i, j] = complex(float(re_s), float(im_s))
    return CompressionMatrix(
        symbol=None,
        trunc=trunc,
        inner_caps=(),
        exactness=Exactness.RATIONAL if exact else Exactness.FLOAT,
        dense=dense,
        scaled=tuple(scaled_rows) if exact else None,
        symbol_hash=fields.get("symbol", "unknown"),
    )
