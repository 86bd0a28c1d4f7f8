"""Galerkin compression of Hermitian squares of Hankel operators on the polydisc.

The compression acts on the truncated orthonormal monomial basis e_alpha =
z^alpha / ||z^alpha||, max entry of alpha <= N, ordered graded-lexicographically.
Entries are

    <H e_a, H e_b> = <psi e_a, psi e_b> - sum_gamma <psi e_a, e_gamma><e_gamma, psi e_b>

with the projection sum exact for polynomial symbols once the intermediate cap
covers N plus the symbol degree.  One vectorised kernel computes the scaled
Gram matrix  g[a][b] = <H z^a, H z^b> / pi^n  one winding-offset block at a
time from integer factors (_pair_factors); the orthonormal entry is
g[a][b] * sqrt(w_a w_b) with the integer weights w_a = prod(alpha_k + 1), so
diagonal entries are rational while off-diagonal entries generally carry a
square-root factor.  The arithmetic follows the symbol: exact symbols sum the
factors on reduced integer tables of Python ints (_gram_tables) and keep g
(Gaussian-rational, Hermitian), float symbols divide them in float64
(_gram_block).  Callers that only need floats pass a float copy of an exact
symbol (PolySymbol.as_float).

The compression is stored as sector blocks.  Entry (a, b) vanishes unless
b - a is a winding offset k_s - k_t of two terms, so the connected components
of the graph a ~ a + delta on the box (the sectors, see _sectors) index
diagonal blocks of a permuted matrix with nothing between them.  The spectrum
is the union of the block spectra; monomial symbols give 1x1 blocks, the
paper's diagonal case.  The full matrix is built only when a caller reads it;
the matrix dump is written row by row from the blocks.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import product

import numpy as np

from .core import _INT64_LIMIT
from .multiindex import MultiIndex, as_multiindex, box_exceeds, is_nonnegative, weight
from .rational import CRat, CR_ZERO, frac_str
from .symbols import MAX_COORDINATE, PolySymbol

__all__ = [
    "BasisTruncation",
    "Exactness",
    "CompressionMatrix",
    "KernelVector",
    "default_inner_caps",
    "assemble",
    "assemble_via_toeplitz",
    "matrices_equal",
    "eigenvalues",
    "top_eigenvalues",
    "weyl_residual",
    "dump_matrix",
    "load_matrix",
]

MAX_BASIS_SIZE = 20000
MAX_STORED_ENTRIES = 2**24  # entries sum k*s^2 of the sector blocks; size^2 of a (dense) dump
HERMITICITY_TOL = 1e-13
EIGEN_FLOOR = -1e-10
MIN_KERNEL_NORM = 0.99


class Exactness(Enum):
    RATIONAL = "rational"
    FLOAT = "float"


@dataclass(frozen=True)
class BasisTruncation:
    """Per-coordinate degree cap N; basis size (N+1)^dim, graded-lex ordered.

    positions fixes the order; indices and index_of are read off it.
    """

    degree_cap: int
    dim: int

    def __post_init__(self):
        if self.degree_cap < 0 or self.dim < 1:
            raise ValueError("degree_cap must be >= 0 and dim >= 1")

    @cached_property
    def indices(self) -> tuple[MultiIndex, ...]:
        """The basis multi-indices in graded-lex order: indices[positions[alpha]] == alpha."""
        at = np.unravel_index(np.argsort(self.positions, axis=None), self.positions.shape)
        return tuple(zip(*(axis.tolist() for axis in at)))

    @cached_property
    def index_of(self) -> dict[MultiIndex, int]:
        return {a: i for i, a in enumerate(self.indices)}

    @cached_property
    def positions(self) -> np.ndarray:
        """Graded-lex position of every multi-index alpha <= N, an array indexed by alpha.

        Graded-lex orders by total degree, then lexicographically.  This ordering
        is frozen: matrix dumps and CSV outputs rely on it.
        """
        shape = (self.degree_cap + 1,) * self.dim
        grid = np.indices(shape).reshape(self.dim, -1)
        # lexsort's last key is the primary one: total degree, then alpha_1, alpha_2, ...
        order = np.lexsort(tuple(grid[::-1]) + (grid.sum(axis=0),))
        pos = np.empty(order.size, dtype=np.intp)
        pos[order] = np.arange(order.size)
        return pos.reshape(shape)

    @cached_property
    def weights_sqrt(self) -> np.ndarray:
        """sqrt(w_alpha) = sqrt(prod(alpha_k + 1)) for every basis index, graded-lex ordered."""
        shape = (self.degree_cap + 1,) * self.dim
        grid = np.indices(shape).reshape(self.dim, -1)
        w = np.empty(grid.shape[1])
        w[self.positions.ravel()] = np.sqrt(np.prod(grid + 1.0, axis=0))
        return w

    @property
    def size(self) -> int:
        return (self.degree_cap + 1) ** self.dim


def _check_basis_size(n_cap: int, dim: int) -> None:
    """Reject (N+1)^dim > MAX_BASIS_SIZE without building the power of a huge N or dim."""
    if box_exceeds(n_cap + 1, dim, MAX_BASIS_SIZE):
        raise ValueError(
            f"basis size (N+1)^dim exceeds guard {MAX_BASIS_SIZE} (N={n_cap}, dim={dim})"
        )


def default_inner_caps(sym: PolySymbol, trunc: BasisTruncation) -> tuple[int, ...]:
    """degree_cap + per-coordinate symbol degree: makes the projection sum exact."""
    return tuple(trunc.degree_cap + d for d in sym.coordinate_degrees())


def _inner_factor(total: int) -> Fraction:
    # <z^a zbar^b, z^c zbar^d> per coordinate = pi * 2/(a+b+c+d+2) when a-b=c-d
    return Fraction(2, total + 2)


def _pair_offsets(left, right) -> dict[tuple[int, ...], list]:
    """Group the pairs (s, t), s of left and t of right, of (coefficient, n, m) terms by the
    column offset beta - alpha they couple."""
    offsets: dict[tuple[int, ...], list] = {}
    for cs, ns, ms in left:
        for ct, nt, mt in right:
            delta = tuple((a - b) - (c - d) for a, b, c, d in zip(ns, ms, nt, mt))
            offsets.setdefault(delta, []).append((cs, ns, ms, ct, nt, mt))
    return offsets


def _offset_block(trunc: BasisTruncation, delta):
    """(lo, hi, rows, cols) for the alpha with alpha and alpha + delta in the box, or None.

    lo <= alpha <= hi are the box corners; rows and cols hold the graded-lex
    positions of alpha and of alpha + delta, shaped like the box.
    """
    n_cap = trunc.degree_cap
    lo = [max(0, -d) for d in delta]
    hi = [min(n_cap, n_cap - d) for d in delta]
    if any(a > b for a, b in zip(lo, hi)):
        return None
    rows = trunc.positions[tuple(slice(a, b + 1) for a, b in zip(lo, hi))]
    cols = trunc.positions[tuple(slice(a + d, b + d + 1) for a, b, d in zip(lo, hi, delta))]
    return lo, hi, rows, cols


@lru_cache(maxsize=32)
def _sectors(trunc: BasisTruncation, offsets: frozenset):
    """(groups, row_start, col_pos): the sectors of the box for the coupling offsets.

    A sector is a connected component of the graph on the basis box with an
    edge alpha ~ alpha + delta for every offset delta whose ends both lie in
    the box.  groups holds one read-only (k, s) array per sector size s,
    ascending in s: row r holds the graded-lex indices of one sector, ascending.
    Laid end to end as (k, s, s) stacks, the blocks hold entry (i, j) at flat
    position row_start[i] + col_pos[j]; over MAX_STORED_ENTRIES raise ValueError.
    """
    boxes = [_offset_block(trunc, d) for d in offsets if any(d)]
    ends = [(rows.ravel(), cols.ravel()) for _, _, rows, cols in filter(None, boxes)]
    # vectorised union-find: label[i] <= i is the parent of i; each round hooks
    # the larger root of every split edge onto the smaller, then compresses paths
    label = np.arange(trunc.size)
    if ends:
        u, v = (np.concatenate(x) for x in zip(*ends))
        while True:
            lu, lv = label[u], label[v]
            if np.array_equal(lu, lv):
                break
            np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
            while not np.array_equal(label, label[label]):
                label = label[label]
    order = np.argsort(label, kind="stable")
    _, starts, counts = np.unique(label[order], return_index=True, return_counts=True)
    groups = []
    row_start, col_pos = np.empty((2, trunc.size), dtype=np.intp)
    stored = 0
    for s in np.unique(counts):
        g = order[starts[counts == s][:, None] + np.arange(s)]
        row_start[g] = stored + np.arange(g.size).reshape(g.shape) * s
        col_pos[g] = np.arange(s)
        stored += g.size * s
        g.flags.writeable = False
        groups.append(g)
    if stored > MAX_STORED_ENTRIES:
        raise ValueError(
            f"sector blocks hold {stored} entries (largest block {s}x{s}), above the guard "
            f"{MAX_STORED_ENTRIES} (N={trunc.degree_cap}, dim={trunc.dim})"
        )
    row_start.flags.writeable = col_pos.flags.writeable = False
    return tuple(groups), row_start, col_pos


def _pair_factors(pairs, lo, hi, exact: bool):
    """Per term pair (s, t) of _gram_block: (c_s, c_t, [(d1, n2, d2) per coordinate j]).

    Over lo_j <= a <= hi_j, with gamma = a + n_sj - m_sj, the integer arrays are
    d1 = gamma+m_sj+m_tj+1, n2 = [gamma >= 0](gamma+1), d2 = (gamma+m_sj+1)(gamma+m_tj+1),
    all positive but n2.  They are Python ints (object arrays) on the exact path
    and where d2 could wrap int64, else int64.
    """
    # every factor below is at most top
    top = max(hi) + 2 * max(max(ns + ms + nt + mt) for _, ns, ms, _, nt, mt in pairs) + 1
    dtype = object if exact or top * top >= _INT64_LIMIT else np.int64
    alphas = [np.arange(a, b + 1).astype(dtype) for a, b in zip(lo, hi)]
    for cs, ns, ms, ct, nt, mt in pairs:
        factors = []
        for a, nsj, msj, mtj in zip(alphas, ns, ms, mt):
            gamma = a + (nsj - msj)
            d2 = (gamma + msj + 1) * (gamma + mtj + 1)
            factors.append((gamma + msj + mtj + 1, np.where(gamma >= 0, gamma + 1, 0), d2))
        yield cs, ct, factors


def _gram_block(pairs, lo, hi) -> np.ndarray:
    """Scaled Gram block <H z^alpha, H z^(alpha+delta)>/pi^n over the box lo <= alpha <= hi, as floats.

    pairs are the ordered term pairs (s, t) of one winding offset
    delta = k_s - k_t (k = n - m).  With gamma = alpha + k_s = beta + k_t,
    each coordinate j contributes to c_s conj(c_t) times

        first:  2/(a_j+b_j+n_sj+m_sj+n_tj+m_tj+2) = 1/(gamma_j+m_sj+m_tj+1) = 1/d1
        second: v_s(alpha) v_t(beta) w(gamma)
                = (gamma_j+1) / ((gamma_j+m_sj+1)(gamma_j+m_tj+1)) = n2/d2,  if gamma >= 0

    and the entry is prod first - prod second.  Each factor is one correctly
    rounded integer division, so rationals that cancel exactly (e.g. for
    holomorphic symbols) cancel exactly here too; _gram_tables is the exact
    form of the same sum.  Every pair contributes its scalar coefficient
    c_s conj(c_t); a slice profile varies with the circle point only through
    phases that top_eigenvalues applies to whole blocks.
    """
    block = 0
    for cs, ct, factors in _pair_factors(pairs, lo, hi, False):
        first = [np.true_divide(np.ones_like(d1), d1) for d1, _, _ in factors]
        second = [np.true_divide(n2, d2) for _, n2, d2 in factors]
        outer = reduce(np.multiply.outer, first) - reduce(np.multiply.outer, second)
        block = block + complex(cs) * complex(ct).conjugate() * outer
    return block


def _sum_reduced(acc, num, den):
    """acc[0]/acc[1] + num/den entrywise, in lowest terms: the integer tables' one step."""
    p, q = acc[0] * den + num * acc[1], acc[1] * den
    g = np.gcd(p, q)
    return p // g, q // g


def _gram_tables(pairs, lo, hi) -> tuple[np.ndarray, ...]:
    """_gram_block of exact pairs as reduced integer tables (re_num, re_den, im_num, im_den).

    With the outer products D1, N2, D2 of the factors over the coordinates, a
    pair contributes c_s conj(c_t) (D2 - N2 D1) / (D1 D2).  Real and imaginary
    parts are summed over the pairs on common denominators, reduced by their
    gcd after every pair, so each entry is num/den in lowest terms with den > 0;
    the arrays hold Python ints, which no product can wrap.
    """
    shape = tuple(b - a + 1 for a, b in zip(lo, hi))
    parts = [(np.zeros(shape, dtype=object), np.ones(shape, dtype=object)) for _ in range(2)]
    for cs, ct, factors in _pair_factors(pairs, lo, hi, True):
        d1, n2, d2 = (reduce(np.multiply.outer, f) for f in zip(*factors))
        num, den = d2 - n2 * d1, d1 * d2
        c = cs * ct.conjugate()
        parts = [
            _sum_reduced(part, num * v.numerator, den * v.denominator) if v else part
            for part, v in zip(parts, (c.re, c.im))
        ]
    (re_num, re_den), (im_num, im_den) = parts
    return re_num, re_den, im_num, im_den


def _crats(re_num, re_den, im_num, im_den) -> list[CRat]:
    """One CRat per entry of reduced integer tables."""
    return [CRat(Fraction(a, b), Fraction(c, d)) for a, b, c, d in zip(re_num, re_den, im_num, im_den)]


def _complex(re_num, re_den, im_num, im_den) -> np.ndarray:
    """The complex of reduced integer tables, each part a correctly rounded division, as complex(CRat)."""
    out = np.empty(np.shape(re_num), dtype=complex)
    out.real = np.true_divide(re_num, re_den)
    out.imag = np.true_divide(im_num, im_den)
    return out


def scaled_gram_entry(sym: PolySymbol, alpha, beta):
    """<H_psi z^alpha, H_psi z^beta> / pi^n, exact (CRat) for exact symbols."""
    alpha = as_multiindex(alpha, dim=sym.dim, name="alpha")
    beta = as_multiindex(beta, dim=sym.dim, name="beta")
    delta = tuple(b - a for a, b in zip(alpha, beta))
    pairs = _pair_offsets(sym.terms, sym.terms).get(delta)
    if pairs is None:
        return CR_ZERO if sym.is_exact else 0j
    if sym.is_exact:
        return _crats(*(t.ravel() for t in _gram_tables(pairs, alpha, alpha)))[0]
    return _gram_block(pairs, alpha, alpha).item()


@dataclass(frozen=True)
class CompressionMatrix:
    """Hermitian compression of H*_psi H_psi on a truncated basis, stored as sector blocks.

    sectors groups the index sets of the diagonal blocks by size (see _sectors);
    nothing lies between them.  blocks[g][r] is the orthonormal block (complex)
    of the indices sectors[g][r]; for exact symbols scaled_blocks holds the
    Gaussian-rational scaled Gram blocks alike (see the module docstring for the
    sqrt-weight relation), else None.  dense and scaled are built on first read.
    """

    symbol: PolySymbol | None
    trunc: BasisTruncation
    symbol_hash: str
    sectors: tuple[np.ndarray, ...]
    blocks: tuple[np.ndarray, ...]
    scaled_blocks: tuple[np.ndarray, ...] | None

    @property
    def exactness(self) -> Exactness:
        return Exactness.FLOAT if self.scaled_blocks is None else Exactness.RATIONAL

    @property
    def size(self) -> int:
        return self.trunc.size

    def _graded_lex(self, stacks, fill) -> np.ndarray:
        if stacks[0].shape[1] == self.size:  # one sector spans the basis: its block is the matrix
            return stacks[0][0]
        out = np.full((self.size, self.size), fill, dtype=stacks[0].dtype)
        for g, b in zip(self.sectors, stacks):
            out[g[:, :, None], g[:, None, :]] = b
        return out

    @cached_property
    def dense(self) -> np.ndarray:
        return self._graded_lex(self.blocks, 0)

    @cached_property
    def scaled(self) -> tuple[tuple[CRat, ...], ...] | None:
        if self.scaled_blocks is None:
            return None
        return tuple(map(tuple, self._graded_lex(self.scaled_blocks, CR_ZERO)))

    def exact_diagonal(self) -> list[Fraction]:
        """Orthonormal diagonal <H e_a, H e_a>, exactly rational, read off the sector blocks."""
        if self.scaled_blocks is None:
            raise ValueError("matrix was assembled on the float path")
        diag = np.empty(self.size, dtype=object)
        for g, b in zip(self.sectors, self.scaled_blocks):
            diag[g] = np.diagonal(b, axis1=1, axis2=2)
        return [c.real_fraction() * weight(alpha) for c, alpha in zip(diag, self.trunc.indices)]

    def hermiticity_defect(self) -> float:
        return float(_defects([b[None] for b in self.blocks])[0])

    def scale(self) -> float:
        return float(_scales([b[None] for b in self.blocks])[0])


def _defects(stacks) -> np.ndarray:
    """Per sample, the largest |b - b^H| over its sector blocks; stacks hold (samples, k, s, s) blocks."""
    return np.max([np.abs(b - b.conj().swapaxes(2, 3)).max(axis=(1, 2, 3)) for b in stacks], axis=0)


def _scales(stacks) -> np.ndarray:
    """Per sample, the largest |entry| of its sector blocks."""
    return np.max([np.abs(b).max(axis=(1, 2, 3)) for b in stacks], axis=0)


def _split(flat: np.ndarray, groups) -> tuple[np.ndarray, ...]:
    """The (k, s, s) stacks of the sector groups laid end to end in flat's last axis, as views."""
    parts = np.split(flat, np.cumsum([g.size * g.shape[1] for g in groups])[:-1], axis=-1)
    return tuple(p.reshape(p.shape[:-1] + g.shape + g.shape[1:]) for p, g in zip(parts, groups))


def _from_dense(full: np.ndarray, exact: bool, offsets: frozenset, **fields) -> CompressionMatrix:
    """Block a full graded-lex matrix (CRat scaled Gram entries if exact, else orthonormal
    ones) by the sectors of the offsets; a non-zero entry outside them raises ValueError.
    """
    groups = _sectors(fields["trunc"], offsets)[0]
    parts = tuple(full[g[:, :, None], g[:, None, :]] for g in groups)
    if sum(map(np.count_nonzero, parts)) != np.count_nonzero(full):
        raise ValueError("matrix has non-zero entries outside its sector blocks")
    w = fields["trunc"].weights_sqrt
    blocks = tuple(np.asarray(b, dtype=complex) for b in parts) if exact else parts
    for g, b in zip(groups, blocks if exact else ()):  # in place, as (c * w_i) * w_j in assemble
        b *= w[g][:, :, None]
        b *= w[g][:, None, :]
    return CompressionMatrix(
        sectors=groups,
        blocks=blocks,
        scaled_blocks=parts if exact else None,
        **fields,
    )


def _symbol_hash(sym: PolySymbol) -> str:
    blob = json.dumps(sym.to_json_obj(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _kernel_blocks(offsets, trunc: BasisTruncation, row_start, col_pos, exact: bool):
    """(at, rows, cols, block, weighted) per winding offset with a non-empty box: the
    offset's _gram_tables if exact, else its _gram_block, its orthonormal entries
    (c * w_a) * w_b and their flat positions in the sector layout of _sectors.
    """
    w = trunc.weights_sqrt
    for delta, pairs in offsets.items():
        # alpha and beta = alpha + delta both in [0, N] per coordinate
        box = _offset_block(trunc, delta)
        if box is None:
            continue
        lo, hi, rows, cols = box
        if exact:
            block = _gram_tables(pairs, lo, hi)
            values = _complex(*block)
        else:
            block = values = _gram_block(pairs, lo, hi)
        at = row_start[rows] + col_pos[cols]
        yield at, rows, cols, block, np.asarray(values, dtype=complex) * w[rows] * w[cols]


def assemble(sym: PolySymbol, trunc: BasisTruncation) -> CompressionMatrix:
    """Assemble the Hermitian compression of H*_psi H_psi as sector blocks.

    One kernel computes the matrix one winding-offset block at a time, in the
    arithmetic of the symbol, and each block is scattered straight into the
    sector blocks.  Exact symbols go through reduced integer tables
    (_gram_tables): their Hermitian symmetry is checked on the tables, the
    orthonormal blocks take each entry's correctly rounded float value, and
    scaled_blocks holds one CRat per non-zero entry (CR_ZERO elsewhere).
    Float symbols run _gram_block and leave scaled_blocks as None; callers that
    only need floats pass sym.as_float().  For a unit-coefficient monomial
    symbol the exact result is diagonal with the closed-form spectrum values
    on the diagonal.  Coefficients too large for floats leave inf/nan entries
    in the blocks, which eigenvalues() rejects.
    """
    if sym.dim != trunc.dim:
        raise ValueError(f"symbol dim {sym.dim} != truncation dim {trunc.dim}")
    _check_basis_size(trunc.degree_cap, trunc.dim)
    exact = sym.is_exact
    offsets = _pair_offsets(sym.terms, sym.terms)
    groups, row_start, col_pos = _sectors(trunc, frozenset(offsets))
    flat = np.zeros(sum(g.size * g.shape[1] for g in groups), dtype=complex)
    # re_num, re_den, im_num, im_den of every stored entry: 0/1 between the kernel blocks
    tables = [np.full(flat.size, fill, dtype=object) for fill in (0, 1, 0, 1)] if exact else ()
    written = []
    with np.errstate(over="ignore", invalid="ignore"):
        for at, rows, cols, block, weighted in _kernel_blocks(offsets, trunc, row_start, col_pos, exact):
            flat[at] = weighted
            if exact:
                for table, part in zip(tables, block):
                    table[at] = part
                written.append((at.ravel(), (row_start[cols] + col_pos[rows]).ravel()))
    scaled = None
    if exact:
        if written:
            at, mirror = (np.concatenate(x) for x in zip(*written))
            re_num, re_den, im_num, im_den = (t[mirror] for t in tables)
            if not all(map(np.array_equal, (t[at] for t in tables), (re_num, re_den, -im_num, im_den))):
                raise AssertionError("exact assembly lost Hermitian symmetry")
        scaled = np.full(flat.size, CR_ZERO, dtype=object)
        nonzero = np.flatnonzero((tables[0] != 0) | (tables[2] != 0))
        scaled[nonzero] = _crats(*(t[nonzero] for t in tables))
    return CompressionMatrix(
        symbol=sym,
        trunc=trunc,
        symbol_hash=_symbol_hash(sym),
        sectors=groups,
        blocks=_split(flat, groups),
        scaled_blocks=_split(scaled, groups) if exact else None,
    )


def _toeplitz_map(phi: PolySymbol, in_indices, out_index_of) -> list[list]:
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
            acc[g] = acc.get(g, CR_ZERO) + c * val
        out.append(sorted(acc.items()))
    return out


def assemble_via_toeplitz(sym: PolySymbol, trunc: BasisTruncation) -> CompressionMatrix:
    """Independent assembly through T_{|psi|^2} - T_conj(psi) T_psi.

    The intermediate basis is capped at default_inner_caps, which holds every
    projection target, so for polynomial symbols the two assemblies agree
    entrywise and exactly on the scaled Gram representation.  Entries are CRat for exact
    symbols; float coefficients degrade them to complex.  Fills the full matrix.
    """
    if sym.dim != trunc.dim:
        raise ValueError(f"symbol dim {sym.dim} != truncation dim {trunc.dim}")
    _check_basis_size(trunc.degree_cap, trunc.dim)
    offsets = frozenset(_pair_offsets(sym.terms, sym.terms))
    # the fill below is n x n whatever the sectors; this also implies _sectors' stored-entry guard
    _check_dump_size(trunc.size)
    indices = trunc.indices
    size = trunc.size
    inner_caps = default_inner_caps(sym, trunc)
    if math.prod(c + 1 for c in inner_caps) > MAX_STORED_ENTRIES:
        raise ValueError(f"inner basis of caps {inner_caps} holds more than {MAX_STORED_ENTRIES} indices")

    inner_indices = tuple(product(*(range(c + 1) for c in inner_caps)))
    inner_index_of = {a: i for i, a in enumerate(inner_indices)}
    inner_weights = [weight(a) for a in inner_indices]

    mod_sq = sym.modulus_squared()
    t_mod = _toeplitz_map(mod_sq, indices, trunc.index_of)
    t_psi = _toeplitz_map(sym, indices, inner_index_of)
    t_psibar = _toeplitz_map(sym.conjugate(), inner_indices, trunc.index_of)

    full = np.full((size, size), CR_ZERO, dtype=object)
    for i in range(size):
        for j, val in t_mod[i]:
            full[i, j] = full[i, j] + val
        for g, va in t_psi[i]:
            wg = inner_weights[g]
            for j, vb in t_psibar[g]:
                full[i, j] = full[i, j] - va * vb * wg
    if not sym.is_exact:
        full = full.astype(complex)
        full *= trunc.weights_sqrt[:, None]  # in place: no n x n temporaries
        full *= trunc.weights_sqrt
    return _from_dense(
        full,
        sym.is_exact,
        offsets,
        symbol=sym,
        trunc=trunc,
        symbol_hash=_symbol_hash(sym),
    )


def matrices_equal(m1: CompressionMatrix, m2: CompressionMatrix) -> bool:
    """Entrywise equality: exact on the rational path, bitwise on the float path."""
    if m1.trunc != m2.trunc:
        return False
    if m1.scaled is not None and m2.scaled is not None:
        return m1.scaled == m2.scaled
    return bool(np.array_equal(m1.dense, m2.dense))


def _checked_eigenvalues(stacks, name_of, magnitude: float = 1.0) -> np.ndarray:
    """Ascending eigenvalues of each sample's (samples, k, s, s) blocks, shape (samples, size).

    The samples are checked in order, as one eigenvalues() call each would
    check them: the first failing sample raises ValueError for its first
    failing guard.  A sample counts as non-finite when its symmetrised blocks
    (b + b^H) / 2 are, which covers non-finite entries and an overflow in the
    symmetrisation; LAPACK solves only those finite symmetrised blocks.
    name_of(i) names sample i in the non-finite message; it is called only then.
    magnitude bounds the sum of the |terms| added into one entry: the Hermiticity
    tolerance and the PSD floor are taken relative to max(1, magnitude) too, so
    terms that cancel to rounding noise (a vanishing slice) pass the guards.
    """
    unit = max(1.0, magnitude)
    with np.errstate(over="ignore", invalid="ignore"):
        hermitian = [np.divide(h, 2.0, out=h) for h in (b + b.conj().swapaxes(2, 3) for b in stacks)]
        finite = np.logical_and.reduce([np.isfinite(h).all(axis=(1, 2, 3)) for h in hermitian])
        n_finite = finite.size if finite.all() else int(np.argmin(finite))
        stacks = [b[:n_finite] for b in stacks]
        defect = _defects(stacks)
        skewed = np.flatnonzero(defect > HERMITICITY_TOL * np.maximum(unit, _scales(stacks)))
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


def eigenvalues(mat: CompressionMatrix) -> np.ndarray:
    """All eigenvalues of the compression, ascending.

    Reads only the sector blocks: rejects non-finite entries, verifies
    Hermiticity (to 1e-13 relative) and the PSD floor (>= -1e-10) before
    returning.  The spectrum is the union of the blocks' spectra: blocks of
    one size go to LAPACK's Hermitian eigensolver as one batched call.
    """
    name = mat.symbol if mat.symbol is not None else f"dumped symbol {mat.symbol_hash}"
    return _checked_eigenvalues([b[None] for b in mat.blocks], lambda i: name)[0]


def top_eigenvalues(fourier, thetas, trunc: BasisTruncation, name_of) -> np.ndarray:
    """Top eigenvalue of the compression of sum_w e^{i w theta} phi_w, for every theta, in one batch.

    fourier maps a winding w to a float symbol phi_w of the basis dim (the
    Fourier symbols of a slice profile).  A pair of terms of phi_w and phi_v
    carries the phase e^{i d theta}, d = w - v, so the compression is the
    matrix trigonometric polynomial sum_d e^{i d theta} G_d: _gram_block
    computes G_d one winding offset at a time, and the samples share the
    sectors of the union of the offsets.  Blocks of one size are solved by one
    eigvalsh call over all samples, and every sample keeps the guards of
    eigenvalues(), relative to the largest sum of |e^{i d theta} G_d| over one
    entry; name_of(i) names sample i in the non-finite message.
    Samples go in chunks of at most MAX_STORED_ENTRIES stored entries, the
    budget of one assemble.
    """
    for phi in fourier.values():
        if phi.is_exact or phi.dim != trunc.dim:
            raise ValueError("top_eigenvalues needs float symbols of the basis dim")
    _check_basis_size(trunc.degree_cap, trunc.dim)
    by_phase: dict[int, dict] = {}
    for w, phi in fourier.items():
        for v, chi in fourier.items():
            for delta, pairs in _pair_offsets(phi.terms, chi.terms).items():
                by_phase.setdefault(w - v, {}).setdefault(delta, []).extend(pairs)
    offsets = frozenset(delta for part in by_phase.values() for delta in part)
    groups, row_start, col_pos = _sectors(trunc, offsets)
    stored = sum(g.size * g.shape[1] for g in groups)
    step = MAX_STORED_ENTRIES // stored
    thetas = np.asarray(thetas, dtype=float)
    tops = []
    for start in range(0, thetas.size, step):
        chunk = thetas[start:start + step]
        flat = np.zeros((chunk.size, stored), dtype=complex)
        size = np.zeros(stored)
        with np.errstate(over="ignore", invalid="ignore"):
            for d, part in by_phase.items():
                phase = np.exp(1j * d * chunk)[:, None]
                for at, _, _, _, weighted in _kernel_blocks(part, trunc, row_start, col_pos, False):
                    flat[:, at.ravel()] += phase * weighted.ravel()
                    size[at.ravel()] += np.abs(weighted).ravel()
        tops.append(_checked_eigenvalues(_split(flat, groups), lambda i: name_of(start + i), size.max())[:, -1])
    return np.concatenate(tops) if tops else np.empty(0)


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
        if not abs(self.p) < 1:  # NaN too
            raise ValueError(f"kernel center must satisfy |p| < 1, got {self.p}")

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
    mat: CompressionMatrix | None = None,
) -> float:
    """||(M - lam I) f|| for the product test vector f = g (x) k_p.

    g lives on the (dim-1)-dimensional slice basis at the same degree cap and
    must be normalized; k_p occupies the last coordinate.  Truncations holding
    less than MIN_KERNEL_NORM of the kernel mass are rejected, since the
    residual would reflect lost mass rather than spectral distance, and so are
    non-finite lam, p or g and a supplied matrix of another truncation or
    symbol.  f is one outer product laid out by trunc.positions; M f is applied
    one sector block at a time (einsum over each (k, s, s) stack), so neither
    the dense matrix nor a BLAS matrix-vector product is formed.
    """
    if sym.dim < 2:
        raise ValueError("weyl_residual needs dim >= 2 (kernel occupies the last coordinate)")
    if not cmath.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    kv = KernelVector(complex(p), trunc.degree_cap)
    if kv.truncated_norm < MIN_KERNEL_NORM:
        raise ValueError(
            f"truncated kernel norm {kv.truncated_norm:.4f} < {MIN_KERNEL_NORM}; increase N"
        )
    slice_trunc = BasisTruncation(trunc.degree_cap, trunc.dim - 1)
    g = np.asarray(g_coeffs, dtype=complex)
    if g.shape != (slice_trunc.size,):
        raise ValueError(f"g must have {slice_trunc.size} coefficients, got {g.shape}")
    if not np.isfinite(g).all():
        raise ValueError("g must have finite coefficients")
    if abs(np.linalg.norm(g) - 1.0) > 1e-8:
        raise ValueError("g must be normalized")

    if mat is None:
        mat = assemble(sym, trunc)
    elif mat.trunc != trunc:
        raise ValueError("supplied matrix truncation does not match")
    elif mat.symbol_hash != _symbol_hash(sym):
        raise ValueError(f"supplied matrix is of symbol {mat.symbol_hash}, not of {_symbol_hash(sym)}")

    f = np.empty(trunc.size, dtype=complex)
    f[trunc.positions] = np.multiply.outer(g[slice_trunc.positions], kv.coefficients)
    mf = np.empty_like(f)
    for sector, block in zip(mat.sectors, mat.blocks):
        mf[sector] = np.einsum("kij,kj->ki", block, f[sector])
    return float(np.linalg.norm(mf - lam * f))


# -- dump format --------------------------------------------------------------
# header: "hankel-spectra-matrix v1 dim=<d> N=<n> symbol=<hash> exact=<0|1>"
# then one graded-lex row per line, size cells each; a cell is "re,im" with float
# repr (float mode) or "num/den,num/den" (rational mode, scaled Gram entries);
# size^2 <= MAX_STORED_ENTRIES.  The writer forms each row from its sector block:
# the columns outside the row's sector are runs of the zero cell.


def _check_dump_size(size: int, where: str = "") -> None:
    if size * size > MAX_STORED_ENTRIES:
        raise ValueError(
            f"{where}a dense matrix dump of basis size {size} holds {size * size} entries, "
            f"above the guard {MAX_STORED_ENTRIES}"
        )


def _cell(c) -> str:
    """One dump cell: "num/den,num/den" for a CRat, float reprs "re,im" for a complex."""
    if isinstance(c, CRat):
        # frac_str writes "num/den", integers too: the format is frozen and readers split on "/".
        # Most cells are the shared CR_ZERO; the identity test spares formatting them.
        return "0/1,0/1" if c is CR_ZERO or not c else f"{frac_str(c.re)},{frac_str(c.im)}"
    return f"{c.real!r},{c.imag!r}"


def dump_matrix(mat: CompressionMatrix, fileobj) -> None:
    _check_dump_size(mat.size)
    exact = mat.scaled_blocks is not None
    fileobj.write(
        f"hankel-spectra-matrix v1 dim={mat.trunc.dim} N={mat.trunc.degree_cap} "
        f"symbol={mat.symbol_hash} exact={int(exact)}\n"
    )
    stacks = mat.scaled_blocks if exact else mat.blocks
    zero = _cell(CR_ZERO if exact else 0j) + " "
    # row i of the matrix is row p of block r of group k = group[i], r * s + p = place[i]
    group, place = np.empty((2, mat.size), dtype=np.intp)
    for k, g in enumerate(mat.sectors):
        group[g] = k
        place[g] = np.arange(g.size).reshape(g.shape)
    for k, i in zip(group.tolist(), place.tolist()):
        r, p = divmod(i, mat.sectors[k].shape[1])
        row, last = [], 0
        for j, c in zip(mat.sectors[k][r].tolist(), stacks[k][r, p].tolist()):
            row += (zero * (j - last), _cell(c), " ")
            last = j + 1
        row.append(zero * (mat.size - last))
        fileobj.write("".join(row)[:-1] + "\n")


# longer dim= or N= fields could reach int()'s digit limit, whose message names no dump
_MAX_HEADER_DIGITS = 9


def _read_header(line: str) -> tuple[BasisTruncation, str, bool]:
    """(truncation, symbol hash, exact) from a v1 header; checked before anything is allocated."""
    header = line.split()
    if not header or header[0] != "hankel-spectra-matrix":
        raise ValueError("not a matrix dump")
    fields = {}
    for part in header[2:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"matrix dump header: field {part!r} is not key=value")
        fields[key] = value
    for key in ("dim", "N", "symbol", "exact"):
        if key not in fields:
            raise ValueError(f"matrix dump header: missing field {key!r}")
    for key in ("dim", "N"):
        if not (fields[key].isascii() and fields[key].isdigit()):
            raise ValueError(f"matrix dump header: {key}={fields[key]!r} is not a non-negative integer")
        if len(fields[key]) > _MAX_HEADER_DIGITS:
            raise ValueError(f"matrix dump header: {key} has {len(fields[key])} digits")
    dim, n_cap = int(fields["dim"]), int(fields["N"])
    if not 1 <= dim <= MAX_COORDINATE:
        raise ValueError(f"matrix dump header: dim must be in 1..{MAX_COORDINATE}")
    if fields["exact"] not in ("0", "1"):
        raise ValueError(f"matrix dump header: exact={fields['exact']!r} is not 0 or 1")
    _check_dump_size((n_cap + 1) ** dim, "matrix dump header: ")  # implies size <= MAX_BASIS_SIZE
    return BasisTruncation(n_cap, dim), fields["symbol"], fields["exact"] == "1"


def _read_cell(cell: str, exact: bool, i: int, j: int):
    """One "re,im" entry: a CRat of two fractions (exact dump) or a complex of two floats."""
    try:
        re_s, im_s = cell.split(",")
        return CRat(Fraction(re_s), Fraction(im_s)) if exact else complex(float(re_s), float(im_s))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"matrix dump row {i}, column {j}: bad entry {cell!r}") from None


def _pattern_offsets(trunc: BasisTruncation, full: np.ndarray) -> frozenset:
    """The offsets beta - alpha of the non-zero entries of a full graded-lex matrix."""
    indices = np.array(trunc.indices, dtype=np.intp)
    rows, cols = np.nonzero(full)
    return frozenset(map(tuple, np.unique(indices[cols] - indices[rows], axis=0).tolist()))


def load_matrix(fileobj) -> CompressionMatrix:
    trunc, symbol_hash, exact = _read_header(fileobj.readline())
    size = trunc.size
    full = np.empty((size, size), dtype=object if exact else complex)
    for i in range(size):
        cells = fileobj.readline().split()
        if len(cells) != size:
            raise ValueError(f"row {i}: expected {size} entries, got {len(cells)}")
        full[i] = [_read_cell(cell, exact, i, j) for j, cell in enumerate(cells)]
    return _from_dense(
        full,
        exact,
        _pattern_offsets(trunc, full),
        symbol=None,
        trunc=trunc,
        symbol_hash=symbol_hash,
    )
