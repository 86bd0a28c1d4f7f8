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
factors on reduced integer tables of Python ints (_gram_tables) and keep the
non-zero entries of g (Gaussian-rational, Hermitian), float symbols divide them
in float64 (_gram_block).  Callers that only need floats pass a float copy of
an exact symbol (PolySymbol.as_float).

The compression is stored as its non-zero cells.  Entry (a, b) vanishes unless
b - a is a winding offset k_s - k_t of two terms, so the connected components
of the graph a ~ a + delta on the box (the sectors, see _sectors) index
diagonal blocks of a permuted matrix with nothing between them.  The spectrum
is the union of the block spectra; monomial symbols give 1x1 blocks, the
paper's diagonal case.  Every compression keeps only the row-major listing of
the cells the dump writes (cells): the reduced table ints of an exact
compression, the orthonormal complex entries of a float one.  Every reader
works on it: comparisons, the dump, the exact diagonal, the guarded solve and
the Weyl residual.  The graded-lex CRat matrix (scaled) and the full float
matrix (dense) are each one scatter of the listing, built only when a caller
reads them.  Every route passes its non-zero cells to one constructor,
_from_cells; the dump is written from the listing in chunks of about 1 MiB and
read back without an n x n array.

The blocks lie end to end in one flat layout (_layout), computed once per
cached set of sectors.  One guarded solve (_checked_eigenvalues) serves a
compression and a batch of slice samples alike, the samples summed from the
blocks G_d that _fourier_blocks builds once in columns keyed by winding offset:
it reads the listed entries and their mirrors, guards and symmetrises them there,
and scatters the result into one zeroed layout for the batched eigensolve: the
only padded form of a compression.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import islice, product

import numpy as np

from .core import _INT64_LIMIT
from .multiindex import MAX_COORDINATE, MultiIndex, as_multiindex, box_exceeds, is_nonnegative, weight
from .rational import CRat, CR_ZERO, read_rational
from .symbols import PolySymbol

__all__ = [
    "BasisTruncation",
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


@dataclass(frozen=True)
class BasisTruncation:
    """Per-coordinate degree cap N; basis size (N+1)^dim, graded-lex ordered.

    A box over MAX_BASIS_SIZE is refused at construction, so every route that
    takes a truncation works within the basis budget.  positions fixes the
    order; indices and index_of are read off it.
    """

    degree_cap: int
    dim: int

    def __post_init__(self):
        if self.degree_cap < 0 or self.dim < 1:
            raise ValueError("degree_cap must be >= 0 and dim >= 1")
        if box_exceeds(self.degree_cap + 1, self.dim, MAX_BASIS_SIZE):  # no power of a huge N or dim
            raise ValueError(
                f"basis size (N+1)^dim exceeds guard {MAX_BASIS_SIZE} (N={self.degree_cap}, dim={self.dim})"
            )

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


def default_inner_caps(sym: PolySymbol, trunc: BasisTruncation) -> tuple[int, ...]:
    """degree_cap + per-coordinate symbol degree: makes the projection sum exact."""
    return tuple(trunc.degree_cap + d for d in sym.coordinate_degrees())


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
    """(groups, layout, label): the sectors of the box for the coupling offsets.

    A sector is a connected component of the graph on the basis box with an
    edge alpha ~ alpha + delta for every offset delta whose ends both lie in
    the box; entry (i, j) lies in a block when label[i] == label[j].  groups
    holds one read-only (k, s) array per sector size s, ascending in s: row r
    holds the graded-lex indices of one sector, ascending.  layout is
    (row_start, col_pos, stored), their blocks laid out end to end (_layout),
    computed once per cache entry; over MAX_STORED_ENTRIES raise ValueError.
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
    groups = tuple(order[starts[counts == s][:, None] + np.arange(s)] for s in np.unique(counts))
    row_start, col_pos, stored = _layout(groups, trunc.size)
    if stored > MAX_STORED_ENTRIES:
        s = groups[-1].shape[1]
        raise ValueError(
            f"sector blocks hold {stored} entries (largest block {s}x{s}), above the guard "
            f"{MAX_STORED_ENTRIES} (N={trunc.degree_cap}, dim={trunc.dim})"
        )
    for a in groups + (row_start, col_pos, label):
        a.flags.writeable = False
    return groups, (row_start, col_pos, stored), label


def _layout(groups, size: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(row_start, col_pos, stored) of the sector groups' (k, s, s) stacks laid end to end:
    entry (i, j) of a block sits at flat position row_start[i] + col_pos[j] of stored entries."""
    row_start, col_pos = np.empty((2, size), dtype=np.intp)
    stored = 0
    for g in groups:
        s = g.shape[1]
        row_start[g] = stored + np.arange(g.size).reshape(g.shape) * s
        col_pos[g] = np.arange(s)
        stored += g.size * s
    return row_start, col_pos, stored


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
    c_s conj(c_t), so _fourier_blocks builds a slice's blocks once, in columns
    keyed by winding offset, and top_eigenvalues applies each circle point's phases.
    """
    block = 0
    for cs, ct, factors in _pair_factors(pairs, lo, hi, False):
        first = [np.true_divide(np.ones_like(d1), d1) for d1, _, _ in factors]
        second = [np.true_divide(n2, d2) for _, n2, d2 in factors]
        outer = reduce(np.multiply.outer, first) - reduce(np.multiply.outer, second)
        block = block + complex(cs) * complex(ct).conjugate() * outer
    return block


def _reduced(num, den):
    """num/den entrywise in lowest terms (den > 0 stays positive): the integer tables' one step."""
    g = np.gcd(num, den)
    return num // g, den // g


def _gram_tables(pairs, lo, hi) -> tuple[np.ndarray, ...]:
    """_gram_block of exact pairs as reduced integer tables (re_num, re_den, im_num, im_den).

    With the outer products D1, N2, D2 of the factors over the coordinates, a
    pair contributes c_s conj(c_t) (D2 - N2 D1) / (D1 D2).  Real and imaginary
    parts are summed over the pairs on common denominators, each starting from
    its first pair with a non-zero part and reduced by their gcd after every
    pair, so each entry is num/den in lowest terms with den > 0 (0/1 for a part
    no pair reaches); the arrays hold Python ints, which no product can wrap.
    """
    parts = [None, None]
    for cs, ct, factors in _pair_factors(pairs, lo, hi, True):
        d1, n2, d2 = (reduce(np.multiply.outer, f) for f in zip(*factors))
        num, den = d2 - n2 * d1, d1 * d2
        c = cs * ct.conjugate()
        for i, v in enumerate((c.re, c.im)):
            if v:
                p, q = num * v.numerator, den * v.denominator
                if parts[i] is not None:
                    acc_p, acc_q = parts[i]
                    p, q = acc_p * q + p * acc_q, acc_q * q
                parts[i] = _reduced(p, q)
    shape = tuple(b - a + 1 for a, b in zip(lo, hi))
    zero = np.zeros(shape, dtype=object), np.ones(shape, dtype=object)
    (re_num, re_den), (im_num, im_den) = (zero if part is None else part for part in parts)
    return re_num, re_den, im_num, im_den


def _crats(re_num, re_den, im_num, im_den) -> list[CRat]:
    """One CRat per entry of reduced integer tables."""
    return [CRat(Fraction(a, b), Fraction(c, d)) for a, b, c, d in zip(re_num, re_den, im_num, im_den)]


def _ratio(num: int, den: int) -> float:
    """num / den of a reduced table entry (den > 0), correctly rounded; +-inf past the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


_ratios = np.frompyfunc(_ratio, 2, 1)


def _complex(re_num, re_den, im_num, im_den) -> np.ndarray:
    """The complex of reduced integer tables, each part as in complex(CRat), but +-inf past
    the float range, which eigenvalues() rejects."""
    out = np.empty(np.shape(re_num), dtype=complex)
    out.real = _ratios(re_num, re_den)
    out.imag = _ratios(im_num, im_den)
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
    """Hermitian compression of H*_psi H_psi on a truncated basis, stored as its non-zero cells.

    sectors groups the index sets of the diagonal blocks by size, and layout =
    (row_start, col_pos, stored) lays those blocks out end to end (see _sectors);
    nothing lies between them.  cells = (rows, cols, values) lists the cells the
    dump writes, row-major: their graded-lex positions and their values.  For
    exact symbols values is a (4, n) object array of the reduced Python ints
    re_num, re_den, im_num, im_den of the Gaussian-rational scaled Gram entries
    (0/1 for a zero part; see the module docstring for the sqrt-weight relation),
    listed when a numerator is non-zero.  For float symbols values holds the n
    orthonormal complex entries, listed unless both parts are +0.0, so -0.0 and
    NaN cells stay.  is_exact reads the kind off the listing.  The guards, the
    solve, the Weyl residual and float comparisons read the listed cells'
    orthonormal entries (listing); the graded-lex views dense and scaled (the
    exact cells as CRat), each scattered from the cells, and the symbol_hash of
    the dump header are built on first read.  A loaded dump has no symbol, only
    its header's dumped_hash.
    """

    symbol: PolySymbol | None
    trunc: BasisTruncation
    sectors: tuple[np.ndarray, ...]
    layout: tuple[np.ndarray, np.ndarray, int]
    cells: tuple[np.ndarray, np.ndarray, np.ndarray]
    dumped_hash: str | None = None

    @property
    def size(self) -> int:
        return self.trunc.size

    @property
    def is_exact(self) -> bool:
        """Whether the cells hold table ints, a (4, n) array, rather than n complex entries."""
        return self.cells[2].ndim == 2

    @cached_property
    def symbol_hash(self) -> str:
        """The first 12 hex digits of the sha256 of the symbol's sorted JSON; a loaded dump's dumped_hash."""
        if self.symbol is None:
            return self.dumped_hash
        import hashlib
        import json

        return hashlib.sha256(json.dumps(self.symbol.to_json_obj(), sort_keys=True).encode()).hexdigest()[:12]

    @cached_property
    def listing(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(values, at, mirror): the listed cells' orthonormal entries and the flat layout positions
        of every cell (i, j) and of its mirror (j, i).  An exact cell is the float (c * w_i) * w_j,
        c its value as _complex rounds it and w the sqrt weights."""
        rows, cols, values = self.cells
        if self.is_exact:
            w = self.trunc.weights_sqrt
            with np.errstate(over="ignore", invalid="ignore"):  # eigenvalues() rejects the inf/nan
                values = _complex(*values) * w[rows] * w[cols]
        row_start, col_pos, _ = self.layout
        return values, row_start[rows] + col_pos[cols], row_start[cols] + col_pos[rows]

    @cached_property
    def dense(self) -> np.ndarray:
        """The graded-lex orthonormal matrix: every listed entry at its cell and +0.0 elsewhere."""
        rows, cols, _ = self.cells
        out = np.zeros((self.size, self.size), dtype=complex)
        out[rows, cols] = self.listing[0]
        return out

    @cached_property
    def scaled(self) -> tuple[tuple[CRat, ...], ...] | None:
        """The cells as graded-lex CRat rows, CR_ZERO for every other entry; None on the float path."""
        if not self.is_exact:
            return None
        rows, cols, values = self.cells
        out = np.full((self.size, self.size), CR_ZERO, dtype=object)
        out[rows, cols] = _crats(*values)
        return tuple(map(tuple, out))

    def exact_diagonal(self) -> list[Fraction]:
        """Orthonormal diagonal <H e_a, H e_a>, exactly rational, read off the diagonal cells."""
        if not self.is_exact:
            raise ValueError("matrix was assembled on the float path")
        rows, cols, values = self.cells
        diag = np.repeat(np.array([[0], [1], [0], [1]], dtype=object), self.size, axis=1)  # 0/1, 0/1
        diag[:, rows[rows == cols]] = values[:, rows == cols]
        re_num, re_den, im_num, _ = diag.tolist()
        if any(im_num):
            raise ValueError("matrix has a diagonal entry that is not real")
        return [Fraction(n * weight(alpha), d) for n, d, alpha in zip(re_num, re_den, self.trunc.indices)]

    def hermiticity_defect(self) -> float:
        """The largest |M - M^H| entry."""
        values, at, mirror = self.listing
        _, back = _mirrored(values[None], at, mirror, self.layout[2])
        return float(_defect(values[None], back)[0])

    def scale(self) -> float:
        """The largest |M| entry."""
        return float(_scale(self.listing[0][None])[0])


def _mirrored(values: np.ndarray, at, mirror, stored: int) -> tuple[np.ndarray, np.ndarray]:
    """(flat, back) for (samples, m) entries at the flat positions at: flat holds them in a zeroed
    (samples, stored) layout, back the entries at their mirror positions, +0.0 where none lands."""
    flat = np.zeros((values.shape[0], stored), dtype=complex)
    flat[:, at] = values
    return flat, flat[:, mirror]


def _defect(values: np.ndarray, back: np.ndarray) -> np.ndarray:
    """Per sample, the largest |b_ij - conj(b_ji)| over the (samples, m) entries and their mirrors."""
    return np.abs(values - back.conj()).max(axis=-1, initial=0.0)


def _scale(values: np.ndarray) -> np.ndarray:
    """Per sample, the largest |entry| of (samples, m) entries; every other entry is zero."""
    return np.abs(values).max(axis=-1, initial=0.0)


def _split(flat: np.ndarray, groups) -> tuple[np.ndarray, ...]:
    """The (k, s, s) stacks of the sector groups laid end to end in flat's last axis, as views."""
    parts = np.split(flat, np.cumsum([g.size * g.shape[1] for g in groups])[:-1], axis=-1)
    return tuple(p.reshape(p.shape[:-1] + g.shape + g.shape[1:]) for p, g in zip(parts, groups))


def _nonzero(values: np.ndarray, exact: bool) -> np.ndarray:
    """Which of _from_cells' values are not zero: -0.0 is zero, a cell with both numerators 0 too."""
    return (values[0] != 0) | (values[2] != 0) if exact else values != 0


def _from_cells(trunc: BasisTruncation, rows, cols, values, exact: bool, offsets: frozenset, **fields) -> CompressionMatrix:
    """The compression whose non-zero cells are (rows, cols, values), each cell listed once;
    _from_cells(trunc, *mat.cells, ...) rebuilds mat.

    values holds the cells' (4, n) table ints if exact, else their n orthonormal complex
    entries; every other entry is zero.  The sectors are those of offsets: a non-zero cell
    outside them raises ValueError, a zero one (-0.0, or a zero table entry) is dropped.
    The compression keeps the cells the dump writes, sorted row-major: an exact cell with
    a non-zero numerator, a float cell unless both its parts are +0.0.
    """
    groups, layout, label = _sectors(trunc, offsets)
    inside = label[rows] == label[cols]
    if not inside.all():
        if _nonzero(values[..., ~inside], exact).any():
            raise ValueError("matrix has non-zero entries outside its sector blocks")
        rows, cols, values = rows[inside], cols[inside], values[..., inside]
    if exact:
        keep = np.flatnonzero(_nonzero(values, True))
    else:  # -0.0 and NaN parts are written as such
        keep = np.flatnonzero((values != 0) | np.signbit(values.real) | np.signbit(values.imag))
    keep = keep[np.argsort(rows[keep] * trunc.size + cols[keep])]  # row-major: one key per cell
    cells = (rows[keep], cols[keep], values[..., keep])
    return CompressionMatrix(trunc=trunc, sectors=groups, layout=layout, cells=cells, **fields)


def _kernel_blocks(offsets, trunc: BasisTruncation, exact: bool):
    """(delta, rows, cols, values) per winding offset delta with a non-empty box, raveled:
    the graded-lex positions of alpha and alpha + delta, and the offset's _gram_tables as a
    (4, n) array if exact, else its _gram_block's orthonormal entries (c * w_a) * w_b.
    The box of -delta lists the mirror cells, (rows, cols) swapped, in the same order.
    """
    w = trunc.weights_sqrt
    for delta, pairs in offsets.items():
        # alpha and beta = alpha + delta both in [0, N] per coordinate
        box = _offset_block(trunc, delta)
        if box is None:
            continue
        lo, hi, rows, cols = box
        rows, cols = rows.ravel(), cols.ravel()
        if exact:
            yield delta, rows, cols, np.stack(_gram_tables(pairs, lo, hi)).reshape(4, -1)
        else:
            yield delta, rows, cols, np.asarray(_gram_block(pairs, lo, hi), dtype=complex).ravel() * w[rows] * w[cols]


def assemble(sym: PolySymbol, trunc: BasisTruncation) -> CompressionMatrix:
    """Assemble the Hermitian compression of H*_psi H_psi as the non-zero cells of its sector blocks.

    One kernel computes the matrix one winding-offset block at a time, in the
    arithmetic of the symbol, and _from_cells keeps the cells of all blocks
    in the sectors of the symbol's offsets.  Exact symbols go through
    reduced integer tables (_gram_tables), whose non-zero entries the result
    keeps as its cells: their Hermitian symmetry is checked on the kernel's
    cells, the orthonormal entries (listing), built on first read, take each
    entry's correctly rounded float value, and no CRat is built until a caller
    reads scaled.
    Float symbols run _gram_block and keep its orthonormal entries as their
    cells; callers that only need floats pass sym.as_float().  For a
    unit-coefficient monomial symbol the exact result is diagonal with the
    closed-form spectrum values on the diagonal.  Coefficients too large for
    floats leave inf/nan entries in the listing, which eigenvalues() rejects.
    """
    if sym.dim != trunc.dim:
        raise ValueError(f"symbol dim {sym.dim} != truncation dim {trunc.dim}")
    exact = sym.is_exact
    pairs = _pair_offsets(sym.terms, sym.terms)
    offsets = frozenset(pairs)
    _sectors(trunc, offsets)  # its stored-entry guard, before any kernel work
    with np.errstate(over="ignore", invalid="ignore"):
        cells = {delta: cell for delta, *cell in _kernel_blocks(pairs, trunc, exact)}
    if not cells:  # a symbol without terms: no cells, the zero matrix
        none = np.empty(0, dtype=np.intp)
        values = np.empty((4, 0), dtype=object) if exact else np.empty(0, dtype=complex)
        return _from_cells(trunc, none, none, values, exact, offsets, symbol=sym)
    rows, cols, values = (np.concatenate(x, axis=-1) for x in zip(*cells.values()))
    if exact:  # every cell (i, j) and its mirror (j, i) hold conjugate tables
        mirrors = [cells[tuple(-d for d in delta)][2] for delta in cells]
        re_num, re_den, im_num, im_den = np.concatenate(mirrors, axis=-1)
        if not all(map(np.array_equal, values, (re_num, re_den, -im_num, im_den))):
            raise AssertionError("exact assembly lost Hermitian symmetry")
    return _from_cells(trunc, rows, cols, values, exact, offsets, symbol=sym)


def _toeplitz_map(phi: PolySymbol, in_indices, out_index_of) -> list[list]:
    """Sparse rows of <phi z^a, z^gamma>/pi^n from the in-basis to the out-basis: a term c z^n zbar^m
    adds c 2^dim / prod(a_k+n_k+m_k+gamma_k+2), as <z^a zbar^b, z^c zbar^d> = pi 2/(a+b+c+d+2) if a-b = c-d."""
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
            val = Fraction(2**phi.dim, math.prod(a + nk + mk + gk + 2 for a, nk, mk, gk in zip(alpha, n, m, gamma)))
            acc[g] = acc.get(g, CR_ZERO) + c * val
        out.append(sorted(acc.items()))
    return out


def assemble_via_toeplitz(sym: PolySymbol, trunc: BasisTruncation) -> CompressionMatrix:
    """Independent assembly through T_{|psi|^2} - T_conj(psi) T_psi.

    The intermediate basis is capped at default_inner_caps, which holds every
    projection target, so for polynomial symbols the two assemblies agree
    entrywise and exactly on the scaled Gram representation.  Entries are CRat for exact
    symbols; float coefficients degrade them to complex.  Fills the full matrix
    and passes its non-zero cells to _from_cells.
    """
    if sym.dim != trunc.dim:
        raise ValueError(f"symbol dim {sym.dim} != truncation dim {trunc.dim}")
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
    # nonzero drops no -0.0 here: a zero part of the fill is a cancelled sum, +0.0, also once weighted
    rows, cols = np.nonzero(full)
    values = _table_ints((c.re, c.im) for c in full[rows, cols].tolist()) if sym.is_exact else full[rows, cols]
    return _from_cells(trunc, rows, cols, values, sym.is_exact, offsets, symbol=sym)


def matrices_equal(m1: CompressionMatrix, m2: CompressionMatrix) -> bool:
    """Entrywise equality.  Two exact matrices compare their row-major cells, whose table
    ints are reduced with den > 0, so equal integers are equal rationals whatever the
    sector layouts; otherwise the row-major listed cells whose entry is != 0, which is
    dense == dense: a +-0.0 cell equals an unlisted one, and NaN equals nothing."""
    if m1.trunc != m2.trunc:
        return False
    if m1.is_exact and m2.is_exact:
        return all(map(np.array_equal, m1.cells, m2.cells))
    cells = []
    for m in (m1, m2):
        rows, cols, _ = m.cells
        values = m.listing[0]
        keep = values != 0
        cells.append((rows[keep], cols[keep], values[keep]))
    return all(map(np.array_equal, *cells))


def _checked_eigenvalues(values, at, mirror, groups, stored: int, name_of, magnitude: float = 1.0) -> np.ndarray:
    """Ascending eigenvalues of samples given by their listed entries, shape (samples, size).

    values holds the (samples, m) entries at m distinct flat positions at of the
    layout of groups (stored entries, see _sectors); every other entry is zero.
    mirror holds the position of each entry's mirror (j, i), which reads as +0.0
    unless it is listed too, so a one-sided cell keeps its defect.  The samples
    are checked in order, as one eigenvalues() call each would check them: the
    first failing sample raises ValueError for its first failing guard.  A sample
    counts as non-finite when its symmetrised entries (b + b^H) / 2 are, which
    covers non-finite entries and an overflow in the symmetrisation.  The guards
    read only the listed entries and their mirrors; the symmetrised entries of the
    samples solved are scattered into one zeroed (samples, stored) array, which
    so holds (b + b^H) / 2 of the padded blocks bit for bit, and blocks of one
    size go to one batched eigvalsh call.
    name_of(i) names sample i in the non-finite message; it is called only then.
    magnitude bounds the sum of the |terms| added into one entry: the Hermiticity
    tolerance and the PSD floor are taken relative to max(1, magnitude) too, so
    terms that cancel to rounding noise (a vanishing slice) pass the guards.
    """
    unit = max(1.0, magnitude)
    flat, back = _mirrored(values, at, mirror, stored)
    with np.errstate(over="ignore", invalid="ignore"):
        hermitian = np.divide(values + back.conj(), 2.0)
        finite = np.isfinite(hermitian).all(axis=1)
        n_finite = finite.size if finite.all() else int(np.argmin(finite))
        defect = _defect(values[:n_finite], back[:n_finite])
        skewed = np.flatnonzero(defect > HERMITICITY_TOL * np.maximum(unit, _scale(values[:n_finite])))
        n_solved = skewed[0] if skewed.size else n_finite
        flat = flat[:n_solved]
        flat[:, at] = hermitian[:n_solved]
        # an unlisted mirror entry holds (0 + conj(b)) / 2: written at both ends of every pair
        flat[:, mirror] = np.divide(back[:n_solved] + values[:n_solved].conj(), 2.0)
    w = np.sort(np.concatenate([
        np.linalg.eigvalsh(h).reshape(n_solved, h.shape[1] * h.shape[2]) for h in _split(flat, groups)
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

    Reads only the listed cells (mat.listing): rejects non-finite entries,
    verifies Hermiticity (to 1e-13 relative) and the PSD floor (>= -1e-10)
    before returning.  The spectrum is the union of the sector blocks'
    spectra: blocks of one size go to LAPACK's Hermitian eigensolver as one
    batched call.
    """
    name = mat.symbol if mat.symbol is not None else f"dumped symbol {mat.dumped_hash}"
    values, at, mirror = mat.listing
    return _checked_eigenvalues(values[None], at, mirror, mat.sectors, mat.layout[2], lambda i: name)[0]


def _fourier_blocks(fourier, trunc: BasisTruncation):
    """(groups, layout, rows, cols, phases, magnitude): the blocks G_d of sum_w e^{i w theta} phi_w.

    A term pair of fourier's float symbols phi_w and phi_v has the phase e^{i d theta},
    d = w - v; groups and layout are the sectors of the union of the offsets (_sectors).
    A cell (i, j) lies only in the box of the offset j - i, whatever the phase, so columns
    are keyed by offset, one range each: column k is the cell (rows[k], cols[k]) in
    graded-lex positions.  phases holds (d, [(columns, entries)]) per offset block of G_d
    (_kernel_blocks); magnitude is the largest sum of |G_d| over one entry.
    """
    if any(phi.is_exact or phi.dim != trunc.dim for phi in fourier.values()):
        raise ValueError("top_eigenvalues needs float symbols of the basis dim")
    by_phase: dict[int, dict] = {}
    for (w, phi), (v, chi) in product(fourier.items(), repeat=2):
        for delta, pairs in _pair_offsets(phi.terms, chi.terms).items():
            by_phase.setdefault(w - v, {}).setdefault(delta, []).extend(pairs)
    offsets = dict.fromkeys(delta for part in by_phase.values() for delta in part)
    groups, layout, _ = _sectors(trunc, frozenset(offsets))
    boxes = {delta: np.stack(box[2:]).reshape(2, -1) for delta in offsets if (box := _offset_block(trunc, delta))}
    rows, cols = np.concatenate([np.empty((2, 0), dtype=np.intp), *boxes.values()], axis=1)
    ends = np.cumsum([0] + [box.shape[1] for box in boxes.values()]).tolist()
    columns = {delta: slice(a, b) for delta, a, b in zip(boxes, ends, ends[1:])}
    size, phases = np.zeros(rows.size), []
    for d, part in by_phase.items():
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = [(columns[delta], weighted) for delta, _, _, weighted in _kernel_blocks(part, trunc, False)]
        for j, weighted in blocks:
            size[j] += np.abs(weighted)
        phases.append((d, blocks))
    return groups, layout, rows, cols, phases, size.max(initial=0.0)


def top_eigenvalues(fourier, thetas, trunc: BasisTruncation, name_of) -> np.ndarray:
    """Top eigenvalue of the compression of sum_w e^{i w theta} phi_w, for every theta, in one batch.

    fourier maps a winding w to a float symbol phi_w of the basis dim; thetas are
    finite angles.  Each sample sums the e^{i d theta} G_d of _fourier_blocks into
    zeroed columns, phase after phase; blocks of one size go to one eigvalsh call over
    all samples, each with the guards of eigenvalues() relative to the magnitude of the
    G_d, name_of(i) naming sample i in the non-finite message.  Chunks hold at most
    MAX_STORED_ENTRIES stored entries.  Without a phase d != 0 (one winding, or none)
    every sample is the same matrix, bit for bit: thetas[:1] is solved and repeated.
    With a phase d != 0 a sample's last bit can depend on the batch: numpy may multiply a
    (k, 1) phase column by a one-entry block on different paths for k > 1 and k = 1, so a theta
    solved alone can differ in the last ulp from one in a batch; compare bits within one layout.
    """
    groups, (row_start, col_pos, stored), rows, cols, phases, magnitude = _fourier_blocks(fourier, trunc)
    at, mirror = row_start[rows] + col_pos[cols], row_start[cols] + col_pos[rows]
    step = MAX_STORED_ENTRIES // stored
    thetas = np.asarray(thetas, dtype=float)
    copies = 1
    if all(d == 0 for d, _ in phases):  # every sample is the same matrix: solve the first, repeat its top
        copies, thetas = thetas.size, thetas[:1]
    tops = []
    for start in range(0, thetas.size, step):
        chunk = thetas[start:start + step]
        values = np.zeros((chunk.size, at.size), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for d, blocks in phases:
                phase = np.exp(1j * d * chunk)[:, None]
                for j, weighted in blocks:
                    values[:, j] += phase * weighted
        w = _checked_eigenvalues(values, at, mirror, groups, stored, lambda i: name_of(start + i), magnitude)
        tops.append(w[:, -1])
    return np.concatenate(tops).repeat(copies) if tops else np.empty(0)


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


def weyl_residual(mat: CompressionMatrix, lam: float, g_coeffs, p: complex) -> float:
    """||(M - lam I) f|| for the compression M = mat and the test vector f = g (x) k_p.

    This is the compression's residual: rows of H*_psi H_psi f outside the box
    mat.trunc are not counted.  g lives on the (dim-1)-dimensional slice basis
    at the same degree cap and must be normalized; k_p occupies the last
    coordinate.  Refused: a truncation holding less than MIN_KERNEL_NORM of the
    kernel mass (the residual would reflect lost mass, not spectral distance)
    and non-finite lam, p or g.  M f is applied from the listed cells: each cell
    (i, j) adds its orthonormal entry times f_j to row i, in O(listed cells), with
    no padded block, no dense matrix and no BLAS product.
    """
    trunc = mat.trunc
    if trunc.dim < 2:
        raise ValueError("weyl_residual needs dim >= 2 (kernel occupies the last coordinate)")
    if not cmath.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    kv = KernelVector(complex(p), trunc.degree_cap)
    if kv.truncated_norm < MIN_KERNEL_NORM:
        raise ValueError(f"truncated kernel norm {kv.truncated_norm:.4f} < {MIN_KERNEL_NORM}; increase N")
    slice_trunc = BasisTruncation(trunc.degree_cap, trunc.dim - 1)
    g = np.asarray(g_coeffs, dtype=complex)
    if g.shape != (slice_trunc.size,):
        raise ValueError(f"g must have {slice_trunc.size} coefficients, got {g.shape}")
    if not np.isfinite(g).all():
        raise ValueError("g must have finite coefficients")
    if abs(np.linalg.norm(g) - 1.0) > 1e-8:
        raise ValueError("g must be normalized")

    f = np.empty(trunc.size, dtype=complex)
    f[trunc.positions] = np.multiply.outer(g[slice_trunc.positions], kv.coefficients)
    rows, cols, _ = mat.cells
    mf = np.zeros_like(f)
    np.add.at(mf, rows, mat.listing[0] * f[cols])
    return float(np.linalg.norm(mf - lam * f))


# -- dump format --------------------------------------------------------------
# header: "hankel-spectra-matrix v1 dim=<d> N=<n> symbol=<hash> exact=<0|1>"
# then one graded-lex row per line, size cells each, then only blank lines; a cell
# is "re,im" with float repr (float mode) or "num/den,num/den" (rational mode,
# scaled Gram entries, integers too: readers split on "/"); size^2 <= MAX_STORED_ENTRIES.
# The writer formats only the listed cells, whose text is not the zero cell, straight
# from the cells, and fills the other columns with runs of the zero cell; it
# passes about _DUMP_CHUNK characters of whole rows to each write().

_DUMP_CHUNK = 2**20


def _check_dump_size(size: int, where: str = "") -> None:
    if size * size > MAX_STORED_ENTRIES:
        raise ValueError(
            f"{where}a dense matrix dump of basis size {size} holds {size * size} entries, "
            f"above the guard {MAX_STORED_ENTRIES}"
        )


def _cell_texts(values: np.ndarray, exact: bool) -> list[str]:
    """The dump cells of listed values: "num/den" of the table ints, integers too, or float reprs."""
    if exact:
        return [f"{a}/{b},{c}/{d}" for a, b, c, d in zip(*values.tolist())]
    return [f"{z.real!r},{z.imag!r}" for z in values.tolist()]


def dump_matrix(mat: CompressionMatrix, fileobj) -> None:
    """Write mat in dump format v1, read off its row-major cells: beyond the matrix it
    holds one chunk of text, and it builds no float view (listing or dense)."""
    _check_dump_size(mat.size)
    exact = mat.is_exact
    size = mat.size
    fileobj.write(
        f"hankel-spectra-matrix v1 dim={mat.trunc.dim} N={mat.trunc.degree_cap} "
        f"symbol={mat.symbol_hash} exact={int(exact)}\n"
    )
    zero = "0/1,0/1" if exact else "0.0,0.0"
    run = zero + " "
    rows, cols, values = mat.cells
    counts = np.bincount(rows, minlength=size).tolist()
    # every cell has at least 7 characters, so every chunk but the last holds _DUMP_CHUNK or more
    step = -(-_DUMP_CHUNK // (len(run) * size))
    edges = np.searchsorted(rows, range(0, size + step, step)).tolist()
    for top, lo, hi in zip(range(0, size, step), edges, edges[1:]):
        cells = zip(cols[lo:hi].tolist(), _cell_texts(values[..., lo:hi], exact))
        chunk = []
        for n in counts[top:top + step]:
            last = 0
            for j, text in islice(cells, n):
                chunk += (run * (j - last), text, " ")
                last = j + 1
            if last < size:
                chunk += (run * (size - 1 - last), zero, "\n")
            else:
                chunk[-1] = "\n"
        fileobj.write("".join(chunk))


# the one header dump_matrix writes, matched against its whitespace-split words; nine
# digits keep dim and N off int()'s digit limit, whose message names no dump
_HEADER_RE = re.compile(
    r"hankel-spectra-matrix v1 dim=([0-9]{1,9}) N=([0-9]{1,9}) symbol=(\S+) exact=([01])"
)


def _read_header(line: str) -> tuple[BasisTruncation, str, bool]:
    """(truncation, symbol hash, exact) from a v1 header; checked before anything is allocated."""
    m = _HEADER_RE.fullmatch(" ".join(line.split()))
    if m is None:
        raise ValueError("matrix dump header: not 'hankel-spectra-matrix v1 dim=<d> N=<n> symbol=<hash> exact=<0|1>'")
    dim, n_cap = int(m[1]), int(m[2])
    if not 1 <= dim <= MAX_COORDINATE:
        raise ValueError(f"matrix dump header: dim must be in 1..{MAX_COORDINATE}")
    _check_dump_size((n_cap + 1) ** dim, "matrix dump header: ")  # implies size <= MAX_BASIS_SIZE
    return BasisTruncation(n_cap, dim), m[3], m[4] == "1"


# a float part in one of the forms repr() writes, so float() never sees its wider grammar
_FLOAT_RE = re.compile(r"-?(?:[0-9]+\.[0-9]+(?:e[+-][0-9]+)?|[0-9]+e[+-][0-9]+|inf)|nan")


def _read_cell(cell: str, exact: bool, i: int, j: int):
    """One "re,im" entry: the two read_rational parts (exact dump) or a complex of two float reprs."""
    try:
        re_s, im_s = cell.split(",")
        if exact:
            return read_rational(re_s), read_rational(im_s)
        if _FLOAT_RE.fullmatch(re_s) and _FLOAT_RE.fullmatch(im_s):
            return complex(float(re_s), float(im_s))
    except ValueError:
        pass
    raise ValueError(f"matrix dump row {i}, column {j}: bad entry {cell!r}")


def _table_ints(parts) -> np.ndarray:
    """The (4, n) table ints re_num, re_den, im_num, im_den of n (re, im) Fraction pairs, an iterable."""
    ints = [(re.numerator, re.denominator, im.numerator, im.denominator) for re, im in parts]
    return np.array(ints, dtype=object).reshape(-1, 4).T


def load_matrix(fileobj) -> CompressionMatrix:
    """Read a v1 dump: only the cells whose text is not the zero cell are parsed and kept, as
    arrays row by row, and the offsets beta - alpha of the non-zero ones give the sectors."""
    trunc, symbol_hash, exact = _read_header(fileobj.readline())
    size = trunc.size
    zero = "0/1,0/1" if exact else "0.0,0.0"
    indices = np.array(trunc.indices, dtype=np.intp)
    cols, values, offsets = [], [], set()
    for i in range(size):
        cells = fileobj.readline().split()
        if len(cells) != size:
            raise ValueError(f"row {i}: expected {size} entries, got {len(cells)}")
        found = np.array([j for j, cell in enumerate(cells) if cell != zero], dtype=np.intp)
        row = [_read_cell(cells[j], exact, i, j) for j in found.tolist()]
        cols.append(found)
        values.append(_table_ints(row) if exact else np.array(row, dtype=complex))
        offsets.update(map(tuple, (indices[found[_nonzero(values[-1], exact)]] - indices[i]).tolist()))
    if any(line.strip() for line in fileobj):  # a second dump or a stray line is not this matrix
        raise ValueError(f"matrix dump: unexpected content after row {size - 1}")
    rows = np.repeat(np.arange(size), [c.size for c in cols])
    cols, values = np.concatenate(cols), np.concatenate(values, axis=-1)
    return _from_cells(trunc, rows, cols, values, exact, frozenset(offsets), symbol=None, dumped_hash=symbol_hash)
