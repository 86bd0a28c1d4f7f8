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
a matrix trigonometric polynomial in theta.  The reference Gram block multiplies
Fraction factors entry by entry, the way the package's exact kernel did
before it summed reduced integer tables.  The torus sup norm is a grid proxy
used by the Lipschitz check of the profile.  The reference writers of the
``exact`` document build a SpectrumSet as dicts, JSON-ready or as CSV rows,
the way the package did before it rendered both formats from per-record texts.
The quasi-homogeneous point formula takes the two whole-profile radial
integrals of one alpha and divides by the monomial norms, the way the
package's qh_eigenvalue did before it read a box of alpha off per-coordinate
tables.  The dense Weyl residual multiplies the graded-lex matrix by a test
vector filled entry by entry, the way the package's weyl_residual did before
it applied the sector blocks.
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

from hankel_spectra.boundary import slice_symbol

from hankel_spectra.core import (
    EigenRecord,
    MonomialSymbol,
    MultiplicityClass,
    Provenance,
    SpectrumSet,
    SymbolClass,
    multiplicity_class,
)
from hankel_spectra.galerkin import BasisTruncation, KernelVector, assemble, eigenvalues
from hankel_spectra.multiindex import full_set, nonempty_subsets
from hankel_spectra.quasihomog import QhBranch, monomial_norm_sq, radial_integral
from hankel_spectra.rational import frac_str

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
                "value": frac_str(r.value),
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
