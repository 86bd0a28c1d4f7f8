"""Command-line surface: exact / approx / boundary / verify.

Outputs are deterministic: JSON is emitted with sorted keys and Python's
shortest-round-trip float repr; exact rationals are printed as "num/den" and
never converted to float in exact mode.  Exit codes: 0 success, 1 verification
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

from .boundary import (
    containment_report,
    product_essential_prediction,
    slice_norm_profile,
    EssentialSetPrediction,
    PredictedInterval,
    PredictedPoint,
)
from .core import enumerate_essential_spectrum, enumerate_spectrum, multiplicity_class
from .galerkin import BasisTruncation, Exactness, assemble, dump_matrix, eigenvalues
from .rational import CRat
from .symbols import PolySymbol, SymbolParseError, parse_symbol
from .verify import run_verify

__all__ = ["main", "RunConfig"]


@dataclass
class RunConfig:
    """Validated knobs shared by the subcommands."""

    alpha_cap: int = 6
    degree_cap: int = 8
    inner_cap: int | None = None
    nodes: int = 64
    samples: int = 256
    tol: float = 1e-9
    coord: int | None = None
    fmt: str = "json"
    out: str | None = None
    dim: int | None = None

    def __post_init__(self):
        if self.alpha_cap < 0 or self.degree_cap < 0:
            raise ValueError("caps must be non-negative")
        if not 0 < self.tol < 1:
            raise ValueError("tol must lie in (0, 1)")
        if self.samples < 4:
            raise ValueError("samples must be >= 4")
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")


def _config_from(args) -> RunConfig:
    return RunConfig(
        alpha_cap=args.cap,
        degree_cap=getattr(args, "degree", 8),
        inner_cap=getattr(args, "inner_cap", None),
        nodes=args.nodes,
        samples=args.samples,
        tol=args.tol,
        coord=getattr(args, "coord", None),
        fmt=args.format,
        out=args.out,
        dim=args.dim,
    )


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _json_dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _spectrum_csv(spec_obj: dict) -> str:
    rows = []
    for rec in spec_obj["records"]:
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
                rec.get("in_essential", ""),
                prov,
            ]
        )
    return _csv_text(
        ["value", "value_float", "is_eigenvalue", "is_limit_point", "multiplicity", "in_essential", "provenance"],
        rows,
    )


def _parse_or_fail(expr: str, dim: int | None) -> PolySymbol:
    try:
        return parse_symbol(expr, dim=dim)
    except SymbolParseError as exc:
        raise _UsageError(str(exc)) from exc


class _UsageError(Exception):
    pass


def cmd_exact(args) -> int:
    cfg = _config_from(args)
    sym = _parse_or_fail(args.symbol, cfg.dim)
    if not sym.is_plain_monomial:
        raise _UsageError(
            f"{args.symbol!r} is not a single unit-coefficient monomial; "
            "use the 'approx' command for general polynomial symbols"
        )
    mono = sym.to_monomial_symbol()
    spectrum = enumerate_spectrum(mono, cfg.alpha_cap)
    essential = enumerate_essential_spectrum(mono, cfg.alpha_cap)
    ess_values = essential.value_set()

    spec_obj = spectrum.to_json_obj()
    for rec, record in zip(spec_obj["records"], spectrum.records):
        rec["in_essential"] = record.value in ess_values
    obj = {
        "command": "exact",
        "symbol": sym.to_expression(),
        "dim": mono.dim,
        "n": list(mono.holo),
        "m": list(mono.antiholo),
        "alpha_cap": cfg.alpha_cap,
        "multiplicity_class": multiplicity_class(mono).value,
        "spectrum": spec_obj,
        "essential": essential.to_json_obj(),
    }
    if cfg.fmt == "csv":
        _emit(_spectrum_csv(spec_obj), cfg.out)
    else:
        _emit(_json_dump(obj), cfg.out)
    return 0


def cmd_approx(args) -> int:
    cfg = _config_from(args)
    sym = _parse_or_fail(args.symbol, cfg.dim)
    trunc = BasisTruncation(cfg.degree_cap, sym.dim)
    mat = assemble(sym.as_float(), trunc, cfg.inner_cap)
    w = eigenvalues(mat)
    exactness = Exactness.RATIONAL if sym.is_exact else Exactness.FLOAT
    if args.dump_matrix:
        if sym.is_exact:
            # dump format v1 stores the exact scaled Gram matrix for exact symbols
            mat = assemble(sym, trunc, cfg.inner_cap)
        with open(args.dump_matrix, "w") as fh:
            dump_matrix(mat, fh)
    obj = {
        "command": "approx",
        "symbol": str(sym),
        "dim": sym.dim,
        "degree_cap": cfg.degree_cap,
        "inner_caps": list(mat.inner_caps),
        "basis_size": mat.size,
        "exactness": exactness.value,
        "note": f"compression spectrum at N={cfg.degree_cap}; approximates the operator spectrum",
        "eigenvalues": [float(x) for x in w],
    }
    if cfg.fmt == "csv":
        rows = [[i, repr(float(x))] for i, x in enumerate(w)]
        _emit(_csv_text(["index", "eigenvalue"], rows), cfg.out)
    else:
        _emit(_json_dump(obj), cfg.out)
    return 0


def _factor_across(sym: PolySymbol, coord: int):
    """Split psi = phi(z without coord) * chi(z_coord) when possible, else None."""
    k = coord - 1
    groups: dict[tuple[int, int], list] = {}
    for c, h, a in sym.terms:
        groups.setdefault((h[k], a[k]), []).append((c, h[:k] + h[k + 1:], a[:k] + a[k + 1:]))
    if not groups:
        return None
    rest_dim = sym.dim - 1
    base_key = min(groups)
    base = PolySymbol(groups[base_key], dim=rest_dim)
    chi_terms = []
    for (nc, mc), terms in groups.items():
        part = PolySymbol(terms, dim=rest_dim)
        ratio = _proportionality(part, base)
        if ratio is None:
            return None
        chi_terms.append((ratio, (nc,), (mc,)))
    return base, PolySymbol(chi_terms, dim=1)


def _proportionality(part: PolySymbol, base: PolySymbol):
    """Scalar s with part == s * base, or None."""
    if len(part.terms) != len(base.terms):
        return None
    c0, h0, a0 = base.terms[0]
    match = [t for t in part.terms if t[1] == h0 and t[2] == a0]
    if not match:
        return None
    s = match[0][0] / c0
    if isinstance(s, CRat):
        return s if part == base * s else None
    scaled = base * s
    for (cp, hp, ap), (cs, hs, as_) in zip(part.terms, scaled.terms):
        if hp != hs or ap != as_ or abs(complex(cp) - complex(cs)) > 1e-12:
            return None
    return s


def cmd_boundary(args) -> int:
    cfg = _config_from(args)
    sym = _parse_or_fail(args.symbol, cfg.dim)
    if sym.dim < 2:
        raise _UsageError("boundary analysis needs dim >= 2")
    coord = cfg.coord if cfg.coord is not None else sym.dim
    if not 1 <= coord <= sym.dim:
        raise _UsageError(f"--coord must lie in 1..{sym.dim}")
    trunc = BasisTruncation(cfg.degree_cap, sym.dim)
    mat = assemble(sym.as_float(), trunc, cfg.inner_cap)
    w = [float(x) for x in eigenvalues(mat)]
    profile = slice_norm_profile(sym, coord, cfg.samples, trunc)

    factored = _factor_across(sym, coord)
    if factored is not None:
        phi, chi = factored
        prediction = product_essential_prediction(
            phi, chi, cfg.samples, alpha_cap=cfg.alpha_cap,
            trunc=BasisTruncation(cfg.degree_cap, phi.dim),
        )
        prediction_source = "product-factorization"
    else:
        # ThmGenSym route: the connected image {lambda_q} is itself a prediction.
        lo, hi = profile.vmin, profile.vmax
        if profile.constant:
            prediction = EssentialSetPrediction(
                (PredictedPoint((lo + hi) / 2.0, (lo + hi) / 2.0, "slice-profile"),), ()
            )
        else:
            prediction = EssentialSetPrediction(
                (), (PredictedInterval(lo, hi, 1.0, "slice-profile"),)
            )
        prediction_source = "slice-profile"

    report = containment_report(prediction, w, cfg.tol)
    obj = {
        "command": "boundary",
        "symbol": str(sym),
        "dim": sym.dim,
        "coord": coord,
        "profile": profile.to_json_obj(),
        "constant": profile.constant,
        "prediction": prediction.to_json_obj(),
        "prediction_source": prediction_source,
        "compression": {"degree_cap": cfg.degree_cap, "eigenvalues": w},
        "containment": report,
    }
    if cfg.fmt == "csv":
        rows = [[repr(t), repr(v)] for t, v in zip(profile.thetas, profile.values)]
        _emit(_csv_text(["theta", "lambda_q"], rows), cfg.out)
    else:
        _emit(_json_dump(obj), cfg.out)
    return 0


def cmd_verify(args) -> int:
    report = run_verify(args.suite)
    _emit(_json_dump(report), args.out)
    return 0 if report["passed"] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hankel-spectra",
        description="Spectra of Hermitian squares of Hankel operators on the polydisc Bergman space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, degree=True):
        p.add_argument("--cap", type=int, default=6, help="alpha enumeration cap")
        if degree:
            p.add_argument("--degree", type=int, default=8, help="Galerkin degree cap N")
            p.add_argument("--inner-cap", type=int, default=None, dest="inner_cap")
        p.add_argument("--dim", type=int, default=None, help="force ambient dimension")
        p.add_argument("--samples", type=int, default=256, help="boundary circle samples")
        p.add_argument(
            "--nodes", type=int, default=64,
            help="Gauss-Legendre nodes (radial-quadrature paths in the library)",
        )
        p.add_argument("--tol", type=float, default=1e-9, help="matching tolerance")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_exact = sub.add_parser("exact", help="exact spectrum for a monomial symbol")
    p_exact.add_argument("symbol")
    common(p_exact, degree=False)
    p_exact.set_defaults(func=cmd_exact)

    p_approx = sub.add_parser("approx", help="Galerkin compression spectrum")
    p_approx.add_argument("symbol")
    common(p_approx)
    p_approx.add_argument("--dump-matrix", default=None, help="write the matrix dump here")
    p_approx.set_defaults(func=cmd_approx)

    p_boundary = sub.add_parser("boundary", help="slice norms and essential-set prediction")
    p_boundary.add_argument("symbol")
    common(p_boundary)
    p_boundary.add_argument("--coord", type=int, default=None, help="coordinate to slice (1-based)")
    p_boundary.set_defaults(func=cmd_boundary)

    p_verify = sub.add_parser("verify", help="run cross-engine verification suites")
    p_verify.add_argument("--suite", default=None, help="run a single named suite")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
