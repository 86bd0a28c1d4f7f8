"""Spectra of Hermitian squares of Hankel operators on the Bergman space of the polydisc.

Three engines, cross-validated against each other:

- core: exact rational spectra, multiplicities, and essential spectra for
  monomial symbols z^n zbar^m,
- quasihomog: eigenvalues for quasi-homogeneous symbols f(|z|) e^{ik.theta}
  through radial integrals (exact for rational polynomial profiles),
- galerkin: Hermitian compressions for general polynomial symbols, stored as
  the non-zero cells of their sector blocks, with the Toeplitz-identity
  cross-check and Weyl residual probes,

plus boundary: slice Hankel norms and essential-spectrum interval predictions.

Every name of __all__ is imported from its module on first access (PEP 562),
so `import hankel_spectra` imports no engine, and a process that imports one
module, such as the CLI for one subcommand, loads only that module's imports.
"""

import importlib

# The names of __all__ by their home module, imported by __getattr__ on first access
_EXPORTS = {
    "core": (
        "EigenRecord", "MonomialSymbol", "MultiplicityClass", "Provenance", "SpectrumSet", "SymbolClass",
        "enumerate_essential_spectrum", "enumerate_spectrum", "essential_part", "lambda_value",
        "multiplicity_class",
    ),
    "galerkin": (
        "BasisTruncation", "CompressionMatrix", "KernelVector", "assemble", "assemble_via_toeplitz",
        "eigenvalues", "matrices_equal", "weyl_residual",
    ),
    "boundary": (
        "EssentialSetPrediction", "SliceNormProfile", "circle_abs_sq_range", "containment_report",
        "product_essential_prediction", "slice_norm_profile", "slice_symbol",
    ),
    "quasihomog": (
        "QhBranch", "QhEigenvalue", "QuasiHomogeneousSymbol", "RadialProfile", "monomial_norm_sq",
        "qh_eigenvalue", "qh_eigenvalue_box", "radial_integral",
    ),
    "rational": ("CRat",),
    "symbols": ("PolySymbol", "SymbolParseError", "parse_symbol"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + _HOMES[name], __name__), name)
    globals()[name] = value  # later reads skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
