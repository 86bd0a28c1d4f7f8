"""Spectra of Hermitian squares of Hankel operators on the Bergman space of the polydisc.

Three engines, cross-validated against each other:

- core: exact rational spectra, multiplicities, and essential spectra for
  monomial symbols z^n zbar^m,
- quasihomog: eigenvalues for quasi-homogeneous symbols f(|z|) e^{ik.theta}
  through radial integrals (exact for rational polynomial profiles),
- galerkin: Hermitian compressions for general polynomial symbols, stored as
  sector blocks, with the Toeplitz-identity cross-check and Weyl residual probes,

plus boundary: slice Hankel norms and essential-spectrum interval predictions.
"""

from .core import (
    EigenRecord,
    MonomialSymbol,
    MultiplicityClass,
    Provenance,
    SpectrumSet,
    SymbolClass,
    enumerate_essential_spectrum,
    enumerate_spectrum,
    essential_part,
    lambda_value,
    multiplicity_class,
)
from .galerkin import (
    BasisTruncation,
    CompressionMatrix,
    KernelVector,
    assemble,
    assemble_via_toeplitz,
    eigenvalues,
    matrices_equal,
    weyl_residual,
)
from .boundary import (
    EssentialSetPrediction,
    SliceNormProfile,
    circle_abs_sq_range,
    containment_report,
    product_essential_prediction,
    slice_norm_profile,
    slice_symbol,
)
from .quasihomog import (
    QhBranch,
    QhEigenvalue,
    QuasiHomogeneousSymbol,
    RadialProfile,
    monomial_norm_sq,
    qh_eigenvalue,
    qh_eigenvalue_box,
    radial_integral,
)
from .rational import CRat
from .symbols import PolySymbol, SymbolParseError, parse_symbol

__version__ = "0.1.0"

__all__ = [
    "BasisTruncation",
    "CRat",
    "CompressionMatrix",
    "EigenRecord",
    "EssentialSetPrediction",
    "KernelVector",
    "MonomialSymbol",
    "MultiplicityClass",
    "PolySymbol",
    "Provenance",
    "QhBranch",
    "QhEigenvalue",
    "QuasiHomogeneousSymbol",
    "RadialProfile",
    "SliceNormProfile",
    "SpectrumSet",
    "SymbolClass",
    "SymbolParseError",
    "assemble",
    "assemble_via_toeplitz",
    "circle_abs_sq_range",
    "containment_report",
    "enumerate_essential_spectrum",
    "enumerate_spectrum",
    "eigenvalues",
    "essential_part",
    "lambda_value",
    "matrices_equal",
    "monomial_norm_sq",
    "multiplicity_class",
    "parse_symbol",
    "product_essential_prediction",
    "qh_eigenvalue",
    "qh_eigenvalue_box",
    "radial_integral",
    "slice_norm_profile",
    "slice_symbol",
    "weyl_residual",
]
