"""Every exported name resolves, and every name the package exports has a job."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import hankel_spectra

MODULES = ["hankel_spectra"] + [
    f"hankel_spectra.{info.name}" for info in pkgutil.iter_modules(hankel_spectra.__path__)
]

ROOT = Path(__file__).resolve().parents[1]

# Package names that no other module uses and README.md does not name, each with its reason to stay.
ALLOWED = {
    "EigenRecord": "the record type of SpectrumSet.records",
    "MultiplicityClass": "the type of EigenRecord.multiplicity",
    "Provenance": "the type of EigenRecord.provenance entries",
    "KernelVector": "the test vector of weyl_residual, exported so callers can read its truncated mass",
    "QhBranch": "names the paper's two cases of a quasi-homogeneous eigenvalue",
    "QhEigenvalue": "the return type of qh_eigenvalue",
    "SliceNormProfile": "the return type of slice_norm_profile",
    "slice_symbol": "the checked substitution of a unimodular point that slice_norm_profile samples",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_every_package_name_has_a_job():
    sources = {p.stem: p.read_text() for p in (ROOT / "src" / "hankel_spectra").glob("*.py")}
    readme = (ROOT / "README.md").read_text()

    def has_job(name: str) -> bool:
        home = getattr(hankel_spectra, name).__module__.rsplit(".", 1)[-1]
        word = re.compile(rf"\b{re.escape(name)}\b")
        used = any(word.search(text) for stem, text in sources.items() if stem not in (home, "__init__"))
        return used or bool(word.search(readme)) or name in ALLOWED

    assert [name for name in hankel_spectra.__all__ if not has_job(name)] == []
    assert set(ALLOWED) <= set(hankel_spectra.__all__)
