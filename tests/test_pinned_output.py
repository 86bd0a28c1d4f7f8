"""Byte-for-byte pins of CLI output on a small fixed corpus.

Each case runs one command in-process and compares the sha256 of its stdout
(and, for the dump case, of the dump file) with a recorded digest.  A refactor
of the assembly or the solve must leave every digest unchanged; a deliberate
change of output must update the digest and say why.  The float digests were
recorded with numpy 2.4 and its bundled OpenBLAS; another LAPACK may round the
last digit of an eigenvalue differently.  The boundary digests were recorded
again when the slice profile became one matrix trigonometric polynomial in
theta: its values moved by at most 2.5e-15 relative.

The pinned digests do not depend on the OpenBLAS thread count (CI runs them
again on one thread).  Other outputs can: a batched eigensolve may round the
last digits of an eigenvalue differently with more threads, which
test_thread_count_moves_eigenvalues_only_by_rounding bounds.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hankel_spectra import BasisTruncation, assemble, parse_symbol
from hankel_spectra.cli import main

FLOAT_SYMBOL = json.dumps({
    "dim": 2,
    "terms": [
        {"coeff": [0.75, -0.5], "holo": [0, 0], "antiholo": [1, 1]},
        {"coeff": [0.25, 0.0], "holo": [1, 0], "antiholo": [0, 1]},
    ],
})

CASES = {
    "approx-product": (
        ["approx", "zb1*(zb2+1)", "--degree", "12"],
        "921d597e3c7cdf43337a4430c4a79eadfa8b62e53f31e8b0166d5acd0eb9f25d",
    ),
    "approx-mixed": (
        ["approx", "(1/2+i)*zb1*(zb2+1) - 3/4*z1*zb2", "--degree", "6"],
        "8e2554eced5b630ed928aa01e4f584332343f20b5a0a6a17b79cfea44ef503c5",
    ),
    "approx-float-json": (
        ["approx", FLOAT_SYMBOL, "--degree", "7"],
        "c334a34cf70ae482a889b870d8d592a6e5fd352591d5282a41f284fd9859fcf6",
    ),
    "boundary-product": (
        ["boundary", "zb1*(zb2+1)", "--coord", "2", "--degree", "6", "--samples", "16"],
        "6b0a7f9cb184bbd501f73dc689c516f2adbeee6bbc2e54b24d84d9061e8632e0",
    ),
    "boundary-generic": (
        ["boundary", "(zb1+z1)*(zb2+1)", "--coord", "2", "--degree", "4", "--samples", "8"],
        "1247f1d2e7283aa784b14fe950327840802020882f506c4ac85d07f4f44e658f",
    ),
    "boundary-cancelling-sample": (
        ["boundary", "zb1*(zb2-1) + z1*zb1*zb2", "--coord", "2", "--degree", "8", "--samples", "64"],
        "7a9be6685889adccdbf449534cc2a0e289453ac16ebad07a48c2da20cbcedc20",
    ),
    "boundary-dim3-product": (
        ["boundary", "zb1*(zb2+1)*(zb3+z3^2)", "--degree", "4", "--samples", "64"],
        "f6c3c3cfe1083794b472b8d30d738d3e64da873fd8edfb721e4d5309dddd161c",
    ),
    # one winding in the sliced coordinate: every circle sample is the same slice
    "boundary-one-winding": (
        ["boundary", "zb1^2*zb2 + z1*zb1*zb2 + z2*zb1*zb2^2", "--coord", "2", "--degree", "6", "--samples", "64"],
        "8aa3e94b5ee7400f6460fb8965a6879291f39714bf6053f8a72c468e0a6a5329",
    ),
    "boundary-one-winding-product": (
        ["boundary", "zb1^2*zb2 + 3*zb1*zb2", "--coord", "2", "--degree", "6", "--samples", "64"],
        "37ff4312405b0c6faee4cdd2cb6f8cbf4b22c2d4507accde2a4648b2e265983b",
    ),
    "boundary-csv": (
        ["boundary", "(zb1+z1)*(zb2+1)", "--coord", "2", "--degree", "5", "--samples", "32", "--format", "csv"],
        "db0e2df0549f3b8f5c107b9135362153d51973438478b47694c987d547285374",
    ),
    "exact-monomial": (
        ["exact", "zb1^2*zb2", "--cap", "6"],
        "b8b8afd0b873cf471ebcc13263074751f2a6e9d4e4abdf027d39e6eea61cab45",
    ),
    "exact-monomial-csv": (
        ["exact", "zb1^2*zb2", "--cap", "6", "--format", "csv"],
        "f6d27e08914f04d2599a8bb9654a72c8cd8517186ac6061f5d8a228aaf30d7e3",
    ),
    "exact-all-infinite": (
        ["exact", "zb2^3", "--dim", "2", "--cap", "12"],
        "26d46581656badf925aa579741d4c854fa0bc0e3947436074900be502af72255",
    ),
    "exact-zero-operator": (
        ["exact", "z1", "--dim", "2", "--cap", "5"],
        "41578cdb3244558619aed6f256c03fd6b83fe5a25d917de6f467f85c697b0d8d",
    ),
    "exact-dim3-finite": (
        ["exact", "z1*zb1^2*zb2*z3*zb3^3", "--cap", "6"],
        "5ff5071712f3fda1d90841cf67f10b203170cbbd14e468b49e371623f56de214",
    ),
}

DUMP_ARGS = ["approx", "zb1*(zb2+1) - 1/3*z1*zb2", "--degree", "3"]
DUMP_STDOUT = "ea2aebb1432a05176305b1c31fe292bf3905b5bacd19edd774571dcaca42b232"
DUMP_FILE = "ee6569fe0dd15700b10a71918bd4cb89aa4ca70f2acd08e9a105a75730ac8cad"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_digest(capsys, name):
    argv, expected = CASES[name]
    assert main(list(argv)) == 0
    assert _digest(capsys.readouterr().out) == expected


def test_exact_dump_digest(capsys, tmp_path):
    path = tmp_path / "mat.txt"
    assert main(DUMP_ARGS + ["--dump-matrix", str(path)]) == 0
    assert _digest(capsys.readouterr().out) == DUMP_STDOUT
    assert _digest(path.read_text()) == DUMP_FILE


def test_thread_count_moves_eigenvalues_only_by_rounding():
    # this request prints different bytes with one OpenBLAS thread than with two (its largest
    # eigenvalue, about 3.6, moved by 4.9e-15 on a 2-core host): its eigenvalues must still agree
    # within s * eps * max|lambda|, s the size of the largest sector block
    import hankel_spectra

    symbol = "(2-1/2i)*z2*zb1^2*zb2 + (1+i)*zb1 + (-1/2-i)*z2*zb2^2"
    argv = ["boundary", symbol, "--dim", "2", "--coord", "1", "--degree", "14", "--samples", "128"]
    env = dict(os.environ, PYTHONPATH=str(Path(hankel_spectra.__file__).parents[1]))
    eigs = []
    for threads in ("1", "2"):
        run = subprocess.run(
            [sys.executable, "-m", "hankel_spectra.cli", *argv],
            capture_output=True, env=dict(env, OPENBLAS_NUM_THREADS=threads), timeout=120,
        )
        assert (run.returncode, run.stderr) == (0, b"")
        eigs.append(np.array(json.loads(run.stdout)["compression"]["eigenvalues"]))
    s = max(g.shape[1] for g in assemble(parse_symbol(symbol).as_float(), BasisTruncation(14, 2)).sectors)
    assert eigs[0].shape == eigs[1].shape == (225,)
    assert np.abs(eigs[0] - eigs[1]).max() <= s * np.finfo(float).eps * np.abs(eigs[0]).max()
