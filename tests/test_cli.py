"""CLI surface: commands, formats, exit codes, determinism."""

import argparse
import hashlib
import inspect
import json
import re
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankel_spectra import cli, core, quasihomog
from hankel_spectra.cli import _build_parser, _exact_document, main
from hankel_spectra.symbols import parse_symbol
from oracles import reference_exact_csv, spectrum_json_obj, spectrum_obj_with_in_essential


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_exact_zbar_dim2(capsys):
    code, out = run_cli(capsys, "exact", "zb1", "--dim", "2", "--cap", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["multiplicity_class"] == "all-infinite"
    values = {r["value"] for r in obj["spectrum"]["records"]}
    assert {"0/1", "1/2", "1/6", "1/12", "1/20"} == values
    assert all(
        r["multiplicity"] == "infinite"
        for r in obj["spectrum"]["records"]
        if r["is_eigenvalue"]
    )
    # essential spectrum equals the spectrum for this symbol
    assert {r["value"] for r in obj["essential"]["records"]} == values
    assert all(r["in_essential"] for r in obj["spectrum"]["records"])


def test_exact_holomorphic(capsys):
    code, out = run_cli(capsys, "exact", "z1^2", "--cap", "5")
    assert code == 0
    obj = json.loads(out)
    assert [r["value"] for r in obj["spectrum"]["records"]] == ["0/1"]
    assert obj["multiplicity_class"] == "zero-operator"


def test_exact_two_variable_quarter(capsys):
    code, out = run_cli(capsys, "exact", "zb1*zb2", "--cap", "1")
    obj = json.loads(out)
    values = {r["value"] for r in obj["spectrum"]["records"]}
    assert "1/4" in values
    rec = next(r for r in obj["spectrum"]["records"] if r["value"] == "1/4")
    assert rec["provenance"] == [{"alpha": [0, 0], "B": [1, 2]}]
    assert rec["in_essential"] is False


# sha256 of the exact JSON at sizes where every subset B and both cases of
# lambda recur thousands of times; recorded before the writer rendered
# provenance from per-subset templates
@pytest.mark.parametrize(
    "argv, digest",
    [
        pytest.param(
            ["exact", "zb1*z2*zb2^2", "--cap", "40"],
            "bce44c22377081ac1105a296c596a01e0ee715f0f1d0fd0e24aeb1d40f8b664f",
            id="dim2-finite-cap40",
        ),
        pytest.param(
            ["exact", "z1*zb1^2*zb2*zb3^3", "--cap", "12"],
            "37f53d63a24c3fc2fb8a2d603b78a779b89ffa3919aa3b25a04d90283c411fae",
            id="dim3-finite-cap12",
        ),
        pytest.param(
            ["exact", "zb1*zb2^2", "--dim", "3", "--cap", "12"],
            "ad2fb0de80f6bdda754f13b505abb8a7e8765bc5f9d65201777e213b523b976b",
            id="dim3-all-infinite-cap12",
        ),
    ],
)
def test_exact_digest(capsys, argv, digest):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the exact CSV, recorded while it was still written from
# SpectrumSet.to_json_obj dicts: quoted multi-entry provenance (D2), an
# all-infinite D3 symbol, unquoted single entries (dim 1) and the zero operator
@pytest.mark.parametrize(
    "argv, digest",
    [
        pytest.param(
            ["exact", "z1^2*zb1*zb2^3", "--cap", "20"],
            "6a4359859c7588ccabecb9da18c740a541f90724bafc5fe98fb8710086eb55f2",
            id="dim2-quoted-provenance-cap20",
        ),
        pytest.param(
            ["exact", "zb1*zb2^2", "--dim", "3", "--cap", "8"],
            "998b1d9737741e3bc03af49bd32fff126d929c5236b780e2fba006653052fe8f",
            id="dim3-all-infinite-cap8",
        ),
        pytest.param(
            ["exact", "zb1^3", "--cap", "30"],
            "4f656a2c3a598449d47dd96068d53096333327b1dc4bf10867849d6066b3af9e",
            id="dim1-unquoted-cap30",
        ),
        pytest.param(
            ["exact", "z1", "--dim", "2", "--cap", "3"],
            "4fc8f3834e67009ef52890561ebee3a6b966df9743dd62afbe71accd35465cae",
            id="zero-operator",
        ),
    ],
)
def test_exact_csv_digest(capsys, argv, digest):
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_exact_rejects_polynomials(capsys):
    code = main(["exact", "zb1+zb2", "--cap", "2"])
    err = capsys.readouterr().err
    assert code == 2 and "approx" in err


def test_exact_csv(capsys):
    code, out = run_cli(capsys, "exact", "zb1", "--cap", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("value,value_float,")
    assert len(lines) == 1 + 4  # {0, 1/2, 1/6, 1/12}


def test_approx_matches_exact_for_monomial(capsys):
    code, out = run_cli(capsys, "approx", "zb1", "--dim", "1", "--degree", "40")
    assert code == 0
    obj = json.loads(out)
    assert obj["exactness"] == "rational"
    eigs = obj["eigenvalues"]
    for target in (Fraction(1, 2), Fraction(1, 6), Fraction(1, 12)):
        assert min(abs(e - float(target)) for e in eigs) < 1e-12


def test_approx_holomorphic_all_zero(capsys):
    code, out = run_cli(capsys, "approx", "z1", "--degree", "6")
    obj = json.loads(out)
    assert max(abs(e) for e in obj["eigenvalues"]) < 1e-14


def test_approx_dump_matrix(tmp_path, capsys):
    dump = tmp_path / "mat.txt"
    code, _ = run_cli(
        capsys, "approx", "zb1", "--dim", "1", "--degree", "3", "--dump-matrix", str(dump)
    )
    assert code == 0
    from hankel_spectra.galerkin import load_matrix

    with open(dump) as fh:
        mat = load_matrix(fh)
    assert mat.trunc.degree_cap == 3 and mat.trunc.dim == 1


def test_boundary_product(capsys):
    code, out = run_cli(
        capsys, "boundary", "zb1*(zb2+1)", "--coord", "2",
        "--degree", "6", "--samples", "16",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["constant"] is False
    assert obj["prediction_source"] == "product-factorization"
    spans = [(iv["lo"], iv["hi"]) for iv in obj["prediction"]["intervals"]]
    assert any(lo < 1e-9 and abs(hi - 2.0) < 1e-9 for lo, hi in spans)


def test_boundary_constant_verdict(capsys):
    code, out = run_cli(
        capsys, "boundary", "zb1^2*zb2^3", "--coord", "1",
        "--degree", "6", "--samples", "8",
    )
    obj = json.loads(out)
    assert obj["constant"] is True


def test_boundary_nonseparable_uses_profile(capsys):
    code, out = run_cli(
        capsys, "boundary", "zb1*zb2 + z1", "--coord", "2",
        "--degree", "5", "--samples", "8",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["prediction_source"] == "slice-profile"


def test_boundary_rejects_dim1(capsys):
    code = main(["boundary", "zb1", "--degree", "4"])
    assert code == 2


@pytest.mark.parametrize("coord", ["0", "3"])
def test_boundary_rejects_a_coord_outside_the_dim(capsys, coord):
    assert main(["boundary", "zb1*zb2", "--coord", coord, "--degree", "2"]) == 2
    assert capsys.readouterr().err == "error: --coord must lie in 1..2\n"


def test_approx_csv_rows_are_the_json_eigenvalues(capsys):
    args = ["approx", "zb1*(zb2+1)", "--degree", "3"]
    _, text = run_cli(capsys, *args)
    _, table = run_cli(capsys, *args, "--format", "csv")
    lines = table.splitlines()
    assert lines[0] == "index,eigenvalue"
    assert lines[1:] == [f"{i},{x!r}" for i, x in enumerate(json.loads(text)["eigenvalues"])]


def test_boundary_csv(capsys):
    code, out = run_cli(
        capsys, "boundary", "zb1*(zb2+1)", "--degree", "4", "--samples", "8",
        "--format", "csv",
    )
    lines = out.strip().splitlines()
    assert lines[0] == "theta,lambda_q"
    assert len(lines) == 9


def test_verify_all_suites(capsys):
    code, out = run_cli(capsys, "verify")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] and len(obj["suites"]) >= 7


def test_verify_single_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "engines-agree")
    obj = json.loads(out)
    assert code == 0 and [s["suite"] for s in obj["suites"]] == ["engines-agree"]


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "nope"]) == 2


def test_verify_corrupted_fixture_fails_named(capsys, monkeypatch):
    import hankel_spectra.verify as verify_mod

    monkeypatch.setitem(verify_mod.FIXTURES, "lambda:z_bar:alpha0", Fraction(1, 3))
    code, out = run_cli(capsys, "verify", "--suite", "fixtures")
    assert code == 1
    obj = json.loads(out)
    suite = obj["suites"][0]
    assert suite["suite"] == "fixtures" and not suite["passed"]
    assert suite["details"]["checks"]["lambda:z_bar:alpha0"] is False


def test_verify_engines_agree_checks_the_enumerated_tables(monkeypatch):
    # mutant: the second-case numerator factor (a+1)(a+n_k-m_k+1) loses its +1 where n_k = 2
    from hankel_spectra.verify import run_verify

    source = inspect.getsource(core._subset_table)
    mutated = source.replace("(a + 1) * (a + (nk - mk + 1))", "(a + 1) * (a + (nk - mk + (nk != 2)))")
    assert mutated != source
    namespace = dict(vars(core))
    exec(mutated, namespace)
    monkeypatch.setattr(core, "_subset_table", namespace["_subset_table"])
    report = run_verify("engines-agree")
    assert report["passed"] is False
    assert report["suites"][0]["details"]["tested"] == 756


# mutants of the qh box: its projection term dropped (756 comparisons, some fail),
# (a+1) left out of its first table (the Cauchy-Schwarz check stops the suite)
@pytest.mark.parametrize(
    "function, original, mutant, details",
    [
        ("_exact_point", "Fraction(p * t - s * q, q * t)", "Fraction(p, q)", {"tested": 756}),
        ("_coordinate_table", "first = first * (a + 1)", "first = first",
         {"error": "AssertionError: Cauchy-Schwarz violated on the exact path"}),
    ],
    ids=["second-term-dropped", "no-a-plus-1"],
)
def test_verify_engines_agree_checks_the_qh_box(monkeypatch, function, original, mutant, details):
    from hankel_spectra.verify import run_verify

    source = inspect.getsource(getattr(quasihomog, function))
    mutated = source.replace(original, mutant)
    assert mutated != source
    namespace = dict(vars(quasihomog))
    exec(mutated, namespace)
    monkeypatch.setattr(quasihomog, function, namespace[function])
    report = run_verify("engines-agree")
    assert report["passed"] is False
    assert details.items() <= report["suites"][0]["details"].items()


# sha256 of `verify` stdout (every suite), recorded before engines-agree read
# whole qh boxes and weyl_residual applied the sector blocks; the same with one
# OpenBLAS thread
VERIFY_DIGEST = "d9e05d6ed2b7de6b4aa0d16f3aecb6c2fbe696b892de00d8b317ede8864a454c"


def test_verify_digest(capsys):
    code, out = run_cli(capsys, "verify")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGEST


def test_output_determinism(capsys, tmp_path):
    args = ["boundary", "zb1*(zb2+1)", "--degree", "5", "--samples", "8"]
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second
    out = tmp_path / "r.json"
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_text() == first.rstrip("\n")


def test_usage_error_exit_codes(capsys):
    assert main(["exact", "zb9", "--cap", "2"]) == 2
    for argv in (
        ["bogus-command"],
        # the projection cap is derived from the symbol, not an option
        ["approx", "zb1", "--inner-cap", "5"],
        ["boundary", "zb1*(zb2+1)", "--inner-cap", "5"],
        # a subcommand refuses the flags it does not read
        ["approx", "zb1", "--samples", "8"],
        ["approx", "zb1", "--tol", "1e-9"],
        ["approx", "zb1", "--cap", "3"],
        ["exact", "zb1", "--tol", "1e-9"],
        ["exact", "zb1", "--samples", "8"],
        ["exact", "zb1", "--degree", "4"],
        # boundary derives its enumeration cap and match tolerance from the request
        ["boundary", "zb1*zb2", "--cap", "-1"],
        ["boundary", "zb1*zb2", "--tol", "1"],
        ["boundary", "zb1*zb2", "--cap", "4"],
        ["boundary", "zb1*zb2", "--tol", "1e-9"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "source",
    ["-zb1*zb2", "-1/2*zb1*zb2^2", "-i*zb1*zb2", "-2*z1*zb1*zb2^3", "(-2+i)*zb1*zb2 - z1"],
)
def test_printed_symbols_with_a_negative_leading_coefficient_pass_back(capsys, source):
    text = parse_symbol(source).to_expression()
    assert text.startswith("-")
    for argv in (
        ["boundary", text, "--coord", "2", "--degree", "2", "--samples", "8"],
        ["approx", "--degree", "2", text],
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["symbol"] == text
    # exact reads it too, and refuses it as a symbol, not as an option
    assert main(["exact", text, "--cap", "2"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {text!r} is not a single unit-coefficient monomial")


def test_dashed_symbols_leave_the_usage_errors_as_they_were(capsys):
    # -h, unknown flags and a missing symbol keep argparse's messages and exit codes
    with pytest.raises(SystemExit) as exc:
        main(["exact", "-h"])
    assert exc.value.code == 0 and "usage: hankel-spectra exact" in capsys.readouterr().out
    for argv, message in (
        (["exact"], "the following arguments are required: symbol"),
        (["exact", "-x"], "the following arguments are required: symbol"),
        (["exact", "zb1", "--bogus"], "unrecognized arguments: --bogus"),
        (["exact", "zb1", "-x"], "unrecognized arguments: -x"),
        (["exact", "zb1", "-zb2"], "unrecognized arguments: -zb2"),
        (["exact", "--cap", "-zb1"], "argument --cap: expected one argument"),
        (["verify", "-zb1"], "unrecognized arguments: -zb1"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n"), argv
    # a negative number was a positional already, also as an option's value
    assert main(["exact", "zb1", "--dim", "-2"]) == 2
    assert capsys.readouterr().err == "error: dim -2 smaller than highest coordinate 1\n"


def test_readme_flags_sentence_names_every_option():
    # one README sentence per subcommand, "`approx` takes ...", names exactly the options it registers
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    subparsers = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(subparsers.choices) == ["approx", "boundary", "exact", "verify"]
    for name, p in subparsers.choices.items():
        (sentence,) = re.findall(rf"`{name}` takes ([^.]*)\.", readme)
        options = {s for a in p._actions for s in a.option_strings if s.startswith("--") and s != "--help"}
        assert set(re.findall(r"--[a-z][a-z-]*", sentence)) == options, name


# explicit ids: a row keeps its test name when a row before it is removed
@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["exact", "zb1", "--cap", "-1"], "caps must be non-negative",
                     id="argv0-caps must be non-negative"),
        pytest.param(["approx", "zb1", "--degree", "-1"], "caps must be non-negative",
                     id="argv1-caps must be non-negative"),
        pytest.param(["boundary", "zb1*zb2", "--degree", "-1"], "caps must be non-negative",
                     id="argv3-caps must be non-negative"),
        pytest.param(["boundary", "zb1*zb2", "--samples", "3"], "samples must be >= 4",
                     id="argv5-samples must be >= 4"),
    ],
)
def test_flag_ranges_are_checked_where_they_are_read(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _float_symbol(terms) -> str:
    """A dim-2 JSON symbol with float coefficients from (complex, holo, antiholo) terms."""
    return json.dumps({"dim": 2, "terms": [
        {"coeff": [c.real, c.imag], "holo": list(h), "antiholo": list(a)} for c, h, a in terms
    ]})


def _prediction_source(capsys, symbol) -> str:
    assert main(["boundary", symbol, "--coord", "2", "--degree", "4", "--samples", "8"]) == 0
    return json.loads(capsys.readouterr().out)["prediction_source"]


def test_factorization_tolerance_is_relative_to_the_coefficients(capsys):
    # 1e-13*(zb1 + z1 + zb1*zb2) + 2e-13*z1*zb2 is no product, however small
    tiny = [(1e-13 + 0j, (0, 0), (1, 0)), (1e-13 + 0j, (1, 0), (0, 0)),
            (1e-13 + 0j, (0, 0), (1, 1)), (2e-13 + 0j, (1, 0), (0, 1))]
    assert _prediction_source(capsys, _float_symbol(tiny)) == "slice-profile"
    # ((0.22+0.36i)*zb1 + (0.67-0.62i)*z1) * 1e6 * (1 - (0.97+0.39i)*zb2) is one, however large
    a, b, r = (0.22 + 0.36j) * 1e6, (0.67 - 0.62j) * 1e6, 0.97 + 0.39j
    large = [(a, (0, 0), (1, 0)), (b, (1, 0), (0, 0)), (-a * r, (0, 0), (1, 1)), (-b * r, (1, 0), (0, 1))]
    assert _prediction_source(capsys, _float_symbol(large)) == "product-factorization"


_small_coefficients = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(_small_coefficients, st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=3),
    st.lists(st.tuples(_small_coefficients, st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=2),
    st.one_of(st.none(), _small_coefficients),
    st.integers(-60, 60),
)
def test_factorization_is_invariant_under_power_of_two_scaling(phi, chi, nudge, k):
    from hankel_spectra.cli import _factor_across
    from hankel_spectra.symbols import PolySymbol

    sym = PolySymbol([(c, (h, 0), (a, 0)) for c, h, a in phi], dim=2) * PolySymbol(
        [(c, (0, h), (0, a)) for c, h, a in chi], dim=2
    )
    if nudge is not None:  # a term off the product, most often
        sym = sym + PolySymbol([(nudge, (1, 1), (0, 0))], dim=2)
    factors = _factor_across(sym, 2) is not None
    assert (_factor_across(sym * 2.0**k, 2) is not None) == factors


def test_boundary_refuses_chi_degree_before_the_profile(capsys):
    # the product prediction runs first, so its chi budget is checked before the
    # compression and the 65536-sample slice profile are computed
    start = time.perf_counter()
    code = main(["boundary", "zb1*(zb2^200 + z2 + 1)", "--coord", "2", "--degree", "12", "--samples", "65536"])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert capsys.readouterr().err == "error: chi has degree 201 on the circle; at most 128 is supported\n"
    assert elapsed < 0.5


def test_approx_echoes_the_inner_caps_of_the_parsed_symbol(capsys, tmp_path):
    # as_float drops the underflowing term, so caps taken from the float copy would read [5, 5]
    expr = "(1/10^400)*zb1^3*zb2^2 + zb1*(zb2+1)"
    code, plain = run_cli(capsys, "approx", expr, "--degree", "4")
    assert code == 0 and json.loads(plain)["inner_caps"] == [7, 6]
    code, dumped = run_cli(capsys, "approx", expr, "--degree", "4", "--dump-matrix", str(tmp_path / "m.txt"))
    assert code == 0 and dumped == plain


def test_float_commands_skip_exact_assembly(capsys, monkeypatch, tmp_path):
    import numpy as np

    import hankel_spectra.galerkin as galerkin_mod
    from hankel_spectra import BasisTruncation, assemble, parse_symbol

    expr = "(1/2+i)*zb1*(zb2+1) - 3/4*z1*zb2"
    approx = ["approx", expr, "--degree", "5"]
    dump = tmp_path / "mat.txt"
    _, with_dump = run_cli(capsys, *approx, "--dump-matrix", str(dump))

    def refuse(*args):
        raise AssertionError("Gaussian-rational assembly entered")

    monkeypatch.setattr(galerkin_mod, "_gram_tables", refuse)
    code, without_dump = run_cli(capsys, *approx)
    assert code == 0 and without_dump == with_dump
    assert json.loads(without_dump)["exactness"] == "rational"
    assert json.loads(without_dump)["inner_caps"] == list(
        galerkin_mod.default_inner_caps(parse_symbol(expr), BasisTruncation(5, 2))
    )
    # phi = zb1 + z1 is not a monomial, so the prediction needs its compression too
    code, out = run_cli(
        capsys, "boundary", "(zb1+z1)*(zb2+1)", "--coord", "2",
        "--degree", "4", "--samples", "8",
    )
    assert code == 0
    sources = {iv["source"] for iv in json.loads(out)["prediction"]["intervals"]}
    assert sources == {"compression(N=4)"}
    monkeypatch.undo()

    with open(dump) as fh:
        assert fh.readline().split()[-1] == "exact=1"
        fh.seek(0)
        back = galerkin_mod.load_matrix(fh)
    ref = assemble(parse_symbol(expr), BasisTruncation(5, 2))
    assert back.scaled == ref.scaled and np.array_equal(back.dense, ref.dense)


def test_float_commands_build_no_full_matrix(capsys, monkeypatch):
    # approx without --dump-matrix and boundary read only the sector blocks
    from hankel_spectra.galerkin import CompressionMatrix

    def refuse(self):
        raise AssertionError("full graded-lex matrix built")

    monkeypatch.setattr(CompressionMatrix, "dense", property(refuse))
    monkeypatch.setattr(CompressionMatrix, "scaled", property(refuse))
    assert run_cli(capsys, "approx", "(1/2+i)*zb1*(zb2+1) - 3/4*z1*zb2", "--degree", "6")[0] == 0
    code, _ = run_cli(
        capsys, "boundary", "(zb1+z1)*(zb2+1)", "--coord", "2", "--degree", "4", "--samples", "8"
    )
    assert code == 0


def test_stored_entry_budget_exits_2_before_allocating(capsys, tmp_path):
    import time

    # one sector of 19881: within MAX_BASIS_SIZE, but its block alone would take 6.3 GB
    start = time.perf_counter()
    assert main(["approx", "zb1 + zb2 + 1", "--degree", "140"]) == 2
    assert time.perf_counter() - start < 2.0
    assert "above the guard" in capsys.readouterr().err
    # 4225 one-entry blocks fit, but the dense dump format would hold 4225^2 entries
    # refused before PATH is opened: an existing file keeps its bytes
    dump = tmp_path / "mat.txt"
    dump.write_text("kept\n")
    assert main(["approx", "zb1", "--dim", "2", "--degree", "64", "--dump-matrix", str(dump)]) == 2
    assert "dense matrix dump of basis size 4225" in capsys.readouterr().err
    assert dump.read_text() == "kept\n"


def test_approx_solves_sector_blocks(capsys, monkeypatch):
    # zb1*(zb2+1) couples z^a only to z^(a +- (0, 1)): 13 blocks of 13 at N = 12;
    # a monomial couples nothing, so every block is 1x1
    import numpy as np

    real = np.linalg.eigvalsh
    sizes = []

    def recording(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    assert main(["approx", "zb1*(zb2+1)", "--degree", "12"]) == 0
    assert len(json.loads(capsys.readouterr().out)["eigenvalues"]) == 169
    assert sizes and max(sizes) <= 13
    sizes.clear()
    assert main(["approx", "zb1^2", "--dim", "2", "--degree", "12"]) == 0
    capsys.readouterr()
    assert set(sizes) == {1}


def test_exact_enumerates_once(capsys, monkeypatch):
    # spectrum and essential spectrum come from one pass: one table per non-empty
    # subset B, together the (cap+2)^dim - 1 points
    sizes = []
    real = core._subset_table

    def counting(*args):
        num, den = real(*args)
        sizes.append(len(num))
        return num, den

    monkeypatch.setattr(core, "_subset_table", counting)
    assert main(["exact", "zb1*zb2^2", "--cap", "6"]) == 0
    capsys.readouterr()
    assert len(sizes) == 2**2 - 1
    assert sum(sizes) == (6 + 2) ** 2 - 1


@pytest.mark.parametrize(
    "term",
    [
        '{"coeff": [1, 0], "antiholo": [1]}',
        '{"holo": [0], "antiholo": [1]}',
        '{"coeff": [1, 0], "holo": [0]}',
        '{"coeff": 1, "holo": [0], "antiholo": [1]}',
        '{"coeff": [1], "holo": [0], "antiholo": [1]}',
        '{"coeff": [null, 0], "holo": [0], "antiholo": [1]}',
        '{"coeff": ["1/0", 0], "holo": [0], "antiholo": [1]}',
        '{"coeff": ["x", 0], "holo": [0], "antiholo": [1]}',
        '{"coeff": [true, 0], "holo": [0], "antiholo": [1]}',
        '{"coeff": [1, 0], "holo": 0, "antiholo": [1]}',
        '{"coeff": [1, 0], "holo": "0", "antiholo": [1]}',
        '{"coeff": [1, 0], "holo": [0.5], "antiholo": [1]}',
        '{"coeff": [1, 0], "holo": [0], "antiholo": [-1]}',
        '{"coeff": [1, 0], "holo": [0, 0], "antiholo": [1]}',
        '[1, 0]',
    ],
)
def test_malformed_json_symbol_exits_2(capsys, term):
    symbol = '{"dim": 1, "terms": [%s]}' % term
    assert main(["approx", symbol, "--degree", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "symbol",
    [
        '{"terms": []}',
        '{"dim": "2", "terms": []}',
        '{"dim": 1, "terms": {}}',
        '{"dim": 1, "terms": [{"coeff": [1, 0], "holo": [0], "antiholo": [1]}]',
        pytest.param("(" * 3000 + "zb1" + ")" * 3000, id="nested-parentheses"),
        '{"dim": 9, "terms": []}',
        '{"dim": 16000000, "terms": []}',
    ],
)
def test_malformed_json_envelope_exits_2(capsys, symbol):
    assert main(["approx", symbol, "--degree", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("dim", [0, -1])
@pytest.mark.parametrize(
    "argv", [["approx", "--degree", "2"], ["exact", "--cap", "2"], ["boundary", "--degree", "2", "--samples", "8"]]
)
def test_json_symbol_dim_below_1_exits_2(capsys, argv, dim):
    assert main([argv[0], '{"dim": %d, "terms": []}' % dim, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: JSON symbol dim {dim} is below 1\n"


def test_exact_refuses_float_coefficients_before_enumerating(capsys, monkeypatch):
    # a float 1.0 equals the unit coefficient, but the symbol has no exact expression
    def enumerate_spectrum(*args):
        raise AssertionError("enumerated a refused symbol")

    monkeypatch.setattr(cli, "enumerate_spectrum", enumerate_spectrum)
    symbol = '{"dim":1,"terms":[{"coeff":[1.0,0.0],"holo":[0],"antiholo":[1]}]}'
    for fmt in ("json", "csv"):
        assert main(["exact", symbol, "--cap", "2", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {symbol!r} has a float coefficient; 'exact' takes integer or \"num/den\" coefficients\n"
        )


def test_json_symbol_padded_past_dim_limit_exits_2(capsys):
    assert main(["approx", '{"dim": 1, "terms": []}', "--dim", "9", "--degree", "2"]) == 2
    assert capsys.readouterr().err == "error: dim 9 exceeds 8\n"


def test_json_symbol_takes_a_larger_dim_and_refuses_a_smaller_one(capsys):
    zb1 = '{"dim": 1, "terms": [{"coeff": [1, 0], "holo": [0], "antiholo": [1]}]}'
    code, out = run_cli(capsys, "approx", zb1, "--dim", "2", "--degree", "2")
    assert code == 0
    _, want = run_cli(capsys, "approx", "zb1", "--dim", "2", "--degree", "2")
    assert json.loads(out)["eigenvalues"] == json.loads(want)["eigenvalues"] and json.loads(out)["dim"] == 2
    two = '{"dim": 2, "terms": [{"coeff": [1, 0], "holo": [0, 0], "antiholo": [1, 1]}]}'
    assert main(["approx", two, "--dim", "1", "--degree", "2"]) == 2
    assert capsys.readouterr().err == "error: cannot shrink symbol of dim 2 to 1\n"


def test_enumeration_budget_exits_2(capsys):
    # (cap+2)^dim - 1 = 1e10 closed-form evaluations: refused before the first one
    assert main(["exact", "zb1*zb2", "--cap", "100000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "budget" in err


@pytest.mark.parametrize(
    "command, coeff, message",
    [
        ("approx", "NaN", "non-finite coefficient"),
        ("approx", "-Infinity", "non-finite coefficient"),
        ("approx", "1e200", "non-finite entries"),
        ("boundary", "1e200", "non-finite entries"),
    ],
)
def test_non_finite_input_exits_2(capsys, command, coeff, message):
    symbol = (
        '{"dim": 2, "terms": [{"coeff": [%s, 0], "holo": [0, 0], "antiholo": [1, 1]}]}' % coeff
    )
    samples = ["--samples", "8"] if command == "boundary" else []
    assert main([command, symbol, "--degree", "3"] + samples) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err



@pytest.mark.parametrize("command", ["approx", "boundary"])
def test_symmetrisation_overflow_exits_2(capsys, command):
    # entries near 1e308 are finite, but (b + b^H) / 2 overflows in the sum
    symbol = (
        '{"dim":2,"terms":[{"coeff":[1e154,0],"holo":[0,0],"antiholo":[1,1]},'
        '{"coeff":[1e154,0],"holo":[0,0],"antiholo":[1,0]}]}'
    )
    samples = ["--samples", "8"] if command == "boundary" else []
    assert main([command, symbol, "--degree", "4"] + samples) == 2
    assert capsys.readouterr().err == (
        "error: compression of ((1e+154+0j))*zb1 + ((1e+154+0j))*zb1*zb2 has non-finite entries;"
        " coefficients too large for floats?\n"
    )

def test_coefficient_too_large_for_float_exits_2(capsys):
    assert main(["approx", "10^400*zb1", "--degree", "2"]) == 2
    err = capsys.readouterr().err
    assert err == "error: coefficient of zb1 is too large for a float\n"
    # a holomorphic phi has no compression to refuse it; its coefficient scale does
    assert main(["boundary", "10^400*z1*zb2", "--coord", "2", "--degree", "2", "--samples", "8"]) == 2
    assert capsys.readouterr().err == "error: coefficient of z1 is too large for a float\n"
    # a scale past the float range is inf, not an OverflowError; the compression then refuses it
    assert main(["boundary", "10^200*z1*zb2", "--coord", "2", "--degree", "2", "--samples", "8"]) == 2
    assert "non-finite entries" in capsys.readouterr().err


def _reference_exact_json(symbol, mono, cap, spectrum, essential) -> str:
    """The exact command's document built as a dict and encoded by json.dumps."""
    obj = {
        "command": "exact",
        "symbol": symbol,
        "dim": mono.dim,
        "n": list(mono.holo),
        "m": list(mono.antiholo),
        "alpha_cap": cap,
        "multiplicity_class": core.multiplicity_class(mono).value,
        "spectrum": spectrum_obj_with_in_essential(spectrum, essential),
        "essential": spectrum_json_obj(essential),
    }
    return json.dumps(obj, sort_keys=True, indent=2)


@st.composite
def _spectra(draw):
    """(mono, cap, spectrum, essential): enumerated for small monomials of all
    three classes, or drawn record by record (empty record lists included; the
    alphas of one spectrum may differ in length, and an essential record may
    hold an equal copy of its spectrum value)."""
    dim = draw(st.integers(1, 3))
    n = draw(st.tuples(*[st.integers(0, 3)] * dim))
    m = draw(st.tuples(*[st.integers(0, 3)] * dim))
    mono, cap = core.MonomialSymbol(n, m), draw(st.integers(0, 3))
    if draw(st.booleans()):
        spectrum = core.enumerate_spectrum(mono, cap)
        return mono, cap, spectrum, core.essential_part(mono, spectrum)
    alphas = st.integers(1, 3).flatmap(lambda k: st.tuples(*[st.integers(0, 10**6)] * k))
    subsets = st.sets(st.integers(1, dim), min_size=1).map(frozenset)
    records = draw(st.lists(
        st.builds(
            core.EigenRecord,
            st.fractions(0, 1),
            st.lists(st.builds(core.Provenance, alphas, subsets), max_size=3).map(tuple),
            st.booleans(),
            st.booleans(),
            st.sampled_from([None, *core.MultiplicityClass]),
        ),
        max_size=4,
        unique_by=lambda r: r.value,
    ))
    notes = st.one_of(st.none(), st.just("zero operator: holomorphic symbol, essential spectrum is {0}"), st.text())
    spectrum = core.SpectrumSet(tuple(records), cap, draw(st.booleans()), draw(st.booleans()), "spectrum")
    kept = tuple(
        replace(r, value=_equal_copy(r.value)) if draw(st.booleans()) else r
        for r in records
        if draw(st.booleans())
    )
    essential = core.SpectrumSet(kept, cap, True, draw(st.booleans()), "essential", draw(notes))
    return mono, cap, spectrum, essential


def _equal_copy(value: Fraction) -> Fraction:
    copy = Fraction(value.numerator, value.denominator)
    assert copy == value and copy is not value
    return copy


@settings(max_examples=150, deadline=None)
@given(_spectra(), st.text())
def test_exact_writer_matches_json_dumps(drawn, symbol):
    mono, cap, spectrum, essential = drawn
    assert _exact_document("json", symbol, mono, cap, spectrum, essential) == _reference_exact_json(
        symbol, mono, cap, spectrum, essential
    )


@settings(max_examples=150, deadline=None)
@given(_spectra(), st.text())
def test_exact_csv_matches_the_dict_built_reference(drawn, symbol):
    mono, cap, spectrum, essential = drawn
    assert _exact_document("csv", symbol, mono, cap, spectrum, essential) == reference_exact_csv(spectrum, essential)


def test_exact_writer_keeps_nothing_between_documents():
    # B = {1} recurs at every dim: its provenance template must follow len(alpha)
    # from one document to the next, and within one
    for n, m, cap in [
        ((0,), (2,), 6), ((1, 0), (0, 2), 4), ((0, 1, 0), (1, 0, 2), 2),
        ((0,), (1,), 3), ((0, 0, 0), (0, 1, 1), 2), ((2, 0), (3, 0), 5), ((1,), (1,), 4),
    ]:
        mono = core.MonomialSymbol(n, m)
        spectrum = core.enumerate_spectrum(mono, cap)
        essential = core.essential_part(mono, spectrum)
        assert _exact_document("json", "s", mono, cap, spectrum, essential) == _reference_exact_json(
            "s", mono, cap, spectrum, essential
        )
        assert _exact_document("csv", "s", mono, cap, spectrum, essential) == reference_exact_csv(spectrum, essential)
    half, third = Fraction(1, 2), Fraction(1, 3)
    records = (
        core.EigenRecord(third, (core.Provenance((10**6,), frozenset({1})),), True, False, None),
        core.EigenRecord(half, (
            core.Provenance((999_999, 7), frozenset({1})),
            core.Provenance((0, 10**6, 3), frozenset({1, 3})),
            core.Provenance((10**6,), frozenset({1})),
        ), True, True, core.MultiplicityClass.FINITE),
    )
    mono = core.MonomialSymbol((0, 0, 0), (1, 1, 1))
    spectrum = core.SpectrumSet(records, 3, True, True, "spectrum")
    # in_essential compares values: an equal copy of 1/2 counts, 1/3 is absent
    essential = core.SpectrumSet((replace(records[1], value=_equal_copy(half)),), 3, True, True, "essential")
    text = _exact_document("json", "s", mono, 3, spectrum, essential)
    assert text == _reference_exact_json("s", mono, 3, spectrum, essential)
    assert [r["in_essential"] for r in json.loads(text)["spectrum"]["records"]] == [False, True]
    table = _exact_document("csv", "s", mono, 3, spectrum, essential)
    assert table == reference_exact_csv(spectrum, essential)
    assert table.splitlines()[2] == (
        '1/2,0.5,True,True,finite,True,"alpha=(999999,7) B=(1);alpha=(0,1000000,3) B=(1,3);alpha=(1000000) B=(1)"'
    )
