"""CLI surface: commands, formats, exit codes, determinism."""

import json
from fractions import Fraction

import pytest

from hankel_spectra.cli import main


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
        "--degree", "6", "--samples", "16", "--cap", "4",
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
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


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

    monkeypatch.setattr(galerkin_mod, "_exact_compression", refuse)
    code, without_dump = run_cli(capsys, *approx)
    assert code == 0 and without_dump == with_dump
    assert json.loads(without_dump)["exactness"] == "rational"
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
    ],
)
def test_malformed_json_envelope_exits_2(capsys, symbol):
    assert main(["approx", symbol, "--degree", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
    assert main([command, symbol, "--degree", "3", "--samples", "8"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_coefficient_too_large_for_float_exits_2(capsys):
    assert main(["approx", "10^400*zb1", "--degree", "2"]) == 2
    err = capsys.readouterr().err
    assert err == "error: coefficient of zb1 is too large for a float\n"
