"""What a process imports: each subcommand loads only the modules it runs.

Every test runs in a fresh interpreter, since this one has imported every
module of the package already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ENGINES = ("hankel_spectra.galerkin", "hankel_spectra.boundary", "hankel_spectra.quasihomog", "hankel_spectra.verify")

# modules a command loads only for a library call it can do without: hashlib and OpenSSL's
# _hashlib for one SHA-256 of about 100 bytes, numpy.ma for an option-less np.unique
WATCHED = ("_hashlib", "hashlib", "numpy.ma")
# imports the CLI, then records the modules that import loaded: numpy 1.x imports numpy.ma,
# and through numpy.random hashlib, on its own import
PRELUDE = "import contextlib, io, sys\nimport hankel_spectra.cli as cli\nbase = set(sys.modules)\n"
# prints which of ENGINES the process has loaded, and which of WATCHED it loaded after PRELUDE
LOADED = "print(sorted(m for m in sys.modules if m in %r or m in %r and m not in base))" % (ENGINES, WATCHED)


def fresh(code: str) -> str:
    """The stdout of code run in a new interpreter that imports the package from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_importing_the_cli_and_running_exact_load_no_engine():
    out = fresh(
        PRELUDE
        + f"{LOADED}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['exact', 'zb1^2*zb2', '--cap', '3']) == 0\n"
        "    assert cli.main(['exact', 'zb1', '--dim', '2', '--cap', '2', '--format', 'csv']) == 0\n"
        f"{LOADED}\n"
    )
    assert out == "[]\n[]\n"


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["approx", "zb1*(zb2+1)", "--degree", "3"], ["hankel_spectra.galerkin"]),
        (["boundary", "zb1*(zb2+1)", "--degree", "2", "--samples", "8"], ["hankel_spectra.boundary", "hankel_spectra.galerkin"]),
    ],
)
def test_approx_and_boundary_load_only_what_they_run(argv, loaded):
    out = fresh(
        PRELUDE
        + "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
        f"{LOADED}\n"
    )
    assert out == f"{loaded}\n"


def test_a_dump_hashes_the_symbol_without_hashlib(tmp_path):
    # the header's symbol hash takes the interpreter's built-in SHA-256, not OpenSSL's
    path = tmp_path / "m.txt"
    out = fresh(
        PRELUDE
        + "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['approx', 'zb1', '--degree', '2', '--dump-matrix', {str(path)!r}]) == 0\n"
        f"{LOADED}\n"
    )
    assert out == "['hankel_spectra.galerkin']\n"
    assert path.read_text().startswith("hankel-spectra-matrix v1 dim=1 N=2 symbol=edc6dd3f585b exact=1\n")


def test_verify_loads_every_engine_and_nothing_it_can_do_without():
    # the matrix-roundtrip suite dumps a compression, so this covers the symbol hash too
    out = fresh(
        PRELUDE
        + "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify']) == 0\n"
        f"{LOADED}\n"
    )
    assert out == f"{sorted(ENGINES)}\n"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("assemble", ["approx", "zb1", "--degree", "2"]),
        ("boundary_report", ["boundary", "zb1*zb2", "--degree", "2", "--samples", "8"]),
        ("run_verify", ["verify", "--suite", "fixtures"]),
    ],
)
@pytest.mark.parametrize("seen", [False, True], ids=["assigned", "read-then-assigned"])
def test_a_name_replaced_before_its_command_first_runs_is_the_one_called(name, argv, seen):
    # "read-then-assigned" is monkeypatch.setattr's order: hasattr, then the assignment
    out = fresh(
        "import hankel_spectra.cli as cli\n"
        + (f"assert hasattr(cli, {name!r})\n" if seen else "")
        + "def replaced(*args):\n"
        "    print('the replacement ran')\n"
        "    raise ValueError('stop')\n"
        f"cli.{name} = replaced\n"
        f"print(cli.main({argv!r}))\n"
    )
    assert out == "the replacement ran\n2\n"


def test_the_package_resolves_its_names_on_first_access():
    out = fresh(
        "import sys\n"
        "import hankel_spectra\n"
        "print(sorted(m for m in sys.modules if m.startswith('hankel_spectra.')))\n"
        "assert set(hankel_spectra.__all__) <= set(dir(hankel_spectra))\n"
        "names = {}\n"
        "exec('from hankel_spectra import *', names)\n"
        "assert set(hankel_spectra.__all__) <= set(names)\n"
        "assert all(names[n] is getattr(hankel_spectra, n) for n in hankel_spectra.__all__)\n"
        "try:\n"
        "    hankel_spectra.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert out == "[]\nmodule 'hankel_spectra' has no attribute 'no_such_name'\n"
