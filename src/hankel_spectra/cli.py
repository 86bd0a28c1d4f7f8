"""Command-line surface: exact / approx / boundary / verify.

Outputs are deterministic: JSON is emitted with sorted keys and Python's
shortest-round-trip float repr; exact rationals are printed as "num/den" and
never converted to float in exact mode.  Exit codes: 0 success, 1 verification
failure, 2 usage error, 141 stdout closed by its reader (128 + SIGPIPE).

A request's fixed work is done once per process: the argument parser is built
by the first main call and reused by every later one.  The approx and
boundary documents are laid out in one pass: lists of finite floats
(eigenvalues, profile samples) are joined from their float reprs by hand, byte
for byte what json.dumps(..., indent=2) writes, and json.dumps lays out the
rest.  The verify document holds no such list: json.dumps lays it out directly.
exact writes its document block by block: json.dumps lays out the frame, and
the records, in blocks of about _BLOCK_WITNESSES witnesses, are written out in
chunks of about _CHUNK_CHARS characters as they are made, so the memory it
takes stops growing with the document: the one-shot peak RSS of
z1*zb1*zb2^2*zb3 at --dim 3 --cap 44, a 43 MB document at the enumeration
budget's edge, fell from 143 MB to 45 MB (Python 3.11, numpy 2.4, x86-64 Linux).

A process imports what its subcommands run.  Importing this module loads numpy
and core, multiindex, rational and symbols, all that exact needs; approx
imports galerkin when it first runs, boundary galerkin and boundary, and verify
every engine.  The names these commands use stay attributes of this module,
readable and replaceable before the first command runs (see _LAZY).
"""

from __future__ import annotations

import argparse
import csv
import functools
import importlib
import io
import itertools
import json
import os
import re
import sys
from collections.abc import Iterable, Iterator

from .core import MULTIPLICITIES, MonomialSymbol, SpectrumSet, enumerate_spectrum, essential_part, multiplicity_class
from .multiindex import nonempty_subsets
from .symbols import parse_symbol

__all__ = ["main"]

# The names that approx, boundary and verify use, by the module that defines them.
# Each module is imported, and its names bound as globals here, by the first command
# that runs it (_bind) or by the first read of one of its names from outside
# (__getattr__, which hasattr and monkeypatch.setattr reach).  A name bound already,
# e.g. a replacement, is kept: a command calls what the module attribute holds when
# it runs.
_LAZY = {
    "galerkin": ("BasisTruncation", "_check_dump_size", "assemble", "default_inner_caps", "dump_matrix", "eigenvalues"),
    "boundary": ("DEFAULT_SAMPLES", "MAX_SAMPLES", "boundary_report"),
    "verify": ("run_verify",),
}
_HOMES = {name: module for module, names in _LAZY.items() for name in names}


def _bind(*modules: str) -> None:
    """Import modules and bind those of their _LAZY names that are not bound yet."""
    bound = globals()
    for module in modules:
        home = importlib.import_module("." + module, __package__)
        for name in _LAZY[module]:
            if name not in bound:
                bound[name] = getattr(home, name)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_HOMES[name])
    return globals()[name]


def _check_caps(*caps: int) -> None:
    if min(caps) < 0:
        raise ValueError("caps must be non-negative")


class _StdoutClosed(Exception):
    """The reader of stdout went away (e.g. `| head`); main exits 141, as a SIGPIPE death would."""


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write text, a string or an iterable of strings, to stdout or to the file out,
    each string as soon as the iterable makes it (exact's document, chunk by chunk).

    On stdout a final newline is added if the text does not end in one, and a
    reader that went away raises _StdoutClosed; any other OSError, e.g. a full
    disk, reaches main's one-line error path.
    """
    chunks = [text] if isinstance(text, str) else text
    if out is None:
        try:
            last = ""
            for last in chunks:
                sys.stdout.write(last)
            if not last.endswith("\n"):
                sys.stdout.write("\n")
            sys.stdout.flush()  # a closed pipe raises here, not in the interpreter's last flush
        except BrokenPipeError:
            raise _StdoutClosed from None
    else:
        with open(out, "w") as fh:
            fh.writelines(chunks)


# What json.dumps lays out in place of text written by hand, and its JSON text
_HOLE = "\0"
_HOLE_TEXT = json.dumps(_HOLE)


def _json_dump(obj: dict) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte.

    json.dumps with indent runs CPython's pure-Python encoder, one call per
    float of a long eigenvalue or sample list.  Here json.dumps lays out only the
    frame, obj with each such list held as _HOLE (see _holed), and each list is
    written as one join of float.__repr__ texts, json.dumps's own text for a
    finite float.  The frame splits on _HOLE's JSON text once per hole, unless a
    string of obj writes that text too (e.g. "\\0" itself): then json.dumps lays
    out all of obj.
    """
    runs: list[str] = []
    frame = _holed(obj, 0, runs)
    text = json.dumps(frame, sort_keys=True, indent=2)
    if not runs:
        return text
    pieces = text.split(_HOLE_TEXT)
    if len(pieces) != len(runs) + 1:
        return json.dumps(obj, sort_keys=True, indent=2)
    out = [pieces[0]]
    for run, piece in zip(runs, pieces[1:]):
        out += (run, piece)
    return "".join(out)


def _holed(obj, depth: int, runs: list[str]):
    """obj with each list that _float_run lays out replaced by _HOLE, its text
    appended to runs in the order json.dumps(sort_keys=True) meets it; depth
    counts the containers around obj."""
    if isinstance(obj, dict):
        return {key: _holed(obj[key], depth + 1, runs) for key in sorted(obj)}
    if isinstance(obj, (list, tuple)):
        text = _float_run(obj, depth)
        if text is None:
            return [_holed(item, depth + 1, runs) for item in obj]
        runs.append(text)
        return _HOLE
    return obj


_NON_FINITE = {"inf", "-inf", "nan"}
# json.dumps's text of a value by its exact type; bool is a type of its own, so True is never read as 1
_LEAF_TEXT = {
    float: float.__repr__,
    str: json.encoder.encode_basestring_ascii,
    bool: {True: "true", False: "false"}.__getitem__,
    int: int.__repr__,
    type(None): lambda _: "null",
}


def _float_run(items, depth: int) -> str | None:
    """The text json.dumps(..., indent=2) writes for the list items at depth, when
    they are finite floats or flat dicts of one key set (see _flat_dict_texts);
    None for any other list, and for an empty one."""
    pad = "\n" + "  " * (depth + 1)
    first = items[0] if items else None
    try:
        if isinstance(first, float):
            body = ("," + pad).join(_finite_reprs(items))
        elif type(first) is dict:
            body = _flat_dict_texts(items, pad)
        else:
            return None
    except (KeyError, TypeError):
        return None
    return "[" + pad + body + pad[:-2] + "]"


def _finite_reprs(values) -> list[str]:
    """json.dumps's text of each value, when all are finite floats; else a TypeError."""
    texts = list(map(float.__repr__, values))
    if not _NON_FINITE.isdisjoint(texts):
        raise TypeError("a non-finite float")
    return texts


def _flat_dict_texts(dicts, pad: str) -> str:
    """json.dumps's text of the dicts, each at pad and joined by "," + pad, when all are
    dicts under the first one's non-empty set of string keys and every value is a str, int,
    bool, None or finite float; else a KeyError or TypeError.  One %-template of a dict,
    repeated for every dict, takes the texts of all values in one %."""
    keys = dicts[0].keys()
    if not keys or not all(type(k) is str for k in keys):
        raise TypeError("not a dict under string keys")
    if not all(type(d) is dict and d.keys() == keys for d in dicts):
        raise TypeError("dicts under different keys")
    ordered = sorted(keys)
    inner = pad + "  "
    items = ("," + inner).join(json.dumps(k).replace("%", "%%") + ": %s" for k in ordered)
    texts = [_LEAF_TEXT[type(v)](v) for d in dicts for v in map(d.__getitem__, ordered)]
    if not _NON_FINITE.isdisjoint(texts):
        raise TypeError("a non-finite float")
    return ("," + pad).join(["{" + inner + items + pad + "}"] * len(dicts)) % tuple(texts)


def _csv_rows(rows: Iterable) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _csv_text(header: list[str], rows: list[list]) -> str:
    return _csv_rows(itertools.chain([header], rows))


# The head of a record of the exact document ("spectrum" or "essential" ->
# "records" -> [...]) as json.dumps(..., indent=2) lays it out, up to its
# provenance list, per (in_essential, is_eigenvalue, is_limit_point,
# multiplicity code); in_essential None leaves that field out.
_RECORD_HEADS = {
    (ess, eig, lp, code): "{\n        " + ("" if ess is None else f'"in_essential": {json.dumps(ess)},\n        ')
    + f'"is_eigenvalue": {json.dumps(eig)},\n        "is_limit_point": {json.dumps(lp)},\n        '
    + f'"multiplicity": {json.dumps(m and m.value)},\n        "provenance": '
    for ess, eig, lp, (code, m) in itertools.product(
        (None, False, True), (False, True), (False, True), enumerate(MULTIPLICITIES)
    )
}
# A provenance entry per format: a template of the texts of B's members and of
# alpha's entries, each joined by the format's item separator, and the
# separator of a record's entries.
_WITNESS = {
    "json": (
        '{\n            "B": [\n              %(B)s\n            ],'
        '\n            "alpha": [\n              %(alpha)s\n            ]\n          }',
        ",\n              ",
        ",\n          ",
    ),
    "csv": ("alpha=(%(alpha)s) B=(%(B)s)", ",", ";"),
}
# Each "records" value of the exact document's frame, and the pair its text is split on
_RECORDS_HOLE = '"records": ' + _HOLE_TEXT


# The exact document is rendered in blocks of whole records that hold about
# _BLOCK_WITNESSES witnesses and at most that many records (a record with more
# witnesses is a block of its own), and handed on in chunks of at most _CHUNK_CHARS
# characters (or one longer block): what it holds at once is one block's texts and
# one chunk, however long the document.
_BLOCK_WITNESSES = 2048
_CHUNK_CHARS = 1 << 18


def _value_texts(spec: SpectrumSet) -> list[str]:
    """The "num/den" text of every value, integers too, from the int tables."""
    return [f"{n}/{d}" for n, d in zip(spec.num.tolist(), spec.den.tolist())]


def _float_texts(spec: SpectrumSet) -> list[str]:
    """repr(float(Fraction(num, den))) of every value, with no Fraction: Python's
    int true division, which float(Fraction) performs, is correctly rounded."""
    return [repr(n / d) for n, d in zip(spec.num.tolist(), spec.den.tolist())]


def _record_blocks(spec: SpectrumSet) -> Iterator[SpectrumSet]:
    """spec's records, in order, as consecutive record_slice blocks of about _BLOCK_WITNESSES witnesses."""
    starts, count = spec.starts, len(spec.num)
    lo = 0
    while lo < count:
        # the last record boundary within _BLOCK_WITNESSES witnesses of lo's
        end = int(starts.searchsorted(starts[lo] + _BLOCK_WITNESSES, side="right")) - 1
        hi = max(lo + 1, min(end, lo + _BLOCK_WITNESSES))
        yield spec.record_slice(lo, hi)
        lo = hi


def _record_texts(spec: SpectrumSet, fmt: str, essential_texts: set | None):
    """(value text, float repr, is_eigenvalue, is_limit_point, multiplicity code,
    in_essential, provenance entries) of every record, read off the tables.

    The entries are fmt's witness layouts joined by its separator; in_essential
    is None without essential_texts.
    """
    dim = spec.alpha.shape[1]
    template, item_sep, entry_sep = _WITNESS[fmt]
    templates = [
        template % {"B": item_sep.join(map(str, sorted(b))), "alpha": item_sep.join(["%d"] * dim)}
        for b in nonempty_subsets(dim)
    ]
    entries = [templates[s] % a for s, a in zip(spec.subset.tolist(), zip(*spec.alpha.T.tolist()))]
    bounds = spec.starts.tolist()
    texts = _value_texts(spec)
    return zip(
        texts,
        _float_texts(spec),
        spec.is_eigenvalue.tolist(),
        spec.is_limit_point.tolist(),
        spec.multiplicity.tolist(),
        [None] * len(texts) if essential_texts is None else [t in essential_texts for t in texts],
        [entry_sep.join(entries[s:e]) for s, e in zip(bounds, bounds[1:])],
    )


def _json_records(spec: SpectrumSet, essential_texts: set | None, rest: str) -> Iterator[str]:
    """The text of spec's "records" pair in the exact JSON, one string per block, rest after them."""
    if not len(spec.num):
        yield '"records": []' + rest
        return
    pieces, left = ['"records": [\n      '], len(spec.num)
    for block in _record_blocks(spec):
        for text, float_text, eig, lp, code, in_essential, entries in _record_texts(block, "json", essential_texts):
            provenance = f"[\n          {entries}\n        ]" if entries else "[]"
            pieces += (_RECORD_HEADS[in_essential, eig, lp, code], provenance, ',\n        "value": "', text)
            pieces += ('",\n        "value_float": ', float_text, "\n      },\n      ")
        left -= len(block.num)
        if not left:
            # the separator after the last record closes the list
            pieces[-1] = "\n      }\n    ]"
            pieces.append(rest)
        yield "".join(pieces)
        pieces = []


_CSV_HEADER = ("value", "value_float", "is_eigenvalue", "is_limit_point", "multiplicity", "in_essential", "provenance")


def _csv_records(spec: SpectrumSet, essential_texts: set) -> Iterator[str]:
    """The exact CSV's header, then its rows block by block, one csv.writer pass each."""
    multiplicities = [m.value if m else "" for m in MULTIPLICITIES]
    yield _csv_rows([_CSV_HEADER])
    for block in _record_blocks(spec):
        rows = (
            (text, float_text, eig, lp, multiplicities[code], in_essential, entries)
            for text, float_text, eig, lp, code, in_essential, entries in _record_texts(block, "csv", essential_texts)
        )
        yield _csv_rows(rows)


def _chunked(blocks: Iterable[str]) -> Iterator[str]:
    """The texts of blocks joined into chunks of at most _CHUNK_CHARS characters, or of one
    longer block.  A chunk of one block is that block's text itself, copied no further."""
    pending, size = [], 0
    for text in blocks:
        if pending and size + len(text) > _CHUNK_CHARS:
            yield "".join(pending)
            pending, size = [], 0
        pending.append(text)
        size += len(text)
    if pending:
        yield "".join(pending)


def _exact_document(
    fmt: str, symbol: str, mono: MonomialSymbol, alpha_cap: int, spectrum: SpectrumSet, essential: SpectrumSet
) -> Iterator[str]:
    """The exact command's output in fmt, as chunks of text: "json", byte for byte
    json.dumps(obj, sort_keys=True, indent=2), or "csv", the spectrum records only.

    Both write the records straight from the SpectrumSet tables, a block of
    records at a time (see _record_blocks), with one set of per-record texts per
    block (see _record_texts) and no Fraction or record object; a chunk is made
    only when it is read.  For "json", json.dumps lays out the frame, the
    document with each "records" held as _HOLE; it splits into three parts on
    _RECORDS_HOLE, which no string value holds, since json.dumps escapes every
    '"' in one.  The parts and each record's pieces (cached head, provenance
    entries, value texts) are joined a chunk at a time.  in_essential looks a
    value's text up in the essential values' texts ("num/den" of reduced values
    is injective, so this agrees with comparing values).
    """
    essential_texts = set(_value_texts(essential))
    if fmt == "csv":
        return _chunked(_csv_records(spectrum, essential_texts))

    def frame(spec: SpectrumSet) -> dict:
        fields = ("alpha_cap", "contains_zero", "kind", "note", "truncated")
        return {key: getattr(spec, key) for key in fields} | {"records": _HOLE}

    head, between, tail = json.dumps(
        {
            "alpha_cap": alpha_cap,
            "command": "exact",
            "dim": mono.dim,
            "essential": frame(essential),
            "m": list(mono.antiholo),
            "multiplicity_class": multiplicity_class(mono).value,
            "n": list(mono.holo),
            "spectrum": frame(spectrum),
            "symbol": symbol,
        },
        sort_keys=True,
        indent=2,
    ).split(_RECORDS_HOLE)
    return _chunked(
        itertools.chain(
            [head], _json_records(essential, None, between), _json_records(spectrum, essential_texts, tail)
        )
    )


def cmd_exact(args) -> int:
    _check_caps(args.cap)
    sym = parse_symbol(args.symbol, dim=args.dim)
    if not sym.is_plain_monomial:
        raise ValueError(
            f"{args.symbol!r} is not a single unit-coefficient monomial; "
            "use the 'approx' command for general polynomial symbols"
        )
    if not sym.is_exact:
        # refused before the enumeration, in either format: the JSON echoes the
        # symbol's canonical expression, which only exact symbols have
        raise ValueError(
            f"{args.symbol!r} has a float coefficient; 'exact' takes integer or \"num/den\" coefficients"
        )
    mono = sym.to_monomial_symbol()
    spectrum = enumerate_spectrum(mono, args.cap)
    essential = essential_part(mono, spectrum)
    # json.dumps with indent runs CPython's pure-Python encoder, one call per
    # value of a document that holds thousands of provenance entries, and a
    # dict per record costs the CSV more than writing it: json.dumps lays out
    # only the document's frame, and the records of either format are written
    # from one set of per-record texts, a block of records at a time, each chunk
    # written out before the next is made
    _emit(_exact_document(args.format, sym.to_expression(), mono, args.cap, spectrum, essential), args.out)
    return 0


def cmd_approx(args) -> int:
    """Eigenvalues of the float compression, and the matrix dump with --dump-matrix.

    The basis budget (BasisTruncation's) and the dump budget are checked before
    any assembly and before PATH is opened."""
    _bind("galerkin")
    _check_caps(args.degree)
    sym = parse_symbol(args.symbol, dim=args.dim)
    float_sym = sym.as_float()  # a coefficient too large for floats is reported before the budgets
    trunc = BasisTruncation(args.degree, sym.dim)
    if args.dump_matrix:
        _check_dump_size(trunc.size)
    mat = assemble(float_sym, trunc)
    w = eigenvalues(mat)
    if args.dump_matrix:
        if sym.is_exact:
            # dump format v1 stores the exact scaled Gram matrix for exact symbols
            mat = assemble(sym, trunc)
        with open(args.dump_matrix, "w") as fh:
            dump_matrix(mat, fh)
    obj = {
        "command": "approx",
        "symbol": str(sym),
        "dim": sym.dim,
        "degree_cap": args.degree,
        "inner_caps": list(default_inner_caps(sym, trunc)),
        "basis_size": mat.size,
        "exactness": "rational" if sym.is_exact else "float",
        "note": f"compression spectrum at N={args.degree}; approximates the operator spectrum",
        "eigenvalues": w.tolist(),
    }
    if args.format == "csv":
        rows = [[i, repr(float(x))] for i, x in enumerate(w)]
        _emit(_csv_text(["index", "eigenvalue"], rows), args.out)
    else:
        _emit(_json_dump(obj), args.out)
    return 0


def cmd_boundary(args) -> int:
    """Check the flags, then print the document of boundary_report, which decides the prediction."""
    _bind("galerkin", "boundary")
    _check_caps(args.degree)
    samples = DEFAULT_SAMPLES if args.samples is None else args.samples
    if samples < 4:
        raise ValueError("samples must be >= 4")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be <= {MAX_SAMPLES}")
    sym = parse_symbol(args.symbol, dim=args.dim)
    if sym.dim < 2:
        raise ValueError("boundary analysis needs dim >= 2")
    coord = args.coord if args.coord is not None else sym.dim
    if not 1 <= coord <= sym.dim:
        raise ValueError(f"--coord must lie in 1..{sym.dim}")
    report = boundary_report(sym, coord, samples, BasisTruncation(args.degree, sym.dim))
    if args.format == "csv":
        rows = [[repr(s["theta"]), repr(s["lambda_q"])] for s in report["profile"]["samples"]]
        _emit(_csv_text(["theta", "lambda_q"], rows), args.out)
    else:
        _emit(_json_dump({"command": "boundary", "symbol": str(sym), "dim": sym.dim, "coord": coord} | report), args.out)
    return 0


def cmd_verify(args) -> int:
    _bind("verify")
    report = run_verify(args.suite)
    _emit(json.dumps(report, sort_keys=True, indent=2), args.out)
    return 0 if report["passed"] else 1


_SYMBOL_COMMANDS = ("exact", "approx", "boundary")
# "-", then what a term can start with, and not a negative number (argparse
# takes those as positionals already)
_DASHED_SYMBOL = re.compile(r"-(?!\d+$|\d*\.\d+$)[zi\d(]")


def _dashed_symbols_last(argv: list[str]) -> list[str]:
    """argv with symbol texts that start with "-" moved behind a "--".

    argparse reads "-zb1*zb2", which PolySymbol.to_expression writes, as an
    unknown option.  After "--" every token is a positional; -h, the "--"
    flags and any other "-x" are left where they are, and so is an argv that
    has its own "--".
    """
    if not argv or argv[0] not in _SYMBOL_COMMANDS or "--" in argv:
        return argv
    dashed = [a for a in argv[1:] if _DASHED_SYMBOL.match(a)]
    if not dashed:
        return argv
    return [a for a in argv if not _DASHED_SYMBOL.match(a)] + ["--"] + dashed


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors reach main's error path: one error line, exit 2."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every main call in this process, built by the first.

    It holds no per-call state: each parse makes a fresh Namespace, and
    _Parser.error raises into main's error path."""
    parser = _Parser(
        prog="hankel-spectra",
        description="Spectra of Hermitian squares of Hankel operators on the polydisc Bergman space",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--cap": dict(type=int, default=6, help="alpha enumeration cap"),
        "--degree": dict(type=int, default=8, help="Galerkin degree cap N"),
        "--dim": dict(type=int, default=None, help="force ambient dimension"),
        # None: cmd_boundary's DEFAULT_SAMPLES, which the parser must not import boundary for
        "--samples": dict(type=int, default=None, help="boundary circle samples"),
        "--format": dict(choices=("json", "csv"), default="json"),
        "--out": dict(default=None, help="output path (default stdout)"),
        "--dump-matrix": dict(default=None, help="write the matrix dump here"),
        "--coord": dict(type=int, default=None, help="coordinate to slice (1-based)"),
        "--suite": dict(default=None, help="run a single named suite"),
    }

    # each subcommand registers only the flags it reads
    def command(name, func, help, *flags):
        p = sub.add_parser(name, help=help)
        if name in _SYMBOL_COMMANDS:
            p.add_argument("symbol")
        for flag in flags:
            p.add_argument(flag, **options[flag])
        p.set_defaults(func=func)

    command("exact", cmd_exact, "exact spectrum for a monomial symbol", "--cap", "--dim", "--format", "--out")
    command(
        "approx", cmd_approx, "Galerkin compression spectrum",
        "--degree", "--dim", "--format", "--out", "--dump-matrix",
    )
    command(
        "boundary", cmd_boundary, "slice norms and essential-set prediction",
        "--degree", "--dim", "--samples", "--format", "--out", "--coord",
    )
    command("verify", cmd_verify, "run cross-engine verification suites", "--suite", "--out")

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(_dashed_symbols_last(sys.argv[1:] if argv is None else list(argv)))
        return args.func(args)
    except _StdoutClosed:
        # the recipe of Python's signal docs: stdout at devnull, so that the final flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
