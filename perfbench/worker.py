"""The benchmark's program process: imports hankel_spectra from the checkout's
``src/`` and serves CLI requests in-process, one at a time.

run.py starts it; it is not meant to be run by hand.

    python3 perfbench/worker.py               serve requests on stdin/stdout
    python3 perfbench/worker.py --setup-only  print the import time and exit

Each request is one JSON line on stdin; each reply is one JSON line on stdout,
followed for ``run`` by the request's output bytes:

    {"op": "run", "argv": [...]}       -> {"rc", "latency_s", "cal_s", "nbytes", "stderr"} + output
    {"op": "trace", "on": true/false}  -> {"tracing": bool}
    {"op": "finish", "spans": path}    -> {"peak_rss_mb", "layers", "env"}, then exit

Latency runs from handing argv to ``cli.main`` until main has written its
output (into an in-memory sink).  ``gc.collect()`` runs before each request,
outside the timed region, so every request starts from the same collector
state, as a fresh CLI process would.

The host this benchmark was written on runs the same Python code up to ~1.7x
slower or faster from one ten-second stretch to the next, because other
machines' work shares its cores.  So every request, and every set-up sample,
also reports ``cal_s``: the time of a fixed pure-Python kernel measured just
before and just after it.  Times are then scaled by ``speed_factors``, i.e. to
a machine on which the kernel takes CAL_NOMINAL_S.

Only os, sys and time are imported before hankel_spectra, so its measured
import time includes every module it pulls in; the rest is imported later.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHUNK = 1 << 20
CAL_NOMINAL_S = 0.002  # about the kernel's time on the host this was written on
CAL_WINDOW = 9  # requests whose cal_s median gives one request's speed factor


def _kernel() -> int:
    """Interpreter, dict and list work like the package's own; builtins only,
    so it can run before the package is imported."""
    table = {}
    x = 1
    for i in range(1, 2000):
        x = (x * 1103515245 + 12345) % 2147483648
        table[(i, x % 97)] = (x >> 3, i * i)
    rows = [[i] * 200 for i in range(200)]
    return sum(r[x % 200] for r in rows) + len(table)


def calibrate() -> float:
    """Median time of five runs of the fixed speed-probe kernel."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[2]


def speed_factors(cals: list[float]) -> list[float]:
    """CAL_NOMINAL_S over the median cal_s of the CAL_WINDOW requests around each one.

    The median over neighbours follows the host's slow drifts but not the
    noise of a single short probe.
    """
    half = CAL_WINDOW // 2
    out = []
    for i in range(len(cals)):
        window = sorted(cals[max(0, i - half):i + half + 1])
        out.append(CAL_NOMINAL_S / window[len(window) // 2])
    return out


def import_package() -> tuple[float, float]:
    """Import hankel_spectra (numpy included) from ROOT/src; returns (seconds, cal_s)."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    cal_before = calibrate()
    start = time.perf_counter()
    import hankel_spectra.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    cal_s = (cal_before + calibrate()) / 2
    origin = os.path.realpath(sys.modules["hankel_spectra"].__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"hankel_spectra was imported from {origin}, not from {src}")
    return elapsed, cal_s


class _Sink:
    """stdout/stderr stand-in that keeps what the program writes."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "HANKEL_SPECTRA_THREADS": os.environ.get("HANKEL_SPECTRA_THREADS"),
    }


def _run(main, argv: list[str], tracer) -> tuple[dict, list]:
    import gc
    import traceback
    from contextlib import redirect_stderr, redirect_stdout

    gc.collect()
    cal_before = calibrate()
    out, err = _Sink(), _Sink()

    def call():
        with redirect_stdout(out), redirect_stderr(err):
            try:
                return main(argv)
            except SystemExit as exc:  # argparse usage errors
                return exc.code
            except Exception:  # a traceback is a failed request, not a dead worker
                err.write(traceback.format_exc())
                return "exception"

    tracer.request += 1
    start = time.perf_counter()
    if tracer.installed:
        rc, span_id = tracer.request_span(call)
    else:
        rc = call()
    latency = time.perf_counter() - start
    cal_s = (cal_before + calibrate()) / 2
    # ASCII text (all JSON output) is sent in slices, without a full-size copy.
    chunks = [p if p.isascii() else p.encode() for p in out.parts]
    nbytes = sum(len(c) for c in chunks)
    if tracer.installed:
        tracer.set_attrs(span_id, {"output_bytes": nbytes})
    header = {
        "rc": rc, "latency_s": latency, "cal_s": cal_s, "nbytes": nbytes,
        "stderr": "".join(err.parts)[-2000:],
    }
    return header, chunks


def serve(setup_s: float, cal_s: float) -> None:
    import json
    import resource

    from hankel_spectra import boundary, cli, galerkin, symbols, verify
    from spans import Tracer, layer_totals

    channel = sys.stdout.buffer
    tracer = Tracer(
        {"cli": cli, "boundary": boundary, "verify": verify, "galerkin": galerkin, "symbols": symbols}
    )

    def reply(obj: dict) -> None:
        channel.write(json.dumps(obj).encode() + b"\n")
        channel.flush()

    reply({"setup_s": setup_s, "cal_s": cal_s})
    cals = []  # cal_s of every request served, warm-up included
    for line in sys.stdin:
        msg = json.loads(line)
        if msg["op"] == "run":
            header, chunks = _run(cli.main, msg["argv"], tracer)
            cals.append(header["cal_s"])
            channel.write(json.dumps(header).encode() + b"\n")
            for chunk in chunks:
                if isinstance(chunk, bytes):
                    channel.write(chunk)
                    continue
                for i in range(0, len(chunk), CHUNK):
                    channel.write(chunk[i:i + CHUNK].encode("ascii"))
            channel.flush()
        elif msg["op"] == "trace":
            tracer.install() if msg["on"] else tracer.uninstall()
            reply({"tracing": tracer.installed})
        elif msg["op"] == "finish":
            tracer.uninstall()
            if tracer.spans and msg.get("spans"):
                tracer.write(msg["spans"])
            reply({
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "layers": layer_totals(tracer.spans, speed_factors(cals)) if tracer.spans else None,
                "env": environment(),
            })
            return


if __name__ == "__main__":
    try:
        setup = import_package()
    except ImportError as exc:
        print(f"worker: cannot import hankel_spectra: {exc}", file=sys.stderr)
        sys.exit(2)
    if sys.argv[1:] == ["--setup-only"]:
        print('{"setup_s": %r, "cal_s": %r}' % setup)
    else:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        serve(*setup)
