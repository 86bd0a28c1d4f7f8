"""Benchmark of the hankel-spectra CLI: seeded closed-loop workloads.

    python3 perfbench/run.py --workload galerkin --seed 1 --seconds 30 --trace 0

Run it from a checkout of the repository; it imports the package from
``src/`` and exits with code 2 when there is none.

Load model: one client, one request at a time (a closed loop).  The client is
this process; the program runs in a fresh worker process (worker.py) that
imports hankel_spectra once and serves each request in-process through
``hankel_spectra.cli.main``.  BLAS keeps its default thread count and
``HANKEL_SPECTRA_THREADS`` is removed from the worker's environment.

A workload is a cycle of requests (workloads.py).  After a warm-up cycle of
the same families at tiny sizes, the client sends round(seconds / CYCLE_S)
whole cycles, about ``--seconds`` of wall time on the host the benchmark was
written on.  Every output is checked (checks.py); references are computed
before the timed loop.

``--trace 0`` reports the end-to-end metrics.  Times are speed-normalised:
scaled to a machine on which a fixed probe kernel, timed around every request
and set-up sample, takes CAL_NOMINAL_S (see worker.py for why); the raw
figures are in the detail line.

- throughput_rps: requests that passed their check per second of request
  time (the client's check time between requests is excluded).
- latency_p50_s: median request latency.
- latency_tail_s: the highest percentile with at least 10 requests beyond it;
  the percentile and the sample count are in the detail line.
- setup_s: median over fresh processes of the time to import hankel_spectra
  (numpy included); the workload process is one of them.
- peak_rss_mb: peak resident memory of the workload process.

``--trace 1`` alternates untraced and traced cycles and reports per-layer
totals per traced cycle (spans.py, times normalised the same way), plus the
tracing overhead: traced minus untraced request time per cycle.

stdout carries a detail line (environment, failures, tail percentile, ...)
and, last, the result line:
``{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value", "unit"}}}``.
``failed / attempted`` is the workload's failed fraction; a request fails when
it exits non-zero or its output check fails.  Detail lines and span files are
also written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import CAL_NOMINAL_S, speed_factors

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
SETUP_SAMPLES = 9  # fresh-process imports behind setup_s, the workload process included
DEADLINE_S = 170.0  # the worker is killed after this, so a hung program cannot hang the run
OVERTIME = 3  # a run stops early, at a cycle's end, after OVERTIME x --seconds
TAIL_BEYOND = 10

UNITS = {"throughput_rps": "1/s", "peak_rss_mb": "MB", "trace.overhead_frac": "fraction"}  # else _unit()


class WorkerError(RuntimeError):
    pass


class Worker:
    """The program process, spoken to over its stdin and stdout."""

    def __init__(self):
        env = dict(os.environ)
        env.pop("HANKEL_SPECTRA_THREADS", None)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            ready = self._read_header()
        except WorkerError:
            self.close()
            raise
        self.setup = (ready["setup_s"], ready["cal_s"])

    def _send(self, msg: dict) -> None:
        self.proc.stdin.write(json.dumps(msg).encode() + b"\n")
        self.proc.stdin.flush()

    def _read_header(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError(f"worker exited (code {self.proc.poll()})")
        return json.loads(line)

    def request(self, argv: list[str]) -> tuple[dict, str]:
        self._send({"op": "run", "argv": argv})
        header = self._read_header()
        data = self.proc.stdout.read(header["nbytes"])
        if len(data) != header["nbytes"]:
            raise WorkerError("worker closed its output mid-reply")
        return header, data.decode()

    def trace(self, on: bool) -> None:
        self._send({"op": "trace", "on": on})
        self._read_header()

    def finish(self, spans_path: Path | None) -> dict:
        self._send({"op": "finish", "spans": str(spans_path) if spans_path else None})
        return self._read_header()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()

    def close(self) -> None:
        self.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except BrokenPipeError:
                pass


def setup_samples(count: int) -> list[tuple[float, float]]:
    """(import time of hankel_spectra, cal_s) in `count` fresh processes."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise WorkerError(proc.stderr.strip() or f"setup exited {proc.returncode}")
        sample = json.loads(proc.stdout)
        out.append((sample["setup_s"], sample["cal_s"]))
    return out


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(0, n - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / n


def references(cycle, cache: Path) -> dict:
    """Reference spectra of the cycle's Galerkin requests, cached per workload and seed."""
    import numpy as np

    from checks import reference_spectrum

    keys = {r.key: r for r in cycle if r.kind in ("approx", "boundary")}
    if cache.is_file():
        with open(cache) as fh:
            stored = json.load(fh)
        if stored.keys() == keys.keys():
            return {k: np.array(v) for k, v in stored.items()}
    refs = {k: reference_spectrum(r) for k, r in keys.items()}
    with open(cache, "w") as fh:
        json.dump({k: v.tolist() for k, v in refs.items()}, fh)
    return refs


def run_cycles(worker: Worker, cycle, refs: dict, cycles: int, limit_s: float, trace: bool, check) -> list[dict]:
    """Send `cycles` whole cycles, fewer if `limit_s` of wall time pass; one record per request.

    With trace, odd cycles are traced and cycles come in (untraced, traced) pairs.
    """
    records = []
    start = time.perf_counter()
    index = 0
    step = 2 if trace else 1
    while index < cycles:
        traced = trace and index % 2 == 1
        if trace:
            worker.trace(traced)
        for req in cycle:
            header, text = worker.request(req.argv)
            reason = check(req, header["rc"], text, refs.get(req.key))
            if reason and header["stderr"]:
                reason += " | stderr: " + header["stderr"].strip().splitlines()[-1]
            records.append({
                "cycle": index, "traced": traced, "raw_s": header["latency_s"],
                "cal_s": header["cal_s"], "failure": reason, "argv": req.argv,
            })
        index += 1
        if index % step == 0 and time.perf_counter() - start > limit_s:
            break
    for r, factor in zip(records, speed_factors([r["cal_s"] for r in records])):
        r["latency_s"] = r["raw_s"] * factor
    return records


def _timings(lat: list[float], passed: int, setups: list[float]) -> dict:
    tail_value, _ = tail(lat)
    return {
        "throughput_rps": passed / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail_value,
        "setup_s": statistics.median(setups),
    }


def end_to_end(records: list[dict], setups, peak_rss_mb: float) -> tuple[dict, dict]:
    passed = sum(r["failure"] is None for r in records)
    lat = [r["latency_s"] for r in records]
    metrics = _timings(lat, passed, [s * CAL_NOMINAL_S / c for s, c in setups])
    metrics["peak_rss_mb"] = peak_rss_mb
    raw = _timings([r["raw_s"] for r in records], passed, [s for s, _ in setups])
    cycles: dict[int, float] = {}
    for r in records:
        cycles[r["cycle"]] = cycles.get(r["cycle"], 0.0) + r["latency_s"]
    return metrics, {
        "latency_tail_percentile": tail(lat)[1],
        "latency_samples": len(lat),
        "cycle_seconds": list(cycles.values()),
        "raw_seconds_metrics": raw,
        "speed_factor_median": statistics.median(
            r["latency_s"] / r["raw_s"] for r in records
        ),
    }


def per_layer(records: list[dict], layers: dict) -> tuple[dict, dict]:
    cycles = {}
    for r in records:
        cycles.setdefault((r["cycle"], r["traced"]), []).append(r["latency_s"])
    traced = [sum(v) for (c, t), v in cycles.items() if t]
    untraced = [sum(v) for (c, t), v in cycles.items() if not t]
    metrics = {name: value / len(traced) for name, value in layers.items()}
    overhead = statistics.mean(traced) - statistics.mean(untraced)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / statistics.mean(untraced)
    return metrics, {"traced_cycles": len(traced), "untraced_cycles": len(untraced)}


def run(workload: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False, check=None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail line)."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import checks
    from spans import LAYER_METRICS
    from workloads import CYCLE_S, generate

    check = check or checks.check
    dumps = SCRATCH / "dumps"
    cycle = generate(workload, seed, str(dumps), tiny=tiny)
    warmup = generate(workload, seed, str(dumps), tiny=True)
    for sub in ("dumps", "refs", "results", "trace"):
        (SCRATCH / sub).mkdir(parents=True, exist_ok=True)
    refs = references(cycle, SCRATCH / "refs" / f"{workload}-seed{seed}{'-tiny' if tiny else ''}.json")
    setups = [] if trace else setup_samples(1 if tiny else SETUP_SAMPLES - 1)

    worker = Worker()
    watchdog = threading.Timer(DEADLINE_S, worker.kill)
    watchdog.daemon = True
    watchdog.start()
    try:
        for req in warmup:
            worker.request(req.argv)
        cycles = max(1, round(seconds / CYCLE_S[workload]))
        if trace:
            cycles = 2 * max(1, round(cycles / 2))
        records = run_cycles(worker, cycle, refs, cycles, OVERTIME * seconds, trace, check)
        spans_path = SCRATCH / "trace" / f"{workload}-seed{seed}.jsonl" if trace else None
        final = worker.finish(spans_path)
    finally:
        watchdog.cancel()
        worker.close()

    setups.append(worker.setup)
    if trace:
        metrics, extra = per_layer(records, final["layers"])
        names = list(LAYER_METRICS) + ["trace.overhead_s", "trace.overhead_frac"]
    else:
        metrics, extra = end_to_end(records, setups, final["peak_rss_mb"])
        names = list(metrics)
    failures = [r for r in records if r["failure"]]
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n], "unit": UNITS.get(n, _unit(n))} for n in names},
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "cycle_requests": len(cycle),
        "cycles": 1 + max(r["cycle"] for r in records),
        "failed_frac": len(failures) / len(records),
        "failures": [{"argv": r["argv"], "reason": r["failure"]} for r in failures[:5]],
        "setup_samples": [{"setup_s": s, "cal_s": c} for s, c in setups],
        "environment": {**final["env"], "git_commit": git_commit()},
        **extra,
    }
    requests = [{k: r[k] for k in ("cycle", "argv", "latency_s", "raw_s", "failure")} for r in records]
    with open(SCRATCH / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump({"result": result, "detail": detail, "requests": requests}, fh, indent=1)
    return result, detail


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "B" if metric.endswith("bytes") or metric.endswith("bytes_computed") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("galerkin", "boundary", "exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hankel_spectra" / "__init__.py").is_file():
        print(f"run.py: no hankel_spectra package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerError, OSError) as exc:  # worker died, pipe broke, or I/O failed
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
