"""Self-tests of the benchmark, on the tiny version of each workload.

    python3 -m pytest -q perfbench
"""

import json
from fractions import Fraction

import pytest

import checks
from run import run
from spans import LAYER_METRICS
from workloads import WORKLOADS, generate

END_TO_END = ("throughput_rps", "latency_p50_s", "latency_tail_s", "setup_s", "peak_rss_mb")


def test_generator_is_seeded(tmp_path):
    for workload in WORKLOADS:
        a = [r.argv for r in generate(workload, 7, str(tmp_path))]
        b = [r.argv for r in generate(workload, 7, str(tmp_path))]
        c = [r.argv for r in generate(workload, 8, str(tmp_path))]
        assert a == b and a != c


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_clean(workload):
    result, detail = run(workload, 1, 0.2, False, tiny=True)
    assert result["correct"] and result["failed"] == 0 and detail["failed_frac"] == 0
    assert result["attempted"] == detail["latency_samples"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _corrupt_eigenvalue(text: str) -> str:
    obj = json.loads(text)
    obj["eigenvalues"][-1] *= 1 + 1e-6
    return json.dumps(obj)


def _corrupt_rational(text: str) -> str:
    obj = json.loads(text)
    rec = obj["spectrum"]["records"][-1]
    rec["value"] = str(Fraction(rec["value"]) + Fraction(1, 10**9))
    return json.dumps(obj)


@pytest.mark.parametrize(
    "workload, kind, corrupt",
    [("galerkin", "approx", _corrupt_eigenvalue), ("exact", "exact", _corrupt_rational)],
)
def test_corrupted_output_is_counted(workload, kind, corrupt):
    corrupted = []

    def check(req, rc, text, ref=None):
        if req.kind == kind and not corrupted:
            corrupted.append(req.argv)
            text = corrupt(text)
        return checks.check(req, rc, text, ref)

    result, detail = run(workload, 1, 0.2, False, tiny=True, check=check)
    assert corrupted and not result["correct"]
    assert result["failed"] == 1
    assert detail["failed_frac"] == 1 / result["attempted"]
    assert detail["failures"][0]["argv"] == corrupted[0]


@pytest.mark.parametrize(
    "workload, busy",
    [
        ("galerkin", ("galerkin.assemble_s", "galerkin.eigen_s", "galerkin.dump_s", "galerkin.dump_bytes")),
        ("boundary", ("galerkin.assemble_in_boundary_s", "boundary.samples", "symbols.substitute_calls")),
        ("exact", ("core.enumerate_s", "core.lambda_evals_computed", "verify.suites", "cli.output_bytes")),
    ],
)
def test_traced_run_reports_every_layer(workload, busy):
    result, detail = run(workload, 1, 0.2, True, tiny=True)
    assert result["correct"]
    names = list(LAYER_METRICS) + ["trace.overhead_s", "trace.overhead_frac"]
    assert list(result["metrics"]) == names
    assert detail["traced_cycles"] == detail["untraced_cycles"] >= 1
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert all(metrics[n] > 0 for n in busy)
    assert metrics["cli.requests"] == detail["cycle_requests"]
