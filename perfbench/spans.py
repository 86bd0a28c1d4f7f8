"""Layer spans for the traced benchmark run, recorded from outside the program.

Tracing wraps the package's public functions where the CLI, boundary and
verify modules look them up (their module globals), plus
``PolySymbol.substitute_coordinate``.  Nothing inside ``src/`` is changed and
an untraced run has no wrappers installed at all.  Spans are kept in memory,
one tuple each, and turned into per-layer metrics when the run ends.

Requests are served one at a time on one thread, so a plain stack gives
every span its parent.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# Span names of the boundary layer; galerkin work under one of them is the
# slice work of a profile or a prediction.
BOUNDARY_SPANS = ("boundary.profile", "boundary.prediction", "boundary.circle_range", "boundary.containment")

# Per-layer metrics the traced run reports, in BENCHMARK.json order.
LAYER_METRICS = (
    "symbols.parse_s",
    "symbols.parse_calls",
    "symbols.substitute_s",
    "symbols.substitute_calls",
    "galerkin.assemble_s",
    "galerkin.assemble_calls",
    "galerkin.assemble_exact_calls",
    "galerkin.basis_rows",
    "galerkin.dense_bytes_computed",
    "galerkin.eigen_s",
    "galerkin.eigen_calls",
    "galerkin.eigen_n3_computed",
    "galerkin.assemble_in_boundary_s",
    "galerkin.eigen_in_boundary_s",
    "galerkin.dump_s",
    "galerkin.dump_bytes",
    "galerkin.toeplitz_s",
    "core.enumerate_s",
    "core.essential_s",
    "core.records",
    "core.lambda_evals_computed",
    "quasihomog.eigen_s",
    "quasihomog.eigen_calls",
    "boundary.profile_self_s",
    "boundary.samples",
    "boundary.circle_range_s",
    "boundary.prediction_self_s",
    "boundary.containment_s",
    "verify.self_s",
    "verify.suites",
    "cli.self_s",
    "cli.output_bytes",
    "cli.requests",
)


class _CountingWriter:
    """File proxy that counts the characters a matrix dump writes."""

    def __init__(self, fileobj):
        self._fileobj = fileobj
        self.count = 0

    def write(self, text: str):
        self.count += len(text)
        return self._fileobj.write(text)


def _lambda_evals(args, kwargs) -> int:
    """Closed-form evaluations an enumeration makes: (cap+2)^dim - 1, or 0 if holomorphic.

    Both enumerations visit every non-empty coordinate subset B with all
    (cap+1)^|B| multi-indices (the essential one trades the full subset for
    its eigenvalue test, which has the same count).
    """
    sym = args[0]
    cap = args[1] if len(args) > 1 else kwargs["alpha_cap"]
    if not any(sym.antiholo):
        return 0
    return (cap + 2) ** len(sym.holo) - 1


def _targets(modules) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, attrs function) for every wrapped callable."""
    cli, boundary, verify, galerkin, symbols = (
        modules["cli"], modules["boundary"], modules["verify"], modules["galerkin"], modules["symbols"],
    )

    def assemble_attrs(args, kwargs, result):
        return {"n": result.size, "exact": result.scaled is not None}

    def eigen_attrs(args, kwargs, result):
        return {"n": args[0].size}

    def enum_attrs(args, kwargs, result):
        return {"records": len(result.records), "lambda_evals": _lambda_evals(args, kwargs)}

    def profile_attrs(args, kwargs, result):
        return {"samples": len(result.values)}

    def verify_attrs(args, kwargs, result):
        return {"suites": len(result["suites"])}

    per_site = {
        "parse_symbol": ("symbols.parse", None),
        "assemble": ("galerkin.assemble", assemble_attrs),
        "eigenvalues": ("galerkin.eigen", eigen_attrs),
        "assemble_via_toeplitz": ("galerkin.toeplitz", None),
        "dump_matrix": ("galerkin.dump", None),
        "enumerate_spectrum": ("core.enumerate", enum_attrs),
        "enumerate_essential_spectrum": ("core.essential", enum_attrs),
        "qh_eigenvalue": ("quasihomog.eigen", None),
        "slice_norm_profile": ("boundary.profile", profile_attrs),
        "product_essential_prediction": ("boundary.prediction", None),
        "circle_abs_sq_range": ("boundary.circle_range", None),
        "containment_report": ("boundary.containment", None),
        "run_verify": ("verify.run", verify_attrs),
    }
    out = []
    # verify's matrix-roundtrip suite imports dump_matrix inside the function,
    # so its import site is the galerkin module attribute itself.
    for module in (cli, boundary, verify, galerkin):
        for attr, (name, attrs) in per_site.items():
            if module is galerkin and attr != "dump_matrix":
                continue
            if hasattr(module, attr):
                out.append((module, attr, name, attrs))
    out.append((symbols.PolySymbol, "substitute_coordinate", "symbols.substitute", None))
    return out


class Tracer:
    """Installs the wrappers, records spans, and aggregates them per layer."""

    def __init__(self, modules):
        self._targets = _targets(modules)
        self._originals: list[tuple[object, str, object]] = []
        self.spans: list[tuple] = []  # (id, parent, name, start, end, request, attrs)
        self._stack: list[int] = []
        self.request = -1  # index of the request being served; spans carry it

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def install(self) -> None:
        if self.installed:
            return
        for owner, attr, name, attrs in self._targets:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attrs))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, fn, name, attrs_fn):
        tracer = self
        dump = name == "galerkin.dump"

        def wrapper(*args, **kwargs):
            if dump:
                writer = _CountingWriter(args[1])
                args = (args[0], writer) + args[2:]
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[span_id] = (span_id, parent, name, start, end, tracer.request, None)
            if dump:
                tracer.set_attrs(span_id, {"bytes": writer.count})
            elif attrs_fn:
                tracer.set_attrs(span_id, attrs_fn(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def request_span(self, fn):
        """Run fn() as the request's root span ``cli.request``; returns (result, span id)."""
        span_id = len(self.spans)
        return self._wrap(fn, "cli.request", None)(), span_id

    def set_attrs(self, span_id: int, attrs: dict) -> None:
        self.spans[span_id] = self.spans[span_id][:6] + (attrs,)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, request, attrs in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "start": start,
                    "end": end, "request": request, "attrs": attrs,
                }) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, _, _, start, end, _, _ in spans]
    for _, parent, _, start, end, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_totals(spans, factors: list[float]) -> dict[str, float]:
    """Per-layer totals over all spans, keyed by the names in LAYER_METRICS.

    Self times are multiplied by their request's speed factor, factors[request].
    """
    own = [t * factors[s[5]] for t, s in zip(self_times(spans), spans)]
    names = [s[2] for s in spans]
    parents = [s[1] for s in spans]

    def under_boundary(i: int) -> bool:
        p = parents[i]
        while p is not None:
            if names[p] in BOUNDARY_SPANS:
                return True
            p = parents[p]
        return False

    t: dict[str, float] = defaultdict(float)
    for i, (_, _, name, _, _, _, attrs) in enumerate(spans):
        attrs = attrs or {}
        if name == "symbols.parse":
            t["symbols.parse_s"] += own[i]
            t["symbols.parse_calls"] += 1
        elif name == "symbols.substitute":
            t["symbols.substitute_s"] += own[i]
            t["symbols.substitute_calls"] += 1
        elif name in ("galerkin.assemble", "galerkin.eigen"):
            short = name.split(".")[1]
            where = "_in_boundary_s" if under_boundary(i) else "_s"
            t[f"galerkin.{short}{where}"] += own[i]
            t[f"galerkin.{short}_calls"] += 1
            n = attrs["n"]
            if short == "assemble":
                t["galerkin.assemble_exact_calls"] += attrs["exact"]
                t["galerkin.basis_rows"] += n
                t["galerkin.dense_bytes_computed"] += 16 * n * n
            else:
                t["galerkin.eigen_n3_computed"] += n**3
        elif name == "galerkin.dump":
            t["galerkin.dump_s"] += own[i]
            t["galerkin.dump_bytes"] += attrs["bytes"]
        elif name == "galerkin.toeplitz":
            t["galerkin.toeplitz_s"] += own[i]
        elif name in ("core.enumerate", "core.essential"):
            t[f"{name}_s"] += own[i]
            t["core.records"] += attrs["records"]
            t["core.lambda_evals_computed"] += attrs["lambda_evals"]
        elif name == "quasihomog.eigen":
            t["quasihomog.eigen_s"] += own[i]
            t["quasihomog.eigen_calls"] += 1
        elif name == "boundary.profile":
            t["boundary.profile_self_s"] += own[i]
            t["boundary.samples"] += attrs["samples"]
        elif name == "boundary.prediction":
            t["boundary.prediction_self_s"] += own[i]
        elif name in ("boundary.circle_range", "boundary.containment"):
            t[f"{name}_s"] += own[i]
        elif name == "verify.run":
            t["verify.self_s"] += own[i]
            t["verify.suites"] += attrs["suites"]
        elif name == "cli.request":
            t["cli.self_s"] += own[i]
            t["cli.requests"] += 1
            t["cli.output_bytes"] += attrs["output_bytes"]
    return {m: float(t.get(m, 0.0)) for m in LAYER_METRICS}
