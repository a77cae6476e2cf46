"""Span recording for the traced run, and the per-layer metrics it yields.

The traced run rebinds each layer's public functions, in every
``mdp_workbench`` module that refers to them, to timing wrappers defined
here, and puts the originals back afterwards; no program file is edited.
Each call becomes a span: name, start, end, parent span and job id, kept in
memory and written out when the run ends.  A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass
from time import perf_counter_ns

# (module, function) pairs wrapped in the traced run, layer by layer.
TRACED = (
    ("exact", "lp_optimize"),
    ("exact", "solve_linear_system"),
    ("metrics", "make_metric"),
    ("metrics", "metric_from_json"),
    ("mechanisms", "to_hyper"),
    ("mechanisms", "from_hyper"),
    ("mechanisms", "check_dx_private"),
    ("geometry", "build_constraints"),
    ("geometry", "enumerate_vertices"),
    ("geometry", "enumerate_kernels"),
    ("geometry", "anti_refine"),
    ("analysis", "posterior_uncertainty"),
    ("analysis", "refines"),
    ("analysis", "type_capacity_lp"),
    ("analysis", "type_capacity_closed_form"),
    ("optimality", "check_universal_l_optimal"),
    ("optimality", "impossibility_sweep"),
    ("optimality", "min_pair_mechanism"),
    ("cli", "main"),
    ("cache", "load"),
    ("cache", "store"),
)

# Per-layer metrics: name -> (unit, better, end-to-end metrics it should
# move, workload where it should show).  BENCHMARK.json lists the same names.
LAYER_METRICS = {
    "exact.lp_optimize.calls": ("count", "lower", "jobs_per_s, job_p50_ms", "verdict-stream (0 on enum-tables)"),
    "exact.lp_optimize.self_ms": ("ms", "lower", "jobs_per_s, job_p50_ms", "verdict-stream"),
    "exact.lp_optimize.ms_per_call": ("ms", "lower", "jobs_per_s, job_p50_ms", "verdict-stream"),
    "exact.lp_optimize.size_mean": ("count", "lower", "job_p90_ms", "capacity-lp"),
    "exact.lp_optimize.result_bits_max": ("bits", "lower", "job_p90_ms", "capacity-lp"),
    "exact.lp_optimize.infeasible_share": ("ratio", "lower", "jobs_per_s", "verdict-stream"),
    "exact.solve_linear_system.calls": ("count", "lower", "jobs_per_s", "enum-tables"),
    "exact.solve_linear_system.self_ms": ("ms", "lower", "jobs_per_s", "enum-tables"),
    "geometry.enumerate_vertices.self_ms": ("ms", "lower", "jobs_per_s, job_p90_ms", "enum-tables; setup_s on verdict-stream"),
    "geometry.enumerate_kernels.self_ms": ("ms", "lower", "jobs_per_s, job_p90_ms", "enum-tables; setup_s on verdict-stream"),
    "geometry.kernels_per_s": ("1/s", "higher", "jobs_per_s, job_p90_ms", "enum-tables"),
    "geometry.anti_refine.self_ms": ("ms", "lower", "job_p50_ms", "capacity-lp"),
    "analysis.type_capacity_lp.self_ms": ("ms", "lower", "job_p90_ms", "capacity-lp"),
    "analysis.type_capacity_lp.lp_rounds": ("count", "lower", "job_p90_ms", "capacity-lp"),
    "analysis.refines.self_ms": ("ms", "lower", "job_p50_ms", "capacity-lp, cli-cached"),
    "analysis.posterior_uncertainty.calls": ("count", "lower", "jobs_per_s", "verdict-stream"),
    "analysis.posterior_uncertainty.self_ms": ("ms", "lower", "jobs_per_s", "verdict-stream"),
    "optimality.check_universal_l_optimal.self_ms": ("ms", "lower", "jobs_per_s, job_p90_ms", "verdict-stream"),
    "optimality.cells_per_job": ("count", "lower", "jobs_per_s, job_p90_ms", "verdict-stream"),
    "mechanisms.from_hyper.calls": ("count", "lower", "job_p50_ms, peak_rss_mb", "verdict-stream"),
    "mechanisms.from_hyper.self_ms": ("ms", "lower", "job_p50_ms, peak_rss_mb", "verdict-stream"),
    "mechanisms.to_hyper.self_ms": ("ms", "lower", "job_p50_ms", "cli-cached"),
    "mechanisms.check_dx_private.self_ms": ("ms", "lower", "job_p50_ms", "cli-cached"),
    "metrics.make_metric.calls": ("count", "lower", "setup_s; job_p50_ms", "all; cli-cached"),
    "metrics.make_metric.self_ms": ("ms", "lower", "setup_s; job_p50_ms", "all; cli-cached"),
    "cli.main.self_ms": ("ms", "lower", "job_p50_ms", "cli-cached"),
    "cache.load.self_ms": ("ms", "lower", "job_p50_ms, jobs_per_s", "cli-cached"),
    "cache.store.self_ms": ("ms", "lower", "job_p50_ms, jobs_per_s", "cli-cached"),
    "cache.hit_share": ("ratio", "higher", "job_p50_ms, jobs_per_s", "cli-cached"),
    "trace.untraced_jobs_per_s": ("jobs/s", "higher", "tracing overhead", "all"),
    "trace.traced_jobs_per_s": ("jobs/s", "higher", "tracing overhead", "all"),
    "trace.overhead_jobs_per_s": ("jobs/s", "higher", "tracing overhead (traced - untraced)", "all"),
    "trace.spans_per_job": ("count", "lower", "tracing overhead", "all"),
}


@dataclass
class Span:
    sid: int
    parent: "int | None"
    name: str
    job: "int | None"
    start: int  # ns
    end: int  # ns
    attrs: "dict | None" = None


def _lp_attrs(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    rows = len(problem.eq_rows) + len(problem.ub_rows)
    attrs = {"size": rows * len(problem.objective), "bits": 0}
    if hasattr(result, "point"):
        attrs["bits"] = max(
            v.denominator.bit_length() for v in (result.value, *result.point)
        )
    else:
        attrs["status"] = repr(result)
    return attrs


ANNOTATE = {
    "exact.lp_optimize": _lp_attrs,
    "geometry.enumerate_kernels": lambda a, k, r: {"count": len(r)},
    "cache.load": lambda a, k, r: {"hit": r is not None},
}


class Recorder:
    """Keeps spans in memory; ``job`` tags every span opened meanwhile."""

    def __init__(self):
        self.spans: list = []
        self.job = None
        self._stack: list = []

    def wrap(self, name: str, fn):
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            start = perf_counter_ns()
            result = returned = None
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                attrs = annotate(args, kwargs, result) if annotate and returned else None
                self.spans[sid] = Span(sid, parent, name, self.job, start, end, attrs)

        return traced

    def install(self, package: str = "mdp_workbench"):
        """Rebind every reference to a traced function inside the package;
        returns a callable that restores the originals."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        undo = []
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))

        def restore():
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

        return restore

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps([s.sid, s.parent, s.name, s.job, s.start, s.end, s.attrs]))
                handle.write("\n")


def self_times(spans) -> list:
    """Self time (ns) of each span: its duration minus the union of its
    children's intervals, clipped to its own."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for s in spans:
        covered = 0
        cur_start = cur_end = None
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s.end - s.start - covered)
    return out


def layer_metrics(spans, jobs: int) -> dict:
    """Every LAYER_METRICS entry except the trace.* ones, per job unless the
    name says otherwise."""
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    calls: dict = {}
    self_ns: dict = {}
    total_ns: dict = {}
    for s, t in zip(spans, own):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_ns[s.name] = self_ns.get(s.name, 0) + t
        total_ns[s.name] = total_ns.get(s.name, 0) + s.end - s.start

    def per_job(value):
        return value / jobs

    def ms(name):
        return per_job(self_ns.get(name, 0) / 1e6)

    lps = [s for s in spans if s.name == "exact.lp_optimize" and s.attrs]
    n_lp = len(lps)

    def lp_children_of(parent_name):
        return sum(
            1 for s in lps
            if s.parent is not None and by_id[s.parent].name == parent_name
        )

    n_cap = calls.get("analysis.type_capacity_lp", 0)
    loads = [s for s in spans if s.name == "cache.load" and s.attrs]
    kernels_made = sum(
        s.attrs["count"] for s in spans if s.name == "geometry.enumerate_kernels" and s.attrs
    )
    kernel_s = total_ns.get("geometry.enumerate_kernels", 0) / 1e9

    return {
        "exact.lp_optimize.calls": per_job(n_lp),
        "exact.lp_optimize.self_ms": ms("exact.lp_optimize"),
        "exact.lp_optimize.ms_per_call": self_ns.get("exact.lp_optimize", 0) / 1e6 / n_lp if n_lp else 0.0,
        "exact.lp_optimize.size_mean": sum(s.attrs["size"] for s in lps) / n_lp if n_lp else 0.0,
        "exact.lp_optimize.result_bits_max": max((s.attrs["bits"] for s in lps), default=0),
        "exact.lp_optimize.infeasible_share": (
            sum(1 for s in lps if s.attrs.get("status") == "LP_INFEASIBLE") / n_lp if n_lp else 0.0
        ),
        "exact.solve_linear_system.calls": per_job(calls.get("exact.solve_linear_system", 0)),
        "exact.solve_linear_system.self_ms": ms("exact.solve_linear_system"),
        "geometry.enumerate_vertices.self_ms": ms("geometry.enumerate_vertices"),
        "geometry.enumerate_kernels.self_ms": ms("geometry.enumerate_kernels"),
        "geometry.kernels_per_s": kernels_made / kernel_s if kernel_s else 0.0,
        "geometry.anti_refine.self_ms": ms("geometry.anti_refine"),
        "analysis.type_capacity_lp.self_ms": ms("analysis.type_capacity_lp"),
        "analysis.type_capacity_lp.lp_rounds": lp_children_of("analysis.type_capacity_lp") / n_cap if n_cap else 0.0,
        "analysis.refines.self_ms": ms("analysis.refines"),
        "analysis.posterior_uncertainty.calls": per_job(calls.get("analysis.posterior_uncertainty", 0)),
        "analysis.posterior_uncertainty.self_ms": ms("analysis.posterior_uncertainty"),
        "optimality.check_universal_l_optimal.self_ms": ms("optimality.check_universal_l_optimal"),
        "optimality.cells_per_job": per_job(lp_children_of("optimality.check_universal_l_optimal")),
        "mechanisms.from_hyper.calls": per_job(calls.get("mechanisms.from_hyper", 0)),
        "mechanisms.from_hyper.self_ms": ms("mechanisms.from_hyper"),
        "mechanisms.to_hyper.self_ms": ms("mechanisms.to_hyper"),
        "mechanisms.check_dx_private.self_ms": ms("mechanisms.check_dx_private"),
        "metrics.make_metric.calls": per_job(calls.get("metrics.make_metric", 0)),
        "metrics.make_metric.self_ms": ms("metrics.make_metric"),
        "cli.main.self_ms": ms("cli.main"),
        "cache.load.self_ms": ms("cache.load"),
        "cache.store.self_ms": ms("cache.store"),
        "cache.hit_share": sum(1 for s in loads if s.attrs["hit"]) / len(loads) if loads else 0.0,
    }
