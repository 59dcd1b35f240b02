"""The traced run's layer boundaries and the per-layer metrics.

:func:`install` patches each layer's public entry points at the names
their callers look up; :func:`metrics` turns the recorded spans and
counters into the per-layer metrics named in ``BENCHMARK.json``.  Every
traced run reports every metric: a layer the workload never enters
reads 0, which is the "must not move" prediction for that workload.

Times and counts are per round (one sweep, one request or one drain),
averaged over the run's rounds, so runs that complete different
numbers of rounds compare directly.
"""

from __future__ import annotations

from common import percentile
from spans import Tracer, layer_summary

#: Per-layer metric name -> (unit, better).  The order is the report's.
METRICS = {
    "analyzer.busy_s": ("s", "lower"),
    "analyzer.self_s": ("s", "lower"),
    "analyzer.paths": ("count", "lower"),
    "solver.busy_s": ("s", "lower"),
    "solver.calls": ("count", "lower"),
    "solver.decisions": ("count", "lower"),
    "solver.cache_hit_frac": ("ratio", "higher"),
    "testgen.busy_s": ("s", "lower"),
    "testgen.self_s": ("s", "lower"),
    "testgen.enumerate_s": ("s", "lower"),
    "testgen.cases": ("count", "lower"),
    "mtrace.busy_s.mono": ("s", "lower"),
    "mtrace.busy_s.scalefs": ("s", "lower"),
    "mtrace.runs": ("count", "lower"),
    "mtrace.conflicts_s": ("s", "lower"),
    "mtrace.mem_accesses": ("count", "lower"),
    "cache.fingerprint_s": ("s", "lower"),
    "cache.fingerprint_calls": ("count", "lower"),
    "cache.hit_frac": ("ratio", "higher"),
    "cache.save_s": ("s", "lower"),
    "cache.saves": ("count", "lower"),
    "sweep.self_s": ("s", "lower"),
    "store.lookup_s": ("s", "lower"),
    "store.put_s": ("s", "lower"),
    "store.hit_frac": ("ratio", "higher"),
    "service.submit_ms": ("ms", "lower"),
    "service.first_event_ms": ("ms", "lower"),
    "service.queue_wait_ms": ("ms", "lower"),
    "service.run_ms": ("ms", "lower"),
    "service.artifact_get_ms": ("ms", "lower"),
    "cluster.join_s": ("s", "lower"),
    "cluster.batch_s": ("s", "lower"),
    "cluster.close_s": ("s", "lower"),
    "cluster.first_result_s": ("s", "lower"),
    "cluster.worker_busy_s": ("s", "lower"),
    "cluster.utilization": ("ratio", "higher"),
    "cluster.jobs_requeued": ("count", "lower"),
    "cluster.duplicate_results": ("count", "lower"),
    "trace.pairs_per_s": ("1/s", "higher"),
    "trace.uncovered_frac": ("ratio", "lower"),
}


def _kernel_span(args, result) -> str:
    # MtraceResult.kernel_name is the kernel's display name,
    # e.g. "scalefs (sv6-like)".
    return "mtrace." + result.kernel_name.split()[0]


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the in-process workloads cross."""
    import repro.mtrace.runner as runner
    import repro.pipeline.jobs as jobs
    import repro.pipeline.sweep as sweep
    import repro.service.jobs as service_jobs
    import repro.testgen.testgen as testgen
    from repro.cluster.coordinator import Coordinator
    from repro.pipeline.cache import ResultCache
    from repro.service.store import ArtifactStore
    from repro.symbolic.solver import Solver

    count = tracer.count

    def analyzed(args, pair):
        count("analyzer.paths", len(pair.paths))
        stats = pair.solver_stats
        count("solver.decisions", stats.get("decisions", 0))
        count("solver.checks", stats.get("checks", 0))
        count("solver.cache_hits", stats.get("cache_hits", 0))

    def generated(args, cases):
        count("testgen.cases", len(cases))

    def traced_case(args, result):
        count("mtrace.mem_accesses", (result.cost or {}).get("mem_accesses", 0))

    def cache_get(args, cell):
        count("cache.hits" if cell is not None else "cache.misses")

    def store_lookup(args, digest):
        count("store.hits" if digest is not None else "store.misses")

    tracer.patch(jobs, "analyze_pair", "analyzer", analyzed)
    tracer.patch(jobs, "generate_for_pair", "testgen", generated)
    tracer.patch(testgen, "enumerate_models", "testgen.enumerate")
    for method in ("check", "check_asserted", "model"):
        tracer.patch(Solver, method, "solver")
    tracer.patch(jobs, "run_testcase", _kernel_span, traced_case)
    tracer.patch(runner, "find_conflicts", "mtrace.conflicts")
    for module in (sweep, service_jobs):
        tracer.patch(module, "job_fingerprint", "cache.fingerprint")
    tracer.patch(ResultCache, "get", "cache.get", cache_get)
    tracer.patch(ResultCache, "save", "cache.save")
    tracer.patch(sweep, "execute_jobs", "sweep")
    tracer.patch(ArtifactStore, "lookup", "store.lookup", store_lookup)
    tracer.patch(ArtifactStore, "put", "store.put")
    # The coordinator side of a drain: spawned workers joining, the
    # dispatch loop, and teardown.
    tracer.patch(Coordinator, "wait_for_workers", "cluster.join")
    tracer.patch(Coordinator, "run_batch", "cluster.batch")
    tracer.patch(Coordinator, "close", "cluster.close")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def metrics(tracer: Tracer, outcome) -> dict:
    """Every per-layer metric for one traced run (see :data:`METRICS`)."""
    layers = layer_summary(tracer.spans)
    counters = tracer.counters
    rounds = max(1, len(outcome.rounds))

    def busy(name):
        return layers.get(name, {}).get("busy", 0.0) / rounds

    def self_time(name):
        return layers.get(name, {}).get("self", 0.0) / rounds

    def calls(name):
        return layers.get(name, {}).get("calls", 0) / rounds

    values = {
        "analyzer.busy_s": busy("analyzer"),
        "analyzer.self_s": self_time("analyzer"),
        "analyzer.paths": counters["analyzer.paths"] / rounds,
        "solver.busy_s": busy("solver"),
        "solver.calls": calls("solver"),
        "solver.decisions": counters["solver.decisions"] / rounds,
        "solver.cache_hit_frac": _ratio(
            counters["solver.cache_hits"],
            counters["solver.cache_hits"] + counters["solver.checks"],
        ),
        "testgen.busy_s": busy("testgen"),
        "testgen.self_s": self_time("testgen"),
        "testgen.enumerate_s": busy("testgen.enumerate"),
        "testgen.cases": counters["testgen.cases"] / rounds,
        "mtrace.busy_s.mono": busy("mtrace.mono"),
        "mtrace.busy_s.scalefs": busy("mtrace.scalefs"),
        "mtrace.runs": (calls("mtrace.mono") + calls("mtrace.scalefs")),
        "mtrace.conflicts_s": busy("mtrace.conflicts"),
        "mtrace.mem_accesses": counters["mtrace.mem_accesses"] / rounds,
        "cache.fingerprint_s": busy("cache.fingerprint"),
        "cache.fingerprint_calls": calls("cache.fingerprint"),
        "cache.hit_frac": _ratio(
            counters["cache.hits"],
            counters["cache.hits"] + counters["cache.misses"],
        ),
        "cache.save_s": busy("cache.save"),
        "cache.saves": calls("cache.save"),
        "sweep.self_s": self_time("sweep"),
        "store.lookup_s": busy("store.lookup"),
        "store.put_s": busy("store.put"),
        "store.hit_frac": _ratio(
            counters["store.hits"],
            counters["store.hits"] + counters["store.misses"],
        ),
        "cluster.join_s": busy("cluster.join"),
        "cluster.batch_s": busy("cluster.batch"),
        "cluster.close_s": busy("cluster.close"),
        "trace.pairs_per_s": _ratio(outcome.pairs, outcome.elapsed),
        "trace.uncovered_frac": _ratio(self_time("bench.round"),
                                       busy("bench.round")),
    }
    for name in ("submit", "first_event", "queue_wait", "run", "artifact_get"):
        samples = outcome.layers.get(f"service.{name}_ms", [])
        values[f"service.{name}_ms"] = percentile(samples, 50) if samples else 0.0
    for name in METRICS:
        if name.startswith("cluster.") and name not in values:
            values[name] = outcome.layers.get(name, 0.0)
    return {name: values[name] for name in METRICS}
