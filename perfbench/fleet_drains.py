"""``fleet-drains``: sequential small drains through ``execute_jobs`` on
the ``cluster`` backend with two spawned localhost workers.

Each drain is the 10 ``proc`` pairs at an ncores no drain used before,
so nothing is cached and every drain spawns, handshakes with and tears
down a fresh fleet.  That lifecycle is nearly all of a drain (the pairs
themselves take well under a tenth of a second), so a resident
("warm") fleet or a faster teardown shows here and nowhere else.

Spans do not cross into the worker processes: the cluster metrics come
from coordinator-side ``on_pair`` arrival times, the worker-measured
per-pair seconds, and ``backend_stats``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

from common import Outcome, pair_key, percentile, project_cell, run_until, seeded_order

INTERFACE = "proc"
FLEET_WORKERS = 2
#: Drains take ncores from this range, in seeded order; never the
#: artifact-default 4.
NCORES = list(range(5, 133))


@dataclass
class Context:
    ncores: list
    work: object


def probe(work) -> None:
    """A fresh process's set-up: imports, the backend, the job list."""
    from repro.pipeline import build_pair_jobs, get_backend

    get_backend("cluster", FLEET_WORKERS)
    build_pair_jobs(interface=INTERFACE, ncores=NCORES[0])


def setup(seed: int, work) -> Context:
    return Context(ncores=seeded_order(NCORES, seed, "fleet-drains"), work=work)


def run(ctx: Context, seconds: float, tracer=None) -> Outcome:
    import repro.pipeline.sweep as sweep
    from repro.pipeline import ResultCache, build_pair_jobs, run_sweep

    out = Outcome()
    drained = []
    first_results, busy, walls = [], [], []
    totals = {"jobs_requeued": 0, "duplicate_results": 0}

    def round_fn(index: int) -> None:
        ncores = ctx.ncores[index % len(ctx.ncores)]
        jobs = build_pair_jobs(interface=INTERFACE, ncores=ncores)
        cache = ResultCache(ctx.work / f"fleet-{index}.json")
        arrivals, worker_seconds = [], []
        start = time.perf_counter()

        def on_pair(job, cell, cached, elapsed):
            arrivals.append(time.perf_counter() - start)
            worker_seconds.append(elapsed)

        executed = sweep.execute_jobs(
            jobs, workers=FLEET_WORKERS, backend="cluster", cache=cache,
            on_pair=on_pair,
        )
        walls.append(time.perf_counter() - start)
        first_results.append(min(arrivals))
        busy.append(sum(worker_seconds))
        stats = executed.backend_stats
        for name in totals:
            totals[name] += stats.get(name, 0)
        out.check(executed.computed_pairs == len(jobs),
                  f"drain {index}: {executed.cached_pairs} pairs came from "
                  f"a cache that should be empty")
        out.check(stats.get("jobs_requeued", 0) == 0,
                  f"drain {index}: {stats.get('jobs_requeued')} jobs requeued")
        drained.append((ncores, executed.cells))
        out.pairs += len(jobs)

    out.rounds, out.elapsed = run_until(seconds, round_fn, tracer)

    def same_as_serial(index, ncores, cells):
        serial = run_sweep(interface=INTERFACE, ncores=ncores, backend="serial")
        expected = {pair_key(c.op0, c.op1): project_cell(c) for c in serial.cells}
        got = {pair_key(c.op0, c.op1): project_cell(c) for c in cells}
        out.check(got == expected,
                  f"drain {index} (ncores={ncores}): cells differ from serial")

    out.deferred = [
        partial(same_as_serial, index, ncores, cells)
        for index, (ncores, cells) in enumerate(drained)
    ]

    out.extra["drain_p50_s"] = percentile([lap.wall for lap in out.rounds], 50)
    out.layers.update({
        "cluster.first_result_s": percentile(first_results, 50),
        "cluster.worker_busy_s": sum(busy) / len(busy),
        "cluster.utilization": sum(busy) / (sum(walls) * FLEET_WORKERS),
        "cluster.jobs_requeued": totals["jobs_requeued"] / len(walls),
        "cluster.duplicate_results": totals["duplicate_results"] / len(walls),
    })
    out.replay = {"ncores": [ncores for ncores, _ in drained]}
    return out
