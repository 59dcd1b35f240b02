"""``posix-cold``: Figure 6 pairs through ``execute_jobs`` with an empty
result cache on the default ``serial`` backend.

ANALYZER and TESTGEN do nearly all the work here and the cache, store
and fleet almost none, so solver and TESTGEN gains show on this
workload and fingerprint or fleet gains must not move it.

The draw pool is every posix pair that costs at most ``POOL_CAP_S`` on
the calibration box (``pair_cost.json``); costlier pairs (the ``open``
row and a few ``read``/``lseek``/``mmap`` pairs) take a whole run on
their own.  The pool is split into equally heavy groups of
``GROUP_SIZE`` pairs (about 2 s each), so a run holds enough rounds
for a steady median; a round sweeps one group into a fresh, empty
cache, and the seed picks the group order.  No pair repeats in a run
until every group has been swept.
"""

from __future__ import annotations

from dataclasses import dataclass

from common import (
    Outcome,
    balanced_groups,
    load_json,
    pair_key,
    project_cell,
    reference_cells,
    run_until,
    seeded_order,
)

POOL_CAP_S = 2.0
GROUP_SIZE = 4


def pair_groups() -> list:
    costs = {
        key: cost for key, cost in load_json("pair_cost.json")["posix"].items()
        if cost <= POOL_CAP_S
    }
    return balanced_groups(costs, GROUP_SIZE)


@dataclass
class Context:
    order: list
    reference: dict
    work: object


def jobs_for(group: list) -> list:
    from repro.pipeline import build_pair_jobs, make_pair_filter

    return build_pair_jobs(
        interface="posix",
        pair_filter=make_pair_filter([key.split("|") for key in group]),
    )


def probe(work) -> None:
    """A fresh process's set-up: imports, the job list, an empty cache."""
    from repro.pipeline import ResultCache

    jobs_for(pair_groups()[0])
    ResultCache(work / "probe-cache.json")


def setup(seed: int, work) -> Context:
    return Context(
        order=seeded_order(pair_groups(), seed, "posix-cold"),
        reference=reference_cells(),
        work=work,
    )


def run(ctx: Context, seconds: float, tracer=None) -> Outcome:
    import repro.pipeline.sweep as sweep
    from repro.pipeline import ResultCache

    out = Outcome()
    swept = []

    def round_fn(index: int) -> None:
        group = ctx.order[index % len(ctx.order)]
        swept.append(group)
        jobs = jobs_for(group)
        cache = ResultCache(ctx.work / f"posix-cold-{index}.json")
        executed = sweep.execute_jobs(jobs, backend="serial", cache=cache)
        out.check(executed.computed_pairs == len(jobs),
                  f"round {index}: {executed.cached_pairs} pairs came "
                  f"from a cache that should be empty")
        for job, cell in zip(jobs, executed.cells):
            key = pair_key(job.op0.name, job.op1.name)
            out.check(project_cell(cell) == ctx.reference[key],
                      f"{key}: {project_cell(cell)} != reference "
                      f"{ctx.reference[key]}")
        out.pairs += len(jobs)

    out.rounds, out.elapsed = run_until(seconds, round_fn, tracer)
    out.replay = {"rounds": swept}
    return out
