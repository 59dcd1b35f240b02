"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload posix-cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload's inputs come from
``--seed``; it measures for ``--seconds``, checks every verdict against
a known answer, prints a human-readable report and, as the last line, a
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a traced run (see README.md beside this file).
End-to-end timings count CPU seconds at a reference host speed
(:class:`common.HostSpeed`); the report also prints them as measured.
The exit status is 1 when any operation failed or was wrong, and 2 when the
checkout has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time

from common import (
    BENCH,
    HOST,
    REFERENCE_KERNEL_S,
    ROOT,
    Lap,
    Workdir,
    peak_rss_mb,
    percentile,
    use_source_tree,
)
import layers
from spans import Tracer

WORKLOADS = {
    "posix-cold": "posix_cold",
    "service-mix": "service_mix",
    "fleet-drains": "fleet_drains",
}

#: End-to-end metric name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pairs_per_s": "1/s",
    "p50_ms": "ms",
}

#: Fresh-process set-ups before and again after the measured phase;
#: ``setup_s`` is the median of all of them, so one burst of host
#: slowness does not decide it.
SETUP_PROBES = 3

_PROBE = (
    "import sys; sys.path.insert(0, {bench!r}); import common; "
    "common.use_source_tree(); import {module} as w; "
    "from pathlib import Path; w.probe(Path({work!r}))"
)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(module: str, work) -> list:
    """The :class:`Lap` of each of ``SETUP_PROBES`` fresh processes that
    each import the program and build the workload's system, ready to
    serve; their CPU seconds are the child's."""
    code = _PROBE.format(bench=str(BENCH), module=module, work=str(work.path))
    laps = []
    for _ in range(SETUP_PROBES):
        cpu = _children_cpu()
        start = time.perf_counter()
        # No timeout: with one, subprocess polls for the exit in steps
        # of up to 50 ms, which would quantize the measurement.
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        end = time.perf_counter()
        laps.append(Lap(start, end, min(_children_cpu() - cpu, end - start)))
    return laps


def end_to_end(outcome, setup_laps: list, peak_rss: float) -> dict:
    """The end-to-end metrics, every timing at the reference host speed."""
    rounds = [HOST.latency(lap) for lap in outcome.rounds]
    gated = [HOST.latency(lap) for lap in outcome.latencies] or rounds
    return {
        "setup_s": statistics.median(HOST.latency(lap) for lap in setup_laps),
        "peak_rss_mb": peak_rss,
        "pairs_per_s": outcome.pairs / sum(rounds),
        "p50_ms": percentile(gated, 50) * 1000,
    }


def measure(module, module_name: str, work, args, tracer):
    """Set up, run and check one workload; the sampler is running."""
    # Set-up time is an end-to-end metric: the traced run skips it.
    setup_laps = [] if tracer else measure_setup(module_name, work)
    start = time.perf_counter()
    ctx = module.setup(args.seed, work)
    prepare_s = time.perf_counter() - start
    try:
        if tracer is not None:
            layers.install(tracer)
        try:
            outcome = module.run(ctx, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        # Before the deferred checks, whose reference sweeps are the
        # benchmark's work, not the workload's.
        peak_rss = peak_rss_mb()
        for deferred_check in outcome.deferred:
            deferred_check()
    finally:
        close = getattr(ctx, "close", None)
        if close is not None:
            close()
    if tracer is None:
        setup_laps += measure_setup(module_name, work)
    return outcome, setup_laps, prepare_s, peak_rss


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Measure this checkout's program, never an installed copy.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    use_source_tree()

    module_name = WORKLOADS[args.workload]
    module = importlib.import_module(module_name)
    tracer = Tracer() if args.trace else None
    HOST.start()
    try:
        with Workdir() as work:
            outcome, setup_laps, prepare_s, peak_rss = measure(
                module, module_name, work, args, tracer)
    finally:
        HOST.stop()

    if tracer is not None:
        values = layers.metrics(tracer, outcome)
        units = {name: unit for name, (unit, _better) in layers.METRICS.items()}
    else:
        values = end_to_end(outcome, setup_laps, peak_rss)
        units = END_TO_END
    failed = len(outcome.failures)
    speeds = [elapsed for _at, elapsed in HOST.samples] or [REFERENCE_KERNEL_S]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds_s": [lap.wall for lap in outcome.rounds],
        "rounds_cpu_s": [lap.cpu for lap in outcome.rounds],
        "elapsed_s": outcome.elapsed,
        "prepare_s": prepare_s,
        "setup_probes_s": [lap.wall for lap in setup_laps],
        "host_speed": REFERENCE_KERNEL_S / statistics.fmean(speeds),
        "raw_pairs_per_s": outcome.pairs / outcome.elapsed,
        "fail_frac": failed / max(1, outcome.attempted),
        **outcome.extra,
    }
    for name, value in report.items():
        print(f"{name:>24}  {value}")
    for name, value in values.items():
        print(f"{name:>24}  {value:.6g} {units[name]}")
    for failure in outcome.failures:
        print(f"FAILED: {failure}")
    print("replay " + json.dumps({"workload": args.workload, "seed": args.seed,
                                  **outcome.replay}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
