"""The benchmark's own self-test, on tiny sizes (about a minute)::

    python3 perfbench/selftest.py

Checks that every workload prints every metric ``BENCHMARK.json``
names, with its unit, and no failures, untraced and traced; and that a
corrupted reference cell makes the run report failures and exit
nonzero.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import common
import fleet_drains
import posix_cold
import run
import service_mix

#: One round each; service-mix gets long enough for every request class.
SECONDS = {"service-mix": 1.5}


def shrink() -> None:
    """One small round per workload."""
    posix_cold.GROUP_SIZE = 2
    posix_cold.POOL_CAP_S = 0.1
    service_mix.MISS_OPS = ["close", "link", "stat", "unlink"]
    service_mix.REQUEST_PAIRS = 3
    service_mix.HIT_POOL = 2
    fleet_drains.NCORES = [5, 6]


def invoke(workload: str, trace: int, seed: int = 7) -> tuple[int, dict, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = run.main(["--workload", workload, "--seed", str(seed),
                           "--seconds", str(SECONDS.get(workload, 0.01)),
                           "--trace", str(trace)])
    text = buffer.getvalue()
    return status, json.loads(text.strip().splitlines()[-1]), text


def expect(ok: bool, what: str, problems: list) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def main() -> int:
    common.use_source_tree()
    shrink()
    problems: list = []
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    expect(sorted(names) == sorted(run.WORKLOADS),
           "BENCHMARK.json lists exactly the runnable workloads", problems)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }

    for workload in names:
        for trace in (0, 1):
            status, result, _ = invoke(workload, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            label = f"{workload} --trace {trace}"
            expect(got == wanted[trace],
                   f"{label}: every metric present with its unit", problems)
            expect(status == 0 and result["correct"] and result["failed"] == 0,
                   f"{label}: fail_frac 0 and exit 0", problems)

    real = posix_cold.reference_cells
    corrupted = real()
    first_group = common.seeded_order(posix_cold.pair_groups(), 7, "posix-cold")[0]
    victim = common.pair_key(*first_group[0].split("|"))
    corrupted[victim] = dict(corrupted[victim], total=corrupted[victim]["total"] + 1)
    posix_cold.reference_cells = lambda: corrupted
    try:
        status, result, text = invoke("posix-cold", 0)
    finally:
        posix_cold.reference_cells = real
    expect(status != 0 and result["failed"] > 0 and not result["correct"],
           "a corrupted reference cell flips fail_frac above 0 and the exit "
           "status to nonzero", problems)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
