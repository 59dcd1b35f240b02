"""Re-measure ``pair_cost.json``, the per-pair cost table ``posix-cold``
partitions into equally heavy rounds.

Only the relative order and size of the costs matter (they balance the
rounds; no metric reads them), so the table needs refreshing only when
a change shifts cost between pairs.  Takes about four minutes on a
2-core x86 box::

    python3 perfbench/calibrate.py
"""

from __future__ import annotations

import json

from common import BENCH, use_source_tree


def main() -> None:
    use_source_tree()
    from repro.pipeline import build_pair_jobs, execute_jobs

    posix: dict[str, float] = {}

    def on_pair(job, cell, cached, elapsed):
        posix[f"{job.op0.name}|{job.op1.name}"] = round(elapsed, 4)

    execute_jobs(build_pair_jobs(interface="posix"), backend="serial",
                 on_pair=on_pair)

    with open(BENCH / "pair_cost.json", "w") as f:
        json.dump({"posix": posix}, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
