"""Shared plumbing for the benchmark workloads: paths, the scratch
directory, round loops, the host-speed sampler, statistics and the
reference cells."""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Everything a run writes lives under here, inside the checkout.
WORK_ROOT = ROOT / ".perfbench_work"


def use_source_tree() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class Workdir:
    """A per-run scratch directory under the checkout, removed on exit.

    Temporary files of this process and its children (the cluster's
    worker stderr files) go here too, so a run writes nothing outside
    the checkout.
    """

    def __init__(self):
        self.path = WORK_ROOT / f"run-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        (self.path / "tmp").mkdir(parents=True)
        self._saved_tmp = (tempfile.tempdir, os.environ.get("TMPDIR"))
        tempfile.tempdir = str(self.path / "tmp")
        os.environ["TMPDIR"] = tempfile.tempdir

    def __enter__(self) -> "Workdir":
        return self

    def __exit__(self, *exc) -> None:
        tempfile.tempdir, saved_env = self._saved_tmp
        if saved_env is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved_env
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    def __truediv__(self, name: str) -> Path:
        return self.path / name


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``rounds`` are the :class:`Lap` of each unit of work (one sweep,
    one request or one drain); ``latencies`` are the laps ``p50_ms`` is
    taken from when they are not all the rounds (one request class of a
    mixed load); ``failures`` describe every wrong or failed operation
    out of ``attempted``.  ``layers``
    holds what a workload measures about its layers itself (client-side
    service timings, coordinator-side fleet figures).  ``deferred``
    checks compute their reference answers, so they run after the
    measured (and traced) phase.
    """

    rounds: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    pairs: int = 0
    elapsed: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    replay: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    deferred: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; record it when it is wrong."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def span(tracer, name: str):
    """A tracer span, or nothing when the run is untraced."""
    return tracer.span(name) if tracer is not None else nullcontext()


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99), interpolated within the samples
    (``statistics.quantiles``' inclusive method, which never reaches
    past the largest sample); a single sample is its own percentile."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_json(name: str):
    with open(BENCH / name) as f:
        return json.load(f)


def reference_cells() -> dict:
    """The committed Figure 6 posix matrix (``results/fig6_heatmap.json``,
    ncores=4) as ``{pair_key: {"total", "fails", "mismatches"}}``."""
    with open(ROOT / "results" / "fig6_heatmap.json") as f:
        artifact = json.load(f)
    return {pair_key(c["op0"], c["op1"]): project_cell(c)
            for c in artifact["cells"]}


def pair_key(op0: str, op1: str) -> str:
    """A pair's canonical name: the matrix is unordered, and the
    service may report a pair the other way round."""
    return "|".join(sorted((op0, op1)))


def project_cell(cell) -> dict:
    """The verdict part of a pair cell (a ``PairCellData`` or an
    artifact cell dict): what must match the reference exactly."""
    if isinstance(cell, dict):
        fails = cell.get("fails", cell.get("not_conflict_free"))
        total, mismatches = cell["total"], cell["mismatches"]
    else:
        fails = cell.not_conflict_free
        total, mismatches = cell.total, cell.mismatches
    return {"total": total, "fails": dict(fails), "mismatches": dict(mismatches)}


def balanced_groups(costs: dict, size: int) -> list:
    """Partition ``costs``' keys into groups of ``size`` keys with
    near-equal summed cost (greedy: costliest first, each into the
    cheapest group with room).  Deterministic for a given table, so
    every group is an equally heavy round and the seed only picks
    which groups a run measures and in what order."""
    count = len(costs) // size
    groups = [[] for _ in range(count)]
    totals = [0.0] * count
    ranked = sorted(costs, key=lambda k: (-costs[k], k))[: count * size]
    for key in ranked:
        open_groups = [i for i in range(count) if len(groups[i]) < size]
        target = min(open_groups, key=lambda i: (totals[i], i))
        groups[target].append(key)
        totals[target] += costs[key]
    return [sorted(g) for g in groups]


def seeded_order(items: list, seed: int, salt: str) -> list:
    """``items`` in a seed-determined order."""
    out = list(items)
    random.Random(f"{salt}:{seed}").shuffle(out)
    return out


#: How long the sampler's kernel takes on the reference host.  Timed
#: CPU work is reported as if it ran at that speed.
REFERENCE_KERNEL_S = 0.001


def _kernel() -> int:
    """A fixed piece of interpreter work: dictionary updates and method
    calls on a working set small enough to stay cached beside the
    workload's.  It allocates no objects the garbage collector tracks,
    so the program's heap cannot change how long it takes."""
    table, box = _TABLE, _BOX
    total = 0
    for i in range(2500):
        key = (i * 7) & 255
        table[key] = (table[key] + i) & 0xFFFF
        total = box.step(total + table[(key + 1) & 255])
    return total


class _Box:
    def __init__(self):
        self.modulus = 1000003

    def step(self, value: int) -> int:
        return value % self.modulus


_TABLE = dict.fromkeys(range(256), 0)
_BOX = _Box()


@dataclass
class Lap:
    """One timed unit of work: wall-clock start and end
    (``perf_counter``) and the CPU seconds spent on it, the sampler's
    own excluded."""

    start: float
    end: float
    cpu: float

    @property
    def wall(self) -> float:
        return self.end - self.start


class HostSpeed:
    """Samples how fast the host runs Python while a workload runs.

    The benchmark's hosts are shared virtual machines whose CPU speed
    changes by up to half for minutes at a time, with no steal or
    throttling the guest can see, so two runs of the same code can
    differ more than any bound worth setting.  A thread times
    :func:`_kernel` every ``PERIOD_S``; :meth:`latency` rescales the
    CPU part of a lap by the kernel's speed around it and leaves the
    waiting part (timers, other processes) as measured.  The thread
    costs about 2% of one core.
    """

    PERIOD_S = 0.05
    #: Samples this far either side of a lap also describe it, so a
    #: request shorter than a sampling period still has some.
    PAD_S = 1.0

    def __init__(self):
        self.samples: list = []
        self.own_cpu = 0.0
        self._stop = threading.Event()
        self._thread = None

    def start(self) -> None:
        self.samples, self.own_cpu = [], 0.0
        self._stop.clear()
        self._thread = threading.Thread(target=self._sample, name="host-speed",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            start = time.perf_counter()
            _kernel()
            elapsed = time.perf_counter() - start
            self.samples.append((start, elapsed))
            self.own_cpu += elapsed

    @contextmanager
    def timed(self, laps: list):
        """Append the ``with`` body's :class:`Lap` to ``laps``."""
        start, cpu, own = time.perf_counter(), time.process_time(), self.own_cpu
        try:
            yield
        finally:
            end = time.perf_counter()
            spent = time.process_time() - cpu - (self.own_cpu - own)
            laps.append(Lap(start, end, min(max(spent, 0.0), end - start)))

    def latency(self, lap: Lap) -> float:
        """``lap``'s wall time with its CPU seconds rescaled to the
        reference speed; call after :meth:`stop`."""
        window = [elapsed for at, elapsed in self.samples
                  if lap.start - self.PAD_S <= at <= lap.end + self.PAD_S]
        if not window:
            return lap.wall
        scale = REFERENCE_KERNEL_S / statistics.fmean(window)
        return lap.wall - lap.cpu + lap.cpu * scale


#: The sampler every timed lap subtracts; ``run.py`` starts and stops it.
HOST = HostSpeed()


def run_until(seconds: float, round_fn, tracer=None) -> tuple[list, float]:
    """Call ``round_fn(index)`` until ``seconds`` have elapsed (at least
    once); returns the per-round :class:`Lap` list and the elapsed
    time.  Each round is one ``bench.round`` span in a traced run."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        with HOST.timed(rounds), span(tracer, "bench.round"):
            round_fn(len(rounds))
    return rounds, time.perf_counter() - start
