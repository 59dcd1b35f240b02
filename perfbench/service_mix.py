"""``service-mix``: an in-process ``ServiceServer`` + ``JobManager``
(the ``repro serve`` defaults: two job threads, default backend)
driven as a closed loop by one ``ServiceClient``.

Each request POSTs a heatmap job, streams its events until it is done,
then GETs the artifact.  The traffic is a synthetic mix of the three
request classes the service answers differently; the seeded schedule
repeats blocks of ten requests (six ``hit``, three ``miss``, one
``cold``, shuffled).  Those proportions are a choice, not a recorded
load, so the gated latency (``p50_ms``) is that of the ``hit`` class
alone and does not move with the mix:

* ``hit`` resubmits one of the ``HIT_POOL`` requests answered during
  set-up: a store hit.
* ``miss`` asks for ``REQUEST_PAIRS`` pairs never requested before, drawn
  from the 36 pairs over ``MISS_OPS``.  Set-up computed those pairs into
  the cache, so this is a store miss served from pair-cache hits, plus
  an artifact write.
* ``cold`` asks for a ``proc`` or ``sockets-unordered`` heatmap at an
  ncores no request used before, so its pairs are computed and saved.

No pair is computed on ``hit`` or ``miss``: fingerprinting, cache and
store reads and writes, and HTTP/NDJSON dominate.

One client, not two: with two jobs running at once, about 7% of
requests fail on CPython 3.11 with ``SystemError: AST constructor
recursion depth mismatch`` (``job_fingerprint`` calls
``inspect.getsource``, which parses source, in both job threads).  A
second client belongs here once the program fingerprints safely from
concurrent jobs.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from functools import partial

from common import HOST, Outcome, pair_key, percentile, project_cell, reference_cells, span

MISS_OPS = ["close", "fstat", "link", "mprotect", "munmap", "rename", "stat", "unlink"]
REQUEST_PAIRS = 10
HIT_POOL = 8
BLOCK = ("hit",) * 6 + ("miss",) * 3 + ("cold",)
COLD_INTERFACES = ("proc", "sockets-unordered")
#: Never the artifact-default 4, so cold requests miss every cache.
FIRST_COLD_NCORES = 5
JOB_WORKERS = 2


def miss_universe() -> list:
    """The 36 pairs (self-pairs included) over ``MISS_OPS``, in the
    posix matrix order the service reports them in."""
    from repro.model.registry import resolve_ops
    from repro.pipeline import iter_pairs

    ops = resolve_ops("posix", MISS_OPS)
    return [(a.name, b.name) for a, b in iter_pairs(ops)]


class Schedule:
    """The seeded request sequence; :attr:`issued` records what was
    sent."""

    def __init__(self, seed: int, universe: list, pool: list):
        self._rng = random.Random(f"service-mix:{seed}")
        self._universe = universe
        self._seen = {frozenset(map(tuple, p["pairs"])) for p in pool}
        self._pool = pool
        self._block: list = []
        self._next_ncores = dict.fromkeys(COLD_INTERFACES, FIRST_COLD_NCORES)
        self.issued: list = []

    def new_pair_set(self) -> dict:
        while True:
            picked = sorted(self._rng.sample(range(len(self._universe)),
                                             REQUEST_PAIRS))
            pairs = [self._universe[i] for i in picked]
            if frozenset(pairs) not in self._seen:
                self._seen.add(frozenset(pairs))
                return {"interface": "posix", "pairs": [list(p) for p in pairs]}

    def next(self) -> dict:
        if not self._block:
            self._block = list(BLOCK)
            self._rng.shuffle(self._block)
        kind = self._block.pop()
        request = {"seq": len(self.issued), "kind": kind}
        if kind == "hit":
            request["target"] = self._rng.randrange(len(self._pool))
            request["params"] = self._pool[request["target"]]
        elif kind == "miss":
            request["params"] = self.new_pair_set()
        else:
            interface = self._rng.choice(COLD_INTERFACES)
            ncores = self._next_ncores[interface]
            self._next_ncores[interface] += 1
            request["params"] = {"interface": interface, "ncores": ncores}
        self.issued.append(request)
        return request


@dataclass
class Context:
    server: object
    schedule: Schedule
    pool_digests: list
    reference: dict
    pool: list

    def close(self) -> None:
        self.server.stop_background()


def start_service(cache_path, store_path):
    from repro.service import ArtifactStore, JobManager, ServiceServer

    manager = JobManager(cache=str(cache_path),
                         store=ArtifactStore(str(store_path)),
                         workers=JOB_WORKERS)
    return ServiceServer(manager, port=0).start_background()


def probe(work) -> None:
    """A fresh process's set-up: imports, job manager, server, health."""
    from repro.service import ServiceClient

    server = start_service(work / "probe-cache.json", work / "probe-store")
    try:
        ServiceClient(port=server.port).health()
    finally:
        server.stop_background()


@dataclass
class Reply:
    submit: float
    first_event: float
    artifact_get: float
    record: dict
    artifact: dict


def send(client, params: dict, tracer=None) -> Reply:
    """One closed-loop request: POST, stream events to the end, GET the
    final record and the artifact."""
    start = time.perf_counter()
    with span(tracer, "service.submit"):
        record = client.submit("heatmap", params)
    submitted = time.perf_counter()
    first = None
    with span(tracer, "service.events"):
        for _event in client.events(record["id"]):
            if first is None:
                first = time.perf_counter()
    with span(tracer, "service.job"):
        record = client.job(record["id"])
    if record["status"] != "done":
        raise RuntimeError(f"job {record['id']} ended {record['status']}: "
                           f"{record.get('error')}")
    fetch = time.perf_counter()
    with span(tracer, "service.artifact_get"):
        body = client.artifact_bytes(record["artifact"])
    end = time.perf_counter()
    return Reply(
        submit=submitted - start,
        first_event=(first if first is not None else fetch) - submitted,
        artifact_get=end - fetch,
        record=record,
        artifact=json.loads(body),
    )


def check_cells(out: Outcome, label: str, artifact: dict, expected: dict) -> None:
    """Every artifact cell equals ``expected`` and nothing is missing."""
    got = {pair_key(c["op0"], c["op1"]): project_cell(c) for c in artifact["cells"]}
    out.check(got == expected,
              f"{label}: cells {sorted(got)} differ from the reference")


def same_as_serial(out: Outcome, label: str, artifact: dict,
                   interface: str, ncores: int) -> None:
    """A cold request's cells equal a serial ``run_sweep`` of the same
    heatmap (computed after the measured phase)."""
    from repro.pipeline import run_sweep

    sweep = run_sweep(interface=interface, ncores=ncores, backend="serial")
    check_cells(out, label, artifact, {
        pair_key(c.op0, c.op1): project_cell(c) for c in sweep.cells
    })


def setup(seed: int, work) -> Context:
    from repro.model.registry import resolve_ops
    from repro.pipeline import run_sweep
    from repro.service import ServiceClient

    cache_path = work / "service-cache.json"
    run_sweep(ops=resolve_ops("posix", MISS_OPS), cache=str(cache_path),
              backend="serial")
    universe = miss_universe()
    # The hit pool: the first HIT_POOL misses of a schedule no run sends.
    drafts = Schedule(-1 - seed, universe, [])
    pool = [drafts.new_pair_set() for _ in range(HIT_POOL)]
    server = start_service(cache_path, work / "store")
    try:
        client = ServiceClient(port=server.port)
        digests = [send(client, params).record["artifact"] for params in pool]
    except Exception:
        server.stop_background()
        raise
    return Context(server=server, schedule=Schedule(seed, universe, pool),
                   pool_digests=digests, reference=reference_cells(),
                   pool=pool)


def run(ctx: Context, seconds: float, tracer=None) -> Outcome:
    from repro.service import ServiceClient

    out = Outcome()
    replies: list = []
    client = ServiceClient(port=ctx.server.port)
    start = time.perf_counter()
    while not replies or time.perf_counter() - start < seconds:
        request = ctx.schedule.next()
        laps: list = []
        try:
            with HOST.timed(laps), span(tracer, "bench.round"):
                reply = send(client, request["params"], tracer)
        except Exception as exc:  # a failed request is a measured failure
            reply = exc
        replies.append((request, reply, laps[0]))
    out.elapsed = time.perf_counter() - start

    latencies = {kind: [] for kind in ("hit", "miss", "cold")}
    for request, reply, lap in replies:
        label = f"request {request['seq']} ({request['kind']})"
        if isinstance(reply, Exception):
            out.check(False, f"{label}: {reply!r}")
            continue
        out.rounds.append(lap)
        latencies[request["kind"]].append(lap)
        out.pairs += len(reply.artifact["cells"])
        for name in ("submit", "first_event", "artifact_get"):
            out.layers.setdefault(f"service.{name}_ms", []).append(
                getattr(reply, name) * 1000)
        record = reply.record
        out.layers.setdefault("service.queue_wait_ms", []).append(
            (record["started"] - record["created"]) * 1000)
        out.layers.setdefault("service.run_ms", []).append(
            (record["finished"] - record["started"]) * 1000)
        params = request["params"]
        if request["kind"] == "hit":
            expected = ctx.pool_digests[request["target"]]
            out.check(record["artifact"] == expected,
                      f"{label}: digest {record['artifact']} != first "
                      f"answer {expected}")
        elif request["kind"] == "miss":
            check_cells(out, label, reply.artifact, {
                pair_key(a, b): ctx.reference[pair_key(a, b)]
                for a, b in params["pairs"]
            })
        else:
            out.deferred.append(partial(
                same_as_serial, out, label, reply.artifact,
                params["interface"], params["ncores"],
            ))

    out.latencies = latencies["hit"]
    out.extra["req_per_s"] = len(out.rounds) / out.elapsed
    for kind, laps in latencies.items():
        for q in (50, 90):
            if laps:
                out.extra[f"{kind}_p{q}_ms"] = percentile(
                    [lap.wall for lap in laps], q) * 1000
        out.extra[f"{kind}_requests"] = len(laps)
    out.replay = {"hit_pool": ctx.pool, "schedule": ctx.schedule.issued}
    return out
