"""Golden TESTGEN parity: generated cases are pinned byte for byte.

Counts alone cannot tell a solver change that merely picks a different
satisfying assignment from one that keeps TESTGEN's output intact.  These
digests hash every generated case (name, concrete setup, operation calls,
expected returns) for a fixed slice of pairs across three interfaces, at
the pipeline's default ``tests_per_path=1`` and with isomorphism
enumeration (``tests_per_path=4``, which exercises pattern probing).

The digests were recorded before TESTGEN's isomorphism probing moved onto
the scoped solver and the integer theory onto an incremental component
index, and hold on CPython 3.11-3.13.  A change that alters any generated
case must re-record them deliberately (the failure message prints every
new digest).

The slice is generated in a fresh interpreter, always in the same order:
uninterpreted values in a model are numbered by union-find class roots,
and ``terms.eq`` orders its arguments by ``id()``, so which member roots
a class can follow the process's allocation history.  ``write|mmap`` at
``tests_per_path=4`` is not pinned for that reason: 20 of its 1200 cases
flip between a ``zero`` and a ``b0`` data byte depending on what ran
before it in the process, with the one-shot probing too.
"""

import json
import os
import subprocess
import sys

import repro

#: "tests_per_path interface:op0|op1" -> sha256 of the generated cases.
GOLDEN = {
    "1 posix:link|unlink":
        "184251d88ee8c4475bb381012a2b1561600f756dc8d80be9e8bc5da9f82eb31e",
    "1 posix:write|mmap":
        "030a8e6ace10b132255ab69aaf5bf767f31a610e9f1e9011bae092c01d8333ca",
    "1 posix:rename|rename":
        "34560a9d50da3f5205e3f6b843e08157c0a849771f2504d337fa20a1ad1abff6",
    "1 posix:stat|close":
        "c6cdd0ffda4c9367e90e8bab36cd77c8f15ee83ac93251524ddf5f579b4cb985",
    "1 posix:link|rename":
        "02326e4a12f584e6ee88a1fae34084ed3f28101b08d6a965901dc8c48ebdf2e4",
    "1 sockets-unordered:usend|urecv":
        "18bdf602c71b8b40d03b9793feb9b76827bbe2f68383bd9e85a26a98109a6030",
    "1 proc:fork|exec":
        "b5dcfef28b53fdb55a50f2b918e0a6922c73be87c9839b352ea31a7c41fe2be0",
    "4 posix:link|unlink":
        "6d6a3df2d1e1a9436bf1a777c7d2ca660e9068483a1d9f46c256effcc9d12fcd",
    "4 posix:rename|rename":
        "3a20f1ca7fdaf358d34e5ffc28511b25070bd25e9e3f99fc1f22460217f0b8bc",
    "4 posix:stat|close":
        "ee1828e6e2e49a69d6897c2d834ca98723f6849aeb8df7aee2403b9cafcedd7c",
    "4 posix:link|rename":
        "01178fdb0e5575958101921345966d2eba96a065ebee8f86161a8bc6db45dc29",
    "4 sockets-unordered:usend|urecv":
        "f65ec0933cbd5eed93122e9229e0600cccf6f8f042250f730868f210c0ae5353",
    "4 proc:fork|exec":
        "f2c9d915e778c5dcfd48b6a40cf4471e962813ef2e2ae6db90d538ba4c5b2c3a",
}

_GENERATE = """
import hashlib, json, sys
from repro.analyzer import analyze_pair
from repro.model.registry import get_interface
from repro.testgen import generate_for_pair

digests = {}
for entry in json.loads(sys.argv[1]):
    tests_per_path, slug = entry.split(" ")
    interface, pair = slug.split(":")
    op0, op1 = pair.split("|")
    iface = get_interface(interface)
    result = analyze_pair(iface.build_state, iface.state_equal,
                          iface.op_by_name(op0), iface.op_by_name(op1))
    cases = generate_for_pair(result, tests_per_path=int(tests_per_path),
                              setup_builder=iface.setup_builder,
                              groups_builder=iface.groups_builder)
    h = hashlib.sha256()
    for case in cases:
        h.update(repr((case.name, case.setup, case.ops,
                       case.expected)).encode())
    digests[entry] = h.hexdigest()
print(json.dumps(digests))
"""


def test_generated_cases_match_golden_digests():
    entries = list(GOLDEN)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _GENERATE, json.dumps(entries)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    digests = json.loads(proc.stdout)
    changed = {k: v for k, v in digests.items() if GOLDEN[k] != v}
    assert not changed, "generated cases changed:\n" + "\n".join(
        f"    {k!r}: {v!r}" for k, v in changed.items()
    )

