"""Reference clock: the benchmark's unit of machine speed.

On a shared host the speed of a core drifts by up to a fifth over
seconds to minutes (other tenants on the same core, cache and frequency),
and CPU time drifts with it. The benchmark therefore times a fixed
reference kernel, written in the benchmark and independent of mono3dkit,
between operations and reports op costs in reference milliseconds: one
reference millisecond is the CPU time the kernel takes per call at that
moment. A change to the program moves these figures exactly as it moves
CPU time; a change of machine speed moves the kernel too and largely
cancels out.

The kernel mixes what the workloads do: small-array numpy and Python
arithmetic (per-box geometry, lifting), dict and JSON work (dataio,
sampler) and one vectorised pass over a larger array (Monte-Carlo IoU).
It takes about 1 ms per call on a 2-core Xeon guest.
"""

from __future__ import annotations

import json
import time

import numpy as np

CALLS = 40  # kernel calls per sample; one sample sits between two ops

_M = np.linspace(0.0, 1.0, 9).reshape(3, 3) + np.eye(3)
_V = np.linspace(-1.0, 1.0, 20_000)
_BIG = np.linspace(0.0, 1.0, 300_000)
_OUT = np.empty_like(_BIG)
_DOC = {"ids": [f"im{i:05d}" for i in range(30)], "z": [i * 0.25 for i in range(30)]}


def kernel() -> float:
    acc = 0.0
    m = _M
    for i in range(16):
        m = m @ _M / 3.0 + 0.01 * i
        acc += float(np.clip(m, -1.0, 1.0).sum())
    acc += len(json.loads(json.dumps(_DOC))["ids"])
    acc += float(np.count_nonzero(np.abs(_V * acc % 1.0) < 0.5))
    np.multiply(_BIG, 1.0001, out=_OUT)  # 2.4 MB in and out: past the caches
    acc += float(_OUT[::4096].sum())
    counts: dict[int, float] = {}
    for i in range(320):
        counts[i % 37] = counts.get(i % 37, 0.0) + i * 0.5
    return acc + sum(counts.values())


def sample(calls: int = CALLS) -> float:
    """CPU seconds of one kernel call, averaged over ``calls`` calls."""
    c0 = time.process_time()
    for _ in range(calls):
        kernel()
    return (time.process_time() - c0) / calls
