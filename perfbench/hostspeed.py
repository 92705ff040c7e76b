"""A fixed reference computation, timed beside every measurement.

On a shared host the speed a process gets drifts by a third or more over
minutes, as other tenants come and go; a pass timed in one slow spell and
one fast spell differ by that much with no change to the program.  The
benchmark therefore runs `reference()` before every command of a pass
(and once more after the last), and reports a pass's wall time scaled by
REFERENCE_S / mean(reference times of that pass): the seconds the pass
would take on a host that runs the reference in exactly REFERENCE_S.
Set-up time is scaled the same way, by reference runs between the imports.

The reference mixes the kinds of work the pipeline does (dict building
and sorting in Python, JSON encoding, numpy element-wise passes over a few
MB, a pairwise-distance kernel, an interpreted loop), so a slow spell
slows it by about as much as it slows a pass.  It leaves out matrix
products: a product too small to be worth two BLAS threads still wakes
them, and now and then waits tens of milliseconds for them.  It is
benchmark code, not program code: a change to attackdag cannot change it.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.009  # about one reference() on an idle 2.1 GHz Xeon vCPU

_rng = np.random.default_rng(0)
_VECTOR = _rng.random(400_000)
# Preallocated outputs: a fresh array of a few MB comes from mmap or from the
# heap depending on what the process freed before, which moves the time by a
# quarter; the program's allocations must not move the reference.
_WORK = np.empty_like(_VECTOR)
_KERNEL = np.empty((200, 1500))
_ROWS = [{"src": f"n{i}", "dst": f"n{i * 7 % 997}", "score": i * 0.5, "label": i % 2}
         for i in range(1500)]


def reference() -> float:
    """Wall time of one run of the fixed reference computation."""
    start = perf_counter()
    scores = {(row["src"], row["dst"]): row["score"] for row in _ROWS}
    sorted(scores.items(), key=lambda item: item[1])
    json.dumps(_ROWS)
    np.multiply(_VECTOR, 2.0, out=_WORK)
    np.add(_WORK, 1.0, out=_WORK)
    np.sqrt(_WORK, out=_WORK)
    _WORK.sort()
    np.subtract(_VECTOR[:200, None], _VECTOR[None, :1500], out=_KERNEL)
    np.square(_KERNEL, out=_KERNEL)
    np.negative(_KERNEL, out=_KERNEL)
    np.exp(_KERNEL, out=_KERNEL)
    total = 0
    for i in range(30_000):
        total += i % 7
    return perf_counter() - start


def scaled(wall: float, references: list[float]) -> float:
    """`wall` at a host speed where reference() takes REFERENCE_S."""
    return wall * REFERENCE_S / statistics.fmean(references)
