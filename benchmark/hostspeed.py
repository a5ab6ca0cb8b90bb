"""A fixed reference computation that tells how fast the host runs right now.

On a shared host the speed of one core drifts. On the 2-core machine of
README.md's machine record, the same two-trial call took 0.56-0.86 s averaged
over 30-second windows within five minutes. CPU time moved with wall time,
steal time stayed near zero, and windows of 60 s were no steadier than
windows of 5 s. Over the same windows the ratio of that call's time to
this reference's time spread by 0.06 of its median, against 0.21 for the
call's time alone.

So the benchmark runs this reference before and after every timed
operation, and scales the operation's times by ``NOMINAL_S`` over the mean
of the two reference times. A scaled time is the time the operation would
take on a host where the reference takes ``NOMINAL_S``. The reference never
touches difftrack: a change to difftrack moves scaled times by exactly the
factor it moves raw times.

The reference mixes the two kinds of work difftrack's time goes to:
batched 4x4 linear algebra in numpy at the default network's batch size,
and plain interpreter work.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.5

_BATCH = 30
_NUMPY_ROUNDS = 4000
_PYTHON_ROUNDS = 2_400_000


def _spd_batch() -> np.ndarray:
    a = np.random.default_rng(0).random((_BATCH, 4, 4))
    return a @ a.swapaxes(-1, -2) + 4.0 * np.eye(4)


_SPD = _spd_batch()


def reference_s() -> float:
    """Wall time of one pass of the fixed reference computation."""
    t0 = time.perf_counter()
    for _ in range(_NUMPY_ROUNDS):
        chol = np.linalg.cholesky(_SPD)
        inv = np.linalg.inv(chol)
        (inv.swapaxes(-1, -2) @ inv).sum(axis=0)
    total = 0
    for i in range(_PYTHON_ROUNDS):
        total += i * i % 7
    return time.perf_counter() - t0


def scale(before_s: float, after_s: float) -> float:
    """Factor that turns a time measured between two reference passes into
    a time at the nominal host speed."""
    return 2.0 * NOMINAL_S / (before_s + after_s)
