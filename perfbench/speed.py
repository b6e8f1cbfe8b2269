"""Machine-speed normalisation of measured times.

On a shared machine the speed of a single-threaded call swings by tens of
percent over tens of seconds, and every kind of call moves together.  So
measured times are rescaled by a calibration task that never touches
ergolab: interpreter bytecode, a small BLAS product and a streaming array
pass.  The task runs before the first op of a pass and after every op, and
the pass's op times are multiplied by ``CAL_REF_S / c``, with ``c`` the
median of the pass's calibrations; one calibration alone is too short to
be steady.  The result reads as seconds on a machine where the calibration
task takes ``CAL_REF_S`` (about its time on an idle 2-core Xeon VM of the
kind the reference figures in README.md come from).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

CAL_REF_S = 0.003

_MAT = np.linspace(0.0, 1.0, 120 * 120).reshape(120, 120)
_MAT_OUT = np.empty_like(_MAT)
_VEC = np.linspace(0.0, 1.0, 1 << 17)
_VEC_OUT = np.empty_like(_VEC)


def calibrate() -> float:
    """Wall time of one run of the fixed calibration task.

    The task allocates no arrays, so its time does not depend on the state
    of the process's allocator (page faults of fresh mappings)."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i
    for _ in range(4):
        np.matmul(_MAT, _MAT, out=_MAT_OUT)
    for _ in range(3):
        np.multiply(_VEC, _VEC, out=_VEC_OUT)
        np.add(_VEC_OUT, 1.0, out=_VEC_OUT)
        np.sqrt(_VEC_OUT, out=_VEC_OUT)
        _VEC_OUT.sum()
    return time.perf_counter() - t0


def normalised(seconds: list, cals: list) -> list:
    """Rescale times measured alongside the calibration times ``cals``."""
    c = statistics.median(cals)
    return [t * CAL_REF_S / c for t in seconds]
