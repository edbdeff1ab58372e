"""Host speed probe: a fixed computation timed around every measured operation.

The benchmark runs on a shared virtual machine whose speed changes with its
neighbours' load: the same operation, on the same input, in the same process,
has taken anywhere from 2.3 s to 6.9 s within a few minutes, with process CPU
time equal to wall time throughout (the process is not preempted; the core
itself runs slower). Medians of wall times over a run then move with the
host, not the program.

So each measured operation and each set-up is bracketed by a probe: a
fixed mix of interpreter work, small numpy calls and large-array passes, the
three kinds of work the workloads do. It uses only the interpreter and
numpy, never wlanmodel, so a change to the program cannot move it. A time at
reference speed is the wall time times (REFERENCE_S / p) ** SENSITIVITY,
where p is the mean of the probes just before and just after it.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

#: Probe time on the reference host (a quiet stretch of a 2-core, 8 GB
#: virtual machine). Times scaled by REFERENCE_S / probe read as seconds on
#: that host; the constant sets only the scale, never the spread.
REFERENCE_S = 0.1
#: How strongly operation time follows probe time. The host slows the short
#: probe more than the workloads: over about 470 operations of the two
#: workloads, in sets of five or ten runs, the least-squares slope of log operation time on log probe time was
#: 0.34 to 0.65, and the probe's own noise biases that slope low. Ten-run
#: spreads were smallest near 0.75 on both workloads (a full correction,
#: 1.0, over-corrects and doubled them on contended_su).
SENSITIVITY = 0.75


def _interpreter() -> float:
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(120_000):
        k = i % 97
        table[k] = table.get(k, 0.0) + math.log2(1.0 + i)
        acc += table[k]
    return acc


def _small_arrays() -> float:
    x = np.linspace(0.1, 4.0, 16)
    acc = 0.0
    for i in range(6_000):
        acc += float(np.log2(1.0 + x * i).sum())
    return acc


def _large_arrays() -> float:
    x = np.sqrt(np.arange(1_000_000, dtype=np.float64) * 2.0 + 1.0)
    m = (x[:40_000] % 7.0).reshape(200, 200)
    return float(np.sort(np.sin(x[:400_000]))[7] + (m @ m @ m)[0, 0] + x.sum())


def probe() -> float:
    """Wall seconds of one pass over the three parts."""
    start = perf_counter()
    _interpreter()
    _small_arrays()
    _large_arrays()
    return perf_counter() - start


def scaled(elapsed: float, before: float, after: float) -> float:
    """An operation's wall time at reference speed, from the probes around it."""
    return elapsed * (REFERENCE_S / ((before + after) / 2.0)) ** SENSITIVITY
