"""Reference-speed correction for a shared machine.

The host's speed drifts: on the 2-core VM used to build this benchmark, a
fixed request ran up to 1.8x slower for tens of seconds at a time, with no
steal time and with the process's CPU time inflated just as much as its wall
time.  Raw wall times of runs made minutes apart then differ by more than
any useful regression bound.

So the benchmark times a fixed reference computation, :func:`reference`,
right after every request (and before the first).  It is a sparse product of
two small rational series written in plain Python, the same kind of work as
the program's inner loop, and it does not use the program.  A request's
latency is reported at the reference speed::

    latency * REF_PROBE_S / mean(probe before, probe after)

where a probe is the mean time of one reference call.  The probe after a
request calls the reference for about a tenth of the request's time (1 to
8 calls, :func:`calls_after`): the speed also changes within a request, and a
longer probe follows it more closely.  On derive requests of 0.1-1.7 s, the
mean deviation of a request's corrected latency from its median over five
passes fell from 6.8% with one call to 6.0% with eight.

On that VM, while the raw latency of a fixed request varied by 11.5%
(interquartile range over a slow/fast mix), the corrected one varied by
4.3%.  The raw times are kept in each run's report.

The probe runs in the program's process, on its live heap.  A cyclic
collection costs time in proportion to every object the program keeps
alive, so the probe runs with the collector disabled: a change that keeps
more (or fewer) objects alive then does not move the reference.  Check it
with ``python3 bench/speed.py``, which times the probe with and without a
large live heap, with the collector off (as the benchmark runs it) and on.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# Seconds the reference computation takes when the VM runs at full speed.
REF_PROBE_S = 0.0060

_A = {((("H", i % 5), ("L", i // 5)), i % 3): Fraction(3**25 + 7 * i, 2**20 + i)
      for i in range(36)}
_B = {((("H", i % 4), ("L", i // 4)), i % 2): Fraction(5**17 - 3 * i, 3**11 + 2 * i)
      for i in range(30)}


def reference():
    """Multiply two fixed series held as {(monomial, y-degree): Fraction}."""
    out = {}
    for (m1, q1), c1 in _A.items():
        for (m2, q2), c2 in _B.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            key = (tuple(sorted(exps.items())), q1 + q2)
            prev = out.get(key)
            out[key] = c1 * c2 if prev is None else prev + c1 * c2
    return out


def probe(calls=1):
    """Seconds one :func:`reference` call takes now, the mean of ``calls``
    calls, with the cyclic collector off so that the size of the live heap
    does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(calls):
            reference()
        return (perf_counter() - start) / calls
    finally:
        if enabled:
            gc.enable()


def calls_after(latency):
    """Reference calls in the probe after a request of ``latency`` seconds:
    about a tenth of the request's time, from 1 to 8."""
    return min(8, max(1, int(latency / (10 * REF_PROBE_S))))


def factors(probes):
    """Per-request correction from the probes around each request: request i
    lies between ``probes[i]`` and ``probes[i + 1]``."""
    return [2 * REF_PROBE_S / (a + b) for a, b in zip(probes, probes[1:])]


def _timed(runs=15):
    """Median probe time, and the median time of the same reference with the
    collector left on."""
    off = statistics.median(probe() for _ in range(runs))
    on = []
    for _ in range(runs):
        start = perf_counter()
        reference()
        on.append(perf_counter() - start)
    return off, statistics.median(on)


def control(objects=100_000, rounds=11):
    """Median ratios (loaded / empty heap) of the probe time with the
    collector off and on, where a loaded heap holds ``objects`` live
    Fractions in a dict.  Rounds alternate empty and loaded, so the
    machine's drift cancels."""
    ratios_off, ratios_on = [], []
    for _ in range(rounds):
        empty = _timed()
        heap = {i: Fraction(3 * i + 1, 2 * i + 7) for i in range(objects)}
        loaded = _timed()
        del heap
        ratios_off.append(loaded[0] / empty[0])
        ratios_on.append(loaded[1] / empty[1])
    return statistics.median(ratios_off), statistics.median(ratios_on)


if __name__ == "__main__":
    off, on = control()
    print("with 10^5 live Fractions the probe time changes by %+.1f%% with the "
          "collector off (as the benchmark runs it), %+.1f%% with it on"
          % (100 * (off - 1), 100 * (on - 1)))
