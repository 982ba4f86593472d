"""A clock that reads seconds at a fixed reference speed of the core.

On a shared host the speed of a core changes from second to second, as
other tenants load its SMT sibling and the caches.  On a 2-vCPU Xeon VM a
fixed loop took 1.9 ms in some seconds and 3.4 ms in others, and whole
25-second runs went by in the slow state, so plain wall times of the same
code spread by 40% from run to run.

This clock runs a small fixed probe loop every PERIOD seconds (from a
SIGALRM handler, so in the measured thread) and counts the time up to the
next probe at the speed the probes saw: an interval of dt seconds after a
probe that took p seconds counts as dt * PROBE_S / p, with PROBE_S / p
smoothed over the last few probes.  PROBE_S is what the probe takes on a
fast core of that VM, so on such a core the clock reads wall seconds; on a
busier core it reads the seconds the same work would have taken there.  The
probe's own time is left out.  The probe does the work of the program's
inner loops (dict updates keyed by packed monomials, products mod p), so
both slow down nearly alike; cmbench/README.md says where they do not.
"""

from __future__ import annotations

import signal
import time

PERIOD = 0.01
# Median probe time in the seconds when a core of a 2-vCPU Intel Xeon VM ran
# fast (Python 3.11); it only sets the scale of the clock.
PROBE_S = 1.25e-4
# Each probe moves the speed a quarter of the way to what it saw: a single
# probe is off by up to 10%, while the core's state lasts for seconds.
SMOOTH = 0.25
# The interpreter specializes the probe's code over its first runs.
WARMUP = 20
_P = 32003
_KEYS = tuple(((i * 7919 % 1009) << 60) + i * 104729 for i in range(24))
_COEFS = tuple((i * 31 + 1) % _P for i in range(24))


def probe():
    """Seconds one run of the probe loop takes now."""
    t0 = time.perf_counter()
    out = {}
    for ka, ca in zip(_KEYS, _COEFS):
        for kb, cb in zip(_KEYS, _COEFS):
            k = ka + kb
            out[k] = (out.get(k, 0) + ca * cb) % _P
    return time.perf_counter() - t0


# (clock wall s, clock cpu s, perf_counter, process_time, speed) at the end
# of the last probe; replaced as a whole, so that a reader interrupted by
# the handler never mixes two probes.
_state = None
_raw0 = 0.0


def _tick(signum=None, frame=None):
    global _state
    wall, cpu, t, c, speed = _state
    t1, c1 = time.perf_counter(), time.process_time()
    wall += (t1 - t) * speed
    cpu += (c1 - c) * speed
    speed += (PROBE_S / probe() - speed) * SMOOTH
    _state = (wall, cpu, time.perf_counter(), time.process_time(), speed)


def start():
    """Start the clock at zero and the probes."""
    global _state, _raw0
    for _ in range(WARMUP):
        probe()
    _raw0 = time.perf_counter()
    _state = (0.0, 0.0, time.perf_counter(), time.process_time(), PROBE_S / probe())
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)


def stop():
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def now():
    """(wall, cpu) seconds at the reference speed since start()."""
    wall, cpu, t, c, speed = _state
    return (wall + (time.perf_counter() - t) * speed,
            cpu + (time.process_time() - c) * speed)


def wall():
    wall, _, t, _, speed = _state
    return wall + (time.perf_counter() - t) * speed


def speed():
    """Clock seconds per wall second since start(): the core's mean speed
    relative to the reference core."""
    return wall() / (time.perf_counter() - _raw0)
