"""A fixed routine that measures the host's speed, not the program's.

The shared host this benchmark was sized on switches between a fast and a
slow state for seconds to minutes at a time, and the slow state makes every
CPU-bound routine 1.3 to 1.9x slower.  A run that falls wholly into the slow
state reads that much slower however many repetitions it takes.  The
benchmark therefore times this routine on a background thread of the worker
process while the ops run (``Sampler``), and scales each op's latency by
``REF_S`` over the routine's time during that op (``scaled``).  Over 150 s on
a 2-vCPU Xeon, the best latency of one fixed ``rotate`` op per 2 s window had
an interquartile range of 32% of its median; its ratio to this routine's best
time in the same window, 2.8%.

The routine does the kinds of work an op does, in Python and numpy: an
argparse parse, small complex matrix products, an eigensolve, a
partial trace and a JSON render.  It never imports onewaysim, so no change to
the program can move it.
"""

from __future__ import annotations

import argparse
import bisect
import json
import statistics
import threading
import time

import numpy as np

# A fixed constant: a scaled time is the time on a host where a sampled call
# of the routine takes REF_S.  Sampled calls on a 2-vCPU Intel Xeon (2.1 GHz,
# shared VM) took 0.43 to 0.66 ms, and with this REF_S a rotate op of the
# feedforward workload scales to about its unscaled time in the host's fast
# state (2.2 to 2.3 ms).
REF_S = 0.35e-3
MIN_WINDOW_S = 0.2  # shortest window of samples that scales a span

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((16, 16)) + 1j * _RNG.standard_normal((16, 16))
_H = _A + _A.conj().T
_KRAUS = [_RNG.standard_normal((2, 2)) + 0j for _ in range(4)]
_PARSER = argparse.ArgumentParser()
for _flag in "abcdefgh":
    _PARSER.add_argument(f"--{_flag}", type=float, default=0.0)


def routine() -> str:
    """The fixed unit of work; its result is always the same."""
    ns = _PARSER.parse_args(["--a", "1.5", "--c", "2.5", "--h", "0.25"])
    rho = _H @ _H.conj().T
    rho = rho / np.trace(rho)
    for k in _KRAUS:
        op = np.kron(np.kron(k, np.eye(2)), np.eye(4))
        rho = op @ rho @ op.conj().T
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    r = np.einsum("ajbj->ab", rho.reshape(2, 8, 2, 8))
    return json.dumps({"w": [float(x) for x in w],
                       "r": [[float(x.real) for x in row] for row in r], "ns": vars(ns)},
                      sort_keys=True)


def warm_up() -> None:
    """First calls pay for lazy set-up in numpy and argparse; take them untimed."""
    for _ in range(20):
        routine()


class Sampler:
    """Times the routine every ``interval_s`` on a daemon thread, as a context manager.

    Each sample is ``(t, s)``: the ``time.perf_counter`` midpoint of the call
    and its thread CPU time, which leaves out the waits for the GIL held by
    the thread that runs the ops.  Each call holds up that thread for about
    one routine time, about 1.5% of its time at the default interval.
    """

    def __init__(self, interval_s: float = 0.025):
        self.interval_s = interval_s
        self.samples: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            start, cpu = time.perf_counter(), time.thread_time()
            routine()
            cpu = time.thread_time() - cpu
            self.samples.append(((start + time.perf_counter()) / 2, cpu))

    def __enter__(self) -> "Sampler":
        warm_up()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def scaled(spans: list, samples: list) -> list:
    """Each span's duration times ``REF_S`` over the routine's median time in it.

    ``samples`` come from a ``Sampler`` in the same process as the clock of
    ``spans``.  A span shorter than ``MIN_WINDOW_S`` takes the samples of that
    long a window centred on it.
    """
    times = [t for t, _ in samples]
    out = []
    for start, end in spans:
        pad = max(0.0, (MIN_WINDOW_S - (end - start)) / 2)
        window = samples[bisect.bisect_left(times, start - pad):
                         bisect.bisect_right(times, end + pad)]
        if not window:
            raise ValueError(f"no reference sample within {pad:.3f} s of a span")
        out.append((end - start) * REF_S / statistics.median(s for _, s in window))
    return out
