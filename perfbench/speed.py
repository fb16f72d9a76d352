"""Machine-speed probe, so that times from a shared, noisy CPU stay comparable.

On a shared 2-core virtual machine (numpy 2.4, OpenBLAS capped at one
thread) the same fixed loop runs anywhere between 0.16 s and 0.33 s,
depending on what else shares the host, and the state switches every few
seconds.  Raw run times then spread by 25-50 % between runs.  `SpeedProbe` runs a small fixed numpy kernel every
`PERIOD_S` seconds from a SIGALRM handler in the main thread and records how
long it took.  `SpeedProbe.scale` turns an interval's wall time into
reference-speed seconds: it subtracts the probe time spent inside the
interval and divides by the probe's median duration around it, relative to
`REF_PROBE_S`.

The kernel is the mix that dominates qflow's ops: small eigendecompositions,
tensordot, Gram matrices, per-column scans, scipy's lambertw and a little
interpreted Python.  On that machine its parts tracked the speed of
ncrank, quantum_functional and certify with log-slopes of 0.8-1.0 and about
halved the run-to-run noise; no single part tracked every op best, so it
runs them all.  It uses numpy and scipy only, never qflow, so a change to
qflow cannot move it.
"""

import signal
import time
from array import array

import numpy as np
from scipy.special import lambertw

PERIOD_S = 0.1
# Probe duration that defines the reference speed: roughly the probe's
# duration in that virtual machine's slower, more common state.
REF_PROBE_S = 1e-3
# Probes within this distance of an interval set its speed.  The speed state
# switches every few seconds, so half a second either side still tracks it
# while giving about ten probes to take a median over.
WINDOW_S = 0.5

_rng = np.random.default_rng(5)
_R = _rng.standard_normal((4, 4))
_R = _R + _R.T
_C = _rng.standard_normal((3, 3)) + 1j * _rng.standard_normal((3, 3))
_C = _C + _C.conj().T
_T = _rng.standard_normal((3, 3, 2)) + 1j * _rng.standard_normal((3, 3, 2))
_Y = _rng.standard_normal(3)


def kernel(eigh=np.linalg.eigh, lambertw=lambertw):
    # eigh is bound at import so that tracing wrappers never see the probe
    for _ in range(25):
        eigh(_R)
        sum(i * 0.5 for i in range(20))
    for _ in range(10):
        vals, U = eigh(_C)
        (U * vals) @ U.conj().T
    for _ in range(4):
        A = np.moveaxis(np.tensordot(_C, _T, axes=(1, 0)), 0, 0).reshape(3, -1)
        M = A @ A.conj().T
        float(np.max(np.abs(M - M.conj().T)))
        vals, U = eigh(0.5 * (M + M.conj().T))
        for j in range(3):
            np.nonzero(np.abs(U[:, j]) > 1e-12)
    for _ in range(5):
        np.real(lambertw(np.exp(_Y)))


def speed_factor(repeats=9):
    """Slowdown against the reference speed, from back-to-back kernel runs."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return float(np.median(times)) / REF_PROBE_S


class SpeedProbe:
    def __init__(self):
        self.start_t = array("d")
        self.dur = array("d")
        self._old = None

    def _handler(self, signum, frame):
        t = time.perf_counter()
        kernel()
        self.start_t.append(t)
        self.dur.append(time.perf_counter() - t)

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def _samples(self):
        # the handler may append between the two copies; keep complete pairs
        T, D = np.array(self.start_t), np.array(self.dur)
        n = min(T.size, D.size)
        return T[:n], D[:n]

    def scale(self, t0, t1):
        """Reference-speed seconds of the wall intervals [t0, t1] (arrays)."""
        t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
        T, D = self._samples()
        if not D.size:
            return t1 - t0
        C = np.concatenate([[0.0], np.cumsum(D)])
        busy = (t1 - t0) - (C[np.searchsorted(T, t1)] - C[np.searchsorted(T, t0)])
        j0 = np.searchsorted(T, t0 - WINDOW_S)
        j1 = np.searchsorted(T, t1 + WINDOW_S)
        overall = np.median(D)
        probe = np.array([np.median(D[a:b]) if b > a else overall
                          for a, b in zip(j0.ravel(), j1.ravel())]).reshape(busy.shape)
        return busy * REF_PROBE_S / probe

    def factor(self, t0, t1):
        """Reference-speed seconds per wall second over [t0, t1]."""
        T, D = self._samples()
        D = D[(T >= t0) & (T <= t1)]
        return REF_PROBE_S / float(np.median(D)) if D.size else 1.0

    def median_ms(self):
        _, D = self._samples()
        return 1e3 * float(np.median(D)) if D.size else 0.0
