"""Solve times corrected for the speed of a shared host.

On a shared virtual machine the same solve can take anywhere from 1x to 2x
its quiet-host time, and the host's speed drifts over seconds to minutes,
so raw times of two runs of identical code differ by more than any bound a
regression check could use.  ``HostClock`` runs a fixed probe between timed
calls and scales each call's process CPU time by ``PROBE_REF_S`` over the
mean probe-unit time of the probe batches just before and just after it.
The result is the call's time on a host where one probe unit takes
``PROBE_REF_S`` (the reference host: a 2-core Xeon VM under typical load).

The probe mimics the solver's own mix, so that the host slows both alike:
dual projected-gradient steps on a 16-vertex, 40-edge problem (bincount,
sort, cumsum, clip on short vectors, as in ``fracset.inner``) and a
push-relabel-like pass over Python adjacency lists (as in
``fracset.maxflow``).  It is the benchmark's own code, so no change to
fracset changes it.  Each probe batch lasts ``PROBE_SHARE`` of the call it
follows (at least ``MIN_UNITS`` units), about a tenth of a run in all.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["HostClock", "PROBE_REF_S"]

PROBE_REF_S = 0.0037   # probe unit on the reference host, typical load
PROBE_SHARE = 0.1
MIN_UNITS = 2


class HostClock:
    """Times calls in process CPU seconds, raw and corrected to reference speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._m, edges = 16, 40
        self._eu = rng.integers(0, self._m, edges)
        self._ev = rng.integers(0, self._m, edges)
        self._ew = rng.random(edges)
        self._c = rng.random(self._m) - 0.5
        self._adj = [rng.integers(0, 200, 6).tolist() for _ in range(200)]
        self.last = None        # seconds per unit of the latest probe batch
        self.probe_s = 0.0      # CPU seconds spent probing
        self.units = []         # per-unit seconds of every batch

    def _unit(self):
        m, eu, ev, ew = self._m, self._eu, self._ev, self._ew
        alpha, ks, s = np.zeros(ew.size), np.arange(1, m + 1), 0.0
        for _ in range(80):
            w2a = 2.0 * ew * alpha
            base = -self._c - 0.5 * (np.bincount(eu, weights=w2a, minlength=m)
                                     - np.bincount(ev, weights=w2a, minlength=m))
            u = np.sort(np.maximum(base, 0.0))[::-1]
            css = np.cumsum(u) - 1.0
            rho = np.nonzero(u - css / ks > 0)[0]
            tau = css[rho[-1]] / (rho[-1] + 1.0) if rho.size else 0.0
            z = np.maximum(base - tau, 0.0)
            alpha = np.clip(alpha + 0.1 * (z[eu] - z[ev]), -1.0, 1.0)
            s += float(np.dot(z, z))
        height, excess = [0] * len(self._adj), {i: i % 5 for i in range(len(self._adj))}
        for _ in range(6):
            for v, out in enumerate(self._adj):
                e = excess[v]
                for w in out:
                    if e <= 0:
                        break
                    if height[v] >= height[w]:
                        excess[w] += 1
                        e -= 1
                excess[v] = e
                height[v] += 1
        return s

    def probe(self, budget=0.0):
        """Run probe units for ``budget`` CPU seconds (at least MIN_UNITS);
        returns seconds per unit."""
        n, t0 = 0, time.process_time()
        while True:
            self._unit()
            n += 1
            elapsed = time.process_time() - t0
            if n >= MIN_UNITS and elapsed >= budget:
                break
        self.probe_s += elapsed
        self.last = elapsed / n
        self.units.append(self.last)
        return self.last

    def call(self, fn):
        """Run ``fn()``; returns (result, raw CPU seconds, corrected seconds).

        The probe after the call runs even when ``fn`` raises, so the next
        call never leans on a stale reading.
        """
        before = self.last if self.last is not None else self.probe()
        t0 = time.process_time()
        try:
            result = fn()
        finally:
            raw = time.process_time() - t0
            after = self.probe(PROBE_SHARE * raw)
        return result, raw, raw * PROBE_REF_S * 2.0 / (before + after)
