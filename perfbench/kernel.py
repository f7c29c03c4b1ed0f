"""Microbenchmark of the search kernel through dc_lab's public functions.

At each (d, K) point it times ``objective_and_gradient`` and ``objective``
against the floor beneath them: one bare batched ``numpy.linalg.eigh`` of
the same (K-1, d, d) shape.  Inputs are drawn from the seed.  Each function
is warmed up, then timed in batches of at least 20 ms; the three functions'
batches are interleaved over fifteen rounds, so a slow spell of the machine
hits all three alike, and each per-call time is the median over the rounds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

POINTS = {"d3k5": (3, 5), "d4k7": (4, 7), "d8k10": (8, 10)}
BATCH_S = 0.02
ROUNDS = 15


def _batch(fn, n: int) -> float:
    t0 = time.perf_counter()
    for _ in range(n):
        fn()
    return time.perf_counter() - t0


def per_call_us(fns) -> list[float]:
    """Median per-call time in microseconds of each function in `fns`."""
    sizes = []
    for fn in fns:
        _batch(fn, 10)
        n = 1
        while _batch(fn, n) < BATCH_S:
            n *= 2
        sizes.append(n)
    samples = [[] for _ in fns]
    for _ in range(ROUNDS):
        for fn, n, out in zip(fns, sizes, samples):
            out.append(_batch(fn, n) / n)
    return [statistics.median(s) * 1e6 for s in samples]


def kernel_metrics(dc, seed: int) -> dict[str, tuple[float, str]]:
    rng = np.random.default_rng(seed)
    out: dict[str, tuple[float, str]] = {}
    for key, (d, k) in POINTS.items():
        state = dc.make_state(d, np.sort(rng.dirichlet(np.ones(d)))[::-1])
        theta = rng.standard_normal((k - 1) * d * d)
        a = rng.standard_normal((k - 1, d, d)) + 1j * rng.standard_normal((k - 1, d, d))
        herm = (a + a.conj().transpose(0, 2, 1)) / 2
        w, v = np.linalg.eigh(herm)
        free = (v * np.exp(1j * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
        members = [np.eye(d, dtype=np.complex128), *free]
        grad, obj, floor = per_call_us(
            [
                lambda: dc.objective_and_gradient(state, theta, k),
                lambda: dc.objective(state, members),
                lambda: np.linalg.eigh(herm),
            ]
        )
        out[f"kernel.objective_and_gradient_us.{key}"] = (grad, "us")
        out[f"kernel.objective_us.{key}"] = (obj, "us")
        out[f"kernel.eigh_floor_us.{key}"] = (floor, "us")
        out[f"kernel.grad_over_eigh.{key}"] = (grad / floor, "ratio")
    return out
