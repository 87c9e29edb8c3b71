"""The one-slot caches of `spectral.predict` and `fem.p1_interpolate`
under threads: a race may rebuild a point set's tables, but a call never
gets the tables of another point set."""

import sys
import threading

import numpy as np
import pytest

from wavebench import fem, spectral
from wavebench.problem import WaveProblem

_ROUNDS, _THREADS = 200, 4              # more threads than a 2-CPU host has


def _surrogate():
    model = spectral.fit_spectral_model(WaveProblem(), N=5, m=200, seed=0)
    return lambda x, y: spectral.predict(model, x, y, 0.3)


def _p1():
    grid = np.random.default_rng(1).standard_normal((6, 8))
    return lambda x, y: fem.p1_interpolate(grid, 1.0, 1.0, x, y)


@pytest.mark.parametrize("make", [_surrogate, _p1], ids=["predict", "p1"])
def test_threads_alternating_point_sets_get_their_own_values(make):
    evaluate = make()
    rng = np.random.default_rng(7)
    sets = [(rng.random(40), rng.random(40)), (rng.random(60), rng.random(60))]
    want = [evaluate(x, y) for x, y in sets]
    wrong, done = [], []

    def work(k):
        for i in range(_ROUNDS):
            j = (k + i) % 2                 # each thread alternates the sets
            if not np.array_equal(evaluate(*sets[j]), want[j]):
                wrong.append((k, i))
        done.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == list(range(_THREADS)) and wrong == []
