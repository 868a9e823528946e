"""The exact local-cut optimum of tools/quality.py against brute_force."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import fracset as fs

_PATH = Path(__file__).resolve().parent.parent / "tools" / "quality.py"
_SPEC = importlib.util.spec_from_file_location("quality", _PATH)
quality = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(quality)


def test_local_cut_enumeration_matches_brute_force(rng):
    checked = 0
    while checked < 25:
        n = int(rng.integers(3, 9))
        iu, iv = np.triu_indices(n, 1)
        keep = rng.random(iu.size) < 0.5
        if not keep.any():
            continue
        u, v = iu[keep], iv[keep]
        w = rng.choice([1.0, rng.uniform(0.5, 2.0)], size=u.size)
        edges = (n, u, v, w)
        deg = np.bincount(u, weights=w, minlength=n) + np.bincount(
            v, weights=w, minlength=n)
        s = int(rng.integers(0, n))
        bound = float(deg[s] + rng.uniform(0.1, 1.0) * (deg.sum() - deg[s]))

        def cut(C):
            mask = np.isin(np.arange(n), C)
            return float(w[mask[u] != mask[v]].sum())

        def balance(C):
            vol = float(deg[C].sum())
            return vol * (deg.sum() - vol)

        oracle = fs.brute_force(
            SimpleNamespace(n=n), cut, balance,
            constraints=[fs.VolumeConstraint(deg, bound)], seed=(s,))
        got = quality.local_cut_optimum(edges, s, bound)
        if oracle.best_set is None:
            assert got == np.inf
        else:
            assert abs(got - oracle.best_value) <= 1e-12 * oracle.best_value
        checked += 1


def test_local_cut_enumeration_examples():
    # on a path 0-1-2-3 with seed 1, the best set within volume 3 is {0, 1}:
    # cut 1 over 3 * 3
    edges = (4, np.array([0, 1, 2]), np.array([1, 2, 3]), np.ones(3))
    assert quality.local_cut_optimum(edges, 1, 3.0) == 1.0 / 9.0
    # only the seed alone (volume 2) fits a bound of 2.5: cut 2 over 2 * 4
    assert quality.local_cut_optimum(edges, 1, 2.5) == 2.0 / 8.0
    # below the seed's own volume nothing is feasible
    assert quality.local_cut_optimum(edges, 1, 1.0) == np.inf
