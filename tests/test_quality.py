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


def test_digest_follows_every_answer(monkeypatch, tmp_path):
    # the digest repeats for the same answers and moves with any set, any
    # last bit of a value, or an error; query 3 gets the altered answer
    altered = None
    solved = []

    def fake_solve(fs_module, q):
        solved.append(q)
        members, value = ([q.seed], 1.0)
        if len(solved) == 4 and altered is not None:
            members, value = altered
        if value is None:
            raise RuntimeError("no answer")
        return np.array(members), value

    monkeypatch.setattr(quality.workloads, "solve", fake_solve)
    digests = []
    for altered in (None, None, ([0, 1], 1.0),
                    ([7], np.nextafter(1.0, 2.0)), ([7], None)):
        solved.clear()
        out, _, digest = quality.solve_all("local-cut", 742, tmp_path)
        assert len(out) == len(solved) == 40
        digests.append(digest)
    assert digests[0] == digests[1]
    assert len(set(digests[1:])) == 4


DIGESTS = """fracset from /elsewhere/src
| seed | local-cut hits | value/opt gmean | worst |
|---|---|---|---|
| 742 | 23/40 | 1.1169 | 2.0000 |
| total | 23/40 | | |

| seed | workload | answer digest (sha1) |
|---|---|---|
| 742 | local-cut | 1d08 |
| 742 | desk-batch | e45e |
| 733 | local-cut | f78a |
"""


def test_digest_table_reads_only_the_digest_rows():
    assert quality.digest_table(DIGESTS) == {
        (742, "local-cut"): "1d08", (742, "desk-batch"): "e45e",
        (733, "local-cut"): "f78a"}


def test_comparison_flags_every_difference():
    parent = quality.digest_table(DIGESTS)
    assert all(row[-1] for row in quality.compare(parent, dict(parent)))
    change = {(742, "local-cut"): "1d08", (742, "desk-batch"): "e45f",
              (201, "local-cut"): "85e8"}
    assert quality.compare(parent, change) == [
        (742, "local-cut", "1d08", "1d08", True),
        (742, "desk-batch", "e45e", "e45f", False),
        (201, "local-cut", None, "85e8", False),
        (733, "local-cut", "f78a", None, False)]


def test_parent_run_exits_1_on_any_difference(monkeypatch, capsys):
    # the rows and the parent's table are made up: nothing is solved
    def row(name):
        return lambda seed, workdir: {
            "hits": 1, "queries": 1, "gmean": 1.0, "worst": 1.0, "cpu": 0.0,
            "digest": f"{name[0]}{seed}"}

    monkeypatch.setattr(quality, "ROWS", {name: row(name)
                                          for name in quality.ROWS})
    same = {(seed, name): f"{name[0]}{seed}"
            for seed in (1, 2) for name in quality.ROWS}
    parents = [same, {**same, (2, "desk-batch"): "x"}]
    monkeypatch.setattr(quality, "parent_digests",
                        lambda rev, seeds: parents.pop(0))
    args = ["--seeds", "1", "2", "--parent", "HEAD"]
    assert quality.main(args) == 0
    assert capsys.readouterr().out.count("| same |") == 6
    assert quality.main(args) == 1
    out = capsys.readouterr().out
    assert "| 2 | desk-batch | x | d2 | DIFFERS |" in out
    assert out.count("| same |") == 5
