"""Bit-exact answers of the full solver on a fixed-seed batch.

Every instance is solved through the public entry points with a fixed
configuration, and the answer is compared with a recorded one: the set, the
winning start, and the exact bits of value, penalized value and gamma.  A
refactor that reorders floating-point work shows up here even when every
quality gate still passes.  To re-record after a deliberate change of the
numerics, run ``PYTHONPATH=src python tests/test_golden.py`` and paste its
output over GOLDEN.
"""

import numpy as np

import fracset as fs

from helpers import er_graph, planted_partition


def _desk_instances():
    """24 connected graphs with n <= 8, alternating local cut and density."""
    rng = np.random.default_rng(20260101)
    out = []
    while len(out) < 24:
        n = 6 + len(out) % 3
        graph = er_graph(n, 0.45, rng)
        deg = graph.degrees
        s = int(rng.choice(np.nonzero(deg > 0)[0]))
        if len(out) % 2 == 0:
            bound = float(deg[s] + rng.uniform(0.2, 0.6) * (deg.sum() - deg[s]))
            out.append(("ncut", graph, fs.NCutProblemSpec(seed=(s,), bound=bound)))
        else:
            upper = float(rng.integers(2, n // 2 + 2))
            # every other density instance also carries a lower bound
            lower = 2.0 if len(out) % 4 == 3 else None
            out.append(("density", graph, fs.DensityProblemSpec(
                seed=(s,), upper=upper, lower=lower)))
    return out


def _sbm_instances():
    """Two small local cuts on three-block planted partitions."""
    rng = np.random.default_rng(7)
    out = []
    for seed in (0, 9):
        graph = planted_partition([6, 6, 6], 0.8, 0.08, rng)
        bound = 0.2 * float(graph.degrees.sum())
        out.append(("ncut", graph, fs.NCutProblemSpec(seed=(seed,), bound=bound)))
    return out


def _solve(kind, graph, spec):
    cfg = fs.SolverConfig(initializations=2, seed=5)
    solver = fs.solve_local_ncut if kind == "ncut" else fs.solve_max_density
    sol = solver(graph, spec, cfg)
    return ([int(v) for v in sol.set_ids], int(sol.init_id),
            float(sol.value).hex(), float(sol.penalized_value).hex(),
            float(sol.gamma).hex())


def answers():
    return [_solve(*inst) for inst in _desk_instances() + _sbm_instances()]


GOLDEN = [
    ([1, 3, 4], 1, '0x1.0000000000000p-3', '0x1.0000000000000p-3', '0x1.1111111111111p+1'),
    ([3, 4, 6], 0, '0x1.8000000000000p-1', '0x1.8000000000000p-1', '0x1.6666666666666p+2'),
    ([0], 0, '0x1.745d1745d1746p-5', '0x1.745d1745d1746p-5', '0x1.9d0ac19d0ac1ap+1'),
    ([1, 3, 4], 0, '0x1.0000000000000p-1', '0x1.0000000000000p-1', '0x0.0p+0'),
    ([4, 6], 0, '0x1.5833a15833a16p-5', '0x1.5833a15833a16p-5', '0x1.5833a15833a16p-4'),
    ([4, 5, 7], 0, '0x1.0000000000000p-1', '0x1.0000000000000p-1', '0x1.45d1745d1745dp+1'),
    ([2, 5], 1, '0x1.c71c71c71c71cp-5', '0x1.c71c71c71c71cp-5', '0x1.7a17a17a17a18p-3'),
    ([1, 5, 6], 0, '0x1.8000000000000p-1', '0x1.8000000000000p-1', '0x1.aaaaaaaaaaaabp+1'),
    ([0, 3, 4, 6], 1, '0x1.c71c71c71c71cp-6', '0x1.c71c71c71c71cp-6', '0x0.0p+0'),
    ([1, 2, 3], 0, '0x1.0000000000000p-1', '0x1.0000000000000p-1', '0x1.5555555555555p+0'),
    ([0, 4, 5, 6], 2, '0x1.1111111111111p-5', '0x1.1111111111111p-5', '0x1.5555555555555p-5'),
    ([0, 1], 1, '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.aaaaaaaaaaaabp+13'),
    ([1, 2, 5], 0, '0x1.5f15f15f15f16p-4', '0x1.5f15f15f15f16p-4', '0x1.5f15f15f15f16p-4'),
    ([2, 4, 5, 6], 0, '0x1.999999999999ap-2', '0x1.999999999999ap-2', '0x1.2aaaaaaaaaaabp+0'),
    ([1, 5], 0, '0x1.f07c1f07c1f08p-6', '0x1.f07c1f07c1f08p-6', '0x1.b6132a7041b61p-4'),
    ([1, 4], 0, '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.6db6db6db6db7p+2'),
    ([2, 5, 6], 1, '0x1.5555555555555p-5', '0x1.5555555555555p-5', '0x0.0p+0'),
    ([1, 2, 6], 0, '0x1.8000000000000p-1', '0x1.8000000000000p-1', '0x1.3b13b13b13b14p+2'),
    ([0, 1, 4], 0, '0x1.0000000000000p-4', '0x1.0000000000000p-4', '0x0.0p+0'),
    ([1, 3, 5, 6], 2, '0x1.999999999999ap-2', '0x1.999999999999ap-2', '0x1.0000000000000p+2'),
    ([5, 6], 0, '0x1.6c16c16c16c17p-6', '0x1.6c16c16c16c17p-6', '0x0.0p+0'),
    ([2, 3, 4, 5], 0, '0x1.5555555555555p-1', '0x1.5555555555555p-1', '0x1.b6db6db6db6dbp+0'),
    ([2, 6], 0, '0x1.02b1da46102b2p-5', '0x1.02b1da46102b2p-5', '0x1.5833a15833a16p-5'),
    ([2, 3, 5, 6, 7], 0, '0x1.1c71c71c71c72p-2', '0x1.1c71c71c71c72p-2', '0x1.0000000000000p+0'),
    ([0, 14, 15, 16], 2, '0x1.2aa19e02f8270p-7', '0x1.2aa19e02f8270p-7', '0x1.58b98767fc68cp-1'),
    ([9, 16, 17], 0, '0x1.5426f9cc9f724p-7', '0x1.5426f9cc9f724p-7', '0x1.b951e2b18ff23p+0'),
]


def test_answers_are_bit_identical():
    got = answers()
    assert len(got) == len(GOLDEN)
    for i, (a, b) in enumerate(zip(got, GOLDEN)):
        assert a == b, f"instance {i}: {a} != {b}"


if __name__ == "__main__":
    print("GOLDEN = [")
    for rec in answers():
        print(f"    {rec!r},")
    print("]")
