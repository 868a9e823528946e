import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracset as fs
from fracset.graph import GraphFormatError, data_lines

from helpers import all_subsets, weighted_graph


def test_two_edge_path_from_file(tmp_path):
    p = tmp_path / "path.txt"
    p.write_text("0 1\n1 2\n")
    g, ids = fs.load_edge_list(p)
    assert g.n == 3
    assert np.array_equal(ids, [0, 1, 2])
    assert np.allclose(g.degrees, [1, 2, 1])
    assert np.all(g.edge_w == 1.0)


def test_duplicate_lines_sum_weights(tmp_path):
    p = tmp_path / "dup.txt"
    p.write_text("0 1 2.0\n1 0 1.0\n")
    g, _ = fs.load_edge_list(p)
    assert g.num_edges == 1
    assert g.edge_w[0] == 3.0


def test_comments_and_id_compaction(tmp_path):
    p = tmp_path / "sparse_ids.txt"
    p.write_text("# a comment\n\n10 30 0.5\n30 20 1.5\n")
    g, ids = fs.load_edge_list(p)
    assert g.n == 3
    assert np.array_equal(ids, [10, 20, 30])
    assert np.allclose(g.degrees, [0.5, 1.5, 2.0])


@pytest.mark.parametrize("line,fragment", [
    ("0 1 2 3", "expected"),
    ("a b", "integers"),
    ("0 0", "self-loop"),
    ("0 1 -2", "negative"),
    ("0 1 x", "bad edge weight"),
    ("0 1 nan", "non-finite"),
    ("0 1 inf", "non-finite"),
])
def test_parse_errors_report_line(tmp_path, line, fragment):
    p = tmp_path / "bad.txt"
    p.write_text("0 1\n" + line + "\n")
    with pytest.raises(GraphFormatError, match=r":2:") as err:
        fs.load_edge_list(p)
    assert fragment in str(err.value)


def test_zero_weight_edges_dropped():
    g = fs.Graph.from_edges(3, [(0, 1, 0.0), (1, 2, 1.0)])
    assert g.num_edges == 1


def test_constructor_rejects_duplicates_and_loops():
    with pytest.raises(ValueError, match="duplicate"):
        fs.Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="self-loop"):
        fs.Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError, match="non-negative"):
        fs.Graph.from_edges(3, [(0, 1, -1.0)])


def test_b6_degrees(b6):
    assert np.allclose(b6.degrees, [2, 2, 3, 3, 2, 2])


def test_cut_examples(b6):
    assert fs.cut_value(b6, [0, 1, 2]) == 1.0
    assert fs.cut_value(b6, range(6)) == 0.0
    assert fs.cut_value(b6, [0]) == 2.0
    assert fs.cut_value(b6, []) == 0.0


def test_assoc_examples(b6):
    assert fs.assoc_value(b6, [0, 1, 2]) == 6.0
    assert fs.assoc_value(b6, range(6)) == 14.0
    assert fs.assoc_value(b6, []) == 0.0


def test_volume_examples(b6):
    assert fs.volume(b6.degrees, [0, 1, 2]) == 7.0
    ones = np.ones(6)
    assert fs.volume(ones, [1, 3, 5]) == 3.0
    assert fs.volume(ones, []) == 0.0


def test_set_identities_random(rng):
    for _ in range(25):
        n = int(rng.integers(3, 11))
        g = weighted_graph(n, 0.5, rng)
        d = g.degrees
        full = fs.assoc_value(g, range(n))
        for C in all_subsets(n):
            comp = np.setdiff1d(np.arange(n), C)
            cut = fs.cut_value(g, C)
            assert cut == pytest.approx(fs.cut_value(g, comp), abs=1e-12)
            assert (fs.assoc_value(g, C) + 2 * cut + fs.assoc_value(g, comp)
                    == pytest.approx(full, abs=1e-9))
            # degree identity: vol_d(C) = assoc(C) + cut(C, complement)
            assert fs.volume(d, C) == pytest.approx(
                fs.assoc_value(g, C) + cut, abs=1e-9)
            vol = fs.volume(d, C)
            if vol > 0:
                assert fs.assoc_value(g, C) / vol == pytest.approx(
                    1.0 - cut / vol, abs=1e-9)


def test_save_load_roundtrip(tmp_path, rng):
    g = weighted_graph(8, 0.5, rng)
    path = tmp_path / "rt.txt"
    fs.save_edge_list(g, path)
    g2, ids = fs.load_edge_list(path)
    assert np.array_equal(g.edge_u, g2.edge_u)
    assert np.array_equal(g.edge_v, g2.edge_v)
    assert np.array_equal(g.edge_w, g2.edge_w)


def test_restrict_ball_b6(b6):
    sub, ids = fs.restrict_ball(b6, [0], 1)
    assert np.array_equal(ids, [0, 1, 2])
    assert sub.num_edges == 3
    sub0, ids0 = fs.restrict_ball(b6, [0], 0)
    assert np.array_equal(ids0, [0]) and sub0.num_edges == 0
    full, ids_full = fs.restrict_ball(b6, [0], 10)
    assert full.n == 6 and full.num_edges == b6.num_edges


def test_restrict_ball_count_filter(b6):
    counts = np.array([5, 0, 5, 5, 5, 5])
    sub, ids = fs.restrict_ball(b6, [0], 1, counts=counts, min_count=1)
    # vertex 1 fails the filter, the seed is always kept
    assert np.array_equal(ids, [0, 2])


@st.composite
def edge_lists(draw, min_n=0):
    """(n, edges) with some vertex pairs joined, weights in [0, 3]: zero
    weights, isolated vertices and graphs with no edges all occur."""
    n = draw(st.integers(min_n, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = st.one_of(st.just(0.0), st.floats(1e-3, 3.0))
    return n, [(i, j, draw(weights)) for i, j in chosen]


@settings(max_examples=200, deadline=None)
@given(edge_lists(), st.data())
def test_neighbor_sum_is_the_dense_product(case, data):
    n, edges = case
    graph = fs.Graph.from_edges(n, edges)
    x = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n,
                                    max_size=n)))
    W = np.zeros((n, n))
    for i, j, w in edges:
        W[i, j] = W[j, i] = w
    got = graph.neighbor_sum(x)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert np.all(np.abs(got - W @ x) <= 1e-12 * (W @ np.abs(x)))
    assert np.array_equal(graph.degrees, graph.neighbor_sum(np.ones(n)))


@settings(max_examples=200, deadline=None)
@given(edge_lists(min_n=1), st.data())
def test_restrict_ball_matches_breadth_first_search(case, data):
    n, edges = case
    graph = fs.Graph.from_edges(n, edges)
    seeds = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    radius = data.draw(st.integers(0, 4))
    counts = data.draw(st.none() | st.lists(st.integers(0, 3), min_size=n,
                                            max_size=n))
    adjacency = {i: set() for i in range(n)}
    for i, j, w in edges:
        if w > 0:
            adjacency[i].add(j)
            adjacency[j].add(i)
    ball, frontier = set(seeds), set(seeds)
    for _ in range(radius):
        frontier = {j for i in frontier for j in adjacency[i]} - ball
        ball |= frontier
    if counts is not None:
        ball = {i for i in ball if counts[i] >= 2} | set(seeds)
    want, want_ids = graph.induced_subgraph(sorted(ball))
    if counts is None:
        # a minimum count without counts to compare it with is an error
        with pytest.raises(ValueError):
            fs.restrict_ball(graph, seeds, radius, min_count=2)
    got, ids = fs.restrict_ball(graph, seeds, radius, counts=counts,
                                min_count=0 if counts is None else 2)
    assert np.array_equal(ids, want_ids)
    assert got.n == want.n
    for name in ("edge_u", "edge_v", "edge_w"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_coauthor_weights():
    g, ids = fs.coauthor_weights([["a", "b"]])
    assert g.num_edges == 1 and g.edge_w[0] == 0.5
    g1, ids1 = fs.coauthor_weights([["solo"]])
    assert g1.n == 1 and g1.num_edges == 0
    g2, ids2 = fs.coauthor_weights([["a", "b", "c"], ["a", "b"]])
    i = {a: k for k, a in enumerate(ids2)}
    mask = ((g2.edge_u == min(i["a"], i["b"]))
            & (g2.edge_v == max(i["a"], i["b"])))
    assert g2.edge_w[mask][0] == pytest.approx(1 / 3 + 1 / 2, abs=1e-15)
    with pytest.raises(GraphFormatError):
        fs.coauthor_weights([[]])
    # repeated author names on one publication count once
    g3, _ = fs.coauthor_weights([["a", "a", "b"]])
    assert g3.n == 2 and g3.edge_w[0] == pytest.approx(0.5)


def test_vertex_weight_validation():
    with pytest.raises(ValueError):
        fs.as_vertex_weights([1.0, -0.5], 2)
    with pytest.raises(ValueError):
        fs.as_vertex_weights([1.0], 2)
    w = fs.as_vertex_weights([1.0, 2.0], 2)
    with pytest.raises(ValueError):
        w[0] = 3.0


def test_load_vertex_weights(tmp_path):
    p = tmp_path / "w.txt"
    p.write_text("# weights\n1.0\n2.5\n0\n")
    w = fs.load_vertex_weights(p, 3)
    assert np.allclose(w, [1.0, 2.5, 0.0])
    with pytest.raises(GraphFormatError):
        fs.load_vertex_weights(p, 4)
    # one field per line: a two-column "id weight" file is not read as its
    # id column
    p.write_text("0 1.5\n1 2.0\n2 0.5\n")
    with pytest.raises(GraphFormatError, match=r":1: bad weight '0 1.5'"):
        fs.load_vertex_weights(p)


def test_induced_subgraph_keeps_weights(b6):
    sub, ids = b6.induced_subgraph([0, 1, 2, 3])
    assert sub.n == 4
    assert fs.cut_value(sub, [0, 1, 2]) == 1.0
    assert np.array_equal(ids, [0, 1, 2, 3])


def test_data_lines_skip_blank_and_comment_lines(tmp_path):
    p = tmp_path / "lines.txt"
    p.write_text("# header\n\n \t\n1 2\n   # indented comment\n3\t4  5\n")
    assert list(data_lines(p)) == [(4, ["1", "2"]), (6, ["3", "4", "5"])]
    # every reader reports the file's own line numbers
    bad = tmp_path / "weights.txt"
    bad.write_text("# weights\n1.0\n\nx y\n")
    with pytest.raises(GraphFormatError, match=r":4: bad weight 'x y'"):
        fs.load_vertex_weights(bad)
