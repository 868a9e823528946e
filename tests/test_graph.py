import locale
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fracset as fs
from fracset.graph import GraphFormatError, as_index_array, data_lines

from helpers import all_subsets, load_edge_list_reference, weighted_graph


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
    # in line order: 1e16 + 1 rounds back to 1e16, twice
    p.write_text("0 1 1e16\n1 0 1\n0 1 1\n")
    g, _ = fs.load_edge_list(p)
    assert g.edge_w.tolist() == [1e16]


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


def load_outcome(load, path):
    """What a loader makes of a file: n and the bytes of ids, edge_u,
    edge_v, edge_w and degrees, or the type and message of its error."""
    try:
        graph, ids = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    return graph.n, [(a.dtype.str, a.tobytes()) for a in (
        ids, graph.edge_u, graph.edge_v, graph.edge_w, graph.degrees)]


def write_raw(path, text):
    """Write text as is: no newline translation, the reader's encoding."""
    path.write_text(text, encoding=locale.getpreferredencoding(False),
                    errors="replace", newline="")


@pytest.fixture(scope="module")
def text_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("edge_texts")


_FULL_WIDTH = str.maketrans("0123456789.", "０１２３４５６７８９．")


@st.composite
def id_tokens(draw, exotic):
    k = draw(st.sampled_from([0, 1, 2, -1, 1000, 2**62, -2**63]))
    styles = ["plain", "plus", "zeros"] + (["underscore", "full-width"]
                                           if exotic else [])
    style = draw(st.sampled_from(styles))
    text = str(k)
    if style == "plus":
        return "-0" if k == 0 else ("+" + text if k > 0 else text)
    if style == "zeros":
        return ("-" if k < 0 else "") + "00" + text.lstrip("-")
    if style == "underscore" and len(text.lstrip("-")) > 1:
        return text[:-1] + "_" + text[-1]
    if style == "full-width":
        return text.translate(_FULL_WIDTH)
    return text


# 1e16 then 1 and 1 sums to 1e16 in line order and to 1e16 + 2 the other
# way round; 1e308 twice overflows
WEIGHT_TOKENS = ["1", "0", "0.0", "-0", ".5", "5.", "1e-400", "0.1", "0.7",
                 repr(1 / 3), "1e16", "1e308", "+2"]
EXOTIC_WEIGHT_TOKENS = ["1_0.5", "１.５"]
BAD_LINES = ["1 1 1", "2 3 nan", "2 3 inf", "2 3 -1", "1.0 2 1", "2 3 4 5",
             "2 3 #c", "1Ǿ2 3 1", "x 2", "1 99999999999999999999 1"]


@st.composite
def edge_list_texts(draw):
    """Edge-list text: 2- or 3-column lines, or both; few ids in several
    spellings, so duplicates in both orientations are common; comment and
    blank lines; LF, CRLF or CR line ends; at times one bad line.  An
    exotic text also spells ids and weights as only Python's int() and
    float() read them, and separates fields by non-ASCII whitespace."""
    columns = draw(st.sampled_from([(2,), (3,), (2, 3)]))
    exotic = draw(st.booleans())
    seps = [" ", "\t", "  ", " \t", "\x0b", "\x1c"]
    sep = st.sampled_from(seps + (["\xa0", "\u3000"] if exotic else []))
    weight = st.sampled_from(WEIGHT_TOKENS
                             + (EXOTIC_WEIGHT_TOKENS if exotic else []))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["edge"] * 4 + ["comment", "blank"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# c", "  #x 1 2", "#"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        else:
            fields = [draw(id_tokens(exotic)), draw(id_tokens(exotic))]
            if draw(st.sampled_from(columns)) == 3:
                fields.append(draw(weight))
            lines.append(draw(sep).join(fields))
    if lines and draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(BAD_LINES)))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


# two 1e308 edges at one vertex give it an infinite degree in both loaders;
# the example sums two 1e308 lines of one pair past the float range
@settings(max_examples=400, deadline=None)
@given(edge_list_texts())
@example(text="# c\n0 1 1\n0 1 1e308\n# c\n0 1 1e308")
def test_load_edge_list_matches_the_per_line_reference(text_dir, text):
    path = text_dir / "edges.txt"
    write_raw(path, text)
    assert (load_outcome(fs.load_edge_list, path)
            == load_outcome(load_edge_list_reference, path))


@pytest.mark.parametrize("text,line", [
    ("0 1 1\n0 1 2 3\n", 2),                    # 4 fields
    ("0 1 1\n0 2 #1\n", 2),                     # an inline '#'
    ("0 1 1\n2 2 1\n", 2),                      # a self-loop
    ("0 1 1\n1 2 nan\n", 2),
    ("0 1 1\n1 2 inf\n", 2),
    ("0 1 1\n1 2 -0.5\n", 2),                   # a negative weight
    ("0 1\n1.0 2\n", 2),                        # a real as an id
    ("1e3 2\n0 1\n", 1),
    ("0 1 1\n1 99999999999999999999 1\n", 2),   # an id past int64
    ("0 1\n1\u01fe2 3\n", 2),                     # numpy reads it as 1 4722
    ("0 1 1\n\n1 1 1\n2 3 -1\n", 3),            # two bad lines
])
def test_malformed_files_raise_as_the_reference(tmp_path, text, line):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(GraphFormatError) as expected:
        load_edge_list_reference(path)
    with pytest.raises(GraphFormatError) as got:
        fs.load_edge_list(path)
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith(f"{path}:{line}: ")


def test_ids_past_int64_name_their_line(tmp_path):
    p = tmp_path / "big.txt"
    p.write_text("1 2 1\n1 99999999999999999999 1\n")
    with pytest.raises(GraphFormatError, match=r":2: vertex id out of range"):
        fs.load_edge_list(p)
    p.write_text("-9223372036854775808 9223372036854775807\n")
    _, ids = fs.load_edge_list(p)
    assert ids.tolist() == [-2**63, 2**63 - 1]


def _loadtxt_through_float(lines, dtype, **kwargs):
    """np.loadtxt as numpy 1.23-1.26 reads these files: an integer field it
    cannot read as one goes through float, with a DeprecationWarning."""
    rows = [line.split() for line in lines if line.strip()]
    if any(not tok.lstrip("+-").isdigit() or not -2**63 <= int(tok) < 2**63
           for row in rows for tok in row[:2]):
        warnings.warn("loadtxt(): Parsing an integer via a float is "
                      "deprecated.", DeprecationWarning)
    return np.array([tuple(int(float(tok)) for tok in row[:2])
                     + tuple(float(tok) for tok in row[2:])
                     for row in rows], dtype=dtype)


@pytest.mark.parametrize("text,message", [
    ("1.0 2\n", ":1: vertex ids must be integers"),
    ("0 1\n1e3 2\n", ":2: vertex ids must be integers"),
    ("0 1 1\n1 99999999999999999999 1\n", ":2: vertex id out of range"),
])
def test_ids_numpy_reads_through_a_float_raise_as_the_rules(
        tmp_path, monkeypatch, text, message):
    p = tmp_path / "ids.txt"
    p.write_text(text)
    monkeypatch.setattr(np, "loadtxt", _loadtxt_through_float)
    with pytest.raises(GraphFormatError, match=message):
        fs.load_edge_list(p)


def test_zero_weight_edges_dropped():
    g = fs.Graph.from_edges(3, [(0, 1, 0.0), (1, 2, 1.0)])
    assert g.num_edges == 1
    # a zero-weight line is no duplicate of its pair
    g = fs.Graph.from_edges(3, [(1, 0, 0.0), (0, 1, 2.0)])
    assert g.edge_w.tolist() == [2.0]


def test_constructor_rejects_duplicates_and_loops():
    with pytest.raises(ValueError, match="duplicate"):
        fs.Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="self-loop"):
        fs.Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError, match="non-negative"):
        fs.Graph.from_edges(3, [(0, 1, -1.0)])


def test_degree_overflow_names_the_vertex(tmp_path):
    # each weight is finite, but vertex 1's two edges sum past the float
    # range: no degree may silently be inf.  A graph names the vertex by its
    # index, an edge list by its id in the file (9, compacted to 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="degree of vertex 1 overflows"):
            fs.Graph.from_edges(3, [(0, 1, 1e308), (1, 2, 1e308)])
        p = tmp_path / "heavy.txt"
        p.write_text("7 9 1e308\n9 11 1e308\n")
        with pytest.raises(fs.GraphFormatError,
                           match="heavy.txt: degree of vertex 9 overflows"):
            fs.load_edge_list(p)
        g = fs.Graph.from_edges(3, [(0, 1, 1e308), (0, 2, 7e307)])
    assert g.degrees.tolist() == [1.7e308, 1e308, 7e307]


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


def test_vertex_lists_are_masks_or_integer_ids():
    # bools are a mask whether they come as a list or an array; ids that
    # are not integers raise instead of being truncated
    ones = np.ones(3)
    mask = [True, False, True]
    assert fs.volume(ones, mask) == fs.volume(ones, np.array(mask)) == 2.0
    assert as_index_array(mask, 3).tolist() == [0, 2]
    with pytest.raises(ValueError, match="length 3"):
        fs.volume(ones, [True, False])
    assert as_index_array([2.0, 0.0], 3).tolist() == [2, 0]
    assert as_index_array({2, 0}, 3).tolist() == [0, 2]
    assert as_index_array([], 3).size == 0
    for ids in ([0.7, 2.2], [np.nan], ["1"]):
        with pytest.raises(ValueError, match="integers"):
            as_index_array(ids, 3)
    with pytest.raises(ValueError, match="integers"):
        fs.Graph(3, [0.6], [1.9], [1.0])
    assert fs.Graph(3, [0.0], [1.0], [1.0]).edge_v.tolist() == [1]


@pytest.mark.parametrize("call,fragment", [
    (lambda b6: fs.Graph(-1), "vertex count must be non-negative"),
    (lambda b6: fs.Graph(3, [0, 1], [1], [1.0, 1.0]), "equal length"),
    (lambda b6: fs.Graph(3, [0], [3], [1.0]), "endpoint out of range"),
    (lambda b6: fs.Graph(3, [-1], [1], [1.0]), "endpoint out of range"),
    (lambda b6: fs.Graph(3, [0], [1], [np.nan]), "weights must be finite"),
    (lambda b6: as_index_array({0, 3}, 3), "index out of range"),
    (lambda b6: as_index_array([-1], 3), "index out of range"),
    (lambda b6: fs.as_vertex_weights([1.0, np.inf], 2), "must be finite"),
    (lambda b6: fs.restrict_ball(b6, [], 1), "seed set must be non-empty"),
    (lambda b6: fs.restrict_ball(b6, [0], -1), "radius must be non-negative"),
    # an integer input that is not an integer is refused, not truncated
    (lambda b6: fs.Graph(2.7, [0], [1], [1.0]),
     "vertex count must be an integer"),
    (lambda b6: fs.restrict_ball(b6, [0], 1.7), "radius must be an integer"),
    (lambda b6: fs.restrict_ball(b6, [0], 1, counts=[1, 2]),
     "expected 6 per-vertex counts"),
])
def test_invalid_graph_input_raises(b6, call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call(b6)


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
    for value in ("1e400", "nan", "-inf"):
        p.write_text(f"1.0\n{value}\n")
        with pytest.raises(GraphFormatError, match=r":2: non-finite weight"):
            fs.load_vertex_weights(p)
    p.write_text("1.0\n-2\n")
    with pytest.raises(GraphFormatError, match=r":2: negative weight -2.0"):
        fs.load_vertex_weights(p)
    # spellings numpy's reader leaves to the per-line rules read as float()
    p.write_text("1_0.5\n１.５\n.5\n")
    assert fs.load_vertex_weights(p).tolist() == [10.5, 1.5, 0.5]


@settings(max_examples=200, deadline=None)
@given(edge_lists(), st.data())
def test_induced_subgraph_matches_the_checked_constructor(case, data):
    # the kept edges are stored unchecked and unsorted: they must be what
    # the validating constructor makes of them, byte for byte
    n, edges = case
    graph = fs.Graph.from_edges(n, edges)
    picks = data.draw(st.lists(st.integers(0, n - 1)) if n else st.just([]))
    if data.draw(st.booleans()):
        picks = np.isin(np.arange(n), picks)
    sub, ids = graph.induced_subgraph(picks)
    want_ids = np.unique(np.nonzero(picks)[0] if isinstance(picks, np.ndarray)
                         else np.asarray(picks, dtype=np.int64))
    new_of = {int(old): new for new, old in enumerate(want_ids)}
    want = fs.Graph.from_edges(len(want_ids), [
        (new_of[i], new_of[j], w) for i, j, w in edges
        if i in new_of and j in new_of])
    assert ids.tobytes() == want_ids.tobytes() and sub.n == want.n
    for name in ("edge_u", "edge_v", "edge_w", "degrees"):
        got, expected = getattr(sub, name), getattr(want, name)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
        assert not got.flags.writeable


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


@pytest.mark.parametrize("read,data,line", [
    (fs.load_edge_list, b"0 1\n1 2 \xff\n", 2),
    # text mode's line breaks: '\r\n' and a lone '\r' end a line each
    (fs.load_edge_list, b"0 1\r\n1 2\r2 3\n\n3 4 \xfe1\n", 5),
    (fs.load_vertex_weights, b"1.0\n\xff\n2.0\n", 2),
    (fs.load_vertex_weights, b"# w\n1.0\n2.\xc3\n", 3),
])
def test_undecodable_text_names_its_line(tmp_path, read, data, line):
    p = tmp_path / "bad.txt"
    p.write_bytes(data)
    with pytest.raises(GraphFormatError,
                       match=rf"^{re.escape(str(p))}:{line}: bad "):
        read(p)
