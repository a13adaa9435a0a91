"""Graph file parsing and writing."""

import gc
import json
import math
import random
import re
import tracemalloc

import pytest

from conftest import random_graph
from isingworlds import (
    GraphFormatError,
    WeightedGraph,
    graph_to_json_dict,
    graph_to_text,
    load_graph,
    read_graph_json,
    read_graph_text,
    save_graph,
)
from isingworlds.cli import main
from isingworlds.fixtures import fixture_graph, fixture_path, grid_graph
from isingworlds.graphio import MAX_NODES

TRIANGLE_TEXT = """\
# a triangle
param beta
nodes 3
0 1 0.5
0 2 0.5
1 2 0.5
"""


def test_read_basic():
    g = read_graph_text(TRIANGLE_TEXT)
    assert g.num_nodes == 3
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    assert g.betas == (0.5, 0.5, 0.5)


def test_nodes_line_allows_isolated_nodes():
    g = read_graph_text("param beta\nnodes 5\n0 1 0.5\n")
    assert g.num_nodes == 5


def test_node_count_inferred_from_edges():
    g = read_graph_text("param beta\n0 3 0.5\n")
    assert g.num_nodes == 4


def test_field_lines():
    g = read_graph_text("param beta\nfield 0 2.0\nfield 1 -inf\n0 1 0.5\n")
    assert g.field == (2.0, -math.inf)


def test_inline_comments_and_blank_lines():
    g = read_graph_text("\n# header\nparam beta\n0 1 0.5  # an edge\n\n")
    assert g.num_edges == 1


def test_lambda_and_p_files():
    g_lam = read_graph_text("param lambda\n0 1 0.6\n")
    assert g_lam.betas[0] == pytest.approx(math.atanh(0.6))
    g_p = read_graph_text("param p\n0 1 0.75\n")
    assert g_p.betas[0] == pytest.approx(math.log(2.0))
    # value 1 means an infinite coupling in either parameterization
    assert read_graph_text("param lambda\n0 1 1\n").betas == (math.inf,)
    assert read_graph_text("param p\n0 1 1\n").betas == (math.inf,)


def test_inf_edge_only_for_beta():
    assert read_graph_text("param beta\n0 1 inf\n").betas == (math.inf,)
    with pytest.raises(GraphFormatError, match="line 2"):
        read_graph_text("param lambda\n0 1 inf\n")


@pytest.mark.parametrize(
    "text,line",
    [
        ("0 1 0.5\n", 1),  # missing header
        ("param beta\n0 0 0.5\n", 2),  # self-loop
        ("param beta\n0 1 0.5\n1 0 0.5\n", 3),  # duplicate
        ("param beta\n0 1 -0.5\n", 2),  # negative coupling
        ("param beta\n0 1\n", 2),  # wrong arity
        ("param beta\n0 1 abc\n", 2),  # bad number
        ("param lambda\n0 1 1.5\n", 2),  # out of range
        ("param charlie\n", 1),  # unknown parameterization
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(GraphFormatError, match=f"line {line}"):
        read_graph_text(text)


def test_empty_file_rejected():
    with pytest.raises(GraphFormatError):
        read_graph_text("# nothing here\n")


def test_text_round_trip_all_params():
    g = WeightedGraph.from_edges(4, [(0, 1, 0.5), (1, 2, math.inf), (2, 3, 0.0)], field={0: 1.5})
    for param in ("beta", "lambda", "p"):
        again = read_graph_text(graph_to_text(g, param))
        assert again.num_nodes == g.num_nodes
        assert again.edges == g.edges
        assert again.field == g.field
        for b1, b2 in zip(again.betas, g.betas):
            assert b1 == pytest.approx(b2, rel=1e-12) or (math.isinf(b1) and math.isinf(b2))


def test_json_round_trip():
    g = WeightedGraph.from_edges(3, [(0, 1, math.inf), (1, 2, 0.25)], field={2: -math.inf})
    import json

    payload = json.dumps(graph_to_json_dict(g, "beta"))
    again = read_graph_json(payload)
    assert again.edges == g.edges
    assert again.betas == g.betas
    assert again.field == g.field


def test_json_errors():
    with pytest.raises(GraphFormatError):
        read_graph_json("not json at all {")
    with pytest.raises(GraphFormatError):
        read_graph_json('{"param": "watts"}')
    with pytest.raises(GraphFormatError):
        read_graph_json('{"param": "lambda", "edges": [[0, 1, "inf"]]}')


def test_bundled_fixture_files_agree_across_params():
    for name in ("k2", "path3", "triangle", "cycle4", "k4", "grid3x3"):
        reference = fixture_graph(name, 0.5)
        for param in ("beta", "lambda", "p"):
            g = load_graph(fixture_path(name, param))
            assert g.edges == reference.edges
            for b1, b2 in zip(g.betas, reference.betas):
                assert b1 == pytest.approx(b2, rel=1e-12)


def test_bundled_json_fixture():
    g = load_graph(fixture_path("triangle", "beta", "json"))
    assert g.edges == fixture_graph("triangle").edges


def _json(**payload):
    return json.dumps({"param": "beta", **payload})


# (case, text file, JSON file, location in the text, location in the JSON);
# None where a format cannot spell the case
MALFORMED = [
    ("unknown param", "param charlie\n", '{"param": "watts"}', "line 1", "key 'param'"),
    ("edge arity", "param beta\n0 1\n", _json(edges=[[0, 1]]), "line 2", "edge 0"),
    ("edge not a list", None, _json(edges=[5]), None, "edge 0"),
    ("edges not a list", None, _json(edges=None), None, "key 'edges'"),
    ("node id not a number", "param beta\n0 a 0.5\n", _json(edges=[["a", 1, 0.5]]), "line 2", "edge 0"),
    ("node id fraction", "param beta\n0.7 1 0.5\n", _json(edges=[[0.7, 1, 0.5]]), "line 2", "edge 0"),
    ("node id bool", None, _json(edges=[[True, 1, 0.5]]), None, "edge 0"),
    ("node id negative", "param beta\n-1 0 0.5\n", _json(edges=[[-1, 0, 0.5]]), "line 2", "edge 0"),
    ("self-loop", "param beta\n0 0 0.5\n", _json(edges=[[0, 0, 0.5]]), "line 2", "edge 0"),
    (
        "duplicate edge",
        "param beta\n0 1 0.5\n1 0 0.5\n",
        _json(edges=[[0, 1, 0.5], [1, 0, 0.5]]),
        "line 3",
        "edge 1",
    ),
    ("edge value list", None, _json(edges=[[0, 1, [1]]]), None, "edge 0"),
    ("edge value bool", "param beta\n0 1 true\n", _json(edges=[[0, 1, True]]), "line 2", "edge 0"),
    ("edge value word", "param beta\n0 1 abc\n", _json(edges=[[0, 1, "abc"]]), "line 2", "edge 0"),
    ("edge value NaN", "param beta\n0 1 nan\n", _json(edges=[[0, 1, "nan"]]), "line 2", "edge 0"),
    ("edge value past float", None, _json(edges=[[0, 1, 10**400]]), None, "edge 0"),
    ("negative coupling", "param beta\n0 1 -0.5\n", _json(edges=[[0, 1, -0.5]]), "line 2", "edge 0"),
    (
        "inf outside beta",
        "param lambda\n0 1 inf\n",
        '{"param": "lambda", "edges": [[0, 1, "inf"]]}',
        "line 2",
        "edge 0",
    ),
    (
        "p out of range",
        "param p\n0 1 1.5\n",
        '{"param": "p", "edges": [[0, 1, 1.5]]}',
        "line 2",
        "edge 0",
    ),
    ("nodes not a number", "param beta\nnodes x\n", _json(nodes="x"), "line 2", "key 'nodes'"),
    ("nodes fraction", "param beta\nnodes 3.9\n", _json(nodes=3.9), "line 2", "key 'nodes'"),
    ("nodes bool", None, _json(nodes=True), None, "key 'nodes'"),
    ("nodes negative", "param beta\nnodes -1\n", _json(nodes=-1), "line 2", "key 'nodes'"),
    (
        "nodes past cap",
        "param beta\nnodes 2000000000\n0 1 0.5\n",
        _json(nodes=2_000_000_000, edges=[[0, 1, 0.5]]),
        "line 2",
        "key 'nodes'",
    ),
    (
        "node id past cap",
        f"param beta\n0 {MAX_NODES} 0.5\n",
        _json(edges=[[0, MAX_NODES, 0.5]]),
        "line 2",
        "edge 0",
    ),
    (
        "field node past cap",
        f"param beta\nfield {MAX_NODES} 1.0\n",
        _json(field={str(MAX_NODES): 1.0}),
        "line 2",
        f"field '{MAX_NODES}'",
    ),
    ("field not an object", None, _json(field=[1, 2]), None, "key 'field'"),
    ("field node not a number", "param beta\nfield z 1.0\n", _json(field={"z": 1.0}), "line 2", "field 'z'"),
    ("field value bool", "param beta\nfield 0 true\n", _json(field={"0": True}), "line 2", "field '0'"),
    ("field value NaN", "param beta\nfield 0 nan\n", _json(field={"0": "nan"}), "line 2", "field '0'"),
    ("field value list", None, _json(field={"0": [1]}), None, "field '0'"),
    # a finite literal past float range is not an infinite coupling or field
    ("edge literal past float", "param beta\n0 1 1e400\n", '{"param": "beta", "edges": [[0, 1, 1e400]]}',
     "line 2", "edge 0"),
    ("edge string past float", None, _json(edges=[[0, 1, "1e400"]]), None, "edge 0"),
    ("edge literal past float, lambda", "param lambda\n0 1 1e400\n",
     '{"param": "lambda", "edges": [[0, 1, 1e400]]}', "line 2", "edge 0"),
    ("field literal past float", "param beta\nfield 0 -1e999\n", '{"param": "beta", "field": {"0": -1e999}}',
     "line 2", "field '0'"),
]

MALFORMED_FILES = [
    pytest.param(suffix, body, where, id=f"{case}-{suffix}")
    for case, text, payload, text_where, json_where in MALFORMED
    for suffix, body, where in ((".graph", text, text_where), (".json", payload, json_where))
    if body is not None
]


@pytest.mark.parametrize("suffix,body,where", MALFORMED_FILES)
def test_malformed_input_is_a_located_format_error(suffix, body, where, tmp_path, capsys):
    read = read_graph_json if suffix == ".json" else read_graph_text
    with pytest.raises(GraphFormatError, match=f"^{re.escape(where)}: "):
        read(body)
    path = tmp_path / f"bad{suffix}"
    path.write_text(body, encoding="utf-8")
    # an uncaught exception would escape main; exit 2 is the input-error code
    assert main(["convert", "--graph", str(path), "--to", "p"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {where}: ")


def test_node_cap(tmp_path, capsys):
    g = read_graph_text(f"param beta\nnodes {MAX_NODES}\n0 {MAX_NODES - 1} 0.5\n")
    assert g.num_nodes == MAX_NODES
    path = tmp_path / "huge.graph"
    path.write_text("param beta\nnodes 2000000000\n0 1 0.5\n", encoding="utf-8")
    argv = ["perfect", "--world", "rc", "--graph", str(path), "--samples", "1", "--seed", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: line 2: node count must be at most")


def test_unreadable_input_is_a_format_error(tmp_path):
    path = tmp_path / "binary.graph"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(GraphFormatError, match="cannot read"):
        load_graph(path)
    with pytest.raises(GraphFormatError, match="invalid JSON"):
        read_graph_json("[" * 100_000)


def test_text_and_json_round_trip_random_graphs():
    rnd = random.Random(3)
    for _ in range(150):
        g = random_graph(rnd, extreme_share=0.3)
        field = None
        if rnd.random() < 0.5:
            choices = (0.0, math.inf, -math.inf)
            field = tuple(rnd.choice(choices) if rnd.random() < 0.5 else rnd.uniform(-2, 2)
                          for _ in range(g.num_nodes))
            g = WeightedGraph(g.num_nodes, g.edges, g.betas, field)
        for param in ("beta", "lambda", "p"):
            again = read_graph_text(graph_to_text(g, param))
            assert read_graph_json(json.dumps(graph_to_json_dict(g, param))) == again
            assert again.num_nodes == g.num_nodes
            assert again.edges == g.edges
            assert again.field == (field if g.has_field() else None)
            for b1, b2 in zip(again.betas, g.betas):
                assert b1 == pytest.approx(b2, rel=1e-12) or (math.isinf(b1) and math.isinf(b2))


def test_past_float_range_is_refused_by_name():
    with pytest.raises(GraphFormatError, match=r"^line 2: edge value '1e400' is past float range$"):
        read_graph_text("param beta\n0 1 1e400\n")
    with pytest.raises(GraphFormatError, match=r"^edge 1: edge value '-1E999' is past float range$"):
        read_graph_json('{"param": "beta", "edges": [[0, 1, 0.5], [1, 2, -1E999]]}')


def test_infinity_spellings_still_read_as_infinity():
    g = read_graph_text("param beta\nfield 0 -inf\nfield 1 +Infinity\n0 1 inf\n1 2 +inf\n2 3 infinity\n3 4 INF\n")
    assert g.betas == (math.inf,) * 4
    assert g.field[:2] == (-math.inf, math.inf)
    g = read_graph_json('{"param": "beta", "field": {"0": "-inf"}, "edges": [[0, 1, "inf"], [1, 2, 1e300]]}')
    assert g.betas == (math.inf, 1e300)
    assert g.field[0] == -math.inf
    # json.dumps writes an infinite float as the bare literal Infinity
    g = read_graph_json('{"param": "beta", "field": {"0": -Infinity, "1": Infinity}, "edges": [[0, 1, Infinity]]}')
    assert g.betas == (math.inf,)
    assert g.field == (-math.inf, math.inf)


@pytest.mark.parametrize("suffix", [".graph", ".json"])
def test_byte_order_mark_is_skipped(suffix, tmp_path):
    g = WeightedGraph.from_edges(3, [(0, 1, 0.5), (1, 2, math.inf)], field={2: -1.5})
    path = tmp_path / f"g{suffix}"
    save_graph(g, path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load_graph(path) == g


@pytest.mark.parametrize("suffix,bound", [(".graph", 400), (".json", 450)])
def test_loading_is_one_pass(suffix, bound, tmp_path):
    """A loaded graph holds about 167 bytes an edge; loading a file keeps
    no per-edge record or location while it builds one (a loader that
    kept both until the graph was built peaked at about 660 bytes an edge
    for text and 630 for JSON)."""
    g = grid_graph(64, 64, 0.44)
    path = tmp_path / f"grid64{suffix}"
    save_graph(g, path)
    gc.collect()  # a full collection empties the free lists, which tracemalloc counts
    tracemalloc.start()
    try:
        loaded = load_graph(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == g
    assert peak <= bound * g.num_edges


@pytest.mark.parametrize(
    "text,where",
    [
        ("param beta\n0 1 abc\n0 1\n", "line 2"),  # a value fault before a shape fault
        ("param beta\nfield 0 nan\n0 0 0.5\n", "line 2"),  # a field line before an edge line
        ("param beta\nnodes x\n0 0 0.5\n", "line 3"),  # the node count after every other line
    ],
)
def test_text_faults_are_found_in_file_order(text, where):
    with pytest.raises(GraphFormatError, match=f"^{where}: "):
        read_graph_text(text)


def test_only_the_last_node_count_counts():
    assert read_graph_text("param beta\nnodes x\nnodes 3\n0 1 0.5\n").num_nodes == 3
