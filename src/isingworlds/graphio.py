"""Reading and writing graph files.

Text format, one record per line, ``#`` starts a comment:

    param beta            # or: lambda, p  (how edge values are given)
    nodes 4               # optional; needed for isolated nodes
    field 0 2.0           # optional per-node field, value may be inf/-inf
    0 1 0.5               # edge lines: <i> <j> <value>
    1 2 inf               # "inf" is legal only when param is beta

Edge-line order defines the edge-index order used by configurations.
``lambda = 1`` and ``p = 1`` map to an infinite coupling.  A JSON
equivalent mirrors the same schema with infinite values spelled as the
strings "inf"/"-inf":

    {"param": "beta", "nodes": 4, "field": {"0": 2.0},
     "edges": [[0, 1, 0.5], [1, 2, "inf"]]}

Each reader only checks the shape of its format and hands the raw
records, each tagged with its location (``line N``, ``edge k`` or
``field 'key'``), to one builder that checks the schema for both: node
ids and the node count are nonnegative integers (never booleans or
fractions) and imply at most ``MAX_NODES`` nodes, there are no
self-loops or duplicate edges, values are numbers or infinity spellings
(never booleans or NaN), and every edge value is a legal coupling in the
declared parameterization, so ``inf`` only passes with ``param beta``.
Every violation is a :class:`GraphFormatError` naming its location.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .errors import GraphFormatError, InvalidParameterError
from .graph import PARAM_NAMES, WeightedGraph, beta_to_param, coupling_to_beta

# every sampler allocates per-node state, so a file may not imply more nodes
MAX_NODES = 1_000_000


def _index(where: str, raw, what: str, limit: int) -> int:
    """A nonnegative int up to ``limit``: an int, an integral float, or a
    string ``int`` reads."""
    value = raw
    if isinstance(raw, str):
        try:
            value = int(raw)
        except ValueError:
            pass
    elif isinstance(raw, float) and raw.is_integer():
        value = int(raw)
    if type(value) is not int or value < 0:  # bool is an int subclass
        raise GraphFormatError(f"{where}: {what} must be a nonnegative integer, got {raw!r}")
    if value > limit:
        raise GraphFormatError(f"{where}: {what} must be at most {limit}, got {raw!r}")
    return value


def _number(where: str, raw, what: str) -> float:
    """A number, or a string ``float`` reads ("0.5", "inf", "-inf", ...)."""
    try:
        if isinstance(raw, bool):  # float(True) is 1.0
            raise TypeError
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        raise GraphFormatError(f"{where}: cannot parse {what} {raw!r}") from None
    if math.isnan(value):
        raise GraphFormatError(f"{where}: {what} is NaN")
    return value


def _build(param: tuple, nodes: tuple | None, fields: list, edges: list) -> WeightedGraph:
    """Validate raw records and build the graph.

    ``param`` and ``nodes`` are ``(where, raw)``; ``fields`` holds
    ``(where, node, value)`` and ``edges`` ``(where, i, j, value)``.
    """
    where, name = param
    if name not in PARAM_NAMES:
        raise GraphFormatError(f"{where}: unknown parameterization {name!r}, expected beta|lambda|p")
    num_nodes = 0 if nodes is None else _index(*nodes, "node count", MAX_NODES)
    pairs: list[tuple[int, int]] = []
    betas: list[float] = []
    seen: set[tuple[int, int]] = set()
    for where, i, j, value in edges:
        i = _index(where, i, "node id", MAX_NODES - 1)
        j = _index(where, j, "node id", MAX_NODES - 1)
        if i == j:
            raise GraphFormatError(f"{where}: self-loop at node {i}")
        pair = (i, j) if i < j else (j, i)
        if pair in seen:
            raise GraphFormatError(f"{where}: duplicate edge {pair}")
        seen.add(pair)
        try:
            betas.append(coupling_to_beta(_number(where, value, "edge value"), name))
        except InvalidParameterError as exc:
            raise GraphFormatError(f"{where}: {exc}") from None
        pairs.append(pair)
        num_nodes = max(num_nodes, pair[1] + 1)
    field: dict[int, float] = {}
    for where, node, value in fields:
        node = _index(where, node, "node id", MAX_NODES - 1)
        field[node] = _number(where, value, "field value")
        num_nodes = max(num_nodes, node + 1)
    values = tuple(field.get(node, 0.0) for node in range(num_nodes)) if fields else None
    return WeightedGraph(num_nodes, tuple(pairs), tuple(betas), values)


def read_graph_text(text: str) -> WeightedGraph:
    param = nodes = None
    fields: list = []
    edges: list = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        where = f"line {line_no}"
        if param is None:
            if tokens[0] != "param" or len(tokens) != 2:
                raise GraphFormatError(f"{where}: expected header 'param beta|lambda|p'")
            param = (where, tokens[1])
        elif tokens[0] == "nodes":
            if len(tokens) != 2:
                raise GraphFormatError(f"{where}: expected 'nodes <count>'")
            nodes = (where, tokens[1])
        elif tokens[0] == "field":
            if len(tokens) != 3:
                raise GraphFormatError(f"{where}: expected 'field <node> <value>'")
            fields.append((where, tokens[1], tokens[2]))
        elif len(tokens) != 3:
            raise GraphFormatError(f"{where}: expected edge '<i> <j> <value>'")
        else:
            edges.append((where, *tokens))
    if param is None:
        raise GraphFormatError("empty graph file: missing 'param' header")
    return _build(param, nodes, fields, edges)


def read_graph_json(text: str) -> WeightedGraph:
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise GraphFormatError("graph JSON must be an object")
    edges = payload.get("edges", [])
    field = payload.get("field", {})
    if not isinstance(edges, list):
        raise GraphFormatError(f"key 'edges': expected a list of [i, j, value], got {edges!r}")
    if not isinstance(field, dict):
        raise GraphFormatError(f"key 'field': expected an object of node: value, got {field!r}")
    for k, entry in enumerate(edges):
        if not isinstance(entry, list) or len(entry) != 3:
            raise GraphFormatError(f"edge {k}: expected [i, j, value], got {entry!r}")
    return _build(
        ("key 'param'", payload.get("param")),
        ("key 'nodes'", payload.get("nodes", 0)),
        [(f"field {key!r}", key, value) for key, value in field.items()],
        [(f"edge {k}", *entry) for k, entry in enumerate(edges)],
    )


def _spelled(value: float):
    return value if math.isfinite(value) else ("inf" if value > 0 else "-inf")


def _records(g: WeightedGraph, param: str) -> tuple[list, list]:
    """Nonzero field entries ``(node, value)`` and edges ``(i, j, value)``
    in ``param``, with infinities spelled "inf"/"-inf"."""
    if param not in PARAM_NAMES:
        raise InvalidParameterError(f"unknown parameterization {param!r}")
    field = [(node, _spelled(value)) for node, value in enumerate(g.field or ()) if value != 0.0]
    edges = [(i, j, _spelled(beta_to_param(beta, param))) for (i, j), beta in zip(g.edges, g.betas)]
    return field, edges


def graph_to_text(g: WeightedGraph, param: str = "beta") -> str:
    field, edges = _records(g, param)
    lines = [f"param {param}", f"nodes {g.num_nodes}"]
    lines += [f"field {node} {value}" for node, value in field]
    lines += [f"{i} {j} {value}" for i, j, value in edges]
    return "\n".join(lines) + "\n"


def graph_to_json_dict(g: WeightedGraph, param: str = "beta") -> dict:
    field, edges = _records(g, param)
    payload: dict = {"param": param, "nodes": g.num_nodes}
    if field:
        payload["field"] = {str(node): value for node, value in field}
    payload["edges"] = [list(edge) for edge in edges]
    return payload


def load_graph(path: str | Path) -> WeightedGraph:
    """Read a graph file; '.json' selects the JSON schema, anything else text."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from None
    if path.suffix == ".json":
        return read_graph_json(text)
    return read_graph_text(text)


def save_graph(g: WeightedGraph, path: str | Path, param: str = "beta") -> None:
    path = Path(path)
    if path.suffix == ".json":
        path.write_text(json.dumps(graph_to_json_dict(g, param), indent=2) + "\n", encoding="utf-8")
    else:
        path.write_text(graph_to_text(g, param), encoding="utf-8")
