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
(never booleans or NaN, and never a finite literal past float range such
as ``1e400``), and every edge value is a legal coupling in the declared
parameterization, so ``inf`` only passes with ``param beta``.  Every
violation is a :class:`GraphFormatError` naming its location.

Loading is one pass: a reader yields its records one line or JSON entry
at a time and the builder consumes each before the next is read, so
apart from the input text and its lines (for JSON, the entries of its
parsed payload not yet read) only the graph being built grows with the
file.  A location is formatted only for the record that is refused.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterator

from .errors import GraphFormatError, InvalidParameterError
from .graph import PARAM_NAMES, WeightedGraph, beta_to_param, coupling_to_beta

# every sampler allocates per-node state, so a file may not imply more nodes
MAX_NODES = 1_000_000


def _index(raw, what: str, limit: int) -> int:
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
        raise GraphFormatError(f"{what} must be a nonnegative integer, got {raw!r}")
    if value > limit:
        raise GraphFormatError(f"{what} must be at most {limit}, got {raw!r}")
    return value


# what float() reads as infinity, after an optional sign and in any case
_INFINITY = ("inf", "infinity")


def _number(raw, what: str) -> float:
    """A number, or a string ``float`` reads ("0.5", "inf", "-inf", ...).
    A string past float range ("1e400") is refused; the JSON reader keeps
    such number literals as strings, so only an infinite float (JSON's
    ``Infinity``) or an infinity spelling reads as infinity."""
    try:
        if isinstance(raw, bool):  # float(True) is 1.0
            raise TypeError
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        raise GraphFormatError(f"cannot parse {what} {raw!r}") from None
    if math.isnan(value):
        raise GraphFormatError(f"{what} is NaN")
    if math.isinf(value) and isinstance(raw, str) and raw.strip().lstrip("+-").lower() not in _INFINITY:
        raise GraphFormatError(f"{what} {raw!r} is past float range")
    return value


def _build(at: str, records: Iterator[tuple]) -> WeightedGraph:
    """Check records as they arrive and build the graph.

    ``records`` yields ``("param", loc, name)`` first, then ``("edge", loc,
    (i, j, value))``, ``("field", loc, (node, value))`` and ``("nodes",
    loc, count)`` records; the last ``nodes`` record counts and is checked
    after the others.  A location ``loc`` is a string, or a number that
    ``at`` formats only when its record is refused.
    """
    _, loc, name = next(records)
    if name not in PARAM_NAMES:
        raise GraphFormatError(f"{_where(at, loc)}: unknown parameterization {name!r}, expected beta|lambda|p")
    num_nodes = 0
    nodes = None
    pairs: list[tuple[int, int]] = []
    betas: list[float] = []
    seen: set[tuple[int, int]] = set()
    field: dict[int, float] = {}
    for kind, loc, raw in records:
        try:
            if kind == "edge":
                i, j, value = raw
                i = _index(i, "node id", MAX_NODES - 1)
                j = _index(j, "node id", MAX_NODES - 1)
                if i == j:
                    raise GraphFormatError(f"self-loop at node {i}")
                pair = (i, j) if i < j else (j, i)
                if pair in seen:
                    raise GraphFormatError(f"duplicate edge {pair}")
                seen.add(pair)
                betas.append(coupling_to_beta(_number(value, "edge value"), name))
                pairs.append(pair)
                if pair[1] >= num_nodes:
                    num_nodes = pair[1] + 1
            elif kind == "field":
                node, value = raw
                node = _index(node, "node id", MAX_NODES - 1)
                field[node] = _number(value, "field value")
                num_nodes = max(num_nodes, node + 1)
            else:
                nodes = (loc, raw)
        except (GraphFormatError, InvalidParameterError) as exc:
            raise GraphFormatError(f"{_where(at, loc)}: {exc}") from None
    del seen  # the constructor makes its own check
    if nodes is not None:
        loc, raw = nodes
        try:
            num_nodes = max(num_nodes, _index(raw, "node count", MAX_NODES))
        except GraphFormatError as exc:
            raise GraphFormatError(f"{_where(at, loc)}: {exc}") from None
    values = tuple(field.get(node, 0.0) for node in range(num_nodes)) if field else None
    return WeightedGraph(num_nodes, tuple(pairs), tuple(betas), values)


def _where(at: str, loc) -> str:
    return loc if isinstance(loc, str) else at.format(loc)


def _text_records(text: str) -> Iterator[tuple]:
    """The records of a text file, one line at a time."""
    param = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if param is None:
            if tokens[0] != "param" or len(tokens) != 2:
                raise GraphFormatError(f"line {line_no}: expected header 'param beta|lambda|p'")
            param = tokens[1]
            yield "param", line_no, param
        elif tokens[0] == "nodes":
            if len(tokens) != 2:
                raise GraphFormatError(f"line {line_no}: expected 'nodes <count>'")
            yield "nodes", line_no, tokens[1]
        elif tokens[0] == "field":
            if len(tokens) != 3:
                raise GraphFormatError(f"line {line_no}: expected 'field <node> <value>'")
            yield "field", line_no, tokens[1:]
        elif len(tokens) != 3:
            raise GraphFormatError(f"line {line_no}: expected edge '<i> <j> <value>'")
        else:
            yield "edge", line_no, tokens
    if param is None:
        raise GraphFormatError("empty graph file: missing 'param' header")


def read_graph_text(text: str) -> WeightedGraph:
    return _build("line {}", _text_records(text))


def _json_float(literal: str) -> float | str:
    """A JSON number with a fraction or an exponent; a finite literal past
    float range stays a string, which the builder refuses with its place."""
    value = float(literal)
    return literal if math.isinf(value) else value


def _json_records(payload: dict, edges: list, field: dict) -> Iterator[tuple]:
    """The records of a JSON payload, one entry at a time; each edge entry
    leaves the payload as it is read, so the parsed entries and the graph
    built from them do not all exist at once."""
    yield "param", "key 'param'", payload.get("param")
    edges.reverse()
    for k in range(len(edges)):
        entry = edges.pop()
        if not isinstance(entry, list) or len(entry) != 3:
            raise GraphFormatError(f"edge {k}: expected [i, j, value], got {entry!r}")
        yield "edge", k, entry
    for key, value in field.items():
        yield "field", f"field {key!r}", (key, value)
    yield "nodes", "key 'nodes'", payload.get("nodes", 0)


def read_graph_json(text: str) -> WeightedGraph:
    try:
        payload = json.loads(text, parse_float=_json_float)
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
    return _build("edge {}", _json_records(payload, edges, field))


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
        text = path.read_text(encoding="utf-8-sig")
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
