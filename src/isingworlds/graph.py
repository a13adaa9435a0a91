"""Weighted graphs, coupling-parameter conversions, and field elimination.

Every edge carries one canonical ferromagnetic coupling ``beta`` in
``[0, +inf]``.  Two derived parameterizations are available on demand:

* ``lam = tanh(beta)`` with ``tanh(inf) = 1`` (edge weight in the
  subgraphs formulation),
* ``p = 1 - exp(-2 * beta)`` with ``exp(-inf) = 0`` (open-edge
  probability in the random-cluster formulation).

Zero weight is decided from beta alone (:attr:`WeightedGraph.extreme_edges`):
only beta = 0 and beta = inf rule a state out.  The samplers draw from p
and lambda, resolved to 2**-53, so a finite-beta edge whose p or lambda
rounds to 1.0 (from beta ~ 18.715 and ~ 19.06) always opens: it is pinned
for the samplers although both of its states have positive weight.

An optional per-node external field ``B`` is supported as long as it is
sign-uniform; :func:`reduce_unidirectional_field` rewrites such a model
as a field-free model on a slightly larger graph.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Mapping, Sequence

from .errors import InvalidConfigError, InvalidParameterError, UnsupportedFieldError


def _require_number(value: float, what: str) -> float:
    value = float(value)
    if math.isnan(value):
        raise InvalidParameterError(f"{what} is NaN")
    return value


def _require_beta(beta: float) -> float:
    beta = _require_number(beta, "beta")
    if beta < 0:
        raise InvalidParameterError(f"beta must be nonnegative, got {beta}")
    return beta


def beta_to_lambda(beta: float) -> float:
    """Map a coupling to its subgraphs-world edge weight tanh(beta)."""
    return math.tanh(_require_beta(beta))  # tanh(inf) is 1.0


def beta_to_p(beta: float) -> float:
    """Map a coupling to its random-cluster open probability 1 - exp(-2*beta)."""
    return -math.expm1(-2.0 * _require_beta(beta))  # expm1(-inf) is -1.0


def lambda_to_beta(lam: float) -> float:
    """Inverse of :func:`beta_to_lambda`; ``lam = 1`` maps to ``beta = inf``."""
    lam = _require_number(lam, "lambda")
    if not 0.0 <= lam <= 1.0:
        raise InvalidParameterError(f"lambda must lie in [0, 1], got {lam}")
    if lam == 1.0:
        return math.inf
    return math.atanh(lam)


def p_to_beta(p: float) -> float:
    """Inverse of :func:`beta_to_p`; ``p = 1`` maps to ``beta = inf``."""
    p = _require_number(p, "p")
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError(f"p must lie in [0, 1], got {p}")
    if p == 1.0:
        return math.inf
    return -0.5 * math.log1p(-p)


# each parameterization's conversions (to beta, from beta); beta to beta
# is the identity, unchecked
_PARAMS = {
    "beta": (_require_beta, lambda beta: beta),
    "lambda": (lambda_to_beta, beta_to_lambda),
    "p": (p_to_beta, beta_to_p),
}
PARAM_NAMES = tuple(_PARAMS)


def coupling_to_beta(value: float, param: str) -> float:
    """Convert an edge value given in any supported parameterization to beta."""
    if param not in _PARAMS:
        raise InvalidParameterError(f"unknown parameterization {param!r}")
    return _PARAMS[param][0](value)


def beta_to_param(beta: float, param: str) -> float:
    """Express a canonical beta coupling in the requested parameterization."""
    if param not in _PARAMS:
        raise InvalidParameterError(f"unknown parameterization {param!r}")
    return _PARAMS[param][1](beta)


def _integer(raw, what: str) -> int:
    """An int, an integral float, or a string ``int`` reads, as an int; a
    bool or a fraction is refused."""
    if isinstance(raw, float) and raw.is_integer():
        return int(raw)
    if isinstance(raw, str):
        try:
            return int(raw)
        except ValueError:
            pass
    elif not isinstance(raw, bool):
        try:
            return operator.index(raw)
        except TypeError:
            pass
    raise InvalidParameterError(f"{what} must be an integer, got {raw!r}")


def _checked(edges: tuple, betas: tuple, num_nodes: int) -> bool:
    """Check every edge and coupling: raise at the first invalid one, or
    return False at the first edge that is not a tuple of two ints with a
    float coupling, so that the caller converts the input and checks again."""
    for edge, beta in zip(edges, betas):
        if type(edge) is not tuple:
            return False
        i, j = edge
        if type(i) is not int or type(j) is not int or type(beta) is not float:
            return False
        if not (0 <= i < j < num_nodes and beta >= 0.0):
            if i == j:
                raise InvalidParameterError(f"self-loop at node {i} is not allowed")
            if not 0 <= i < j < num_nodes:
                raise InvalidParameterError(f"edge ({i}, {j}) must satisfy 0 <= i < j < num_nodes")
            _require_beta(beta)
    return True


def golden_stride(s: int) -> int:
    """The stride of a golden-ratio scan of ``s`` items: the integer nearest
    ``s * 0.6180339887``, raised until it is coprime to ``s``, so that the
    positions ``k * stride % s`` for k in ``range(s)`` visit every item once."""
    a = max(1, round(s * 0.6180339887))
    while math.gcd(a, s) != 1:
        a += 1
    return a


@dataclass(frozen=True)
class WeightedGraph:
    """Simple undirected graph with per-edge couplings and optional node field.

    Nodes are the dense integers ``0 .. num_nodes - 1``.  Edges are stored
    as ``(i, j)`` with ``i < j`` in the order given at construction; that
    order is the edge-index order used by every configuration.  Whatever
    sequences it is given, it stores tuples of ints and of floats (a node
    id may be an integral float or a string ``int`` reads, never a bool),
    so the instance is immutable, hashable and safe to share across threads.
    """

    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    betas: tuple[float, ...]
    field: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        num_nodes = _integer(self.num_nodes, "num_nodes")
        if num_nodes < 0:
            raise InvalidParameterError("num_nodes must be nonnegative")
        edges, betas, field = self.edges, self.betas, self.field
        if len(edges) != len(betas):
            raise InvalidParameterError("edges and betas must have equal length")
        # a tuple of int pairs and a tuple of floats, as the loaders build
        # them, are kept as they are; anything else is converted first
        if not (type(edges) is tuple and type(betas) is tuple and _checked(edges, betas, num_nodes)):
            edges = tuple((_integer(i, "node id"), _integer(j, "node id")) for i, j in edges)
            betas = tuple(map(float, betas))
            _checked(edges, betas, num_nodes)
        # ascending edges, as every grid and every file written from one
        # holds them, cannot repeat; other orders are checked with a set of
        # the stored pairs
        if not all(map(operator.lt, edges, islice(edges, 1, None))) and len(set(edges)) < len(edges):
            seen: set[tuple[int, int]] = set()
            for pair in edges:  # name the first repeat in edge order
                if pair in seen:
                    raise InvalidParameterError(f"parallel edge {pair}; pre-merge couplings by beta addition")
                seen.add(pair)
        if field is not None:
            field = tuple(map(float, field))
            if len(field) != num_nodes:
                raise InvalidParameterError("field must assign a value to every node")
            for value in field:
                _require_number(value, "field value")
        object.__setattr__(self, "num_nodes", num_nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "field", field)

    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: Iterable[tuple[int, int, float]],
        field: Mapping[int, float] | Sequence[float] | None = None,
        param: str = "beta",
    ) -> "WeightedGraph":
        """Build a graph from ``(i, j, value)`` triples in any parameterization.

        Endpoint order within a triple does not matter; the stored edge is
        normalized to ``i < j``.  ``field`` may be a full per-node sequence
        or a sparse mapping (missing nodes default to 0).
        """
        pairs: list[tuple[int, int]] = []
        betas: list[float] = []
        for i, j, value in edges:
            if type(i) is not int or type(j) is not int:
                i, j = _integer(i, "node id"), _integer(j, "node id")
            pairs.append((i, j) if i < j else (j, i))
            betas.append(coupling_to_beta(value, param))
        if isinstance(field, Mapping):
            values = [0.0] * num_nodes
            for node, value in field.items():
                node = _integer(node, "field node")
                if not 0 <= node < num_nodes:
                    raise InvalidParameterError(f"field references unknown node {node}")
                values[node] = value
            field = values
        return cls(num_nodes, tuple(pairs), tuple(betas), field)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def lambdas(self) -> tuple[float, ...]:
        return tuple(beta_to_lambda(b) for b in self.betas)

    @cached_property
    def ps(self) -> tuple[float, ...]:
        return tuple(beta_to_p(b) for b in self.betas)

    @cached_property
    def extreme_edges(self) -> tuple[int, ...]:
        """Edges with beta of 0 or inf, ascending: the only edges on which
        a coupling can rule a configuration out."""
        return tuple(e for e, b in enumerate(self.betas) if b == 0.0 or b == math.inf)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-node tuple of ``(neighbor, edge_index)`` pairs in edge order."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.num_nodes)]
        for e, (i, j) in enumerate(self.edges):
            adj[i].append((j, e))
            adj[j].append((i, e))
        return tuple(tuple(entries) for entries in adj)

    @cached_property
    def short_cycles(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Per edge, up to four triangles and 4-cycles through it, triangles
        first, each given by the ids of its other edges; a triangle repeats
        its last id, so that every cycle is a triple.

        If every edge of one of them is open, the edge's endpoints are
        joined without it, so the connectivity query can answer at once.
        The scan starts from the endpoint of lower degree and stops at four
        cycles, which bounds the build on dense graphs.
        """
        nbrs = [dict(entries) for entries in self.adjacency]  # neighbour -> edge id
        cycles = []
        for i, j in self.edges:
            u, v = (i, j) if len(nbrs[i]) <= len(nbrs[j]) else (j, i)
            to_v = nbrs[v]
            found = [(e_uw, to_v[w], to_v[w]) for w, e_uw in nbrs[u].items() if w in to_v]
            for w, e_uw in nbrs[u].items():
                if len(found) >= 4:
                    break
                if w != v:  # u - w - x - v closes a 4-cycle
                    found.extend(
                        (e_uw, e_wx, to_v[x]) for x, e_wx in nbrs[w].items() if x in to_v and x != u
                    )
            cycles.append(tuple(found[:4]))
        return tuple(cycles)

    @cached_property
    def sweep_order(self) -> tuple[int, ...]:
        """The edges whose update needs a draw (0 < p < 1) in the order a
        CFTP sweep updates them.

        Sweep position k holds free edge ``k * a % s`` of the ``s`` free
        edges in ascending order, with ``a = golden_stride(s)``: consecutive
        updates land far apart on the graph instead of on neighbours.
        """
        free = [e for e, p in enumerate(self.ps) if 0.0 < p < 1.0]
        s = len(free)
        a = golden_stride(s)
        return tuple(free[k * a % s] for k in range(s))

    @cached_property
    def cftp_plan(self) -> "CftpPlan":
        """What every CFTP run on this graph reads that no draw changes."""
        ps, edges = self.ps, self.edges
        low = tuple(p / (2.0 - p) for p in ps)
        return CftpPlan(
            tuple(1 if p >= 1.0 else 0 for p in ps),
            tuple(1 if p > 0.0 else 0 for p in ps),
            low,
            tuple((e, ps[e], low[e], *edges[e], self.short_cycles[e]) for e in self.sweep_order),
            {},
        )

    def has_field(self) -> bool:
        return self.field is not None and any(b != 0.0 for b in self.field)

    @cached_property
    def _field_free(self) -> bool:
        """``not has_field()``, kept: the guard of every sampler call reads it."""
        return not self.has_field()

    @cached_property
    def _log_weights_finite(self) -> bool:
        """Whether the finite couplings and finite field magnitudes sum
        within float range, kept: every spins sampler call reads it."""
        try:
            math.fsum(abs(v) for v in (*self.betas, *(self.field or ())) if math.isfinite(v))
        except OverflowError:
            return False
        return True

    def without_field(self) -> "WeightedGraph":
        if self.field is None:
            return self
        return WeightedGraph(self.num_nodes, self.edges, self.betas, None)


@dataclass(frozen=True, eq=False)
class CftpPlan:
    """The per-graph constants of coupling from the past
    (:mod:`isingworlds.cftp`), computed once per graph object as
    :attr:`WeightedGraph.cftp_plan` and pickled with it.

    ``bottom`` and ``top`` are the lower and upper chains' start: the
    edges whose p rounds to 1 open and the p = 0 edges closed in both,
    every free edge closed in ``bottom`` and open in ``top``.  ``low``
    holds each edge's lower heat-bath threshold p / (2 - p), the
    open probability when its endpoints are not connected elsewhere.
    ``sweep`` holds, at sweep position k, everything step k of a sweep
    reads: ``(e, p, low, i, j, cycles)`` for ``e = sweep_order[k]``, with
    ``(i, j)`` its endpoints and ``cycles`` its
    :attr:`~WeightedGraph.short_cycles`, so a step looks nothing up.
    ``first_epochs`` keeps :func:`~isingworlds.cftp.first_epoch`'s
    answer for each budget.
    """

    bottom: tuple[int, ...]
    top: tuple[int, ...]
    low: tuple[float, ...]
    sweep: tuple[tuple[int, float, float, int, int, tuple[tuple[int, int, int], ...]], ...]
    first_epochs: dict[int, int]


def require_field_free(g: WeightedGraph) -> None:
    """Reject a graph with a field: the three-world correspondence, the
    samplers and the partition-sum identities are stated for field-free
    models."""
    if not g._field_free:
        raise InvalidConfigError(
            "graph carries a magnetic field; apply reduce_unidirectional_field first"
        )


def _require_finite_log_weights(g: WeightedGraph) -> None:
    """Refuse a graph whose finite couplings and finite field magnitudes
    sum past float range: a spins log weight or energy, a signed sum of
    them, could then overflow to inf, and the log-domain identities sum
    the couplings."""
    if not g._log_weights_finite:
        raise InvalidParameterError("the finite couplings and field values sum past float range")


@dataclass(frozen=True)
class FieldReduction:
    """Result of eliminating a sign-uniform field.

    ``node_map`` sends each original node to its node in ``graph``;
    ``anchor`` (when set) is the node whose spin must be conditioned to +1
    when interpreting draws from the field-free model, and ``anchor_sign``
    is the global sign applied when lifting a draw back (``-1`` for an
    all-nonpositive field).
    """

    graph: WeightedGraph
    node_map: tuple[int, ...]
    anchor: int | None
    anchor_sign: int
    original_nodes: int

    def lift_spins(self, x: Sequence[int]) -> tuple[int, ...]:
        """Translate a field-free draw into a draw from the field model.

        The field-free model is spin-flip symmetric, so a draw is first
        flipped (if needed) to put the anchor at +1, which realizes the
        conditioning without rejection.
        """
        if self.anchor is None:
            return tuple(x)
        flip = 1 if x[self.anchor] == 1 else -1
        return tuple(self.anchor_sign * flip * x[self.node_map[v]] for v in range(self.original_nodes))


def _field_sign(field: Sequence[float]) -> int:
    has_pos = any(v > 0 for v in field)
    has_neg = any(v < 0 for v in field)
    if has_pos and has_neg:
        raise UnsupportedFieldError("field mixes signs; only sign-uniform fields are supported")
    if has_neg:
        return -1
    if has_pos:
        return 1
    return 0


def reduce_unidirectional_field(g: WeightedGraph) -> FieldReduction:
    """Rewrite a sign-uniform field model as a field-free model.

    Finite field values become couplings ``|B(i)| / 2`` to an anchor node;
    nodes with infinite field are merged into the anchor itself (their
    spin is forced).  Conditioning the field-free model on the anchor spin
    reproduces the field model exactly; :meth:`FieldReduction.lift_spins`
    performs that conditioning on samples.
    """
    n = g.num_nodes
    if not g.has_field():
        return FieldReduction(g.without_field(), tuple(range(n)), None, 1, n)

    sign = _field_sign(g.field)
    magnitudes = tuple(abs(v) for v in g.field)
    forced = frozenset(v for v in range(n) if math.isinf(magnitudes[v]))
    survivors = [v for v in range(n) if v not in forced]
    anchor = len(survivors)
    remap = {old: new for new, old in enumerate(survivors)}
    node_map = tuple(remap.get(v, anchor) for v in range(n))

    # Accumulate couplings; edges into the anchor merge by beta addition.
    merged: dict[tuple[int, int], float] = {}
    for (i, j), beta in zip(g.edges, g.betas):
        a, b = node_map[i], node_map[j]
        if a == b:
            continue  # both endpoints forced: constant factor
        if a > b:
            a, b = b, a
        merged[(a, b)] = merged.get((a, b), 0.0) + beta
    for v in range(n):
        if v in forced or magnitudes[v] == 0.0:
            continue
        key = (node_map[v], anchor)
        merged[key] = merged.get(key, 0.0) + magnitudes[v] / 2.0

    reduced = WeightedGraph(
        anchor + 1,
        tuple(merged.keys()),
        tuple(merged.values()),
        None,
    )
    return FieldReduction(reduced, node_map, anchor, 1 if sign >= 0 else -1, n)
