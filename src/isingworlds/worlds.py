"""Configurations, weights and open-subgraph traversal for the three
Ising formulations.

A spins configuration assigns ``+1``/``-1`` to every node; the two edge
worlds assign ``0``/``1`` to every edge.  Configurations are plain tuples
aligned with the graph's node and edge ordering, so they are hashable and
usable as table keys.  Each world has one unnormalized weight formula
and one log-domain companion, written as a batch pair over an int8
configuration matrix (one row per configuration); they agree wherever
the linear value is positive and representable.  The scalar
``weight_*`` functions validate one configuration and evaluate it as a
one-row matrix.  The spins weight includes the field's node factors
when the graph carries one; the random-cluster pair takes each row's
cluster count from its caller.

Each world has two guards: :func:`validate_config` checks a
configuration's shape, and :func:`require_support`, which every
conversion and chain applies to its input, adds a field-free graph and
positive weight.

All three worlds meet at the clusters of an open edge set, and this
module holds the one traversal of that open subgraph: cluster labels,
the maximal spanning forest peeled by the subgraphs conversion, and the
single-edge connectivity query of the heat-bath kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidConfigError, UnknownStatisticError
from .graph import WeightedGraph, require_field_free

SpinConfig = tuple[int, ...]
SubgraphConfig = tuple[int, ...]
RcConfig = tuple[int, ...]


@dataclass(frozen=True)
class ClusterPartition:
    """Partition of nodes into open-edge connected components.

    ``component_id[v]`` is the smallest node id in ``v``'s component, so
    labels are canonical and deterministic.
    """

    component_id: tuple[int, ...]
    count: int


_SPIN_VALUES = frozenset((-1, 1))
_EDGE_VALUES = frozenset((0, 1))


def validate_config(g: WeightedGraph, world: str, config: Sequence[int]) -> None:
    """Check a configuration's shape only: one value per node (spins) or
    per edge (subs, rc), each -1/+1 or 0/1."""
    # three names, not four: Python then assigns without building a tuple
    if world == "spins":
        kind, size, values = "spin", g.num_nodes, _SPIN_VALUES
    else:
        kind, size, values = "edge", len(g.edges), _EDGE_VALUES
    if len(config) != size:
        raise InvalidConfigError(f"{kind} configuration has length {len(config)}, expected {size}")
    try:
        if values.issuperset(config):  # one hashed lookup per value, in C
            return
    except TypeError:  # an unhashable value, which the loop names
        pass
    legal = sorted(values)  # compared by ==, which an unhashable value allows
    for value in config:
        if value not in legal:
            text = "-1 or +1" if kind == "spin" else "0 or 1"
            raise InvalidConfigError(f"{kind} values must be {text}, got {value!r}")


def require_support(g: WeightedGraph, world: str, config: Sequence[int]) -> None:
    """Reject a graph with a field, then a malformed ``config``, then one
    that the world's batch log weight gives -inf: spins disagreeing
    across an infinite coupling, an open zero-coupling edge, an odd
    degree (subs) or a closed p = 1 edge (rc)."""
    require_field_free(g)
    validate_config(g, world, config)
    for e in g.extreme_edges:
        if world == "spins":
            i, j = g.edges[e]
            if config[i] != config[j] and math.isinf(g.betas[e]):
                raise InvalidConfigError(
                    f"edge {e} has infinite coupling but disagreeing endpoints (zero weight)"
                )
        elif config[e]:
            if g.ps[e] == 0.0:  # lambda is 0 too
                raise InvalidConfigError(f"edge {e} is open but has zero coupling (zero weight)")
        elif world == "rc" and g.ps[e] == 1.0:
            raise InvalidConfigError(f"edge {e} is closed but has p = 1 (zero weight)")
    if world == "subs":
        parity = [0] * g.num_nodes
        for i, j in compress(g.edges, config):
            parity[i] ^= 1
            parity[j] ^= 1
        if any(parity):
            raise InvalidConfigError("subgraphs configuration has odd degree (zero weight)")


# ---------------------------------------------------------------------------
# Open-subgraph traversal
# ---------------------------------------------------------------------------

def _open_forest(g: WeightedGraph, z: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """Maximal spanning forest of the open subgraph via iterative DFS.

    Returns ``(parent_edge, order, root)`` where ``parent_edge[v]`` is the
    forest edge joining ``v`` to its parent (-1 for roots), ``order`` is
    node-discovery order and ``root[v]`` is the root of ``v``'s tree.
    Roots are taken in ascending order, so ``root[v]`` is the smallest
    node of ``v``'s component.  Scanning ``order`` backwards retires each
    non-root node's unique parent edge while it is a leaf of what remains.
    """
    n = g.num_nodes
    adj = g.adjacency
    parent_edge = [-1] * n
    order: list[int] = []
    root = [-1] * n
    for r in range(n):
        if root[r] >= 0:
            continue
        root[r] = r
        order.append(r)
        stack = [r]
        while stack:
            v = stack.pop()
            for w, e in adj[v]:
                if z[e] and root[w] < 0:
                    root[w] = r
                    parent_edge[w] = e
                    order.append(w)
                    stack.append(w)
    return parent_edge, order, root


def _connected_without_edge(
    g: WeightedGraph, z: Sequence[int], e: int, mark: list[int], stamp: int = 1
) -> bool:
    """Are e's endpoints joined by open edges other than e itself?

    Breadth-first searches from both endpoints advance in lockstep, one
    node each (the interleaved search of Elci & Weigel, PRE 88, 033303,
    2013): the answer is yes when they meet and no as soon as either side
    runs out, so the work is bounded by the smaller of the two clusters.

    Visited nodes are marked in ``mark``, one int per node: ``stamp`` on
    i's side, ``stamp + 1`` on j's, and anything below ``stamp`` reads as
    unvisited.  A caller asking many queries passes one list of zeros and
    a stamp that grows by 2 per query, so no query allocates a map.
    """
    i, j = g.edges[e]
    adj = g.adjacency
    mine, theirs = stamp, stamp + 1
    mark[i] = mine
    mark[j] = theirs
    # the two sides are written out (alternating through a pair of queues
    # costs CFTP about 7% on a 16x16 grid), each a list read from a
    # moving head, which beats a deque's popleft
    from_i, from_j = [i], [j]
    head_i = head_j = 0
    while True:
        v = from_i[head_i]
        head_i += 1
        for w, ei in adj[v]:
            if ei != e and z[ei]:
                s = mark[w]
                if s < mine:
                    mark[w] = mine
                    from_i.append(w)
                elif s == theirs:
                    return True
        if head_i == len(from_i):
            return False
        v = from_j[head_j]
        head_j += 1
        for w, ei in adj[v]:
            if ei != e and z[ei]:
                s = mark[w]
                if s < mine:
                    mark[w] = theirs
                    from_j.append(w)
                elif s == mine:
                    return True
        if head_j == len(from_j):
            return False


def clusters(g: WeightedGraph, z: Sequence[int]) -> ClusterPartition:
    """Connected components induced by the open edges of ``z``."""
    validate_config(g, "rc", z)
    parent_edge, _, root = _open_forest(g, z)
    return ClusterPartition(tuple(root), parent_edge.count(-1))  # one root per component


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

# Each world's weight is one batch pair over a configuration matrix: one
# row per configuration, one column per node (spins) or edge.  Columns
# are folded in node/edge order with the float operations of the plain
# loop (a factor of 1.0 or a term of 0.0 stands for a skipped site), and
# rows ruled out by a hard constraint are set at the end, so a 0 * inf
# on the way never leaks a NaN into them.

def spins_weights(g: WeightedGraph, xs: np.ndarray) -> np.ndarray:
    """:func:`weight_spins` of every row of an int8 +1/-1 matrix."""
    acc = np.ones(len(xs))
    ruled_out = np.zeros(len(xs), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as float arithmetic is
        for (i, j), beta in zip(g.edges, g.betas):
            agree = xs[:, i] == xs[:, j]
            if math.isinf(beta):
                ruled_out |= ~agree
            else:
                acc *= _pick(agree, _exp(-beta), _exp(beta))
        for v, b in enumerate(g.field or ()):
            if b == 0.0:
                continue
            up = xs[:, v] == 1
            if math.isinf(b):
                ruled_out |= up != (b > 0)
            else:
                acc *= _pick(up, 1.0, _exp(b))
    acc[ruled_out] = 0.0
    return acc


def spins_log_weights(g: WeightedGraph, xs: np.ndarray) -> np.ndarray:
    """:func:`weight_spins_log` of every row of an int8 +1/-1 matrix."""
    total = np.zeros(len(xs))
    ruled_out = np.zeros(len(xs), dtype=bool)
    for (i, j), beta in zip(g.edges, g.betas):
        agree = xs[:, i] == xs[:, j]
        if math.isinf(beta):
            ruled_out |= ~agree
        else:
            total += _pick(agree, -beta, beta)
    for v, b in enumerate(g.field or ()):
        if b == 0.0:
            continue
        up = xs[:, v] == 1
        if math.isinf(b):
            ruled_out |= up != (b > 0)
        else:
            total += _pick(up, 0.0, b)
    total[ruled_out] = -math.inf
    return total


def odd_rows(edges: Sequence[tuple[int, int]], ys: np.ndarray) -> np.ndarray:
    """Rows of an int8 0/1 edge matrix in which some node has odd open degree.

    Only nodes incident to an edge carry a parity column.
    """
    parity: dict[int, np.ndarray] = {}
    for e, (i, j) in enumerate(edges):
        column = ys[:, e]
        for v in (i, j):
            parity[v] = parity[v] ^ column if v in parity else column
    odd = np.zeros(len(ys), dtype=bool)
    for column in parity.values():
        np.logical_or(odd, column, out=odd)
    return odd


def subs_weights(g: WeightedGraph, ys: np.ndarray) -> np.ndarray:
    """:func:`weight_subs` of every row of an int8 0/1 edge matrix."""
    acc = np.ones(len(ys))
    for e, lam in enumerate(g.lambdas):
        acc *= _pick(ys[:, e], 1.0, lam)
    acc[odd_rows(g.edges, ys)] = 0.0
    return acc


def subs_log_weights(g: WeightedGraph, ys: np.ndarray) -> np.ndarray:
    """:func:`weight_subs_log` of every row of an int8 0/1 edge matrix."""
    total = np.zeros(len(ys))
    for e, lam in enumerate(g.lambdas):
        total += _pick(ys[:, e], 0.0, math.log(lam) if lam > 0.0 else -math.inf)
    total[odd_rows(g.edges, ys)] = -math.inf
    return total


def rc_weights(g: WeightedGraph, zs: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """:func:`weight_rc` of every row of an int8 0/1 edge matrix, given
    each row's cluster count."""
    acc = np.ones(len(zs))
    for e, p in enumerate(g.ps):
        acc *= _pick(zs[:, e], 1.0 - p, p)
    with np.errstate(over="ignore"):
        return np.ldexp(acc, counts)  # inf past float range, as _ldexp


def rc_log_weights(g: WeightedGraph, zs: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """:func:`weight_rc_log` of every row of an int8 0/1 edge matrix,
    given each row's cluster count."""
    total = counts * math.log(2.0)
    for e, p in enumerate(g.ps):
        opened = math.log(p) if p > 0.0 else -math.inf
        closed = math.log1p(-p) if p < 1.0 else -math.inf
        total += _pick(zs[:, e], closed, opened)
    return total


def _pick(flags: np.ndarray, unset: float, set_: float) -> np.ndarray:
    """``set_`` where a bool or 0/1 int8 flag is set, else ``unset``: a
    gather, several times faster than ``np.where`` with scalar choices."""
    return np.array([unset, set_]).take(flags.view(np.int8))


def _row(config: Sequence[int]) -> np.ndarray:
    return np.array([config], dtype=np.int8)


def weight_spins(g: WeightedGraph, x: Sequence[int]) -> float:
    """Product of edge factors exp(beta * x_i * x_j) and the field's node
    factors.

    Infinite couplings contribute an agreement indicator instead.  A node
    with field value B contributes ``exp(B)`` when its spin is up and 1
    when it is down; ``B = +inf`` pins the spin up and ``B = -inf`` pins
    it down (those limits make the pinned factor exactly 1).  A graph
    without a field has no node factors.
    """
    validate_config(g, "spins", x)
    return float(spins_weights(g, _row(x))[0])


def weight_spins_log(g: WeightedGraph, x: Sequence[int]) -> float:
    validate_config(g, "spins", x)
    return float(spins_log_weights(g, _row(x))[0])


def weight_subs(g: WeightedGraph, y: Sequence[int]) -> float:
    """Product of lambda over open edges if every node has even open
    degree, else 0."""
    validate_config(g, "subs", y)
    return float(subs_weights(g, _row(y))[0])


def weight_subs_log(g: WeightedGraph, y: Sequence[int]) -> float:
    validate_config(g, "subs", y)
    return float(subs_log_weights(g, _row(y))[0])


def weight_rc(g: WeightedGraph, z: Sequence[int]) -> float:
    """Open/closed probability products times 2 to the number of clusters."""
    count = clusters(g, z).count  # validates z
    return float(rc_weights(g, _row(z), np.array([count]))[0])


def weight_rc_log(g: WeightedGraph, z: Sequence[int]) -> float:
    count = clusters(g, z).count  # validates z
    return float(rc_log_weights(g, _row(z), np.array([count]))[0])


def _exp(value: float) -> float:
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf


def _ldexp(value: float, exponent: int) -> float:
    try:
        return math.ldexp(value, exponent)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Observables recorded by chains and sample summaries
# ---------------------------------------------------------------------------

def spins_energy(g: WeightedGraph, x: Sequence[int]) -> float:
    """Interaction energy -sum(beta * x_i * x_j) over finite couplings.

    Infinite couplings act as hard constraints and are excluded.
    """
    total = 0.0
    for (i, j), beta in zip(g.edges, g.betas):
        if not math.isinf(beta):
            total -= beta * x[i] * x[j]
    return total


def _total(g: WeightedGraph, config: Sequence[int]) -> float:
    """Sum of the values: m (spins) or the open-edge count (subs, rc)."""
    return float(sum(config))


def _cluster_count(g: WeightedGraph, z: Sequence[int]) -> float:
    return float(clusters(g, z).count)


_Statistic = Callable[[WeightedGraph, Sequence[int]], float]

# each world's observables in recording order; spins clusters are the
# components of the edges whose endpoints agree
STATISTICS: dict[str, dict[str, _Statistic]] = {
    "spins": {
        "m": _total,
        "energy": spins_energy,
        "clusters": lambda g, x: _cluster_count(g, tuple(1 if x[i] == x[j] else 0 for i, j in g.edges)),
    },
    "subs": {"edges": _total, "clusters": _cluster_count},
    "rc": {"edges": _total, "clusters": _cluster_count},
}


def require_statistic(world: str, name: str) -> _Statistic:
    """The observable ``name`` of ``world``; :class:`UnknownStatisticError`
    if there is none."""
    try:
        return STATISTICS[world][name]
    except KeyError:
        raise UnknownStatisticError(f"statistic {name!r} is not defined for world {world!r}") from None


def statistic(g: WeightedGraph, world: str, config: Sequence[int], name: str) -> float:
    """Evaluate a named observable of a configuration in its world."""
    return require_statistic(world, name)(g, config)


# ---------------------------------------------------------------------------
# Compact text serialization (bit strings for edge worlds, sign strings
# for spins), aligned with the graph's edge / node ordering.
# ---------------------------------------------------------------------------

def config_to_string(world: str, config: Sequence[int]) -> str:
    if world == "spins":
        return "".join("+" if v == 1 else "-" for v in config)
    return "".join(str(v) for v in config)


def config_from_string(world: str, text: str) -> tuple[int, ...]:
    text = text.strip()
    if world == "spins":
        values = []
        for ch in text:
            if ch == "+":
                values.append(1)
            elif ch == "-":
                values.append(-1)
            else:
                raise InvalidConfigError(f"spin strings use '+'/'-', got {ch!r}")
        return tuple(values)
    values = []
    for ch in text:
        if ch not in "01":
            raise InvalidConfigError(f"edge strings use '0'/'1', got {ch!r}")
        values.append(int(ch))
    return tuple(values)
