"""Configurations, weights and open-subgraph traversal for the three
Ising formulations.

A spins configuration assigns ``+1``/``-1`` to every node; the two edge
worlds assign ``0``/``1`` to every edge.  Configurations are plain tuples
aligned with the graph's node and edge ordering, so they are hashable and
usable as table keys.  Each world has one unnormalized weight function
and one log-domain companion; they agree wherever the linear value is
positive and representable.  The spins weight includes the field's node
factors when the graph carries one.

All three worlds meet at the clusters of an open edge set, and this
module holds the one traversal of that open subgraph: cluster labels,
the maximal spanning forest peeled by the subgraphs conversion, and the
single-edge connectivity query of the heat-bath kernel.  Degree parity
lives here too.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidConfigError, UnknownStatisticError
from .graph import WeightedGraph

SpinConfig = tuple[int, ...]
SubgraphConfig = tuple[int, ...]
RcConfig = tuple[int, ...]

WORLDS = ("spins", "subs", "rc")


@dataclass(frozen=True)
class ClusterPartition:
    """Partition of nodes into open-edge connected components.

    ``component_id[v]`` is the smallest node id in ``v``'s component, so
    labels are canonical and deterministic.
    """

    component_id: tuple[int, ...]
    count: int


def validate_spin_config(g: WeightedGraph, x: Sequence[int]) -> None:
    if len(x) != g.num_nodes:
        raise InvalidConfigError(f"spin configuration has length {len(x)}, expected {g.num_nodes}")
    for value in x:
        if value not in (-1, 1):
            raise InvalidConfigError(f"spin values must be -1 or +1, got {value!r}")


def validate_edge_config(g: WeightedGraph, y: Sequence[int]) -> None:
    if len(y) != g.num_edges:
        raise InvalidConfigError(f"edge configuration has length {len(y)}, expected {g.num_edges}")
    for value in y:
        if value not in (0, 1):
            raise InvalidConfigError(f"edge values must be 0 or 1, got {value!r}")


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


def _connected_without_edge(g: WeightedGraph, z: Sequence[int], e: int) -> bool:
    """Are e's endpoints joined by open edges other than e itself?

    Breadth-first searches from both endpoints advance in lockstep, one
    node each (the interleaved search of Elci & Weigel, PRE 88, 033303,
    2013): the answer is yes when they meet and no as soon as either side
    runs out, so the work is bounded by the smaller of the two clusters.
    """
    i, j = g.edges[e]
    adj = g.adjacency
    side = {i: 0, j: 1}
    # the two sides are written out: alternating through a pair of queues
    # costs CFTP about 7% on a 16x16 grid
    from_i, from_j = deque([i]), deque([j])
    while True:
        v = from_i.popleft()
        for w, ei in adj[v]:
            if ei != e and z[ei]:
                s = side.get(w)
                if s is None:
                    side[w] = 0
                    from_i.append(w)
                elif s:
                    return True
        if not from_i:
            return False
        v = from_j.popleft()
        for w, ei in adj[v]:
            if ei != e and z[ei]:
                s = side.get(w)
                if s is None:
                    side[w] = 1
                    from_j.append(w)
                elif not s:
                    return True
        if not from_j:
            return False


def clusters(g: WeightedGraph, z: Sequence[int]) -> ClusterPartition:
    """Connected components induced by the open edges of ``z``."""
    validate_edge_config(g, z)
    parent_edge, _, root = _open_forest(g, z)
    return ClusterPartition(tuple(root), parent_edge.count(-1))  # one root per component


def degree_parity(g: WeightedGraph, y: Sequence[int]) -> tuple[int, ...]:
    """Per-node parity of the open degree."""
    validate_edge_config(g, y)
    parity = [0] * g.num_nodes
    for e, (i, j) in enumerate(g.edges):
        if y[e]:
            parity[i] ^= 1
            parity[j] ^= 1
    return tuple(parity)


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

def weight_spins(g: WeightedGraph, x: Sequence[int]) -> float:
    """Product of edge factors exp(beta * x_i * x_j) and the field's node
    factors.

    Infinite couplings contribute an agreement indicator instead.  A node
    with field value B contributes ``exp(B)`` when its spin is up and 1
    when it is down; ``B = +inf`` pins the spin up and ``B = -inf`` pins
    it down (those limits make the pinned factor exactly 1).  A graph
    without a field has no node factors.
    """
    validate_spin_config(g, x)
    acc = 1.0
    for (i, j), beta in zip(g.edges, g.betas):
        if math.isinf(beta):
            if x[i] != x[j]:
                return 0.0
            # agreeing infinite coupling contributes factor 1
        else:
            acc *= _exp(beta * x[i] * x[j])
    if g.field is None:
        return acc
    for v, b in enumerate(g.field):
        if b == 0.0:
            continue
        if math.isinf(b):
            if (b > 0 and x[v] != 1) or (b < 0 and x[v] != -1):
                return 0.0
        elif x[v] == 1:
            acc *= _exp(b)
    return acc


def weight_spins_log(g: WeightedGraph, x: Sequence[int]) -> float:
    validate_spin_config(g, x)
    total = 0.0
    for (i, j), beta in zip(g.edges, g.betas):
        if math.isinf(beta):
            if x[i] != x[j]:
                return -math.inf
        else:
            total += beta * x[i] * x[j]
    if g.field is None:
        return total
    for v, b in enumerate(g.field):
        if b == 0.0:
            continue
        if math.isinf(b):
            if (b > 0 and x[v] != 1) or (b < 0 and x[v] != -1):
                return -math.inf
        elif x[v] == 1:
            total += b
    return total


def weight_subs(g: WeightedGraph, y: Sequence[int]) -> float:
    """Product of lambda over open edges if every node has even open
    degree, else 0."""
    validate_edge_config(g, y)
    parity = [0] * g.num_nodes
    acc = 1.0
    lams = g.lambdas
    for e, (i, j) in enumerate(g.edges):
        if y[e]:
            parity[i] ^= 1
            parity[j] ^= 1
            acc *= lams[e]
    if any(parity):
        return 0.0
    return acc


def weight_subs_log(g: WeightedGraph, y: Sequence[int]) -> float:
    validate_edge_config(g, y)
    parity = [0] * g.num_nodes
    total = 0.0
    lams = g.lambdas
    for e, (i, j) in enumerate(g.edges):
        if y[e]:
            parity[i] ^= 1
            parity[j] ^= 1
            lam = lams[e]
            if lam == 0.0:
                return -math.inf
            total += math.log(lam)
    if any(parity):
        return -math.inf
    return total


def weight_rc(g: WeightedGraph, z: Sequence[int]) -> float:
    """Open/closed probability products times 2 to the number of clusters."""
    part = clusters(g, z)  # validates z
    acc = 1.0
    for e, p in enumerate(g.ps):
        acc *= p if z[e] else 1.0 - p
    return _ldexp(acc, part.count)


def weight_rc_log(g: WeightedGraph, z: Sequence[int]) -> float:
    part = clusters(g, z)  # validates z
    total = part.count * math.log(2.0)
    for e, p in enumerate(g.ps):
        if z[e]:
            if p == 0.0:
                return -math.inf
            total += math.log(p)
        else:
            if p == 1.0:
                return -math.inf
            total += math.log1p(-p)
    return total


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

def magnetization(x: Sequence[int]) -> int:
    """Sum of spins."""
    return sum(x)


def spins_energy(g: WeightedGraph, x: Sequence[int]) -> float:
    """Interaction energy -sum(beta * x_i * x_j) over finite couplings.

    Infinite couplings act as hard constraints and are excluded.
    """
    total = 0.0
    for (i, j), beta in zip(g.edges, g.betas):
        if not math.isinf(beta):
            total -= beta * x[i] * x[j]
    return total


def open_edge_count(y: Sequence[int]) -> int:
    return sum(y)


def agreement_clusters(g: WeightedGraph, x: Sequence[int]) -> ClusterPartition:
    """Components of the subgraph of edges whose endpoints agree."""
    agree = tuple(1 if x[i] == x[j] else 0 for i, j in g.edges)
    return clusters(g, agree)


STATISTICS = {
    "spins": ("m", "energy", "clusters"),
    "subs": ("edges", "clusters"),
    "rc": ("edges", "clusters"),
}


def statistic(g: WeightedGraph, world: str, config: Sequence[int], name: str) -> float:
    """Evaluate a named observable of a configuration in its world."""
    allowed = STATISTICS.get(world)
    if allowed is None or name not in allowed:
        raise UnknownStatisticError(f"statistic {name!r} is not defined for world {world!r}")
    if world == "spins":
        if name == "m":
            return float(magnetization(config))
        if name == "energy":
            return spins_energy(g, config)
        return float(agreement_clusters(g, config).count)
    if name == "edges":
        return float(open_edge_count(config))
    return float(clusters(g, config).count)


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
