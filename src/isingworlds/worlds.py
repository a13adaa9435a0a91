"""Configurations, guards and open-subgraph traversal for the three
Ising formulations.

A spins configuration assigns ``+1``/``-1`` to every node; the two edge
worlds assign ``0``/``1`` to every edge.  Configurations are plain tuples
aligned with the graph's node and edge ordering, so they are hashable and
usable as table keys.  The weight formulas (each world's batch pair over
an int8 block of configurations, and the scalar ``weight_*`` functions that
evaluate one row through it) live in :mod:`exact`, the enumeration
oracle and their only user, so this module and the samplers built on it
need no numpy.

Each world has two guards: :func:`validate_config` checks a
configuration's shape, and :func:`require_support`, which every
conversion and chain applies to its input, adds a field-free graph and
positive weight.

All three worlds meet at the clusters of an open edge set, and this
module holds every traversal of that open subgraph: the union-find pass
over the open edges (:func:`_union`), the maximal spanning forest that
the subgraphs conversion peels, and the connectivity query of the
heat-bath kernel: are two nodes joined by open edges, asked of an edge's
endpoints once the kernel has closed that edge.  The union-find pass
alone gives the cluster count, which the ``clusters`` statistics read,
and the spins conversion resolves its nodes in ascending order from it;
only :func:`clusters` adds the ascending relabel pass that makes every
label its cluster's smallest node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Sequence

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
    per edge (subs, rc), each -1/+1 or 0/1.

    Values are compared by equality, so ``True`` and ``1.0`` pass as 1;
    no sampler passes such a value on, since every sampler builds its
    output fresh, of ints."""
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
    that the world's log weight (:mod:`exact`) gives -inf: spins disagreeing
    across an infinite coupling, an open zero-coupling edge, an odd
    degree (subs) or a closed infinite-coupling edge (rc).  Only beta
    decides: a finite coupling rules nothing out, however close to 1 its
    p or lambda rounds."""
    require_field_free(g)
    validate_config(g, world, config)
    for e in g.extreme_edges:
        if g.betas[e]:  # inf
            if world == "spins":
                i, j = g.edges[e]
                if config[i] != config[j]:
                    raise InvalidConfigError(
                        f"edge {e} has infinite coupling but disagreeing endpoints (zero weight)"
                    )
            elif world == "rc" and not config[e]:
                raise InvalidConfigError(f"edge {e} is closed but has p = 1 (zero weight)")
        elif world != "spins" and config[e]:
            raise InvalidConfigError(f"edge {e} is open but has zero coupling (zero weight)")
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

def _union(g: WeightedGraph, z: Sequence[int]) -> tuple[list[int], int]:
    """The union-find pass over the open subgraph.

    Returns ``(root, count)`` where ``count`` is the number of clusters.
    Each open edge costs one find per endpoint, with path halving (Tarjan
    & van Leeuwen, JACM 31, 1984), and a union hangs the larger root under
    the smaller, so ``root[v] <= v`` throughout: every root is its
    cluster's minimum, and every other node has ``root[v] < v`` inside its
    own cluster, though not yet its root.  A reader of the count, or one
    that resolves nodes in ascending order as :func:`clusters` and the
    spins conversion do, needs no more than this pass.
    """
    n = g.num_nodes
    root = list(range(n))
    count = n
    for i, j in compress(g.edges, z):
        # targets bind left to right: the old node's entry skips to its
        # grandparent, then the walk moves there
        while root[i] != i:
            root[i] = i = root[root[i]]
        while root[j] != j:
            root[j] = j = root[root[j]]
        if i < j:
            root[j] = i
            count -= 1
        elif j < i:
            root[i] = j
            count -= 1
    return root, count


def _open_forest(g: WeightedGraph, z: Sequence[int]) -> tuple[list[int], list[int]]:
    """Maximal spanning forest of the open subgraph via iterative DFS.

    Returns ``(parent_edge, order)`` where ``parent_edge[v]`` is the
    forest edge joining ``v`` to its parent (-1 for roots) and ``order``
    is node-discovery order, roots taken in ascending order.  Scanning
    ``order`` backwards retires each non-root node's unique parent edge
    while it is a leaf of what remains, which is how the subgraphs
    conversion peels it; cluster counts come from :func:`_union` and
    labels from :func:`clusters`.
    """
    n = g.num_nodes
    adj = g.adjacency
    parent_edge = [-1] * n
    order: list[int] = []
    seen = [False] * n
    for r in range(n):
        if seen[r]:
            continue
        seen[r] = True
        order.append(r)
        stack = [r]
        while stack:
            v = stack.pop()
            for w, e in adj[v]:
                if z[e] and not seen[w]:
                    seen[w] = True
                    parent_edge[w] = e
                    order.append(w)
                    stack.append(w)
    return parent_edge, order


def _connected(
    adj: Sequence[Sequence[tuple[int, int]]], z: Sequence[int], i: int, j: int,
    cycles: Sequence[tuple[int, int, int]], mark: list[int], stamp: int,
    from_i: list[int], from_j: list[int],
) -> bool:
    """Are the nodes i != j joined by open edges of ``z``?

    The heat-bath kernel asks it of an edge's endpoints with that edge
    closed, which is whether they are joined elsewhere.  The caller hands
    over what a graph keeps: ``adj`` is its
    :attr:`~isingworlds.graph.WeightedGraph.adjacency` and ``cycles`` the
    :attr:`~isingworlds.graph.WeightedGraph.short_cycles` entry of the
    edge (i, j), or empty, as a step of the CFTP plan carries them, so the
    query looks nothing up.  A fully open triangle or 4-cycle of
    ``cycles`` answers yes at once.  Otherwise
    breadth-first searches from i and j advance in lockstep, one node each
    (the interleaved search of Elci & Weigel, PRE 88, 033303, 2013): the
    answer is yes when they meet and no as soon as either side runs out,
    so the work is bounded by the smaller of the two clusters.

    Visited nodes are marked in ``mark``, one int per node: ``stamp`` on
    i's side, ``stamp + 1`` on j's, and anything below ``stamp`` reads as
    unvisited.  The sides queue their nodes in ``from_i`` and ``from_j``,
    written and read by index, each of ``num_nodes`` entries: a side holds
    each node at most once and never the other side's start, so at most
    n - 1.  A caller asking many queries passes one list of zeros, a stamp
    that grows by 2 per query and one pair of queues, so no query
    allocates.
    """
    for a, b, c in cycles:
        if z[a] and z[b] and z[c]:
            return True
    mine, theirs = stamp, stamp + 1
    mark[i] = mine
    mark[j] = theirs
    from_i[0] = i
    from_j[0] = j
    # the two sides are written out (one loop body that swaps the sides
    # each turn costs CFTP about 7% on a 16x16 grid)
    head_i = head_j = 0
    tail_i = tail_j = 1
    while True:
        v = from_i[head_i]
        head_i += 1
        for w, e in adj[v]:
            if z[e]:
                s = mark[w]
                if s < mine:
                    mark[w] = mine
                    from_i[tail_i] = w
                    tail_i += 1
                elif s == theirs:
                    return True
        if head_i == tail_i:
            return False
        v = from_j[head_j]
        head_j += 1
        for w, e in adj[v]:
            if z[e]:
                s = mark[w]
                if s < mine:
                    mark[w] = theirs
                    from_j[tail_j] = w
                    tail_j += 1
                elif s == mine:
                    return True
        if head_j == tail_j:
            return False


def clusters(g: WeightedGraph, z: Sequence[int]) -> ClusterPartition:
    """Connected components induced by the open edges of ``z``, labelled
    by union-find, each by its smallest node: :func:`_union`, then one
    ascending pass that points each node at its root (``root[v]``'s own
    entry is final before ``v`` is reached)."""
    validate_config(g, "rc", z)
    root, count = _union(g, z)
    for v in range(len(root)):
        root[v] = root[root[v]]
    return ClusterPartition(tuple(root), count)


# ---------------------------------------------------------------------------
# Observables recorded by chains and sample summaries
# ---------------------------------------------------------------------------

def spins_energy(g: WeightedGraph, x: Sequence[int]) -> float:
    """Interaction energy -sum(beta * x_i * x_j) over finite couplings.

    Infinite couplings act as hard constraints and are excluded.  Each
    edge, in edge order, subtracts beta when its +/-1 spins agree and
    adds it when they disagree, with no multiplication.  For +/-1 spins
    beta * x_i * x_j is exactly beta or -beta, and IEEE defines
    ``t - (-b)`` as ``t + b``, so every partial sum, signed zeros
    included, equals that of ``total -= beta * x[i] * x[j]`` on any
    Python (``sum`` would not: its rounding changed in 3.12).
    """
    total = 0.0
    for (i, j), beta in zip(g.edges, g.betas):
        if beta != math.inf:  # betas are never NaN or negative
            if x[i] == x[j]:
                total -= beta
            else:
                total += beta
    return total


def _total(g: WeightedGraph, config: Sequence[int]) -> float:
    """Sum of the values: m (spins) or the open-edge count (subs, rc)."""
    return float(sum(config))


def _cluster_count(g: WeightedGraph, z: Sequence[int]) -> float:
    validate_config(g, "rc", z)
    return float(_union(g, z)[1])


_Statistic = Callable[[WeightedGraph, Sequence[int]], float]

# each world's observables in recording order; spins clusters are the
# components of the edges whose endpoints agree
STATISTICS: dict[str, dict[str, _Statistic]] = {
    "spins": {
        "m": _total,
        "energy": spins_energy,
        # the agreement list is 0/1 of length m by construction: no guard
        "clusters": lambda g, x: float(_union(g, [x[i] == x[j] for i, j in g.edges])[1]),
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


# ---------------------------------------------------------------------------
# Compact text serialization (bit strings for edge worlds, sign strings
# for spins), aligned with the graph's edge / node ordering.
# ---------------------------------------------------------------------------

def config_to_string(world: str, config: Sequence[int]) -> str:
    if world == "spins":
        return "".join("+" if v == 1 else "-" for v in config)
    return "".join(str(v) for v in config)


def config_from_string(world: str, text: str) -> tuple[int, ...]:
    kind, alphabet = ("spin", {"+": 1, "-": -1}) if world == "spins" else ("edge", {"0": 0, "1": 1})
    try:
        return tuple(alphabet[ch] for ch in text.strip())
    except KeyError as exc:
        legal = "/".join(map(repr, alphabet))
        raise InvalidConfigError(f"{kind} strings use {legal}, got {exc.args[0]!r}") from None
