"""Shared helpers for the test-suite.

The routines here are deliberately independent re-derivations (plain DFS
instead of union-find, explicit parity counting, dict-based
distributions) so they can serve as oracles for the production code.
"""

from __future__ import annotations

import math
import os
import random

# as the CLI does: numpy is first loaded below, and the in-process oracle
# runs faster on one OpenBLAS thread than with a spinning worker per core
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from isingworlds import WeightedGraph, enumerate_world, reduce_unidirectional_field


def random_graph(
    rnd: random.Random,
    max_nodes: int = 6,
    max_edges: int = 10,
    extreme_share: float = 0.0,
) -> WeightedGraph:
    """Random simple graph with couplings; extreme_share mixes in 0/inf."""
    n = rnd.randint(1, max_nodes)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rnd.shuffle(pairs)
    m = rnd.randint(0, min(len(pairs), max_edges))
    chosen = sorted(pairs[:m])
    betas = []
    for _ in chosen:
        r = rnd.random()
        if r < extreme_share / 2:
            betas.append(0.0)
        elif r < extreme_share:
            betas.append(float("inf"))
        else:
            betas.append(rnd.uniform(0.05, 1.6))
    return WeightedGraph(n, tuple(chosen), tuple(betas))


def dfs_component_labels(g: WeightedGraph, z) -> tuple[tuple[int, ...], int]:
    """Independent component labeling by plain DFS (no union-find).

    Because start nodes are scanned in ascending order, each component's
    label is its smallest node id, matching the canonical convention.
    """
    label = [-1] * g.num_nodes
    count = 0
    for start in range(g.num_nodes):
        if label[start] >= 0:
            continue
        count += 1
        stack = [start]
        label[start] = start
        while stack:
            v = stack.pop()
            for w, e in g.adjacency[v]:
                if z[e] and label[w] < 0:
                    label[w] = start
                    stack.append(w)
    return tuple(label), count


def bfs_component_labels(g: WeightedGraph, z) -> tuple[int, ...]:
    """Brute-force component labels: a breadth-first search over the open
    edges (neighbour lists built here, not ``g.adjacency``) collects each
    component, which is then labelled with its smallest member."""
    neighbours: list[list[int]] = [[] for _ in range(g.num_nodes)]
    for (i, j), ze in zip(g.edges, z):
        if ze:
            neighbours[i].append(j)
            neighbours[j].append(i)
    label: list[int | None] = [None] * g.num_nodes
    for start in range(g.num_nodes):
        if label[start] is not None:
            continue
        members, seen = [start], {start}
        for v in members:  # the list grows while it is read: breadth first
            for w in neighbours[v]:
                if w not in seen:
                    seen.add(w)
                    members.append(w)
        smallest = min(members)
        for v in members:
            label[v] = smallest
    return tuple(label)


def joined_without_edge(g: WeightedGraph, z, e: int) -> bool:
    """Are e's endpoints in one component once e is closed?  By labels."""
    closed = list(z)
    closed[e] = 0
    labels, _ = dfs_component_labels(g, closed)
    i, j = g.edges[e]
    return labels[i] == labels[j]


def brute_degrees(g: WeightedGraph, y) -> list[int]:
    degrees = [0] * g.num_nodes
    for e, (i, j) in enumerate(g.edges):
        if y[e]:
            degrees[i] += 1
            degrees[j] += 1
    return degrees


def _exp(value: float) -> float:
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf


def reference_weight(g: WeightedGraph, world: str, config) -> float:
    """Unnormalized weight of one configuration by a plain loop over the
    paper's factors: edges in order, then field nodes in order, with a
    hard constraint returning 0 at once."""
    acc = 1.0
    if world == "spins":
        x = config
        for (i, j), beta in zip(g.edges, g.betas):
            if math.isinf(beta):
                if x[i] != x[j]:
                    return 0.0
            else:
                acc *= _exp(beta * x[i] * x[j])
        for v, b in enumerate(g.field or ()):
            if math.isinf(b):
                if x[v] != (1 if b > 0 else -1):
                    return 0.0
            elif b != 0.0 and x[v] == 1:
                acc *= _exp(b)
        return acc
    if world == "subs":
        for e, ze in enumerate(config):
            if ze:
                acc *= g.lambdas[e]
        return 0.0 if any(d % 2 for d in brute_degrees(g, config)) else acc
    for e, ze in enumerate(config):
        acc *= g.ps[e] if ze else math.exp(-2.0 * g.betas[e])  # 1 - p, exactly
    try:
        return math.ldexp(acc, dfs_component_labels(g, config)[1])
    except OverflowError:
        return math.inf


def reference_log_weight(g: WeightedGraph, world: str, config) -> float:
    """Log weight of one configuration by the same plain loop, summing the
    logs of the factors; -inf for a hard constraint or a zero factor."""
    total = 0.0
    if world == "spins":
        x = config
        for (i, j), beta in zip(g.edges, g.betas):
            if math.isinf(beta):
                if x[i] != x[j]:
                    return -math.inf
            else:
                total += beta * x[i] * x[j]
        for v, b in enumerate(g.field or ()):
            if math.isinf(b):
                if x[v] != (1 if b > 0 else -1):
                    return -math.inf
            elif b != 0.0 and x[v] == 1:
                total += b
        return total
    if world == "subs":
        if any(d % 2 for d in brute_degrees(g, config)):
            return -math.inf
    else:
        total = dfs_component_labels(g, config)[1] * math.log(2.0)
    for e, ze in enumerate(config):
        if ze:
            p = g.lambdas[e] if world == "subs" else g.ps[e]
            if p == 0.0:
                return -math.inf
            total += math.log(p)
        elif world == "rc":
            total += -2.0 * g.betas[e]  # log(1 - p), exactly
    return total


def distribution_dict(table) -> dict[tuple[int, ...], float]:
    return {config: float(p) for config, p in zip(table.configs, table.probs) if p > 0.0}


def field_model_distribution(g: WeightedGraph) -> dict[tuple[int, ...], float]:
    """Exact spins+field distribution by enumeration."""
    return distribution_dict(enumerate_world(g, "spins"))


def reduced_conditioned_distribution(g: WeightedGraph) -> dict[tuple[int, ...], float]:
    """Exact field-free distribution conditioned on the anchor, lifted back."""
    red = reduce_unidirectional_field(g)
    table = enumerate_world(red.graph, "spins")
    dist: dict[tuple[int, ...], float] = {}
    total = 0.0
    for config, w in zip(table.configs, table.probs):
        if w <= 0.0:
            continue
        if red.anchor is not None and config[red.anchor] != 1:
            continue
        total += w
        lifted = red.lift_spins(config)
        dist[lifted] = dist.get(lifted, 0.0) + w
    return {config: w / total for config, w in dist.items()}


def max_pointwise_gap(a: dict, b: dict) -> float:
    gap = 0.0
    for key in set(a) | set(b):
        gap = max(gap, abs(a.get(key, 0.0) - b.get(key, 0.0)))
    return gap
