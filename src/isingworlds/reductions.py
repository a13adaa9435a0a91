"""Exact single-draw conversions between the three Ising formulations.

Each function turns one draw from its source distribution, plus a few
runtime Bernoulli draws, into one exact draw from its target
distribution.  The conversions compose: a subgraphs draw reaches the
spins world through the random-cluster world and vice versa, never
consuming more than one Bernoulli per edge plus one per cluster.

The two conversions out of the random-cluster world read the open
subgraph through the traversal in :mod:`isingworlds.worlds`: the spins
conversion flips its clusters and the subgraphs conversion peels its
spanning forest.

Each conversion first collects the success probabilities of its
Bernoullis, in ascending edge (or cluster) order, and draws them in one
:meth:`~isingworlds.rng.RngStream.bernoullis` call: the same draws, in
the same order, as one scalar draw per edge.  Deterministic entries
(probability 0 or 1) go into the batch too and cost no randomness.
``bernoullis`` is the only randomness a conversion reads, which is
what lets :func:`~isingworlds.exact.exact_kernel_matrix` convolve these
very functions: it runs each one once per outcome of its draws, on a
stand-in stream that answers them from preset bits.

Each conversion checks its input with
:func:`~isingworlds.worlds.require_support` before any draw: a
zero-weight configuration is no draw from the source world, so there
is nothing exact to return for it.

All functions are pure in (graph, configuration, rng); concurrent calls
are safe when each owns its own :class:`~isingworlds.rng.RngStream`.
"""

from __future__ import annotations

from itertools import compress
from typing import Sequence

from .graph import WeightedGraph
from .rng import RngStream
from .worlds import RcConfig, SpinConfig, SubgraphConfig, _open_forest, require_support


def subs_to_rc(g: WeightedGraph, y: Sequence[int], rng: RngStream) -> RcConfig:
    """Convert a subgraphs draw into a random-cluster draw.

    Each edge is resolved independently in ascending edge order: an open
    edge stays open with probability 1, a closed edge opens with
    probability lambda(e).  Extreme couplings are deterministic, so at
    most one Bernoulli per edge is consumed.  The output dominates the
    input pointwise.
    """
    require_support(g, "subs", y)
    return tuple(rng.bernoullis([1.0 if ye else lam for ye, lam in zip(y, g.lambdas)]))


def rc_to_subs(g: WeightedGraph, z: Sequence[int], rng: RngStream) -> SubgraphConfig:
    """Convert a random-cluster draw into a subgraphs draw.

    Open edges outside a maximal spanning forest each get a fair coin, in
    ascending edge order; forest edges are then forced, leaf by leaf in
    reverse discovery order, to the parity bit that keeps every node's
    degree even.  The output is dominated by the input pointwise.
    """
    require_support(g, "rc", z)
    parent_edge, order, _ = _open_forest(g, z)
    coin = list(z)  # closed edges stay closed and cost no randomness
    for e in parent_edge:
        if e >= 0:
            coin[e] = 0
    coin_edges = list(compress(range(g.num_edges), coin))

    edges = g.edges
    y = [0] * g.num_edges
    parity = [0] * g.num_nodes
    for e, bit in zip(coin_edges, rng.bernoullis([0.5] * len(coin_edges))):
        if bit:
            y[e] = 1
            i, j = edges[e]
            parity[i] ^= 1
            parity[j] ^= 1

    for v in reversed(order):
        e = parent_edge[v]
        if e >= 0 and parity[v]:
            y[e] = 1
            i, j = edges[e]
            parity[i] ^= 1
            parity[j] ^= 1

    assert not any(parity), "leaf peeling must leave every degree even"
    assert all(ye <= ze for ye, ze in zip(y, z)), "output must stay below the input"
    return tuple(y)


def rc_to_spins(g: WeightedGraph, z: Sequence[int], rng: RngStream) -> SpinConfig:
    """Assign one fair +/-1 spin per cluster; one Bernoulli per cluster."""
    require_support(g, "rc", z)
    parent_edge, _, root = _open_forest(g, z)
    bits = rng.bernoullis([0.5] * parent_edge.count(-1))  # one root per cluster
    # a cluster's root is its smallest member, which draws for it: the
    # clusters take the bits in ascending order of their smallest members
    x: list[int] = []
    k = 0
    for v, c in enumerate(root):
        if c == v:
            x.append(2 * bits[k] - 1)
            k += 1
        else:
            x.append(x[c])
    return tuple(x)


def spins_to_rc(g: WeightedGraph, x: Sequence[int], rng: RngStream) -> RcConfig:
    """Convert a spins draw into a random-cluster draw.

    Disagreeing edges close deterministically; agreeing edges open with
    probability p(e).  At most one Bernoulli per edge.
    """
    require_support(g, "spins", x)
    qs = [p if x[i] == x[j] else 0.0 for (i, j), p in zip(g.edges, g.ps)]
    return tuple(rng.bernoullis(qs))


def subs_to_spins(g: WeightedGraph, y: Sequence[int], rng: RngStream) -> SpinConfig:
    """Subgraphs draw to spins draw via the random-cluster world."""
    return rc_to_spins(g, subs_to_rc(g, y, rng), rng)


def spins_to_subs(g: WeightedGraph, x: Sequence[int], rng: RngStream) -> SubgraphConfig:
    """Spins draw to subgraphs draw via the random-cluster world."""
    return rc_to_subs(g, spins_to_rc(g, x, rng), rng)


REDUCTIONS = {
    ("subs", "rc"): subs_to_rc,
    ("rc", "subs"): rc_to_subs,
    ("rc", "spins"): rc_to_spins,
    ("spins", "rc"): spins_to_rc,
    ("subs", "spins"): subs_to_spins,
    ("spins", "subs"): spins_to_subs,
}
