"""Exact single-draw conversions between the three Ising formulations.

Each function turns one draw from its source distribution, plus a few
runtime Bernoulli draws, into one exact draw from its target
distribution.  The conversions compose: a subgraphs draw reaches the
spins world through the random-cluster world and vice versa, never
consuming more than one Bernoulli per edge plus one per cluster.

The two conversions out of the random-cluster world read the open
subgraph through the traversals in :mod:`isingworlds.worlds`: the spins
conversion flips the clusters of the union-find pass, and the subgraphs
conversion peels its spanning forest.

Each conversion first collects the success probabilities of its
Bernoullis, in ascending edge (or cluster) order, and draws them in one
:meth:`~isingworlds.rng.RngStream.bernoullis` call: the same draws, in
the same order, as one scalar draw per edge.  Deterministic entries
(probability 0 or 1) go into the batch too and cost no randomness.
``bernoullis`` is the only randomness a conversion reads, which is
what lets :func:`~isingworlds.exact.exact_kernel_matrix` convolve these
very functions: it runs each one once per outcome of its draws, on a
stand-in stream that answers them from preset bits.

The guard runs once, where a configuration enters the library.  Each
public conversion is :func:`~isingworlds.worlds.require_support` on its
input, before any draw, and then the conversion's one body: a
zero-weight configuration is no draw from the source world, so there
is nothing exact to return for it.  A composition checks its input and
runs the two bodies.  A configuration the library built itself (a
conversion's output, a chain's state, a CFTP run, an oracle support
row) already has positive weight, so the library's own hops (the chain
steps after :func:`~isingworlds.chains.run_chain` has checked its
start, :func:`~isingworlds.cftp.perfect_sample`, the oracle's kernel
matrices) call the bodies directly.  No conversion has a second body,
so the checked and unchecked paths draw alike.

All functions are pure in (graph, configuration, rng); concurrent calls
are safe when each owns its own :class:`~isingworlds.rng.RngStream`.
"""

from __future__ import annotations

import operator
from itertools import compress
from typing import Sequence

from .graph import WeightedGraph
from .rng import RngStream
from .worlds import RcConfig, SpinConfig, SubgraphConfig, _open_forest, _union, require_support


def _subs_to_rc(g: WeightedGraph, y: Sequence[int], rng: RngStream) -> RcConfig:
    return tuple(rng.bernoullis([1.0 if ye else lam for ye, lam in zip(y, g.lambdas)]))


def _rc_to_subs(g: WeightedGraph, z: Sequence[int], rng: RngStream) -> SubgraphConfig:
    parent, parent_edge, order, chords = _open_forest(g, z)
    coin_edges = list(compress(range(g.num_edges), chords))

    edges = g.edges
    y = [0] * g.num_edges
    parity = [0] * g.num_nodes
    if coin_edges:  # none on an open forest: no call, which would draw nothing
        for e, bit in zip(coin_edges, rng.bernoullis([0.5] * len(coin_edges))):
            if bit:
                y[e] = 1
                i, j = edges[e]
                parity[i] ^= 1
                parity[j] ^= 1

    for v in reversed(order):  # non-root nodes only
        if parity[v]:
            y[parent_edge[v]] = 1
            parity[v] = 0
            parity[parent[v]] ^= 1

    assert not any(parity), "leaf peeling must leave every degree even"
    assert all(map(operator.le, y, z)), "output must stay below the input"
    return tuple(y)


def _rc_to_spins(g: WeightedGraph, z: Sequence[int], rng: RngStream) -> SpinConfig:
    root, count = _union(g, z)
    bits = rng.bernoullis([0.5] * count)
    x: list[int] = []
    k = 0
    for v, c in enumerate(root):
        if c == v:
            x.append(2 * bits[k] - 1)
            k += 1
        else:
            x.append(x[c])
    return tuple(x)


def _spins_to_rc(g: WeightedGraph, x: Sequence[int], rng: RngStream) -> RcConfig:
    qs = [p if x[i] == x[j] else 0.0 for (i, j), p in zip(g.edges, g.ps)]
    return tuple(rng.bernoullis(qs))


def subs_to_rc(g: WeightedGraph, y: Sequence[int], rng: RngStream) -> RcConfig:
    """Convert a subgraphs draw into a random-cluster draw.

    Each edge is resolved independently in ascending edge order: an open
    edge stays open with probability 1, a closed edge opens with
    probability lambda(e).  Extreme couplings are deterministic, so at
    most one Bernoulli per edge is consumed.  The output dominates the
    input pointwise.
    """
    require_support(g, "subs", y)
    return _subs_to_rc(g, y, rng)


def rc_to_subs(g: WeightedGraph, z: Sequence[int], rng: RngStream) -> SubgraphConfig:
    """Convert a random-cluster draw into a subgraphs draw.

    Open edges outside a maximal spanning forest each get a fair coin, in
    ascending edge order; forest edges are then forced, leaf by leaf in
    reverse discovery order, to the parity bit that keeps every node's
    degree even, each flipping its own node's parity and its parent's.
    The output is dominated by the input pointwise.
    """
    require_support(g, "rc", z)
    return _rc_to_subs(g, z, rng)


def rc_to_spins(g: WeightedGraph, z: Sequence[int], rng: RngStream) -> SpinConfig:
    """Assign one fair +/-1 spin per cluster; one Bernoulli per cluster.

    The clusters come from the union-find pass, whose roots are each
    cluster's smallest node, and take their coins in ascending order of
    those nodes.  Any other node v copies the spin of ``root[v] < v``,
    which is in its cluster and already set, so no relabel pass is needed.
    """
    require_support(g, "rc", z)
    return _rc_to_spins(g, z, rng)


def spins_to_rc(g: WeightedGraph, x: Sequence[int], rng: RngStream) -> RcConfig:
    """Convert a spins draw into a random-cluster draw.

    Disagreeing edges close deterministically; agreeing edges open with
    probability p(e).  At most one Bernoulli per edge.
    """
    require_support(g, "spins", x)
    return _spins_to_rc(g, x, rng)


def subs_to_spins(g: WeightedGraph, y: Sequence[int], rng: RngStream) -> SpinConfig:
    """Subgraphs draw to spins draw via the random-cluster world."""
    require_support(g, "subs", y)
    return _rc_to_spins(g, _subs_to_rc(g, y, rng), rng)


def spins_to_subs(g: WeightedGraph, x: Sequence[int], rng: RngStream) -> SubgraphConfig:
    """Spins draw to subgraphs draw via the random-cluster world."""
    require_support(g, "spins", x)
    return _rc_to_subs(g, _spins_to_rc(g, x, rng), rng)


REDUCTIONS = {
    ("subs", "rc"): subs_to_rc,
    ("rc", "subs"): rc_to_subs,
    ("rc", "spins"): rc_to_spins,
    ("spins", "rc"): spins_to_rc,
    ("subs", "spins"): subs_to_spins,
    ("spins", "subs"): spins_to_subs,
}

# each conversion's body, without the guard, looked up by its public function
_BODIES = {subs_to_rc: _subs_to_rc, rc_to_subs: _rc_to_subs, rc_to_spins: _rc_to_spins, spins_to_rc: _spins_to_rc}
