"""Perfect sampling of the random-cluster world by coupling from the past.

The single-bond heat-bath kernel is monotone for the two-state
random-cluster model: under a shared (edge, uniform) update, a pointwise
larger configuration stays larger.  Running the all-open and all-closed
extremal chains from epochs doubling into the past with shared,
cached randomness therefore yields an exactly stationary draw once they
coalesce at time zero.  Composing with the subgraphs conversion gives
exact subgraphs-world samples.

Edges with open probability 1 are pinned open (and probability-0 edges
pinned closed) and excluded from random updates; connectivity queries
still see them, which realizes the usual contraction of forced edges
without rebuilding the graph.

The two heat-bath thresholds, p when the edge's endpoints are connected
elsewhere and p / (2 - p) when they are not, bound a band: a uniform
outside it decides the edge alone, so the connectivity query (the
two-sided open-subgraph search of :mod:`isingworlds.worlds`) runs only
for uniforms inside it.  The query is also shared across the sandwich:
the lower chain asks only when the upper chain has just opened the edge,
since monotonicity closes it in the lower chain otherwise.  Neither
shortcut changes a decision or a draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import InvalidParameterError, NoCoalescenceError
from .graph import WeightedGraph, require_field_free
from .reductions import rc_to_subs
from .rng import RngStream
from .worlds import RcConfig, SubgraphConfig, _connected_without_edge, validate_edge_config

DEFAULT_MAX_EPOCH = 24


def _heat_bath_open(g: WeightedGraph, z: Sequence[int], e: int, u: float) -> int:
    """New state of edge e under the heat-bath update with uniform ``u``.

    Opening an edge whose endpoints are already connected elsewhere does
    not change the cluster count, so the conditional open probability is
    p; otherwise closing it splits a cluster and doubles the weight, giving
    p / (2 - p).  Since p / (2 - p) <= p, a uniform outside the band
    between the two thresholds decides the edge without asking whether
    its endpoints are connected.
    """
    p = g.ps[e]
    if u >= p:
        return 0
    if u < p / (2.0 - p):
        return 1
    return 1 if _connected_without_edge(g, z, e) else 0


def heat_bath_rc_step(g: WeightedGraph, z: Sequence[int], edge: int, u: float) -> RcConfig:
    """Resample one edge from its conditional law using the uniform ``u``."""
    validate_edge_config(g, z)
    if not 0 <= edge < g.num_edges:
        raise InvalidParameterError(f"edge index {edge} out of range")
    if not 0.0 <= u < 1.0:
        raise InvalidParameterError(f"uniform variate must lie in [0, 1), got {u}")
    out = list(z)
    out[edge] = _heat_bath_open(g, z, edge, u)
    return tuple(out)


@dataclass
class CftpSchedule:
    """Cached per-step randomness, indexed by distance into the past.

    The record for step ``-t`` is generated once and replayed verbatim by
    every deeper restart; that reuse is what makes the output exact.
    Each record holds a uniformly chosen updatable edge and the uniform
    variate for the heat-bath threshold.
    """

    rng: RngStream
    free_edges: tuple[int, ...]
    records: list[tuple[int, float]] = field(default_factory=list)

    def ensure(self, steps: int) -> None:
        while len(self.records) < steps:
            edge = self.free_edges[self.rng.randrange(len(self.free_edges))]
            self.records.append((edge, self.rng.uniform()))

    def record(self, t: int) -> tuple[int, float]:
        return self.records[t - 1]


@dataclass(frozen=True)
class CftpRun:
    """A coalesced run: the exact sample plus how hard it was to get."""

    config: tuple[int, ...]
    epoch: int
    steps: int


def _pinned_base(g: WeightedGraph) -> tuple[list[int], list[int]]:
    base = [0] * g.num_edges
    free = []
    for e, p in enumerate(g.ps):
        if p >= 1.0:
            base[e] = 1
        elif p > 0.0:
            free.append(e)
    return base, free


def cftp_rc_run(g: WeightedGraph, rng: RngStream, max_epoch: int = DEFAULT_MAX_EPOCH) -> CftpRun:
    """Run monotone coupling from the past until coalescence.

    Epoch k starts the extremal chains 2**k steps in the past.  Raises
    :class:`NoCoalescenceError` if they have not met by the time the
    ``max_epoch`` schedule is exhausted; callers may retry with a larger
    budget.
    """
    if max_epoch < 0:
        raise InvalidParameterError("max_epoch must be nonnegative")
    require_field_free(g)
    base, free = _pinned_base(g)
    if not free:
        return CftpRun(tuple(base), 0, 0)

    schedule = CftpSchedule(rng, tuple(free))
    sweep = len(free)
    total_steps = 0
    for epoch in range(max_epoch + 1):
        horizon = 1 << epoch
        schedule.ensure(horizon)
        top = list(base)
        bot = list(base)
        for e in free:
            top[e] = 1
        merged = False
        for step, t in enumerate(range(horizon, 0, -1), start=1):
            edge, u = schedule.record(t)
            top[edge] = _heat_bath_open(g, top, edge, u)
            if not merged:
                # bot <= top and the kernel is monotone, so an edge top
                # closes is closed in bot too, without a query
                bot[edge] = _heat_bath_open(g, bot, edge, u) if top[edge] else 0
                if step % sweep == 0 and top == bot:
                    merged = True  # chains evolve identically from here on
            total_steps += 1
        if merged or top == bot:
            return CftpRun(tuple(top), epoch, total_steps)
    raise NoCoalescenceError(
        f"no coalescence within 2**{max_epoch} steps; raise max_epoch to search deeper"
    )


def cftp_rc_sample(g: WeightedGraph, rng: RngStream, max_epoch: int = DEFAULT_MAX_EPOCH) -> RcConfig:
    """One exact random-cluster draw."""
    return cftp_rc_run(g, rng, max_epoch).config


def perfect_subs_sample(
    g: WeightedGraph, rng: RngStream, max_epoch: int = DEFAULT_MAX_EPOCH
) -> SubgraphConfig:
    """One exact subgraphs-world draw: perfect random-cluster sampling
    followed by the exact conversion."""
    return rc_to_subs(g, cftp_rc_sample(g, rng, max_epoch), rng)
