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
shortcut changes a decision or a draw.  The run loop makes the kernel's
decision inline, with the low threshold computed once per edge and the
queries marking visited nodes in one per-run list of stamps.

The run keeps its (edge, uniform) records in two typed arrays, edges
``array('i')`` and uniforms ``array('d')``, 12 bytes a record, and each
epoch extends them in one batch of
:meth:`~isingworlds.rng.RngStream.pick_uniform_pairs`, which makes the
same draws as a ``randrange`` and a ``uniform`` call per record.

Two exact rules stop the epochs that cannot coalesce.  A free edge's
first record is its last update before time 0, so an epoch whose horizon
misses some free edge ends with that edge open on top and closed below:
it is not run, though its records are still drawn.  And an epoch ends as
soon as an edge's last update leaves the chains apart on it, which only
happens inside the band when the upper chain opens the edge and the
lower closes it.  Neither rule changes a sample, an epoch or a draw;
:attr:`CftpRun.steps` counts the steps actually run.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidParameterError, NoCoalescenceError
from .graph import WeightedGraph, require_field_free
from .reductions import rc_to_subs
from .rng import RngStream
from .worlds import RcConfig, SubgraphConfig, _connected_without_edge, validate_config

DEFAULT_MAX_EPOCH = 24
# the deepest schedule allowed: 2**27 records of 12 bytes, about 1.5 GiB
MAX_EPOCH = 27


def heat_bath_rc_step(g: WeightedGraph, z: Sequence[int], edge: int, u: float) -> RcConfig:
    """Resample one edge from its conditional law using the uniform ``u``.

    Opening an edge whose endpoints are already connected elsewhere does
    not change the cluster count, so the conditional open probability is
    p; otherwise closing it splits a cluster and doubles the weight, giving
    p / (2 - p).  Since p / (2 - p) <= p, a uniform outside the band
    between the two thresholds decides the edge without asking whether
    its endpoints are connected.
    """
    validate_config(g, "rc", z)
    if not 0 <= edge < g.num_edges:
        raise InvalidParameterError(f"edge index {edge} out of range")
    if not 0.0 <= u < 1.0:
        raise InvalidParameterError(f"uniform variate must lie in [0, 1), got {u}")
    p = g.ps[edge]
    out = list(z)
    out[edge] = int(u < p / (2.0 - p) or (u < p and _connected_without_edge(g, z, edge, [0] * g.num_nodes)))
    return tuple(out)


@dataclass(frozen=True)
class CftpRun:
    """A coalesced run: the exact sample plus how hard it was to get.

    ``epoch`` is the coalescing epoch, whose run started 2**epoch steps in
    the past.  ``steps`` counts the kernel steps actually run over all
    epochs: the coalescing epoch in full, a failed epoch up to the step
    at which it was seen to fail, and none for an epoch whose horizon
    misses a free edge.
    """

    config: tuple[int, ...]
    epoch: int
    steps: int


def cftp_rc_run(g: WeightedGraph, rng: RngStream, max_epoch: int = DEFAULT_MAX_EPOCH) -> CftpRun:
    """Run monotone coupling from the past until coalescence.

    Epoch k starts the extremal chains 2**k steps in the past.  Raises
    :class:`NoCoalescenceError` if they have not met by the time the
    ``max_epoch`` schedule is exhausted; callers may retry with a larger
    budget, up to :data:`MAX_EPOCH`.
    """
    if not 0 <= max_epoch <= MAX_EPOCH:
        raise InvalidParameterError(f"max_epoch must lie in [0, {MAX_EPOCH}], got {max_epoch}")
    require_field_free(g)
    ps = g.ps
    base = [1 if p >= 1.0 else 0 for p in ps]
    free = [e for e, p in enumerate(ps) if 0.0 < p < 1.0]
    if not free:
        return CftpRun(tuple(base), 0, 0)

    # record t - 1 is step -t: an updatable edge and the uniform for its
    # heat-bath threshold, drawn once and replayed by every deeper epoch
    edges = array("i")
    uniforms = array("d")
    low = [p / (2.0 - p) for p in ps]  # the band's lower thresholds, as in heat_bath_rc_step
    mark = [0] * g.num_nodes
    stamp = 1
    sweep = len(free)
    # last[e]: index of free edge e's first record, which is its last
    # update before time 0; -1 until the records include e
    last = [-1] * g.num_edges
    unseen = sweep
    total_steps = 0
    for epoch in range(max_epoch + 1):
        horizon = 1 << epoch
        # exactly horizon records, step -horizon last
        rng.pick_uniform_pairs(free, horizon - len(edges), edges, uniforms)
        if unseen:  # scan the records this epoch added
            for i in range(horizon >> 1, horizon):
                e = edges[i]
                if last[e] < 0:
                    last[e] = i
                    unseen -= 1
                    if not unseen:
                        break
            if unseen:
                continue  # an edge never updated keeps the chains apart on it
        top = list(base)
        bot = list(base)
        for e in free:
            top[e] = 1
        left = sweep
        offset = horizon - 1 - sweep  # the current record is at offset + left
        for edge, u in zip(reversed(edges), reversed(uniforms)):
            if u >= ps[edge]:
                top[edge] = bot[edge] = 0
            elif u < low[edge]:
                top[edge] = bot[edge] = 1
            else:
                stamp += 2
                if _connected_without_edge(g, top, edge, mark, stamp):
                    top[edge] = 1
                    # bot <= top and the kernel is monotone, so the lower
                    # chain asks only for an edge the upper chain opens
                    if bot is not top:
                        stamp += 2
                        if _connected_without_edge(g, bot, edge, mark, stamp):
                            bot[edge] = 1
                        else:
                            bot[edge] = 0
                            if last[edge] == offset + left:
                                # edge's last update left the chains apart
                                total_steps += horizon - offset - left
                                break
                else:
                    top[edge] = bot[edge] = 0
            left -= 1
            if not left:
                left = sweep
                offset -= sweep
                if bot is not top and top == bot:
                    bot = top  # chains evolve identically from here on
        else:
            total_steps += horizon
            if top == bot:
                return CftpRun(tuple(top), epoch, total_steps)
    raise NoCoalescenceError(
        f"no coalescence within 2**{max_epoch} steps; "
        f"raise max_epoch (at most {MAX_EPOCH}) to search deeper"
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
