"""Perfect sampling of the random-cluster world by coupling from the past.

The single-bond heat-bath kernel is monotone for the two-state
random-cluster model: under a shared (edge, uniform) update, a pointwise
larger configuration stays larger.  Running the all-open and all-closed
extremal chains from epochs doubling into the past with shared,
cached randomness therefore yields an exactly stationary draw once they
coalesce at time zero.  :func:`perfect_sample` converts that draw
exactly into any world.

Edges with open probability 1 are pinned open (and probability-0 edges
pinned closed) because their update needs no draw, not because a state
is ruled out: p also rounds to 1 at finite beta past ~18.7 (see
:mod:`isingworlds.graph`).  They are excluded from random updates;
connectivity queries still see them, which realizes the usual
contraction of forced edges without rebuilding the graph.

The two heat-bath thresholds, p when the edge's endpoints are connected
elsewhere and p / (2 - p) when they are not, bound a band: a uniform
outside it decides the edge alone, so the connectivity query (a check
of the edge's short cycles, then the two-sided open-subgraph search of
:mod:`isingworlds.worlds`) runs only for uniforms inside it.  A step in
the band closes its edge in both chains first, so the query is the plain
question whether the endpoints are joined, and only a yes writes.  The
query is also shared across the sandwich: the lower chain asks only when
the upper chain has just opened the edge, since monotonicity closes it
in the lower chain otherwise.  Neither shortcut changes a decision or a
draw.  The run loop makes the kernel's decision inline and runs an epoch
sweep by sweep over the plan's ``sweep``: one tuple per sweep position,
holding what that step reads (its edge, both thresholds, the edge's
endpoints and its short cycles), zipped with the epoch's uniforms, so a
step does no index arithmetic and looks nothing up on the graph.  The
queries mark their visited nodes in one per-run list of stamps and queue
them in two per-run lists, one per side of the search, made at the run's
first query (a run on a tiny graph often asks none), so no query
allocates; the stamp rises by 2 a query, which gives
:attr:`CftpRun.queries` at no cost a step.

Everything a run reads that no draw changes is computed once per graph
object and kept on it, so a pickled graph carries it to pool workers:
the sweep order below, and the
:attr:`~isingworlds.graph.WeightedGraph.cftp_plan` holding the chains'
two starts, the lower thresholds p / (2 - p), those per-step tuples in
sweep order and the first epoch of each budget.  An epoch copies the two
starts; a small run does only per-draw work.

The chains scan the free edges systematically, in golden-ratio stride
order (:attr:`~isingworlds.graph.WeightedGraph.sweep_order`, computed
once per graph): step -t is sweep position k = -t mod s, which updates
free edge ``k * a % s`` of the ``s`` free edges in ascending order, with
a the integer nearest 0.618 s made coprime to s.  So every sweep
updates each free edge exactly once and the last sweep ends at time 0,
while consecutive updates land far apart on the graph: on a 16x16 grid
at beta = 0.44 the chains coalesce in about 15% fewer steps than under
an ascending scan.  Each update preserves the stationary law, and every
epoch replays the same update at the same step, which is all coupling
from the past needs (Propp & Wilson, RSA 9, 1996).  So a step's only
randomness is its uniform: the run keeps them in one ``array('d')``,
8 bytes a record, record t - 1 for step -t, and each epoch extends it in
one :meth:`~isingworlds.rng.RngStream.uniforms` call.  A run of epoch k
has drawn exactly 2**k uniforms.

Two exact rules skip work that cannot coalesce.  An epoch shorter than a
sweep leaves some free edge open on top and closed below, so the first
epoch run is the smallest k with 2**k >= s; lower epochs are neither run
nor drawn.  And the last sweep updates each free edge for the last time
before time 0, so an epoch ends as soon as a step of that sweep leaves
the chains apart on its edge, which only happens inside the band when
the upper chain opens the edge and the lower closes it; each sweep sets
a flag saying whether it is the last, and only that branch reads it.
Neither rule changes a sample, an epoch or a draw; :attr:`CftpRun.steps`
counts the steps actually run.

Nor need the ladder of epochs start there.  Step -t reads record t - 1
whatever the epoch, so every horizon replays the same updates from step
-2**k on.  Once the horizon 2**k has coalesced, the chains of a longer
one are, at step -2**k, somewhere between all open and all closed, the
states 2**k starts from, so by monotonicity they end in the same state
at time 0 (Propp & Wilson).  A ladder that starts at any epoch F thus
stops at max(E, F), E the epoch where the ladder from a sweep's epoch
stops, with the same configuration.  :func:`first_epoch` picks F once
per graph, as the smallest coalescing epoch of three pilot runs on fixed
keys: it skips epochs that nearly always fail and seldom starts past E.
F does not depend on the caller's stream, and whether a run stops at
epoch k depends only on its first 2**k records, so the records after
the last epoch's are still fresh for a conversion.  The random-cluster
draw is unchanged; only the conversion after a run lifted past E (when
E < F) reads later records.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from numbers import Real
from operator import length_hint
from typing import Sequence

from .errors import InvalidParameterError, NoCoalescenceError
from .graph import WeightedGraph, require_field_free
from .reductions import _BODIES, REDUCTIONS
from .rng import RngStream, _nonnegative_int
from .worlds import RcConfig, SubgraphConfig, _connected, validate_config

DEFAULT_MAX_EPOCH = 24
# the deepest schedule allowed: 2**27 records of 8 bytes, about 1 GiB
# (the default 24 holds at most ~134 MB)
MAX_EPOCH = 27
# the pilot runs that choose a graph's first epoch: PILOTS of them, on the
# stream keys (0, PILOT, k); PILOT is "PILOT" in ASCII
PILOTS = 3
PILOT = 0x50494C4F54


def heat_bath_rc_step(g: WeightedGraph, z: Sequence[int], edge: int, u: float) -> RcConfig:
    """Resample one edge from its conditional law using the uniform ``u``.

    Opening an edge whose endpoints are already connected elsewhere does
    not change the cluster count, so the conditional open probability is
    p; otherwise closing it splits a cluster and doubles the weight, giving
    p / (2 - p).  Since p / (2 - p) <= p, a uniform outside the band
    between the two thresholds decides the edge without asking whether
    its endpoints are connected.  A graph with a field, an edge index
    that is not an int in range (a bool or a float included) and a ``u``
    that is not a real number in [0, 1) are refused.  The edge is closed
    in a copy of ``z`` before the query, as :func:`cftp_rc_run` does, and
    the copy holds fresh 0/1 ints whatever values equal to 0 or 1 ``z``
    holds.
    """
    require_field_free(g)
    validate_config(g, "rc", z)
    if type(edge) is not int:
        edge = _nonnegative_int(edge, "edge index")
    if not 0 <= edge < g.num_edges:
        raise InvalidParameterError(f"edge index {edge} out of range")
    if type(u) is not float and not isinstance(u, Real) or not 0.0 <= u < 1.0:
        raise InvalidParameterError(f"uniform variate must lie in [0, 1), got {u!r}")
    low, p = g.cftp_plan.low[edge], g.ps[edge]  # the band, as in cftp_rc_run
    n = g.num_nodes
    out = [1 if v else 0 for v in z]  # fresh 0/1 ints, by value
    out[edge] = 0
    out[edge] = int(u < low or (u < p and _connected(
        g.adjacency, out, *g.edges[edge], g.short_cycles[edge], [0] * n, 1, [0] * n, [0] * n
    )))
    return tuple(out)


@dataclass(frozen=True)
class CftpRun:
    """A coalesced run: the exact sample plus how hard it was to get.

    ``epoch`` is the epoch the run stopped at, whose chains started
    2**epoch steps in the past: the coalescing epoch, or the graph's
    first epoch if that is later.  ``steps`` counts the kernel steps
    actually run over all epochs: the last epoch in full, a failed epoch
    up to the step at which it was seen to fail, and none for an epoch
    below the first, which is never run.  ``queries`` counts the
    connectivity queries those steps asked, in both chains.
    """

    config: tuple[int, ...]
    epoch: int
    steps: int
    queries: int


def cftp_rc_run(
    g: WeightedGraph, rng: RngStream, max_epoch: int = DEFAULT_MAX_EPOCH, _first: int | None = None
) -> CftpRun:
    """Run monotone coupling from the past until coalescence.

    Epoch k starts the extremal chains 2**k steps in the past, from the
    graph's :func:`first_epoch` (``_first`` overrides it; no epoch below
    the smallest whose horizon covers a sweep of the free edges is run).
    Raises :class:`NoCoalescenceError` if they have not met by the time
    the ``max_epoch`` schedule is exhausted, and before any draw if
    ``max_epoch`` is below a sweep's epoch; callers may retry with a
    larger budget, up to :data:`MAX_EPOCH`.
    """
    if type(max_epoch) is not int or max_epoch < 0:
        max_epoch = _nonnegative_int(max_epoch, "max_epoch")
    if max_epoch > MAX_EPOCH:
        raise InvalidParameterError(f"max_epoch must lie in [0, {MAX_EPOCH}], got {max_epoch}")
    require_field_free(g)
    plan = g.cftp_plan
    sweep = plan.sweep
    if not sweep:
        return CftpRun(plan.bottom, 0, 0, 0)
    s = len(sweep)
    lowest = (s - 1).bit_length()  # the first epoch whose horizon covers a sweep
    if max_epoch < lowest:
        raise NoCoalescenceError(
            f"no coalescence within 2**{max_epoch} steps: a sweep of the {s} free edges "
            f"takes {s} steps, so max_epoch (--max-epoch) must be at least {lowest}"
        )
    if _first is None:
        _first = plan.first_epochs.get(max_epoch)
        if _first is None:
            _first = first_epoch(g, max_epoch)
    first = max(lowest, _first)

    # record t - 1 is the uniform of step -t, which is sweep position -t % s;
    # drawn once and replayed by every deeper epoch
    uniforms = array("d")
    adj = g.adjacency
    mark = from_i = from_j = None  # made at the first query: a small run may ask none
    stamp = 1  # raised by 2 a query
    total_steps = 0
    for epoch in range(first, max_epoch + 1):
        horizon = 1 << epoch
        rng.uniforms(horizon - len(uniforms), uniforms)
        top = list(plan.top)
        bot = list(plan.bottom)
        records = reversed(uniforms)  # step -horizon's first, step -1's last
        part = sweep[-horizon % s :]  # a partial first sweep, then whole ones
        left = horizon  # the steps from this sweep's first on
        while left > 0:
            last = left == s  # the sweep that updates each free edge for the last time
            left -= len(part)
            for (edge, p, low, i, j, cycles), u in zip(part, records):
                if u >= p:
                    top[edge] = bot[edge] = 0
                elif u < low:
                    top[edge] = bot[edge] = 1
                else:  # closed first, so the query asks about the rest of the graph
                    top[edge] = bot[edge] = 0
                    if mark is None:
                        n = g.num_nodes
                        mark, from_i, from_j = [0] * n, [0] * n, [0] * n
                    stamp += 2
                    if _connected(adj, top, i, j, cycles, mark, stamp, from_i, from_j):
                        top[edge] = 1
                        # bot <= top and the kernel is monotone, so the lower
                        # chain asks only for an edge the upper chain opens
                        if bot is not top:
                            stamp += 2
                            if _connected(adj, bot, i, j, cycles, mark, stamp, from_i, from_j):
                                bot[edge] = 1
                            elif last:
                                break  # the edge's last update left the chains apart
            if bot is not top and top == bot:
                bot = top  # chains evolve identically from here on
            part = sweep
        # a run stopped at step -t has t - 1 records left: it ran horizon - t + 1 steps
        total_steps += horizon - length_hint(records)
        if top == bot:
            return CftpRun(tuple(top), epoch, total_steps, (stamp - 1) // 2)
    raise NoCoalescenceError(
        f"no coalescence within 2**{max_epoch} steps; "
        f"raise max_epoch (at most {MAX_EPOCH}) to search deeper"
    )


def first_epoch(g: WeightedGraph, max_epoch: int = DEFAULT_MAX_EPOCH) -> int:
    """The epoch :func:`cftp_rc_run` starts from on ``g`` under ``max_epoch``:
    the smallest coalescing epoch of :data:`PILOTS` runs from a sweep's
    epoch on the keys ``(0, PILOT, k)``, or ``max_epoch`` if none
    coalesces.  Computed once per graph object and budget and kept in the
    graph's :attr:`~isingworlds.graph.WeightedGraph.cftp_plan`, so a
    pickled graph carries it; the caller's stream is never read.
    """
    known = g.cftp_plan.first_epochs
    if max_epoch not in known:
        best = max_epoch
        for k in range(PILOTS):
            try:  # a pilot that cannot beat the best so far need not finish
                best = cftp_rc_run(g, RngStream(0, (PILOT, k)), best, _first=0).epoch
            except NoCoalescenceError:
                pass
        known[max_epoch] = best
    return known[max_epoch]


def perfect_sample(
    g: WeightedGraph, world: str, rng: RngStream, max_epoch: int = DEFAULT_MAX_EPOCH
) -> tuple[tuple[int, ...], CftpRun]:
    """One exact draw in ``world``, and its run: :func:`cftp_rc_run`, then
    the exact conversion on the same stream.  An unknown world raises first."""
    if world != "rc" and ("rc", world) not in REDUCTIONS:
        raise InvalidParameterError(f"unknown world {world!r}")
    run = cftp_rc_run(g, rng, max_epoch)
    # a coalesced run has positive weight, so its conversion skips the guard
    config = run.config if world == "rc" else _BODIES[REDUCTIONS[("rc", world)]](g, run.config, rng)
    return config, run


def perfect_subs_sample(g: WeightedGraph, rng: RngStream) -> SubgraphConfig:
    """One exact subgraphs-world draw: :func:`perfect_sample` in ``"subs"``."""
    return perfect_sample(g, "subs", rng)[0]
