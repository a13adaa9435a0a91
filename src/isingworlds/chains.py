"""Markov chains assembled from the exact world-to-world conversions, and
the one generator of seeded exact draws.

Both kernels bounce through the random-cluster world and back, so their
stationary laws are exactly the spins and subgraphs distributions: the
classic cluster-flip update for spins, and its edge-world counterpart
that moves between even subgraphs in a single step.  :func:`draws`
turns a seed and a count into exact draws by coupling from the past,
by one of these chains started from a perfect draw, or from the
enumeration oracle, and states which stream each draw reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from numbers import Integral
from typing import Callable, Iterator, Sequence

from .cftp import DEFAULT_MAX_EPOCH, first_epoch, perfect_sample
from .errors import InvalidConfigError, InvalidParameterError
from .graph import WeightedGraph, _require_finite_log_weights, require_field_free
from .reductions import _rc_to_spins, _rc_to_subs, _spins_to_rc, _subs_to_rc
from .rng import RngStream
from .worlds import SpinConfig, SubgraphConfig, require_statistic, require_support


# each chain world's two conversion bodies, there and back through the
# random-cluster world; a step whose input the library built runs them
# unguarded (see :mod:`isingworlds.reductions`)
_KERNELS = {
    "spins": (_spins_to_rc, _rc_to_spins),
    "subs": (_subs_to_rc, _rc_to_subs),
}


def sw_classic_step(g: WeightedGraph, x: Sequence[int], rng: RngStream) -> SpinConfig:
    """One cluster-flip update: spins -> random cluster -> spins."""
    require_support(g, "spins", x)
    return _rc_to_spins(g, _spins_to_rc(g, x, rng), rng)


def sw_subgraphs_step(g: WeightedGraph, y: Sequence[int], rng: RngStream) -> SubgraphConfig:
    """One edge-world cluster update: subgraphs -> random cluster -> subgraphs."""
    require_support(g, "subs", y)
    return _rc_to_subs(g, _subs_to_rc(g, y, rng), rng)


@dataclass
class ChainState:
    """Current world, configuration, and step counter of a running chain."""

    world: str
    config: tuple[int, ...]
    step: int = 0


@dataclass
class ChainTrace:
    """Recorded statistics of a chain run, column-per-statistic."""

    stats: tuple[str, ...]
    steps: list[int] = field(default_factory=list)
    values: dict[str, list[float]] = field(default_factory=dict)
    final: ChainState | None = None

    def __post_init__(self) -> None:
        if not self.values:
            self.values = {name: [] for name in self.stats}

    def __len__(self) -> int:
        return len(self.steps)


def _require_counts(*counts: tuple[str, int, int]) -> None:
    """Raise unless every ``(name, count, least)`` has an integer count of at least ``least``."""
    for name, count, least in counts:
        if isinstance(count, bool) or not isinstance(count, Integral) or count < least:
            raise InvalidConfigError(f"{name} must be an integer of at least {least}, got {count!r}")


def initial_state(g: WeightedGraph, world: str) -> ChainState:
    """Deterministic positive-weight starting state for a chain world."""
    if world == "spins":
        return ChainState("spins", (1,) * g.num_nodes)
    if world == "subs":
        return ChainState("subs", (0,) * g.num_edges)
    raise InvalidConfigError(f"no chain kernel runs in world {world!r}")


def run_chain(
    g: WeightedGraph,
    init: ChainState,
    steps: int,
    rng: RngStream,
    collect: Sequence[str] = (),
    thin: int = 1,
) -> ChainTrace:
    """Apply the world's kernel ``steps`` times, recording statistics.

    A row is recorded after every ``thin``-th step; ``steps = 0`` yields
    an empty trace and leaves the state untouched.  The counts, the start
    state and the statistic names (each at most once) are checked before
    any draw, whatever ``steps`` is; so is, for a spins chain, that the
    couplings sum within float range, as the oracle checks it.
    """
    _require_counts(("steps", steps, 0), ("thin", thin, 1))
    if len(set(collect)) != len(collect):
        raise InvalidConfigError(f"each statistic may be collected once, got {list(collect)}")
    legs = _KERNELS.get(init.world)
    if legs is None:
        raise InvalidConfigError(f"no chain kernel runs in world {init.world!r}")
    if init.world == "spins":
        _require_finite_log_weights(g)
    require_support(g, init.world, init.config)  # once: every later state is a kernel's output
    there, back = legs

    trace = ChainTrace(stats=tuple(collect))
    config = init.config
    # looked up once, which also fails fast on unknown names
    recorded = [(trace.values[name], require_statistic(init.world, name)) for name in collect]

    step = init.step
    for _ in range(steps):
        config = back(g, there(g, config, rng), rng)
        step += 1
        if (step - init.step) % thin == 0:
            trace.steps.append(step)
            for column, stat in recorded:
                column.append(stat(g, config))
    trace.final = ChainState(init.world, config, step)
    return trace


DRAW_BLOCK = 128  # the most CFTP draws in one task handed to ``map``


def _cftp_block(g: WeightedGraph, world: str, seed: int, stop: int, max_epoch: int, size: int, start: int) -> list:
    """CFTP draws ``start`` up to ``start + size`` (or ``stop``), each on its
    own key ``(seed, i)``: substream i of the key ``(seed,)``, which is
    checked and formatted once a block."""
    streams = RngStream(seed, ())
    runs = (perfect_sample(g, world, streams.substream(i), max_epoch) for i in range(start, min(start + size, stop)))
    return [(config, run.epoch) for config, run in runs]


def draws(g: WeightedGraph, world: str, method: str, seed: int, n: int, thin: int = 1,
          max_epoch: int = DEFAULT_MAX_EPOCH, map: Callable = map,
          block: int = DRAW_BLOCK) -> Iterator[tuple[tuple[int, ...], int | None]]:
    """Yield ``n`` exact draws in ``world`` in index order, each as
    ``(config, epoch)``: the run's epoch for ``method="cftp"``, None
    for ``"chain"`` and ``"enum"``.

    Which stream each draw reads is fixed here, so a seed replays:

    * ``cftp``: draw i is :func:`~isingworlds.cftp.perfect_sample` on
      ``RngStream(seed, i)`` alone.  Blocks of ``block`` indices
      (default :data:`DRAW_BLOCK`) go through ``map`` (a process pool's
      ``map`` spreads them; it must return the blocks in order), so the
      draws depend on neither.  The graph's
      :func:`~isingworlds.cftp.first_epoch` is worked out first, so
      ``g`` carries it to every block.
    * ``chain``: the ``sw`` chain for spins, ``subs-sw`` otherwise,
      starts from ``perfect_sample`` on ``RngStream(seed, (0, 0))``
      (``max_epoch`` bounds it) and steps on ``RngStream(seed)``; draw i
      is its state after ``(i + 1) * thin`` steps, for rc converted by
      ``subs_to_rc`` on that stream.  The kernels keep the law, so every
      draw is exact; no draw, no start.
    * ``enum``: inverse-CDF draws from the enumeration table on
      ``RngStream(seed)``, ``block`` at a time (this loads numpy).

    Only ``enum`` in the spins world accepts a field graph; every other
    case, a spins graph whose finite couplings and field values sum past
    float range (which the oracle refuses), and a count below 0 (``n``)
    or 1 (``thin``, ``block``), raise on the first ``next``, whatever
    ``n`` is.
    """
    _require_counts(("n", n, 0), ("thin", thin, 1), ("block", block, 1))
    if method != "enum" or world != "spins":
        require_field_free(g)
    if world == "spins":
        _require_finite_log_weights(g)
    if method == "cftp":
        if n:
            first_epoch(g, max_epoch)  # kept on g, so a pool's workers get it with g and run no pilot
        blocks = map(partial(_cftp_block, g, world, seed, n, max_epoch, block), range(0, n, block))
        yield from chain.from_iterable(blocks)  # holds no spent block while the next is drawn
    elif method == "enum":
        from .exact import enumerate_world, inverse_cdf  # loads numpy when it runs

        sample, rng = inverse_cdf(enumerate_world(g, world)), RngStream(seed)
        for start in range(0, n, block):  # the draws of one sample(rng, n), a block at a time
            yield from ((config, None) for config in sample(rng, min(block, n - start)))
    elif method != "chain":
        raise InvalidParameterError(f"unknown sampling method {method!r}")
    elif n:  # no draw, no start
        chain_world = "subs" if world == "rc" else world
        config, _ = perfect_sample(g, chain_world, RngStream(seed, (0, 0)), max_epoch)
        (there, back), rng = _KERNELS[chain_world], RngStream(seed)
        for _ in range(n):  # every state a kernel's output of a perfect draw: no guard
            for _ in range(thin):
                config = back(g, there(g, config, rng), rng)
            yield (_subs_to_rc(g, config, rng) if world == "rc" else config), None
