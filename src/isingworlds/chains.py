"""Markov chains assembled from the exact world-to-world conversions.

Both kernels bounce through the random-cluster world and back, so their
stationary laws are exactly the spins and subgraphs distributions: the
classic cluster-flip update for spins, and its edge-world counterpart
that moves between even subgraphs in a single step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Sequence

from .errors import InvalidConfigError
from .graph import WeightedGraph
from .reductions import rc_to_spins, rc_to_subs, spins_to_rc, subs_to_rc
from .rng import RngStream
from .worlds import SpinConfig, SubgraphConfig, require_statistic, require_support


def sw_classic_step(g: WeightedGraph, x: Sequence[int], rng: RngStream) -> SpinConfig:
    """One cluster-flip update: spins -> random cluster -> spins."""
    return rc_to_spins(g, spins_to_rc(g, x, rng), rng)


def sw_subgraphs_step(g: WeightedGraph, y: Sequence[int], rng: RngStream) -> SubgraphConfig:
    """One edge-world cluster update: subgraphs -> random cluster -> subgraphs."""
    return rc_to_subs(g, subs_to_rc(g, y, rng), rng)


_KERNELS = {
    "spins": sw_classic_step,
    "subs": sw_subgraphs_step,
}


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
    any draw, whatever ``steps`` is.
    """
    for name, count, least in (("steps", steps, 0), ("thin", thin, 1)):
        if isinstance(count, bool) or not isinstance(count, Integral) or count < least:
            raise InvalidConfigError(f"{name} must be an integer of at least {least}, got {count!r}")
    if len(set(collect)) != len(collect):
        raise InvalidConfigError(f"each statistic may be collected once, got {list(collect)}")
    kernel = _KERNELS.get(init.world)
    if kernel is None:
        raise InvalidConfigError(f"no chain kernel runs in world {init.world!r}")
    require_support(g, init.world, init.config)

    trace = ChainTrace(stats=tuple(collect))
    config = init.config
    # looked up once, which also fails fast on unknown names
    recorded = [(trace.values[name], require_statistic(init.world, name)) for name in collect]

    step = init.step
    for _ in range(steps):
        config = kernel(g, config, rng)
        step += 1
        if (step - init.step) % thin == 0:
            trace.steps.append(step)
            for column, stat in recorded:
                column.append(stat(g, config))
    trace.final = ChainState(init.world, config, step)
    return trace
