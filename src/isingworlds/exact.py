"""Brute-force exact computation on small graphs.

Everything here exists to pin down the sampling code against ground
truth: full weight tables and partition sums per world, the
partition-function identities linking the worlds, exact one-step
transition matrices, and the closed-form even-subgraph count.

Tables are columnar.  A world's configurations are built once, column by
column, as an int8 matrix with one row per configuration (in
``itertools.product`` order), and the world's batch weight pair from
:mod:`worlds` runs over it; the tuples of ``WorldTable.configs`` are
built only when a caller reads them.  A random-cluster table takes its
cluster counts from min-label propagation over that matrix, on the
edge-incident nodes only, which is deliberately independent of the
forest traversal (``worlds._open_forest``) the samplers use: an oracle
sharing that code would share its faults.  Parity work likewise covers
only edge-incident nodes, so a graph with a few edges and many isolated
nodes costs no more than its edges.

Kernel matrices, by contrast, run the production code on purpose: each
conversion in ``reductions.REDUCTIONS`` runs once per outcome of its
Bernoulli draws, so a stationarity check tests the code that samples.

Enumeration is capped; callers see :class:`CapExceededError` rather than
an accidental exponential blowup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import CapExceededError, InvalidConfigError, InvalidParameterError
from .graph import WeightedGraph, require_field_free
from .reductions import REDUCTIONS
from .rng import RngStream
from .worlds import (
    _ldexp,
    odd_rows,
    rc_log_weights,
    rc_weights,
    spins_log_weights,
    spins_weights,
    subs_log_weights,
    subs_weights,
    validate_config,
)

SPINS_ENUM_NODE_CAP = 16
EDGE_ENUM_CAP = 20
KERNEL_EDGE_CAP = 10
KERNEL_NODE_CAP = 12

CAPS = {
    "spins_enum_nodes": SPINS_ENUM_NODE_CAP,
    "edge_enum_edges": EDGE_ENUM_CAP,
    "kernel_edges": KERNEL_EDGE_CAP,
    "kernel_nodes": KERNEL_NODE_CAP,
}


@dataclass(frozen=True, eq=False)
class WorldTable:
    """Exhaustive (configuration, weight) table for one world.

    Configurations are listed in lexicographic order of their serialized
    bit/sign strings, which keeps golden outputs stable.  ``matrix`` holds
    them as int8 rows; ``configs`` is the same list as tuples.
    """

    world: str
    matrix: np.ndarray
    weights: np.ndarray
    graph: WeightedGraph

    @cached_property
    def configs(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.matrix.tolist()))

    @cached_property
    def Z(self) -> float:
        return float(self.weights.sum())

    @cached_property
    def log_weights(self) -> np.ndarray:
        """The world's batch log weight over the stored matrix."""
        return _WORLD_SPECS[self.world][2](self.graph, self.matrix)

    @cached_property
    def log_Z(self) -> float:
        """log Z from the log weights, for when the linear sum overflows."""
        return float(np.logaddexp.reduce(self.log_weights))

    @cached_property
    def probs(self) -> np.ndarray:
        """Normalized weights; from the log weights once Z is not a
        positive finite float, where ``weights / Z`` would be NaN."""
        if 0.0 < self.Z < math.inf:
            return self.weights / self.Z
        return np.exp(self.log_weights - self.log_Z)

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.weights > 0.0))

    @cached_property
    def support_configs(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.matrix[list(self.support)].tolist()))

    @cached_property
    def support_probs(self) -> np.ndarray:
        return self.probs[list(self.support)]

    @cached_property
    def config_index(self) -> dict[tuple[int, ...], int]:
        return {config: i for i, config in enumerate(self.configs)}


def _check_caps(g: WeightedGraph, world: str) -> None:
    if world == "spins":
        if g.num_nodes > SPINS_ENUM_NODE_CAP:
            raise CapExceededError(
                f"spins enumeration needs num_nodes <= {SPINS_ENUM_NODE_CAP}, got {g.num_nodes}"
            )
    elif g.num_edges > EDGE_ENUM_CAP:
        raise CapExceededError(
            f"edge-world enumeration needs num_edges <= {EDGE_ENUM_CAP}, got {g.num_edges}"
        )


def _config_matrix(sites: int, values: tuple[int, int]) -> np.ndarray:
    """Every assignment of ``values`` to ``sites`` sites, one int8 row each,
    in ``product(values, repeat=sites)`` order; built column by column, so
    each column is contiguous."""
    rows = np.arange(1 << sites, dtype=np.int32)
    columns = np.empty((sites, 1 << sites), dtype=np.int8)
    for k in range(sites):
        columns[k] = np.where((rows >> (sites - 1 - k)) & 1, values[1], values[0])
    return columns.T


def cluster_counts(
    num_nodes: int, edges: Sequence[tuple[int, int]], zs: np.ndarray
) -> np.ndarray:
    """Number of open-edge clusters in every row of a 0/1 edge matrix.

    Min-label propagation: each node incident to an edge open in some row
    starts labelled with its own index, and sweeps over the edges copy
    the smaller endpoint label across every open edge until a sweep
    changes nothing.  A cluster's nodes then all carry its smallest
    index, so each cluster has exactly one node labelled with itself;
    every other node is a cluster of its own.
    """
    live = [e for e in range(len(edges)) if zs[:, e].any()]
    nodes = sorted({v for e in live for v in edges[e]})
    local = {v: k for k, v in enumerate(nodes)}
    own = np.arange(len(nodes), dtype=np.min_scalar_type(len(nodes)))[:, None]
    labels = np.repeat(own, len(zs), axis=1)  # one row per node
    # a closed edge ORs the far label up to the dtype's top value, which
    # lowers nothing (a masked np.minimum is two orders slower)
    top = np.iinfo(labels.dtype).max
    sweep = [
        (labels[local[edges[e][0]]], labels[local[edges[e][1]]],
         np.where(zs[:, e] != 0, 0, top).astype(labels.dtype))
        for e in live
    ]
    far = np.empty(len(zs), labels.dtype)
    while True:
        before = labels.copy()
        for a, b, closed in sweep:
            np.minimum(a, np.bitwise_or(b, closed, out=far), out=a)
            np.minimum(b, np.bitwise_or(a, closed, out=far), out=b)
        if np.array_equal(before, labels):
            return num_nodes - len(nodes) + np.count_nonzero(labels == own, axis=0)
        sweep.reverse()  # labels then travel both ways along the edge order


# world -> (site values, batch weight, batch log weight); spins sit on
# nodes, the edge worlds on edges
_WORLD_SPECS = {
    "spins": ((1, -1), spins_weights, spins_log_weights),
    "subs": ((0, 1), subs_weights, subs_log_weights),
    "rc": (
        (0, 1),
        lambda g, zs: rc_weights(g, zs, cluster_counts(g.num_nodes, g.edges, zs)),
        lambda g, zs: rc_log_weights(g, zs, cluster_counts(g.num_nodes, g.edges, zs)),
    ),
}


def _world_spec(
    g: WeightedGraph, world: str
) -> tuple[np.ndarray, Callable[..., np.ndarray], Callable[..., np.ndarray]]:
    """Configuration matrix in table order, plus the batch linear and log
    weight."""
    _check_caps(g, world)
    if world not in _WORLD_SPECS:
        raise InvalidParameterError(f"unknown world {world!r}")
    values, weight, weight_log = _WORLD_SPECS[world]
    sites = g.num_nodes if world == "spins" else g.num_edges
    return _config_matrix(sites, values), weight, weight_log


def enumerate_world(g: WeightedGraph, world: str) -> WorldTable:
    """Exhaustive weight table of one world.

    For the spins world, a graph carrying a field is enumerated with the
    field factors included; the edge worlds ignore the field.
    """
    matrix, weight, _ = _world_spec(g, world)
    return WorldTable(world, matrix, weight(g, matrix), g)


@dataclass(frozen=True, eq=False)
class ExactTables:
    """All three world tables of one graph, plus the partition sums."""

    graph: WeightedGraph
    spins: WorldTable
    subs: WorldTable
    rc: WorldTable
    # conversion name -> its KernelMatrix, filled by exact_kernel_matrix
    kernels: dict[str, KernelMatrix] = field(default_factory=dict, init=False, repr=False)

    @property
    def Z_spins(self) -> float:
        return self.spins.Z

    @property
    def Z_subs(self) -> float:
        return self.subs.Z

    @property
    def Z_rc(self) -> float:
        return self.rc.Z


def exact_tables(g: WeightedGraph) -> ExactTables:
    return ExactTables(
        g,
        enumerate_world(g, "spins"),
        enumerate_world(g, "subs"),
        enumerate_world(g, "rc"),
    )


def world_table_for(tables: ExactTables, world: str) -> WorldTable:
    table = getattr(tables, world, None)
    if not isinstance(table, WorldTable):
        raise InvalidParameterError(f"unknown world {world!r}")
    return table


# ---------------------------------------------------------------------------
# Partition-function identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    name: str
    lhs: float
    rhs: float
    relative_error: float
    tolerance: float
    passed: bool
    used_log_domain: bool

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "relative_error": self.relative_error,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "used_log_domain": self.used_log_domain,
        }


def _log_cosh(beta: float) -> float:
    # cosh overflows past ~710; beta + log1p(exp(-2 beta)) - log 2 does not
    return beta + math.log1p(math.exp(-2.0 * beta)) - math.log(2.0)


def _report(name: str, lhs: float, rhs: float, tol: float, log_domain: bool) -> IdentityReport:
    if log_domain:
        rel = abs(math.expm1(lhs - rhs)) if abs(lhs - rhs) < 700 else math.inf
    else:
        rel = abs(lhs - rhs) / lhs if lhs > 0 else math.inf
    return IdentityReport(name, lhs, rhs, rel, tol, rel < tol, log_domain)


def check_relate_identity(
    g: WeightedGraph, tol: float = 1e-10, tables: ExactTables | None = None
) -> list[IdentityReport]:
    """Verify the two partition-sum bridges out of the spins world.

    ``Z_spins = Z_rc * prod(exp(beta))`` and
    ``Z_spins = Z_subs * 2**num_nodes * prod(cosh(beta))``.
    Requires finite couplings (the agreement-indicator convention for
    infinite couplings rescales Z_spins).  Switches to log-domain sums
    when the linear products overflow.
    """
    if any(math.isinf(b) for b in g.betas):
        raise InvalidParameterError("relate identities need finite couplings")
    require_field_free(g)
    tables = tables or exact_tables(g)
    sum_beta = sum(g.betas)
    linear_ok = True
    try:
        prod_exp = math.exp(sum_beta)
        prod_cosh = math.prod(math.cosh(b) for b in g.betas)
    except OverflowError:
        linear_ok = False
        prod_exp = prod_cosh = math.inf
    values = (tables.Z_spins, tables.Z_rc, tables.Z_subs, prod_exp, prod_cosh)
    if linear_ok and all(math.isfinite(v) for v in values):
        return [
            _report("spins_vs_rc", tables.Z_spins, tables.Z_rc * prod_exp, tol, False),
            _report(
                "spins_vs_subs",
                tables.Z_spins,
                tables.Z_subs * math.ldexp(prod_cosh, g.num_nodes),
                tol,
                False,
            ),
        ]
    log_zs = tables.spins.log_Z
    log_cosh_sum = sum(_log_cosh(b) for b in g.betas)
    return [
        _report("spins_vs_rc", log_zs, tables.rc.log_Z + sum_beta, tol, True),
        _report(
            "spins_vs_subs",
            log_zs,
            tables.subs.log_Z + g.num_nodes * math.log(2.0) + log_cosh_sum,
            tol,
            True,
        ),
    ]


def check_rc_normalizer(
    g: WeightedGraph, tol: float = 1e-10, tables: ExactTables | None = None
) -> IdentityReport:
    """Verify ``Z_rc = Z_subs * 2**(num_nodes - num_edges) * prod(1 + exp(-2 beta))``.

    Infinite couplings are fine here: their factor is exactly 1.
    """
    require_field_free(g)
    rc = tables.rc if tables else enumerate_world(g, "rc")
    subs = tables.subs if tables else enumerate_world(g, "subs")
    factor = math.prod(1.0 + math.exp(-2.0 * b) if not math.isinf(b) else 1.0 for b in g.betas)
    rhs = subs.Z * _ldexp(factor, g.num_nodes - g.num_edges)
    if math.isfinite(rc.Z) and math.isfinite(rhs):
        return _report("rc_normalizer", rc.Z, rhs, tol, False)
    log_lhs = rc.log_Z
    log_rhs = (
        subs.log_Z
        + (g.num_nodes - g.num_edges) * math.log(2.0)
        + sum(math.log1p(math.exp(-2.0 * b)) if not math.isinf(b) else 0.0 for b in g.betas)
    )
    return _report("rc_normalizer", log_lhs, log_rhs, tol, True)


# ---------------------------------------------------------------------------
# Exact kernel matrices
# ---------------------------------------------------------------------------

# conversion -> (source world, target world)
KERNEL_SPECS = {
    "subs_to_rc": ("subs", "rc"),
    "rc_to_subs": ("rc", "subs"),
    "rc_to_spins": ("rc", "spins"),
    "spins_to_rc": ("spins", "rc"),
}
# composite -> its two conversions, which meet in the random-cluster world
KERNEL_LEGS = {
    "subs_to_spins": ("subs_to_rc", "rc_to_spins"),
    "spins_to_subs": ("spins_to_rc", "rc_to_subs"),
    "sw_classic": ("spins_to_rc", "rc_to_spins"),
    "sw_subgraphs": ("subs_to_rc", "rc_to_subs"),
}


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Exact transition matrix of a kernel, over positive-weight configs.

    Rows index the source world's support, columns the target world's
    support.  An output of zero target weight has no column, so each row
    sums to one except where a conversion can reach such an output:
    ``spins_to_rc`` at finite beta past ~18.7, where p rounds to 1.
    """

    kernel: str
    source_world: str
    target_world: str
    source_configs: tuple[tuple[int, ...], ...]
    target_configs: tuple[tuple[int, ...], ...]
    matrix: np.ndarray


class _PresetBits:
    """Stand-in stream for one run of a conversion: the k-th draw with
    0 < q < 1 returns ``bits[k]`` (0 past the preset bits, appended) and
    records q in ``qs``; q = 0 or 1 is answered without a draw."""

    def __init__(self, bits: list[int]) -> None:
        self.bits, self.qs = bits, []

    def bernoullis(self, qs: Sequence[float]) -> list[int]:
        bits, drawn, out = self.bits, self.qs, []
        for q in qs:
            if 0.0 < q < 1.0:
                if len(drawn) == len(bits):
                    bits.append(0)
                out.append(bits[len(drawn)])
                drawn.append(q)
            elif q == 0.0 or q == 1.0:
                out.append(int(q))
            else:
                raise InvalidParameterError(f"Bernoulli parameter must lie in [0, 1], got {q}")
        return out


def _convolve(g: WeightedGraph, kernel: str, tables: ExactTables) -> KernelMatrix:
    """Run the conversion once per outcome of its Bernoulli draws from each
    source support row, adding each output's probability to its column.

    A run answers the draws past its preset bits with 0, which ends one
    branch; each such 0 starts a branch that presets it to 1.
    """
    source_world, target_world = KERNEL_SPECS[kernel]
    source = world_table_for(tables, source_world)
    target = world_table_for(tables, target_world)
    convert = REDUCTIONS[(source_world, target_world)]
    column = {config: c for c, config in enumerate(target.support_configs)}
    matrix = np.zeros((len(source.support), len(column)))
    for r, config in enumerate(source.support_configs):
        row = [0.0] * len(column)
        pending: list[list[int]] = [[]]  # the first run is the all-zero branch
        while pending:
            rng = _PresetBits(pending.pop())
            preset = len(rng.bits)
            c = column.get(convert(g, config, rng))
            pending.extend(rng.bits[:k] + [1] for k in range(preset, len(rng.bits)))
            if c is not None:
                prob = 1.0
                for q, bit in zip(rng.qs, rng.bits):
                    prob *= q if bit else 1.0 - q
                row[c] += prob
        matrix[r] = row
    matrix.flags.writeable = False
    return KernelMatrix(
        kernel, source_world, target_world, source.support_configs, target.support_configs, matrix
    )


def exact_kernel_matrix(g: WeightedGraph, kernel: str, tables: ExactTables | None = None) -> KernelMatrix:
    """Exact one-step transition probabilities of a conversion or chain kernel.

    A conversion's matrix runs ``REDUCTIONS[(source, target)]`` itself,
    over every outcome of its Bernoulli draws; it is built once per
    ``tables`` (which must belong to ``g``) and kept there, read-only.
    A composite is the product of its two legs' matrices.
    """
    if kernel not in KERNEL_SPECS and kernel not in KERNEL_LEGS:
        raise InvalidParameterError(f"unknown kernel {kernel!r}")
    if g.num_edges > KERNEL_EDGE_CAP:
        raise CapExceededError(f"kernel matrices need num_edges <= {KERNEL_EDGE_CAP}")
    if g.num_nodes > KERNEL_NODE_CAP:
        raise CapExceededError(f"kernel matrices need num_nodes <= {KERNEL_NODE_CAP}")
    tables = tables or exact_tables(g)
    if tables.graph != g:
        raise InvalidParameterError("the tables passed belong to another graph")
    if kernel in KERNEL_LEGS:
        k1, k2 = (exact_kernel_matrix(g, leg, tables) for leg in KERNEL_LEGS[kernel])
        return KernelMatrix(
            kernel, k1.source_world, k2.target_world, k1.source_configs, k2.target_configs,
            k1.matrix @ k2.matrix,
        )
    if kernel not in tables.kernels:
        tables.kernels[kernel] = _convolve(g, kernel, tables)
    return tables.kernels[kernel]


def kernel_stationarity_error(g: WeightedGraph, kernel: str, tables: ExactTables | None = None) -> float:
    """Max pointwise error of pushing the exact source law through a kernel.

    Zero (up to rounding) certifies that the kernel maps its source
    distribution onto the target distribution exactly.
    """
    tables = tables or exact_tables(g)
    km = exact_kernel_matrix(g, kernel, tables)
    source = world_table_for(tables, km.source_world)
    target = world_table_for(tables, km.target_world)
    pushed = source.support_probs @ km.matrix
    return float(np.max(np.abs(pushed - target.support_probs)))


# ---------------------------------------------------------------------------
# Sampling against tables
# ---------------------------------------------------------------------------

def sample_from_table(table: WorldTable, rng: RngStream, n: int) -> list[tuple[int, ...]]:
    """n i.i.d. draws from an exact table by inverse CDF; a table with no
    positive-weight configuration is an error, whatever n is."""
    if not table.support:
        raise InvalidConfigError(f"the {table.world} table has no configuration of positive weight")
    cum = np.cumsum(table.support_probs)
    us = np.array([rng.uniform() for _ in range(n)])
    idx = np.minimum(np.searchsorted(cum, us, side="right"), len(cum) - 1)
    configs = table.support_configs
    return [configs[i] for i in idx]


def empirical_distribution(samples: Sequence[tuple[int, ...]], table: WorldTable) -> np.ndarray:
    """Histogram of samples aligned to a table's configuration order."""
    counts = np.zeros(len(table.configs))
    index = table.config_index
    for s in samples:
        i = index.get(tuple(s))
        if i is None:
            raise InvalidConfigError(f"sample {s!r} is not a configuration of this table")
        counts[i] += 1.0
    return counts / len(samples)


def tv_distance(p: Sequence[float], q: Sequence[float]) -> float:
    """Total variation distance between two aligned distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"mismatched support: {p.shape} vs {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())


# ---------------------------------------------------------------------------
# Even-subgraph counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvenCountReport:
    enumerated: int
    closed_form: int

    @property
    def passed(self) -> bool:
        return self.enumerated == self.closed_form

    def as_dict(self) -> dict:
        return {
            "enumerated": self.enumerated,
            "closed_form": self.closed_form,
            "passed": self.passed,
        }


def check_even_subgraph_count(g: WeightedGraph, z: Sequence[int]) -> EvenCountReport:
    """Count even-degree subgraphs dominated by ``z`` two ways.

    Brute-force enumeration over subsets of the open edges is compared
    with ``2 ** (open - num_nodes + clusters)``; both sides run on the
    columnar tables' parity and cluster counts.
    """
    validate_config(g, "rc", z)
    open_edges = [edge for edge, ze in zip(g.edges, z) if ze]
    if len(open_edges) > EDGE_ENUM_CAP:
        raise CapExceededError(f"even-subgraph enumeration needs <= {EDGE_ENUM_CAP} open edges")
    subsets = _config_matrix(len(open_edges), (0, 1))
    count = len(subsets) - int(np.count_nonzero(odd_rows(open_edges, subsets)))
    (parts,) = cluster_counts(g.num_nodes, open_edges, np.ones((1, len(open_edges)), np.int8))
    closed_form = 1 << (len(open_edges) - g.num_nodes + int(parts))
    return EvenCountReport(count, closed_form)
