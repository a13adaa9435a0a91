"""Brute-force exact computation on small graphs.

Everything here exists to pin down the sampling code against ground
truth: full weight tables and partition sums per world, the
partition-function identities linking the worlds, exact one-step
transition matrices, and the closed-form even-subgraph count.

Each world states its unnormalized weight once, as the factors its
factor function yields over an int8 block of configurations (one row per
configuration), each factor carrying its value pair in both the linear
and the log domain; one fold per domain evaluates every world, so the
two domains cannot drift apart.  The scalar ``weight_*`` functions
validate one configuration and fold it as a one-row matrix.  The spins
weight includes the field's node factors when the graph carries one;
the random-cluster folds take each row's cluster count from their
caller, which for the scalar rc weights is the union-find pass of
``worlds._union``, while the tables keep their own min-label counts
(below).  The weights live here, not in :mod:`worlds`, because the
oracle is their only production user: the samplers never import numpy.

Tables store weights, not configurations.  Row r of a table is the
binary expansion of r over the world's sites (``itertools.product``
order), so a table keeps only its weights, 8 bytes a row, and an rc
table its cluster counts in the smallest unsigned dtype that holds
``num_nodes``, for its log weights.  Tables are read by row index:
``rows`` rebuilds the configurations at any indices and ``index`` maps
configurations back to theirs, so a draw, a histogram or a kernel matrix
addresses rows without a tuple or a dict entry per row.  Whole tables are
rebuilt in blocks of ``BLOCK_ROWS``, column by column, both to fold the
weights at enumeration and to read log weights or every configuration;
every per-row float operation is the same whatever the block size, so
the values are too.  A random-cluster table takes its cluster counts
from min-label propagation over each block, on the edge-incident nodes
only, which is deliberately independent of the traversals the samplers
use (the union-find pass of ``worlds._union`` and the forest of
``worlds._open_forest``): an oracle sharing that code would share its
faults.  Parity work likewise covers only edge-incident nodes, so a
graph with a few edges and many isolated nodes costs no more than its
edges.

``ExactTables`` enumerates each world the first time it is read, so an
identity check or kernel matrix enumerates only the worlds it reads,
each once; ``exact_tables`` reads all three at once.  The three
partition-sum identities are one statement, ``Z_A = Z_B * factor``,
checked by one routine in the linear domain, or in the log domain once
a side leaves float range.  A spins table, and the identities that read
one, refuse a graph whose finite couplings and field values sum past
float range, where a log weight could overflow.

Kernel matrices, by contrast, run the production code on purpose: each
conversion in ``reductions.REDUCTIONS`` runs once per outcome of its
Bernoulli draws, so a stationarity check tests the code that samples.

Enumeration is capped (the caps live in :mod:`caps` and are re-exported
here); callers see :class:`CapExceededError` rather than an accidental
exponential blowup.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .caps import CAPS, EDGE_ENUM_CAP, KERNEL_EDGE_CAP, KERNEL_NODE_CAP, SPINS_ENUM_NODE_CAP
from .errors import CapExceededError, InvalidConfigError, InvalidParameterError
from .graph import WeightedGraph, require_field_free
from .reductions import REDUCTIONS
from .rng import RngStream, _nonnegative_int
from .worlds import _union, validate_config


@dataclass(frozen=True, eq=False)
class WorldTable:
    """Exhaustive weight table for one world, read by row index.

    Configurations are listed in lexicographic order of their serialized
    bit/sign strings, which keeps golden outputs stable; row r is the
    binary expansion of r, so only the weights are stored.  ``rows`` maps
    row indices to configurations and ``index`` maps configurations back;
    ``configs`` is every row as a tuple.  An rc table keeps each row's
    cluster count in ``counts`` for its log fold.
    """

    world: str
    weights: np.ndarray
    graph: WeightedGraph
    counts: np.ndarray | None = None

    @property
    def _layout(self) -> tuple[int, tuple[int, int]]:
        return _sites(self.graph, self.world), _WORLD_SPECS[self.world][0]

    def rows(self, indices: np.ndarray) -> np.ndarray:
        """The configurations at the given row indices, one int8 row each."""
        return _config_rows(*self._layout, indices)

    def index(self, configs: Sequence[Sequence[int]]) -> np.ndarray:
        """The row index of each configuration, the inverse of ``rows``;
        each distinct configuration is checked by ``validate_config``."""
        for config in set(map(tuple, configs)):
            validate_config(self.graph, self.world, config)
        sites, values = self._layout
        bits = np.asarray(configs, dtype=np.int8).reshape(len(configs), sites) == values[1]
        return bits @ (1 << np.arange(sites - 1, -1, -1, dtype=np.int64))

    @cached_property
    def configs(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c for _, block in _row_blocks(*self._layout) for c in map(tuple, block.tolist()))

    @cached_property
    def Z(self) -> float:
        return float(self.weights.sum())

    @cached_property
    def log_weights(self) -> np.ndarray:
        """The world's log weight of every row."""
        out, counts = np.empty(len(self.weights)), self.counts
        for part, block in _row_blocks(*self._layout):
            out[part] = _log_fold(self.graph, self.world, block, None if counts is None else counts[part])
        return out

    @cached_property
    def log_Z(self) -> float:
        """log Z from the log weights, for when the linear sum overflows."""
        return float(np.logaddexp.reduce(self.log_weights))

    @cached_property
    def probs(self) -> np.ndarray:
        """Normalized weights; from the log weights once Z is not a
        positive finite float, where ``weights / Z`` would be NaN, scaled
        by the largest of them: ``log_Z`` is rounded to its own ulp, which
        past about 1e13 would skew every probability."""
        if 0.0 < self.Z < math.inf:
            return self.weights / self.Z
        scaled = np.exp(self.log_weights - self.log_weights.max())
        return scaled / scaled.sum()

    @cached_property
    def support(self) -> np.ndarray:
        """Indices of the rows of finite log weight, also where the linear
        weight underflows."""
        return np.flatnonzero(self.log_weights > -math.inf)


# rows a table builds and folds at a time: enumeration and every reader
# hold one block of configurations at once, never the whole table
BLOCK_ROWS = 1 << 14


def _config_rows(sites: int, values: tuple[int, int], indices: np.ndarray) -> np.ndarray:
    """The rows at ``indices`` of every assignment of ``values`` to
    ``sites`` sites in ``product(values, repeat=sites)`` order, one int8
    row each: row r is the binary expansion of r, first site first.
    Built column by column, so each column is contiguous."""
    rows = indices.astype(np.uint32, copy=False)  # the caps keep sites far below 32
    shifted = np.empty(len(rows), np.uint32)
    columns = np.empty((sites, len(rows)), dtype=np.int8)
    for k in range(sites):
        np.right_shift(rows, sites - 1 - k, out=shifted)
        np.bitwise_and(shifted, 1, out=columns[k], casting="unsafe")
    if values != (0, 1):
        columns = values[0] + (values[1] - values[0]) * columns  # spins: 1 - 2 * bit
    return columns.T


def _row_blocks(
    sites: int, values: tuple[int, int], indices: np.ndarray | None = None
) -> Iterator[tuple[slice, np.ndarray]]:
    """The rows at ``indices`` (every row when None) in blocks of
    ``BLOCK_ROWS``, each with its slice of ``indices``."""
    total = 1 << sites if indices is None else len(indices)
    for start in range(0, total, BLOCK_ROWS):
        part = slice(start, min(start + BLOCK_ROWS, total))
        block = np.arange(part.start, part.stop, dtype=np.uint32) if indices is None else indices[part]
        yield part, _config_rows(sites, values, block)


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


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

# Each world states its weight once, as its factors over a configuration
# matrix (one row per configuration, one column per node for spins or
# per edge): a factor is a flag column (bool or 0/1 int8) with its
# (unset, set) value pair in the linear domain and in the log domain.
# A world's factor function yields them in node/edge order and marks the
# rows a hard constraint rules out in the mask it is given.  The folds
# below multiply or add the factors with the float operations of the
# plain loop, one column at a time, and set ruled-out rows at the end, so
# a 0 * inf on the way never leaks a NaN into them.

def spins_factors(g: WeightedGraph, xs: np.ndarray, ruled_out: np.ndarray) -> Iterator[tuple]:
    """Edge factors exp(beta * x_i * x_j), then the field's node factors;
    an infinite coupling or field rules rows out instead."""
    for (i, j), beta in zip(g.edges, g.betas):
        agree = xs[:, i] == xs[:, j]
        if math.isinf(beta):
            ruled_out |= ~agree
        else:
            yield agree, (_or_inf(math.exp, -beta), _or_inf(math.exp, beta)), (-beta, beta)
    for v, b in enumerate(g.field or ()):
        if b == 0.0:
            continue
        up = xs[:, v] == 1
        if math.isinf(b):
            ruled_out |= up != (b > 0)
        else:
            yield up, (1.0, _or_inf(math.exp, b)), (0.0, b)


def odd_rows(edges: Sequence[tuple[int, int]], ys: np.ndarray) -> np.ndarray:
    """Rows of an int8 0/1 edge matrix in which some node has odd open degree.

    Only nodes incident to an edge carry a parity column.
    """
    parity: dict[int, np.ndarray] = {}
    for e, (i, j) in enumerate(edges):
        column = ys[:, e]
        for v in (i, j):
            parity[v] = parity[v] ^ column if v in parity else column
    odd = np.zeros(len(ys), dtype=bool)
    for column in parity.values():
        np.logical_or(odd, column, out=odd)
    return odd


def subs_factors(g: WeightedGraph, ys: np.ndarray, ruled_out: np.ndarray) -> Iterator[tuple]:
    """lambda per open edge; rows with an odd-degree node are ruled out."""
    ruled_out |= odd_rows(g.edges, ys)
    for e, lam in enumerate(g.lambdas):
        yield ys[:, e], (1.0, lam), (0.0, _log(lam))


def rc_factors(g: WeightedGraph, zs: np.ndarray, ruled_out: np.ndarray) -> Iterator[tuple]:
    """p per open edge and exp(-2 beta) = 1 - p per closed edge, which no
    rounding of p zeroes; no row is ruled out, and the 2**clusters factor
    is the fold's, from the caller's cluster counts."""
    for e, (p, beta) in enumerate(zip(g.ps, g.betas)):
        yield zs[:, e], (math.exp(-2.0 * beta), p), (-2.0 * beta, _log(p))


def _linear_fold(g: WeightedGraph, world: str, matrix: np.ndarray, counts=None) -> np.ndarray:
    """The world's weight of every row; rc rows are scaled by 2**counts."""
    ruled_out = np.zeros(len(matrix), dtype=bool)
    acc = np.ones(len(matrix))
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as float arithmetic is
        for flags, values, _ in _WORLD_SPECS[world][1](g, matrix, ruled_out):
            acc *= _pick(flags, *values)
        if counts is not None:
            acc = np.ldexp(acc, counts)  # inf past float range, like _or_inf(math.ldexp, ...)
    acc[ruled_out] = 0.0
    return acc


def _log_fold(g: WeightedGraph, world: str, matrix: np.ndarray, counts=None) -> np.ndarray:
    """The world's log weight of every row; rc rows start at counts * log 2."""
    ruled_out = np.zeros(len(matrix), dtype=bool)
    total = np.zeros(len(matrix)) if counts is None else counts * math.log(2.0)
    for flags, _, values in _WORLD_SPECS[world][1](g, matrix, ruled_out):
        total += _pick(flags, *values)
    total[ruled_out] = -math.inf
    return total


def _pick(flags: np.ndarray, unset: float, set_: float) -> np.ndarray:
    """``set_`` where a bool or 0/1 int8 flag is set, else ``unset``: a
    gather, several times faster than ``np.where`` with scalar choices."""
    return np.array([unset, set_]).take(flags.view(np.int8))


def _one_row(fold: Callable[..., np.ndarray], g: WeightedGraph, world: str, config: Sequence[int]) -> float:
    """One configuration, once validated, folded as a one-row matrix; an
    rc row takes its cluster count from the union-find pass."""
    validate_config(g, world, config)
    counts = np.array([_union(g, config)[1]]) if world == "rc" else None
    return float(fold(g, world, np.array([config], dtype=np.int8), counts)[0])


def weight_spins(g: WeightedGraph, x: Sequence[int]) -> float:
    """Product of edge factors exp(beta * x_i * x_j) and the field's node
    factors.

    Infinite couplings contribute an agreement indicator instead.  A node
    with field value B contributes ``exp(B)`` when its spin is up and 1
    when it is down; ``B = +inf`` pins the spin up and ``B = -inf`` pins
    it down (those limits make the pinned factor exactly 1).  A graph
    without a field has no node factors.
    """
    return _one_row(_linear_fold, g, "spins", x)


def weight_spins_log(g: WeightedGraph, x: Sequence[int]) -> float:
    return _one_row(_log_fold, g, "spins", x)


def weight_subs(g: WeightedGraph, y: Sequence[int]) -> float:
    """Product of lambda over open edges if every node has even open
    degree, else 0."""
    return _one_row(_linear_fold, g, "subs", y)


def weight_subs_log(g: WeightedGraph, y: Sequence[int]) -> float:
    return _one_row(_log_fold, g, "subs", y)


def weight_rc(g: WeightedGraph, z: Sequence[int]) -> float:
    """Open/closed probability products times 2 to the number of clusters."""
    return _one_row(_linear_fold, g, "rc", z)


def weight_rc_log(g: WeightedGraph, z: Sequence[int]) -> float:
    return _one_row(_log_fold, g, "rc", z)


def _or_inf(fn: Callable[..., float], *args: float) -> float:
    """``fn(*args)``, or inf where it overflows float range."""
    try:
        return fn(*args)
    except OverflowError:
        return math.inf


def _log(value: float) -> float:
    return math.log(value) if value > 0.0 else -math.inf


# world -> (site values, factor function); spins sit on nodes, the edge
# worlds on edges
_WORLD_SPECS = {
    "spins": ((1, -1), spins_factors),
    "subs": ((0, 1), subs_factors),
    "rc": ((0, 1), rc_factors),
}


def _sites(g: WeightedGraph, world: str) -> int:
    return g.num_nodes if world == "spins" else g.num_edges


def _require_finite_log_weights(g: WeightedGraph) -> None:
    """Refuse a graph whose finite couplings and finite field magnitudes
    sum past float range: a spins log weight, a signed sum of them, could
    then overflow to inf, and the log-domain identities sum the couplings."""
    finite = [abs(v) for v in (*g.betas, *(g.field or ())) if math.isfinite(v)]
    try:
        math.fsum(finite)
    except OverflowError:
        raise InvalidParameterError("the finite couplings and field values sum past float range") from None


def _world_spec(g: WeightedGraph, world: str) -> tuple[int, tuple[int, int]]:
    """A world's sites and site values, once the world and its cap are
    checked."""
    if world == "spins":
        if g.num_nodes > SPINS_ENUM_NODE_CAP:
            raise CapExceededError(
                f"spins enumeration needs num_nodes <= {SPINS_ENUM_NODE_CAP}, got {g.num_nodes}"
            )
        _require_finite_log_weights(g)
    elif g.num_edges > EDGE_ENUM_CAP:
        raise CapExceededError(
            f"edge-world enumeration needs num_edges <= {EDGE_ENUM_CAP}, got {g.num_edges}"
        )
    if world not in _WORLD_SPECS:
        raise InvalidParameterError(f"unknown world {world!r}")
    return _sites(g, world), _WORLD_SPECS[world][0]


def enumerate_world(g: WeightedGraph, world: str) -> WorldTable:
    """Exhaustive weight table of one world, folded block by block into
    preallocated arrays.

    For the spins world, a graph carrying a field is enumerated with the
    field factors included; the edge worlds ignore the field.
    """
    sites, values = _world_spec(g, world)
    weights = np.empty(1 << sites)
    counts = np.empty(1 << sites, np.min_scalar_type(g.num_nodes)) if world == "rc" else None
    for part, block in _row_blocks(sites, values):
        if counts is not None:
            counts[part] = cluster_counts(g.num_nodes, g.edges, block)
        weights[part] = _linear_fold(g, world, block, None if counts is None else counts[part])
    return WorldTable(world, weights, g, counts)


@dataclass(frozen=True, eq=False)
class ExactTables:
    """The three world tables of one graph, plus the partition sums.

    Each world is enumerated the first time it is read and kept, so a
    check enumerates exactly the worlds it reads, each once, and a cap
    error comes with that first read.
    """

    graph: WeightedGraph
    # conversion name -> its KernelMatrix, filled by exact_kernel_matrix
    kernels: dict[str, KernelMatrix] = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def spins(self) -> WorldTable:
        return enumerate_world(self.graph, "spins")

    @cached_property
    def subs(self) -> WorldTable:
        return enumerate_world(self.graph, "subs")

    @cached_property
    def rc(self) -> WorldTable:
        return enumerate_world(self.graph, "rc")


def exact_tables(g: WeightedGraph) -> ExactTables:
    """The tables of all three worlds, enumerated now."""
    tables = ExactTables(g)
    tables.spins, tables.subs, tables.rc  # each first read enumerates its world
    return tables


def _own_tables(g: WeightedGraph, tables: ExactTables | None) -> ExactTables:
    """``tables`` once checked to belong to ``g``; None gives fresh
    tables, which enumerate only what is read."""
    if tables is None:
        return ExactTables(g)
    if tables.graph != g:
        raise InvalidParameterError("the tables passed belong to another graph")
    return tables


# ---------------------------------------------------------------------------
# Partition-function identities
# ---------------------------------------------------------------------------

# relative error below which a partition-sum identity passes; in the log
# domain the rounding of log Z may widen it (see _report)
IDENTITY_TOL = 1e-10
# max pointwise error below which a kernel is stationary
STATIONARITY_TOL = 1e-9


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
        return asdict(self)


def _log_cosh(beta: float) -> float:
    # cosh overflows past ~710; beta + log1p(exp(-2 beta)) - log 2 does not
    return beta + math.log1p(math.exp(-2.0 * beta)) - math.log(2.0)


def _report(name: str, lhs: float, rhs: float, log_domain: bool) -> IdentityReport:
    """Z_lhs against Z_rhs, given as Z or, in the log domain, as log Z.

    ``relative_error`` is |Z_lhs / Z_rhs - 1| either way.  The log domain
    gates on the gap in log Z, that error to first order, and allows the
    larger of ``IDENTITY_TOL`` and 8 ulps of the larger log Z, which is
    itself rounded to its ulp (coarser than ``IDENTITY_TOL`` past log Z
    of about 5e5).  Past about 4.5e15 an ulp of log Z is 1 or more, so a
    passing check's relative error may read large there.
    """
    if log_domain:
        gap = abs(lhs - rhs)
        rel = abs(math.expm1(lhs - rhs)) if gap < 700 else math.inf
        tol = max(IDENTITY_TOL, 8 * math.ulp(max(abs(lhs), abs(rhs))))
        return IdentityReport(name, lhs, rhs, rel, tol, gap < tol, log_domain)
    rel = abs(lhs - rhs) / lhs if lhs > 0 else math.inf
    return IdentityReport(name, lhs, rhs, rel, IDENTITY_TOL, rel < IDENTITY_TOL, log_domain)


def _identity(
    name: str, lhs: WorldTable, rhs: WorldTable, factor: float, log_terms: Sequence[float]
) -> IdentityReport:
    """Check ``Z_lhs = Z_rhs * factor``: in the linear domain while both
    sides are finite floats, else as ``log Z_lhs = log Z_rhs + a + b ...``
    over the ``log_terms`` of the factor, added left to right."""
    scaled = rhs.Z * factor
    if math.isfinite(lhs.Z) and math.isfinite(scaled):
        return _report(name, lhs.Z, scaled, False)
    log_rhs = rhs.log_Z
    for term in log_terms:
        log_rhs += term
    return _report(name, lhs.log_Z, log_rhs, True)


def check_relate_identity(g: WeightedGraph, tables: ExactTables | None = None) -> list[IdentityReport]:
    """Verify the two partition-sum bridges out of the spins world.

    ``Z_spins = Z_rc * prod(exp(beta))`` and
    ``Z_spins = Z_subs * 2**num_nodes * prod(cosh(beta))``.
    Requires finite couplings (the agreement-indicator convention for
    infinite couplings rescales Z_spins).  Each switches to log-domain
    sums when its linear products overflow.
    """
    if any(math.isinf(b) for b in g.betas):
        raise InvalidParameterError("relate identities need finite couplings")
    require_field_free(g)
    _require_finite_log_weights(g)
    tables = _own_tables(g, tables)
    sum_beta = math.fsum(g.betas)
    prod_cosh = math.prod(_or_inf(math.cosh, b) for b in g.betas)
    return [
        _identity("spins_vs_rc", tables.spins, tables.rc, _or_inf(math.exp, sum_beta), (sum_beta,)),
        _identity(
            "spins_vs_subs",
            tables.spins,
            tables.subs,
            _or_inf(math.ldexp, prod_cosh, g.num_nodes),
            (g.num_nodes * math.log(2.0), math.fsum(_log_cosh(b) for b in g.betas)),
        ),
    ]


def check_rc_normalizer(g: WeightedGraph, tables: ExactTables | None = None) -> IdentityReport:
    """Verify ``Z_rc = Z_subs * 2**(num_nodes - num_edges) * prod(1 + exp(-2 beta))``.

    Infinite couplings are fine here: their factor is exactly 1.
    """
    require_field_free(g)
    tables = _own_tables(g, tables)
    shift = g.num_nodes - g.num_edges
    factor = math.prod(1.0 + math.exp(-2.0 * b) for b in g.betas)
    return _identity(
        "rc_normalizer",
        tables.rc,
        tables.subs,
        _or_inf(math.ldexp, factor, shift),
        (shift * math.log(2.0), math.fsum(math.log1p(math.exp(-2.0 * b)) for b in g.betas)),
    )


# ---------------------------------------------------------------------------
# Exact kernel matrices
# ---------------------------------------------------------------------------

# conversion -> (source world, target world): the conversions into and
# out of the random-cluster world, named and ordered as in REDUCTIONS
KERNEL_SPECS = {f.__name__: pair for pair, f in REDUCTIONS.items() if "rc" in pair}
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

    Rows index the ``source`` table's support, columns the ``target``
    table's support; each row sums to one.  The tables are the ones the
    matrix was built from, so it keeps no configurations of its own.
    """

    kernel: str
    source: WorldTable
    target: WorldTable
    matrix: np.ndarray

    source_world = property(lambda self: self.source.world)
    target_world = property(lambda self: self.target.world)
    source_configs = property(lambda self: _support_tuples(self.source))
    target_configs = property(lambda self: _support_tuples(self.target))


def _support_tuples(table: WorldTable) -> tuple[tuple[int, ...], ...]:
    """The support rows of ``table`` as tuples, in row order."""
    return tuple(map(tuple, table.rows(table.support).tolist()))


class _PresetBits:
    """Stand-in stream for one run of a conversion: the j-th draw with
    0 < q < 1 returns bit j of ``outcome``, records q in ``qs`` and
    multiplies ``prob`` by the chance of that answer, so ``prob`` is the
    left-to-right product over the run's draws; q = 0 or 1 is answered
    without a draw."""

    def __init__(self, outcome: int) -> None:
        self.outcome, self.qs, self.prob = outcome, [], 1.0

    def bernoullis(self, qs: Sequence[float]) -> list[int]:
        outcome, drawn, out, prob = self.outcome, self.qs, [], self.prob
        for q in qs:
            if 0.0 < q < 1.0:
                bit = outcome >> len(drawn) & 1
                out.append(bit)
                drawn.append(q)
                prob *= q if bit else 1.0 - q
            elif q == 0.0 or q == 1.0:
                out.append(int(q))
            else:
                raise InvalidParameterError(f"Bernoulli parameter must lie in [0, 1], got {q}")
        self.prob = prob
        return out


def _convolve(g: WeightedGraph, kernel: str, tables: ExactTables) -> KernelMatrix:
    """Run the conversion once per outcome of its Bernoulli draws from each
    source support row, adding each output's probability to its column.

    Outcome b = 0, 1, 2, ... runs once, bit j of b answering draw j.  A
    run that makes d draws counts when b < 2^d; a larger b only repeats
    outcome b mod 2^d.  The runs stop at 2^D, D the most draws of any run
    so far.  That reaches every outcome even when how many draws a run
    makes depends on earlier answers: an outcome of more than D draws
    would have made the run of its first D bits, which is below 2^D,
    draw more than D times.
    """
    source_world, target_world = KERNEL_SPECS[kernel]
    source, target = getattr(tables, source_world), getattr(tables, target_world)
    convert = REDUCTIONS[(source_world, target_world)]
    source_configs = _support_tuples(source)
    column = {config: c for c, config in enumerate(_support_tuples(target))}
    matrix = np.zeros((len(source_configs), len(column)))
    for r, config in enumerate(source_configs):
        row = [0.0] * len(column)
        b = 0
        end = 1
        while b < end:
            rng = _PresetBits(b)
            c = column.get(convert(g, config, rng))
            drawn = len(rng.qs)
            end = max(end, 1 << drawn)
            if c is not None and not b >> drawn:
                row[c] += rng.prob
            b += 1
        matrix[r] = row
    matrix.flags.writeable = False
    return KernelMatrix(kernel, source, target, matrix)


def _require_kernel(g: WeightedGraph, kernel: str) -> None:
    """Reject an unknown kernel or a graph past the kernel caps, before
    any enumeration."""
    if kernel not in KERNEL_SPECS and kernel not in KERNEL_LEGS:
        raise InvalidParameterError(f"unknown kernel {kernel!r}")
    if g.num_edges > KERNEL_EDGE_CAP:
        raise CapExceededError(f"kernel matrices need num_edges <= {KERNEL_EDGE_CAP}")
    if g.num_nodes > KERNEL_NODE_CAP:
        raise CapExceededError(f"kernel matrices need num_nodes <= {KERNEL_NODE_CAP}")


def exact_kernel_matrix(g: WeightedGraph, kernel: str, tables: ExactTables | None = None) -> KernelMatrix:
    """Exact one-step transition probabilities of a conversion or chain kernel.

    A conversion's matrix runs ``REDUCTIONS[(source, target)]`` itself,
    over every outcome of its Bernoulli draws; it is built once per
    ``tables`` (which must belong to ``g``) and kept there, read-only.
    A composite is the product of its two legs' matrices.
    """
    _require_kernel(g, kernel)
    tables = _own_tables(g, tables)
    if kernel in KERNEL_LEGS:
        k1, k2 = (exact_kernel_matrix(g, leg, tables) for leg in KERNEL_LEGS[kernel])
        return KernelMatrix(kernel, k1.source, k2.target, k1.matrix @ k2.matrix)
    if kernel not in tables.kernels:
        tables.kernels[kernel] = _convolve(g, kernel, tables)
    return tables.kernels[kernel]


def kernel_stationarity_error(g: WeightedGraph, kernel: str, tables: ExactTables | None = None) -> float:
    """Max pointwise error of pushing the exact source law through a kernel.

    Zero (up to rounding) certifies that the kernel maps its source
    distribution onto the target distribution exactly.
    """
    km = exact_kernel_matrix(g, kernel, tables)
    source, target = km.source, km.target
    pushed = source.probs[source.support] @ km.matrix
    return float(np.max(np.abs(pushed - target.probs[target.support])))


# ---------------------------------------------------------------------------
# Sampling against tables
# ---------------------------------------------------------------------------

def inverse_cdf(table: WorldTable) -> Callable[[RngStream, int], list[tuple[int, ...]]]:
    """``sample(rng, n)``: n i.i.d. draws from an exact table by inverse CDF
    over all rows (a zero-probability row adds exactly 0.0, so it is never
    drawn), one uniform each.  The CDF is summed once, so successive calls
    on one stream give the draws of one call for their total count.  A
    table with no positive-weight configuration is an error at once."""
    if not 0.0 < table.Z < math.inf and len(table.support) == 0:
        raise InvalidConfigError(f"the {table.world} table has no configuration of positive weight")
    cum = np.cumsum(table.probs)
    last = np.searchsorted(cum, cum[-1])  # a u past the rounded total takes the last row that adds probability

    def sample(rng: RngStream, n: int) -> list[tuple[int, ...]]:
        us = array("d")
        rng.uniforms(_nonnegative_int(n, "the sample count"), us)
        # tuples only for the rows drawn, one per distinct row
        drawn, which = np.unique(np.minimum(np.searchsorted(cum, us, side="right"), last), return_inverse=True)
        configs = list(map(tuple, table.rows(drawn).tolist()))
        return [configs[k] for k in which]

    return sample


def sample_from_table(table: WorldTable, rng: RngStream, n: int) -> list[tuple[int, ...]]:
    """n i.i.d. draws from an exact table by :func:`inverse_cdf`; a table
    with no positive-weight configuration is an error, whatever n is."""
    return inverse_cdf(table)(rng, n)


def empirical_distribution(samples: Sequence[tuple[int, ...]], table: WorldTable) -> np.ndarray:
    """Histogram of samples aligned to a table's row order."""
    if len(samples) == 0:
        raise InvalidParameterError("an empirical distribution needs at least one sample")
    tally = Counter(map(tuple, samples))
    counts = np.zeros(len(table.weights))
    counts[table.index(list(tally))] = list(tally.values())
    return counts / len(samples)


def tv_distance(p: Sequence[float], q: Sequence[float]) -> float:
    """Total variation distance between two aligned distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise InvalidParameterError(f"mismatched support: {p.shape} vs {q.shape}")
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
        return {**asdict(self), "passed": self.passed}


def check_even_subgraph_count(g: WeightedGraph, z: Sequence[int]) -> EvenCountReport:
    """Count even-degree subgraphs dominated by ``z`` two ways.

    Brute-force enumeration over subsets of the open edges is compared
    with ``2 ** (open - num_nodes + clusters)``; both sides run on the
    tables' parity and cluster counts, the subsets a block at a time.
    """
    validate_config(g, "rc", z)
    open_edges = [edge for edge, ze in zip(g.edges, z) if ze]
    if len(open_edges) > EDGE_ENUM_CAP:
        raise CapExceededError(f"even-subgraph enumeration needs <= {EDGE_ENUM_CAP} open edges")
    count = 1 << len(open_edges)
    for _, subsets in _row_blocks(len(open_edges), (0, 1)):
        count -= int(np.count_nonzero(odd_rows(open_edges, subsets)))
    (parts,) = cluster_counts(g.num_nodes, open_edges, np.ones((1, len(open_edges)), np.int8))
    closed_form = 1 << (len(open_edges) - g.num_nodes + int(parts))
    return EvenCountReport(count, closed_form)
