"""Brute-force exact computation on small graphs.

Everything here exists to pin down the sampling code against ground
truth: full weight tables and partition sums per world, the
partition-function identities linking the worlds, exact one-step
transition matrices, and the closed-form even-subgraph count.

The oracle has one numeric domain, the log domain, at every beta.
Each world states its unnormalized log weight once, as the factors its
factor function yields over an int8 block of configurations (one row per
configuration), each factor carrying one pair of log values; one fold
evaluates every world.  The scalar ``weight_*`` functions validate one
configuration, fold it as a one-row matrix and exponentiate.  The spins
weight includes the field's node factors when the graph carries one;
the random-cluster fold takes each row's cluster count from its caller,
which for the scalar rc weight is the union-find pass of
``worlds._union`` and for a table its own min-label counts (below).  The
weights live here, not in :mod:`worlds`, because the oracle is their
only production user: the samplers never import numpy.  Nor does
importing this module: ``np`` starts as a stand-in that imports numpy
at the oracle's first use of it, so an oracle name imported from the
package loads no numpy either; the oracle's first call does.

Tables store log weights, not configurations.  Row r of a table is the
binary expansion of r over the world's sites (``itertools.product``
order), so a table keeps only its log weights, 8 bytes a row.  Tables
are read by row index: ``rows`` rebuilds the configurations at any
indices and ``index`` maps configurations back to theirs, so a draw, a
histogram or a kernel matrix addresses rows without a tuple or a dict
entry per row.  Whole tables are built in blocks of ``BLOCK_ROWS``,
column by column, both to fold the log weights at enumeration and to
read every configuration; every per-row float operation is the same
whatever the block size, so the values are too.  A random-cluster block
takes its cluster counts, which feed its fold and are not kept, from
min-label propagation on the edge-incident nodes only, which is
deliberately independent of the traversals the samplers use (the
union-find pass of ``worlds._union`` and the forest of
``worlds._open_forest``): an oracle sharing that code would share its
faults.  Parity work likewise covers only edge-incident nodes, so a
graph with a few edges and many isolated nodes costs no more than its
edges.  Probabilities are the log weights less the largest of them,
exponentiated and normalised, so they never depend on the rounding of
log Z.

``ExactTables`` enumerates each world the first time it is read, so an
identity check or kernel matrix enumerates only the worlds it reads,
each once; ``exact_tables`` reads all three at once.  The three
partition-sum identities are one statement,
``log Z_A = log Z_B + log factor``, checked by one routine.  A spins
table, and the identities that read one, refuse a graph whose finite
couplings and field values sum past float range, where a log weight
could overflow.

Kernel matrices, by contrast, run the production code on purpose: each
conversion in ``reductions.REDUCTIONS`` runs once per outcome of its
Bernoulli draws, so a stationarity check tests the code that samples.
Its source rows are support rows, which pass the conversion's guard by
construction, so they go straight to its body, as every hop whose input
the library built does (:mod:`reductions`).

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

from .caps import CAPS, EDGE_ENUM_CAP, KERNEL_EDGE_CAP, KERNEL_NODE_CAP, SPINS_ENUM_NODE_CAP
from .errors import CapExceededError, InvalidConfigError, InvalidParameterError
from .graph import WeightedGraph, _require_finite_log_weights, require_field_free
from .reductions import _BODIES, REDUCTIONS
from .rng import RngStream, _nonnegative_int
from .worlds import _union, validate_config


class _Numpy:
    """``np`` until its first attribute read, which imports numpy and
    rebinds ``np`` to it.  That holds only while nothing here reads
    ``np`` at import time (the annotations are strings)."""

    def __getattr__(self, name: str):
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _Numpy()


@dataclass(frozen=True, eq=False)
class WorldTable:
    """Exhaustive weight table for one world, read by row index.

    Configurations are listed in lexicographic order of their serialized
    bit/sign strings, which keeps golden outputs stable; row r is the
    binary expansion of r, so only the log weights are stored.  ``rows``
    maps row indices to configurations and ``index`` maps configurations
    back; ``configs`` is every row as a tuple.
    """

    world: str
    log_weights: np.ndarray
    graph: WeightedGraph

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
    def log_Z(self) -> float:
        """The largest log weight plus the log of the sum of the scaled
        weights; -inf when no row has positive weight.

        The scaled weights are summed a chunk at a time, then the chunk
        sums in adjacent pairs, level by level.  A table has 2**k rows and
        a chunk a power of two of them, and numpy sums 2**k values by
        halving them down to 128-value leaves, so this is numpy's own
        order, bit for bit, without a scaled copy of the table."""
        lw = self.log_weights
        top = float(lw.max())
        if top == -math.inf:
            return top
        chunk = 1 << (BLOCK_ROWS.bit_length() - 1)
        sums = [float(_scaled(lw[start:start + chunk], top).sum()) for start in range(0, len(lw), chunk)]
        while len(sums) > 1:
            sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
        return top + math.log(sums[0])

    @cached_property
    def probs(self) -> np.ndarray:
        """The scaled weights normalised, in place: ``log_Z`` is rounded to
        its own ulp, which past about 1e13 would skew every probability."""
        probs = _scaled(self.log_weights, self.log_weights.max())
        probs /= probs.sum()
        return probs

    @cached_property
    def support(self) -> np.ndarray:
        """Indices of the rows of finite log weight, also where the
        probability underflows."""
        return np.flatnonzero(self.log_weights > -math.inf)


# rows a table builds and folds at a time: enumeration and every reader
# hold one block of configurations at once, never the whole table
BLOCK_ROWS = 1 << 14


def _scaled(log_weights: np.ndarray, top: float) -> np.ndarray:
    """Each weight divided by exp(top), as one new array: a log ratio
    past float range is -inf, whose exp is the 0 it stands for."""
    with np.errstate(over="ignore"):
        scaled = log_weights - top
    return np.exp(scaled, out=scaled)


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

# Each world states its log weight once, as its factors over a
# configuration matrix (one row per configuration, one column per node
# for spins or per edge): a factor is a flag column (bool or 0/1 int8)
# with its (unset, set) pair of log values.  A world's factor function
# yields them in node/edge order and marks the rows a hard constraint
# rules out in the mask it is given.  The fold below adds the factors
# with the float operations of the plain loop, one column at a time, and
# sets ruled-out rows at the end, so an inf - inf on the way never leaks
# a NaN into them.

def spins_factors(g: WeightedGraph, xs: np.ndarray, ruled_out: np.ndarray) -> Iterator[tuple]:
    """Edge factors exp(beta * x_i * x_j), then the field's node factors;
    an infinite coupling or field rules rows out instead."""
    for (i, j), beta in zip(g.edges, g.betas):
        agree = xs[:, i] == xs[:, j]
        if math.isinf(beta):
            ruled_out |= ~agree
        else:
            yield agree, (-beta, beta)
    for v, b in enumerate(g.field or ()):
        if b == 0.0:
            continue
        up = xs[:, v] == 1
        if math.isinf(b):
            ruled_out |= up != (b > 0)
        else:
            yield up, (0.0, b)


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
        yield ys[:, e], (0.0, _log(lam))


def rc_factors(g: WeightedGraph, zs: np.ndarray, ruled_out: np.ndarray) -> Iterator[tuple]:
    """log p per open edge and -2 beta = log(1 - p) per closed edge, which
    no rounding of p moves; no row is ruled out, and the clusters * log 2
    term is the fold's, from the caller's cluster counts."""
    for e, (p, beta) in enumerate(zip(g.ps, g.betas)):
        yield zs[:, e], (-2.0 * beta, _log(p))


def _log_fold(g: WeightedGraph, world: str, matrix: np.ndarray, counts=None) -> np.ndarray:
    """The world's log weight of every row; rc rows start at counts * log 2."""
    ruled_out = np.zeros(len(matrix), dtype=bool)
    total = np.zeros(len(matrix)) if counts is None else counts * math.log(2.0)
    for flags, values in _WORLD_SPECS[world][1](g, matrix, ruled_out):
        total += _pick(flags, *values)
    total[ruled_out] = -math.inf
    return total


def _pick(flags: np.ndarray, unset: float, set_: float) -> np.ndarray:
    """``set_`` where a bool or 0/1 int8 flag is set, else ``unset``: a
    gather, several times faster than ``np.where`` with scalar choices."""
    return np.array([unset, set_]).take(flags.view(np.int8))


def _one_row(g: WeightedGraph, world: str, config: Sequence[int]) -> float:
    """The log weight of one configuration, once validated, folded as a
    one-row matrix; an rc row takes its cluster count from the union-find
    pass."""
    validate_config(g, world, config)
    counts = np.array([_union(g, config)[1]]) if world == "rc" else None
    return float(_log_fold(g, world, np.array([config], dtype=np.int8), counts)[0])


def weight_subs(g: WeightedGraph, y: Sequence[int]) -> float:
    """Product of lambda over open edges if every node has even open
    degree, else 0; inf past float range."""
    return _or_inf(math.exp, _one_row(g, "subs", y))


def weight_rc(g: WeightedGraph, z: Sequence[int]) -> float:
    """Open/closed probability products times 2 to the number of clusters;
    inf past float range."""
    return _or_inf(math.exp, _one_row(g, "rc", z))


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
    """Exhaustive log weight table of one world, folded block by block
    into one preallocated array.

    For the spins world, a graph carrying a field is enumerated with the
    field factors included; the edge worlds ignore the field.
    """
    sites, values = _world_spec(g, world)
    log_weights = np.empty(1 << sites)
    for part, block in _row_blocks(sites, values):
        counts = cluster_counts(g.num_nodes, g.edges, block) if world == "rc" else None
        log_weights[part] = _log_fold(g, world, block, counts)
    return WorldTable(world, log_weights, g)


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

# gap in log Z, to first order the relative error in Z, below which a
# partition-sum identity passes; the rounding of log Z may widen it (see
# _identity)
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

    def as_dict(self) -> dict:
        return asdict(self)


def _log_cosh(beta: float) -> float:
    # cosh overflows past ~710; beta + log1p(exp(-2 beta)) - log 2 does not
    return beta + math.log1p(math.exp(-2.0 * beta)) - math.log(2.0)


def _identity(name: str, lhs: WorldTable, rhs: WorldTable, log_terms: Sequence[float]) -> IdentityReport:
    """Check ``log Z_lhs = log Z_rhs + a + b ...`` over the ``log_terms``
    of the factor, added left to right.

    ``relative_error`` is |Z_lhs / Z_rhs - 1|.  The check gates on the gap
    in log Z, that error to first order, and allows the larger of
    ``IDENTITY_TOL`` and 8 ulps of the larger log Z, which is itself
    rounded to its ulp (coarser than ``IDENTITY_TOL`` past log Z of about
    5e5).  Past about 4.5e15 an ulp of log Z is 1 or more, so a passing
    check's relative error may read large there.
    """
    left, right = lhs.log_Z, rhs.log_Z
    for term in log_terms:
        right += term
    gap = abs(left - right)
    rel = abs(math.expm1(left - right)) if gap < 700 else math.inf
    tol = max(IDENTITY_TOL, 8 * math.ulp(max(abs(left), abs(right))))
    return IdentityReport(name, left, right, rel, tol, gap < tol)


def check_relate_identity(g: WeightedGraph, tables: ExactTables | None = None) -> list[IdentityReport]:
    """Verify the two partition-sum bridges out of the spins world.

    ``Z_spins = Z_rc * prod(exp(beta))`` and
    ``Z_spins = Z_subs * 2**num_nodes * prod(cosh(beta))``.
    Requires finite couplings (the agreement-indicator convention for
    infinite couplings rescales Z_spins).  Both are checked as sums of
    logs.
    """
    if any(math.isinf(b) for b in g.betas):
        raise InvalidParameterError("relate identities need finite couplings")
    require_field_free(g)
    _require_finite_log_weights(g)
    tables = _own_tables(g, tables)
    return [
        _identity("spins_vs_rc", tables.spins, tables.rc, (math.fsum(g.betas),)),
        _identity(
            "spins_vs_subs",
            tables.spins,
            tables.subs,
            (g.num_nodes * math.log(2.0), math.fsum(_log_cosh(b) for b in g.betas)),
        ),
    ]


def check_rc_normalizer(g: WeightedGraph, tables: ExactTables | None = None) -> IdentityReport:
    """Verify ``Z_rc = Z_subs * 2**(num_nodes - num_edges) * prod(1 + exp(-2 beta))``.

    Infinite couplings are fine here: their factor is exactly 1.
    """
    require_field_free(g)
    tables = _own_tables(g, tables)
    return _identity(
        "rc_normalizer",
        tables.rc,
        tables.subs,
        ((g.num_nodes - g.num_edges) * math.log(2.0), math.fsum(math.log1p(math.exp(-2.0 * b)) for b in g.betas)),
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
    # support rows have positive weight, so a library conversion runs
    # without its guard; any other function put in REDUCTIONS runs as it is
    convert = _BODIES.get(convert, convert)
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
    """Reject an unknown kernel, a graph past the kernel caps or one with
    a field, before any enumeration."""
    if kernel not in KERNEL_SPECS and kernel not in KERNEL_LEGS:
        raise InvalidParameterError(f"unknown kernel {kernel!r}")
    if g.num_edges > KERNEL_EDGE_CAP:
        raise CapExceededError(f"kernel matrices need num_edges <= {KERNEL_EDGE_CAP}")
    if g.num_nodes > KERNEL_NODE_CAP:
        raise CapExceededError(f"kernel matrices need num_nodes <= {KERNEL_NODE_CAP}")
    require_field_free(g)  # the conversions' guard, which their matrices skip


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
    if table.log_Z == -math.inf:
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


def empirical_distribution(samples: Sequence[tuple[int, ...]], table: WorldTable) -> np.ndarray:
    """Histogram of samples aligned to a table's row order."""
    if len(samples) == 0:
        raise InvalidParameterError("an empirical distribution needs at least one sample")
    tally = Counter(map(tuple, samples))
    counts = np.zeros(len(table.log_weights))
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
