"""Monotone coupling from the past: kernel, records, and exactness."""

import math
import random
import tracemalloc
from array import array
from collections import namedtuple
from itertools import product

import pytest

from isingworlds import (
    InvalidConfigError,
    InvalidParameterError,
    NoCoalescenceError,
    RngStream,
    WeightedGraph,
    cftp_rc_run,
    empirical_distribution,
    enumerate_world,
    exact_tables,
    heat_bath_rc_step,
    perfect_sample,
    perfect_subs_sample,
    rc_to_subs,
    tv_distance,
    weight_subs,
)
from conftest import joined_without_edge, random_graph
from isingworlds.cftp import MAX_EPOCH, PILOT, PILOTS, first_epoch
from isingworlds.fixtures import FIXTURE_NAMES, complete_graph, cycle_graph, fixture_graph, grid_graph, path_graph
from isingworlds.graph import golden_stride
from isingworlds.reductions import REDUCTIONS


def _opens_below(g, z, e, threshold):
    """The kernel opens e for every uniform below ``threshold`` and closes
    it from ``threshold`` on, checked at the two floats either side."""
    return (
        heat_bath_rc_step(g, z, e, math.nextafter(threshold, 0.0))[e] == 1
        and heat_bath_rc_step(g, z, e, threshold)[e] == 0
    )


class TestHeatBathKernel:
    def test_extreme_probabilities(self):
        g_inf = WeightedGraph.from_edges(2, [(0, 1, math.inf)])
        assert heat_bath_rc_step(g_inf, (0,), 0, 0.999)[0] == 1
        g_zero = WeightedGraph.from_edges(2, [(0, 1, 0.0)])
        assert heat_bath_rc_step(g_zero, (1,), 0, 0.0)[0] == 0

    def test_k2_half_probability(self):
        # p = 1/2 on a single edge: endpoints never connected elsewhere,
        # so the conditional open probability is (1/2)/(3/2) = 1/3 which
        # is also the exact stationary marginal
        g = WeightedGraph.from_edges(2, [(0, 1, 0.5)], param="p")
        p = g.ps[0]
        assert p / (2.0 - p) == pytest.approx(1 / 3)
        assert _opens_below(g, (0,), 0, p / (2.0 - p))
        assert _opens_below(g, (1,), 0, p / (2.0 - p))
        table = enumerate_world(g, "rc")
        assert table.probs[table.index([(1,)])[0]] == pytest.approx(1 / 3)

    def test_connected_case_uses_plain_p(self):
        g = fixture_graph("triangle", 0.5)
        p = g.ps[0]
        assert _opens_below(g, (1, 1, 1), 0, p)
        assert _opens_below(g, (0, 0, 0), 0, p / (2.0 - p))
        assert p / (2 - p) < p  # disconnected conditional is the smaller

    def test_edge_closed_before_the_query(self):
        # the step reads the rest of the graph only, so it gives the same
        # tuple whether the edge it updates is open or closed in z
        rnd = random.Random(3232)
        graphs = [random_graph(rnd, max_nodes=8, max_edges=14, extreme_share=0.2) for _ in range(60)]
        for g in graphs + [grid_graph(4, 4, 0.44), complete_graph(5, 0.3)]:
            for _ in range(4):
                z = [rnd.randint(0, 1) for _ in range(g.num_edges)]
                for e in range(g.num_edges):
                    u = rnd.random()
                    z[e] = 1
                    opened = heat_bath_rc_step(g, z, e, u)
                    z[e] = 0
                    assert heat_bath_rc_step(g, z, e, u) == opened

    def test_validates_inputs(self):
        g = fixture_graph("k2", 0.5)
        with pytest.raises(InvalidParameterError):
            heat_bath_rc_step(g, (0,), 5, 0.5)
        with pytest.raises(InvalidParameterError):
            heat_bath_rc_step(g, (0,), 0, 1.0)

    @pytest.mark.parametrize("edge, u", [(1.0, 0.5), (True, 0.5), (0, "x")])
    def test_edge_must_be_an_int_and_u_a_number(self, edge, u):
        # an edge index of 1.0 or True, or a u of "x", is refused, not
        # indexed with or compared
        with pytest.raises(InvalidParameterError):
            heat_bath_rc_step(fixture_graph("triangle", 0.5), (0, 0, 0), edge, u)

    def test_refuses_a_field(self):
        # as cftp_rc_run does: the kernel is stated for field-free models
        g = WeightedGraph.from_edges(3, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)], field={0: 0.3})
        with pytest.raises(InvalidConfigError, match="field"):
            heat_bath_rc_step(g, (1, 1, 0), 2, 0.5)
        with pytest.raises(InvalidConfigError, match="field"):
            cftp_rc_run(g, RngStream(0))

    @pytest.mark.parametrize("name", ["k2", "path3", "triangle", "cycle4", "k4"])
    def test_monotone_under_shared_updates(self, name):
        # exhaustive: ordered pairs z <= z', every edge, a grid of uniforms
        g = fixture_graph(name, 0.5)
        m = g.num_edges
        u_grid = [k / 10 + 0.001 for k in range(10)]
        for pair in product((0, 1, 2), repeat=m):  # 0: both closed, 1: only z' open, 2: both open
            lo = tuple(1 if v == 2 else 0 for v in pair)
            hi = tuple(1 if v >= 1 else 0 for v in pair)
            for e in range(m):
                for u in u_grid:
                    new_lo = heat_bath_rc_step(g, lo, e, u)
                    new_hi = heat_bath_rc_step(g, hi, e, u)
                    assert all(a <= b for a, b in zip(new_lo, new_hi))


class TestSchedule:
    def test_memory_per_record(self):
        # one typed array: 8 bytes a record plus its growth slack
        records = 1 << 16
        rng = RngStream(1)
        tracemalloc.start()
        try:
            uniforms = array("d")
            rng.uniforms(records, uniforms)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(uniforms) == records
        assert held <= 10 * records
        assert peak <= 10 * records

    def test_same_seed_same_run(self):
        g = fixture_graph("cycle4", 0.8)
        run_a = cftp_rc_run(g, RngStream(99))
        run_b = cftp_rc_run(g, RngStream(99))
        assert run_a == run_b


Reference = namedtuple("Reference", "config epoch steps")


def _without_queries(run):
    """A run's configuration, epoch and steps, which the reference gives."""
    return run.config, run.epoch, run.steps


def _reference_run(g, rng, max_epoch=24, first=0, stops=None):
    """Monotone CFTP with the unbanded heat-bath rule on both chains at
    every step, connectivity from whole-graph component labels, and the
    uniform of step -t drawn by a scalar call as the t-th record; step -t
    is sweep position k = (-t) mod s, which updates free edge k * a mod s
    of the s free edges, a the integer nearest 0.618 s made coprime to s.

    No epoch below ``first`` or shorter than a sweep is run or drawn, and
    a run stops at a step of the last sweep (t <= s, the edge's last
    update) that leaves the chains apart on its edge; steps are counted
    under that rule, and the t of each such stop is appended to ``stops``."""
    free = tuple(e for e, p in enumerate(g.ps) if 0.0 < p < 1.0)
    base = [1 if p >= 1.0 else 0 for p in g.ps]
    if not free:
        return Reference(tuple(base), 0, 0)
    s = len(free)
    a = max(1, round(s * 0.6180339887))
    while math.gcd(a, s) > 1:
        a += 1
    records = []
    steps = 0
    for epoch in range(max_epoch + 1):
        if 1 << epoch < s or epoch < first:
            continue
        while len(records) < 1 << epoch:
            records.append(rng.uniform())
        top = [1 if e in free else v for e, v in enumerate(base)]
        bot = list(base)
        for t in range(1 << epoch, 0, -1):
            edge, u = free[-t % s * a % s], records[t - 1]
            p = g.ps[edge]
            for z in (top, bot):
                z[edge] = 1 if u < (p if joined_without_edge(g, z, edge) else p / (2 - p)) else 0
            steps += 1
            if t <= s and top[edge] != bot[edge]:
                if stops is not None:
                    stops.append(t)
                break
        if top == bot:
            return Reference(tuple(top), epoch, steps)
    raise NoCoalescenceError("reference run did not coalesce")


class TestBitIdentity:
    """The banded kernel, the sandwich shortcut and the two-sided search
    change no sample and no draw: from the graph's first epoch, the run is
    the reference's in configuration, epoch, steps and draws."""

    def _assert_same(self, g, seed, stream):
        rng, ref_rng = RngStream(seed, stream), RngStream(seed, stream)
        assert _without_queries(cftp_rc_run(g, rng)) == _reference_run(g, ref_rng, 24, first_epoch(g))
        assert rng.draws == ref_rng.draws

    def test_random_graphs_with_pinned_edges(self):
        rnd = random.Random(404)
        for k in range(50):
            g = random_graph(rnd, max_nodes=7, max_edges=12, extreme_share=0.3)
            self._assert_same(g, 41, k)

    @pytest.mark.parametrize("beta", [0.3, 0.44, 0.8])
    def test_grid(self, beta):
        g = grid_graph(6, 6, beta)
        for k in range(3):
            self._assert_same(g, 17, k)

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 8, 9, 16, 17])
    def test_sweep_boundaries(self, s):
        # from a sweep's epoch and from one above it; for s of 3, 5, 9 and
        # 17 no horizon is a whole number of sweeps, so each epoch starts
        # with a partial sweep.  A failing epoch stops in its last sweep:
        # at its first step (t = s) when that edge's page partner is still
        # apart, or as late as t = 2, never at t = 1, when every other free
        # edge has had its last update and both chains ask one question
        lowest = _sweep_epoch(_book(s, False))
        for from_end, stop in ((False, s), (True, 2)):
            g = _book(s, from_end)
            assert len(g.sweep_order) == s and g.num_edges == s + 2
            stops = []
            for k in range(1000):
                for first in (lowest, lowest + 1):
                    rng, ref_rng = RngStream(71, (s, k)), RngStream(71, (s, k))
                    run = cftp_rc_run(g, rng, 24, _first=first)
                    assert _without_queries(run) == _reference_run(g, ref_rng, 24, first, stops)
                    assert rng.draws == ref_rng.draws
                if k >= 40 and (s == 1 or stop in stops):
                    break
            assert 1 not in stops
            assert s == 1 or stop in stops  # one free edge is never left apart


class TestQueries:
    """``CftpRun.queries`` is the number of connectivity queries the run
    asked, in both chains and over all its epochs."""

    def test_counts_every_call_of_the_query(self, monkeypatch):
        from isingworlds import cftp

        rnd = random.Random(1717)
        graphs = [fixture_graph(name, 0.5) for name in FIXTURE_NAMES]
        graphs += [random_graph(rnd, max_nodes=7, max_edges=12, extreme_share=0.3) for _ in range(50)]
        graphs.append(grid_graph(8, 8, 0.44))
        for g in graphs:
            first_epoch(g)  # the pilot runs ask queries of their own
        calls = []
        real = cftp._connected

        def counting(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(cftp, "_connected", counting)
        for k, g in enumerate(graphs):
            for seed in range(3):
                before = len(calls)
                assert cftp_rc_run(g, RngStream(seed, k)).queries == len(calls) - before, (k, seed)
        assert len(calls) > 400


def _book(s, from_end):
    """A spine (0, 1) pinned open, a pinned-closed edge, and s free edges
    in pages: each page node v takes (0, v) and (1, v), which close a
    triangle with the spine.  Sweep positions 2m and 2m + 1 share a page,
    counted from a sweep's first position, or from its last if
    ``from_end``; an odd s leaves one page with one edge.  So a step
    can leave the chains apart only while its partner is apart."""
    a = golden_stride(s)
    position = {k * a % s: k for k in range(s)}  # free edge f is updated at sweep position k
    pages = (s + 1) // 2
    edges = [(0, 1, math.inf)]
    for f in range(s):
        k = s - 1 - position[f] if from_end else position[f]
        edges.append((k % 2, 2 + k // 2, 0.44))
    edges.append((0, 2 + pages, 0.0))
    return WeightedGraph.from_edges(3 + pages, edges)


def _sweep_epoch(g):
    """The smallest epoch whose horizon covers a sweep of the free edges."""
    return (len(g.sweep_order) - 1).bit_length()


class TestFirstEpoch:
    """A ladder that starts at epoch F stops at max(E, F), E the epoch of
    the ladder from a sweep's epoch, with E's configuration: every horizon
    past coalescence gives the same state at time 0 (Propp & Wilson)."""

    def _assert_lifted(self, g, seed, stream):
        ref = _reference_run(g, RngStream(seed, stream))
        # the graph's first epoch, and one past E (a run with no free edge draws nothing)
        for first in (None, ref.epoch + 1) if ref.steps else (None,):
            rng = RngStream(seed, stream)
            run = cftp_rc_run(g, rng, 24, first)
            assert run.config == ref.config
            assert run.epoch == max(ref.epoch, first_epoch(g) if first is None else first)
            assert rng.draws == (2**run.epoch if run.steps else 0)

    def test_random_graphs_with_pinned_edges(self):
        rnd = random.Random(406)
        for k in range(50):
            g = random_graph(rnd, max_nodes=7, max_edges=12, extreme_share=0.3)
            self._assert_lifted(g, 47, k)

    @pytest.mark.parametrize("side", [6, 8])
    @pytest.mark.parametrize("beta", [0.3, 0.44, 0.8])
    def test_grid(self, side, beta):
        g = grid_graph(side, side, beta)
        assert first_epoch(g) > _sweep_epoch(g)  # the pilots lift the start on these grids
        for k in range(4):
            self._assert_lifted(g, 29, k)

    def test_tiny_fixtures_start_at_a_sweep(self):
        # the pilots choose a sweep's epoch on the small_replicates graphs,
        # so their runs are those of a ladder with no pilot
        for build, k in ((complete_graph, 3), (cycle_graph, 4)):
            for lam in (0.3, 0.6, 0.9):
                g = build(k, math.atanh(lam))
                assert first_epoch(g) == _sweep_epoch(g)
        g = fixture_graph("grid3x3")
        assert first_epoch(g) == _sweep_epoch(g)

    def test_budget_clamp(self):
        # below the pilots' choice the budget is the first epoch; the run
        # then coalesces exactly where the ladder from a sweep's epoch does
        free = first_epoch(grid_graph(8, 8, 0.44))
        lowest = _sweep_epoch(grid_graph(8, 8, 0.44))
        assert free > lowest
        for budget in range(lowest, free + 2):
            g = grid_graph(8, 8, 0.44)
            assert first_epoch(g, budget) == min(free, budget)
            for k in range(3):
                rng, ref_rng = RngStream(31, k), RngStream(31, k)
                try:
                    ref = _reference_run(g, ref_rng, budget)
                except NoCoalescenceError:
                    with pytest.raises(NoCoalescenceError):
                        cftp_rc_run(g, rng, budget)
                else:
                    assert cftp_rc_run(g, rng, budget).config == ref.config

    def test_pilots_run_once_per_graph_and_budget(self, monkeypatch):
        from isingworlds import cftp

        pilots = []
        real = cftp.cftp_rc_run

        def counting(g, rng, *args, **kwargs):
            if rng.stream[:1] == (PILOT,):
                pilots.append(id(g))
            return real(g, rng, *args, **kwargs)

        monkeypatch.setattr(cftp, "cftp_rc_run", counting)
        g = grid_graph(6, 6, 0.44)
        for i in range(3):
            perfect_sample(g, "subs", RngStream(5, i))
        assert len(pilots) == PILOTS
        perfect_sample(g, "subs", RngStream(5, 3), 20)
        assert len(pilots) == 2 * PILOTS
        perfect_sample(grid_graph(6, 6, 0.44), "subs", RngStream(5, 4))
        assert len(pilots) == 3 * PILOTS

    def test_same_first_epoch_on_a_fresh_graph(self):
        # nothing that ran before, on this graph or another, moves it
        before = first_epoch(grid_graph(8, 8, 0.44))
        random.seed(7)
        for g in (grid_graph(8, 8, 0.44), grid_graph(6, 6, 0.8)):
            first_epoch(g, 8)
            cftp_rc_run(g, RngStream(0, (PILOT, 0)))
            perfect_sample(g, "spins", RngStream(9))
        assert first_epoch(grid_graph(8, 8, 0.44)) == before

    def test_no_free_edge_starts_at_zero(self):
        assert first_epoch(WeightedGraph.from_edges(3, [(0, 1, math.inf), (1, 2, 0.0)])) == 0


class TestCftpSampling:
    def test_edgeless_graph_immediate(self):
        g = WeightedGraph(3, (), ())
        run = cftp_rc_run(g, RngStream(0))
        assert run.config == () and run.epoch == 0 and run.steps == 0

    def test_all_zero_couplings_immediate(self):
        g = complete_graph(3, 0.0)
        run = cftp_rc_run(g, RngStream(0))
        assert run.config == (0, 0, 0) and run.steps == 0

    def test_pinned_edges_respected(self):
        g = WeightedGraph.from_edges(3, [(0, 1, math.inf), (1, 2, 0.0)])
        z = cftp_rc_run(g, RngStream(1)).config
        assert z == (1, 0)

    def test_no_coalescence_error(self):
        # one step cannot touch all three free edges of the triangle
        g = fixture_graph("triangle", 0.5)
        with pytest.raises(NoCoalescenceError):
            cftp_rc_run(g, RngStream(3), max_epoch=0)

    def test_budget_below_a_sweep_draws_nothing(self):
        # two steps cannot sweep the triangle's three free edges: the run
        # fails before any draw and names the smallest budget that can
        g = fixture_graph("triangle", 0.5)
        rng = RngStream(3)
        with pytest.raises(NoCoalescenceError, match="at least 2"):
            cftp_rc_run(g, rng, max_epoch=1)
        assert rng.draws == 0

    def test_one_draw_per_record(self):
        rnd = random.Random(405)
        for k in range(20):
            g = random_graph(rnd, max_nodes=7, max_edges=12, extreme_share=0.3)
            rng = RngStream(43, k)
            run = cftp_rc_run(g, rng)
            assert rng.draws == (2**run.epoch if run.steps else 0)

    def test_uncovered_epochs_are_not_run(self):
        # 60 free edges: no horizon below 64 updates them all, so epochs 0-5
        # (63 steps) are skipped out of the 2**(epoch + 1) - 1 of every epoch
        g = grid_graph(6, 6, 0.44)
        for k in range(5):
            run = cftp_rc_run(g, RngStream(23, k))
            assert run.epoch >= 6
            assert 2**run.epoch <= run.steps <= 2 ** (run.epoch + 1) - 1 - 63

    @pytest.mark.parametrize("max_epoch", [-1, MAX_EPOCH + 1, 40])
    def test_epoch_budget_bounded(self, max_epoch):
        rng = RngStream(0)
        with pytest.raises(InvalidParameterError):
            cftp_rc_run(fixture_graph("triangle", 0.5), rng, max_epoch)
        assert rng.draws == 0

    @pytest.mark.parametrize("max_epoch", [True, 2.5, "3", None])
    def test_epoch_budget_is_an_integer(self, max_epoch):
        rng = RngStream(0)
        with pytest.raises(InvalidParameterError):
            cftp_rc_run(fixture_graph("triangle", 0.5), rng, max_epoch)
        assert rng.draws == 0

    def test_largest_epoch_budget_accepted(self):
        # the triangle coalesces long before the budget is reached
        run = cftp_rc_run(fixture_graph("triangle", 0.5), RngStream(3), MAX_EPOCH)
        assert run.epoch < 8

    def test_k2_half_marginal(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 0.5)], param="p")
        n = 20000
        opened = sum(cftp_rc_run(g, RngStream(500, i)).config[0] for i in range(n))
        se = math.sqrt((1 / 3) * (2 / 3) / n)
        assert abs(opened / n - 1 / 3) < 3.5 * se

    def test_sweeps_cut_by_horizons_are_exact(self):
        # five free edges next to a pinned-open and a pinned-closed edge:
        # no horizon is a whole number of sweeps, so every epoch starts
        # mid-sweep.  Threshold: Weissman et al. (2003) at delta = 0.001
        # over the two checks, from the count n and each table's support.
        g = WeightedGraph.from_edges(5, [(0, 1, 0.6), (1, 2, 0.5), (2, 0, 0.7), (2, 3, math.inf),
                                         (3, 4, 0.4), (4, 2, 0.8), (0, 4, 0.0)])
        assert sum(0.0 < p < 1.0 for p in g.ps) == 5
        tables = exact_tables(g)
        n, delta = 40000, 0.001
        rc, subs = [], []
        for i in range(n):
            rng = RngStream(1212, i)
            rc.append(cftp_rc_run(g, rng).config)
            subs.append(rc_to_subs(g, rc[-1], rng))
        for samples, table in ((rc, tables.rc), (subs, tables.subs)):
            support = int((table.probs > 0.0).sum())
            threshold = math.sqrt(math.log((2.0**support - 2.0) * 2 / delta) / (2 * n))
            assert tv_distance(empirical_distribution(samples, table), table.probs) < threshold

    def test_triangle_tv_against_table(self):
        g = fixture_graph("triangle", 0.7)
        table = enumerate_world(g, "rc")
        samples = [cftp_rc_run(g, RngStream(808, i)).config for i in range(20000)]
        assert tv_distance(empirical_distribution(samples, table), table.probs) < 0.02


class TestPerfectSubs:
    def test_tree_always_empty(self):
        g = path_graph(4, 1.1)
        for i in range(20):
            assert perfect_subs_sample(g, RngStream(7, i)) == (0, 0, 0)

    def test_zero_couplings_empty(self):
        g = complete_graph(3, 0.0)
        assert perfect_subs_sample(g, RngStream(0)) == (0, 0, 0)

    def test_outputs_have_positive_weight(self):
        g = fixture_graph("cycle4", 0.9)
        for i in range(50):
            y = perfect_subs_sample(g, RngStream(31, i))
            assert weight_subs(g, y) > 0.0

    def test_triangle_full_share(self):
        lam = 0.6
        g = fixture_graph("triangle", math.atanh(lam))
        target = lam**3 / (1 + lam**3)
        n = 20000
        hits = sum(
            1 for i in range(n) if perfect_subs_sample(g, RngStream(112, i)) == (1, 1, 1)
        )
        se = math.sqrt(target * (1 - target) / n)
        assert abs(hits / n - target) < 3.5 * se


PERFECT_GRAPHS = {
    "grid3x3": fixture_graph("grid3x3"),
    "cycle4 with 0 and inf": fixture_graph("cycle4", [0.0, 0.4, 1.0, math.inf]),
    "triangle and 3 isolated nodes": WeightedGraph(6, ((0, 1), (0, 2), (1, 2)), (0.5, 0.7, 0.9)),
}


class TestPerfectSample:
    """A perfect sample is a coalesced run followed by the conversion out
    of the random-cluster world, on the same stream."""

    @pytest.mark.parametrize("world", ["rc", "subs", "spins"])
    @pytest.mark.parametrize("name", sorted(PERFECT_GRAPHS))
    def test_run_then_conversion(self, name, world):
        g = PERFECT_GRAPHS[name]
        for i in range(10):
            rng, twin = RngStream(53, i), RngStream(53, i)
            config, run = perfect_sample(g, world, rng)
            expected = cftp_rc_run(g, twin)
            converted = expected.config
            if world != "rc":
                converted = REDUCTIONS[("rc", world)](g, converted, twin)
            assert (config, run, rng.draws) == (converted, expected, twin.draws)

    def test_subs_sample_is_the_subs_world_case(self):
        g = fixture_graph("cycle4", 0.9)
        for i in range(20):
            assert perfect_subs_sample(g, RngStream(61, i)) == perfect_sample(g, "subs", RngStream(61, i))[0]

    def test_budget_reaches_the_run(self):
        rng = RngStream(3)
        with pytest.raises(NoCoalescenceError, match="must be at least 2"):
            perfect_sample(fixture_graph("triangle"), "spins", rng, 1)
        assert rng.draws == 0

    def test_unknown_world_fails_before_any_draw(self):
        rng = RngStream(3)
        with pytest.raises(InvalidParameterError, match="unknown world"):
            perfect_sample(fixture_graph("triangle"), "sub", rng)
        assert rng.draws == 0
