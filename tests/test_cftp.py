"""Monotone coupling from the past: kernel, records, and exactness."""

import math
import random
import tracemalloc
from array import array
from itertools import product

import pytest

from isingworlds import (
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
from isingworlds.cftp import MAX_EPOCH, CftpRun
from isingworlds.fixtures import complete_graph, fixture_graph, grid_graph, path_graph
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
        assert table.probs[table.config_index[(1,)]] == pytest.approx(1 / 3)

    def test_connected_case_uses_plain_p(self):
        g = fixture_graph("triangle", 0.5)
        p = g.ps[0]
        assert _opens_below(g, (1, 1, 1), 0, p)
        assert _opens_below(g, (0, 0, 0), 0, p / (2.0 - p))
        assert p / (2 - p) < p  # disconnected conditional is the smaller

    def test_validates_inputs(self):
        g = fixture_graph("k2", 0.5)
        with pytest.raises(InvalidParameterError):
            heat_bath_rc_step(g, (0,), 5, 0.5)
        with pytest.raises(InvalidParameterError):
            heat_bath_rc_step(g, (0,), 0, 1.0)

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


def _reference_run(g, rng, max_epoch=24):
    """Monotone CFTP with the unbanded heat-bath rule on both chains at
    every step, connectivity from whole-graph component labels, and the
    uniform of step -t drawn by a scalar call as the t-th record; step -t
    is sweep position k = (-t) mod s, which updates free edge k * a mod s
    of the s free edges, a the integer nearest 0.618 s made coprime to s.

    No epoch shorter than a sweep is run or drawn, and a run stops at a
    step of the last sweep (t <= s, the edge's last update) that leaves
    the chains apart on its edge; steps are counted under that rule."""
    free = tuple(e for e, p in enumerate(g.ps) if 0.0 < p < 1.0)
    base = [1 if p >= 1.0 else 0 for p in g.ps]
    if not free:
        return CftpRun(tuple(base), 0, 0)
    s = len(free)
    a = max(1, round(s * 0.6180339887))
    while math.gcd(a, s) > 1:
        a += 1
    records = []
    steps = 0
    for epoch in range(max_epoch + 1):
        if 1 << epoch < s:
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
                break
        if top == bot:
            return CftpRun(tuple(top), epoch, steps)
    raise NoCoalescenceError("reference run did not coalesce")


class TestBitIdentity:
    """The banded kernel, the sandwich shortcut and the two-sided search
    change no sample and no draw."""

    def _assert_same(self, g, seed, stream):
        rng, ref_rng = RngStream(seed, stream), RngStream(seed, stream)
        assert cftp_rc_run(g, rng) == _reference_run(g, ref_rng)
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
