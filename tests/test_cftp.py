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
    cftp_rc_sample,
    empirical_distribution,
    enumerate_world,
    heat_bath_rc_step,
    perfect_subs_sample,
    tv_distance,
    weight_subs,
)
from conftest import joined_without_edge, random_graph
from isingworlds.cftp import MAX_EPOCH, CftpRun
from isingworlds.fixtures import complete_graph, fixture_graph, grid_graph, path_graph


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
        # two typed arrays: 12 bytes a record plus their growth slack
        records = 1 << 16
        rng, free = RngStream(1), tuple(range(480))
        tracemalloc.start()
        try:
            edges, uniforms = array("i"), array("d")
            rng.pick_uniform_pairs(free, records, edges, uniforms)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(edges) == len(uniforms) == records
        assert held <= 16 * records
        assert peak <= 16 * records

    def test_same_seed_same_run(self):
        g = fixture_graph("cycle4", 0.8)
        run_a = cftp_rc_run(g, RngStream(99))
        run_b = cftp_rc_run(g, RngStream(99))
        assert run_a == run_b


def _reference_run(g, rng, max_epoch=24):
    """Monotone CFTP with the unbanded heat-bath rule on both chains at
    every step, connectivity from whole-graph component labels, and the
    record of step -t drawn by scalar calls as the t-th (edge, uniform).

    Steps are counted under the two stopping rules: an epoch whose records
    miss a free edge is not run, and a run stops at the step that updates
    an edge for the last time (its first record) and leaves the chains
    apart on it.  First records come from a fresh scan of every epoch."""
    free = tuple(e for e, p in enumerate(g.ps) if 0.0 < p < 1.0)
    base = [1 if p >= 1.0 else 0 for p in g.ps]
    if not free:
        return CftpRun(tuple(base), 0, 0)
    records = []
    steps = 0
    for epoch in range(max_epoch + 1):
        while len(records) < 1 << epoch:
            records.append((free[rng.randrange(len(free))], rng.uniform()))
        first = {}
        for t, (edge, _) in enumerate(records):
            if edge not in first:
                first[edge] = t
        if len(first) < len(free):
            continue
        top = [1 if e in free else v for e, v in enumerate(base)]
        bot = list(base)
        for t in range(1 << epoch, 0, -1):
            edge, u = records[t - 1]
            p = g.ps[edge]
            for z in (top, bot):
                z[edge] = 1 if u < (p if joined_without_edge(g, z, edge) else p / (2 - p)) else 0
            steps += 1
            if first[edge] == t - 1 and top[edge] != bot[edge]:
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
        z = cftp_rc_sample(g, RngStream(1))
        assert z == (1, 0)

    def test_no_coalescence_error(self):
        # one step cannot touch all three free edges of the triangle
        g = fixture_graph("triangle", 0.5)
        with pytest.raises(NoCoalescenceError):
            cftp_rc_run(g, RngStream(3), max_epoch=0)

    def test_skipped_epochs_still_draw_their_records(self):
        # neither epoch of two steps or fewer covers the triangle, so none
        # is run, but both schedules are drawn: two records, two draws each
        g = fixture_graph("triangle", 0.5)
        rng = RngStream(3)
        with pytest.raises(NoCoalescenceError):
            cftp_rc_run(g, rng, max_epoch=1)
        assert rng.draws == 4

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

    def test_largest_epoch_budget_accepted(self):
        # the triangle coalesces long before the budget is reached
        run = cftp_rc_run(fixture_graph("triangle", 0.5), RngStream(3), MAX_EPOCH)
        assert run.epoch < 8

    def test_k2_half_marginal(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 0.5)], param="p")
        n = 20000
        opened = sum(cftp_rc_sample(g, RngStream(500, i))[0] for i in range(n))
        se = math.sqrt((1 / 3) * (2 / 3) / n)
        assert abs(opened / n - 1 / 3) < 3.5 * se

    def test_triangle_tv_against_table(self):
        g = fixture_graph("triangle", 0.7)
        table = enumerate_world(g, "rc")
        samples = [cftp_rc_sample(g, RngStream(808, i)) for i in range(20000)]
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
