"""Exactness, coupling monotonicity, and budgets of the world conversions."""

import math
import random

import pytest

import numpy as np

from conftest import brute_degrees, random_graph
from isingworlds import (
    InvalidConfigError,
    RngStream,
    WeightedGraph,
    clusters,
    empirical_distribution,
    enumerate_world,
    exact_kernel_matrix,
    exact_tables,
    kernel_stationarity_error,
    rc_to_spins,
    rc_to_subs,
    sample_from_table,
    spins_to_rc,
    spins_to_subs,
    subs_to_rc,
    subs_to_spins,
    sw_classic_step,
    tv_distance,
)
from isingworlds.caps import KERNEL_EDGE_CAP, KERNEL_NODE_CAP
from isingworlds.fixtures import FIXTURE_NAMES, complete_graph, cycle_graph, fixture_graph, grid_graph, path_graph
from isingworlds.reductions import REDUCTIONS
from isingworlds.worlds import require_support


class TestSubsToRc:
    def test_open_edges_stay_open(self):
        g = fixture_graph("triangle", 0.5)
        for seed in range(20):
            z = subs_to_rc(g, (1, 1, 1), RngStream(seed))
            assert z == (1, 1, 1)

    def test_infinite_coupling_forces_open(self):
        g = WeightedGraph.from_edges(2, [(0, 1, math.inf)])
        rng = RngStream(0)
        assert subs_to_rc(g, (0,), rng) == (1,)
        assert rng.draws == 0

    def test_zero_coupling_forces_closed(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 0.0)])
        rng = RngStream(0)
        assert subs_to_rc(g, (0,), rng) == (0,)
        assert rng.draws == 0

    def test_rejects_zero_weight_inputs(self):
        g = fixture_graph("triangle", 0.5)
        with pytest.raises(InvalidConfigError):
            subs_to_rc(g, (1, 0, 0), RngStream(0))  # odd degree
        g0 = WeightedGraph.from_edges(2, [(0, 1, 0.0)])
        with pytest.raises(InvalidConfigError):
            subs_to_rc(g0, (1,), RngStream(0))  # open zero-coupling edge

    def test_k2_exact_row(self):
        # from the empty configuration the edge opens with probability lambda
        lam = math.tanh(0.5)
        g = fixture_graph("k2", 0.5)
        km = exact_kernel_matrix(g, "subs_to_rc")
        assert km.source_configs == ((0,),)
        assert km.target_configs == ((0,), (1,))
        assert km.matrix[0] == pytest.approx([1 - lam, lam], rel=1e-12)

    def test_k2_empirical_open_rate(self):
        lam = math.tanh(0.5)
        g = fixture_graph("k2", 0.5)
        rng = RngStream(91)
        n = 20000
        opened = sum(subs_to_rc(g, (0,), rng)[0] for _ in range(n))
        assert abs(opened / n - lam) < 3.5 * math.sqrt(lam * (1 - lam) / n)


class TestRcToSubs:
    def test_all_closed_gives_all_closed(self):
        g = fixture_graph("cycle4", 0.5)
        rng = RngStream(0)
        assert rc_to_subs(g, (0, 0, 0, 0), rng) == (0, 0, 0, 0)
        assert rng.draws == 0

    def test_tree_gives_empty(self):
        g = path_graph(5, 0.7)
        for seed in range(10):
            rng = RngStream(seed)
            assert rc_to_subs(g, (1,) * 4, rng) == (0, 0, 0, 0)
            assert rng.draws == 0  # no non-forest edges, no coins

    def test_every_row_uniform_on_its_even_subgraphs(self):
        # row z puts 2**-c on each of the 2**c even subgraphs y <= z, where
        # c = open - n + clusters, and 0 elsewhere; the columns are the even
        # subgraphs of positive weight, and each y <= z has positive weight
        rnd = random.Random(2121)
        graphs = [fixture_graph(name, 0.5) for name in FIXTURE_NAMES]
        graphs = [g for g in graphs if g.num_edges <= KERNEL_EDGE_CAP and g.num_nodes <= KERNEL_NODE_CAP]
        graphs += [complete_graph(5, 0.5), *(random_graph(rnd, extreme_share=0.3) for _ in range(40))]
        for g in graphs:
            km = exact_kernel_matrix(g, "rc_to_subs")
            for z, row in zip(km.source_configs, km.matrix):
                c = sum(z) - g.num_nodes + clusters(g, z).count
                below = [all(ze >= ye for ze, ye in zip(z, y)) for y in km.target_configs]
                assert sum(below) == 2**c
                assert row == pytest.approx(np.where(below, 2.0**-c, 0.0), rel=0, abs=1e-15)

    def test_rejects_open_zero_coupling(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 0.0)])
        with pytest.raises(InvalidConfigError):
            rc_to_subs(g, (1,), RngStream(0))

    def test_draw_count_formula(self):
        rnd = random.Random(31)
        for _ in range(200):
            g = random_graph(rnd, max_nodes=6, max_edges=9)
            z = tuple(rnd.randint(0, 1) for _ in range(g.num_edges))
            rng = RngStream(rnd.randint(0, 10**6))
            rc_to_subs(g, z, rng)
            open_count = sum(z)
            expected = open_count - g.num_nodes + clusters(g, z).count
            assert rng.draws == expected
            assert rng.draws <= g.num_edges


class TestRcToSpins:
    def test_connected_all_open_is_constant(self):
        g = fixture_graph("k4", 0.5)
        for seed in range(10):
            x = rc_to_spins(g, (1,) * 6, RngStream(seed))
            assert len(set(x)) == 1

    def test_all_closed_independent_coins(self):
        g = fixture_graph("triangle", 0.5)
        rng = RngStream(5)
        rc_to_spins(g, (0, 0, 0), rng)
        assert rng.draws == 3

    def test_draws_equal_cluster_count(self):
        rnd = random.Random(17)
        for _ in range(100):
            g = random_graph(rnd, max_nodes=7, max_edges=10)
            z = tuple(rnd.randint(0, 1) for _ in range(g.num_edges))
            rng = RngStream(rnd.randint(0, 10**6))
            x = rc_to_spins(g, z, rng)
            part = clusters(g, z)
            assert rng.draws == part.count
            for v in range(g.num_nodes):  # constant on clusters
                assert x[v] == x[part.component_id[v]]


def _reference_rc_to_spins(g, z, rng):
    """rc_to_spins with clusters labelled by a depth-first forest whose
    roots are taken in ascending order, so each root is its cluster's
    smallest node; one fair coin per root, drawn in one batch in root
    order."""
    root = [-1] * g.num_nodes
    roots = []
    for r in range(g.num_nodes):
        if root[r] >= 0:
            continue
        root[r] = r
        roots.append(r)
        stack = [r]
        while stack:
            v = stack.pop()
            for w, e in g.adjacency[v]:
                if z[e] and root[w] < 0:
                    root[w] = r
                    stack.append(w)
    coin = dict(zip(roots, rng.bernoullis([0.5] * len(roots))))
    return tuple(2 * coin[root[v]] - 1 for v in range(g.num_nodes))


class TestRcToSpinsBitIdentity:
    """Union-find labels change no spin and no draw of the forest labels."""

    def _assert_same(self, g, z, seed):
        rng, ref_rng = RngStream(seed), RngStream(seed)
        assert rc_to_spins(g, z, rng) == _reference_rc_to_spins(g, z, ref_rng)
        assert rng.draws == ref_rng.draws

    def test_random_graphs_with_extremes(self):
        rnd = random.Random(1812)
        for k in range(200):
            g = random_graph(rnd, max_nodes=12, max_edges=16, extreme_share=0.3)
            # beta = inf must be open and beta = 0 closed
            z = tuple(1 if b == math.inf else 0 if b == 0.0 else rnd.randint(0, 1) for b in g.betas)
            self._assert_same(g, z, k)

    @pytest.mark.parametrize("density", [0.2, 0.5, 0.8])
    def test_grid(self, density):
        g = grid_graph(20, 20, 0.44)
        rnd = random.Random(int(density * 10))
        for k in range(5):
            self._assert_same(g, tuple(int(rnd.random() < density) for _ in range(g.num_edges)), k)


class TestSpinsToRc:
    def test_disagreement_closes(self):
        g = fixture_graph("k2", 0.5)
        for seed in range(10):
            assert spins_to_rc(g, (1, -1), RngStream(seed)) == (0,)

    def test_infinite_coupling_agreement_opens(self):
        g = WeightedGraph.from_edges(2, [(0, 1, math.inf)])
        rng = RngStream(0)
        assert spins_to_rc(g, (1, 1), rng) == (1,)
        assert rng.draws == 0

    def test_infinite_coupling_disagreement_rejected(self):
        g = WeightedGraph.from_edges(2, [(0, 1, math.inf)])
        with pytest.raises(InvalidConfigError):
            spins_to_rc(g, (1, -1), RngStream(0))

    def test_draw_count(self):
        g = fixture_graph("triangle", 0.5)
        rng = RngStream(3)
        spins_to_rc(g, (1, 1, -1), rng)
        assert rng.draws == 1  # only the agreeing edge tosses a coin


CONVERSIONS = {
    "subs_to_rc": ("subs", subs_to_rc),
    "subs_to_spins": ("subs", subs_to_spins),
    "rc_to_subs": ("rc", rc_to_subs),
    "rc_to_spins": ("rc", rc_to_spins),
    "spins_to_rc": ("spins", spins_to_rc),
    "spins_to_subs": ("spins", spins_to_subs),
}


@pytest.fixture(scope="module")
def oracle_rows():
    """Every configuration of every world on 160 random graphs with zero
    and infinite couplings, with its batch log weight."""
    rnd = random.Random(9082151)
    rows = []
    for _ in range(160):
        g = random_graph(rnd, extreme_share=0.3)
        for world in ("spins", "subs", "rc"):
            table = enumerate_world(g, world)
            rows.extend((g, world, c, w) for c, w in zip(table.configs, table.log_weights))
    return rows


class TestZeroWeightInputs:
    @pytest.mark.parametrize("name", list(CONVERSIONS))
    def test_rejected_before_any_draw(self, name, oracle_rows):
        # a zero-weight input is no draw from the source world: no output,
        # no randomness spent; every positive-weight input converts
        world, convert = CONVERSIONS[name]
        rejected = 0
        for g, row_world, config, log_weight in oracle_rows:
            if row_world != world:
                continue
            rng = RngStream(7)
            if log_weight == -math.inf:
                with pytest.raises(InvalidConfigError):
                    convert(g, config, rng)
                assert rng.draws == 0
                rejected += 1
            else:
                convert(g, config, rng)
        assert rejected > 0

    def test_large_finite_beta_rules_nothing_out(self):
        # p rounds to 1 at beta = 20, but (1, -1) keeps weight exp(-20) and
        # the closed rc edge weight exp(-40)
        g = complete_graph(2, 20.0)
        assert g.ps == (1.0,)
        assert spins_to_subs(g, (1, -1), RngStream(5)) == (0,)
        assert sw_classic_step(g, (1, -1), RngStream(5)) in ((1, 1), (1, -1), (-1, 1), (-1, -1))
        require_support(g, "rc", (0,))


class TestCompositions:
    def test_bernoulli_budget(self):
        rnd = random.Random(23)
        for _ in range(100):
            g = random_graph(rnd, max_nodes=6, max_edges=9)
            table = enumerate_world(g, "subs")
            y = sample_from_table(table, RngStream(rnd.randint(0, 9999)), 1)[0]
            rng = RngStream(rnd.randint(0, 9999))
            subs_to_spins(g, y, rng)
            assert rng.draws <= g.num_edges + g.num_nodes

    def test_zero_coupling_spins_uniform(self):
        g = complete_graph(3, 0.0)
        km = exact_kernel_matrix(g, "subs_to_spins")
        assert km.matrix[0] == pytest.approx([1 / 8] * 8, rel=1e-12)

    def test_infinite_triangle_constant_spins(self):
        g = complete_graph(3, math.inf)
        km = exact_kernel_matrix(g, "subs_to_spins")
        for row in km.matrix:
            for config, prob in zip(km.target_configs, row):
                if len(set(config)) == 1:
                    assert prob == pytest.approx(0.5)
                else:
                    assert prob == 0.0

    def test_k2_composition_row_is_spins_law(self):
        # from the only even subgraph of K2, the composed draw IS the spins law
        g = fixture_graph("k2", 0.5)
        tables = exact_tables(g)
        km = exact_kernel_matrix(g, "subs_to_spins", tables)
        assert np.allclose(km.matrix[0], tables.spins.probs[tables.spins.support], atol=1e-12)

    def test_spins_to_subs_stationary(self):
        g = fixture_graph("cycle4", 0.8)
        assert kernel_stationarity_error(g, "spins_to_subs") < 1e-9
        assert kernel_stationarity_error(g, "subs_to_spins") < 1e-9


class _Halved:
    """A stream whose Bernoulli parameters strictly inside (0, 1) are halved."""

    def __init__(self, rng):
        self.rng = rng

    def bernoullis(self, qs):
        return self.rng.bernoullis([q / 2 if 0.0 < q < 1.0 else q for q in qs])


# Parameter settings exercising interior and extreme couplings.
PARAM_SETS = [
    ("k2", 0.5),
    ("path3", [0.3, 1.2]),
    ("triangle", 0.6),
    ("triangle", [0.0, 0.7, math.inf]),
    ("cycle4", [0.25, 0.5, 1.0, 2.0]),
    ("k4", 0.45),
]


class TestExactnessAgainstOracle:
    @pytest.mark.parametrize("name,beta", PARAM_SETS)
    @pytest.mark.parametrize("kernel", ["subs_to_rc", "rc_to_subs", "spins_to_rc", "rc_to_spins"])
    def test_reduction_maps_law_onto_law(self, name, beta, kernel):
        g = fixture_graph(name, beta)
        assert kernel_stationarity_error(g, kernel) < 1e-9

    def test_random_graphs_with_extremes(self):
        rnd = random.Random(404)
        checked = 0
        while checked < 12:
            g = random_graph(rnd, max_nodes=5, max_edges=7, extreme_share=0.3)
            if g.num_edges == 0:
                continue
            tables = exact_tables(g)
            for kernel in ("subs_to_rc", "rc_to_subs", "spins_to_rc", "rc_to_spins"):
                assert kernel_stationarity_error(g, kernel, tables) < 1e-9
            checked += 1

    @pytest.mark.parametrize("kernel", ["subs_to_rc", "rc_to_subs", "rc_to_spins", "spins_to_rc"])
    def test_oracle_catches_a_biased_conversion(self, kernel, monkeypatch):
        # the production conversion, guard and all, with every Bernoulli
        # parameter strictly inside (0, 1) halved: lambda/2 and p/2 for the
        # edges, 1/4 for the cluster spins and the non-forest coins
        pair = tuple(kernel.split("_to_"))
        convert = REDUCTIONS[pair]
        monkeypatch.setitem(REDUCTIONS, pair, lambda g, config, rng: convert(g, config, _Halved(rng)))
        assert kernel_stationarity_error(fixture_graph("k4", 0.45), kernel) > 1e-3

    def test_round_trip_preserves_subs_law(self):
        # one subgraphs -> rc -> subgraphs cycle fixes the subgraphs law
        g = fixture_graph("triangle", 0.6)
        tables = exact_tables(g)
        km = exact_kernel_matrix(g, "sw_subgraphs", tables)
        pi = tables.subs.probs[tables.subs.support]
        assert np.max(np.abs(pi @ km.matrix - pi)) < 1e-9


class TestMonotoneCouplings:
    def test_subs_to_rc_dominates_input(self):
        rnd = random.Random(88)
        g = fixture_graph("k4", 0.5)
        table = enumerate_world(g, "subs")
        ys = sample_from_table(table, RngStream(11), 300)
        for k, y in enumerate(ys):
            z = subs_to_rc(g, y, RngStream(1000 + k))
            assert all(ze >= ye for ze, ye in zip(z, y))

    def test_rc_to_subs_dominated_by_input(self):
        g = fixture_graph("k4", 0.5)
        table = enumerate_world(g, "rc")
        zs = sample_from_table(table, RngStream(12), 300)
        for k, z in enumerate(zs):
            y = rc_to_subs(g, z, RngStream(2000 + k))
            assert all(ye <= ze for ye, ze in zip(y, z))
            assert not any(d % 2 for d in brute_degrees(g, y))


class TestSamplingMatchesTables:
    @pytest.mark.parametrize("name", ["triangle", "cycle4"])
    def test_tv_smoke(self, name):
        beta = math.atanh(0.6)
        g = fixture_graph(name, beta)
        tables = exact_tables(g)
        n = 20000
        rng = RngStream(20240601)

        ys = sample_from_table(tables.subs, rng, n)
        zs = [subs_to_rc(g, y, rng) for y in ys]
        assert tv_distance(empirical_distribution(zs, tables.rc), tables.rc.probs) < 0.02

        zs = sample_from_table(tables.rc, rng, n)
        ys = [rc_to_subs(g, z, rng) for z in zs]
        assert tv_distance(empirical_distribution(ys, tables.subs), tables.subs.probs) < 0.02
