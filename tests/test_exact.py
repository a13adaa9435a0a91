"""Enumeration tables, identities, kernel matrices, and counting."""

import math
import random
from itertools import product

import numpy as np
import pytest

from conftest import (
    brute_degrees,
    dfs_component_labels,
    random_graph,
    reference_log_weight,
    reference_weight,
)
from isingworlds import (
    CapExceededError,
    InvalidConfigError,
    InvalidParameterError,
    RngStream,
    WeightedGraph,
    check_even_subgraph_count,
    check_rc_normalizer,
    check_relate_identity,
    empirical_distribution,
    enumerate_world,
    exact_kernel_matrix,
    exact_tables,
    sample_from_table,
    tv_distance,
)
from isingworlds import exact
from isingworlds.fixtures import FIXTURE_NAMES, complete_graph, fixture_graph, path_graph
from isingworlds.reductions import REDUCTIONS
from isingworlds.worlds import (
    weight_rc,
    weight_rc_log,
    weight_spins,
    weight_spins_log,
    weight_subs,
    weight_subs_log,
)

SCALAR_WEIGHTS = {
    "spins": (weight_spins, weight_spins_log),
    "subs": (weight_subs, weight_subs_log),
    "rc": (weight_rc, weight_rc_log),
}


def bit_equal(a, b) -> bool:
    """Equal bit for bit: NaN matches NaN, and 0.0 does not match -0.0."""
    return np.array_equal(np.asarray(a, float).view(np.uint64), np.asarray(b, float).view(np.uint64))


def adversarial_graphs(seed: int, count: int):
    """Random graphs with couplings of 0 and inf, beta scaled up to ~400
    (where tanh and p saturate), and no field, a finite field or a field
    mixing finite and infinite values, in turn."""
    rnd = random.Random(seed)
    for k in range(count):
        g = random_graph(rnd, max_nodes=6, max_edges=8, extreme_share=0.3)
        scale = rnd.choice((1.0, 40.0, 250.0))
        field = None
        if k % 3 == 1:
            field = tuple(rnd.choice((0.0, rnd.uniform(-3.0, 3.0), 300.0)) for _ in range(g.num_nodes))
        elif k % 3 == 2:
            field = tuple(rnd.choice((0.0, 0.8, -1.5, math.inf, -math.inf)) for _ in range(g.num_nodes))
        yield WeightedGraph(g.num_nodes, g.edges, tuple(b * scale for b in g.betas), field)


class TestEnumeration:
    def test_k2_partition_sums(self):
        beta = 0.8
        tables = exact_tables(fixture_graph("k2", beta))
        assert tables.Z_spins == pytest.approx(4 * math.cosh(beta), rel=1e-12)
        assert tables.Z_subs == 1.0  # only the empty subgraph is even
        p = 1 - math.exp(-2 * beta)
        assert tables.Z_rc == pytest.approx(4 - 2 * p, rel=1e-12)

    def test_triangle_subs_partition(self):
        lam = math.tanh(0.6)
        tables = exact_tables(fixture_graph("triangle", 0.6))
        assert tables.Z_subs == pytest.approx(1 + lam**3, rel=1e-12)

    def test_probabilities_sum_to_one(self):
        for name in FIXTURE_NAMES:
            g = fixture_graph(name, 0.5)
            for world in ("spins", "subs", "rc"):
                table = enumerate_world(g, world)
                assert abs(float(table.probs.sum()) - 1.0) < 1e-12
                assert (table.weights >= 0.0).all()

    def test_lexicographic_order(self):
        table = enumerate_world(fixture_graph("k2", 0.5), "spins")
        assert table.configs == ((1, 1), (1, -1), (-1, 1), (-1, -1))
        table = enumerate_world(fixture_graph("k2", 0.5), "rc")
        assert table.configs == ((0,), (1,))

    def test_caps(self):
        with pytest.raises(CapExceededError):
            enumerate_world(WeightedGraph(17, (), ()), "spins")
        big = path_graph(22, 0.5)
        with pytest.raises(CapExceededError):
            enumerate_world(big, "subs")

    def test_field_graph_uses_field_weight(self):
        g = WeightedGraph.from_edges(1, [], field={0: math.log(3.0)})
        table = enumerate_world(g, "spins")
        # up weighs 3, down weighs 1
        assert table.probs[table.config_index[(1,)]] == pytest.approx(0.75)


class TestColumnarTables:
    """The columnar tables against independent plain loops."""

    def test_weights_match_the_reference_loop_bit_for_bit(self):
        rnd = random.Random(31)
        for g in adversarial_graphs(2024, 200):
            for world in ("spins", "subs", "rc"):
                table = enumerate_world(g, world)
                sites = g.num_nodes if world == "spins" else g.num_edges
                values = (1, -1) if world == "spins" else (0, 1)
                configs = list(product(values, repeat=sites))
                assert table.configs == tuple(configs)
                expected = [reference_weight(g, world, c) for c in configs]
                assert bit_equal(table.weights, expected), (g, world)
                expected_log = [reference_log_weight(g, world, c) for c in configs]
                log_weights = exact._WORLD_SPECS[world][2](g, table.matrix)
                assert bit_equal(log_weights, expected_log), (g, world)
                # the scalar functions are the table's formula on one row
                weight, weight_log = SCALAR_WEIGHTS[world]
                for r in rnd.sample(range(len(configs)), min(3, len(configs))):
                    assert bit_equal(weight(g, configs[r]), table.weights[r])
                    assert bit_equal(weight_log(g, configs[r]), log_weights[r])

    def test_cluster_counts_match_a_plain_dfs(self):
        rnd = random.Random(77)
        isolated = 0
        for _ in range(150):
            g = random_graph(rnd, max_nodes=9, max_edges=8)
            isolated += g.num_nodes - len({v for edge in g.edges for v in edge})
            table = enumerate_world(g, "rc")
            counts = exact.cluster_counts(g.num_nodes, g.edges, table.matrix)
            assert counts.tolist() == [dfs_component_labels(g, z)[1] for z in table.configs]
        assert isolated > 0

    def test_cluster_counts_of_a_long_path(self):
        # labels must cross 19 edges against the sweep order as well as along it
        g = WeightedGraph(20, tuple((i, i + 1) for i in reversed(range(19))), (0.5,) * 19)
        counts = exact.cluster_counts(g.num_nodes, g.edges, np.ones((1, 19), np.int8))
        assert counts.tolist() == [1]

    def test_even_subgraph_counts_match_brute_force(self):
        rnd = random.Random(4242)
        for _ in range(120):
            g = random_graph(rnd, max_nodes=8, max_edges=10)
            z = tuple(rnd.randint(0, 1) for _ in range(g.num_edges))
            open_edges = [e for e in range(g.num_edges) if z[e]]
            brute = 0
            for bits in product((0, 1), repeat=len(open_edges)):
                y = [0] * g.num_edges
                for e, bit in zip(open_edges, bits):
                    y[e] = bit
                brute += not any(d % 2 for d in brute_degrees(g, y))
            report = check_even_subgraph_count(g, z)
            assert report.enumerated == brute
            parts = dfs_component_labels(g, z)[1]
            assert report.closed_form == 2 ** (len(open_edges) - g.num_nodes + parts)

    def test_configs_are_built_on_first_read(self):
        table = enumerate_world(fixture_graph("grid3x3", 0.4), "rc")
        assert "configs" not in vars(table)
        assert table.Z > 0.0 and "configs" not in vars(table)
        assert table.support_configs[0] == (0,) * 12 and "configs" not in vars(table)


class TestIdentities:
    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 1.0, 2.0])
    def test_relate_uniform(self, beta):
        for name in ("k2", "path3", "triangle", "cycle4"):
            for report in check_relate_identity(fixture_graph(name, beta)):
                assert report.passed and report.relative_error < 1e-12

    def test_relate_triangle_closed_form(self):
        beta = 0.5
        tables = exact_tables(fixture_graph("triangle", beta))
        rhs = 8 * math.cosh(beta) ** 3 * (1 + math.tanh(beta) ** 3)
        assert abs(tables.Z_spins - rhs) / tables.Z_spins < 1e-12

    def test_relate_rejects_infinite(self):
        from isingworlds import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            check_relate_identity(complete_graph(2, math.inf))

    def test_relate_log_domain_path(self):
        # beta large enough that exp(sum beta) overflows the linear route
        g = fixture_graph("k2", 800.0)
        for report in check_relate_identity(g):
            assert report.used_log_domain
            assert report.passed and report.relative_error < 1e-10

    def test_rc_normalizer_k2_closed_form(self):
        beta = 0.8
        g = fixture_graph("k2", beta)
        report = check_rc_normalizer(g)
        assert report.passed
        p = 1 - math.exp(-2 * beta)
        assert report.lhs == pytest.approx(4 - 2 * p, rel=1e-12)
        assert report.rhs == pytest.approx(2 * (2 - p), rel=1e-12)

    def test_rc_normalizer_handles_infinite(self):
        g = WeightedGraph.from_edges(3, [(0, 1, math.inf), (1, 2, 0.5)])
        assert check_rc_normalizer(g).passed

    def test_rc_normalizer_edgeless(self):
        g = WeightedGraph(3, (), ())
        report = check_rc_normalizer(g)
        assert report.passed and report.lhs == 8.0

    def test_rc_normalizer_mixed_cycle(self):
        g = fixture_graph("cycle4", [0.1, 0.6, 1.3, 2.2])
        report = check_rc_normalizer(g)
        assert report.passed and report.relative_error < 1e-12


class TestLogDomainFallback:
    """Past float range the identities fall back to the log weights of the
    stored configurations, without enumerating any world again."""

    @pytest.fixture
    def enumerated(self, monkeypatch):
        worlds = []
        world_spec = exact._world_spec

        def counting(g, world):
            worlds.append(world)
            return world_spec(g, world)

        monkeypatch.setattr(exact, "_world_spec", counting)
        return worlds

    def test_rc_weight_overflow_is_inf(self):
        assert weight_rc(WeightedGraph(1100, (), ()), ()) == math.inf

    @pytest.mark.parametrize(
        "g",
        [WeightedGraph(1100, (), ()), WeightedGraph(1100, ((0, 1),), (math.inf,))],
        ids=["edgeless", "inf-edge"],
    )
    def test_rc_normalizer_past_float_range(self, g, enumerated):
        report = check_rc_normalizer(g)
        assert report.used_log_domain and report.passed
        assert sorted(enumerated) == ["rc", "subs"]

    def test_relate_with_tables_enumerates_nothing_more(self, enumerated):
        g = fixture_graph("k2", 800.0)
        tables = exact_tables(g)
        assert sorted(enumerated) == ["rc", "spins", "subs"]
        reports = check_relate_identity(g, tables=tables)
        assert all(r.used_log_domain and r.passed for r in reports)
        assert len(enumerated) == 3

    def test_relate_without_tables_enumerates_each_world_once(self, enumerated):
        reports = check_relate_identity(fixture_graph("k2", 800.0))
        assert all(r.used_log_domain and r.passed for r in reports)
        assert sorted(enumerated) == ["rc", "spins", "subs"]


class TestKernelMatrices:
    def test_rows_stochastic(self):
        g = fixture_graph("cycle4", [0.0, 0.4, 1.0, math.inf])
        tables = exact_tables(g)
        for kernel in ("subs_to_rc", "rc_to_subs", "spins_to_rc", "rc_to_spins",
                       "sw_classic", "sw_subgraphs"):
            km = exact_kernel_matrix(g, kernel, tables)
            assert np.max(np.abs(km.matrix.sum(axis=1) - 1.0)) < 1e-12

    def test_k2_subs_to_rc_row(self):
        lam = math.tanh(0.5)
        km = exact_kernel_matrix(fixture_graph("k2", 0.5), "subs_to_rc")
        assert km.matrix.tolist() == [pytest.approx([1 - lam, lam], rel=1e-12)]

    def test_edgewise_rows_match_closed_form(self):
        # subs_to_rc and spins_to_rc open each edge on its own, so a row is
        # the product over edges of q (open) or 1 - q (closed), in edge order
        rnd = random.Random(8215)
        for _ in range(120):
            g = random_graph(rnd, max_nodes=6, max_edges=8, extreme_share=0.3)
            tables = exact_tables(g)
            for kernel, open_prob in (
                ("subs_to_rc", lambda y, e: 1.0 if y[e] else g.lambdas[e]),
                ("spins_to_rc", lambda x, e: g.ps[e] if x[g.edges[e][0]] == x[g.edges[e][1]] else 0.0),
            ):
                km = exact_kernel_matrix(g, kernel, tables)
                expected = []
                for source in km.source_configs:
                    for z in km.target_configs:
                        prob = 1.0
                        for e in range(g.num_edges):
                            q = open_prob(source, e)
                            prob *= q if z[e] else 1.0 - q
                        expected.append(prob)
                assert bit_equal(km.matrix, np.reshape(expected, km.matrix.shape)), (g, kernel)

    def test_branches_follow_draws_that_depend_on_earlier_ones(self, monkeypatch):
        # subs -> spins -> rc draws one coin per cluster of a random rc
        # draw, then one per agreeing edge, so how many draws a run makes
        # depends on the draws before them
        g = fixture_graph("cycle4", [0.3, 0.6, 1.1, math.inf])
        tables = exact_tables(g)
        expected = (exact_kernel_matrix(g, "subs_to_spins", tables).matrix
                    @ exact_kernel_matrix(g, "spins_to_rc", tables).matrix)
        subs_to_spins, spins_to_rc = REDUCTIONS[("subs", "spins")], REDUCTIONS[("spins", "rc")]
        monkeypatch.setitem(REDUCTIONS, ("subs", "rc"),
                            lambda g, y, rng: spins_to_rc(g, subs_to_spins(g, y, rng), rng))
        km = exact_kernel_matrix(g, "subs_to_rc", exact_tables(g))
        assert np.allclose(km.matrix, expected, rtol=0, atol=1e-15)
        assert not np.allclose(km.matrix, exact_kernel_matrix(g, "subs_to_rc", tables).matrix)

    def test_conversion_matrices_kept_on_their_tables(self):
        g = fixture_graph("k4", 0.45)
        tables = exact_tables(g)
        km = exact_kernel_matrix(g, "rc_to_subs", tables)
        assert exact_kernel_matrix(fixture_graph("k4", 0.45), "rc_to_subs", tables) is km
        assert not km.matrix.flags.writeable
        with pytest.raises(ValueError):
            km.matrix[0, 0] = 0.5
        with pytest.raises(InvalidParameterError):
            exact_kernel_matrix(fixture_graph("k4", 0.5), "rc_to_subs", tables)
        with pytest.raises(InvalidParameterError):
            exact_kernel_matrix(fixture_graph("k4", 0.5), "sw_subgraphs", tables)

    def test_field_graph_is_refused_by_the_conversions(self):
        g = WeightedGraph(3, ((0, 1), (1, 2), (0, 2)), (0.5, 0.5, 0.5), (0.7, 0.0, 0.0))
        with pytest.raises(InvalidConfigError, match="field"):
            exact_kernel_matrix(g, "rc_to_spins")

    def test_unknown_kernel(self):
        with pytest.raises(InvalidParameterError):
            exact_kernel_matrix(fixture_graph("k2", 0.5), "teleport")

    def test_cap(self):
        with pytest.raises(CapExceededError):
            exact_kernel_matrix(fixture_graph("grid3x3", 0.5), "subs_to_rc")


class TestTvDistance:
    def test_identical(self):
        assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_point_mass_vs_uniform(self):
        assert tv_distance([1.0, 0.0], [0.5, 0.5]) == 0.5

    def test_disjoint(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_mismatched_support(self):
        with pytest.raises(ValueError):
            tv_distance([1.0], [0.5, 0.5])

    def test_empirical_distribution_checks_membership(self):
        table = enumerate_world(fixture_graph("k2", 0.5), "rc")
        with pytest.raises(InvalidConfigError):
            empirical_distribution([(0, 1)], table)

    @pytest.mark.parametrize("n", [0, 3])
    def test_sampling_needs_a_positive_weight_row(self, n):
        g = WeightedGraph(2, ((0, 1),), (math.inf,), (math.inf, -math.inf))
        table = enumerate_world(g, "spins")
        with pytest.raises(InvalidConfigError, match="positive weight"):
            sample_from_table(table, RngStream(0), n)

    def test_sampling_round_trip(self):
        table = enumerate_world(fixture_graph("triangle", 0.9), "rc")
        samples = sample_from_table(table, RngStream(6), 20000)
        assert tv_distance(empirical_distribution(samples, table), table.probs) < 0.02


class TestEvenSubgraphCount:
    def test_triangle_all_open(self):
        report = check_even_subgraph_count(fixture_graph("triangle", 0.5), (1, 1, 1))
        assert report.enumerated == 2 and report.closed_form == 2

    def test_k4_all_open(self):
        report = check_even_subgraph_count(fixture_graph("k4", 0.5), (1,) * 6)
        assert report.enumerated == 8 and report.closed_form == 8  # 2**(6-4+1)

    def test_forest_counts_one(self):
        g = path_graph(5, 0.5)
        for z in [(1, 1, 1, 1), (1, 0, 1, 0), (0, 0, 0, 0)]:
            report = check_even_subgraph_count(g, z)
            assert report.enumerated == 1 and report.closed_form == 1

    def test_random_pairs(self):
        rnd = random.Random(2718)
        for _ in range(50):
            g = random_graph(rnd, max_nodes=6, max_edges=10)
            z = tuple(rnd.randint(0, 1) for _ in range(g.num_edges))
            assert check_even_subgraph_count(g, z).passed
