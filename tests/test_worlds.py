"""Weight functions, cluster extraction, and the configuration guards."""

import math
import random
import re
from array import array

import pytest

import numpy as np

from conftest import (
    bfs_component_labels,
    brute_degrees,
    dfs_component_labels,
    joined_without_edge,
    random_graph,
    reference_weight,
)
from isingworlds import (
    InvalidConfigError,
    RngStream,
    WeightedGraph,
    clusters,
    enumerate_world,
    heat_bath_rc_step,
    weight_rc,
    weight_subs,
)
from isingworlds.exact import _one_row, cluster_counts
from isingworlds.fixtures import FIXTURE_NAMES, complete_graph, fixture_graph, grid_graph
from isingworlds.reductions import REDUCTIONS
from isingworlds.worlds import (
    STATISTICS,
    _connected,
    _union,
    config_from_string,
    config_to_string,
    require_statistic,
    require_support,
    spins_energy,
    validate_config,
)


class TestWeightSpins:
    def test_infinite_coupling_disagreement_is_zero(self):
        g = complete_graph(2, math.inf)
        assert _one_row(g, "spins", (1, -1)) == -math.inf
        assert _one_row(g, "spins", (1, 1)) == 0.0  # agreement indicator

    def test_zero_coupling_weight_is_one(self):
        g = complete_graph(2, 0.0)
        for x in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            assert _one_row(g, "spins", x) == 0.0

    @pytest.mark.parametrize("beta", [0.25, 0.5, 1.0])
    def test_triangle_total_weight(self, beta):
        # direct sum over the 8 configurations: 2 e^{3b} + 6 e^{-b}
        g = complete_graph(3, beta)
        total = 0.0
        for bits in range(8):
            x = tuple(1 if (bits >> k) & 1 else -1 for k in range(3))
            total += math.exp(_one_row(g, "spins", x))
        assert total == pytest.approx(2 * math.exp(3 * beta) + 6 * math.exp(-beta), rel=1e-12)

    def test_rejects_bad_config(self):
        g = complete_graph(2, 0.5)
        with pytest.raises(InvalidConfigError):
            _one_row(g, "spins", (1, 0))
        with pytest.raises(InvalidConfigError):
            _one_row(g, "spins", (1,))


class TestWeightSpinsField:
    def test_infinite_field_pins_up(self):
        g = WeightedGraph.from_edges(1, [], field={0: math.inf})
        assert _one_row(g, "spins", (-1,)) == -math.inf
        assert _one_row(g, "spins", (1,)) == 0.0

    def test_negative_infinite_field_pins_down(self):
        g = WeightedGraph.from_edges(1, [], field={0: -math.inf})
        assert _one_row(g, "spins", (1,)) == -math.inf
        assert _one_row(g, "spins", (-1,)) == 0.0

    def test_zero_field_factor_is_one(self):
        g = WeightedGraph.from_edges(1, [], field={0: 0.0})
        assert _one_row(g, "spins", (1,)) == 0.0
        assert _one_row(g, "spins", (-1,)) == 0.0

    def test_log_three_field_up_spin(self):
        g = WeightedGraph.from_edges(1, [], field={0: math.log(3.0)})
        assert _one_row(g, "spins", (1,)) == math.log(3.0)


class TestWeightSubs:
    def test_empty_configuration_weight_one(self):
        for name in ("k2", "triangle", "grid3x3"):
            g = fixture_graph(name)
            assert weight_subs(g, (0,) * g.num_edges) == 1.0

    def test_single_edge_odd_degree(self):
        g = complete_graph(2, 0.5)
        assert weight_subs(g, (1,)) == 0.0

    def test_triangle_full_configuration(self):
        lam = math.tanh(0.6)
        g = complete_graph(3, 0.6)
        assert weight_subs(g, (1, 1, 1)) == pytest.approx(lam**3, rel=1e-12)
        # brute force over the 8 subsets: only empty and full are even
        total = sum(
            weight_subs(g, (b & 1, (b >> 1) & 1, (b >> 2) & 1)) for b in range(8)
        )
        assert total == pytest.approx(1 + lam**3, rel=1e-12)


class TestWeightRc:
    def test_k2_closed_and_open(self):
        beta = 0.8
        p = 1 - math.exp(-2 * beta)
        g = complete_graph(2, beta)
        assert weight_rc(g, (0,)) == pytest.approx((1 - p) * 4, rel=1e-12)  # two singletons
        assert weight_rc(g, (1,)) == pytest.approx(p * 2, rel=1e-12)  # one cluster

    def test_edgeless_graph(self):
        g = WeightedGraph(4, (), ())
        assert _one_row(g, "rc", ()) == 4 * math.log(2.0)
        assert weight_rc(g, ()) == pytest.approx(16.0, rel=1e-15)  # 2**4, as exp of its log

    def test_extreme_couplings(self):
        g = WeightedGraph.from_edges(2, [(0, 1, math.inf)])
        assert weight_rc(g, (0,)) == 0.0  # closing a p = 1 edge kills the weight
        g0 = WeightedGraph.from_edges(2, [(0, 1, 0.0)])
        assert weight_rc(g0, (1,)) == 0.0  # opening a p = 0 edge kills the weight

    @pytest.mark.parametrize("beta", [10.0, 15.0, 18.0])
    def test_closed_log_weight_is_exact_at_large_beta(self, beta):
        # log(1 - p) through the rounded p is off by 0.044 at beta = 18
        expected = -2.0 * beta + 2.0 * math.log(2.0)  # two singletons
        assert _one_row(complete_graph(2, beta), "rc", (0,)) == pytest.approx(expected, rel=1e-15, abs=0)


class TestLogDomainAgreement:
    """The oracle's log weight of one row against the linear product of
    the reference loop."""

    def test_log_matches_linear_on_random_graphs(self):
        rnd = random.Random(1234)
        for _ in range(60):
            g = random_graph(rnd, max_nodes=5, max_edges=8, extreme_share=0.2)
            for _ in range(10):
                x = tuple(rnd.choice((-1, 1)) for _ in range(g.num_nodes))
                y = tuple(rnd.randint(0, 1) for _ in range(g.num_edges))
                for world, config in (("spins", x), ("subs", y), ("rc", y)):
                    linear, logv = reference_weight(g, world, config), _one_row(g, world, config)
                    if linear > 0.0 and math.isfinite(linear):
                        assert abs(math.exp(logv) / linear - 1.0) < 1e-12
                    else:
                        assert logv == -math.inf and linear == 0.0

    def test_field_log_agreement(self):
        rnd = random.Random(99)
        for _ in range(40):
            g0 = random_graph(rnd, max_nodes=5, max_edges=6)
            field = {v: rnd.choice([0.0, 0.5, 2.0, math.inf]) for v in range(g0.num_nodes)}
            g = WeightedGraph(g0.num_nodes, g0.edges, g0.betas, tuple(field[v] for v in range(g0.num_nodes)))
            for _ in range(8):
                x = tuple(rnd.choice((-1, 1)) for _ in range(g.num_nodes))
                linear = reference_weight(g, "spins", x)
                logv = _one_row(g, "spins", x)
                if linear > 0.0:
                    assert abs(math.exp(logv) / linear - 1.0) < 1e-12
                else:
                    assert logv == -math.inf


def adversarial_orders():
    """A long path listed from its far end, and a star centred on its
    highest node: every union hangs a root under a lower one."""
    n = 20_000
    path = WeightedGraph(n, tuple((v, v + 1) for v in reversed(range(n - 1))), (0.5,) * (n - 1))
    star = WeightedGraph(60, tuple((v, 59) for v in range(59)), (0.5,) * 59)
    return path, star


class TestClusters:
    def test_triangle_extremes(self):
        g = complete_graph(3, 0.5)
        assert clusters(g, (1, 1, 1)).count == 1
        assert clusters(g, (0, 0, 0)).count == 3

    def test_path_split(self):
        g = fixture_graph("path3")
        part = clusters(g, (1, 0))
        assert part.component_id == (0, 0, 2)
        assert part.count == 2

    def test_matches_independent_dfs_labeling(self):
        rnd = random.Random(777)
        for _ in range(200):
            g = random_graph(rnd, max_nodes=12, max_edges=18)
            z = tuple(rnd.randint(0, 1) for _ in range(g.num_edges))
            part = clusters(g, z)
            labels, count = dfs_component_labels(g, z)
            assert part.component_id == labels
            assert part.count == count
            open_count = sum(z)
            assert max(1, g.num_nodes - open_count) <= part.count <= g.num_nodes or g.num_nodes == 0
            # count equals nodes minus rank of the open incidence structure,
            # i.e. nodes minus the size of any maximal spanning forest
            forest_size = g.num_nodes - count
            assert forest_size <= open_count

    def test_labels_match_independent_oracles(self):
        # the count against the oracle's min-label propagation, the labels
        # against a brute-force search, on graphs with isolated nodes; the
        # spins statistic counts the clusters of the agreeing edges
        rnd, spins_rnd = random.Random(1811), random.Random(1911)
        isolated = 0
        for _ in range(150):
            g = random_graph(rnd, max_nodes=12, max_edges=10, extreme_share=0.3)
            isolated += sum(not neighbours for neighbours in g.adjacency)
            zs = [tuple(rnd.randint(0, 1) for _ in range(g.num_edges)) for _ in range(4)]
            x = tuple(spins_rnd.choice((-1, 1)) for _ in range(g.num_nodes))
            agree = tuple(int(x[i] == x[j]) for i, j in g.edges)
            counts = cluster_counts(g.num_nodes, g.edges, np.array([*zs, agree], dtype=np.int8).reshape(5, -1))
            for z, count in zip(zs, counts.tolist()):
                part = clusters(g, z)
                assert part.component_id == bfs_component_labels(g, z), (g, z)
                assert part.count == count, (g, z)
                assert require_statistic("rc", "clusters")(g, z) == count
            assert require_statistic("spins", "clusters")(g, x) == counts[-1], (g, x)
        assert isolated > 0

    def test_labels_on_adversarial_edge_orders(self):
        # the path open but for every 1000th edge
        path, star = adversarial_orders()
        n = path.num_nodes
        z = tuple(0 if i % 1000 == 999 else 1 for i in range(n - 1))
        part = clusters(path, z)
        assert part.component_id == bfs_component_labels(path, z)
        assert part.count == 1 + z.count(0)
        assert part.component_id[0] == 0 and part.component_id[-1] == n - 1000
        for z in ((1,) * (n - 1), (0,) * (n - 1)):
            assert clusters(path, z).component_id == bfs_component_labels(path, z)
        for z in ((1,) * 59, tuple(int(v % 3 == 0) for v in range(59))):
            part = clusters(star, z)
            assert part.component_id == bfs_component_labels(star, z)
            assert part.count == 60 - sum(map(bool, z))


    @staticmethod
    def _check_union(g, z):
        root, count = _union(g, z)
        labels, dfs_count = dfs_component_labels(g, z)
        assert count == clusters(g, z).count == dfs_count
        # each root is its cluster's minimum; any other node points lower
        # inside its own cluster
        for v, c in enumerate(root):
            assert c == v if labels[v] == v else labels[v] <= c < v and labels[c] == labels[v]

    def test_union_count_matches_the_labels_and_a_dfs(self):
        rnd = random.Random(2929)
        for _ in range(200):
            g = random_graph(rnd, max_nodes=12, max_edges=18, extreme_share=0.3)
            self._check_union(g, tuple(rnd.randint(0, 1) for _ in range(g.num_edges)))
        path, star = adversarial_orders()
        m = path.num_edges
        for z in ((1,) * m, (0,) * m, tuple(0 if i % 1000 == 999 else 1 for i in range(m))):
            self._check_union(path, z)
        for z in ((1,) * 59, tuple(int(v % 3 == 0) for v in range(59))):
            self._check_union(star, z)


def connected_without_edge(g, z, e, mark, stamp=1, queues=None):
    """The query as a CFTP step asks it: e closed in a copy of ``z``, then
    e's endpoints and short cycles looked up on ``g``, as a plan step
    carries them, and a fresh pair of queues unless ``queues`` is given."""
    closed = list(z)
    closed[e] = 0
    from_i, from_j = queues or ([0] * g.num_nodes, [0] * g.num_nodes)
    return _connected(g.adjacency, closed, *g.edges[e], g.short_cycles[e], mark, stamp, from_i, from_j)


class TestConnectedWithoutEdge:
    def test_matches_labels_on_random_graphs(self):
        rnd = random.Random(2024)
        for _ in range(300):
            g = random_graph(rnd, max_nodes=9, max_edges=16)
            z = tuple(rnd.randint(0, 1) for _ in range(g.num_edges))
            for e in range(g.num_edges):
                assert connected_without_edge(g, z, e, [0] * g.num_nodes) == joined_without_edge(g, z, e)

    @pytest.mark.parametrize("density", [0.3, 0.5, 0.7])
    def test_matches_labels_on_a_grid(self, density):
        # long detours and large clusters on either side of the edge
        rnd = random.Random(int(density * 10))
        g = grid_graph(7, 7)
        for _ in range(10):
            z = tuple(1 if rnd.random() < density else 0 for _ in range(g.num_edges))
            for e in range(g.num_edges):
                assert connected_without_edge(g, z, e, [0] * g.num_nodes) == joined_without_edge(g, z, e)

    def test_one_stamp_list_serves_many_queries(self):
        # the CFTP run loop keeps one list of marks and one pair of queues
        # per run and raises the stamp by 2 per query; stale marks must
        # read as unvisited, and stale queue entries past a side's tail
        # must never be read
        rnd = random.Random(77)
        g = grid_graph(6, 6)
        mark = [0] * g.num_nodes
        queues = [0] * g.num_nodes, [0] * g.num_nodes
        stamp = 1
        for _ in range(400):
            z = [1 if rnd.random() < 0.5 else 0 for _ in range(g.num_edges)]
            e = rnd.randrange(g.num_edges)
            stamp += 2
            assert connected_without_edge(g, z, e, mark, stamp, queues) == joined_without_edge(g, z, e)
        assert max(map(max, queues)) > 0  # the queues were written and reused

    def test_adversarial_path_and_star(self):
        # all open and with one edge cut: the two sides meet after half the
        # 20 000-node path each, and on the star the centre's side queues
        # every node but the other side's start, n - 1 entries, all a side
        # can hold, into queues of exactly n entries
        path, star = adversarial_orders()
        for g, pairs in (
            (path, [(0, 19_999), (19_999, 0), (0, 1), (9_999, 10_000), (12_345, 3)]),
            (star, [(59, 58), (58, 59), (59, 0), (0, 58), (3, 4)]),
        ):
            n, m = g.num_nodes, g.num_edges
            mark, queues = [0] * n, ([-1] * n, [-1] * n)
            stamp, fills = 1, []
            for cut in (None, 0, m // 2, m - 1):
                z = [1] * m
                if cut is not None:
                    z[cut] = 0
                labels, _ = dfs_component_labels(g, z)
                for i, j in pairs:
                    for queue in queues:
                        queue[:] = [-1] * n
                    stamp += 2
                    joined = _connected(g.adjacency, z, i, j, (), mark, stamp, *queues)
                    assert joined == (labels[i] == labels[j]), (n, cut, i, j)
                    fills += [n - queue.count(-1) for queue in queues]
            assert max(fills) == (n - 1 if g is star else n // 2)

    def test_open_short_cycle_means_joined(self):
        # the fast path answers yes when one listed cycle is fully open;
        # dense configurations make it fire often
        rnd = random.Random(1515)
        graphs = [random_graph(rnd, max_nodes=8, max_edges=20) for _ in range(240)]
        graphs += [grid_graph(5, 5), complete_graph(4), complete_graph(6)]
        fired = 0
        for g in graphs:
            for _ in range(3):
                density = rnd.choice((0.5, 0.7, 0.9))
                z = [1 if rnd.random() < density else 0 for _ in range(g.num_edges)]
                for e in range(g.num_edges):
                    if any(z[a] and z[b] and z[c] for a, b, c in g.short_cycles[e]):
                        fired += 1
                        assert joined_without_edge(g, z, e)
                    assert connected_without_edge(g, z, e, [0] * g.num_nodes) == joined_without_edge(g, z, e)
        assert fired > 1000


def rejects(g, world, config) -> bool:
    try:
        require_support(g, world, config)
    except InvalidConfigError:
        return True
    return False


class TestDegreeParity:
    """The even-degree rule of the subgraphs guard."""

    def test_all_zero(self):
        assert not rejects(fixture_graph("triangle"), "subs", (0, 0, 0))

    def test_triangle_full_even(self):
        assert not rejects(fixture_graph("triangle"), "subs", (1, 1, 1))

    def test_single_edge_odd(self):
        with pytest.raises(InvalidConfigError, match="odd degree"):
            require_support(fixture_graph("k2"), "subs", (1,))

    def test_matches_brute_degrees(self):
        rnd = random.Random(5)
        for _ in range(100):
            g = random_graph(rnd, max_nodes=7, max_edges=12)  # no zero couplings
            y = tuple(rnd.randint(0, 1) for _ in range(g.num_edges))
            assert rejects(g, "subs", y) == any(d % 2 for d in brute_degrees(g, y))

    def test_positive_weight_implies_even(self):
        rnd = random.Random(6)
        g = fixture_graph("k4")
        for _ in range(64):
            y = tuple(rnd.randint(0, 1) for _ in range(g.num_edges))
            assert rejects(g, "subs", y) == (weight_subs(g, y) == 0.0)


class TestRequireSupport:
    def test_agrees_with_the_oracle(self):
        # the guard rejects exactly the rows whose batch log weight is -inf
        rnd = random.Random(9082151)
        rejected = dict.fromkeys(("spins", "subs", "rc"), 0)
        for _ in range(160):
            g = random_graph(rnd, extreme_share=0.3)
            for world in rejected:
                table = enumerate_world(g, world)
                for config, log_weight in zip(table.configs, table.log_weights):
                    assert rejects(g, world, config) == (log_weight == -math.inf), (g, world, config)
                    rejected[world] += log_weight == -math.inf
        assert min(rejected.values()) > 0

    def test_field_then_shape_then_support(self):
        g = WeightedGraph.from_edges(2, [(0, 1, math.inf)], field={0: 1.0})
        with pytest.raises(InvalidConfigError, match="magnetic field"):
            require_support(g, "spins", (1,))
        g = g.without_field()
        with pytest.raises(InvalidConfigError, match="length 1, expected 2"):
            require_support(g, "spins", (1,))
        with pytest.raises(InvalidConfigError, match="values must be -1 or \\+1, got 0"):
            require_support(g, "spins", (1, 0))
        with pytest.raises(InvalidConfigError, match="infinite coupling"):
            require_support(g, "spins", (1, -1))

    def test_rc_rules_name_the_lowest_edge(self):
        g = WeightedGraph.from_edges(3, [(0, 1, math.inf), (1, 2, 0.0), (0, 2, 0.5)])
        with pytest.raises(InvalidConfigError, match="edge 0 is closed but has p = 1"):
            require_support(g, "rc", (0, 1, 0))
        with pytest.raises(InvalidConfigError, match="edge 1 is open but has zero coupling"):
            require_support(g, "rc", (1, 1, 0))
        require_support(g, "rc", (1, 0, 1))
        with pytest.raises(InvalidConfigError, match="edge 1 is open but has zero coupling"):
            require_support(g, "subs", (1, 1, 1))  # before the parity check


class TestValidateConfig:
    @pytest.mark.parametrize("world", ["subs", "rc"])
    def test_values_equal_to_zero_or_one_pass(self, world):
        validate_config(fixture_graph("triangle"), world, [True, 1.0, 0])

    def test_samplers_return_fresh_ints(self):
        # True and 1.0 pass the guard as 1, but no output passes them on:
        # the heat-bath step, the labels and every conversion, rc_to_subs
        # included
        g, z = fixture_graph("triangle", 0.5), (True, 1.0, False)
        inputs = {"rc": z, "subs": (True, 1.0, 1.0), "spins": (True, 1.0, -1.0)}
        outputs = [
            heat_bath_rc_step(g, z, 0, 0.9),
            heat_bath_rc_step(g, z, 2, 0.1),
            heat_bath_rc_step(g, (True, False, True), 1, 0.5),
            clusters(g, z).component_id,
        ]
        outputs += [convert(g, inputs[source], RngStream(3)) for (source, _), convert in REDUCTIONS.items()]
        assert outputs[0] == (0, 1, 0) and outputs[1] == (1, 1, 1)
        # a buffer of 8-byte ints is read by value, not byte by byte
        for buffered in (array("l", (1, 1, 0)), np.array((1, 1, 0), dtype=np.int64)):
            steps = [heat_bath_rc_step(g, buffered, 0, 0.9), heat_bath_rc_step(g, buffered, 2, 0.1)]
            assert steps == outputs[:2]
            outputs += steps
        for config in outputs:
            assert all(type(v) is int for v in config), config

    @pytest.mark.parametrize("bad", [[1], {1}, 2, 0.5, "1", float("nan")])
    def test_bad_values_are_named(self, bad):
        # the set lookup cannot hash a list or a set; the loop still names them
        message = f"edge values must be 0 or 1, got {re.escape(repr(bad))}"
        with pytest.raises(InvalidConfigError, match=message):
            validate_config(fixture_graph("triangle"), "rc", (0, bad, 1))

    def test_first_bad_value_is_named(self):
        with pytest.raises(InvalidConfigError, match="got 3"):
            validate_config(fixture_graph("triangle"), "spins", (1, 3, [0]))


class TestSerialization:
    def test_round_trip(self):
        assert config_to_string("spins", (1, -1, 1)) == "+-+"
        assert config_from_string("spins", "+-+") == (1, -1, 1)
        assert config_to_string("rc", (0, 1, 1)) == "011"
        assert config_from_string("subs", "011") == (0, 1, 1)
        # values equal to a legal one pass, as validate_config lets them
        assert config_to_string("rc", (True, 1.0, 0)) == "110"
        assert config_to_string("spins", (1.0, -1, True)) == "+-+"

    def test_round_trip_on_every_fixture(self):
        for name in FIXTURE_NAMES:
            for world in ("spins", "subs", "rc"):
                for config in enumerate_world(fixture_graph(name), world).configs:
                    assert config_from_string(world, config_to_string(world, config)) == config

    def test_bad_values(self):
        rules = {"spins": ((1, -1, 1), "spin values must be -1 or +1"),
                 "subs": ((0, 1, 1), "edge values must be 0 or 1"), "rc": ((0, 1, 1), "edge values must be 0 or 1")}
        for world, (good, rule) in rules.items():
            for bad in (2, 0 if world == "spins" else -1, "1", [1]):
                for config in ((bad, *good), (*good[:1], bad, *good[1:]), (*good, bad)):
                    with pytest.raises(InvalidConfigError) as raised:
                        config_to_string(world, config)
                    assert str(raised.value) == f"{rule}, got {bad!r}", config

    def test_bad_characters(self):
        with pytest.raises(InvalidConfigError):
            config_from_string("spins", "+0")
        with pytest.raises(InvalidConfigError):
            config_from_string("rc", "+1")
        rules = {"spins": ("+-+", "spin strings use '+'/'-'"), "subs": ("011", "edge strings use '0'/'1'"),
                 "rc": ("011", "edge strings use '0'/'1'")}
        for world, (good, rule) in rules.items():
            for bad in ("x", "1" if world == "spins" else "-", "'"):
                for text in (bad + good, good[:1] + bad + good[1:], good + bad):
                    with pytest.raises(InvalidConfigError) as raised:
                        config_from_string(world, text)
                    assert str(raised.value) == f"{rule}, got {bad!r}", text


class TestStatistics:
    def test_spins_statistics(self):
        g = fixture_graph("triangle", 0.5)
        x = (1, 1, -1)
        assert require_statistic("spins", "m")(g, x) == 1.0
        assert require_statistic("spins", "energy")(g, x) == pytest.approx(-0.5 * (1 - 1 - 1))
        assert require_statistic("spins", "clusters")(g, x) == 2.0  # {0,1} agree, {2}

    def test_edge_statistics(self):
        g = fixture_graph("triangle", 0.5)
        assert require_statistic("rc", "edges")(g, (1, 0, 0)) == 1.0
        assert require_statistic("subs", "clusters")(g, (1, 1, 1)) == 1.0

    def test_table_matches_plain_references(self):
        rnd = random.Random(515)
        for _ in range(200):
            g = random_graph(rnd, max_nodes=8, max_edges=14, extreme_share=0.3)
            x = tuple(rnd.choice((-1, 1)) for _ in range(g.num_nodes))
            z = tuple(rnd.randint(0, 1) for _ in range(g.num_edges))
            agree = [1 if x[i] == x[j] else 0 for i, j in g.edges]
            energy = sum(-b * x[i] * x[j] for (i, j), b in zip(g.edges, g.betas) if b != math.inf)
            assert require_statistic("spins", "m")(g, x) == sum(x)
            assert require_statistic("spins", "energy")(g, x) == pytest.approx(energy)
            assert require_statistic("spins", "clusters")(g, x) == dfs_component_labels(g, agree)[1]
            for world in ("subs", "rc"):
                assert require_statistic(world, "edges")(g, z) == sum(z)
                assert require_statistic(world, "clusters")(g, z) == dfs_component_labels(g, z)[1]

    def test_energy_equals_the_product_form_bit_for_bit(self):
        # spins_energy adds or subtracts beta by agreement; the product form
        # subtracts beta * x_i * x_j, which for +/-1 spins is the same float
        # operation, signed zeros included
        def product_energy(g, x):
            total = 0.0
            for (i, j), beta in zip(g.edges, g.betas):
                if beta != math.inf:
                    total -= beta * x[i] * x[j]
            return total

        def same(a, b):
            return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)

        rnd = random.Random(2931)
        betas = (0.0, 1e-300, 0.44, 18.8, math.inf)
        for _ in range(300):
            n = rnd.randint(1, 10)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            edges = tuple(sorted(rnd.sample(pairs, rnd.randint(0, len(pairs)))))
            g = WeightedGraph(n, edges, tuple(rnd.choice(betas) for _ in edges))
            for _ in range(3):
                x = tuple(rnd.choice((-1, 1)) for _ in range(n))
                assert same(spins_energy(g, x), product_energy(g, x)), (g, x)
        zero = complete_graph(5, 0.0)
        for x in ((1, 1, 1, 1, 1), (1, -1, 1, -1, -1), (-1,) * 5):
            assert same(spins_energy(zero, x), 0.0)

    def test_table_order(self):
        # the CLI summary lists each world's statistics in this order
        assert {world: list(table) for world, table in STATISTICS.items()} == {
            "spins": ["m", "energy", "clusters"],
            "subs": ["edges", "clusters"],
            "rc": ["edges", "clusters"],
        }

    def test_unknown_statistic(self):
        from isingworlds import UnknownStatisticError

        with pytest.raises(UnknownStatisticError):
            require_statistic("subs", "m")
        with pytest.raises(UnknownStatisticError):
            require_statistic("spins", "nope")
