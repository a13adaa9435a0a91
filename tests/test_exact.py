"""Enumeration tables, identities, kernel matrices, and counting."""

import gc
import math
import random
import tracemalloc
from bisect import bisect_right
from itertools import product
from types import SimpleNamespace

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
    kernel_stationarity_error,
    reduce_unidirectional_field,
    tv_distance,
)
from isingworlds import cli, exact
from isingworlds.fixtures import FIXTURE_NAMES, complete_graph, fixture_graph, fixture_path, grid_graph, path_graph
from isingworlds.reductions import REDUCTIONS
from isingworlds.worlds import require_support
from isingworlds.exact import inverse_cdf, weight_rc, weight_subs

SCALAR_WEIGHTS = {"subs": weight_subs, "rc": weight_rc}


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


def band_graphs(seed: int, count: int):
    """Field-free random graphs with couplings of 0 and inf, some forced
    into 18.7 < beta < 19.1 (where p rounds to 1 before lambda does) and
    some scaled up to ~400."""
    rnd = random.Random(seed)
    for _ in range(count):
        g = random_graph(rnd, max_nodes=5, max_edges=7, extreme_share=0.3)
        betas = tuple(rnd.choice((b, rnd.uniform(18.7, 19.1), b * 250.0)) for b in g.betas)
        yield WeightedGraph(g.num_nodes, g.edges, betas)


def field_graphs(seed: int, count: int):
    """Random graphs with couplings of 0 and inf and a sign-uniform field
    whose values are 0, finite or infinite, the sign alternating."""
    rnd = random.Random(seed)
    for k in range(count):
        g = random_graph(rnd, max_nodes=5, max_edges=7, extreme_share=0.3)
        sign = 1.0 if k % 2 else -1.0
        field = tuple(sign * rnd.choice((0.0, rnd.uniform(0.1, 3.0), math.inf)) for _ in range(g.num_nodes))
        yield WeightedGraph(g.num_nodes, g.edges, g.betas, field)


class TestEnumeration:
    def test_k2_partition_sums(self):
        beta = 0.8
        tables = exact_tables(fixture_graph("k2", beta))
        assert tables.spins.log_Z == pytest.approx(math.log(4 * math.cosh(beta)), rel=1e-12)
        assert tables.subs.log_Z == 0.0  # only the empty subgraph is even
        p = 1 - math.exp(-2 * beta)
        assert tables.rc.log_Z == pytest.approx(math.log(4 - 2 * p), rel=1e-12)

    def test_triangle_subs_partition(self):
        lam = math.tanh(0.6)
        tables = exact_tables(fixture_graph("triangle", 0.6))
        assert tables.subs.log_Z == pytest.approx(math.log1p(lam**3), rel=1e-12)

    def test_probabilities_sum_to_one(self):
        for name in FIXTURE_NAMES:
            g = fixture_graph(name, 0.5)
            for world in ("spins", "subs", "rc"):
                table = enumerate_world(g, world)
                assert abs(float(table.probs.sum()) - 1.0) < 1e-12
                assert (table.probs >= 0.0).all() and not np.isnan(table.log_weights).any()

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
        assert table.probs[table.index([(1,)])[0]] == pytest.approx(0.75)


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
                expected_log = [reference_log_weight(g, world, c) for c in configs]
                log_weights = table.log_weights
                assert bit_equal(log_weights, expected_log), (g, world)
                # the scalar weights are the table's formula on one row,
                # exponentiated for the edge worlds
                for r in rnd.sample(range(len(configs)), min(3, len(configs))):
                    assert bit_equal(exact._one_row(g, world, configs[r]), log_weights[r])
                    if world in SCALAR_WEIGHTS:
                        assert bit_equal(SCALAR_WEIGHTS[world](g, configs[r]), math.exp(log_weights[r]))

    @pytest.mark.parametrize("beta", [0.0, 0.44, 5.0, "mixed"])
    def test_one_domain_on_every_fixture(self, beta):
        # every fixture (and, at 0.44, the edge-cap graph) runs the one log
        # fold: its log weights are the reference loop's bit for bit, its
        # probabilities the linear reference weights normalised, and its
        # identities pass at the fixed tolerance
        graphs = []
        for name in FIXTURE_NAMES:
            m = fixture_graph(name).num_edges
            graphs.append(fixture_graph(name, [(0.3, math.inf, 0.0, 1.2)[e % 4] for e in range(m)]
                                        if beta == "mixed" else beta))
        if beta == 0.44:
            graphs.append(cap_graph())
        rnd = random.Random(34)
        for g in graphs:
            for world in ("spins", "subs", "rc"):
                table = enumerate_world(g, world)
                if len(table.log_weights) <= 1 << 12:
                    rows = range(len(table.log_weights))
                    expected = np.array([reference_weight(g, world, c) for c in table.configs])
                    assert np.allclose(table.probs, expected / math.fsum(expected), rtol=1e-13, atol=0), (g, world)
                else:  # the cap graph's edge worlds: 2**20 rows, a sample of them
                    rows = sorted(rnd.sample(range(len(table.log_weights)), 2000))
                configs = [tuple(c) for c in table.rows(np.array(rows)).tolist()]
                expected_log = [reference_log_weight(g, world, c) for c in configs]
                assert bit_equal(table.log_weights[rows], expected_log), (g, world)
            reports = [check_rc_normalizer(g)]
            if beta != "mixed":
                reports += check_relate_identity(g)
            for report in reports:
                assert report.passed and report.tolerance == exact.IDENTITY_TOL, (g, report)

    def test_cluster_counts_match_a_plain_dfs(self):
        rnd = random.Random(77)
        isolated = 0
        for _ in range(150):
            g = random_graph(rnd, max_nodes=9, max_edges=8)
            isolated += g.num_nodes - len({v for edge in g.edges for v in edge})
            table = enumerate_world(g, "rc")
            expected = [dfs_component_labels(g, z)[1] for z in table.configs]
            counts = exact.cluster_counts(g.num_nodes, g.edges, table.rows(np.arange(len(table.log_weights))))
            assert counts.tolist() == expected
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
        assert table.log_Z > -math.inf and "configs" not in vars(table)
        assert tuple(table.rows(table.support)[0]) == (0,) * 12 and "configs" not in vars(table)


def cap_graph() -> WeightedGraph:
    """20 edges, the edge-world cap: the 3x4 grid plus three chords, beta 0.44."""
    grid = grid_graph(3, 4, 0.44)
    return WeightedGraph(grid.num_nodes, grid.edges + ((0, 5), (5, 10), (2, 7)), (0.44,) * 20)


def traced(fn, *args):
    """``fn(*args)`` with the bytes it still holds on return and its peak."""
    tracemalloc.start()
    try:
        result = fn(*args)
        gc.collect()  # a full collection empties the free lists, which tracemalloc counts as held
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


class TestBlockedTables:
    """Tables keep log weights, not configurations, and are built and read
    a block of rows at a time."""

    @pytest.mark.parametrize("world", ["spins", "subs", "rc"])
    def test_blocks_match_a_single_block_bit_for_bit(self, world, monkeypatch):
        # 16 edges: 4 blocks of 2**14 rows for the edge worlds; a ragged
        # block size splits the 12-node spins table as well
        rnd = random.Random(5)
        grid = grid_graph(3, 4)
        betas = tuple(rnd.choice((0.0, math.inf, rnd.uniform(0.05, 2.0))) for _ in range(16))
        g = WeightedGraph(grid.num_nodes, grid.edges[:16], betas)
        tables = {}
        for rows in (1 << 16, exact.BLOCK_ROWS, 1000):
            monkeypatch.setattr(exact, "BLOCK_ROWS", rows)
            table = enumerate_world(g, world)
            tables[rows] = (table.log_weights, table.probs, table.configs,
                            table.rows(table.support).tolist(), table.log_Z)
        (log_weights, probs, configs, support_rows, log_Z), *blocked = tables.values()
        for other in blocked:
            assert bit_equal(other[0], log_weights) and bit_equal(other[1], probs)
            assert other[2] == configs and other[3] == support_rows
            assert bit_equal(other[4], log_Z)

    @pytest.mark.parametrize("world", ["subs", "rc"])
    def test_table_memory_per_row(self, world):
        # log weights 8 bytes a row; building holds one block of
        # configurations, and an rc block its cluster counts, at a time on top
        g = cap_graph()
        table, held, peak = traced(enumerate_world, g, world)
        assert len(table.log_weights) == 1 << 20
        assert held <= 10 * (1 << 20)
        assert peak <= held + 256 * exact.BLOCK_ROWS

    def test_even_subgraph_count_memory(self):
        report, _, peak = traced(check_even_subgraph_count, cap_graph(), (1,) * 20)
        assert report.passed
        assert peak <= 256 * exact.BLOCK_ROWS

    def test_empirical_distribution_memory(self):
        # the counts and the histogram, 8 bytes a row each, and no
        # per-row tuples: the bound is 3 * 8 bytes a row of the rc table
        table = enumerate_world(cap_graph(), "rc")
        samples = inverse_cdf(table)(RngStream(2), 1000)
        hist, _, peak = traced(empirical_distribution, samples, table)
        assert hist.sum() == 1.0 and np.count_nonzero(hist) == len(set(samples))
        assert peak <= 3 * 8 * (1 << 20)

    def test_draw_memory(self):
        # a table draws from its probs, built in place, and their
        # cumulative sum alone, without the support
        table = enumerate_world(cap_graph(), "rc")
        samples, _, peak = traced(lambda: inverse_cdf(table)(RngStream(2), 1000))
        assert len(samples) == 1000
        assert peak <= 3 * 8 * (1 << 20)
        assert "support" not in vars(table)


class TestRowIndex:
    def test_index_inverts_rows(self):
        for g in [fixture_graph(name, 0.5) for name in FIXTURE_NAMES] + [WeightedGraph(0, (), ())]:
            for world in ("spins", "subs", "rc"):
                table = enumerate_world(g, world)
                every = np.arange(len(table.log_weights))
                assert table.index(table.configs).tolist() == every.tolist(), (g, world)
                assert np.array_equal(table.index(table.rows(every)), every), (g, world)

    def test_index_rejects_a_wrong_length(self):
        table = enumerate_world(fixture_graph("k2", 0.5), "rc")
        with pytest.raises(InvalidConfigError, match="length"):
            table.index([(0,), (0, 1)])

    def test_index_rejects_a_spin_value_in_an_edge_world(self):
        for world in ("subs", "rc"):
            table = enumerate_world(fixture_graph("triangle", 0.5), world)
            with pytest.raises(InvalidConfigError, match="0 or 1"):
                table.index([(0, 1, 1), (0, -1, 1)])


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
        assert abs(math.exp(tables.spins.log_Z) / rhs - 1) < 1e-12

    def test_relate_rejects_infinite(self):
        from isingworlds import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            check_relate_identity(complete_graph(2, math.inf))

    def test_relate_log_domain_path(self):
        # beta large enough that exp(sum beta) overflows a float
        g = fixture_graph("k2", 800.0)
        for report in check_relate_identity(g):
            assert report.passed and report.relative_error < 1e-10

    def test_rc_normalizer_k2_closed_form(self):
        beta = 0.8
        g = fixture_graph("k2", beta)
        report = check_rc_normalizer(g)
        assert report.passed
        p = 1 - math.exp(-2 * beta)
        assert report.lhs == pytest.approx(math.log(4 - 2 * p), rel=1e-12)
        assert report.rhs == pytest.approx(math.log(2 * (2 - p)), rel=1e-12)

    def test_rc_normalizer_handles_infinite(self):
        g = WeightedGraph.from_edges(3, [(0, 1, math.inf), (1, 2, 0.5)])
        assert check_rc_normalizer(g).passed

    def test_rc_normalizer_edgeless(self):
        g = WeightedGraph(3, (), ())
        report = check_rc_normalizer(g)
        assert report.passed and report.lhs == 3 * math.log(2.0)

    def test_rc_normalizer_mixed_cycle(self):
        g = fixture_graph("cycle4", [0.1, 0.6, 1.3, 2.2])
        report = check_rc_normalizer(g)
        assert report.passed and report.relative_error < 1e-12

    def test_oracle_entries_refuse_another_graphs_tables(self):
        # the tables of the triangle at beta = 0.9 would make the beta = 0.5
        # identities fail instead of saying what went wrong
        g = fixture_graph("triangle", 0.5)
        other = exact_tables(fixture_graph("triangle", 0.9))
        entries = (
            check_relate_identity,
            check_rc_normalizer,
            lambda g, tables: exact_kernel_matrix(g, "rc_to_subs", tables),
            lambda g, tables: kernel_stationarity_error(g, "sw_classic", tables),
        )
        for entry in entries:
            with pytest.raises(InvalidParameterError, match="belong to another graph"):
                entry(g, tables=other)


@pytest.fixture
def enumerated(monkeypatch):
    """The worlds enumerated during a test, in order."""
    worlds = []
    world_spec = exact._world_spec

    def counting(g, world):
        worlds.append(world)
        return world_spec(g, world)

    monkeypatch.setattr(exact, "_world_spec", counting)
    return worlds


class TestLogDomainFallback:
    """Partition sums past float range: the identities read each table's
    log Z, without enumerating any world again."""

    def test_rc_weight_overflow_is_inf(self):
        assert weight_rc(WeightedGraph(1100, (), ()), ()) == math.inf

    @pytest.mark.parametrize(
        "g",
        [WeightedGraph(1100, (), ()), WeightedGraph(1100, ((0, 1),), (math.inf,))],
        ids=["edgeless", "inf-edge"],
    )
    def test_rc_normalizer_past_float_range(self, g, enumerated):
        report = check_rc_normalizer(g)
        assert report.passed
        assert sorted(enumerated) == ["rc", "subs"]

    def test_relate_with_tables_enumerates_nothing_more(self, enumerated):
        g = fixture_graph("k2", 800.0)
        tables = exact_tables(g)
        assert sorted(enumerated) == ["rc", "spins", "subs"]
        reports = check_relate_identity(g, tables=tables)
        assert all(r.passed for r in reports)
        assert len(enumerated) == 3

    def test_relate_without_tables_enumerates_each_world_once(self, enumerated):
        reports = check_relate_identity(fixture_graph("k2", 800.0))
        assert all(r.passed for r in reports)
        assert sorted(enumerated) == ["rc", "spins", "subs"]


class TestEnumeratesWhatItReads:
    """An oracle entry without tables, and ``verify``, enumerate the worlds
    they read, each once."""

    def test_kernel_matrix(self, enumerated):
        exact_kernel_matrix(fixture_graph("triangle", 0.5), "subs_to_rc")
        assert enumerated == ["subs", "rc"]

    def test_stationarity(self, enumerated):
        kernel_stationarity_error(fixture_graph("triangle", 0.5), "sw_classic")
        assert enumerated == ["spins", "rc"]

    def test_verify_all_identities(self, enumerated, capsys):
        assert cli.main(["verify", "--graph", str(fixture_path("triangle", "beta")), "--all-identities"]) == 0
        assert sorted(enumerated) == ["rc", "spins", "subs"]

    def test_verify_sparse_huge_graph_enumerates_only_the_edge_worlds(self, enumerated, tmp_path, capsys):
        edges = "".join(f"{i} {i + 1 + k} inf\n" for k, i in enumerate(range(0, 200_000, 25_000)))
        graph = tmp_path / "sparse.graph"
        graph.write_text(f"param beta\nnodes 200000\n{edges}", encoding="utf-8")
        assert cli.main(["verify", "--graph", str(graph), "--all-identities"]) == 0
        assert sorted(enumerated) == ["rc", "subs"]


class TestIdentityGatesCatchAPlantedDefect:
    """Edge 0's lambda scaled by 1 + 1e-8 in the subgraphs weights: every
    identity through Z_subs fails, at ordinary and at huge beta or node
    counts, while spins_vs_rc, which does not read Z_subs, still passes."""

    # graph -> {check: passes once planted}
    CASES = {
        "triangle": (fixture_graph("triangle", 0.5), {
            "spins_vs_rc": True, "spins_vs_subs": False, "rc_normalizer": False,
        }),
        "triangle-beta-800": (fixture_graph("triangle", 800.0), {
            "spins_vs_rc": True, "spins_vs_subs": False, "rc_normalizer": False,
        }),
        "triangle-1100-nodes": (WeightedGraph(1100, ((0, 1), (1, 2), (0, 2)), (0.5,) * 3), {
            "rc_normalizer": False,
        }),
        # log Z near 7.4e5: the tolerance is 8 ulps, 9.3e-10
        "k4-beta-123456.789": (complete_graph(4, 123456.789), {
            "spins_vs_rc": True, "spins_vs_subs": False, "rc_normalizer": False,
        }),
    }

    @staticmethod
    def reports(g):
        reports = [check_rc_normalizer(g)]
        if g.num_nodes <= exact.SPINS_ENUM_NODE_CAP:
            reports += check_relate_identity(g)
        return {r.name: r for r in reports}

    @staticmethod
    def plant(monkeypatch):
        values, subs_factors = exact._WORLD_SPECS["subs"]

        def planted(g, ys, ruled_out):
            factors = subs_factors(g, ys, ruled_out)
            flags, (log_unset, log_lam) = next(factors)
            yield flags, (log_unset, log_lam + math.log1p(1e-8))
            yield from factors

        monkeypatch.setitem(exact._WORLD_SPECS, "subs", (values, planted))

    @pytest.mark.parametrize("case", CASES)
    def test_unplanted_checks_pass(self, case):
        g, expected = self.CASES[case]
        reports = self.reports(g)
        assert reports.keys() == expected.keys()
        for name in expected:
            assert reports[name].passed, name

    @pytest.mark.parametrize("case", CASES)
    def test_planted_defect_fails_the_checks_that_read_it(self, case, monkeypatch):
        g, expected = self.CASES[case]
        self.plant(monkeypatch)
        reports = self.reports(g)
        for name, passed in expected.items():
            report = reports[name]
            assert report.passed == passed, name
            if not passed:  # the plant's own size, not a blowup
                assert 1e-10 < report.relative_error < 1e-7, (name, report.relative_error)


class TestHugeFiniteBeta:
    """Finite couplings far past the linear range: the identities allow
    the rounding of log Z, the tables' probabilities do not depend on it,
    and couplings that sum past float range are refused."""

    @staticmethod
    def graphs():
        rnd = random.Random(33)
        k4 = complete_graph(4)
        yield complete_graph(4, 123456.789)
        for _ in range(60):
            yield complete_graph(4, [1e5 * rnd.uniform(0.5, 2.0) for _ in k4.edges])
        for scale in (1e15, 1e16, 1e20, 1e100):
            for base in (complete_graph(5), grid_graph(3, 3), grid_graph(3, 4)):
                yield WeightedGraph(base.num_nodes, base.edges,
                                    tuple(scale * rnd.uniform(0.5, 2.0) for _ in base.edges))

    def test_identities_pass_within_the_rounding_of_log_z(self):
        for g in self.graphs():
            for report in [*check_relate_identity(g), check_rc_normalizer(g)]:
                assert report.passed, (g.betas, report)
                larger = max(abs(report.lhs), abs(report.rhs))
                assert report.tolerance == max(exact.IDENTITY_TOL, 8 * math.ulp(larger))

    @pytest.mark.parametrize("beta", [1e13, 1e15, 1e300])
    def test_probabilities_are_exact(self, beta):
        # path3: half on +++ and half on ---, the first and the last row
        probs = enumerate_world(path_graph(3, beta), "spins").probs
        assert probs[0] == probs[-1] == 0.5
        assert not probs[1:-1].any()

    def test_couplings_past_float_range_are_refused(self, enumerated):
        g = path_graph(3, 1e308)
        with pytest.raises(InvalidParameterError, match="past float range"):
            check_relate_identity(g)
        assert enumerated == []  # refused before any enumeration
        with pytest.raises(InvalidParameterError, match="past float range"):
            enumerate_world(g, "spins")
        # the edge worlds' weights stay finite: both sides pinned
        assert check_rc_normalizer(g).passed
        for world in ("subs", "rc"):
            assert enumerate_world(g, world).probs.sum() == 1.0

    def test_field_values_count_towards_the_range(self):
        # each value fits; the coupling and the field together do not, nor
        # two negative field values, whose all-up row sums to -2e308
        for g in (WeightedGraph(2, ((0, 1),), (1e308,), (1e308, -math.inf)),
                  WeightedGraph(2, (), (), (-1e308, -1e308))):
            with pytest.raises(InvalidParameterError, match="past float range"):
                enumerate_world(g, "spins")
        assert enumerate_world(WeightedGraph(2, ((0, 1),), (1e308,), (0.0, -math.inf)), "spins").log_Z > -math.inf


class _BranchBits:
    """The stand-in stream of the branching driver below: the k-th draw
    with 0 < q < 1 returns ``bits[k]``, 0 past the preset bits."""

    def __init__(self, bits):
        self.bits, self.qs = bits, []

    def bernoullis(self, qs):
        out = []
        for q in qs:
            if 0.0 < q < 1.0:
                if len(self.qs) == len(self.bits):
                    self.bits.append(0)
                out.append(self.bits[len(self.qs)])
                self.qs.append(q)
            else:
                out.append(int(q))
        return out


def branching_matrix(g, kernel, tables):
    """A conversion's matrix by depth-first branching on its draws: each
    run answers the draws past its preset bits with 0, and each such 0
    starts a branch that presets it to 1."""
    source_world, target_world = exact.KERNEL_SPECS[kernel]
    source, target = getattr(tables, source_world), getattr(tables, target_world)
    convert = REDUCTIONS[(source_world, target_world)]
    rows = [tuple(row) for row in source.rows(source.support).tolist()]
    column = {tuple(row): c for c, row in enumerate(target.rows(target.support).tolist())}
    matrix = np.zeros((len(rows), len(column)))
    for r, config in enumerate(rows):
        pending = [[]]
        while pending:
            rng = _BranchBits(pending.pop())
            preset = len(rng.bits)
            c = column.get(convert(g, config, rng))
            pending.extend(rng.bits[:k] + [1] for k in range(preset, len(rng.bits)))
            if c is not None:
                prob = 1.0
                for q, bit in zip(rng.qs, rng.bits):
                    prob *= q if bit else 1.0 - q
                matrix[r, c] += prob
    return matrix


class TestKernelMatrices:
    def test_rows_stochastic(self):
        # p rounds to 1 at 18.8 and 19.0, where lambda does not yet
        for betas in ([0.0, 0.4, 1.0, math.inf], [0.0, 18.8, 19.0, math.inf],
                      [20.0, 300.0, 0.4, math.inf]):
            g = fixture_graph("cycle4", betas)
            tables = exact_tables(g)
            for kernel in ("subs_to_rc", "rc_to_subs", "spins_to_rc", "rc_to_spins",
                           "sw_classic", "sw_subgraphs"):
                km = exact_kernel_matrix(g, kernel, tables)
                assert np.max(np.abs(km.matrix.sum(axis=1) - 1.0)) < 1e-12, (betas, kernel)

    def test_guards_and_oracle_agree_at_large_beta(self):
        # the guard rejects exactly the rows of log weight -inf, and every
        # conversion, over all of its draws, lands on rows of finite log weight
        rejected = dict.fromkeys(("spins", "subs", "rc"), 0)
        band_edges = 0
        for g in band_graphs(1607, 80):
            band_edges += sum(p == 1.0 and b < math.inf for p, b in zip(g.ps, g.betas))
            tables = exact_tables(g)
            for world in rejected:
                table = getattr(tables, world)
                for config, log_weight in zip(table.configs, table.log_weights):
                    try:
                        require_support(g, world, config)
                    except InvalidConfigError:
                        assert log_weight == -math.inf, (g, world, config)
                        rejected[world] += 1
                    else:
                        assert log_weight > -math.inf, (g, world, config)
            for kernel in ("subs_to_rc", "rc_to_subs", "spins_to_rc", "rc_to_spins"):
                km = exact_kernel_matrix(g, kernel, tables)
                assert np.max(np.abs(km.matrix.sum(axis=1) - 1.0), initial=0.0) < 1e-12, (g, kernel)
        assert min(rejected.values()) > 0 and band_edges > 0

    def test_guards_and_oracle_agree_after_the_field_reduction(self):
        # +-inf field values merge their nodes into the anchor, where infinite
        # couplings can add up; the guard still rejects exactly the rows of
        # log weight -inf of the reduced graph
        rejected = dict.fromkeys(("spins", "subs", "rc"), 0)
        forced = 0
        for g in field_graphs(4177, 120):
            forced += sum(math.isinf(v) for v in g.field)
            reduced = reduce_unidirectional_field(g).graph
            tables = exact_tables(reduced)
            for world in rejected:
                table = getattr(tables, world)
                for config, log_weight in zip(table.configs, table.log_weights):
                    try:
                        require_support(reduced, world, config)
                    except InvalidConfigError:
                        assert log_weight == -math.inf, (g, world, config)
                        rejected[world] += 1
                    else:
                        assert log_weight > -math.inf, (g, world, config)
        assert min(rejected.values()) > 0 and forced > 0

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

    def test_leg_matrices_equal_the_branching_driver(self):
        # the outcome-mask driver gives every conversion matrix bit for bit,
        # at couplings of 0 and inf and where p rounds to 1
        grid2x3 = WeightedGraph(6, ((0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)),
                                (0.0, math.inf, 0.3, 0.0, math.inf, 0.7, 18.8))
        graphs = [complete_graph(5, 0.44), fixture_graph("k4", 0.45),
                  fixture_graph("cycle4", [0.0, 18.8, 19.0, math.inf]), grid2x3, *band_graphs(29, 12)]
        for g in graphs:
            tables = exact_tables(g)
            for kernel in exact.KERNEL_SPECS:
                km = exact_kernel_matrix(g, kernel, tables)
                assert bit_equal(km.matrix, branching_matrix(g, kernel, tables)), (g, kernel)

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

    def test_leg_matrices_keep_no_configurations(self):
        # the four conversion matrices on K5 hold their entries and read
        # their configurations from the tables, which exist before them
        g = complete_graph(5, 0.44)
        tables = exact_tables(g)
        for table in (tables.spins, tables.subs, tables.rc):
            table.support  # read once, outside the trace
        tracemalloc.start()
        try:
            kernels = [exact_kernel_matrix(g, k, tables) for k in exact.KERNEL_SPECS]
            gc.collect()  # a full collection empties the tuple free lists, which tracemalloc counts
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= sum(km.matrix.nbytes for km in kernels) + 64 * 1024
        assert kernels[0].source is tables.subs and kernels[0].target is tables.rc

    def test_field_graph_is_refused_by_the_conversions(self):
        g = WeightedGraph(3, ((0, 1), (1, 2), (0, 2)), (0.5, 0.5, 0.5), (0.7, 0.0, 0.0))
        with pytest.raises(InvalidConfigError, match="field"):
            exact_kernel_matrix(g, "rc_to_spins")

    def test_kernel_specs_are_the_rc_conversions(self):
        assert list(exact.KERNEL_SPECS.items()) == [
            ("subs_to_rc", ("subs", "rc")),
            ("rc_to_subs", ("rc", "subs")),
            ("rc_to_spins", ("rc", "spins")),
            ("spins_to_rc", ("spins", "rc")),
        ]

    def test_unknown_kernel(self):
        with pytest.raises(InvalidParameterError):
            exact_kernel_matrix(fixture_graph("k2", 0.5), "teleport")

    def test_cap(self):
        with pytest.raises(CapExceededError):
            exact_kernel_matrix(fixture_graph("grid3x3", 0.5), "subs_to_rc")

    def test_kernel_and_caps_checked_before_any_enumeration(self, monkeypatch):
        def refuse(g, world):
            raise AssertionError("enumerated before the kernel checks")

        monkeypatch.setattr(exact, "_world_spec", refuse)
        over_edges = fixture_graph("grid3x3", 0.5)  # 12 edges
        over_nodes = WeightedGraph(13, ((0, 1),), (0.5,))
        for entry in (exact_kernel_matrix, kernel_stationarity_error):
            with pytest.raises(InvalidParameterError):
                entry(fixture_graph("k2", 0.5), "teleport")
            for g in (over_edges, over_nodes):
                with pytest.raises(CapExceededError):
                    entry(g, "sw_classic")


class TestTvDistance:
    def test_identical(self):
        assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_point_mass_vs_uniform(self):
        assert tv_distance([1.0, 0.0], [0.5, 0.5]) == 0.5

    def test_disjoint(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_mismatched_support(self):
        with pytest.raises(InvalidParameterError):
            tv_distance([1.0], [0.5, 0.5])

    def test_empirical_distribution_checks_membership(self):
        table = enumerate_world(fixture_graph("k2", 0.5), "rc")
        with pytest.raises(InvalidConfigError):
            empirical_distribution([(0, 1)], table)

    def test_empirical_distribution_needs_a_sample(self):
        table = enumerate_world(fixture_graph("k2", 0.5), "rc")
        with pytest.raises(InvalidParameterError, match="at least one sample"):
            empirical_distribution([], table)

    def test_sample_count_nonnegative(self):
        table = enumerate_world(fixture_graph("k2", 0.5), "rc")
        rng = RngStream(0)
        # a bool, a float, a string or None is not a count either
        sample = inverse_cdf(table)
        for n in (-3, True, 2.5, "3", None):
            with pytest.raises(InvalidParameterError, match="nonnegative"):
                sample(rng, n)
        assert rng.draws == 0
        assert sample(rng, 0) == []

    @pytest.mark.parametrize("n", [0, 3])
    def test_sampling_needs_a_positive_weight_row(self, n):
        g = WeightedGraph(2, ((0, 1),), (math.inf,), (math.inf, -math.inf))
        table = enumerate_world(g, "spins")
        with pytest.raises(InvalidConfigError, match="positive weight"):
            inverse_cdf(table)(RngStream(0), n)

    def test_uniform_past_the_rounded_total_takes_a_positive_row(self):
        # a support row of finite log weight can have probability 0 (its
        # linear weight underflows) and sit last; cum[-1] < u must not pick it
        class Top:
            def uniforms(self, n, out):
                out.extend([0.9] * n)

        configs = np.array([(0, 0), (1, 0), (1, 1)], np.int8)
        table = SimpleNamespace(world="rc", log_Z=0.0, probs=np.array([0.25, 0.5, 0.0]), rows=configs.__getitem__)
        assert inverse_cdf(table)(Top(), 2) == [(1, 0), (1, 0)]

    def test_sampling_is_inverse_cdf_over_scalar_uniforms(self):
        table = enumerate_world(fixture_graph("cycle4", 0.7), "subs")
        support_probs = table.probs[table.support]
        support_configs = [tuple(c) for c in table.rows(table.support).tolist()]
        cum = np.cumsum(support_probs)
        for n in (0, 1, 500):
            rng, ref = RngStream(41, n), RngStream(41, n)
            samples = inverse_cdf(table)(rng, n)
            us = [ref.uniform() for _ in range(n)]
            expected = [support_configs[min(bisect_right(cum, u), len(cum) - 1)] for u in us]
            assert samples == expected and rng.draws == ref.draws == n
            assert rng.uniform() == ref.uniform()

    def test_sampling_round_trip(self):
        table = enumerate_world(fixture_graph("triangle", 0.9), "rc")
        samples = inverse_cdf(table)(RngStream(6), 20000)
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
