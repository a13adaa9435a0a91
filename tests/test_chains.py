"""Stationarity and bookkeeping of the cluster-update chains."""

import math
import random

import numpy as np
import pytest
from conftest import random_graph, reference_weight

from isingworlds import (
    InvalidConfigError,
    RngStream,
    UnknownStatisticError,
    WeightedGraph,
    draws,
    exact_kernel_matrix,
    exact_tables,
    sw_classic_step,
    sw_subgraphs_step,
    weight_subs,
)
from isingworlds.chains import ChainState, initial_state, run_chain
from isingworlds.fixtures import complete_graph, fixture_graph, path_graph
from isingworlds.worlds import STATISTICS


class TestClassicKernel:
    def test_zero_coupling_randomizes(self):
        g = complete_graph(3, 0.0)
        km = exact_kernel_matrix(g, "sw_classic")
        assert np.allclose(km.matrix, 1 / 8)

    def test_infinite_coupling_constant_output(self):
        g = complete_graph(3, math.inf)
        for seed in range(10):
            x = sw_classic_step(g, (1, 1, 1), RngStream(seed))
            assert len(set(x)) == 1

    @pytest.mark.parametrize(
        "name,beta",
        [
            ("k2", 0.5),
            ("path3", [0.4, 1.0]),
            ("triangle", 0.5),
            ("triangle", [0.0, 0.6, math.inf]),
            ("cycle4", 0.7),
            ("k4", [0.2, 0.4, 0.6, 0.8, 1.0, 1.2]),
        ],
    )
    def test_stationarity(self, name, beta):
        g = fixture_graph(name, beta)
        tables = exact_tables(g)
        km = exact_kernel_matrix(g, "sw_classic", tables)
        pi = tables.spins.probs[tables.spins.support]
        assert np.max(np.abs(pi @ km.matrix - pi)) < 1e-9


class TestSubgraphsKernel:
    def test_zero_coupling_pins_empty(self):
        g = complete_graph(3, 0.0)
        for seed in range(5):
            assert sw_subgraphs_step(g, (0, 0, 0), RngStream(seed)) == (0, 0, 0)

    def test_tree_pins_empty(self):
        g = path_graph(4, 0.9)
        for seed in range(5):
            assert sw_subgraphs_step(g, (0, 0, 0), RngStream(seed)) == (0, 0, 0)

    def test_triangle_stationary_vector(self):
        lam = 0.6
        g = fixture_graph("triangle", math.atanh(lam))
        tables = exact_tables(g)
        km = exact_kernel_matrix(g, "sw_subgraphs", tables)
        # stationary law of the two even subgraphs is (1, lam^3) / (1 + lam^3)
        pi = np.array([1.0, lam**3]) / (1.0 + lam**3)
        assert km.source_configs == ((0, 0, 0), (1, 1, 1))
        assert np.max(np.abs(pi @ km.matrix - pi)) < 1e-9

    @pytest.mark.parametrize(
        "name,beta",
        [("k2", 0.5), ("path3", 0.8), ("triangle", [0.3, 0.9, 2.0]), ("cycle4", 0.6), ("k4", 0.5)],
    )
    def test_stationarity(self, name, beta):
        g = fixture_graph(name, beta)
        tables = exact_tables(g)
        km = exact_kernel_matrix(g, "sw_subgraphs", tables)
        pi = tables.subs.probs[tables.subs.support]
        assert np.max(np.abs(pi @ km.matrix - pi)) < 1e-9

    def test_emitted_states_have_positive_weight(self):
        g = fixture_graph("triangle", [0.0, 0.7, math.inf])
        rng = RngStream(9)
        y = (0, 0, 0)
        for _ in range(200):
            y = sw_subgraphs_step(g, y, rng)
            assert weight_subs(g, y) > 0.0
        gx = fixture_graph("triangle", [0.0, 0.7, math.inf])
        x = (1, 1, 1)
        for _ in range(200):
            x = sw_classic_step(gx, x, rng)
            assert reference_weight(gx, "spins", x) > 0.0


class TestRunChain:
    def test_zero_steps_empty_trace(self):
        g = fixture_graph("triangle", 0.5)
        init = initial_state(g, "subs")
        trace = run_chain(g, init, 0, RngStream(1), ("edges",))
        assert len(trace) == 0
        assert trace.final.config == init.config

    def test_seed_determinism(self):
        g = fixture_graph("cycle4", 0.8)
        runs = [
            run_chain(g, initial_state(g, "spins"), 200, RngStream(77), ("m", "energy"))
            for _ in range(2)
        ]
        assert runs[0].values == runs[1].values
        assert runs[0].final.config == runs[1].final.config

    def test_thinning(self):
        g = fixture_graph("triangle", 0.5)
        trace = run_chain(g, initial_state(g, "subs"), 10, RngStream(4), ("edges",), thin=3)
        assert trace.steps == [3, 6, 9]

    def test_unknown_statistic_rejected(self):
        g = fixture_graph("triangle", 0.5)
        with pytest.raises(UnknownStatisticError):
            run_chain(g, initial_state(g, "subs"), 1, RngStream(0), ("m",))

    def test_unknown_statistic_rejected_before_any_draw(self):
        g = fixture_graph("triangle", 0.5)
        rng = RngStream(0)
        with pytest.raises(UnknownStatisticError, match="statistic 'm' is not defined for world 'subs'"):
            run_chain(g, initial_state(g, "subs"), 5, rng, ("edges", "m"))
        assert rng.draws == 0

    def test_statistics_evaluated_only_on_recorded_rows(self, monkeypatch):
        calls = []

        def counting(name, stat):
            return lambda g, config: calls.append(name) or stat(g, config)

        stats = ("m", "energy", "clusters")
        for name in stats:
            monkeypatch.setitem(STATISTICS["spins"], name, counting(name, STATISTICS["spins"][name]))
        g = fixture_graph("cycle4", 0.5)
        trace = run_chain(g, initial_state(g, "spins"), 12, RngStream(8), stats, thin=3)
        assert len(trace) == 12 // 3
        assert len(calls) == 12 // 3 * len(stats)

    def test_rc_world_has_no_kernel(self):
        g = fixture_graph("triangle", 0.5)
        with pytest.raises(InvalidConfigError):
            run_chain(g, ChainState("rc", (0, 0, 0)), 1, RngStream(0))

    @pytest.mark.parametrize(
        "state",
        [ChainState("spins", (1, 0)), ChainState("subs", (1,)), ChainState("subs", (1, 1))],
        ids=["bad spin", "odd degree", "short"],
    )
    def test_start_state_checked_even_without_steps(self, state):
        g = fixture_graph("k2", 0.5)
        with pytest.raises(InvalidConfigError):
            run_chain(g, state, 0, RngStream(0))

    def test_negative_steps_rejected(self):
        g = fixture_graph("k2", 0.5)
        with pytest.raises(InvalidConfigError):
            run_chain(g, initial_state(g, "subs"), -1, RngStream(0))

    @pytest.mark.parametrize(
        "steps, thin, stats",
        [(6, 1, ("m", "energy", "m")), (6, 1.5, ()), (True, 1, ()), (2.5, 1, ()), (6, True, ())],
        ids=["repeated stat", "float thin", "bool steps", "float steps", "bool thin"],
    )
    def test_bad_input_rejected_before_any_draw(self, steps, thin, stats):
        g = fixture_graph("k4", 0.5)
        rng = RngStream(3)
        with pytest.raises(InvalidConfigError):
            run_chain(g, initial_state(g, "spins"), steps, rng, stats, thin)
        assert rng.draws == 0

    @pytest.mark.parametrize("thin", [1, 2, 5])
    def test_resumes_bit_for_bit(self, thin):
        # consecutive runs, each from the last one's final state on the one
        # stream, are one run: blocks of whole thin-periods, then a ragged one
        rnd = random.Random(3000 + thin)
        for case in range(40):
            g = random_graph(rnd, max_nodes=7, max_edges=12, extreme_share=0.2)
            world = rnd.choice(["spins", "subs"])
            stats = tuple(STATISTICS[world])
            steps = rnd.randint(0, 40)
            whole_rng = RngStream(case)
            whole = run_chain(g, initial_state(g, world), steps, whole_rng, stats, thin)
            rng, state, rows, values = RngStream(case), initial_state(g, world), [], {name: [] for name in stats}
            while True:
                size = min(thin * rnd.randint(0, 3), steps - state.step)
                trace = run_chain(g, state, size, rng, stats, thin)
                rows += trace.steps
                for name in stats:
                    values[name] += trace.values[name]
                state = trace.final
                if state.step == steps:
                    break
            assert rows == whole.steps
            assert values == whole.values
            assert (state.config, state.step) == (whole.final.config, whole.final.step)
            assert rng.draws == whole_rng.draws
            assert rng.uniform() == whole_rng.uniform()

    def test_triangle_long_run_frequency(self):
        # empirical share of the full triangle vs the exact stationary
        # probability lam^3 / (1 + lam^3), with a batch-means error bar
        lam = 0.6
        g = fixture_graph("triangle", math.atanh(lam))
        target = lam**3 / (1 + lam**3)
        steps = 100_000
        trace = run_chain(g, initial_state(g, "subs"), steps, RngStream(20240607), ("edges",))
        hits = np.array([1.0 if v == 3.0 else 0.0 for v in trace.values["edges"]])
        batches = hits.reshape(100, -1).mean(axis=1)
        se = batches.std(ddof=1) / math.sqrt(len(batches))
        assert abs(hits.mean() - target) < 3.0 * se + 1e-12


class TestDraws:
    @pytest.mark.parametrize("method", ["cftp", "chain", "enum"])
    @pytest.mark.parametrize(
        "n, thin, block",
        [(3, 0, 128), (-1, 1, 128), (2.0, 1, 128), (True, 1, 128), (3, 1.5, 128), (3, 1, 0)],
        ids=["zero thin", "negative n", "float n", "bool n", "float thin", "zero block"],
    )
    def test_bad_count_rejected_on_first_next(self, method, n, thin, block):
        g = fixture_graph("k4", 0.5)
        with pytest.raises(InvalidConfigError):
            next(draws(g, "subs", method, 3, n, thin, block=block))
