"""Coupling conversions, graph construction, and field elimination."""

import math
import pickle
import random
from itertools import permutations

import pytest

from conftest import field_model_distribution, max_pointwise_gap, random_graph, reduced_conditioned_distribution
from isingworlds import (
    InvalidConfigError,
    InvalidParameterError,
    RngStream,
    UnsupportedFieldError,
    WeightedGraph,
    beta_to_lambda,
    beta_to_p,
    cftp_rc_run,
    check_rc_normalizer,
    check_relate_identity,
    initial_state,
    lambda_to_beta,
    p_to_beta,
    rc_to_spins,
    rc_to_subs,
    reduce_unidirectional_field,
    run_chain,
    spins_to_rc,
    subs_to_rc,
)
from isingworlds.cftp import first_epoch
from isingworlds.fixtures import complete_graph, fixture_graph, grid_graph
from isingworlds.graph import golden_stride

BETA_GRID = [0.0, 1e-6, 0.01, 0.25, 0.5, 1.0, 2.0, 5.0, 20.0]


class TestConversions:
    def test_infinite_coupling_maps_to_one(self):
        assert beta_to_lambda(math.inf) == 1.0
        assert beta_to_p(math.inf) == 1.0

    def test_zero_coupling_maps_to_zero(self):
        assert beta_to_lambda(0.0) == 0.0
        assert beta_to_p(0.0) == 0.0

    def test_log_two_closed_forms(self):
        # tanh(ln 2) = (2 - 1/2) / (2 + 1/2) = 0.6 and 1 - exp(-2 ln 2) = 3/4
        assert beta_to_lambda(math.log(2.0)) == pytest.approx(0.6, abs=1e-15)
        assert beta_to_p(math.log(2.0)) == pytest.approx(0.75, abs=1e-15)

    @pytest.mark.parametrize("bad", [-0.1, -math.inf, math.nan])
    def test_invalid_beta_rejected(self, bad):
        with pytest.raises(InvalidParameterError):
            beta_to_lambda(bad)
        with pytest.raises(InvalidParameterError):
            beta_to_p(bad)

    @pytest.mark.parametrize("bad", [-0.01, 1.01, math.nan])
    def test_invalid_lambda_p_rejected(self, bad):
        with pytest.raises(InvalidParameterError):
            lambda_to_beta(bad)
        with pytest.raises(InvalidParameterError):
            p_to_beta(bad)

    def test_p_equals_two_lambda_over_one_plus_lambda(self):
        for beta in BETA_GRID:
            lam = beta_to_lambda(beta)
            assert abs(beta_to_p(beta) - 2.0 * lam / (1.0 + lam)) < 1e-12

    def test_conversions_monotone(self):
        lams = [beta_to_lambda(b) for b in BETA_GRID]
        ps = [beta_to_p(b) for b in BETA_GRID]
        assert lams == sorted(lams) and len(set(lams)) == len(lams)
        assert ps == sorted(ps) and len(set(ps)) == len(ps)

    def test_round_trips(self):
        # past beta ~ 19 both derived parameters round to exactly 1.0,
        # so invertibility only holds below the saturation point
        for beta in [b for b in BETA_GRID if b <= 5.0] + [math.inf]:
            assert lambda_to_beta(beta_to_lambda(beta)) == pytest.approx(beta, rel=1e-9)
            assert p_to_beta(beta_to_p(beta)) == pytest.approx(beta, rel=1e-9)
        assert lambda_to_beta(1.0) == math.inf
        assert p_to_beta(1.0) == math.inf


class TestWeightedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(InvalidParameterError):
            WeightedGraph(2, ((0, 0),), (0.5,))

    def test_rejects_parallel_edges(self):
        with pytest.raises(InvalidParameterError):
            WeightedGraph.from_edges(2, [(0, 1, 0.5), (1, 0, 0.25)])

    def test_rejects_out_of_range_nodes(self):
        with pytest.raises(InvalidParameterError):
            WeightedGraph(2, ((0, 2),), (0.5,))

    def test_rejects_negative_coupling(self):
        with pytest.raises(InvalidParameterError):
            WeightedGraph(2, ((0, 1),), (-0.5,))

    def test_from_edges_normalizes_orientation(self):
        g = WeightedGraph.from_edges(3, [(2, 0, 0.5), (1, 2, 0.25)])
        assert g.edges == ((0, 2), (1, 2))

    def test_from_edges_accepts_lambda_and_p(self):
        g_lam = WeightedGraph.from_edges(2, [(0, 1, 1.0)], param="lambda")
        g_p = WeightedGraph.from_edges(2, [(0, 1, 1.0)], param="p")
        assert g_lam.betas == (math.inf,)
        assert g_p.betas == (math.inf,)

    def test_adjacency(self):
        g = fixture_graph("path3")
        assert g.adjacency[1] == ((0, 0), (2, 1))

    def test_disconnected_graphs_allowed(self):
        g = WeightedGraph.from_edges(5, [(0, 1, 0.5)])
        assert g.num_nodes == 5 and g.num_edges == 1


def _cycles_through(g, e):
    """Every triangle and 4-cycle through e, by brute force over node
    sequences: (length, frozenset of the other edges)."""
    index = {pair: k for k, pair in enumerate(g.edges)}

    def edge(a, b):
        return index.get((min(a, b), max(a, b)))

    i, j = g.edges[e]
    found = set()
    others = [v for v in range(g.num_nodes) if v not in (i, j)]
    for length in (3, 4):
        for middle in permutations(others, length - 2):
            path = (j, *middle, i)  # j -> ... -> i, closed by e
            steps = [edge(a, b) for a, b in zip(path, path[1:])]
            if None not in steps:
                found.add((length, frozenset(steps)))
    return found


class TestShortCycles:
    def test_lists_only_cycles_through_the_edge(self):
        rnd = random.Random(3131)
        graphs = [random_graph(rnd, max_nodes=7, max_edges=15) for _ in range(150)]
        for g in graphs + [complete_graph(4), complete_graph(6), grid_graph(4, 5)]:
            for e, cycles in enumerate(g.short_cycles):
                true = _cycles_through(g, e)
                listed = [(3 if len(set(c)) == 2 else 4, frozenset(c)) for c in cycles]
                assert len(listed) == len(set(listed)) == min(4, len(true))
                assert set(listed) <= true
                lengths = [length for length, _ in listed]
                assert lengths == sorted(lengths)  # triangles first
                if any(length == 3 for length, _ in true):
                    assert lengths[0] == 3

    def test_k4_edges_have_triangles_and_4_cycles(self):
        g = complete_graph(4)
        for cycles in g.short_cycles:
            assert [len(set(c)) for c in cycles] == [2, 2, 3, 3]

    def test_star_and_tree_have_none(self):
        star = WeightedGraph.from_edges(6, [(0, k, 0.5) for k in range(1, 6)])
        assert star.short_cycles == ((),) * 5
        assert fixture_graph("path3").short_cycles == ((), ())


class TestSweepOrder:
    def test_golden_stride_gives_a_permutation(self):
        for s in range(1, 201):
            a = golden_stride(s)
            assert math.gcd(a, s) == 1 and abs(a - s * 0.6180339887) < s / 2
            assert sorted(k * a % s for k in range(s)) == list(range(s))

    def test_free_edges_in_stride_order(self):
        g = WeightedGraph.from_edges(6, [(0, 1, 0.5), (1, 2, math.inf), (2, 3, 0.3), (3, 4, 0.0),
                                         (4, 5, 0.7), (0, 5, 0.9), (1, 4, 0.2)])
        free = [0, 2, 4, 5, 6]
        assert golden_stride(5) == 3
        assert g.sweep_order == tuple(free[k * 3 % 5] for k in range(5)) == (0, 5, 2, 6, 4)
        assert complete_graph(3, 0.0).sweep_order == ()


class TestCftpPlan:
    """The per-graph CFTP constants equal their definitions, are computed
    once per graph object, and travel with it."""

    @staticmethod
    def _graphs():
        rnd = random.Random(28)
        for _ in range(40):
            g = random_graph(rnd, max_nodes=7, max_edges=12, extreme_share=0.3)
            # some edges past p's rounding: p is 1.0 at beta 18.8
            yield WeightedGraph(g.num_nodes, g.edges, tuple(18.8 if rnd.random() < 0.2 else b for b in g.betas))

    @staticmethod
    def _tuples(plan):
        return plan.bottom, plan.top, plan.low, plan.sweep

    def test_tuples_equal_their_definitions(self):
        assert beta_to_p(18.8) == beta_to_p(math.inf) == 1.0
        for g in self._graphs():
            ps = [beta_to_p(b) for b in g.betas]
            plan = g.cftp_plan
            assert plan.bottom == tuple(1 if p == 1.0 else 0 for p in ps)  # pinned open
            assert plan.top == tuple(0 if p == 0.0 else 1 for p in ps)
            assert plan.low == tuple(p / (2.0 - p) for p in ps)
            assert [(plan.bottom[e], plan.top[e]) for e in g.sweep_order] == [(0, 1)] * len(g.sweep_order)
            assert g.cftp_plan is plan

    def test_sweep_holds_each_step_in_sweep_order(self):
        for g in self._graphs():
            plan = g.cftp_plan
            assert plan.sweep == tuple(
                (e, g.ps[e], plan.low[e], *g.edges[e], g.short_cycles[e]) for e in g.sweep_order
            )

    def test_pickle_keeps_the_plan(self):
        g = grid_graph(4, 4, 0.44)
        first_epoch(g, 12)
        again = pickle.loads(pickle.dumps(g))
        assert "cftp_plan" in vars(again)  # carried, not recomputed
        assert self._tuples(again.cftp_plan) == self._tuples(g.cftp_plan)
        assert again.cftp_plan.first_epochs == g.cftp_plan.first_epochs == {12: first_epoch(g, 12)}

    def test_without_field_gets_a_fresh_plan(self):
        g = WeightedGraph(3, ((0, 1), (1, 2)), (0.5, 18.8), (0.0, 0.0, 0.0))  # a zero field
        first_epoch(g)
        free = g.without_field()
        assert free is not g and "cftp_plan" not in vars(free)
        assert free.cftp_plan is not g.cftp_plan and free.cftp_plan.first_epochs == {}
        assert free.cftp_plan.sweep is not g.cftp_plan.sweep
        p = beta_to_p(0.5)
        low = p / (2.0 - p)
        assert self._tuples(free.cftp_plan) == self._tuples(g.cftp_plan) == (
            (0, 1), (1, 1), (low, 1.0), ((0, p, low, 0, 1, ()),)
        )


class TestFieldReduction:
    def test_zero_field_is_noop(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 0.5)], field={0: 0.0})
        red = reduce_unidirectional_field(g)
        assert red.anchor is None
        assert red.graph.num_nodes == 3
        assert red.graph.edges == g.edges and red.graph.field is None

    def test_single_node_finite_field(self):
        # B = 2 becomes one anchor edge of strength B / 2 = 1
        g = WeightedGraph.from_edges(1, [], field={0: 2.0})
        red = reduce_unidirectional_field(g)
        assert red.graph.num_nodes == 2
        assert red.graph.edges == ((0, 1),)
        assert red.graph.betas == (1.0,)
        assert red.anchor == 1 and red.anchor_sign == 1

    def test_infinite_field_node_becomes_anchor(self):
        # path a-b with B(a)=inf, B(b)=1: no new node; edge {b, anchor}
        # picks up the b-a coupling plus B(b)/2
        g = WeightedGraph.from_edges(2, [(0, 1, 0.3)], field={0: math.inf, 1: 1.0})
        red = reduce_unidirectional_field(g)
        assert red.graph.num_nodes == 2
        assert red.anchor == 1
        assert red.node_map == (1, 0)
        assert red.graph.edges == ((0, 1),)
        assert red.graph.betas == (pytest.approx(0.3 + 0.5),)

    def test_mixed_sign_field_rejected(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 0.5)], field={0: 1.0, 1: -1.0})
        with pytest.raises(UnsupportedFieldError):
            reduce_unidirectional_field(g)

    def test_all_infinite_field(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 0.7)], field={0: math.inf, 1: math.inf})
        red = reduce_unidirectional_field(g)
        assert red.graph.num_nodes == 1 and red.graph.num_edges == 0
        assert red.lift_spins((1,)) == (1, 1)

    @pytest.mark.parametrize(
        "num_nodes,edges,field",
        [
            (1, [], {0: 0.5}),
            (1, [], {0: 2.0}),
            (1, [], {0: -2.0}),
            (1, [], {0: math.inf}),
            (1, [], {0: -math.inf}),
            (3, [(0, 1, 0.7), (1, 2, 0.4)], {0: 1.0, 2: 2.0}),
            (3, [(0, 1, 0.7), (1, 2, 0.4)], {0: math.inf, 1: 0.5}),
            (3, [(0, 1, 0.7), (1, 2, 0.4)], {0: -1.0, 1: -0.25, 2: -math.inf}),
            (3, [(0, 1, 0.5), (0, 2, 0.5), (1, 2, 0.5)], {0: 0.8, 1: 0.0, 2: 1.5}),
            (3, [(0, 1, 0.2), (0, 2, 1.1), (1, 2, 0.6)], {0: math.inf, 1: math.inf, 2: 0.9}),
            (4, [(0, 1, 0.5), (2, 3, 0.25)], {0: 1.0, 3: 0.5}),
        ],
    )
    def test_distribution_preserved(self, num_nodes, edges, field):
        # the exact field model must equal the reduced model conditioned
        # on the anchor, pointwise
        g = WeightedGraph.from_edges(num_nodes, edges, field=field)
        gap = max_pointwise_gap(
            field_model_distribution(g), reduced_conditioned_distribution(g)
        )
        assert gap < 1e-9


FIELD_GUARDED = {
    "subs_to_rc": lambda g: subs_to_rc(g, (0,), RngStream(0)),
    "rc_to_subs": lambda g: rc_to_subs(g, (0,), RngStream(0)),
    "rc_to_spins": lambda g: rc_to_spins(g, (0,), RngStream(0)),
    "spins_to_rc": lambda g: spins_to_rc(g, (1, 1), RngStream(0)),
    "run_chain": lambda g: run_chain(g, initial_state(g, "spins"), 1, RngStream(0)),
    "cftp_rc_run": lambda g: cftp_rc_run(g, RngStream(0)),
    "check_relate_identity": check_relate_identity,
    "check_rc_normalizer": check_rc_normalizer,
}


@pytest.mark.parametrize("entry", sorted(FIELD_GUARDED))
def test_field_graph_rejected_by_every_entry_point(entry):
    g = WeightedGraph.from_edges(2, [(0, 1, 0.5)], field={0: 1.0})
    with pytest.raises(InvalidConfigError, match="magnetic field"):
        FIELD_GUARDED[entry](g)
    # an all-zero field is no field
    FIELD_GUARDED[entry](WeightedGraph.from_edges(2, [(0, 1, 0.5)], field={0: 0.0}))
