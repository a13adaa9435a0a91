"""Acceptance suite: one test per acceptance criterion, one line each.

Every criterion is checked at its stated tolerance against the
enumeration oracle; sampling criteria use fixed seeds so the suite is
fully reproducible.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import math
import random
import time
from itertools import product

import numpy as np
import pytest

from conftest import (
    brute_degrees,
    field_model_distribution,
    max_pointwise_gap,
    random_graph,
    reduced_conditioned_distribution,
)
from isingworlds import (
    RngStream,
    WeightedGraph,
    cftp_rc_run,
    check_even_subgraph_count,
    check_rc_normalizer,
    check_relate_identity,
    clusters,
    empirical_distribution,
    exact_kernel_matrix,
    exact_tables,
    heat_bath_rc_step,
    kernel_stationarity_error,
    perfect_subs_sample,
    rc_to_spins,
    rc_to_subs,
    sample_from_table,
    spins_to_rc,
    subs_to_rc,
    tv_distance,
)
from isingworlds.exact import STATIONARITY_TOL
from isingworlds.fixtures import fixture_graph

FIXTURES = ("k2", "path3", "triangle", "cycle4", "k4", "grid3x3")
SMALL_FIXTURES = ("k2", "path3", "triangle", "cycle4", "k4")  # <= 10 edges
BETA_GRID = (0.0, 0.25, 0.5, 1.0, 2.0)

_TABLE_CACHE: dict = {}


def tables_for(name: str, betas) -> "exact_tables":
    key = (name, tuple(betas) if isinstance(betas, (list, tuple)) else betas)
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = exact_tables(fixture_graph(name, betas))
    return _TABLE_CACHE[key]


def beta_settings(name: str) -> list:
    """Uniform grid plus two per-edge mixed assignments."""
    num_edges = fixture_graph(name).num_edges
    settings: list = list(BETA_GRID)
    for offset in (1, 3):
        settings.append([BETA_GRID[(k + offset) % len(BETA_GRID)] for k in range(num_edges)])
    return settings


def report(criterion: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {criterion}] {label}: {status}")
    assert not failures, f"criterion {criterion} failed: {failures[:5]}"


def test_criterion_1_spins_subs_identity():
    started = time.perf_counter()
    failures = []
    for name in FIXTURES:
        for betas in beta_settings(name):
            tables = tables_for(name, betas)
            for rep in check_relate_identity(tables.graph, tables=tables):
                if rep.name == "spins_vs_subs" and not rep.passed:
                    failures.append((name, betas, rep.relative_error))
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    report(1, f"spins/subs partition identity ({elapsed:.1f}s)", failures)


def test_criterion_2_rc_normalizer():
    failures = []
    for name in FIXTURES:
        for betas in beta_settings(name):
            tables = tables_for(name, betas)
            rep = check_rc_normalizer(tables.graph, tables=tables)
            if not rep.passed:
                failures.append((name, betas, rep.relative_error))
    report(2, "random-cluster normalizer identity", failures)


KERNEL_BETA_SETTINGS = {
    name: [0.25, 0.5, [0.25, 0.5, 1.0, 2.0, 0.7, 1.3][: fixture_graph(name).num_edges]]
    for name in SMALL_FIXTURES
}


def test_criterion_3_reduction_kernels_exact():
    failures = []
    for name in SMALL_FIXTURES:
        for betas in KERNEL_BETA_SETTINGS[name]:
            tables = tables_for(name, betas)
            for kernel in ("subs_to_rc", "rc_to_subs", "spins_to_rc", "rc_to_spins"):
                err = kernel_stationarity_error(tables.graph, kernel, tables)
                if err >= STATIONARITY_TOL:
                    failures.append((name, betas, kernel, err))
    report(3, "exact reduction-kernel stationarity", failures)


def test_criterion_4_chain_kernels_exact():
    failures = []
    for name in SMALL_FIXTURES:  # all five have <= 6 edges
        for betas in KERNEL_BETA_SETTINGS[name]:
            tables = tables_for(name, betas)
            for kernel in ("sw_classic", "sw_subgraphs"):
                err = kernel_stationarity_error(tables.graph, kernel, tables)
                if err >= STATIONARITY_TOL:
                    failures.append((name, betas, kernel, err))
    report(4, "chain-kernel stationarity", failures)


def test_criterion_5_sampling_exactness():
    n = 100_000
    failures = []
    timings = []
    for name in ("triangle", "cycle4"):
        for lam_idx, lam in enumerate((0.3, 0.6, 0.9)):
            started = time.perf_counter()
            beta = math.atanh(lam)
            tables = exact_tables(fixture_graph(name, beta))
            g = tables.graph
            seed = 50_000 + lam_idx
            checks = []

            rng = RngStream(seed, 1)
            ys = sample_from_table(tables.subs, rng, n)
            zs = [subs_to_rc(g, y, rng) for y in ys]
            checks.append(("subs_to_rc", tv_distance(empirical_distribution(zs, tables.rc), tables.rc.probs)))

            rng = RngStream(seed, 2)
            zs = sample_from_table(tables.rc, rng, n)
            ys = [rc_to_subs(g, z, rng) for z in zs]
            checks.append(("rc_to_subs", tv_distance(empirical_distribution(ys, tables.subs), tables.subs.probs)))

            rng = RngStream(seed, 3)
            zs = sample_from_table(tables.rc, rng, n)
            xs = [rc_to_spins(g, z, rng) for z in zs]
            checks.append(("rc_to_spins", tv_distance(empirical_distribution(xs, tables.spins), tables.spins.probs)))

            rng = RngStream(seed, 4)
            xs = sample_from_table(tables.spins, rng, n)
            zs = [spins_to_rc(g, x, rng) for x in xs]
            checks.append(("spins_to_rc", tv_distance(empirical_distribution(zs, tables.rc), tables.rc.probs)))

            master = RngStream(seed, 5)
            ys = [perfect_subs_sample(g, master.substream(i)) for i in range(n)]
            checks.append(("perfect_subs", tv_distance(empirical_distribution(ys, tables.subs), tables.subs.probs)))

            elapsed = time.perf_counter() - started
            timings.append(elapsed)
            if elapsed >= 60.0:
                failures.append((name, lam, f"runtime {elapsed:.1f}s exceeds 60s"))
            for label, tv in checks:
                if tv >= 0.01:
                    failures.append((name, lam, label, tv))
    report(5, f"sampling TV < 0.01 (max set time {max(timings):.1f}s)", failures)


def test_criterion_6_cftp_monotone_and_exact():
    failures = []
    violations = 0
    for name in SMALL_FIXTURES:  # all five have <= 8 edges
        m = fixture_graph(name).num_edges
        p_settings = [0.5, [0.2 + 0.7 * k / max(1, m - 1) for k in range(m)]]
        for ps in p_settings:
            values = [ps] * m if isinstance(ps, float) else ps
            g = WeightedGraph.from_edges(
                fixture_graph(name).num_nodes,
                [(i, j, v) for (i, j), v in zip(fixture_graph(name).edges, values)],
                param="p",
            )
            u_grid = [k / 10 + 0.003 for k in range(10)]
            for pair in product((0, 1, 2), repeat=m):
                lo = tuple(1 if v == 2 else 0 for v in pair)
                hi = tuple(1 if v >= 1 else 0 for v in pair)
                for e in range(m):
                    for u in u_grid:
                        new_lo = heat_bath_rc_step(g, lo, e, u)
                        new_hi = heat_bath_rc_step(g, hi, e, u)
                        if any(a > b for a, b in zip(new_lo, new_hi)):
                            violations += 1
    if violations:
        failures.append(f"{violations} monotonicity violations")

    n = 100_000
    g = WeightedGraph.from_edges(2, [(0, 1, 0.5)], param="p")
    opened = sum(cftp_rc_run(g, RngStream(606, i)).config[0] for i in range(n))
    se = math.sqrt((1 / 3) * (2 / 3) / n)
    if abs(opened / n - 1 / 3) >= 3 * se:
        failures.append(f"K2 marginal {opened / n:.5f} not within 3se of 1/3")
    report(6, "heat-bath monotonicity and K2 CFTP marginal", failures)


def test_criterion_7_structural_invariants():
    failures = []
    pool = []
    for name, betas in (
        ("triangle", [0.0, 0.7, math.inf]),
        ("cycle4", 0.6),
        ("k4", 0.45),
    ):
        pool.append(exact_tables(fixture_graph(name, betas)))
    rnd = random.Random(1404)
    extreme = random_graph(rnd, max_nodes=5, max_edges=7, extreme_share=0.35)
    while extreme.num_edges < 3:
        extreme = random_graph(rnd, max_nodes=5, max_edges=7, extreme_share=0.35)
    pool.append(exact_tables(extreme))

    per_reduction = 250_000
    inputs = {}
    for t_idx, tables in enumerate(pool):
        feed = RngStream(7000, t_idx)
        inputs[t_idx] = {
            "subs": sample_from_table(tables.subs, feed, 400),
            "rc": sample_from_table(tables.rc, feed, 400),
            "spins": sample_from_table(tables.spins, feed, 400),
        }

    rng = RngStream(8000)
    for k in range(per_reduction):
        tables = pool[k % len(pool)]
        g = tables.graph
        feeds = inputs[k % len(pool)]
        y = feeds["subs"][k % 400]
        before = rng.draws
        z = subs_to_rc(g, y, rng)
        if rng.draws - before > g.num_edges:
            failures.append(("subs_to_rc draws", k))
            break
        if any(ze < ye for ze, ye in zip(z, y)):
            failures.append(("subs_to_rc monotone", k))
            break
    for k in range(per_reduction):
        tables = pool[k % len(pool)]
        g = tables.graph
        z = inputs[k % len(pool)]["rc"][k % 400]
        y = rc_to_subs(g, z, rng)
        if any(d % 2 for d in brute_degrees(g, y)):
            failures.append(("rc_to_subs parity", k))
            break
        if any(ye > ze for ye, ze in zip(y, z)):
            failures.append(("rc_to_subs monotone", k))
            break
    for k in range(per_reduction):
        tables = pool[k % len(pool)]
        g = tables.graph
        z = inputs[k % len(pool)]["rc"][k % 400]
        x = rc_to_spins(g, z, rng)
        part = clusters(g, z)
        if any(x[v] != x[part.component_id[v]] for v in range(g.num_nodes)):
            failures.append(("rc_to_spins cluster constancy", k))
            break
    for k in range(per_reduction):
        tables = pool[k % len(pool)]
        g = tables.graph
        x = inputs[k % len(pool)]["spins"][k % 400]
        before = rng.draws
        z = spins_to_rc(g, x, rng)
        if rng.draws - before > g.num_edges:
            failures.append(("spins_to_rc draws", k))
            break
        if any(z[e] and x[i] != x[j] for e, (i, j) in enumerate(g.edges)):
            failures.append(("spins_to_rc opened disagreement", k))
            break
    report(7, "structural invariants over 10^6 randomized calls", failures)


def test_criterion_8_even_subgraph_count():
    failures = []
    rnd = random.Random(2024)
    for trial in range(200):
        g = random_graph(rnd, max_nodes=7, max_edges=10)
        z = tuple(rnd.randint(0, 1) for _ in range(g.num_edges))
        rep = check_even_subgraph_count(g, z)
        if not rep.passed:
            failures.append((trial, rep.enumerated, rep.closed_form))
    report(8, "even-subgraph closed-form count (200 random pairs)", failures)


FIELD_CASES = [
    (1, [], {0: 0.0}),
    (1, [], {0: 0.5}),
    (1, [], {0: 1.0}),
    (1, [], {0: 2.0}),
    (1, [], {0: math.inf}),
    (1, [], {0: -0.5}),
    (1, [], {0: -2.0}),
    (1, [], {0: -math.inf}),
]
for b0, b1, b2 in [(0.0, 0.5, 2.0), (1.0, 0.0, math.inf), (0.5, 0.5, 0.5), (math.inf, math.inf, 1.0)]:
    FIELD_CASES.append((3, [(0, 1, 0.6), (1, 2, 0.9)], {0: b0, 1: b1, 2: b2}))
    FIELD_CASES.append((3, [(0, 1, 0.6), (1, 2, 0.9)], {0: -b0, 1: -b1, 2: -b2}))
    FIELD_CASES.append((3, [(0, 1, 0.5), (0, 2, 0.8), (1, 2, 1.1)], {0: b0, 1: b1, 2: b2}))
    FIELD_CASES.append((3, [(0, 1, 0.5), (0, 2, 0.8), (1, 2, 1.1)], {0: -b0, 1: -b1, 2: -b2}))


def test_criterion_9_field_reduction():
    failures = []
    for num_nodes, edges, field in FIELD_CASES:
        g = WeightedGraph.from_edges(num_nodes, edges, field=field)
        gap = max_pointwise_gap(
            field_model_distribution(g), reduced_conditioned_distribution(g)
        )
        if gap >= 1e-9:
            failures.append((edges, field, gap))
    report(9, "unidirectional-field reduction preserves the law", failures)
