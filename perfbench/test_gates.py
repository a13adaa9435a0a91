"""Self-test of the benchmark's correctness gates.

    python3 -m pytest -q perfbench/test_gates.py

An exact sampler passes the gates; a deliberately biased or broken
conversion injected into a workload makes its failed fraction positive.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from spans import NoTracer  # noqa: E402


def biased_spins_to_rc(g, x, rng):
    """spins_to_rc opening agreeing edges with half the right probability."""
    return tuple(1 if x[i] == x[j] and rng.bernoulli(p / 2) else 0 for (i, j), p in zip(g.edges, g.ps))


def failed_frac(wl, items: int) -> float:
    wl.setup(NoTracer())
    p = workloads.run_pass(wl, 0.0, items=items)
    return p.failed / p.attempted


def test_exact_sampler_passes_the_tv_gate(tmp_path):
    assert failed_frac(workloads.SmallReplicates(11, tmp_path), 6000) == 0


def test_biased_conversion_fails_the_tv_gate(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "spins_to_rc", biased_spins_to_rc)
    assert failed_frac(workloads.SmallReplicates(11, tmp_path), 6000) > 0


def test_odd_degree_sample_fails_the_structure_gate(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "perfect_subs_sample", lambda g, rng: (1,) * g.num_edges)
    assert failed_frac(workloads.CftpCritical(11, tmp_path), 2) == 1
