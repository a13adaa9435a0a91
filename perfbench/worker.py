"""Run one phase of one workload in a fresh interpreter.

    python3 perfbench/worker.py {setup|run|trace} WORKLOAD SEED SECONDS OUTDIR

Prints one JSON object as its last line.  ``setup`` times the package
import and the workload's set-up; ``run`` adds one untraced pass of
SECONDS; ``trace`` runs SECONDS / 2 of items twice each, untraced and
then traced from the same state, with probes after each, adds the
reference probes, derives the per-layer metrics and writes the spans and
counts to OUTDIR.
"""

from __future__ import annotations

import time

from speed import REF_SECONDS, reference_loop

SPEED_BEFORE = min(reference_loop(), reference_loop())
STARTED = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
WINDOW_S = 1.0  # item time per window of items_per_s


def percentile(times, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(times)
    return ordered[max(math.ceil(q * len(ordered) / 100), 1) - 1]


def windows(times, round_items: int) -> list[tuple[int, float]]:
    """(items, item time) of consecutive windows of at least WINDOW_S of
    item time, each closed at a round boundary; a last, shorter window is
    dropped unless it is the only one."""
    out, n, busy = [], 0, 0.0
    for t in times:
        n, busy = n + 1, busy + t
        if busy >= WINDOW_S and n % round_items == 0:
            out.append((n, busy))
            n, busy = 0, 0.0
    return out or [(n, busy)]


def untraced(wl, seconds: float) -> dict:
    from workloads import run_pass

    p = run_pass(wl, seconds)
    # read before the analysis below allocates per-item lists
    rss_kb = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    times = p.scaled_times()
    wins = windows(times, wl.round)
    rounds = [sum(times[k : k + wl.round]) for k in range(0, len(times), wl.round)]
    return {
        "metrics": {
            # a median over windows, so that a burst of load on the machine
            # that the reference loop missed moves it less than the mean
            "items_per_s": statistics.median(n / busy for n, busy in wins),
            "item_p50_ms": percentile(rounds, 50) * 1e3,
            "item_tail_ms": percentile(rounds, wl.tail_pct) * 1e3,
            "peak_rss_mb": rss_kb / 1024,
        },
        "attempted": p.attempted,
        "failed": p.failed,
        "record": {
            "tail_percentile": wl.tail_pct,
            "record_items": wl.record_items,
            "digest": p.record_digest,
            "windows": wins,
            "percentiles_ms": {q: percentile(rounds, q) * 1e3 for q in (50, 75, 90, 95, 99)},
            "raw": {
                "items_per_s": p.attempted / sum(p.times),
                "item_p50_ms": percentile(p.times, 50) * 1e3,
                "reference_loop_ms": statistics.median(s for _, s in p.speed) * 1e3,
            },
        },
    }


def layer_metrics(tr, tail_pct: float) -> dict:
    """Per-layer metrics from the spans and counts of a traced run.

    Each value comes from the workload's own calls and probes when it made
    any, else from the reference probes (see workloads.run_refs).
    """
    self_times = tr.self_times()

    def pick(rows):
        own = [v for v, kind in rows if kind != "ref"]
        return own or [v for v, kind in rows if kind == "ref"]

    def spans(name):
        return pick([(t, s[4]) for s, t in zip(tr.spans, self_times) if s[0] == name])

    def counts(name):
        return pick([(v, kind) for n, v, kind in tr.counts if n == name])

    def med(name, scale):
        return statistics.median(spans(name)) * scale

    cftp, epochs, steps = spans("cftp.cftp_rc_run"), counts("epoch"), counts("steps")
    verify = [a + b for a, b in zip(spans("cli.verify_k5"), spans("cli.verify_grid3x4"))]
    jobs1, jobs2 = med("cli.perfect_jobs1", 1), med("cli.perfect_jobs2", 1)
    items = [(s[2] - s[1], t) for s, t in zip(tr.spans, self_times) if s[0] == "item" and s[4] == "own"]
    return {
        "rng.substream_us": med("rng.substream", 1e6),
        "rng.draws_per_item": statistics.mean(counts("draws")),
        "graph.build_ms": med("graph.build", 1e3),
        "graphio.load_ms": med("graphio.load_graph", 1e3),
        "worlds.clusters_ms": med("worlds.clusters", 1e3),
        "worlds.weight_rc_us": med("worlds.weight_rc", 1e6),
        "worlds.weight_subs_us": med("worlds.weight_subs", 1e6),
        "reductions.subs_to_rc_ms": med("reductions.subs_to_rc", 1e3),
        "reductions.rc_to_subs_ms": med("reductions.rc_to_subs", 1e3),
        "reductions.rc_to_spins_ms": med("reductions.rc_to_spins", 1e3),
        "reductions.spins_to_rc_ms": med("reductions.spins_to_rc", 1e3),
        "reductions.draws_per_edge": sum(counts("conv_draws")) / sum(counts("conv_edges")),
        "chains.sw_classic_block_ms": med("chains.sw_classic_block", 1e3),
        "chains.sw_subgraphs_block_ms": med("chains.sw_subgraphs_block", 1e3),
        "chains.cluster_count_mean": statistics.mean(counts("chain_clusters")),
        "chains.largest_cluster_frac": statistics.mean(counts("largest_cluster_frac")),
        "cftp.run_ms": statistics.median(cftp) * 1e3,
        "cftp.run_tail_ms": percentile(cftp, tail_pct) * 1e3,
        # steps are counted for the record prefix, which the first spans time
        "cftp.ksteps_per_s": sum(steps) / sum(cftp[: len(steps)]) / 1e3,
        "cftp.heat_bath_step_us": med("cftp.heat_bath_rc_step", 1e6),
        "cftp.epoch_mean": statistics.mean(epochs),
        "cftp.epoch_max": max(epochs),
        "cftp.steps_per_sample": statistics.mean(steps),
        "cftp.useful_step_frac": sum(2**e for e in epochs) / sum(steps),
        "cftp.schedule_records_max": 2 ** max(epochs),
        "exact.tables_ms": med("exact.exact_tables", 1e3),
        "exact.stationarity_ms": med("exact.kernel_stationarity_error", 1e3),
        "cli.startup_s": med("cli.version", 1),
        "cli.verify_s": statistics.median(verify),
        "cli.perfect_jobs1_s": jobs1,
        "cli.perfect_jobs2_s": jobs2,
        "cli.jobs2_speedup": jobs1 / jobs2,
        "cli.sample_chain_s": med("cli.sample_chain", 1),
        "cli.stdout_bytes": sum(counts("stdout_bytes")),
        "trace.span_coverage": sum(d - t for d, t in items) / sum(d for d, _ in items),
    }


def traced(wl, tr, seconds: float, outdir: Path) -> dict:
    from workloads import Pass, run_pass, run_refs

    base = Pass(wl.record_items)
    p = run_pass(wl, seconds / 2, tr, untraced=base)
    run_refs(wl, tr)
    tr.write(outdir / f"{wl.name}-seed{wl.seed}.spans.json")
    metrics = layer_metrics(tr, wl.tail_pct)
    # the same items untraced and traced; probes run outside the timed items
    metrics["trace.overhead_frac"] = sum(p.times) / sum(base.times) - 1
    same = p.digest == base.digest
    return {
        "metrics": metrics,
        "attempted": base.attempted + p.attempted,
        "failed": base.failed + (p.failed if same else p.attempted),
        "outputs_equal": same,
        "record": {"record_items": wl.record_items, "digest": p.record_digest},
    }


def main(argv: list[str]) -> int:
    phase, name, seed, seconds, outdir = argv[0], argv[1], int(argv[2]), float(argv[3]), Path(argv[4])
    sys.path.insert(0, str(SRC))
    import isingworlds

    if Path(isingworlds.__file__).resolve().parent != SRC / "isingworlds":
        raise SystemExit(f"isingworlds was imported from {isingworlds.__file__}, not from {SRC}")
    import workloads
    from spans import NoTracer, Tracer

    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=outdir))
    try:
        wl = workloads.WORKLOADS[name](seed, workdir)
        tr = Tracer() if phase == "trace" else NoTracer()
        wl.setup(tr)
        setup_s = time.perf_counter() - STARTED
        result = {"setup_s": setup_s * 2 * REF_SECONDS / (SPEED_BEFORE + reference_loop()), "setup_raw_s": setup_s}
        if phase == "run":
            result.update(untraced(wl, seconds))
        elif phase == "trace":
            result.update(traced(wl, tr, seconds, outdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
