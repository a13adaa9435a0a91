"""The four benchmark workloads, their correctness gates and layer probes.

Every workload builds its inputs from the workload seed, runs items one
at a time, and feeds each output through its gate.  Items take their
randomness from ``master.substream(i)``, so a pass can be replayed item
for item: the traced run replays the untraced items with spans around
each call into the package and requires bit-identical output.

Probes time a layer the workload reaches only inside another public
function (the connectivity query inside ``cftp_rc_run``, ``clusters``
inside ``rc_to_spins``) through its own public entry point, on the
workload's states and with a separate stream.  Layers a workload cannot
reach at its own input size are timed by reference probes on the
``cli_mix`` inputs (see ``run_refs``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import traceback
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

from isingworlds import (
    RngStream,
    cftp_rc_run,
    clusters,
    exact_tables,
    heat_bath_rc_step,
    initial_state,
    kernel_stationarity_error,
    lambda_to_beta,
    load_graph,
    perfect_subs_sample,
    rc_to_spins,
    rc_to_subs,
    run_chain,
    save_graph,
    spins_to_rc,
    subs_to_rc,
    weight_rc,
    weight_subs,
)
from isingworlds.chains import ChainState
from isingworlds.fixtures import complete_graph, cycle_graph, grid_graph
from speed import EVERY_S, REF_SECONDS, reference_loop

BETA = 0.44  # just above the square lattice's beta_c = ln(1 + sqrt 2) / 2 ~ 0.4407
SPIN_STATS = ("m", "energy", "clusters")
SUBS_STATS = ("edges", "clusters")
# Stream ids next to the items' stream 0, so probes and warm-up never
# touch the randomness of an item.
PROBE, WARM, MIRROR = 7001, 7002, 7003
# An exact sampler fails a run's distribution checks with probability at
# most this, whatever the item count (see tv_threshold).
GATE_DELTA = 0.001


# ---------------------------------------------------------------------------
# Passes and gates
# ---------------------------------------------------------------------------

class Pass:
    """Item times, failures and output digests of one pass over the items.

    ``record_digest`` covers the first ``record_items`` items, which every
    run completes, so it repeats exactly for a given seed.  ``speed``
    holds ``(item index, reference loop seconds)`` marks taken during the
    pass, from index 0 to ``attempted``.
    """

    def __init__(self, record_items: int) -> None:
        self.record_items = record_items
        self.times = array("d")
        self.failed = 0
        self.tally: dict = {}  # workload-specific accumulators for the gates
        self._sha = hashlib.sha256()
        self.record_digest = ""
        self.speed: list[tuple[int, float]] = []

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def digest(self) -> str:
        return self._sha.hexdigest()

    def mark_speed(self) -> None:
        self.speed.append((self.attempted, reference_loop()))

    def scaled_times(self) -> array:
        """Item times at reference machine speed: each scaled by REF_SECONDS
        over the mean of the two reference loops around it."""
        out = array("d")
        for (a, before), (b, after) in zip(self.speed, self.speed[1:]):
            out.extend(t * 2 * REF_SECONDS / (before + after) for t in self.times[a:b])
        return out

    def add(self, seconds: float, sample, ok: bool) -> None:
        self.times.append(seconds)
        self._sha.update(repr(sample).encode())
        self.failed += not ok
        if self.attempted == self.record_items:
            self.record_digest = self.digest


def _attempt(wl: "Workload", p: Pass, i: int, tr) -> bool:
    """Run, time and check item ``i`` into ``p``; an exception fails it."""
    began = perf_counter()
    try:
        if tr is None:
            sample = wl.item(i)
        else:
            span = tr.open("item")
            try:
                sample = wl.traced_item(i, tr)
            finally:
                tr.close(span)
    except Exception:
        traceback.print_exc()
        p.add(perf_counter() - began, None, False)
        return False
    p.add(perf_counter() - began, sample, wl.check(p, i, sample))
    return True


def run_pass(wl: "Workload", seconds: float, tr=None, untraced: Pass | None = None, items: int | None = None) -> Pass:
    """Run items for ``seconds`` (or exactly ``items`` of them).

    A pass never stops before its record prefix or inside a round.  With a
    tracer each item is one ``item`` span and its probes run after it,
    untimed.  Given an ``untraced`` pass too, each item first runs
    untraced into it and is then replayed traced from the same state, so
    that both see the same machine conditions.
    """
    wl.reset()
    p = Pass(wl.record_items)
    start = next_mark = perf_counter()
    i = 0
    while (
        i < items
        if items is not None
        else i < wl.record_items or i % wl.round or perf_counter() - start < seconds
    ):
        if perf_counter() >= next_mark:
            p.mark_speed()
            next_mark = perf_counter() + EVERY_S
        if untraced is not None:
            saved = wl.snapshot()
            _attempt(wl, untraced, i, None)
            wl.restore(saved)
        if _attempt(wl, p, i, tr) and tr is not None:
            wl.probe(i, tr)
        i += 1
    p.mark_speed()
    for done in (p, untraced) if untraced is not None else (p,):
        wl.finish(done)
        done.failed = min(done.failed, done.attempted)
    return p


def even_subgraph(g, y) -> bool:
    """A 0/1 edge vector of the right length, open only on positive
    couplings, with even degree at every node."""
    if len(y) != g.num_edges:
        return False
    parity = [0] * g.num_nodes
    for (i, j), beta, v in zip(g.edges, g.betas, y):
        if v == 1:
            if beta <= 0.0:
                return False
            parity[i] ^= 1
            parity[j] ^= 1
        elif v != 0:
            return False
    return not any(parity)


def valid_spins(g, x) -> bool:
    return len(x) == g.num_nodes and all(v in (1, -1) for v in x)


def support_probs(table) -> dict:
    return {c: float(p) for c, p in zip(table.configs, table.probs) if p > 0.0}


def tv_threshold(n: int, support: int, checks: int) -> float:
    """TV level that n exact draws exceed with probability <= GATE_DELTA / checks.

    Weissman et al. (2003): P(||p_hat - p||_1 >= eps) <= (2^k - 2) exp(-n eps^2 / 2)
    for k support points, and TV is half the L1 distance.
    """
    return math.sqrt(math.log(max(2.0**support - 2.0, 1.0) * checks / GATE_DELTA) / (2.0 * n))


def tv(counts: Counter, n: int, probs: dict) -> float:
    seen = sum(abs(c / n - probs.get(cfg, 0.0)) for cfg, c in counts.items())
    return 0.5 * (seen + sum(p for cfg, p in probs.items() if cfg not in counts))


# ---------------------------------------------------------------------------
# Shared set-up and probes
# ---------------------------------------------------------------------------

def load_built(tr, workdir: Path, filename: str, build, *args):
    """Build a graph, write it to a file and load it back as the input."""
    g = tr.call("graph.build", build, *args)
    path = workdir / filename
    save_graph(g, path)
    loaded = tr.call("graphio.load_graph", load_graph, path)
    if loaded != g:
        raise RuntimeError(f"{filename} changed in a save/load round trip")
    return loaded


def probe_worlds(tr, g, z, y, prng) -> None:
    """One heat-bath step (it also pays an O(m) validation), clusters and
    both edge-world weights."""
    edge, u = prng.randrange(g.num_edges), prng.uniform()
    tr.probe("cftp.heat_bath_rc_step", heat_bath_rc_step, g, z, edge, u)
    tr.probe("worlds.clusters", clusters, g, z)
    tr.probe("worlds.weight_rc", weight_rc, g, z)
    tr.probe("worlds.weight_subs", weight_subs, g, y)


def probe_reductions(tr, g, y, prng, record: bool):
    """subs -> rc -> spins -> rc -> subs from ``y``; returns the first rc
    state and the spins state."""
    before = prng.draws
    z = tr.probe("reductions.subs_to_rc", subs_to_rc, g, y, prng)
    x = tr.probe("reductions.rc_to_spins", rc_to_spins, g, z, prng)
    z2 = tr.probe("reductions.spins_to_rc", spins_to_rc, g, x, prng)
    tr.probe("reductions.rc_to_subs", rc_to_subs, g, z2, prng)
    if record:
        tr.count("conv_draws", prng.draws - before)
        tr.count("conv_edges", 4 * g.num_edges)
    return z, x


def record_chain(tr, g, spins_trace) -> None:
    """Mean cluster count of a spins block and its final largest cluster."""
    counts = spins_trace.values["clusters"]
    tr.count("chain_clusters", sum(counts) / len(counts))
    x = spins_trace.final.config
    agree = tuple(1 if x[i] == x[j] else 0 for i, j in g.edges)
    sizes = Counter(clusters(g, agree).component_id)
    tr.count("largest_cluster_frac", max(sizes.values()) / g.num_nodes)


def probe_chains(tr, g, x, y, prng, steps: int, record: bool) -> None:
    tx = tr.probe("chains.sw_classic_block", run_chain, g, ChainState("spins", x), steps, prng, SPIN_STATS)
    tr.probe("chains.sw_subgraphs_block", run_chain, g, ChainState("subs", y), steps, prng, SUBS_STATS)
    if record:
        record_chain(tr, g, tx)


def record_cftp(tr, run, draws: int, conv_draws: int, m: int) -> None:
    tr.count("epoch", run.epoch)
    tr.count("steps", run.steps)
    tr.count("draws", draws)
    tr.count("conv_draws", conv_draws)
    tr.count("conv_edges", m)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    record_items = 1  # items every run completes; digests and counts cover them
    # A pass stops only after a multiple of this many items, and latency
    # is timed over such rounds: cli_mix's five commands are not alike.
    round = 1
    tail_pct = 99  # of item_tail_ms, with at least ten rounds beyond it in a 20 s run

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.master = RngStream(seed)

    def setup(self, tr) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Return to the post-set-up state, so that a pass can be replayed."""

    def snapshot(self):
        """The state the next item starts from, for ``restore``."""

    def restore(self, saved) -> None:
        pass

    def item(self, i: int):
        raise NotImplementedError

    def traced_item(self, i: int, tr):
        raise NotImplementedError

    def probe(self, i: int, tr) -> None:
        """Probe spans on the states the last traced item left behind."""

    def check(self, p: Pass, i: int, sample) -> bool:
        raise NotImplementedError

    def finish(self, p: Pass) -> None:
        """Distribution-level gates, once the pass is over."""


class CftpCritical(Workload):
    """Exact subgraphs samples on a 16x16 grid next to the critical point."""

    name = "cftp_critical"
    record_items = 8
    tail_pct = 75

    def setup(self, tr) -> None:
        self.g = load_built(tr, self.workdir, "grid16.graph", grid_graph, 16, 16, BETA)
        closed = (0,) * self.g.num_edges  # fill the graph's lazy caches at a fixed cost
        heat_bath_rc_step(self.g, closed, 0, 0.5)
        rc_to_subs(self.g, closed, RngStream(0, WARM))

    def item(self, i: int):
        return perfect_subs_sample(self.g, self.master.substream(i))

    def traced_item(self, i: int, tr):
        rng = tr.call("rng.substream", self.master.substream, i)
        run = tr.call("cftp.cftp_rc_run", cftp_rc_run, self.g, rng)
        before = rng.draws
        y = tr.call("reductions.rc_to_subs", rc_to_subs, self.g, run.config, rng)
        if i < self.record_items:
            record_cftp(tr, run, rng.draws, rng.draws - before, self.g.num_edges)
        self.states = run.config, y
        return y

    def probe(self, i: int, tr) -> None:
        z, y = self.states
        prng = RngStream(self.seed, (PROBE, i))
        probe_worlds(tr, self.g, z, y, prng)
        _, x = probe_reductions(tr, self.g, y, prng, record=False)
        probe_chains(tr, self.g, x, y, prng, 2, record=i < self.record_items)

    def check(self, p: Pass, i: int, y) -> bool:
        return even_subgraph(self.g, y)


class SwChainLarge(Workload):
    """Both cluster chains on a 64x64 grid; CFTP is never called."""

    name = "sw_chain_large"
    record_items = 16
    tail_pct = 90
    BLOCK = 2  # steps of each kernel per item
    BURN_IN = 10

    def setup(self, tr) -> None:
        g = self.g = load_built(tr, self.workdir, "grid64.graph", grid_graph, 64, 64, BETA)
        warm = RngStream(self.seed, WARM)
        self.start = tuple(
            run_chain(g, initial_state(g, world), self.BURN_IN, warm).final for world in ("spins", "subs")
        )

    def reset(self) -> None:
        self.restore(self.start)

    def snapshot(self):
        return self.x, self.y

    def restore(self, saved) -> None:
        self.x, self.y = saved

    def item(self, i: int):
        rng = self.master.substream(i)
        tx = run_chain(self.g, self.x, self.BLOCK, rng, SPIN_STATS)
        ty = run_chain(self.g, self.y, self.BLOCK, rng, SUBS_STATS)
        self.x, self.y = tx.final, ty.final
        return tx, ty

    def traced_item(self, i: int, tr):
        rng = tr.call("rng.substream", self.master.substream, i)
        tx = tr.call("chains.sw_classic_block", run_chain, self.g, self.x, self.BLOCK, rng, SPIN_STATS)
        ty = tr.call("chains.sw_subgraphs_block", run_chain, self.g, self.y, self.BLOCK, rng, SUBS_STATS)
        self.x, self.y = tx.final, ty.final
        if i < self.record_items:
            tr.count("draws", rng.draws)
        self.last = tx
        return tx, ty

    def probe(self, i: int, tr) -> None:
        prng = RngStream(self.seed, (PROBE, i))
        record = i < self.record_items
        z, _ = probe_reductions(tr, self.g, self.y.config, prng, record)
        probe_worlds(tr, self.g, z, self.y.config, prng)
        if record:
            record_chain(tr, self.g, self.last)

    def check(self, p: Pass, i: int, sample) -> bool:
        tx, ty = sample
        x, y = tx.final.config, ty.final.config
        rows = [*tx.values.values(), *ty.values.values()]
        return (
            valid_spins(self.g, x)
            and even_subgraph(self.g, y)
            and all(len(r) == self.BLOCK and all(math.isfinite(v) for v in r) for r in rows)
            and tx.values["m"][-1] == sum(x)
            and ty.values["edges"][-1] == sum(y)
        )


class SmallReplicates(Workload):
    """Perfect sample plus all four conversions on the tiny fixtures."""

    name = "small_replicates"
    record_items = 600
    WORLDS = ("subs", "rc", "spins", "rc", "subs")  # worlds of an item's five outputs

    def setup(self, tr) -> None:
        self.graphs, self.probs = [], []
        for name, build, k in (("triangle", complete_graph, 3), ("cycle4", cycle_graph, 4)):
            for lam in (0.3, 0.6, 0.9):
                g = load_built(tr, self.workdir, f"{name}-{lam}.graph", build, k, lambda_to_beta(lam))
                tables = tr.call("exact.exact_tables", exact_tables, g)
                self.graphs.append(g)
                self.probs.append([support_probs(getattr(tables, w)) for w in self.WORLDS])
        for gi, g in enumerate(self.graphs):  # warm every code path once
            rng = RngStream(0, (WARM, gi))
            rc_to_subs(g, spins_to_rc(g, rc_to_spins(g, subs_to_rc(g, perfect_subs_sample(g, rng), rng), rng), rng), rng)

    def item(self, i: int):
        g = self.graphs[i % 6]
        rng = self.master.substream(i)
        y0 = perfect_subs_sample(g, rng)
        z1 = subs_to_rc(g, y0, rng)
        x = rc_to_spins(g, z1, rng)
        z2 = spins_to_rc(g, x, rng)
        return y0, z1, x, z2, rc_to_subs(g, z2, rng)

    def traced_item(self, i: int, tr):
        g = self.graphs[i % 6]
        rng = tr.call("rng.substream", self.master.substream, i)
        run = tr.call("cftp.cftp_rc_run", cftp_rc_run, g, rng)
        before = rng.draws
        y0 = tr.call("reductions.rc_to_subs", rc_to_subs, g, run.config, rng)
        z1 = tr.call("reductions.subs_to_rc", subs_to_rc, g, y0, rng)
        x = tr.call("reductions.rc_to_spins", rc_to_spins, g, z1, rng)
        z2 = tr.call("reductions.spins_to_rc", spins_to_rc, g, x, rng)
        y2 = tr.call("reductions.rc_to_subs", rc_to_subs, g, z2, rng)
        if i < self.record_items:
            record_cftp(tr, run, rng.draws, rng.draws - before, 5 * g.num_edges)
        self.states = g, x, z2, y2
        return y0, z1, x, z2, y2

    def probe(self, i: int, tr) -> None:
        g, x, z, y = self.states
        prng = RngStream(self.seed, (PROBE, i))
        probe_worlds(tr, g, z, y, prng)
        probe_chains(tr, g, x, y, prng, 2, record=i < self.record_items)

    def check(self, p: Pass, i: int, outputs) -> bool:
        gi = i % 6
        ok = True
        for k, config in enumerate(outputs):
            p.tally.setdefault((gi, k), Counter())[config] += 1
            ok &= config in self.probs[gi][k]
        if not ok:
            p.tally.setdefault(("bad", gi), set()).add(i)
        return ok

    def finish(self, p: Pass) -> None:
        """TV of every output world against exact_tables, per fixture."""
        checks = len(self.graphs) * len(self.WORLDS)
        for gi in range(len(self.graphs)):
            n = len(range(gi, p.attempted, 6))
            bad = p.tally.get(("bad", gi), set())
            for k in range(len(self.WORLDS)):
                probs = self.probs[gi][k]
                if tv(p.tally.get((gi, k), Counter()), n, probs) > tv_threshold(n, len(probs), checks):
                    p.failed += n - len(bad)  # every item of this fixture now counts as failed
                    bad = set(range(gi, p.attempted, 6))


class CliMix(Workload):
    """A fixed round of real CLI processes on small graphs."""

    name = "cli_mix"
    record_items = 5
    round = 5
    tail_pct = 90  # the slowest of the (typically three) rounds of a run
    SAMPLES = "2000"
    SPANS = ("cli.verify_k5", "cli.verify_grid3x4", "cli.perfect_jobs1", "cli.perfect_jobs2", "cli.sample_chain")
    MIRROR_SAMPLES = 50  # in-process perfect samples per round in the traced run

    def setup(self, tr) -> None:
        src = Path(__file__).resolve().parent.parent / "src"
        paths = [str(src), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        self.k5 = load_built(tr, self.workdir, "k5.graph", complete_graph, 5, BETA)
        load_built(tr, self.workdir, "grid3x4.graph", grid_graph, 3, 4, BETA)
        self.g33 = load_built(tr, self.workdir, "grid3x3.graph", grid_graph, 3, 3, BETA)
        self.subs_probs = support_probs(tr.call("exact.exact_tables", exact_tables, self.g33).subs)
        self.cli("--version")  # warm the file cache for the interpreter and the package

    def cli(self, *args: str) -> tuple[int, bytes]:
        proc = subprocess.run(
            [sys.executable, "-m", "isingworlds.cli", *args],
            cwd=self.workdir, env=self.env, capture_output=True, timeout=150,
        )
        if proc.returncode:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        return proc.returncode, proc.stdout

    def argv(self, i: int) -> list[str]:
        r, k = divmod(i, 5)
        seed = str(self.seed * 1000 + r)
        grid = ["--graph", "grid3x3.graph", "--samples", self.SAMPLES, "--seed", seed]
        return [
            ["verify", "--all-identities", "--graph", "k5.graph"],
            ["verify", "--all-identities", "--graph", "grid3x4.graph"],
            ["perfect", "--world", "subs", *grid, "--jobs", "1"],
            ["perfect", "--world", "subs", *grid, "--jobs", "2"],
            ["sample", "--world", "subs", "--method", "chain", *grid],
        ][k]

    def item(self, i: int):
        return self.cli(*self.argv(i))

    def traced_item(self, i: int, tr):
        code, out = tr.call(self.SPANS[i % 5], self.cli, *self.argv(i))
        if i < self.record_items:
            tr.count("stdout_bytes", len(out))
        return code, out

    def probe(self, i: int, tr) -> None:
        if i % 5 == 4:
            tr.probe("cli.version", self.cli, "--version")
            self.mirror_cftp(tr, i // 5)
            self.mirror_exact(tr)

    def mirror_cftp(self, tr, r: int) -> None:
        """In-process perfect samples on the CLI's grid, then every layer on them."""
        g = self.g33
        master = RngStream(self.seed, (MIRROR, r))
        for s in range(self.MIRROR_SAMPLES):
            rng = tr.probe("rng.substream", master.substream, s)
            run = tr.probe("cftp.cftp_rc_run", cftp_rc_run, g, rng)
            before = rng.draws
            y = tr.probe("reductions.rc_to_subs", rc_to_subs, g, run.config, rng)
            record = r == 0 and s < 8
            if record:
                record_cftp(tr, run, rng.draws, rng.draws - before, g.num_edges)
            prng = RngStream(self.seed, (PROBE, r, s))
            probe_worlds(tr, g, run.config, y, prng)
            _, x = probe_reductions(tr, g, y, prng, record)
            probe_chains(tr, g, x, y, prng, 2, record)

    def mirror_exact(self, tr) -> None:
        """What ``verify --all-identities`` computes on K5, in-process."""
        tables = tr.probe("exact.exact_tables", exact_tables, self.k5)
        tr.probe("exact.kernel_stationarity_error", kernel_stationarity_error, self.k5, "sw_subgraphs", tables)

    def check(self, p: Pass, i: int, sample) -> bool:
        code, out = sample
        if code != 0:
            return False
        k = i % 5
        try:
            if k < 2:
                return json.loads(out)["passed"] is True
            if k == 3:
                return out == p.tally.get("jobs1")
            lines = out.decode().splitlines()
            if k == 4:
                if json.loads(lines.pop())["samples"] != int(self.SAMPLES):
                    return False
            configs = [tuple(json.loads(line)["config"]) for line in lines]
        except (ValueError, KeyError, TypeError):
            return False
        if k == 2:
            p.tally["jobs1"] = out
            p.tally.setdefault("perfect", Counter()).update(configs)
            p.tally.setdefault("perfect_items", []).append(i)
        return len(configs) == int(self.SAMPLES) and all(even_subgraph(self.g33, y) for y in configs)

    def finish(self, p: Pass) -> None:
        """TV of all ``perfect`` samples of the pass against exact_tables."""
        counts = p.tally.get("perfect", Counter())
        n = sum(counts.values())
        if n and tv(counts, n, self.subs_probs) > tv_threshold(n, len(self.subs_probs), 1):
            p.failed += len(p.tally["perfect_items"])


WORKLOADS = {wl.name: wl for wl in (CftpCritical, SwChainLarge, SmallReplicates, CliMix)}


def run_refs(wl: Workload, tr) -> None:
    """One cli_mix round with its in-process probes, as reference probes
    for the layers another workload cannot reach at its own input size
    (cftp on sw_chain_large; exact and cli on all three)."""
    if isinstance(wl, CliMix):
        return
    tr.kind = "ref"
    ref = CliMix(wl.seed, wl.workdir)
    ref.setup(tr)
    if run_pass(ref, 0.0, tr, items=ref.round).failed:
        raise RuntimeError("the reference cli_mix round failed its gates")
    tr.kind = "own"
