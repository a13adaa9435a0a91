"""Command-line interface.

Subcommands: ``convert`` rewrites a graph file in another edge
parameterization, ``reduce`` applies one exact world-to-world
conversion, ``chain`` runs a cluster-update Markov chain, ``perfect``
draws exact samples by coupling from the past, ``sample`` unifies the
sampling backends, and ``verify`` checks the partition-function
identities and kernel exactness on a small graph.

Every sampling command requires ``--seed`` and is fully deterministic
given its inputs.  With ``--out FILE`` the payload goes to the file and
a run manifest (including timing) is written next to it as
``FILE.manifest.json``; without ``--out`` the payload goes to stdout
with timing omitted so repeated runs are byte-identical.

Exit codes: 0 success, 1 failed verification, 2 input/parse error,
3 enumeration cap exceeded, 4 no coalescence.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

from . import __version__
from .cftp import DEFAULT_MAX_EPOCH, cftp_rc_run
from .chains import initial_state, run_chain
from .errors import (
    CapExceededError,
    GraphFormatError,
    InvalidConfigError,
    InvalidParameterError,
    IsingError,
    NoCoalescenceError,
    UnknownStatisticError,
    UnsupportedFieldError,
)
from .exact import (
    CAPS,
    exact_tables,
    KERNEL_EDGE_CAP,
    KERNEL_NODE_CAP,
    check_even_subgraph_count,
    check_rc_normalizer,
    check_relate_identity,
    enumerate_world,
    kernel_stationarity_error,
    sample_from_table,
)
from .graph import WeightedGraph, require_field_free
from .graphio import graph_to_text, load_graph
from .reductions import REDUCTIONS, subs_to_rc
from .rng import RngStream
from .worlds import STATISTICS, config_from_string, statistic

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_NO_COALESCENCE = 4

_INPUT_ERRORS = (
    GraphFormatError,
    InvalidParameterError,
    InvalidConfigError,
    UnsupportedFieldError,
    UnknownStatisticError,
)


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _manifest(command: str, args: argparse.Namespace) -> dict:
    manifest = {
        "tool": "isingworlds",
        "version": __version__,
        "command": command,
        "options": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "caps": dict(CAPS),
    }
    graph = getattr(args, "graph", None)
    if graph:
        manifest["graph_sha256"] = _sha256(graph)
    seed = getattr(args, "seed", None)
    if seed is not None:
        manifest["seed"] = seed
    return manifest


def _emit(
    text: str, args: argparse.Namespace, manifest: dict, started: float, workers: int | None = None
) -> None:
    """Write the payload to --out plus a manifest sidecar, or to stdout.

    Only the sidecar records what depends on the machine: the timing and,
    for the sampling commands, the number of worker processes used.
    """
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text, encoding="utf-8")
        sidecar = dict(manifest)
        if workers is not None:
            sidecar["workers"] = workers
        sidecar["timing_seconds"] = time.perf_counter() - started
        Path(out + ".manifest.json").write_text(
            json.dumps(sidecar, indent=2) + "\n", encoding="utf-8"
        )
    else:
        sys.stdout.write(text)
        if text and not text.endswith("\n"):  # an empty payload writes nothing
            sys.stdout.write("\n")


def _load_config(path: str, world: str) -> tuple[int, ...]:
    """Read a configuration file: bit/sign string, JSON array, or JSON
    object.  The conversion it feeds checks it against the graph."""
    try:
        text = Path(path).read_text(encoding="utf-8").strip()
    except OSError as exc:
        raise InvalidConfigError(f"cannot read {path}: {exc}") from None
    if text.startswith("[") or text.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidConfigError(f"invalid config JSON: {exc}") from None
        if isinstance(payload, dict):
            payload = payload.get("config")
        if not isinstance(payload, list):
            raise InvalidConfigError("config JSON must be an array or {'config': [...]}")
        if not all(type(v) is int for v in payload):  # bool is an int subclass
            raise InvalidConfigError(f"config entries must be integers, got {payload!r}")
        return tuple(payload)
    return config_from_string(world, text)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_convert(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    g = load_graph(args.graph)
    _emit(graph_to_text(g, args.to), args, _manifest("convert", args), started)
    return EXIT_OK


def cmd_reduce(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.src == args.to:
        raise InvalidConfigError("--from and --to must name different worlds")
    g = load_graph(args.graph)
    config = _load_config(args.config, args.src)
    rng = RngStream(args.seed)
    fn = REDUCTIONS[(args.src, args.to)]
    result = fn(g, config, rng)
    payload = {
        "from": args.src,
        "to": args.to,
        "config": list(result),
        "draws": rng.draws,
    }
    manifest = _manifest("reduce", args)
    if not args.out:
        payload["manifest"] = manifest
    _emit(json.dumps(payload, indent=2), args, manifest, started)
    return EXIT_OK


_KERNEL_WORLDS = {"sw": "spins", "subs-sw": "subs"}
_DEFAULT_STATS = {"spins": "m,energy", "subs": "edges,clusters"}


def cmd_chain(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    g = load_graph(args.graph)
    world = _KERNEL_WORLDS[args.kernel]
    stats = tuple(s for s in (args.stats or _DEFAULT_STATS[world]).split(",") if s)
    trace = run_chain(g, initial_state(g, world), args.steps, RngStream(args.seed), stats, args.thin)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["step", *stats])
    for row, step in enumerate(trace.steps):
        writer.writerow([step, *(trace.values[name][row] for name in stats)])
    _emit(buffer.getvalue(), args, _manifest("chain", args), started)
    return EXIT_OK


def _cftp_one(
    g: WeightedGraph, seed: int, index: int, world: str, max_epoch: int
) -> tuple[tuple[int, ...], int]:
    """One perfect sample from its own stream; returns (config, epoch)."""
    rng = RngStream(seed, index)
    run = cftp_rc_run(g, rng, max_epoch)
    config = run.config
    if world != "rc":
        config = REDUCTIONS[("rc", world)](g, config, rng)
    return config, run.epoch


def _workers(jobs: int, samples: int) -> int:
    """Processes that draw the samples: ``--jobs`` capped at the cpu count,
    and one (this process, no pool) for fewer than two samples."""
    return min(jobs, os.cpu_count() or 1) if samples >= 2 else 1


def _cftp_samples(
    g: WeightedGraph, seed: int, world: str, max_epoch: int, samples: int, workers: int
) -> list[tuple[tuple[int, ...], int]]:
    one = partial(_cftp_one, g, seed, world=world, max_epoch=max_epoch)
    if workers <= 1:
        return [one(i) for i in range(samples)]
    # each sample has its own stream and map keeps index order, so the
    # output does not depend on the number of workers
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, range(samples), chunksize=math.ceil(samples / workers)))


def cmd_perfect(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    g = load_graph(args.graph)
    workers = _workers(args.jobs, args.samples)
    rows = _cftp_samples(g, args.seed, args.world, args.max_epoch, args.samples, workers)
    lines = [
        json.dumps({"config": list(config), "epoch": epoch}, separators=(", ", ": "))
        for config, epoch in rows
    ]
    text = "\n".join(lines) + ("\n" if lines else "")
    _emit(text, args, _manifest("perfect", args), started, workers=workers)
    return EXIT_OK


def _chain_samples(
    g: WeightedGraph, world: str, seed: int, n: int, burnin: int, thin: int
) -> list[tuple[int, ...]]:
    chain_world = "subs" if world == "rc" else world
    rng = RngStream(seed)
    state = initial_state(g, chain_world)
    state = run_chain(g, state, burnin, rng).final
    samples = []
    for _ in range(n):
        state = run_chain(g, state, thin, rng).final
        config = state.config
        if world == "rc":
            config = subs_to_rc(g, config, rng)
        samples.append(config)
    return samples


def cmd_sample(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    g = load_graph(args.graph)
    world, n = args.world, args.samples
    workers = _workers(args.jobs, n) if args.method == "cftp" else 1
    if args.method == "enum":
        if world != "spins":
            require_field_free(g)  # the edge-world tables would drop the field
        table = enumerate_world(g, world)
        samples = sample_from_table(table, RngStream(args.seed), n)
        extra = [{} for _ in samples]
    elif args.method == "cftp":
        rows = _cftp_samples(g, args.seed, world, args.max_epoch, n, workers)
        samples = [config for config, _ in rows]
        extra = [{"epoch": epoch} for _, epoch in rows]
    else:  # chain
        samples = _chain_samples(g, world, args.seed, n, args.burnin, args.thin)
        extra = [{} for _ in samples]

    lines = [
        json.dumps({"config": list(c), **info}, separators=(", ", ": "))
        for c, info in zip(samples, extra)
    ]
    stat_names = STATISTICS[world]
    summary_stats = {}
    for name in stat_names:
        values = [statistic(g, world, c, name) for c in samples]
        mean = sum(values) / n if n else None  # null in the JSON: undefined, not NaN
        var = sum((v - mean) ** 2 for v in values) / (n - 1) if n > 1 else 0.0
        summary_stats[name] = {"mean": mean, "se": math.sqrt(var / n) if n else None}
    manifest = _manifest("sample", args)
    summary = {
        "world": world,
        "method": args.method,
        "samples": n,
        "stats": summary_stats,
        "manifest": manifest,
    }
    _emit("\n".join(lines) + ("\n" if lines else ""), args, manifest, started, workers=workers)
    # summary goes to stdout either way; without --out it is the final line
    print(json.dumps(summary) if not args.out else json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    g = load_graph(args.graph)
    require_field_free(g)  # an input error before any enumeration, at any size
    finite = not any(math.isinf(b) for b in g.betas)
    within_kernel_caps = g.num_edges <= KERNEL_EDGE_CAP and g.num_nodes <= KERNEL_NODE_CAP
    # each world is enumerated once; with neither the spins bridges nor the
    # kernel checks, check_rc_normalizer enumerates only the edge worlds,
    # so graphs past the spins cap with infinite couplings still verify
    tables = exact_tables(g) if finite or (args.all_identities and within_kernel_caps) else None
    checks: list[dict] = []
    if finite:
        checks.extend(report.as_dict() for report in check_relate_identity(g, tables=tables))
    else:
        checks.append(
            {
                "name": "spins_identities",
                "skipped": "couplings include inf; the spins bridges need finite couplings",
            }
        )
    checks.append(check_rc_normalizer(g, tables=tables).as_dict())

    if args.all_identities:
        if within_kernel_caps:
            for kernel in ("subs_to_rc", "rc_to_subs", "spins_to_rc", "rc_to_spins",
                           "sw_classic", "sw_subgraphs"):
                error = kernel_stationarity_error(g, kernel, tables)
                checks.append(
                    {
                        "name": f"stationarity[{kernel}]",
                        "max_abs_error": error,
                        "tolerance": 1e-9,
                        "passed": error < 1e-9,
                    }
                )
        else:
            checks.append({"name": "stationarity", "skipped": "graph exceeds kernel caps"})
        for label, z in (("all_open", (1,) * g.num_edges), ("all_closed", (0,) * g.num_edges)):
            report = check_even_subgraph_count(g, z).as_dict()
            report["name"] = f"even_subgraph_count[{label}]"
            checks.append(report)

    passed = all(c.get("passed", True) for c in checks)
    payload = {"graph": args.graph, "passed": passed, "checks": checks}
    manifest = _manifest("verify", args)
    if not args.out:
        payload["manifest"] = manifest
    _emit(json.dumps(payload, indent=2), args, manifest, started)
    return EXIT_OK if passed else EXIT_FAILED


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _count(minimum: int):
    """Argparse type for an integer count of at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


_nonnegative = _count(0)
_positive = _count(1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isingworlds",
        description="Exact reductions, chains, and perfect sampling for the Ising worlds.",
    )
    parser.add_argument("--version", action="version", version=f"isingworlds {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="rewrite a graph file in another parameterization")
    p.add_argument("--graph", required=True)
    p.add_argument("--to", required=True, choices=("beta", "lambda", "p"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("reduce", help="convert one configuration between worlds")
    p.add_argument("--from", dest="src", required=True, choices=("subs", "rc", "spins"))
    p.add_argument("--to", required=True, choices=("subs", "rc", "spins"))
    p.add_argument("--graph", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("chain", help="run a cluster-update Markov chain")
    p.add_argument("--kernel", required=True, choices=("sw", "subs-sw"))
    p.add_argument("--graph", required=True)
    p.add_argument("--steps", type=_nonnegative, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stats", help="comma-separated statistic names")
    p.add_argument("--thin", type=_positive, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("perfect", help="exact sampling by coupling from the past")
    p.add_argument("--world", required=True, choices=("rc", "subs"))
    p.add_argument("--graph", required=True)
    p.add_argument("--samples", type=_nonnegative, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-epoch", type=_nonnegative, default=DEFAULT_MAX_EPOCH)
    p.add_argument("--jobs", type=_positive, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_perfect)

    p = sub.add_parser("sample", help="draw samples by enumeration, CFTP, or a chain")
    p.add_argument("--world", required=True, choices=("spins", "subs", "rc"))
    p.add_argument("--method", required=True, choices=("enum", "cftp", "chain"))
    p.add_argument("--graph", required=True)
    p.add_argument("--samples", type=_nonnegative, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--burnin", type=_nonnegative, default=0)
    p.add_argument("--thin", type=_positive, default=1)
    p.add_argument("--max-epoch", type=_nonnegative, default=DEFAULT_MAX_EPOCH)
    p.add_argument("--jobs", type=_positive, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="check identities and kernel exactness")
    p.add_argument("--graph", required=True)
    p.add_argument("--all-identities", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except NoCoalescenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_COALESCENCE
    except IsingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
