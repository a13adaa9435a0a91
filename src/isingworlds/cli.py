"""Command-line interface.

Subcommands: ``convert`` rewrites a graph file in another edge
parameterization, ``reduce`` applies one exact world-to-world
conversion, ``chain`` traces a cluster-update Markov chain from a fixed
state (a relaxation diagnostic), ``sample`` draws by enumeration,
coupling from the past or that chain started from a perfect draw (which
``--max-epoch`` bounds), so every draw is exact in law, and adds a
summary line, ``perfect --world W`` prints exactly the lines of
``sample --method cftp --world W`` without it, for each of the three
worlds, and ``verify`` checks the partition-function identities and
kernel exactness on a small graph.

Every command reads ``--graph`` and takes ``--out``; every sampling
command requires ``--seed``, a nonnegative integer, and is fully
deterministic given its inputs.  ``main`` loads the graph and the
handler writes its payload through ``_emit``: with ``--out FILE`` the
payload goes to the file and a run manifest (including timing) is
written next to it as ``FILE.manifest.json``; without ``--out`` the
payload goes to stdout with timing omitted so repeated runs are
byte-identical.  An ``--out`` path that cannot be written is an input
error before any work is done, even before the graph is read.

The enumeration oracle (``verify`` and ``sample --method enum``) runs on
one OpenBLAS thread unless ``OPENBLAS_NUM_THREADS`` is already set, in
which case the user's value wins; the sidecar records it as
``blas_threads``.

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
from functools import partial
from pathlib import Path
from typing import Callable

from . import __version__
from .caps import CAPS, KERNEL_EDGE_CAP, KERNEL_NODE_CAP
from .cftp import DEFAULT_MAX_EPOCH, MAX_EPOCH, perfect_sample
from .chains import ChainState, initial_state, run_chain
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
from .graph import WeightedGraph, require_field_free
from .graphio import graph_to_text, load_graph
from .reductions import REDUCTIONS, subs_to_rc
from .rng import RngStream
from .worlds import STATISTICS, config_from_string

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_NO_COALESCENCE = 4

# an error exits with the code of the first entry it is an instance of
_EXIT_CODES = (
    ((GraphFormatError, InvalidParameterError, InvalidConfigError, UnsupportedFieldError,
      UnknownStatisticError), EXIT_INPUT),
    (CapExceededError, EXIT_CAP),
    (NoCoalescenceError, EXIT_NO_COALESCENCE),
    (IsingError, EXIT_FAILED),
)


def _emit(args: argparse.Namespace, started: float, payload: str | dict, machine: dict | None = None) -> dict:
    """Write the payload to --out plus a manifest sidecar, or to stdout,
    and return the run manifest.

    A dict payload is written as indented JSON; bound for stdout, it
    carries the manifest as its last entry.  Only the sidecar records
    what depends on the machine: the timing and the ``machine`` entries
    (worker processes for the sampling commands, BLAS threads for the
    enumeration oracle).
    """
    manifest = {
        "tool": "isingworlds",
        "version": __version__,
        "command": args.command,
        "options": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "caps": dict(CAPS),
        "graph_sha256": hashlib.sha256(Path(args.graph).read_bytes()).hexdigest(),
    }
    if getattr(args, "seed", None) is not None:
        manifest["seed"] = args.seed
    out = args.out
    if isinstance(payload, dict):
        payload = json.dumps(payload if out else {**payload, "manifest": manifest}, indent=2)
    if out:
        sidecar = {**manifest, **(machine or {})}
        try:
            Path(out).write_text(payload, encoding="utf-8")
            sidecar["timing_seconds"] = time.perf_counter() - started
            Path(out + ".manifest.json").write_text(
                json.dumps(sidecar, indent=2) + "\n", encoding="utf-8"
            )
        except OSError as exc:
            raise InvalidConfigError(f"cannot write {out}: {exc}") from None
    else:
        sys.stdout.write(payload)
        if payload and not payload.endswith("\n"):  # an empty payload writes nothing
            sys.stdout.write("\n")
    return manifest


def _require_writable(out: str | None) -> None:
    """Refuse an --out path that cannot be written before any work is done,
    so a mistyped directory fails at once instead of after a whole run."""
    if not out:
        return
    path = Path(out)
    if path.is_dir():
        problem = "it is a directory"
    elif not path.parent.is_dir():
        problem = f"no directory {path.parent}"
    elif not os.access(path if path.exists() else path.parent, os.W_OK):
        problem = "permission denied"
    else:
        return
    raise InvalidConfigError(f"cannot write {out}: {problem}")


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
# Subcommand handlers: each gets the parsed arguments, the loaded graph
# and ``emit``, which writes its payload (see ``_emit``)
# ---------------------------------------------------------------------------

def cmd_convert(args: argparse.Namespace, g: WeightedGraph, emit: Callable) -> int:
    emit(graph_to_text(g, args.to))
    return EXIT_OK


def cmd_reduce(args: argparse.Namespace, g: WeightedGraph, emit: Callable) -> int:
    if args.src == args.to:
        raise InvalidConfigError("--from and --to must name different worlds")
    config = _load_config(args.config, args.src)
    rng = RngStream(args.seed)
    result = REDUCTIONS[(args.src, args.to)](g, config, rng)
    emit({"from": args.src, "to": args.to, "config": list(result), "draws": rng.draws})
    return EXIT_OK


_KERNEL_WORLDS = {"sw": "spins", "subs-sw": "subs"}
_DEFAULT_STATS = {"spins": "m,energy", "subs": "edges,clusters"}


def cmd_chain(args: argparse.Namespace, g: WeightedGraph, emit: Callable) -> int:
    world = _KERNEL_WORLDS[args.kernel]
    stats = tuple(s for s in (args.stats or _DEFAULT_STATS[world]).split(",") if s)
    trace = run_chain(g, initial_state(g, world), args.steps, RngStream(args.seed), stats, args.thin)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["step", *stats])
    for row, step in enumerate(trace.steps):
        writer.writerow([step, *(trace.values[name][row] for name in stats)])
    emit(buffer.getvalue())
    return EXIT_OK


def _cftp_record(g: WeightedGraph, seed: int, world: str, max_epoch: int, index: int) -> dict:
    """Sample ``index`` by CFTP on its own stream, as its output record."""
    config, run = perfect_sample(g, world, RngStream(seed, index), max_epoch)
    return {"config": list(config), "epoch": run.epoch}


def _chain_samples(
    g: WeightedGraph, world: str, seed: int, n: int, thin: int, max_epoch: int
) -> list[tuple[int, ...]]:
    """``n`` chain states ``thin`` steps apart, from a perfect start on its
    own key ``(seed, 0, 0)``: the kernels keep the law, so each is exact."""
    if not n:
        return []  # no sample, no start
    chain_world = "subs" if world == "rc" else world
    start, _ = perfect_sample(g, chain_world, RngStream(seed).substream(0), max_epoch)
    state = ChainState(chain_world, start)
    rng = RngStream(seed)
    samples = []
    for _ in range(n):
        state = run_chain(g, state, thin, rng).final
        config = state.config
        if world == "rc":
            config = subs_to_rc(g, config, rng)
        samples.append(config)
    return samples


def _draw(args: argparse.Namespace, g: WeightedGraph, emit: Callable, method: str) -> tuple[list, dict]:
    """Draw ``args.samples`` samples by ``method`` and write them as JSON
    lines; returns the samples and the manifest."""
    world, n = args.world, args.samples
    workers = min(args.jobs, os.cpu_count() or 1) if method == "cftp" and n >= 2 else 1
    machine = {"workers": workers}
    if method != "enum" or world != "spins":
        require_field_free(g)  # only the spins table keeps a field; refused at any n
    if method == "cftp":
        one = partial(_cftp_record, g, args.seed, world, args.max_epoch)
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

            # each sample has its own stream and map keeps index order, so
            # the output does not depend on the number of workers
            with ProcessPoolExecutor(max_workers=workers) as pool:
                records = list(pool.map(one, range(n), chunksize=math.ceil(n / workers)))
        else:
            records = [one(i) for i in range(n)]
    else:
        if method == "enum":
            from .exact import enumerate_world, sample_from_table  # the oracle loads numpy

            machine["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
            samples = sample_from_table(enumerate_world(g, world), RngStream(args.seed), n)
        else:  # chain
            samples = _chain_samples(g, world, args.seed, n, args.thin, args.max_epoch)
        records = [{"config": list(c)} for c in samples]
    lines = "".join(json.dumps(r, separators=(", ", ": ")) + "\n" for r in records)
    return [r["config"] for r in records], emit(lines, machine)


def cmd_perfect(args: argparse.Namespace, g: WeightedGraph, emit: Callable) -> int:
    _draw(args, g, emit, "cftp")
    return EXIT_OK


def cmd_sample(args: argparse.Namespace, g: WeightedGraph, emit: Callable) -> int:
    samples, manifest = _draw(args, g, emit, args.method)
    world, n = args.world, args.samples
    summary_stats = {}
    for name, observable in STATISTICS[world].items():
        values = [observable(g, c) for c in samples]
        # fsum: exactly rounded, so the summary reads the same on every Python
        mean = math.fsum(values) / n if n else None  # null in the JSON: undefined, not NaN
        var = math.fsum((v - mean) ** 2 for v in values) / (n - 1) if n > 1 else None  # one sample: no spread
        summary_stats[name] = {"mean": mean, "se": math.sqrt(var / n) if var is not None else None}
    summary = {
        "world": world,
        "method": args.method,
        "samples": n,
        "stats": summary_stats,
        "manifest": manifest,
    }
    # summary goes to stdout either way; without --out it is the final line
    print(json.dumps(summary) if not args.out else json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, g: WeightedGraph, emit: Callable) -> int:
    from .exact import (  # the oracle loads numpy
        STATIONARITY_TOL,
        ExactTables,
        check_even_subgraph_count,
        check_rc_normalizer,
        check_relate_identity,
        kernel_stationarity_error,
    )

    require_field_free(g)  # an input error before any enumeration, at any size
    finite = not any(math.isinf(b) for b in g.betas)
    within_kernel_caps = g.num_edges <= KERNEL_EDGE_CAP and g.num_nodes <= KERNEL_NODE_CAP
    tables = ExactTables(g)
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
                        "tolerance": STATIONARITY_TOL,
                        "passed": error < STATIONARITY_TOL,
                    }
                )
        else:
            checks.append({"name": "stationarity", "skipped": "graph exceeds kernel caps"})
        for label, z in (("all_open", (1,) * g.num_edges), ("all_closed", (0,) * g.num_edges)):
            report = check_even_subgraph_count(g, z).as_dict()
            report["name"] = f"even_subgraph_count[{label}]"
            checks.append(report)

    passed = all(c.get("passed", True) for c in checks)
    emit({"graph": args.graph, "passed": passed, "checks": checks},
         {"blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")})
    return EXIT_OK if passed else EXIT_FAILED


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _count(minimum: int, maximum: int | None = None):
    """Argparse type for an integer count of at least ``minimum`` and, if
    given, at most ``maximum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    return parse


_nonnegative = _count(0)
_positive = _count(1)
_epoch_budget = _count(0, MAX_EPOCH)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isingworlds",
        description="Exact reductions, chains, and perfect sampling for the Ising worlds.",
    )
    parser.add_argument("--version", action="version", version=f"isingworlds {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func: Callable, about: str, seeded: bool = True) -> argparse.ArgumentParser:
        """A subcommand with the options every command takes: --graph,
        --out and, if it draws, --seed."""
        p = sub.add_parser(name, help=about)
        p.add_argument("--graph", required=True)
        if seeded:
            p.add_argument("--seed", type=_nonnegative, required=True)
        p.add_argument("--out")
        p.set_defaults(func=func)
        return p

    def draw_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--world", required=True, choices=("spins", "subs", "rc"))
        p.add_argument("--samples", type=_nonnegative, required=True)
        p.add_argument("--max-epoch", type=_epoch_budget, default=DEFAULT_MAX_EPOCH)
        p.add_argument("--jobs", type=_positive, default=1)

    p = command("convert", cmd_convert, "rewrite a graph file in another parameterization", seeded=False)
    p.add_argument("--to", required=True, choices=("beta", "lambda", "p"))

    p = command("reduce", cmd_reduce, "convert one configuration between worlds")
    p.add_argument("--from", dest="src", required=True, choices=("subs", "rc", "spins"))
    p.add_argument("--to", required=True, choices=("subs", "rc", "spins"))
    p.add_argument("--config", required=True)

    p = command("chain", cmd_chain, "run a cluster-update Markov chain")
    p.add_argument("--kernel", required=True, choices=("sw", "subs-sw"))
    p.add_argument("--steps", type=_nonnegative, required=True)
    p.add_argument("--stats", help="comma-separated statistic names")
    p.add_argument("--thin", type=_positive, default=1)

    draw_options(command("perfect", cmd_perfect, "exact sampling by coupling from the past"))

    p = command("sample", cmd_sample, "draw samples by enumeration, CFTP, or a chain")
    draw_options(p)
    p.add_argument("--method", required=True, choices=("enum", "cftp", "chain"))
    p.add_argument("--thin", type=_positive, default=1)

    p = command("verify", cmd_verify, "check identities and kernel exactness", seeded=False)
    p.add_argument("--all-identities", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    # before the oracle's lazy numpy import: OpenBLAS otherwise starts a
    # worker per core that spins after every call and takes CPU from the
    # single-threaded oracle, whose products are at most 4096 x 1024
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        _require_writable(args.out)
        return args.func(args, load_graph(args.graph), partial(_emit, args, started))
    except IsingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
