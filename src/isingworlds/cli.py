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
byte-identical.  An ``--out`` path that cannot be written, or that
names an existing file that is not a regular one, is an input error
before any work is done, even before the graph is read.

Every command that writes a line per draw or per step writes it a
block at a time as it is made, so memory does not grow with
``--samples`` or ``--steps``: the sampling commands draw through
:func:`~isingworlds.chains.draws`, which fixes the stream of every
draw, and ``chain`` writes its CSV rows as successive
:func:`~isingworlds.chains.run_chain` blocks on one stream produce
them.  A run that fails midway may have written a prefix of whole
lines to stdout; ``--out`` is written to a temporary file beside
the file it names and renamed over that file at the end, so a failed
run leaves it and its sidecar as they were.

The enumeration oracle (``verify`` and ``sample --method enum``) runs on
one OpenBLAS thread unless ``OPENBLAS_NUM_THREADS`` is already set, in
which case the user's value wins; the sidecar records it as
``blas_threads``.

Exit codes: 0 success, 1 failed verification, 2 input/parse error,
3 enumeration cap exceeded, 4 no coalescence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import sys
import time
from array import array
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator

from . import __version__
from .caps import CAPS, KERNEL_EDGE_CAP, KERNEL_NODE_CAP
from .cftp import DEFAULT_MAX_EPOCH, MAX_EPOCH, first_epoch
from .chains import DRAW_BLOCK, ChainState, draws, initial_state, run_chain
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
from .graph import PARAM_NAMES, WeightedGraph, require_field_free
from .graphio import graph_to_text, load_graph
from .reductions import REDUCTIONS
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


def _json(payload: dict, indent: int | None = None) -> str:
    """``payload`` as strict JSON: infinities spelled "inf"/"-inf", as graph
    files spell them, and NaN written as null, an undefined value.  Every
    finite value reads back as the same float, so it keeps its bytes."""
    spelled = {"Infinity": "inf", "-Infinity": "-inf", "NaN": None}
    return json.dumps(json.loads(json.dumps(payload), parse_constant=spelled.get), indent=indent)


def _emit(args: argparse.Namespace, started: float, payload: dict | Iterable[str], machine: dict | None = None) -> dict:
    """Write the payload to --out plus a manifest sidecar, or to stdout,
    and return the run manifest.

    A dict payload is written as indented JSON; bound for stdout, it
    carries the manifest as its last entry and ends the line.  Any other
    payload is an iterable of text chunks, each written as it comes: to
    stdout, or to a temporary file beside the file --out names (through
    any symlink) that replaces it, with its permission bits, after the
    last chunk, so a payload that raises leaves --out as it was and
    writes no sidecar.  Only the sidecar records
    what depends on the machine or on how the run went: the timing and
    the ``machine`` entries (worker processes for the sampling commands,
    the CFTP first epoch for those that run CFTP, BLAS threads for the
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
        text = _json(payload if out else {**payload, "manifest": manifest}, indent=2)
        payload = [text if out else text + "\n"]
    if not out:
        sys.stdout.writelines(payload)
        return manifest
    sidecar = {**manifest, **(machine or {})}
    target = Path(out).resolve()  # through a symlink, so the link stays and its file is replaced
    temp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        with temp.open("w", encoding="utf-8") as handle:
            handle.writelines(payload)
        if target.exists():
            shutil.copymode(target, temp)
        temp.replace(target)
        sidecar["timing_seconds"] = time.perf_counter() - started
        Path(out + ".manifest.json").write_text(_json(sidecar, indent=2) + "\n", encoding="utf-8")
    except OSError as exc:
        raise InvalidConfigError(f"cannot write {out}: {exc}") from None
    finally:
        temp.unlink(missing_ok=True)  # left only by a run that failed
    return manifest


def _require_writable(out: str | None) -> None:
    """Refuse an --out path that cannot be written before any work is done,
    so a mistyped directory fails at once instead of after a whole run.
    An existing --out must be a regular file (or a symlink to one), as
    the run renames a new file over it, in a directory it can write."""
    if not out:
        return
    path = Path(out).resolve()
    if path.exists() and not path.is_file():
        problem = "it is a directory" if path.is_dir() else "it is not a regular file"
    elif not path.parent.is_dir():
        problem = f"no directory {path.parent}"
    elif not all(os.access(p, os.W_OK) for p in (path, path.parent) if p.exists()):
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
    emit([graph_to_text(g, args.to)])
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
    rng, block = RngStream(args.seed), DRAW_BLOCK * args.thin

    def rows(state: ChainState) -> Iterator[str]:
        """The CSV text: the header, then the rows of ``block`` steps at a
        time, each block resuming from the last one's final state on the
        one stream.  No field needs quoting: the step is an int, the
        values are floats and the names are those of ``STATISTICS``."""
        yield ",".join(("step", *stats)) + "\r\n"
        for start in range(0, args.steps, block):
            trace = run_chain(g, state, min(block, args.steps - start), rng, stats, args.thin)
            state = trace.final
            yield "".join(",".join(map(str, row)) + "\r\n" for row in zip(trace.steps, *trace.values.values()))

    # a run of no steps makes every check, so a bad option writes nothing
    emit(rows(run_chain(g, initial_state(g, world), 0, rng, stats, args.thin).final))
    return EXIT_OK


def _bounded_map(pool, ahead: int, fn: Callable, items: Iterable) -> Iterator:
    """``pool.map(fn, items)`` with at most ``ahead`` tasks submitted past
    the one being read, where ``Executor.map`` submits every task at once."""
    pending: list = []  # at most ahead + 1 futures
    for item in items:
        pending.append(pool.submit(fn, item))
        if len(pending) > ahead:
            yield pending.pop(0).result()
    yield from (future.result() for future in pending)


def _json_lines(records: Iterator, each: Callable) -> Iterator[str]:
    """The JSON lines of the draws, a block of them joined at a time;
    ``each`` sees every draw in order."""
    while block := list(islice(records, DRAW_BLOCK)):
        for config, _ in block:
            each(config)
        yield "".join(json.dumps({"config": list(c), **({} if e is None else {"epoch": e})}) + "\n" for c, e in block)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one (a cpuset-limited host has fewer than its machine),
    else the machine's count, or 1 if that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _draw(args: argparse.Namespace, g: WeightedGraph, emit: Callable, method: str,
          each: Callable = lambda config: None) -> dict:
    """Draw ``args.samples`` samples by ``method`` and write them as JSON
    lines as they are drawn; ``each`` sees every draw in order.  Returns
    the manifest."""
    workers = min(args.jobs, _usable_cpus()) if method == "cftp" and args.samples >= 2 else 1
    machine = {"workers": workers}
    if method == "enum":
        machine["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    elif args.samples:
        machine["first_epoch"] = first_epoch(g, args.max_epoch)  # where every CFTP run of the draws starts
    sample = partial(draws, g, args.world, method, args.seed, args.samples, getattr(args, "thin", 1), args.max_epoch)
    if workers == 1:
        return emit(_json_lines(sample(), each), machine)
    from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

    # the fewest rounds of one block a worker, then blocks as even as they go
    rounds = -(-args.samples // (workers * DRAW_BLOCK))
    block = -(-args.samples // (workers * rounds))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return emit(_json_lines(sample(map=partial(_bounded_map, pool, 2 * workers), block=block), each), machine)


def cmd_perfect(args: argparse.Namespace, g: WeightedGraph, emit: Callable) -> int:
    _draw(args, g, emit, "cftp")
    return EXIT_OK


def cmd_sample(args: argparse.Namespace, g: WeightedGraph, emit: Callable) -> int:
    world, n = args.world, args.samples
    columns = {name: (observable, array("d")) for name, observable in STATISTICS[world].items()}

    def keep(config: tuple[int, ...]) -> None:
        for observable, values in columns.values():
            values.append(observable(g, config))

    manifest = _draw(args, g, emit, args.method, keep)
    summary_stats = {}
    for name, (_, values) in columns.items():
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
    print(_json(summary, indent=2 if args.out else None))
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
    p.add_argument("--to", required=True, choices=PARAM_NAMES)

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
