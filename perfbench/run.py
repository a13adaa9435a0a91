"""Benchmark entry point: one workload, one seed, one mode.

    python3 perfbench/run.py --workload cftp_critical --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and measures that checkout's ``src/``.
Prints one line per metric with its unit, and as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json untraced (``--trace 0``), its
per-layer metrics traced (``--trace 1``).  The full result, with the
environment block and the reproducibility record, is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 3  # set-ups per untraced run; setup_s is their median
BUDGET_S = 170.0  # a run may take 180 s in all


def worker(phase: str, args: argparse.Namespace, deadline: float) -> dict:
    """One worker process; its whole process group dies if it overruns."""
    cmd = [sys.executable, str(HERE / "worker.py"), phase, args.workload, str(args.seed), str(args.seconds), str(OUT)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"error: {phase} of {args.workload} ran out of time") from None
    if proc.returncode:
        raise SystemExit(f"error: {phase} of {args.workload} exited with {proc.returncode}")
    return json.loads(out.decode().splitlines()[-1])


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None  # a plain checkout of the files, not a repository
    try:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


def environment() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")]
    loadavg = _read("/proc/loadavg")
    commit, status = _git("rev-parse", "HEAD"), _git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": models[0] if models else platform.processor(),
        "commit": commit.strip() if commit else None,
        "dirty": bool(status.strip()) if status is not None else None,
        "loadavg_at_start": [float(v) for v in loadavg.split()[:3]] if loadavg else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cftp_critical", "sw_chain_large", "small_replicates", "cli_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "isingworlds" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'isingworlds'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]
    env = environment()
    OUT.mkdir(exist_ok=True)
    if args.trace:
        res = worker("trace", args, deadline)
    else:
        setups = [worker("setup", args, deadline) for _ in range(SETUPS - 1)]
        res = worker("run", args, deadline)
        setups.append(res)
        res["metrics"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        res["record"]["raw"]["setup_s"] = statistics.median(s["setup_raw_s"] for s in setups)
    missing = [m["name"] for m in declared if m["name"] not in res["metrics"]]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]} for m in declared}
    correct = res["failed"] == 0 and res.get("outputs_equal", True)
    failed_frac = res["failed"] / res["attempted"]
    record = dict(res["record"], seed=args.seed, failed_frac=failed_frac)
    if args.trace:
        record.update({k: res["metrics"][k] for k in ("rng.draws_per_item", "cftp.steps_per_sample", "cftp.epoch_mean")})
        record["outputs_equal"] = res["outputs_equal"]
    full = {"workload": args.workload, "trace": args.trace, "environment": env, "record": record, "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(full, indent=2) + "\n")

    print(f"# environment {json.dumps(env)}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_frac {failed_frac:.6g} frac ({res['failed']} of {res['attempted']})")
    print(f"# record {json.dumps(record)}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
