"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--trace 1]
                                 [--seconds 20] [--baseline perfbench/baseline.json]

For each workload and metric prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  An end-to-end
spread at or above a third of the metric's bound is flagged with ``!``.
With ``--baseline``, the summary is merged into that JSON file under the
mode (``untraced`` or ``traced``) and workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None, "n": len(values)}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in bench["per_layer" if args.trace else "end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for seed in args.seeds:  # seeds outermost, so slow drifts of the machine hit every workload
        for w in workloads:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{w} seed {seed} exited with {proc.returncode}")
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{w} seed {seed}: incorrect, {result['failed']} of {result['attempted']} failed")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)

    table = {w: {name: summary(v) for name, v in metrics.items()} for w, metrics in values.items()}
    for w, metrics in table.items():
        for name, s in metrics.items():
            bound = bounds.get(name)
            flag = "!" if bound and name != "setup_s" and s["spread"] is not None and s["spread"] >= bound / 3 else " "
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{flag} {w:17} {name:30} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {spread}")
    if args.baseline:
        old = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        mode = old.setdefault("traced" if args.trace else "untraced", {})
        for w, metrics in table.items():
            result = json.loads((ROOT / "perfbench" / "out" / f"{w}-seed{args.seeds[-1]}-trace{args.trace}.json").read_text())
            mode[w] = {
                "seeds": f"{args.seeds[0]}-{args.seeds[-1]}",
                "seconds": args.seconds,
                "environment": result["environment"],
                "metrics": metrics,
            }
        args.baseline.write_text(json.dumps(old, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
