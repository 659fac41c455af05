"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads cli_mix cover_search --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --save .perfbench/a.json
    python3 perfbench/spread.py --seeds 11 12 13 --against .perfbench/a.json

Runs the command from BENCHMARK.json once per (workload, seed), one run at
a time, with the file's run_seconds. For each end-to-end metric it prints
the median, the quartiles from statistics.quantiles(values, n=4) and their
distance as a share of the median, next to the metric's bound. With
--against it also prints how far each median moved from a saved set,
positive meaning worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--save", type=Path, help="write the raw values here")
    parser.add_argument("--against", type=Path, help="compare medians with a saved set")
    args = parser.parse_args()
    earlier = json.loads(args.against.read_text()) if args.against else {}

    values: dict[str, dict[str, list[float]]] = {}
    worst = 0.0
    for workload in args.workloads:
        per_metric: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            result = run_once(spec, workload, seed)
            print(f"{workload} seed {seed}: correct {result['correct']}, attempted "
                  f"{result['attempted']}, failed {result['failed']}", flush=True)
            for name in per_metric:
                per_metric[name].append(result["metrics"][name]["value"])
        values[workload] = per_metric
        for metric in spec["end_to_end"]:
            xs = per_metric[metric["name"]]
            med = statistics.median(xs)
            line = f"  {metric['name']:<12} median {med:.6g} {metric['unit']}"
            if len(xs) >= 2:
                q1, _, q3 = statistics.quantiles(xs, n=4)
                spread = (q3 - q1) / med
                line += f"  quartiles {q1:.6g}..{q3:.6g}  spread {spread:.3f}  bound {metric['bound']}"
                if metric["name"] != "setup_s":
                    worst = max(worst, spread / metric["bound"])
            if workload in earlier:
                before = statistics.median(earlier[workload][metric["name"]])
                moved = (med - before) / before * (1 if metric["better"] == "lower" else -1)
                line += f"  worse by {moved:+.3f} vs saved"
            print(line, flush=True)
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(values, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
