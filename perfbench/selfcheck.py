"""Determinism self-check of the benchmark.

    python3 perfbench/selfcheck.py [--workloads cli_mix ...] [--seed 7] [--seconds 4]

Runs every workload traced twice with one seed, in two processes, and
fails unless both runs generated identical inputs (same input digest) and
every count metric repeats exactly. Also checks that BENCHMARK.json and
run.py name the same metrics with the same units. Exit 0 when all hold.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import END_TO_END_UNITS, PER_LAYER_UNITS

ROOT = Path(__file__).resolve().parent.parent
COUNT_METRICS = (
    "linalg.inverse_calls",
    "linalg.snf_calls",
    "linalg.det_calls",
    "pseudo.classify_calls",
    "coloring.pairs",
    "linalg.max_coeff_bits",
    "pseudo.found_frac",
    "verify.generate_yield",
)


def traced_run(spec, workload: str, seed: int, seconds: float) -> tuple[str, dict]:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    digest = next(line.split()[2] for line in lines if line.startswith("inputs sha256"))
    return digest, json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    problems = []
    for key, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != units:
            problems.append(f"BENCHMARK.json {key} {listed} differs from run.py {units}")
    for workload in args.workloads:
        (digest_a, a), (digest_b, b) = (traced_run(spec, workload, args.seed, args.seconds) for _ in range(2))
        if digest_a != digest_b:
            problems.append(f"{workload}: inputs differ between runs ({digest_a} vs {digest_b})")
        for result in (a, b):
            if not result["correct"]:
                problems.append(f"{workload}: a run reported wrong answers")
        for name in COUNT_METRICS:
            x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
            if x != y:
                problems.append(f"{workload}: {name} {x!r} then {y!r}")
        print(f"{workload}: inputs {digest_a[:16]}, counts "
              + ", ".join(f"{n}={a['metrics'][n]['value']:.6g}" for n in COUNT_METRICS), flush=True)
    for line in problems:
        print("selfcheck: " + line)
    print("selfcheck: " + ("FAILED" if problems else "all checks hold"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
