"""Benchmark of the gkh package: one seeded workload, end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 20 --trace 0

The package is imported from this checkout's src/ in a single process, and
one client runs operations back to back (a closed loop). --trace 0 prints
the end-to-end metrics; --trace 1 runs the same operations untraced and
then traced, prints the per-layer metrics and writes the spans under
.perfbench/. Every answer is checked. Each operation's time is scaled by a
fixed reference computation run beside it, so that the host's changing
speed stays out of the figures. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
perfbench/DESIGN.md explains the workloads, the scaling and what each
metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import oracle
from tracing import Tracer
from workloads import REJECTED, TAIL_PERCENTILE, WORKLOADS, Failure, WrongAnswer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
SETUP_PROCESSES = 7
# import time measured inside a fresh interpreter, as a kh call pays it,
# followed by one reference computation in the same interpreter
SETUP_CHILD = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import gkh, gkh.cli; gkh.fixture_names(); took = time.perf_counter() - start; "
    "sys.path.insert(0, sys.argv[2]); from run import reference; print(took, reference())"
)
# The reference computation: the oracle's determinant and 3-edge-connectivity
# test of a fixed 24-crossing braid closure, pure Python like gkh and none of
# it gkh's code. REFERENCE_S is its time at the speed the metrics are quoted
# at, about its median on the 2-CPU host of record (see DESIGN.md).
REFERENCE_QUADS = oracle.braid_pd(4, (1, -2, 3, -1, 2, 2, -3, 1, -2, -3, 1, 2) * 2)
REFERENCE_S = 0.003

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "linalg.inverse_s": "s",
    "linalg.inverse_calls": "count",
    "linalg.snf_s": "s",
    "linalg.snf_calls": "count",
    "linalg.matmul_s": "s",
    "linalg.max_coeff_bits": "bits",
    "linalg.det_s": "s",
    "linalg.det_calls": "count",
    "diagram.prime_s": "s",
    "diagram.reduced_s": "s",
    "diagram.arcs_s": "s",
    "diagram.build_s": "s",
    "coloring.group_s": "s",
    "coloring.matrix_s": "s",
    "coloring.distinguish_s": "s",
    "coloring.min_set_s": "s",
    "coloring.pairs": "count",
    "pseudo.search_s": "s",
    "pseudo.classify_calls": "count",
    "pseudo.found_frac": "ratio",
    "pseudo.tunnel_s": "s",
    "verify.self_s": "s",
    "verify.generate_s": "s",
    "verify.generate_yield": "ratio",
    "codec.parse_s": "s",
    "cli.self_s": "s",
    "fixtures.load_s": "s",
    "trace_overhead_frac": "ratio",
}


@dataclass(frozen=True)
class Record:
    index: int  # position of the operation in the pass
    seconds: float
    reference: float  # mean time of the reference computations run just before and after it
    outcome: str  # ok, rejected, failed or wrong
    detail: str

    @property
    def scaled(self) -> float:
        """The operation's time at the speed where the reference takes REFERENCE_S."""
        return self.seconds / self.reference * REFERENCE_S


def reference() -> float:
    """Seconds one reference computation takes now."""
    start = perf_counter()
    oracle.determinant(REFERENCE_QUADS)
    oracle.is_prime_diagram(REFERENCE_QUADS)
    return perf_counter() - start


def load_gkh():
    """Import gkh from this checkout's src/, refusing a copy from anywhere else."""
    if not (SRC / "gkh" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gkh package under {SRC}")
    sys.path.insert(0, str(SRC))
    gkh = importlib.import_module("gkh")
    importlib.import_module("gkh.cli")
    if Path(gkh.__file__).resolve().parent != SRC / "gkh":
        raise SystemExit(f"perfbench: imported gkh from {gkh.__file__}, not {SRC}")
    return gkh


class SetupSampler:
    """Times set-up in SETUP_PROCESSES fresh interpreters spread over a run.

    Set-up is importing gkh and gkh.cli and loading the fixture table, the
    work a kh call does before its command runs. The machine's speed drifts
    over seconds, so the samples are taken between operations at even
    intervals of the window rather than back to back; the median is reported.
    """

    def __init__(self, window: float):
        self.window = window
        self.times: list[float] = []

    def _sample(self) -> None:
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(Path(__file__).resolve().parent)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        took, ref = map(float, child.stdout.split())
        self.times.append(took / ref * REFERENCE_S)

    def __call__(self, elapsed: float) -> bool:
        """Takes a sample if one is due; says whether it did."""
        due = len(self.times) < SETUP_PROCESSES and elapsed >= len(self.times) * self.window / SETUP_PROCESSES
        if due:
            self._sample()
        return due

    def median(self) -> float:
        while len(self.times) < SETUP_PROCESSES:
            self._sample()
        return statistics.median(self.times)


def run_op(index: int, op, tracer: Tracer | None, before: float) -> tuple[Record, float]:
    """Runs op between two reference computations; returns its record and the second."""
    if tracer is not None:
        tracer.begin_op(op.label)
    start = perf_counter()
    try:
        result, exc = op.run(), None
    except Exception as err:  # classified by the check, never fatal to the run
        result, exc = None, err
    seconds = perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    after = reference()
    try:
        outcome, detail = ("ok" if op.check(result, exc) is None else REJECTED), ""
    except Failure as err:
        outcome, detail = "failed", str(err)
    except WrongAnswer as err:
        outcome, detail = "wrong", str(err)
    except Exception as err:
        outcome, detail = "wrong", f"{op.label}: unreadable answer ({type(err).__name__}: {err})"
    return Record(index, seconds, (before + after) / 2, outcome, detail), after


def run_phase(ops, window: float, tracer: Tracer | None = None, between=None) -> list[Record]:
    """Whole passes over ops while the next pass is predicted to end inside the window.

    Whole passes keep each run's mix of operations identical, so runs of
    different lengths are comparable and traced counts repeat exactly. A
    pass longer than the window still runs to its end.
    between(elapsed), if given, runs before each operation, untimed, and
    returns whether it did any work; if it did, the reference is re-taken.
    """
    gc.collect()
    records = []
    start = perf_counter()
    before = reference()
    while True:
        pass_start = perf_counter()
        for index, op in enumerate(ops):
            if between is not None and between(perf_counter() - start):
                before = reference()
            record, before = run_op(index, op, tracer, before)
            records.append(record)
        now = perf_counter()
        if now - start + (now - pass_start) > window:
            return records


def outcome_counts(records) -> tuple[int, int]:
    """(attempted, failed) over the distinct operations of the pass.

    Operations are deterministic and every one runs in every pass, so each
    counts once, as failed if any of its runs failed. The counts then
    depend on the seed alone, not on how many passes fitted in the window.
    """
    attempted = {r.index for r in records}
    failed = {r.index for r in records if r.outcome in ("failed", "wrong")}
    return len(attempted), len(failed)


def busy_per_op(records) -> float:
    return sum(r.scaled for r in records) / len(records)


def end_to_end(records, workload: str, setup_s: float) -> tuple[dict, list[str]]:
    """Metrics over the distinct operations of a pass, each at its median scaled time.

    The shared host changes speed by up to 1.9x, in spells of seconds to
    minutes, so the same code ran 25% faster in one run than in the next.
    Each operation's time is therefore divided by that of the reference
    computation run beside it and quoted at the speed where the reference
    takes REFERENCE_S. Every operation runs once per pass and counts at the
    median of its scaled times over the passes, so runs with different
    pass counts rank the same operations.
    """
    runs: dict[int, list[Record]] = {}
    for r in records:
        runs.setdefault(r.index, []).append(r)
    n = len(runs)
    failed = {i for i, rs in runs.items() if any(r.outcome in ("failed", "wrong") for r in rs)}
    times = sorted(statistics.median(r.scaled for r in rs) for rs in runs.values())
    raw = sorted(statistics.median(r.seconds for r in rs) for rs in runs.values())
    refs = [r.reference for r in records]
    pct = TAIL_PERCENTILE[workload]
    rank = math.ceil(pct / 100 * n)
    metrics = {
        "ops_per_s": (n - len(failed)) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": times[rank - 1],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"{len(records)} operations timed, {len(records) // n} times each; each of the {n} distinct ones counts at its median",
        f"op_tail_s is the p{pct} nearest-rank time: {n - rank} of {n} operations beyond it",
        f"setup_s is the median over {SETUP_PROCESSES} fresh interpreters of importing gkh, gkh.cli and the fixture table",
        f"times are scaled to a {REFERENCE_S} s reference; the reference took {min(refs):.6g}..{max(refs):.6g} s,"
        f" median {statistics.median(refs):.6g} s",
        f"unscaled: ops_per_s {(n - len(failed)) / sum(raw):.6g} 1/s, op_p50_s {statistics.median(raw):.6g} s,"
        f" op_tail_s {raw[rank - 1]:.6g} s",
    ]
    return metrics, notes


def summarize(records) -> list[str]:
    counts = {k: sum(r.outcome == k for r in records) for k in ("ok", REJECTED, "failed", "wrong")}
    lines = ["outcomes: " + ", ".join(f"{k} {v}" for k, v in counts.items())]
    details: dict[tuple[str, str], int] = {}
    for r in records:
        if r.outcome in ("failed", "wrong"):
            details[(r.outcome, r.detail)] = details.get((r.outcome, r.detail), 0) + 1
    for (outcome, detail), count in sorted(details.items()):
        lines.append(f"{outcome} x{count}: {detail}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    gkh = load_gkh()
    try:
        ops = WORKLOADS[args.workload](gkh, args.seed)
    except WrongAnswer as err:
        print(f"perfbench: wrong answer while preparing inputs: {err}", file=sys.stderr)
        return 1
    digest = hashlib.sha256("\n".join(op.key for op in ops).encode()).hexdigest()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"inputs sha256 {digest} ({len(ops)} operations per pass)")

    if args.trace == 0:
        sampler = SetupSampler(args.seconds)
        records = run_phase(ops, args.seconds, between=sampler)
        values, notes = end_to_end(records, args.workload, sampler.median())
        units = END_TO_END_UNITS
    else:
        untraced = run_phase(ops, args.seconds / 2)
        tracer = Tracer()
        tracer.install(gkh)
        try:
            traced = run_phase(ops, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        records = untraced + traced
        values = tracer.layer_metrics()
        values["trace_overhead_frac"] = busy_per_op(traced) / busy_per_op(untraced) - 1
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed, "inputs_sha256": digest, "ops": tracer.ops})
        notes = [
            f"traced {len(traced)} operations after {len(untraced)} untraced; spans in {path.relative_to(ROOT)}",
            "time metrics are self seconds per operation; counts are per operation",
        ]
        units = PER_LAYER_UNITS

    attempted, failed = outcome_counts(records)
    notes.append(f"fail_frac {failed / attempted:.6g} ratio (failed {failed} / attempted {attempted} distinct operations)")
    for line in summarize(records) + notes:
        print(line)
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    wrong = [r for r in records if r.outcome == "wrong"]
    for r in wrong[:10]:
        print(f"perfbench: wrong answer: {r.detail}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
