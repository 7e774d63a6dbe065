"""ttfilt benchmark: one command, three seeded workloads, checked answers.

    python3 perfbench/run.py --workload support_mix --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the engine is imported from `src/`.
`--trace 0` measures the end-to-end metrics: set-up time in fresh worker
processes, then a closed loop with one client in one worker process for
`--seconds`.  `--trace 1` runs a fixed number of queries twice, untraced
and with every layer wrapped, and reports the per-layer metrics and the
tracing overhead.  Human-readable lines come first; the last line of
stdout is one JSON object.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.inputs import WORKLOADS  # noqa: E402
from perfbench.worker import MIN_QUERIES, REFERENCE_NOMINAL_S  # noqa: E402

# Fresh workers whose set-up time is measured; setup_s is their median.
SETUP_RUNS = 15
# Queries in each half of a traced run: whole cycles of the workload, about
# 10 s untraced on a 2-vCPU machine.
TRACE_QUERIES = {"support_mix": 1000, "structure": 60, "high_weight": 480}
WORKER_TIMEOUT_S = 150
PINNED = Path(__file__).with_name("digests.json")
OUT_DIR = ROOT / ".perfbench_out"


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def worker(*args: str, timeout: float = WORKER_TIMEOUT_S) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT))),
               PYTHONHASHSEED="0")
    try:
        proc = subprocess.run([sys.executable, "-m", "perfbench.worker", *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} did not finish within {timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pinned_status(workload: str, seed: int, key: str, value: str) -> str:
    """'match', 'CHANGED' or 'not pinned' for a digest against digests.json."""
    want = json.loads(PINNED.read_text()).get(workload, {}).get(str(seed), {}).get(key)
    if want is None:
        return "not pinned"
    return "match" if want == value else "CHANGED"


def _digest_lines(res: dict) -> tuple[list[str], bool]:
    """Report both digests of a run against the pins; ok is False on a change."""
    lines, ok = [], True
    for key in ("input", "answer"):
        value, n = res[f"{key}_digest"], res["digest_queries"]
        status = pinned_status(res["workload"], res["seed"], key, value) if n == MIN_QUERIES \
            else "not compared"
        ok = ok and status != "CHANGED"
        lines.append(f"{key} digest   {value} (first {n} queries; pinned: {status})")
    return lines, ok


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _setups(count: int) -> list[float]:
    return [worker("setup")["setup_s"] for _ in range(count)]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list[str], int, int, bool]:
    # set-up samples before and after the loop, so that they span the run
    # rather than one short stretch of the machine's speed
    setups = _setups(SETUP_RUNS // 2)
    res = worker("run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds))
    setups += _setups(SETUP_RUNS - SETUP_RUNS // 2)
    raw, lat = sorted(res["latencies_s"]), sorted(res["scaled_latencies_s"])
    n = len(lat)
    p90 = percentile(lat, 0.9)
    # a set-up sample is too short to bracket with reference slices; scale
    # the median by the loop's median reference time instead
    setup = statistics.median(setups) * REFERENCE_NOMINAL_S / statistics.median(res["references_s"])
    metrics = {
        "queries_per_s": (n / sum(lat), "1/s", f"{n} queries in {sum(lat):.2f} s scaled"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms", f"n={n}"),
        "latency_p90_ms": (p90 * 1e3, "ms", f"n={n}, {sum(v > p90 for v in lat)} beyond"),
        "setup_s": (setup, "s", f"median of {SETUP_RUNS} fresh workers"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", f"worker ru_maxrss after {MIN_QUERIES} queries"),
    }
    lines, ok = _digest_lines(res)
    lines.append(f"unscaled: {n / res['busy_s']:.4g} queries/s ({n} in {res['busy_s']:.2f} s), "
                 f"p50 {statistics.median(raw) * 1e3:.4g} ms, p90 {percentile(raw, 0.9) * 1e3:.4g} ms, "
                 f"set-up {statistics.median(setups):.4g} s")
    lines.append(f"{'failed_frac':16s} {res['failed'] / n:<12.6g} ratio  "
                 f"({res['failed']} failed of {n} attempted)")
    return metrics, lines + res["failures"], n, res["failed"], ok


def traced(workload: str, seed: int) -> tuple[dict, list[str], int, int, bool]:
    n = TRACE_QUERIES[workload]
    base = ["run", "--workload", workload, "--seed", str(seed), "--queries", str(n)]
    plain = worker(*base)
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}-seed{seed}.tsv"
    res = worker(*base, "--trace-out", str(spans))
    overhead = sum(res["scaled_latencies_s"]) / sum(plain["scaled_latencies_s"])
    values = dict(res["per_layer"], **{"trace.queries": n, "trace.untraced_s": plain["busy_s"],
                                       "trace.traced_s": res["busy_s"], "trace.overhead": overhead})
    metrics = {name: (value, _unit(name), "") for name, value in values.items()}
    lines, ok = _digest_lines(res)
    same = plain["answer_digest"] == res["answer_digest"]
    lines.append(f"traced answers equal untraced answers: {same}")
    if res["unwrapped"]:
        lines.append(f"not rebound: {', '.join(res['unwrapped'])}")
    lines.append(f"spans written to {spans.relative_to(ROOT)}")
    failed = res["failed"] + plain["failed"]
    return metrics, lines + res["failures"], 2 * n, failed, ok and same and not res["unwrapped"]


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "overhead")) or "_per_" in name:
        return "ratio"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args(argv)
    if not (ROOT / "src" / "ttfilt" / "shell.py").is_file():
        print(f"error: engine sources not found under {ROOT / 'src' / 'ttfilt'}", file=sys.stderr)
        return 2
    try:
        if a.trace:
            metrics, lines, attempted, failed, ok = traced(a.workload, a.seed)
        else:
            metrics, lines, attempted, failed, ok = end_to_end(a.workload, a.seed, a.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {a.workload}  seed {a.seed}  closed loop, one client, one worker process")
    for line in lines:
        print(line)
    for name, (value, unit, note) in metrics.items():
        print(f"{name:44s} {value:<14.6g} {unit:6s} {note}".rstrip())
    print(json.dumps({
        "correct": ok and failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
