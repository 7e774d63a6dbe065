"""One worker process: set up the engine, then run a closed loop of queries.

    python -m perfbench.worker setup
    python -m perfbench.worker run --workload W --seed S (--seconds T | --queries N) [--trace-out F]

`setup` imports the engine and answers the warm-up query `support 1(0)`,
which also triggers the lazy imports inside `shell.run`.  `run` does the
same, clears the engine caches, then sends one query at a time (a closed
loop with one client) until it has spent `--seconds` answering and at
least MIN_QUERIES are done, or until `--queries` are done.  Each query is
generated just before it is sent, outside the timed region, and a
reference slice is timed every REFERENCE_EVERY_S of query time to scale
the latencies.  Answers are checked after the loop.  The last line of
stdout is one JSON object.

With `--trace-out` the layers are wrapped (see trace.py), the spans are
written to that file and the per-layer metrics are added to the output.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import sys
from time import perf_counter

from . import checks, inputs
from .trace import Tracer, cache_stats, clear_caches

# A run reports the 90th percentile, so it needs 10 queries beyond it.
MIN_QUERIES = 100
WARM_UP = ("support", ["1(0)"])

# The machine's speed drifts: on a shared 2-vCPU host the same queries took
# 35% longer in one half hour than in the next, and up to 1.5x longer for
# a minute at a time.  A fixed pure-Python reference slice, timed between
# queries, tracks that drift (over 4 s windows the engine's time varied by
# 14%, the ratio of engine time to reference time by 4%).  Every latency is
# scaled by REFERENCE_NOMINAL_S / (reference time around it): the time the
# query would take on a machine whose reference slice takes 20 ms.
REFERENCE_NOMINAL_S = 0.02
REFERENCE_EVERY_S = 0.25


def reference_s() -> float:
    """Time of the reference slice, about 20 ms on a nominal machine."""
    t0 = perf_counter()
    acc, table = 0, {}
    for i in range(80_000):
        acc ^= i * i
        table[i & 1023] = (acc, i)
    return perf_counter() - t0


def _setup() -> float:
    t0 = perf_counter()
    from ttfilt import shell

    report = shell.run(*WARM_UP)
    elapsed = perf_counter() - t0
    if report.result != [checks.support_text(checks.ALL)]:
        raise SystemExit(f"warm-up query answered {report.result}")
    return elapsed


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_shell(q):
    from ttfilt import shell

    report = shell.run(q.kind, list(q.args))
    return "\n".join(report.result + report.trace), None


def _run_structure(q):
    from ttfilt import chains, filtmod, functors, shell

    if q.kind == "decompose":
        dec = filtmod.decompose(shell.deserialize(q.args[0]))
        return dec.sum.text(), dec
    if q.kind == "minimize":
        x = shell.deserialize(q.args[0])
        if len(q.args) == 2:
            x = chains.tensor_complex(x, shell.deserialize(q.args[1]))
        mf = chains.minimize(x)
        return checks.minimal_text(checks.labels_of(mf)), (x, mf)
    x, y = shell.deserialize(q.args[0]), shell.deserialize(q.args[1])
    return checks.hom_text(functors.hom_DE(x, y)), (x, y)


EXECUTE = {"support_mix": _run_shell, "structure": _run_structure, "high_weight": _run_shell}


def run(workload: str, seed: int, seconds: float | None, queries: int | None,
        trace_out: str | None) -> dict:
    _setup()
    tracer = Tracer() if trace_out else None
    if tracer:
        tracer.install()
    clear_caches()
    execute = EXECUTE[workload]
    qs, latencies, answers, payloads = [], [], [], []
    errors = set()
    busy_s = since_reference = 0.0
    references = [(0, reference_s())]     # (queries answered before it, its time)
    start = perf_counter()
    for i in itertools.count():
        if i == queries or (queries is None and busy_s >= seconds and i >= MIN_QUERIES):
            break
        q = inputs.query(workload, seed, i)   # generated outside the timed region
        if tracer:
            tracer.query_id = i
        t0 = perf_counter()
        try:
            answer, payload = execute(q)
        except Exception as exc:  # a failed query is counted and the loop goes on
            answer, payload = f"error: {type(exc).__name__}: {exc}", None
            errors.add(i)
        latency = perf_counter() - t0
        busy_s += latency
        since_reference += latency
        if since_reference >= REFERENCE_EVERY_S:
            references.append((i + 1, reference_s()))
            since_reference = 0.0
        qs.append(q)
        latencies.append(latency)
        answers.append(answer)
        payloads.append(payload)
        if i + 1 == MIN_QUERIES:
            # at a fixed query count, so that a faster engine, which gets
            # through more queries and fills its caches further, does not
            # read as a memory regression
            peak_rss_mb = _peak_rss_mb()
    if len(answers) < MIN_QUERIES:
        peak_rss_mb = _peak_rss_mb()
    if references[-1][0] < len(answers):
        references.append((len(answers), reference_s()))
    out = {
        "workload": workload, "seed": seed, "busy_s": busy_s, "latencies_s": latencies,
        "scaled_latencies_s": _scaled(latencies, references),
        "references_s": [ref for _, ref in references], "peak_rss_mb": peak_rss_mb,
        "digest_queries": min(len(answers), MIN_QUERIES),
        "input_digest": inputs.digest(qs[:MIN_QUERIES]),
        "answer_digest": answer_digest(answers[:MIN_QUERIES]),
    }
    if tracer:
        out["per_layer"] = tracer.metrics(cache_stats())
        out["unwrapped"] = tracer.unwrapped_references()
        tracer.write_spans(trace_out, start)
    failures = sorted(errors)
    for i, (q, answer, payload) in enumerate(zip(qs, answers, payloads)):
        if i in errors:
            continue
        try:
            ok = checks.check(q, answer, payload)
        except Exception:  # a check that cannot run counts as a wrong answer
            ok = False
        if not ok:
            failures.append(i)
    out["failed"] = len(failures)
    out["failures"] = [f"{i}: {qs[i].kind} {qs[i].args[0][:60]!r} -> {answers[i][:80]!r}"
                       for i in sorted(failures)[:5]]
    return out


def _scaled(latencies: list[float], references: list[tuple[int, float]]) -> list[float]:
    """Latencies scaled to the nominal reference time, each by the mean of
    the two reference times that bracket it."""
    out = []
    for (lo, ref_lo), (hi, ref_hi) in zip(references, references[1:]):
        factor = REFERENCE_NOMINAL_S / ((ref_lo + ref_hi) / 2)
        out.extend(v * factor for v in latencies[lo:hi])
    return out


def answer_digest(answers: list[str]) -> str:
    h = hashlib.sha256()
    for a in answers:
        h.update(a.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench.worker")
    p.add_argument("mode", choices=("setup", "run"))
    p.add_argument("--workload", choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float)
    p.add_argument("--queries", type=int)
    p.add_argument("--trace-out")
    a = p.parse_args(argv)
    if a.mode == "setup":
        result = {"setup_s": _setup()}
    else:
        if a.workload is None or (a.seconds is None) == (a.queries is None):
            p.error("run needs --workload and exactly one of --seconds, --queries")
        result = run(a.workload, a.seed, a.seconds, a.queries, a.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
