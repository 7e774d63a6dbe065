"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, inputs, run, worker  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_answer_passes_and_every_corrupted_answer_fails(workload):
    qs = inputs.generate(workload, 1, 12)
    for q in qs:
        answer, payload = worker.EXECUTE[workload](q)
        assert checks.check(q, answer, payload), (q.kind, q.args[0][:40], answer)
        assert not checks.check(q, answer + " ", payload), (q.kind, q.args[0][:40])


def test_a_corrupted_answer_raises_failed_frac(monkeypatch):
    execute = worker.EXECUTE["support_mix"]

    def corrupt_third(q):
        answer, payload = execute(q)
        return ("corrupted" if q.args == third.args else answer), payload

    third = inputs.generate("support_mix", 1, 3)[2]
    monkeypatch.setitem(worker.EXECUTE, "support_mix", corrupt_third)
    res = worker.run("support_mix", 1, None, 10, None)
    assert res["failed"] == 1 and len(res["latencies_s"]) == 10
    assert res["failures"][0].startswith("2: classify")


def test_latencies_are_scaled_by_the_bracketing_reference_times():
    nominal = worker.REFERENCE_NOMINAL_S
    scaled = worker._scaled([1.0, 1.0, 1.0, 1.0], [(0, nominal), (2, 3 * nominal), (4, 3 * nominal)])
    assert scaled == pytest.approx([0.5, 0.5, 1 / 3, 1 / 3])


def test_pinned_input_digests_match_and_a_change_is_reported():
    pinned = json.loads(run.PINNED.read_text())
    for workload in inputs.WORKLOADS:
        for seed in pinned[workload]:
            digest = inputs.digest(inputs.generate(workload, int(seed), worker.MIN_QUERIES))
            assert run.pinned_status(workload, int(seed), "input", digest) == "match"
    qs = inputs.generate("structure", 1, worker.MIN_QUERIES)
    qs[5] = dataclasses.replace(qs[5], args=(qs[5].args[0].replace("dim", "dim ", 1),))
    res = {"workload": "structure", "seed": 1, "input_digest": inputs.digest(qs),
           "answer_digest": pinned["structure"]["1"]["answer"], "digest_queries": worker.MIN_QUERIES}
    lines, ok = run._digest_lines(res)
    assert not ok
    assert "pinned: CHANGED" in lines[0] and "pinned: match" in lines[1]


def test_inputs_depend_only_on_the_seed():
    a, b = inputs.generate("structure", 7, 20), inputs.generate("structure", 7, 20)
    assert [q.text() for q in a] == [q.text() for q in b]
    assert inputs.digest(a) != inputs.digest(inputs.generate("structure", 8, 20))
    assert not any(name.startswith("ttfilt") for name in vars(inputs))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload, monkeypatch, capsys):
    monkeypatch.setitem(run.TRACE_QUERIES, workload, 4)
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert list(result["metrics"]) == names
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 8
    for m in spec["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    value = {name: m["value"] for name, m in result["metrics"].items()}
    if workload == "support_mix":
        assert value["filtmod.decompose.calls"] == 0 and value["spectrum.supp.calls"] > 0
    if workload == "structure":
        assert value["filtmod.decompose.calls"] > 0
        assert value["spectrum.supp.calls"] == 0 and value["functors.tfgt.busy_s"] == 0


def test_end_to_end_run_prints_every_end_to_end_metric(monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    assert run.main(["--workload", "high_weight", "--seed", "1", "--seconds", "0.1", "--trace", "0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert result["correct"] and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())
