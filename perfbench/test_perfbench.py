"""Tests of the benchmark itself:  python3 -m pytest -q perfbench

They are kept out of the package's test suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import bench
from tracing import Span, Tracer, self_times, summarize

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "smoke-n2",
                           "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_every_metric_with_its_unit(trace, section):
    result = _run(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def _sweep_outcome(item: bench.Sweep, reference: dict) -> dict:
    ref = reference[item.key]
    return {"key": item.key, "elapsed": 1.0, "rc": 0, "stderr": "", "s": list(ref["s"]),
            "E": list(ref["E"]), "eta": [None] * len(ref["E"])}


def test_reference_outputs_pass_their_own_check():
    reference = bench.load_reference()
    item = bench.Sweep("w3", "ad")
    assert item.check(_sweep_outcome(item, reference), reference, 3) == (50, 0, [])


def test_corrupted_reference_value_counts_as_failure():
    reference = bench.load_reference()
    item = bench.Sweep("w3", "ad")
    corrupted = copy.deepcopy(reference)
    corrupted[item.key]["E"][17] += 2 * bench.E_TOL
    attempted, failed, problems = item.check(_sweep_outcome(item, reference), corrupted, 3)
    assert (attempted, failed) == (50, 1)
    assert "differs from reference" in problems[0]


def test_corrupted_closed_form_counts_as_failure(monkeypatch):
    reference = bench.load_reference()
    item = bench.Solve("ghz2", "pd", 0.2)
    out = {"key": item.key, "elapsed": 1.0, "ok": True, "status": "optimal", "message": "",
           "iterations": 1, "E": reference[item.key]["E"]}
    assert item.check(out, reference, 2)[1] == 0
    monkeypatch.setitem(bench._DECAY_RATE, ("ghz2", "pd"), -3.0)  # wrong law: ghz2 decays as exp(-s)/2
    attempted, failed, problems = item.check(out, reference, 2)
    assert (attempted, failed) == (1, 1) and "oracle" in problems[0]


def test_failed_cli_call_fails_every_point():
    item = bench.Ensemble("haar", "pd", seed=3, count=3, steps=4, smax=0.3)
    out = {"key": item.key, "elapsed": 1.0, "rc": 1, "stderr": "boom", "s": [],
           "members": {}, "excluded": 3}
    assert item.check(out, bench.load_reference(), 2)[:2] == (12, 12)


def test_self_time_on_synthetic_trace():
    spans = [
        Span("cli", 0.0, 10.0),
        Span("analysis", 1.0, 9.0, parent=0),
        Span("gmn", 2.0, 5.0, parent=1),
        Span("sdp", 2.5, 4.5, parent=2),
        Span("gmn", 5.0, 8.0, parent=1),
        Span("sdp", 5.5, 7.0, parent=4),
        Span("gmn.verify", 7.0, 7.5, parent=4),
        Span("analysis.csv", 9.0, 9.5, parent=0),
    ]
    assert self_times(spans) == pytest.approx([1.5, 2.0, 1.0, 2.0, 1.0, 1.5, 0.5, 0.5])
    table = summarize(spans)
    assert table["gmn"] == pytest.approx({"count": 2, "total_s": 6.0, "self_s": 2.0})
    assert table["sdp"]["total_s"] == pytest.approx(3.5)


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, 4.0), Span("a", 1.0, 3.0, parent=0), Span("b", 2.0, 5.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_nests_spans_and_restores_targets():
    class Module:
        @staticmethod
        def outer():
            return Module.inner() + 1

        @staticmethod
        def inner():
            return 1

    tracer = Tracer()
    original = Module.inner
    with tracer.patched([(Module, "outer", "outer", None),
                         (Module, "inner", "inner", lambda r: {"result": r})]):
        assert Module.outer() == 2
    assert Module.inner is original
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", None), ("inner", 0)]
    assert tracer.spans[1].attrs == {"result": 1}
