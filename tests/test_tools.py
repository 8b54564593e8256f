"""Smoke tests of ``tools/points.py``: its point lists, built without solving, and its record."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from genneg import analysis, gmn, states
from genneg.channels import ChannelKind

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def load_tool(monkeypatch):
    """Import a script under ``tools`` by path; its ``sys.path`` edits are undone afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))

    def load(name):
        spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load


def test_hard_points_sets(load_tool):
    tool = load_tool("points")
    groups = tool.hard_points()
    assert {name: len(points) for name, points in groups.items()} == {
        "named": 54, "random77001": 72, "random93001": 72}
    labels = [label for points in groups.values() for label, _ in points]
    assert len(labels) == len(set(labels)) == 198
    for label, (rho0, kind, s, n) in groups["named"]:
        assert rho0.shape == (16, 16) and n == 4
        assert kind.value in tool.CHANNELS and s in tool.HARD_NAMED_S


def test_bench_points_list(load_tool):
    tool = load_tool("points")
    groups = tool.bench_points()
    assert {name: len(points) for name, points in groups.items()} == {
        "solve-n4": 4, "sweep-n3": 150, "ensemble-n3": 100}
    labels = [label for points in groups.values() for label, _ in points]
    assert len(labels) == len(set(labels)) == 254
    # every label is the key of the benchmark item it comes from, or that
    # key followed by "/" and the point
    keys = {item.key: (name, tool.WORKLOADS[name].nqubits) for name in tool.BENCH_WORKLOADS
            for item in tool.WORKLOADS[name].items}
    for name, points in groups.items():
        for label, (rho0, _, _, n) in points:
            found = [key for key in keys if label == key or label.startswith(key + "/")]
            assert len(found) == 1, label
            assert keys[found[0]] == (name, n) and rho0.shape == (2**n, 2**n)


def test_point_record_format():
    """One point through analysis's job runner gives the record that the tool writes as a line."""
    rho0 = states.to_density(states.named_state("ghz2"))
    [record] = analysis._run_jobs([(rho0, ChannelKind.PHASE_DAMPING, 0.1, 2)], 1)
    assert list(record) == ["E", "E_lo", "E_hi", "iterations", "status", "message", "ok", "note"]
    assert record["ok"] is True and record["note"] == "" and record["status"] == "optimal"
    assert record["E_lo"] <= record["E"] <= record["E_hi"]
    assert record["E_hi"] - record["E_lo"] <= gmn.BRACKET_TOL
    assert isinstance(record["iterations"], int) and record["iterations"] > 0
    line = {"label": "ghz2/pd/0.1", **record}
    assert json.loads(json.dumps(line)) == line
