"""Smoke tests of the scripts under ``tools``: their point lists, built without solving."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

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
    hard = load_tool("hard_points")
    sets = hard.point_sets()
    assert {name: len(points) for name, points in sets.items()} == {
        "named": 54, "random77001": 72, "random93001": 72}
    labels = [label for points in sets.values() for label, *_ in points]
    assert len(labels) == len(set(labels)) == 198
    for label, psi, channel, s in sets["named"]:
        assert psi.shape == (16,) and channel in hard.CHANNELS and s in hard.NAMED_S


def test_bench_points_list(load_tool):
    tool = load_tool("bench_points")
    points = tool.points()
    assert len(points) == 254
    labels = [label for label, *_ in points]
    assert len(set(labels)) == 254
    # every label is the key of the benchmark item it comes from, or that
    # key followed by "/" and the point
    keys = {item.key: (name, tool.WORKLOADS[name].nqubits) for name in tool.BENCH_WORKLOADS
            for item in tool.WORKLOADS[name].items}

    def item_of(label):
        found = [key for key in keys if label == key or label.startswith(key + "/")]
        assert len(found) == 1, label
        return keys[found[0]]

    counts = Counter(item_of(label)[0] for label in labels)
    assert counts == {"solve-n4": 4, "sweep-n3": 150, "ensemble-n3": 100}
    for label, rho0, kind, s, n in points:
        assert n == item_of(label)[1]
        assert rho0.shape == (2**n, 2**n)
