"""Tests of ``tools/points.py``: its point lists, built without solving, its record, and E
against the closed form of its GHZ-diagonal states."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from genneg import analysis, gmn, states
from genneg.channels import ChannelKind, apply_local_channel

TOOLS = Path(__file__).resolve().parents[1] / "tools"
ORACLE_TEST_BASES = {3: 31001, 4: 41001}   # member i seeded with derive_seed(base, i)


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
    # each member seed gives a Haar-random and a weighted graph state
    for i, generator in enumerate(("haar", "wgs")):
        label, (rho0, _, _, _) = groups["random77001"][6 * i]
        assert label == f"{generator}77001/0/ad/0.02"
        psi = states.random_state(generator, 4, states.derive_seed(77001, 0))
        assert np.array_equal(rho0, states.to_density(psi))


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_non_positive_workers_are_refused(load_tool, capsys, workers):
    with pytest.raises(SystemExit) as exit_info:
        load_tool("points").main(["bench", "--workers", workers])
    assert exit_info.value.code == 2
    assert f"error: --workers/workers must be at least 1, got {workers}\n" in capsys.readouterr().err


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


def test_oracle_points_set(load_tool):
    tool = load_tool("points")
    groups = tool.oracle_points()
    assert {name: len(points) for name, points in groups.items()} == {"rotated": 20, "noisy": 40}
    labels = [label for points in groups.values() for label, _ in points]
    assert len(labels) == len(set(labels)) == 60
    for _, (rho0, _, s, n) in groups["rotated"]:
        assert rho0.shape == (16, 16) and n == 4 and s == 0.0
    for _, (rho0, kind, s, n) in groups["noisy"]:
        assert rho0.shape == (16, 16) and n == 4
        assert kind.value in tool.ORACLE_CHANNELS and s in tool.ORACLE_S


def assert_in_bracket(rho, nqubits, exact):
    result = gmn.genuine_negativity(rho, nqubits)
    assert result.solved and result.certificate_ok
    assert result.e_lo - gmn.CERTIFICATE_TOL <= exact <= result.e_hi + gmn.CERTIFICATE_TOL


@pytest.mark.parametrize("nqubits", [3, 4])
@pytest.mark.parametrize("index", range(10))
def test_ghz_diagonal_states_meet_the_closed_form(load_tool, nqubits, index):
    """E = max(0, λ_max - 1/2) lies in the bracket of a GHZ-diagonal state; odd members are
    turned by local unitaries, under which E is invariant."""
    tool = load_tool("points")
    seed = states.derive_seed(ORACLE_TEST_BASES[nqubits], index)
    rho = tool.ghz_diagonal_state(nqubits, seed, rotated=index % 2 == 1)
    assert_in_bracket(rho, nqubits, tool.ghz_diagonal_negativity(rho))


@pytest.mark.parametrize("name, nqubits", [("ghz3", 3), ("ghz4", 4)])
def test_ghz_depolarizing_law(load_tool, name, nqubits):
    """Depolarizing noise keeps GHZ GHZ-diagonal, so E(s) = max(0, λ_max(s) - 1/2)."""
    basis = load_tool("points").ghz_basis(nqubits)
    rho0 = states.to_density(states.named_state(name))
    exact = []
    for s in (0.05, 0.2, 0.5):
        rho = apply_local_channel(rho0, ChannelKind.DEPOLARIZING, s, nqubits)
        weights = basis.T @ rho @ basis
        assert np.max(np.abs(weights - np.diag(np.diag(weights)))) <= 1e-12
        exact.append(max(0.0, float(np.max(np.diag(weights).real)) - 0.5))
        assert_in_bracket(rho, nqubits, exact[-1])
    assert exact[0] > exact[1] > 0
    if nqubits == 4:
        assert exact[2] == 0.0
