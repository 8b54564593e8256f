import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import genneg
from genneg import analysis, cli, gmn, sdp, states

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What the wrapper that pip writes for a [project.scripts] entry does: load
# the declared object, name the program after the script, exit with main().
# Arguments: script name, entry-point value, then the script's own arguments.
CONSOLE_SCRIPT_WRAPPER = """\
import sys
from importlib.metadata import EntryPoint
name, value = sys.argv[1:3]
main = EntryPoint(name, value, "console_scripts").load()
sys.argv = [name] + sys.argv[3:]
sys.exit(main())
"""


def run_cli(args):
    return cli.main(args)


class TestMonotone:
    def test_ghz3_output(self, capsys):
        assert run_cli(["monotone", "--state", "ghz3"]) == 0
        out = capsys.readouterr().out
        assert "E = 0.500000" in out
        line = next(line for line in out.splitlines() if line.startswith("objective = "))
        assert abs(float(line[len("objective = "):]) + 0.5) <= 1e-7
        assert "certificate = ok" in out

    def test_prints_the_bracket(self, capsys):
        assert run_cli(["monotone", "--state", "ghz3"]) == 0
        out = capsys.readouterr().out
        line = next(line for line in out.splitlines() if line.startswith("bracket = ["))
        lo, hi = (float(v) for v in line[len("bracket = ["):-1].split(", "))
        assert lo <= 0.5 <= hi + 1e-9
        assert hi - lo <= gmn.BRACKET_TOL
        assert f"E = {lo:.6f}" in out

    def test_prints_the_iteration_count(self, capsys):
        assert run_cli(["monotone", "--state", "w3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        after = lines[lines.index("certificate = ok") + 1]
        rho = genneg.to_density(genneg.named_state("w3"))
        assert after == f"iterations = {gmn.genuine_negativity(rho, 3).solver.iterations}"

    def test_unclosed_bracket_reports_its_width(self, monkeypatch, capsys):
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", 3)
        assert run_cli(["monotone", "--state", "w3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "solver failed for w3: max_iterations" in captured.err
        width = float(captured.err.split("did not close: width ")[1].split()[0])
        assert width > gmn.BRACKET_TOL
        assert f"> {gmn.BRACKET_TOL:.0e}" in captured.err

    def test_w3_output(self, capsys):
        assert run_cli(["monotone", "--state", "w3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("E = 0.4428")

    def test_unknown_state(self, capsys):
        assert run_cli(["monotone", "--state", "nosuch"]) == 1
        assert "unknown named state" in capsys.readouterr().err

    def test_haar_selector_uses_seed(self, capsys):
        assert run_cli(["monotone", "--state", "haar:2", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert run_cli(["monotone", "--state", "haar:2", "--seed", "3"]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("selector", ["haar:5", "WGS:1"])
    def test_random_selector_qubit_range(self, capsys, selector):
        assert run_cli(["monotone", "--state", selector]) == 1
        assert "nqubits must be 2 to 4" in capsys.readouterr().err

    def test_random_selector_label(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run_cli(["sweep", "--state", "WGS:2", "--seed", "5", "--channel", "pd",
                        "--steps", "3", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].startswith("wgs2(seed=5),pd,")

    def test_file_selector(self, tmp_path, capsys):
        path = tmp_path / "ghz3.state"
        assert run_cli(["genstate", "--state", "ghz3", "--out", str(path)]) == 0
        assert run_cli(["monotone", "--state", f"file:{path}"]) == 0
        assert "E = 0.500000" in capsys.readouterr().out

    def test_five_qubit_file_is_refused(self, tmp_path, capsys):
        # state files may hold up to 6 qubits; the monotone is computed for 2-4
        path = tmp_path / "five.state"
        path.write_text("pure 5\n1 0\n" + "0 0\n" * 31, encoding="ascii")
        assert run_cli(["monotone", "--state", f"file:{path}"]) == 1
        assert "computed for 2 to 4 qubits, got 5" in capsys.readouterr().err

    def test_malformed_file_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.state"
        path.write_text("pure 1\n1 0\nbroken\n", encoding="ascii")
        assert run_cli(["monotone", "--state", f"file:{path}"]) == 1
        err = capsys.readouterr().err
        assert "bad.state:3" in err


class TestGenstate:
    def test_haar_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.state", tmp_path / "b.state"
        assert run_cli(["genstate", "--state", "haar:3", "--seed", "7", "--out", str(p1)]) == 0
        assert run_cli(["genstate", "--state", "haar:3", "--seed", "7", "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text() == states.format_pure_state(states.haar_random_state(3, 7))

    def test_wgs_state_file(self, tmp_path):
        path = tmp_path / "g.state"
        assert run_cli(["genstate", "--state", "wgs:2", "--seed", "1", "--out", str(path)]) == 0
        text = path.read_text()
        assert text.startswith("pure 2\n")
        amp = [complex(float(l.split()[0]), float(l.split()[1]))
               for l in text.strip().splitlines()[1:]]
        assert abs(np.linalg.norm(amp) - 1) < 1e-12
        graph = states.random_weighted_graph(2, 1)
        assert text == states.format_pure_state(states.weighted_graph_state(graph))

    def test_named_state_file(self, tmp_path):
        path = tmp_path / "ghz3.state"
        assert run_cli(["genstate", "--state", "GHZ3", "--out", str(path)]) == 0
        assert path.read_text() == states.format_pure_state(states.named_state("ghz3"))

    def test_file_selector_is_refused(self, tmp_path, capsys):
        path = tmp_path / "x.state"
        assert run_cli(["genstate", "--state", f"file:{tmp_path / 'in.state'}",
                        "--out", str(path)]) == 1
        assert "genstate writes pure states" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("selector", ["haar:5", "wgs:1"])
    def test_qubit_count_out_of_range(self, tmp_path, capsys, selector):
        path = tmp_path / "x.state"
        assert run_cli(["genstate", "--state", selector, "--out", str(path)]) == 1
        assert "nqubits must be 2 to 4" in capsys.readouterr().err
        assert not path.exists()


class TestSweep:
    def test_csv_written_and_stable(self, tmp_path, capsys):
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        args = ["sweep", "--state", "ghz2", "--channel", "pd",
                "--smin", "0.02", "--smax", "0.3", "--steps", "4",
                "--workers", "1"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        assert lines[0] == "label,channel,s,E,eta,eta_lo,eta_hi"
        assert len(lines) == 5
        assert lines[1].startswith("ghz2,pd,0.02,")

    @pytest.mark.parametrize("bounds", [["--smax", "inf"], ["--smax", "nan"],
                                        ["--smin", "nan"], ["--smin=-inf"]])
    def test_non_finite_grid_is_refused(self, capsys, tmp_path, bounds):
        out = tmp_path / "x.csv"
        assert run_cli(["sweep", "--state", "ghz3", "--channel", "pd", "--steps", "3"]
                       + bounds + ["--out", str(out)]) == 1
        assert "invalid grid: grid ends must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_grid(self, capsys):
        assert run_cli(["sweep", "--state", "ghz2", "--channel", "pd",
                        "--smin", "0.5", "--smax", "0.1", "--out", "/tmp/x.csv"]) == 1
        assert "invalid grid" in capsys.readouterr().err

    def test_invalid_channel(self, capsys):
        assert run_cli(["sweep", "--state", "ghz2", "--channel", "zz",
                        "--out", "/tmp/x.csv"]) == 1
        assert "unknown channel" in capsys.readouterr().err

    def test_custom_label(self, tmp_path):
        out = tmp_path / "lab.csv"
        assert run_cli(["sweep", "--state", "ghz2", "--channel", "ad",
                        "--smin", "0.02", "--smax", "0.2", "--steps", "3",
                        "--label", "mylabel", "--workers", "1",
                        "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].startswith("mylabel,ad,")

    @pytest.mark.parametrize("label", ["a,b", "two\nlines", 'say "hi"', "caf\u00e9"])
    def test_label_that_breaks_the_csv_is_refused(self, label, tmp_path, capsys, monkeypatch):
        def no_solve(*args):
            raise AssertionError("a point was solved")

        monkeypatch.setattr(analysis, "genuine_negativity", no_solve)
        out = tmp_path / "lab.csv"
        assert run_cli(["sweep", "--state", "ghz2", "--channel", "ad", "--steps", "3",
                        "--label", label, "--workers", "1", "--out", str(out)]) == 1
        assert "cannot be a CSV field" in capsys.readouterr().err
        assert not out.exists()

    def test_state_file_name_that_breaks_the_csv_is_refused(self, tmp_path, capsys):
        state = tmp_path / "a,b.state"
        assert run_cli(["genstate", "--state", "ghz2", "--out", str(state)]) == 0
        out = tmp_path / "lab.csv"
        assert run_cli(["sweep", "--state", f"file:{state}", "--channel", "ad",
                        "--steps", "3", "--workers", "1", "--out", str(out)]) == 1
        assert "'a,b.state' cannot be a CSV field" in capsys.readouterr().err
        assert not out.exists()


class TestEnsemble:
    def test_mean_and_members(self, tmp_path):
        out = tmp_path / "ens.csv"
        assert run_cli(["ensemble", "--generator", "haar", "--n", "2",
                        "--count", "2", "--channel", "ad",
                        "--smin", "0.02", "--smax", "0.3", "--steps", "3",
                        "--seed", "4", "--members", "--workers", "1",
                        "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        labels = {line.split(",")[0] for line in lines[1:]}
        assert "haar2-mean" in labels
        assert "haar2-r000" in labels and "haar2-r001" in labels
        mean_rows = [l for l in lines[1:] if l.startswith("haar2-mean")]
        assert all(row.split(",")[5] != "" for row in mean_rows)  # CI bounds present

    def test_mean_only_without_members(self, tmp_path):
        out = tmp_path / "ens.csv"
        assert run_cli(["ensemble", "--generator", "haar", "--n", "2",
                        "--count", "2", "--channel", "ad",
                        "--smin", "0.02", "--smax", "0.3", "--steps", "3",
                        "--seed", "4", "--workers", "1", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == analysis.CSV_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == ["haar2-mean"] * 3

    def test_qubit_count_out_of_range(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        assert run_cli(["ensemble", "--generator", "wgs", "--n", "5", "--count", "2",
                        "--channel", "ad", "--steps", "3", "--out", str(out)]) == 1
        assert "nqubits must be 2 to 4, got 5" in capsys.readouterr().err
        assert not out.exists()

    def test_count_validation(self, capsys):
        assert run_cli(["ensemble", "--generator", "haar", "--n", "2",
                        "--count", "1", "--channel", "ad",
                        "--out", "/tmp/x.csv"]) == 1
        assert "at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["sweep", "--state", "ghz3"],
    ["ensemble", "--generator", "haar", "--n", "3"],
])
def test_worker_default_matches_library(monkeypatch, tmp_path, command):
    # record what the library resolves, then stop the command before any solve
    resolved = []
    resolve_workers = analysis.resolve_workers

    def recording(workers):
        resolved.append(resolve_workers(workers))
        raise RuntimeError("worker count resolved")

    monkeypatch.setattr(analysis, "resolve_workers", recording)
    argv = command + ["--channel", "pd", "--steps", "3", "--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == 1
    assert cli.main(argv + ["--workers", "2"]) == 1
    assert resolved == [1, 2]


@pytest.mark.parametrize("command", [
    ["sweep", "--state", "ghz2"],
    ["ensemble", "--generator", "haar", "--n", "2", "--count", "2"],
])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_non_positive_workers_are_refused(tmp_path, capsys, command, workers):
    out = tmp_path / "out.csv"
    assert run_cli(command + ["--channel", "pd", "--steps", "3", "--workers", workers,
                              "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"genneg: error: --workers/workers must be at least 1, got {workers}\n"
    assert not out.exists()


def test_module_entrypoint_smoke():
    proc = subprocess.run([sys.executable, "-m", "genneg.cli", "--help"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "monotone" in proc.stdout


def _assert_help(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: genneg ")
    for command in ("monotone", "sweep", "ensemble", "genstate"):
        assert command in proc.stdout


def test_console_script_smoke(tmp_path):
    """The console script declared in pyproject.toml starts and answers --help.

    The declaration is resolved and run the way an installed wrapper runs it,
    against this source tree, so no install is needed; an installed ``genneg``
    found on PATH is run as well.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert "genneg" in scripts
    env = dict(os.environ)
    src = str(Path(genneg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CONSOLE_SCRIPT_WRAPPER, "genneg", scripts["genneg"], "--help"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env)
    _assert_help(proc)

    installed = shutil.which("genneg")
    if installed is not None:
        _assert_help(subprocess.run([installed, "--help"], capture_output=True,
                                    text=True, timeout=120))
