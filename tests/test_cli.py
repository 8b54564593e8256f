import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import genneg
from genneg import analysis, cli

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
        assert "objective = -0.4999999" in out
        assert "certificate = ok" in out

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

    def test_file_selector(self, tmp_path, capsys):
        path = tmp_path / "ghz3.state"
        assert run_cli(["genstate", "--kind", "named", "--state", "ghz3",
                        "--out", str(path)]) == 0
        assert run_cli(["monotone", "--state", f"file:{path}"]) == 0
        assert "E = 0.500000" in capsys.readouterr().out

    def test_malformed_file_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.state"
        path.write_text("pure 1\n1 0\nbroken\n", encoding="ascii")
        assert run_cli(["monotone", "--state", f"file:{path}"]) == 1
        err = capsys.readouterr().err
        assert "bad.state:3" in err


class TestGenstate:
    def test_haar_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.state", tmp_path / "b.state"
        assert run_cli(["genstate", "--kind", "haar", "--n", "3", "--seed", "7",
                        "--out", str(p1)]) == 0
        assert run_cli(["genstate", "--kind", "haar", "--n", "3", "--seed", "7",
                        "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_wgs_state_file(self, tmp_path):
        path = tmp_path / "g.state"
        assert run_cli(["genstate", "--kind", "wgs", "--n", "2", "--seed", "1",
                        "--out", str(path)]) == 0
        text = path.read_text()
        assert text.startswith("pure 2\n")
        amp = [complex(float(l.split()[0]), float(l.split()[1]))
               for l in text.strip().splitlines()[1:]]
        assert abs(np.linalg.norm(amp) - 1) < 1e-12

    def test_named_requires_state(self, capsys):
        assert run_cli(["genstate", "--kind", "named", "--out", "/tmp/x.state"]) == 1
        assert "requires --state" in capsys.readouterr().err


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

    def test_count_validation(self, capsys):
        assert run_cli(["ensemble", "--generator", "haar", "--n", "2",
                        "--count", "1", "--channel", "ad",
                        "--out", "/tmp/x.csv"]) == 1
        assert "at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["sweep", "--state", "ghz3"],
    ["ensemble", "--generator", "haar", "--n", "3"],
])
def test_worker_default_matches_library(monkeypatch, command):
    parse = cli.build_parser().parse_args
    args = parse(command + ["--channel", "pd", "--out", "x.csv"])
    monkeypatch.delenv(analysis.WORKERS_ENV, raising=False)
    assert cli._workers(args) == analysis.resolve_workers(None) == 1
    monkeypatch.setenv(analysis.WORKERS_ENV, "3")
    assert cli._workers(args) == analysis.resolve_workers(None) == 3
    assert cli._workers(parse(command + ["--channel", "pd", "--out", "x.csv",
                                         "--workers", "2"])) == 2


def test_non_integer_workers_variable_is_named(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv(analysis.WORKERS_ENV, "two")
    out = tmp_path / "s.csv"
    assert run_cli(["sweep", "--state", "ghz2", "--channel", "pd", "--steps", "3",
                    "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "genneg: error: GENNEG_WORKERS must be an integer, got 'two'\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["sweep", "--state", "ghz2"],
    ["ensemble", "--generator", "haar", "--n", "2", "--count", "2"],
])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_non_positive_workers_are_refused(monkeypatch, tmp_path, capsys, command, workers):
    monkeypatch.delenv(analysis.WORKERS_ENV, raising=False)
    out = tmp_path / "out.csv"
    assert run_cli(command + ["--channel", "pd", "--steps", "3", "--workers", workers,
                              "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"genneg: error: --workers/workers must be at least 1, got {workers}\n"
    assert not out.exists()


def test_zero_workers_variable_is_refused(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv(analysis.WORKERS_ENV, "0")
    out = tmp_path / "s.csv"
    assert run_cli(["sweep", "--state", "ghz2", "--channel", "pd", "--steps", "3",
                    "--out", str(out)]) == 1
    assert capsys.readouterr().err == "genneg: error: GENNEG_WORKERS must be at least 1, got 0\n"
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
