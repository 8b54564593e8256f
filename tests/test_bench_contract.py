"""What the benchmark harness (perfbench/bench.py) reads from genneg.

perfbench's own tests run apart from this suite, so these checks keep a
simplification of genneg from deleting a name the benchmark still calls.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import genneg
from genneg import gmn

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_kernels_skron_into_resolves_after_import():
    # the benchmark's host record reads genneg._kernels.skron_into after a
    # bare `import genneg`, so check it in a fresh interpreter
    env = dict(os.environ)
    src = str(Path(genneg.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import genneg; print(genneg._kernels.skron_into is None)"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() in ("True", "False")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_program_prep_has_one_entry_per_cone_block(n):
    # the benchmark's setup_s times this cold build
    problem = gmn.build_program(np.eye(2**n) / 2**n, n)
    assert len(problem.prep()) == len(problem.block_dims)


def test_every_trace_target_resolves(monkeypatch):
    # a traced run (--trace 1) patches each (module, attribute) pair by name
    monkeypatch.setattr(sys, "path", [str(PERFBENCH)] + sys.path)
    monkeypatch.delitem(sys.modules, "bench", raising=False)
    from bench import trace_targets

    targets = trace_targets()
    assert targets
    for module, attribute, _, _ in targets:
        assert callable(getattr(module, attribute, None)), f"{module.__name__}.{attribute}"
