"""Import cost: a run path loads only what it executes.

Every campaign process (the CLI, each daemon shard, each spawn-started
worker) pays its imports once.  ``scipy.stats`` alone costs about a
second, and only the statistical gates and replication summaries call
it; ``xml.sax.saxutils`` (the SVG writer) pulls in ``urllib`` and
``http``.  So importing the scheduler, the xl engine, the daemon or the
frontier solver, and running a core and an xl job, must load none of
them.  Each check runs in a fresh interpreter, because this test
process has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules no run path may load.
FORBIDDEN = ("scipy", "xml.sax", "urllib.request")


def _loaded_forbidden(script: str) -> list:
    """Run ``script`` in a fresh interpreter; the forbidden modules it loaded."""
    probe = (
        f"{script}\nimport json, sys\n"
        f"print(json.dumps([m for m in {FORBIDDEN!r} if m in sys.modules]))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "module",
    [
        "repro.experiments.scheduler",
        "repro.xl.engine",
        "repro.service",
        "repro.frontier",
    ],
)
def test_run_path_imports_load_no_scipy_or_xml(module):
    assert _loaded_forbidden(f"import {module}") == []


def test_core_and_xl_jobs_load_no_scipy():
    script = """
from dataclasses import replace
from repro.core.parameters import NetworkParameters
from repro.core.scenarios import baseline_scenario
from repro.experiments.scheduler import ReplicationScheduler

core = baseline_scenario(3, network=NetworkParameters(population=100), duration=6.0)
with ReplicationScheduler(processes=1) as scheduler:
    for config in (core, replace(core, name="tiny-xl", engine="xl")):
        replicated = scheduler.replicate(config, replications=1, seed=0)
        assert len(replicated.results) == 1
        assert replicated.results[0].config.engine == config.engine
"""
    assert _loaded_forbidden(script) == []


def test_the_probe_sees_a_scipy_import():
    """The guard itself works: a replication summary does load scipy."""
    script = """
from repro.analysis.stats import summarize
summarize([1.0, 2.0, 3.0])
"""
    assert _loaded_forbidden(script) == ["scipy"]
