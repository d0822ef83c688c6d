"""Lazy package surfaces: ``repro``, ``repro.core``, ``repro.analysis``
and ``repro.obs`` re-export their submodules' public names on first use
(PEP 562) and behave like the eager re-exports they replace.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PACKAGES = ["repro", "repro.core", "repro.analysis", "repro.obs"]

#: Where the public names without a ``__module__`` of their own (constants
#: and type aliases) live.
CONSTANT_OWNERS = {
    "__version__": "repro",
    "ResponseConfig": "repro.core.parameters",
    "VIRUS_HORIZONS": "repro.core.scenarios",
    "CACHE_SCHEMA_VERSION": "repro.core.cache",
    "PAPER_ACCEPTANCE_FACTOR": "repro.core.user",
    "NULL_METRICS": "repro.obs.metrics",
    "MANIFEST_KINDS": "repro.obs.manifest",
    "MANIFEST_SCHEMA_VERSION": "repro.obs.manifest",
}


def _owner(name: str, value: object) -> str:
    if inspect.isclass(value) or inspect.isfunction(value):
        return value.__module__
    return CONSTANT_OWNERS[name]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_is_its_submodule_attribute(package):
    module = importlib.import_module(package)
    assert module.__all__, package
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        value = getattr(module, name)
        owner = importlib.import_module(_owner(name, value))
        assert getattr(owner, name) is value, (package, name)
        # Resolved once, then cached in the package globals.
        assert vars(module)[name] is value


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_every_exported_name(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_every_exported_name(package):
    module = importlib.import_module(package)
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert {name: namespace[name] for name in module.__all__} == {
        name: getattr(module, name) for name in module.__all__
    }


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_names_raise_attribute_error(package):
    module = importlib.import_module(package)
    for name in ("no_such_name", "_private_name", "__wrapped__"):
        with pytest.raises(AttributeError, match=name):
            getattr(module, name)
        assert not hasattr(module, name)
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})


def test_fresh_interpreter_surface():
    """``import repro`` loads no layer; names and subpackages load on use."""
    script = """
import json, sys
import repro
before = sorted(m for m in sys.modules if m.startswith("repro"))
from repro import run_scenario
import repro.core.model
assert repro.core.model.PhoneNetworkModel is repro.core.PhoneNetworkModel
assert repro.analysis.svg.render_curves_svg is repro.analysis.render_curves_svg
from repro.analysis import summarize
print(json.dumps({
    "before": before,
    "run_scenario": run_scenario.__module__,
    "summarize": summarize.__module__,
}))
"""
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report == {
        "before": ["repro", "repro._lazy"],
        "run_scenario": "repro.core.simulation",
        "summarize": "repro.analysis.stats",
    }
