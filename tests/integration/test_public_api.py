"""Public-API contract: ``__all__`` lists are accurate and complete.

Every name a package exports must exist, be importable, and carry a
docstring; and docs/api.md must not reference names that do not exist.
"""

import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

PACKAGES = [
    "repro",
    "repro.trace",
    "repro.isa",
    "repro.workloads",
    "repro.cache",
    "repro.core",
    "repro.explore",
    "repro.scenario",
    "repro.analysis",
    "repro.obs",
    "repro.store",
    "repro.serve",
    "repro.stream",
    "repro.sweep",
]

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_exist_and_are_documented(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", None)
    assert exported, f"{package_name} must define __all__"
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    for name in exported:
        assert hasattr(package, name), f"{package_name}.{name} missing"
        obj = getattr(package, name)
        if callable(obj) or isinstance(obj, type):
            assert obj.__doc__, f"{package_name}.{name} lacks a docstring"


def test_subpackage_imports_keep_top_level_names():
    """Importing any package must not rebind a name ``repro`` exports.

    Runs in a fresh interpreter: this process has long since imported
    every subpackage, so a shadowed name would already look settled.
    """
    script = (
        "import importlib, repro\n"
        "before = {name: getattr(repro, name) for name in repro.__all__}\n"
        f"for package in {PACKAGES!r}:\n"
        "    importlib.import_module(package)\n"
        "changed = sorted(\n"
        "    name for name, obj in before.items() if getattr(repro, name) is not obj\n"
        ")\n"
        "assert not changed, f'rebound by a subpackage import: {changed}'\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("package_name", PACKAGES)
def test_star_import_is_clean(package_name):
    namespace = {}
    exec(f"from {package_name} import *", namespace)  # noqa: S102
    package = importlib.import_module(package_name)
    for name in package.__all__:
        assert name in namespace


def test_api_doc_backtick_names_resolve():
    """Every `backticked` identifier in docs/api.md must exist somewhere."""
    text = (ROOT / "docs" / "api.md").read_text(encoding="utf-8")
    candidates = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_.]*)`", text))
    # Restrict to plain identifiers (skip paths, dotted call examples).
    names = {
        c for c in candidates
        if "." not in c and not c.endswith("_trace") or c.endswith("_trace")
    }
    universe = set()
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        universe.update(dir(package))
    # Submodule-level names the doc mentions with module prefixes.
    for module_name in (
        "repro.trace.strip",
        "repro.cache.simulator",
        "repro.cache.onepass",
        "repro.core.validation",
        "repro.isa.errors",
        "repro.core.streaming",
        "repro.trace.io",
        "repro.sweep.scheduler",
    ):
        universe.update(dir(importlib.import_module(module_name)))
    universe.update(PACKAGES)
    # Engine and pool-kind names are registry strings, not identifiers.
    universe.update(
        {"repro", "bitmask", "serial", "streaming", "parallel", "vectorized", "auto"}
    )
    universe.update({"process", "thread", "inline"})
    # Scenario registry strings and spec field names.
    universe.update({"lru", "fifo", "energy", "area", "time"})
    universe.update({"policy", "l2_depth", "cost_model", "scenario"})
    missing = sorted(
        name
        for name in names
        if name not in universe
        and not name.startswith(("read_/", "write_"))
        and not name.islower() is False  # keep everything; filtered below
    )
    # Allow documented method references like .run() captured without dots
    # and format artifacts.
    allowed_extra = {
        "run", "step", "dump_registers", "instruction_trace", "data_trace",
        "combined_trace", "disassemble", "symbol", "to_json_dict",
        "reconfiguration_benefit", "to_line_trace", "gz", "rbt",
        "unified_trace", "verified", "init", "__init__", "misses_at_node",
    }
    real_missing = [n for n in missing if n not in allowed_extra]
    assert not real_missing, f"docs/api.md references unknown names: {real_missing}"
