"""The benchmark's traced run wraps public entry points by name.

``perfbench/tracing.py`` replaces the functions and methods it lists in
``FUNCTIONS``/``METHODS`` with span-recording wrappers.  A rename or a
move under ``src/`` would silently drop a layer from the traced run, so
every listed entry point must still resolve.
"""

from __future__ import annotations

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "perfbench", "tracing.py"
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing() if os.path.exists(TRACING) else None
pytestmark = pytest.mark.skipif(tracing is None, reason="perfbench/ not in this tree")


@pytest.mark.parametrize(
    "module_name, attr",
    [(entry[0], entry[1]) for entry in (tracing.FUNCTIONS if tracing else ())],
)
def test_wrapped_function_resolves(module_name, attr) -> None:
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize(
    "module_name, cls_name, attr",
    [entry[:3] for entry in (tracing.METHODS if tracing else ())],
)
def test_wrapped_method_resolves(module_name, cls_name, attr) -> None:
    cls = getattr(importlib.import_module(module_name), cls_name)
    assert callable(cls.__dict__[attr])


def test_preloaded_modules_import() -> None:
    for name in tracing.PRELOAD:
        importlib.import_module(name)


def test_daemon_binds_its_decode_and_key_by_name() -> None:
    """The traced run rebinds module attributes; the daemon's one decode
    and its key must be found there to show up as serve spans."""
    from repro.serve import protocol, server

    assert server.request_from_wire is protocol.request_from_wire
    assert server.request_key is protocol.request_key
