"""Conformance tests for the explicit engine interface (sim/protocol.py).

Two kernels, one contract: the slotted ``Engine`` and the asyncio-backed
``WallClockEngine``.  These tests are structural — a kernel that forgets a
member fails here before any strategy trips over it at runtime.
"""

import pytest

from repro.sim import Engine, EngineProtocol
from repro.service import WallClockEngine


def test_engine_satisfies_full_protocol():
    assert isinstance(Engine(), EngineProtocol)


def test_wallclock_engine_satisfies_full_protocol():
    assert isinstance(WallClockEngine(), EngineProtocol)


def test_incomplete_kernel_fails_the_protocol_check():
    class NotAnEngine:
        now = 0.0

        def schedule(self, delay, callback, *args):
            pass

    assert not isinstance(NotAnEngine(), EngineProtocol)


def test_protocol_is_runtime_checkable_not_nominal():
    # structural typing: a class never importing EngineProtocol conforms
    # if (and only if) it has the members
    class Structural:
        def __init__(self):
            self.now = 0.0
            self.profiler = None
            self.queued_events = 0
            self.events_scheduled = 0

        def schedule(self, delay, callback, *args):
            pass

        def schedule_now(self, callback, *args):
            pass

        def schedule_at(self, at, callback, *args):
            pass

        def timeout(self, delay):
            pass

        def event(self, name=""):
            pass

        def process(self, generator, name=""):
            pass

        def _spawn(self, generator, name=""):
            pass

        def run(self, until=None):
            pass

        def peek(self):
            return None

    assert isinstance(Structural(), EngineProtocol)


@pytest.mark.parametrize("module_name", [
    "repro.txn.manager",
    "repro.txn.twopc",
    "repro.network.network",
    "repro.storage.lock_manager",
    "repro.replication.base",
])
def test_system_layers_type_against_the_protocol(module_name):
    """The layers the wall-clock kernel drives import the protocol, not
    the concrete Engine — the import is what keeps them kernel-agnostic."""
    import importlib

    module = importlib.import_module(module_name)
    assert getattr(module, "EngineProtocol", None) is EngineProtocol
