"""Deterministic discrete-event simulation kernel.

The replication systems in this library run on a small, self-contained
discrete-event engine in the style of SimPy: simulation *processes* are plain
Python generators that ``yield`` the things they wait for — a
:class:`~repro.sim.events.Timeout`, a one-shot :class:`~repro.sim.events.SimEvent`,
or another :class:`~repro.sim.process.Process` — and the
:class:`~repro.sim.engine.Engine` advances virtual time between resumptions.

Determinism matters here: the paper's analytic claims are statistical, so the
benchmarks re-run the same seeded experiment and compare measured rates with
closed-form predictions.  All randomness flows through
:class:`~repro.sim.random_source.RandomSource` substreams seeded from a single
experiment seed.

Example::

    from repro.sim import Engine

    engine = Engine()

    def ping(name, period):
        while True:
            yield engine.timeout(period)
            print(f"{engine.now:.1f}: {name}")

    engine.process(ping("a", 1.0))
    engine.run(until=3.5)
"""

from repro.sim.engine import Engine
from repro.sim.events import SimEvent, Timeout
from repro.sim.process import Process
from repro.sim.protocol import EngineProtocol
from repro.sim.random_source import RandomSource

__all__ = [
    "Engine",
    "EngineProtocol",
    "SimEvent",
    "Timeout",
    "Process",
    "RandomSource",
]
