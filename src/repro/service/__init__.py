"""Real-time service mode: the two-tier engine served under live load.

The simulator replays the paper's two-tier scheme in virtual time; this
package serves it on *real* time:

* :mod:`~repro.service.wallclock` — :class:`WallClockEngine`, the sim
  kernel's Process/engine API driven by ``time.monotonic`` inside asyncio,
  so strategies, fault injectors, and observability hooks run unmodified.
* :mod:`~repro.service.gateway` — :class:`ServiceGateway`, the NDJSON
  TCP/unix-socket front door (``repro serve``): tentative execution, base
  re-execution with acceptance criteria, per-client diagnostics,
  backpressure, graceful drain.
* :mod:`~repro.service.loadtest` — the open-loop concurrent load-test
  client (``repro loadtest``) with the end-to-end lost-update oracle.
* :mod:`~repro.service.histogram` — O(1)-memory log-bucketed latency
  histograms behind the reported percentiles.

Wall-clock mode is additive: nothing in the simulator defaults to it, and
the determinism goldens pin the sim kernel byte-for-byte.
"""

from repro.service.gateway import GatewayConfig, ServiceGateway
from repro.service.histogram import LatencyHistogram
from repro.service.loadtest import LoadtestConfig, run_loadtest
from repro.service.wallclock import WallClockEngine

__all__ = [
    "GatewayConfig",
    "LatencyHistogram",
    "LoadtestConfig",
    "ServiceGateway",
    "WallClockEngine",
    "run_loadtest",
]
