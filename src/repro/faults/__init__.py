"""Deterministic fault injection: plans, the injector, and the oracle."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "FOREVER": "repro.faults.plan",
    "Crash": "repro.faults.plan",
    "FaultInjector": "repro.faults.injector",
    "FaultPlan": "repro.faults.plan",
    "LinkFaults": "repro.faults.plan",
    "OracleVerdict": "repro.faults.oracle",
    "Partition": "repro.faults.plan",
    "evaluate": "repro.faults.oracle",
})
