"""repro — "The Dangers of Replication and a Solution", reproduced.

A production-quality reproduction of Gray, Helland, O'Neil & Shasha
(SIGMOD 1996): the closed-form analytic model of replication instability
(equations 1-19), a deterministic discrete-event simulator with real locking,
deadlock detection and versioned storage, the four Table-1 replication
strategies (lazy-group carrying section 6's reconciliation rules and
commutative updates), and the paper's proposed **two-tier replication
protocol** for mobile nodes.

Quick start::

    from repro import ModelParameters, eager

    p = ModelParameters(db_size=10_000, nodes=1, tps=10, actions=5,
                        action_time=0.01)
    print(eager.total_deadlock_rate(p.with_(nodes=10))
          / eager.total_deadlock_rate(p))     # -> 1000.0

    from repro import (
        IncrementOp, NonNegativeOutputs, SystemSpec, TwoTierSystem,
    )

    system = TwoTierSystem(SystemSpec(num_nodes=3, db_size=100), num_base=2)
    mobile = system.mobile(2)
    system.disconnect_mobile(2)
    mobile.submit_tentative([IncrementOp(7, -50)], NonNegativeOutputs())
    system.run()
    system.reconnect_mobile(2)
    system.run()

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-versus-measured results of every table and figure.
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    # analytic model
    "ModelParameters": "repro.analytic.parameters",
    "single_node": "repro.analytic.single_node",
    "eager": "repro.analytic.eager",
    "lazy_group": "repro.analytic.lazy_group",
    "lazy_master": "repro.analytic.lazy_master",
    "two_tier": "repro.analytic.two_tier",
    "partial": "repro.analytic.partial",
    # simulation & measurement
    "Engine": "repro.sim.engine",
    "RandomSource": "repro.sim.random_source",
    "Metrics": "repro.metrics.counters",
    "summarize": "repro.metrics.rates",
    "ExperimentConfig": "repro.harness.experiment",
    "run_experiment": "repro.harness.experiment",
    # fault injection
    "FaultPlan": "repro.faults.plan",
    "LinkFaults": "repro.faults.plan",
    "Partition": "repro.faults.plan",
    "Crash": "repro.faults.plan",
    "FaultInjector": "repro.faults.injector",
    # operations
    "Operation": "repro.txn.ops",
    "ReadOp": "repro.txn.ops",
    "WriteOp": "repro.txn.ops",
    "IncrementOp": "repro.txn.ops",
    "MultiplyOp": "repro.txn.ops",
    "AppendOp": "repro.txn.ops",
    # strategies
    "SystemSpec": "repro.replication.base",
    "EagerGroupSystem": "repro.replication.eager_group",
    "EagerMasterSystem": "repro.replication.eager_master",
    "LazyGroupSystem": "repro.replication.lazy_group",
    "LazyMasterSystem": "repro.replication.lazy_master",
    # placement
    "Placement": "repro.placement.base",
    "FullReplication": "repro.placement.full",
    "HashShardPlacement": "repro.placement.hash_shard",
    # two-tier
    "TwoTierSystem": "repro.core.protocol",
    "MobileNode": "repro.core.mobile",
    "AcceptanceCriterion": "repro.core.acceptance",
    "AlwaysAccept": "repro.core.acceptance",
    "IdenticalOutputs": "repro.core.acceptance",
    "NonNegativeOutputs": "repro.core.acceptance",
    "PriceNotAbove": "repro.core.acceptance",
    "PredicateCriterion": "repro.core.acceptance",
    "WithinTolerance": "repro.core.acceptance",
})

__all__.append("__version__")
