"""repro — "The Dangers of Replication and a Solution", reproduced.

A production-quality reproduction of Gray, Helland, O'Neil & Shasha
(SIGMOD 1996): the closed-form analytic model of replication instability
(equations 1-19), a deterministic discrete-event simulator with real locking,
deadlock detection and versioned storage, the four Table-1 replication
strategies, the section-6 convergent schemes, and the paper's proposed
**two-tier replication protocol** for mobile nodes.

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

from repro.analytic import (
    ModelParameters,
    eager,
    lazy_group,
    lazy_master,
    partial,
    single_node,
    two_tier,
)
from repro.core import (
    AcceptanceCriterion,
    AlwaysAccept,
    IdenticalOutputs,
    MobileNode,
    NonNegativeOutputs,
    PredicateCriterion,
    PriceNotAbove,
    TwoTierSystem,
    WithinTolerance,
)
from repro.faults import (
    Crash,
    FaultInjector,
    FaultPlan,
    LinkFaults,
    Partition,
)
from repro.harness import ExperimentConfig, run_experiment
from repro.metrics import Metrics, summarize
from repro.placement import FullReplication, HashShardPlacement, Placement
from repro.replication import (
    EagerGroupSystem,
    EagerMasterSystem,
    LazyGroupSystem,
    LazyMasterSystem,
    SystemSpec,
)
from repro.sim import Engine, RandomSource
from repro.txn import (
    AppendOp,
    IncrementOp,
    MultiplyOp,
    Operation,
    ReadOp,
    WriteOp,
)

__version__ = "1.0.0"

__all__ = [
    # analytic model
    "ModelParameters",
    "single_node",
    "eager",
    "lazy_group",
    "lazy_master",
    "two_tier",
    "partial",
    # simulation & measurement
    "Engine",
    "RandomSource",
    "Metrics",
    "summarize",
    "ExperimentConfig",
    "run_experiment",
    # fault injection
    "FaultPlan",
    "LinkFaults",
    "Partition",
    "Crash",
    "FaultInjector",
    # operations
    "Operation",
    "ReadOp",
    "WriteOp",
    "IncrementOp",
    "MultiplyOp",
    "AppendOp",
    # strategies
    "SystemSpec",
    "EagerGroupSystem",
    "EagerMasterSystem",
    "LazyGroupSystem",
    "LazyMasterSystem",
    # placement
    "Placement",
    "FullReplication",
    "HashShardPlacement",
    # two-tier
    "TwoTierSystem",
    "MobileNode",
    "AcceptanceCriterion",
    "AlwaysAccept",
    "IdenticalOutputs",
    "NonNegativeOutputs",
    "PriceNotAbove",
    "PredicateCriterion",
    "WithinTolerance",
    "__version__",
]
