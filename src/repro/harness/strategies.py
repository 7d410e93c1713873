"""The strategy names: the one list of what ``--strategy`` accepts.

Each name maps to the module and class that implement it, so reading this
table imports no strategy: the CLI takes its choices from here without
loading the replication code, and
:data:`repro.harness.experiment.STRATEGY_CLASSES` resolves the table into
classes.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: strategy name -> (defining module, system class name)
STRATEGY_SOURCES: Dict[str, Tuple[str, str]] = {
    "deferred-update": ("repro.replication.deferred_update",
                        "DeferredUpdateSystem"),
    "eager-group": ("repro.replication.eager_group", "EagerGroupSystem"),
    "eager-master": ("repro.replication.eager_master", "EagerMasterSystem"),
    "lazy-group": ("repro.replication.lazy_group", "LazyGroupSystem"),
    "lazy-master": ("repro.replication.lazy_master", "LazyMasterSystem"),
    "scar": ("repro.replication.scar", "ScarSystem"),
    "two-tier": ("repro.core.protocol", "TwoTierSystem"),
}

STRATEGIES = tuple(sorted(STRATEGY_SOURCES))
