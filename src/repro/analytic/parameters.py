"""Model parameters — the paper's Table 2.

    DB_Size                   number of distinct objects in the database
    Nodes                     number of nodes; each node replicates all objects
    Transactions              concurrent transactions at a node (derived)
    TPS                       transactions per second originating at a node
    Actions                   number of updates in a transaction
    Action_Time               time to perform an action
    Time_Between_Disconnects  mean time between network disconnects of a node
    Disconnected_Time         mean time a node is disconnected
    Message_Delay             time between object update and replica update
                              (ignored by the analytic model)
    Message_CPU               send/apply processing time (ignored)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Tuple

from repro.exceptions import ConfigurationError

#: the analytic tracks that predict a rate from these parameters: the
#: paper's closed-form equations (the default) and the Markov
#: transaction-state chains.  Kept here, beside the parameters, so the CLI
#: parser can offer them without importing an equation.
MODEL_TRACKS: Tuple[str, ...] = ("closed-form", "markov")


@dataclass(frozen=True)
class ModelParameters:
    """Parameters of the replication model (Table 2).

    The analytic model ignores ``message_delay`` and ``message_cpu`` ("These
    delays and extra processing are ignored"); they are carried here because
    the simulator *can* honour them, letting experiments show how message
    costs worsen the analytic predictions.
    """

    db_size: int = 1000
    nodes: int = 1
    tps: float = 10.0
    actions: int = 4
    action_time: float = 0.01
    time_between_disconnects: float = 0.0
    disconnect_time: float = 0.0
    message_delay: float = 0.0
    message_cpu: float = 0.0

    def __post_init__(self) -> None:
        if self.db_size <= 0:
            raise ConfigurationError(f"db_size must be positive, got {self.db_size}")
        if self.nodes <= 0:
            raise ConfigurationError(f"nodes must be positive, got {self.nodes}")
        if self.tps < 0:
            raise ConfigurationError(f"tps must be >= 0, got {self.tps}")
        if self.actions <= 0:
            raise ConfigurationError(f"actions must be positive, got {self.actions}")
        if self.action_time < 0:
            raise ConfigurationError(
                f"action_time must be >= 0, got {self.action_time}"
            )
        if self.disconnect_time < 0 or self.time_between_disconnects < 0:
            raise ConfigurationError("disconnect times must be >= 0")
        if self.message_delay < 0 or self.message_cpu < 0:
            raise ConfigurationError("message costs must be >= 0")

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #

    @property
    def transactions(self) -> float:
        """Equation 1: concurrent transactions originating at one node.

        ``Transactions = TPS x Actions x Action_Time``
        """
        return self.tps * self.actions * self.action_time

    @property
    def transaction_duration(self) -> float:
        """Single-node transaction lifetime: ``Actions x Action_Time``."""
        return self.actions * self.action_time

    def with_(self, **changes: Any) -> "ModelParameters":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def scaled_db(self) -> "ModelParameters":
        """Database grown in proportion to nodes (the equation-13 regime).

        "one might imagine that the database size grows with the number of
        nodes (as in the checkbook example ...). More nodes, and more
        transactions mean more data."
        """
        return self.with_(db_size=self.db_size * self.nodes)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"DB_Size={self.db_size} Nodes={self.nodes} TPS={self.tps} "
            f"Actions={self.actions} Action_Time={self.action_time}"
            + (
                f" Disconnect_Time={self.disconnect_time}"
                if self.disconnect_time
                else ""
            )
        )
