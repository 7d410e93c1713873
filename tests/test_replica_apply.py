"""The shared replica-apply loop: one retry/drop policy for every stream.

Five message kinds carry shipped updates (quorum catch-up, lazy-group
replica updates, lazy-master and SCAR slave refreshes, deferred-update's
certified write-sets); all of them restart transparently on deadlock, up
to ``max_retries``, and count what they abandon.
"""

import pytest

from repro.exceptions import DeadlockAbort
from repro.network.message import Message
from repro.replication import (
    DeferredUpdateSystem,
    EagerGroupSystem,
    LazyGroupSystem,
    LazyMasterSystem,
    ReplicaUpdate,
    ScarSystem,
    SystemSpec,
)
from repro.storage.versioning import Timestamp

APPLY_KINDS = {
    "catchup": EagerGroupSystem,
    "replica-update": LazyGroupSystem,
    "slave-update": LazyMasterSystem,
    "du-apply": DeferredUpdateSystem,
    "scar-update": ScarSystem,
}
MAX_RETRIES = 3


def deliver_under_deadlock(kind, attempt, monkeypatch):
    """Hand one ``kind`` message to node 1 whose lock manager makes every
    acquirer the deadlock victim; returns (system, payload, re-sends)."""
    system = APPLY_KINDS[kind](
        SystemSpec(num_nodes=3, db_size=6, max_retries=MAX_RETRIES)
    )
    node = system.nodes[1]

    def victim(txn, oid, mode):
        raise DeadlockAbort()

    sent = []
    monkeypatch.setattr(node.locks, "acquire", victim)
    monkeypatch.setattr(
        system.network, "send", lambda *args: sent.append(args)
    )
    # object 0 is mastered at node 0, so node 1 holds a slave copy
    update = ReplicaUpdate(
        oid=0, old_ts=Timestamp.ZERO, new_ts=Timestamp(5, 0), new_value=9
    )
    payload = ([update], attempt)
    handler = system.handle_message(node, Message(0, 1, kind, payload))
    assert list(handler) == []  # the abort path never waits
    return system, payload, sent


@pytest.mark.parametrize("kind", sorted(APPLY_KINDS))
def test_deadlocked_apply_restarts_with_the_next_attempt(kind, monkeypatch):
    system, (updates, attempt), sent = deliver_under_deadlock(
        kind, MAX_RETRIES - 1, monkeypatch
    )
    assert sent == [(1, 1, kind, (updates, attempt + 1))]
    assert system.metrics.restarts == 1
    assert system.replica_updates_dropped == 0
    assert system.metrics.replica_updates == 0


@pytest.mark.parametrize("kind", sorted(APPLY_KINDS))
def test_apply_out_of_retries_is_dropped_and_counted(kind, monkeypatch):
    system, _payload, sent = deliver_under_deadlock(
        kind, MAX_RETRIES, monkeypatch
    )
    assert sent == []
    assert system.metrics.restarts == 0
    assert system.replica_updates_dropped == 1
