"""Fixtures shared across the tier-1 suite."""

import pytest

from repro.replication.base import ReplicatedSystem


@pytest.fixture
def fill_stores_up_front(monkeypatch):
    """The eager reference, test-local: once the returned function is
    called, every store built until the test ends reads its whole logical
    replica at construction — what the retired up-front population did.
    Materialising on first touch must be unobservable against it."""
    make_store = ReplicatedSystem._make_store

    def make_filled_store(self, node_id, db_size, initial_value):
        store = make_store(self, node_id, db_size, initial_value)
        for oid in store.oids():
            store.read(oid)
        return store

    return lambda: monkeypatch.setattr(
        ReplicatedSystem, "_make_store", make_filled_store
    )
