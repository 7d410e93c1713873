"""Tests for the scope rule and tentative-version overlay."""

import pytest

from repro.core.scope import TransactionScope
from repro.core.tentative import TentativeStore, TentativeStatus, TentativeTransaction
from repro.core.acceptance import AlwaysAccept
from repro.exceptions import ScopeViolationError
from repro.storage.store import ObjectStore
from repro.txn.ops import IncrementOp, ReadOp, WriteOp


class TestScopeRule:
    def scope(self):
        # objects 0-3 mastered at base nodes; 4 at mobile 2; 5 at mobile 3
        return TransactionScope({4: 2, 5: 3}, db_size=6)

    def test_base_mastered_objects_in_scope(self):
        scope = self.scope()
        scope.validate([WriteOp(0, 1), IncrementOp(3, 2)], mobile_id=2)

    def test_own_mastered_object_in_scope(self):
        self.scope().validate([WriteOp(4, 1)], mobile_id=2)

    def test_other_mobiles_objects_out_of_scope(self):
        with pytest.raises(ScopeViolationError):
            self.scope().validate([WriteOp(5, 1)], mobile_id=2)

    def test_reads_also_checked(self):
        with pytest.raises(ScopeViolationError):
            self.scope().validate([ReadOp(5)], mobile_id=2)

    def test_unknown_object_out_of_scope(self):
        for oid in (99, 6, -1):
            with pytest.raises(ScopeViolationError):
                self.scope().validate([WriteOp(oid, 1)], mobile_id=2)


class TestTentativeStore:
    def base(self):
        store = ObjectStore(node_id=5, db_size=4, initial_value=100)
        return store, TentativeStore(store)

    def test_reads_fall_through_to_master_version(self):
        base, tent = self.base()
        assert tent.value(0) == 100

    def test_writes_shadow_without_touching_base(self):
        base, tent = self.base()
        tent.write(0, 55)
        assert tent.value(0) == 55
        assert base.value(0) == 100

    def test_apply_op_uses_tentative_view(self):
        base, tent = self.base()
        tent.apply(IncrementOp(0, -30))
        tent.apply(IncrementOp(0, -30))
        assert tent.value(0) == 40  # both debits visible locally

    def test_apply_read_does_not_dirty(self):
        base, tent = self.base()
        assert tent.apply(ReadOp(1)) == 100
        assert 1 not in tent

    def test_discard_restores_master_view(self):
        base, tent = self.base()
        tent.write(0, 1)
        tent.write(2, 3)
        assert len(tent) == 2
        dropped = tent.discard()
        assert dropped == 2
        assert tent.value(0) == 100
        assert len(tent) == 0

    def test_dirty_oids_sorted(self):
        base, tent = self.base()
        tent.write(3, 1)
        tent.write(0, 1)
        assert list(tent.dirty_oids) == [0, 3]


class TestTentativeTransaction:
    def test_initial_status_pending(self):
        record = TentativeTransaction(
            seq=1, mobile_id=2, ops=[WriteOp(0, 1)], acceptance=AlwaysAccept()
        )
        assert record.pending
        assert record.status is TentativeStatus.PENDING

    def test_status_transitions(self):
        record = TentativeTransaction(
            seq=1, mobile_id=2, ops=[], acceptance=AlwaysAccept()
        )
        record.status = TentativeStatus.ACCEPTED
        assert not record.pending
