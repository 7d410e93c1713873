"""Shared machinery for all replicated systems.

A :class:`ReplicatedSystem` owns the engine, the network, the metrics, a
*global* deadlock detector (eager transactions hold locks at many nodes, so
waits-for cycles span nodes), and one :class:`NodeContext` per node — the
node's store, lock manager, WAL, Lamport clock, and transaction manager.

Concrete strategies describe the full life of one user transaction — from
``begin`` to commit/abort plus whatever propagation the strategy
prescribes — as a **commit-protocol pipeline**: a ``PHASES`` tuple naming
the phases (admission, execute, certify, commit, propagate) plus one
``_phase_<name>`` method per entry (see :mod:`repro.replication.pipeline`).
The base class's ``_run`` drives the composition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Container,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.exceptions import (
    ConfigurationError,
    CrashAbort,
    DeadlockAbort,
    InvalidStateError,
    MasterUnavailableError,
)
from repro.faults.plan import FaultPlan
from repro.metrics.counters import Metrics
from repro.network.message import Message
from repro.network.network import Network
from repro.placement import FullReplication, Placement
from repro.replication.pipeline import TxnContext
from repro.replication.reconciliation import Outcome
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.sim.protocol import EngineProtocol
from repro.sim.random_source import RandomSource
from repro.storage.deadlock import DeadlockDetector, youngest_victim
from repro.storage.lock_manager import LockManager, LockMode
from repro.storage.record import Record
from repro.storage.store import ObjectStore
from repro.storage.versioning import Timestamp, TimestampGenerator
from repro.storage.wal import WriteAheadLog
from repro.txn.manager import TransactionManager
from repro.txn.ops import Operation
from repro.txn.transaction import Transaction


@dataclass(frozen=True)
class SystemSpec:
    """Everything needed to construct a replicated system.

    This is the one constructor argument every strategy accepts —
    ``EagerGroupSystem(SystemSpec(num_nodes=3, db_size=100), quorum=True)``
    — replacing the long positional/keyword tail the classes had grown.
    Strategy-specific options (quorum, ownership, reconciliation rule, ...)
    stay keyword arguments on the concrete class; the spec carries what is
    common to all five.

    Args:
        num_nodes: nodes in the system.
        db_size: objects in the database (Table 2's DB_Size).
        action_time: virtual seconds per update action.
        message_delay: network propagation delay (0 in the paper's model).
        seed: master seed for all random streams.
        lock_reads: take shared locks on reads (full serializability).
        retry_deadlocks: resubmit user transactions that fall to deadlock.
            ``None`` (default) keeps each strategy's own policy — two-tier
            bases retry, everything else surfaces deadlocks as failures.
        max_retries: bound on resubmissions, preventing livelock.
        victim_policy: deadlock victim selection (ablation hook).
        initial_value: starting value of every object.
        engine: share an existing engine instead of creating one.
        record_history: record reads/writes for serializability checking.
        tracer: optional :class:`~repro.sim.tracing.Tracer`.
        telemetry: optional :class:`~repro.obs.samplers.Telemetry` handle.
        placement: which nodes hold each object.  ``None`` means
            :class:`~repro.placement.FullReplication` — every node
            holds the whole database, the paper's model.  A partial
            placement (``HashShardPlacement``, ``DirectoryPlacement``)
            shards the stores and restricts propagation to each object's
            replica set.  Either way a store materialises a record on
            first touch, so building a node allocates none.
        faults: optional :class:`~repro.faults.plan.FaultPlan`; when given
            (and non-empty) the system installs a
            :class:`~repro.faults.injector.FaultInjector` at construction,
            exposed as ``system.fault_injector``.
    """

    num_nodes: int
    db_size: int
    action_time: float = 0.01
    message_delay: float = 0.0
    seed: int = 0
    lock_reads: bool = False
    retry_deadlocks: Optional[bool] = None
    max_retries: int = 25
    victim_policy: Callable = youngest_victim
    initial_value: Any = 0
    engine: Optional[EngineProtocol] = None
    record_history: bool = False
    tracer: Any = None
    telemetry: Any = None
    placement: Optional[Placement] = None
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ConfigurationError(
                f"num_nodes must be positive, got {self.num_nodes}"
            )
        if self.placement is not None and not isinstance(
            self.placement, Placement
        ):
            raise ConfigurationError(
                "placement must be a Placement spec (e.g. FullReplication() "
                f"or HashShardPlacement(k)), got {self.placement!r}"
            )


class ReplicaUpdate(NamedTuple):
    """One object update shipped to a replica (the Figure 4 message body).

    ``old_ts`` is the timestamp the root transaction observed before writing;
    the receiver compares it with the replica's current timestamp to decide
    whether applying is safe.  ``op`` rides along so commutative-propagation
    modes can reapply the transformation instead of installing the value.
    """

    oid: int
    old_ts: Timestamp
    new_ts: Timestamp
    new_value: Any
    op: Optional[Operation] = None
    root_txn_id: int = -1  # user transaction this update belongs to


@dataclass(eq=False)
class NodeContext:
    """Everything one node owns; compared and hashed by identity."""

    node_id: int
    store: ObjectStore
    locks: LockManager
    wal: WriteAheadLog
    clock: TimestampGenerator
    tm: TransactionManager


#: the judge outcomes that write the local replica
_WRITES = (Outcome.APPLY, Outcome.MERGE)
_EXCLUSIVE = LockMode.EXCLUSIVE
_new = tuple.__new__  # ReplicaUpdate(*fields) without the Python frame


def _failed_handler(exc: Exception):
    """A message-handler generator whose process fails with ``exc``."""
    raise exc
    yield  # pragma: no cover - marks this function as a generator


class ReplicatedSystem:
    """Base class for the Table 1 strategies.

    Construct with a single :class:`SystemSpec`::

        system = LazyGroupSystem(SystemSpec(num_nodes=3, db_size=100))

    The spec is the only positional argument; strategy-specific options
    stay keyword arguments on the concrete class
    (``EagerGroupSystem(spec, quorum=True)``).

    A concrete strategy writes only its ``PHASES`` tuple, its Table-1
    deltas — where writes execute, which node a fan-out leaves out, how an
    arriving update is judged — and its message-kind dispatch.  The
    mechanisms those deltas plug into exist once, here: admission refusal
    (:meth:`_refuse`), lock-free execution (:meth:`_execute_optimistic`),
    the default commit phase, the placement-aware fan-out
    (:meth:`_fan_out`), the replica-apply housekeeping transaction
    (:meth:`_apply_shipped`) and, for the master column,
    :class:`MasterOwnership`.

    The spec's ``placement`` decides which nodes hold each object: under
    :class:`~repro.placement.FullReplication` (the default) every node
    materialises the whole database and the system behaves exactly as the
    paper's model; under a partial placement each node materialises only
    its shard, operations route via ``placement.replicas(oid)`` /
    ``placement.master(oid)``, and propagation stays inside each object's
    replica set.
    """

    name = "abstract"
    #: the strategy's commit-protocol pipeline: phase names, in order; each
    #: entry ``p`` is backed by a ``_phase_<p>`` method (see
    #: :mod:`repro.replication.pipeline`)
    PHASES: tuple = ()
    #: strategy policy when ``spec.retry_deadlocks`` is None — two-tier
    #: bases retry ("resubmitted and reprocessed until [they succeed]"),
    #: every other strategy surfaces deadlocks as failed transactions
    default_retry_deadlocks = False

    def __init__(self, spec: SystemSpec):
        if not isinstance(spec, SystemSpec):
            raise ConfigurationError(
                f"{type(self).__name__} takes a SystemSpec as its only "
                f"positional argument, got {spec!r}"
            )
        self.spec = spec
        self.engine = spec.engine or Engine()
        self.tracer = spec.tracer  # optional repro.sim.tracing.Tracer
        self.telemetry = spec.telemetry  # optional repro.obs.samplers.Telemetry
        if spec.record_history:
            from repro.verify.history import History

            self.history: Optional["History"] = History()
        else:
            self.history = None
        self.num_nodes = spec.num_nodes
        self.db_size = spec.db_size
        self.action_time = spec.action_time
        self.retry_deadlocks = (
            self.default_retry_deadlocks
            if spec.retry_deadlocks is None
            else spec.retry_deadlocks
        )
        self.max_retries = spec.max_retries
        self.metrics = Metrics()
        self.rng = RandomSource(spec.seed)
        self.detector = DeadlockDetector(victim_policy=spec.victim_policy)
        self.crashed: set = set()
        #: shipped updates abandoned after ``max_retries`` deadlocks
        self.replica_updates_dropped = 0
        # per-node live user-transaction processes, insertion-ordered so a
        # crash interrupts them deterministically (a set of Process objects
        # would iterate in id() order, which differs run to run)
        self._live_processes: Dict[int, Dict[Process, None]] = {}
        # interned per-origin process names: submit() runs once per user
        # transaction, so the f-string was measurable at high TPS
        self._txn_proc_names: Dict[int, str] = {}
        self._rejected_proc_names: Dict[int, str] = {}
        # bound phase methods, resolved lazily on the first transaction so
        # subclass __init__ state (ownership maps, quorum configs) exists
        self._pipeline: Optional[List[Callable]] = None
        self.placement_spec = (
            spec.placement if spec.placement is not None else FullReplication()
        )
        self.placement = self.placement_spec.bind(
            self._placement_scope_nodes(), spec.db_size
        )
        self.network = Network(
            self.engine, spec.num_nodes, message_delay=spec.message_delay
        )
        self.nodes: List[NodeContext] = [
            self._make_node(
                i, spec.db_size, spec.action_time, spec.lock_reads,
                spec.initial_value,
            )
            for i in range(spec.num_nodes)
        ]
        for node in self.nodes:
            self.network.register(node.node_id, self._make_handler(node))
        if spec.telemetry is not None:
            self._register_probes(spec.telemetry)
        self.fault_injector = None
        if spec.faults is not None and not spec.faults.empty:
            from repro.faults.injector import FaultInjector

            self.fault_injector = FaultInjector(self, spec.faults).install()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def _placement_scope_nodes(self) -> int:
        """Nodes the placement spans (two-tier narrows this to the base
        tier; mobiles always hold full replicas)."""
        return self.num_nodes

    def _make_store(self, node_id: int, db_size: int, initial_value: Any) -> ObjectStore:
        # records materialise on first touch, so building a node never
        # enumerates the object space — a 10k-node / 1M-object system
        # allocates only what its transactions actually read.  Only the
        # residency predicate varies: None is a full replica (the classic
        # model, or a two-tier mobile), else membership in the replica set
        placement = self.placement
        sharded = node_id < placement.num_nodes and not placement.is_full
        return ObjectStore(
            node_id, db_size, initial_value,
            resident=(
                lambda oid, _replicas=placement.replicas, _n=node_id: (
                    _n in _replicas(oid)
                )
            ) if sharded else None,
        )

    def _node_holds(self, oid: int, node_id: int) -> bool:
        """Does ``node_id`` materialise a copy of ``oid``?"""
        placement = self.placement
        return node_id >= placement.num_nodes or node_id in placement.replicas(oid)

    def _make_node(
        self,
        node_id: int,
        db_size: int,
        action_time: float,
        lock_reads: bool,
        initial_value: Any,
    ) -> NodeContext:
        store = self._make_store(node_id, db_size, initial_value)
        locks = LockManager(
            self.engine,
            node_id,
            self.detector,
            on_wait=self._on_wait,
            on_deadlock=self._on_deadlock,
            telemetry=self.telemetry,
        )
        wal = WriteAheadLog()
        clock = TimestampGenerator(node_id)
        tm = TransactionManager(
            self.engine,
            node_id,
            store,
            locks,
            wal,
            clock,
            action_time=action_time,
            lock_reads=lock_reads,
            history=self.history,
        )
        return NodeContext(
            node_id=node_id, store=store, locks=locks, wal=wal, clock=clock, tm=tm
        )

    def _make_handler(self, node: NodeContext):
        def handler(msg: Message):
            if node.node_id in self.crashed:
                # a disconnect schedule reconnected a crashed node: it
                # cannot process traffic yet, so re-park for redelivery at
                # recovery (no resend — parking schedules nothing)
                self.network.park_inbound(msg)
                return None
            self.metrics.messages += 1
            if msg.kind == "record-transfer":
                # shard migration payload — strategy-agnostic, handled here
                # so every system supports moves without its own plumbing
                oid, value, ts = msg.payload
                node.store.adopt(oid, value, ts)
                return None
            return self.handle_message(node, msg)

        return handler

    # ------------------------------------------------------------------ #
    # metric hooks
    # ------------------------------------------------------------------ #

    def _register_probes(self, telemetry) -> None:
        """Install the standard telemetry probes for this system.

        Subclasses extend (call ``super()._register_probes(telemetry)``)
        with strategy-specific series.  Probes are closures over live
        structures, evaluated only at sample ticks — nothing here runs on
        the transaction hot path.
        """
        telemetry.gauge("engine_queue", lambda: self.engine.queued_events)
        telemetry.gauge(
            "lock_wait_queue",
            lambda: sum(n.locks.total_queued() for n in self.nodes),
        )
        telemetry.gauge(
            "wal_active_txns",
            lambda: sum(n.wal.pending_transactions() for n in self.nodes),
        )
        # per-node series are priceless at demo scale and pure overhead at
        # sweep scale; cap them so a 10k-node system doesn't register tens
        # of thousands of gauges
        per_node = self.num_nodes <= 64
        if per_node:
            for node in self.nodes:
                telemetry.gauge(
                    f"wal_active_txns/node{node.node_id}",
                    node.wal.pending_transactions,
                )
        # counts *materialised* records: what the run actually touched, not
        # the placement's nominal shard sizes (or, full, the database)
        telemetry.gauge(
            "resident_objects",
            lambda: sum(len(n.store) for n in self.nodes),
        )
        if per_node:
            for node in self.nodes:
                telemetry.gauge(
                    f"resident_objects/node{node.node_id}", node.store.__len__
                )
        self.network.bind_telemetry(telemetry)
        telemetry.counter_rate("commit_rate", lambda: self.metrics.commits)
        telemetry.counter_rate("abort_rate", lambda: self.metrics.aborts)
        telemetry.counter_rate("deadlock_rate", lambda: self.metrics.deadlocks)
        telemetry.counter_rate("wait_rate", lambda: self.metrics.waits)
        telemetry.counter_rate(
            "reconciliation_rate", lambda: self.metrics.reconciliations
        )

    def _trace(self, category: str, **detail) -> None:
        if self.tracer is not None:
            self.tracer.emit(self.engine.now, category, **detail)

    def _on_wait(self, txn: Transaction) -> None:
        self.metrics.waits += 1
        self._trace("wait", txn=txn.txn_id, node=txn.origin_node)

    def _on_deadlock(self, txn: Transaction) -> None:
        self.metrics.deadlocks += 1
        self._trace("deadlock", txn=txn.txn_id, node=txn.origin_node)

    # ------------------------------------------------------------------ #
    # strategy interface
    # ------------------------------------------------------------------ #

    def submit(self, origin: int, ops: Sequence[Operation], label: str = "") -> Process:
        """Submit a user transaction at node ``origin``.

        Returns the process running the transaction's full lifecycle; its
        value is the final :class:`Transaction` object.

        Submitting at a crashed node fails fast: the transaction is born
        aborted with reason ``"node-down"`` (counted separately from
        deadlock/acceptance aborts, which measure contention).
        """
        if origin in self.crashed:
            name = self._rejected_proc_names.get(origin)
            if name is None:
                name = self._rejected_proc_names[origin] = (
                    f"{self.name}-rejected@{origin}"
                )
            return self.engine._spawn(
                self._reject_at_crashed_node(origin, label), name
            )
        name = self._txn_proc_names.get(origin)
        if name is None:
            name = self._txn_proc_names[origin] = f"{self.name}-txn@{origin}"
        proc = self.engine._spawn(
            self._run_with_retries(origin, list(ops), label), name
        )
        self._track_live(origin, proc)
        return proc

    def _track_live(self, origin: int, proc: Process) -> None:
        table = self._live_processes.setdefault(origin, {})
        table[proc] = None
        proc.add_callback(lambda _event: table.pop(proc, None))

    def _reject_at_crashed_node(self, origin: int, label: str):
        txn = self.nodes[origin].tm.begin(label=label)
        txn.mark_aborted(self.engine.now, reason="node-down")
        self.metrics.bump("rejected_node_down")
        self._trace("abort", txn=txn.txn_id, reason="node-down",
                    node=origin, start=txn.start_time)
        return txn
        yield  # pragma: no cover - marks this function as a generator

    def _run_with_retries(self, origin: int, ops: List[Operation], label: str,
                          record: Any = None):
        attempts = 0
        while True:
            txn = yield from self._run(origin, ops, label, record)
            if txn.state.value != "aborted" or not self.retry_deadlocks:
                return txn
            if txn.abort_reason != "deadlock":
                return txn
            if origin in self.crashed:
                # never resubmit at a node that went down mid-flight
                return txn
            attempts += 1
            if attempts > self.max_retries:
                return txn
            self.metrics.restarts += 1
            # brief randomized backoff so the retry does not collide
            # deterministically with the transaction that killed it
            backoff = self.rng.stream("retry-backoff").uniform(0, self.action_time * 2)
            yield self.engine.timeout(backoff)

    def _run(self, origin: int, ops: List[Operation], label: str,
             record: Any = None):
        """One attempt at the transaction: drive the phase pipeline.

        Each ``PHASES`` entry resolves to a ``_phase_<name>`` method, which
        is either a plain function (instantaneous bookkeeping) or a
        generator (anything that waits); the driver adds *no* engine
        interaction of its own, so a composition is byte-for-byte the
        inlined lifecycle it replaced.  A phase setting ``ctx.finished``
        short-circuits the rest (admission failure, certification abort);
        a phase that loses the transaction to a :class:`DeadlockAbort` —
        deadlock victim or crash interrupt — just lets it escape, and the
        driver undoes the transaction at every node in ``ctx.touched``.
        ``record`` rides along as ``ctx.record``.
        """
        pipeline = self._pipeline
        if pipeline is None:
            pipeline = self._pipeline = [
                getattr(self, f"_phase_{name}") for name in self.PHASES
            ]
            if not pipeline:
                raise NotImplementedError(
                    f"{type(self).__name__} declares no PHASES"
                )
        ctx = TxnContext(origin=origin, ops=ops, label=label, record=record)
        try:
            for phase in pipeline:
                step = phase(ctx)
                if step is not None:
                    yield from step
                if ctx.finished:
                    break
        except DeadlockAbort as exc:
            self._abort_everywhere(ctx.txn, ctx.touched, reason=exc.reason)
        return ctx.txn

    def handle_message(self, node: NodeContext, msg: Message):
        """Process an incoming network message at ``node``.

        May return a generator, which the network runs as a process.
        """
        raise NotImplementedError(f"{self.name} received unexpected {msg.kind}")

    # ------------------------------------------------------------------ #
    # shared phase bodies
    # ------------------------------------------------------------------ #

    def _refuse(self, ctx: TxnContext, reason: str) -> None:
        """Admission failure: the transaction is born aborted at its
        origin (it still gets an id, a trace and an abort count)."""
        ctx.txn = self.nodes[ctx.origin].tm.begin(label=ctx.label)
        self._abort_everywhere(ctx.txn, [], reason=reason)
        ctx.finished = True

    def _execute_optimistic(self, ctx: TxnContext, compute_time: float):
        """Lock-free execution at the origin against committed replica
        state (the execute phase of the certification strategies).

        Writes are buffered and the version of everything observed is
        recorded: ``ctx.scratch["reads"]`` holds ``(oid, observed_ts)``
        pairs and ``ctx.scratch["writes"]`` holds ``(oid, observed_ts,
        new_value, op)`` for the certify phase.  A non-resident object is
        served by its master replica, one RPC round away (same cost model
        as lazy-group).  ``compute_time`` is what each update action costs
        at the origin before anything is installed anywhere.
        """
        node = self.nodes[ctx.origin]
        txn = ctx.txn = node.tm.begin(label=ctx.label)
        reads: List[Tuple[int, Timestamp]] = []
        writes: List[Tuple[int, Timestamp, Any, Operation]] = []
        for op in ctx.ops:
            site = self._site_for(ctx.origin, op.oid)
            if site is not node and self.network.message_delay > 0:
                yield self.engine.timeout(self.network.message_delay)
            record = site.store.read(op.oid)
            if op.is_read:
                txn.record_read(record.value)
                if self.history is not None:
                    self.history.record_read(site.node_id, txn.txn_id, op.oid)
                reads.append((op.oid, record.ts))
                continue
            if compute_time > 0:
                yield self.engine.timeout(compute_time)
            if op.reads_state and self.history is not None:
                self.history.record_read(site.node_id, txn.txn_id, op.oid)
            writes.append((op.oid, record.ts, op.apply(record.value), op))
        ctx.scratch["reads"] = reads
        ctx.scratch["writes"] = writes

    def _phase_commit(self, ctx: TxnContext) -> None:
        """Default commit phase: commit at every node in the release set."""
        self._commit_everywhere(ctx.txn, ctx.touched)

    # ------------------------------------------------------------------ #
    # shipping committed updates: fan-out and replica apply
    # ------------------------------------------------------------------ #

    def _shipped_updates(self, txn: Transaction) -> List[ReplicaUpdate]:
        """A committed transaction's updates as Figure 4 message bodies."""
        txn_id = txn.txn_id
        return [
            _new(ReplicaUpdate, (
                u.oid, u.old_ts, u.new_ts, u.new_value, u.op, txn_id
            ))
            for u in txn.updates
        ]

    def _needed_by_holder(
        self,
        updates: Sequence[ReplicaUpdate],
        current_at: Callable[[ReplicaUpdate], Container[int]],
    ) -> Iterator[Tuple[int, List[ReplicaUpdate]]]:
        """Group shipped updates by the nodes that must receive them.

        Yields ``(node_id, updates that node needs)`` in ascending node
        order, which keeps delivery deterministic.  An update's holders are
        its object's replica set plus every node outside the placement
        scope (two-tier mobiles hold full replicas); ``current_at(update)``
        names the nodes already current for it — the strategy's delta —
        and they are left out, as is any node left needing nothing.  Under
        a partial placement recipients come from the updates' replica sets
        (O(updates·k)) rather than a scan over all N nodes, so a commit in
        a 10k-node system costs what its replica sets cost.
        """
        current = [current_at(update) for update in updates]
        placement = self.placement
        if placement.is_full:
            for node_id in range(self.num_nodes):
                needed = [
                    update for update, skip in zip(updates, current)
                    if node_id not in skip
                ]
                if needed:
                    yield node_id, needed
            return
        extra_holders = tuple(range(placement.num_nodes, self.num_nodes))
        needed_by_node: Dict[int, List[ReplicaUpdate]] = {}
        for update, skip in zip(updates, current):
            for node_id in placement.replicas(update.oid) + extra_holders:
                if node_id not in skip:
                    needed_by_node.setdefault(node_id, []).append(update)
        for node_id in sorted(needed_by_node):
            yield node_id, needed_by_node[node_id]

    def _fan_out(
        self,
        sender: int,
        kind: str,
        updates: Sequence[ReplicaUpdate],
        current_at: Callable[[ReplicaUpdate], Container[int]] = lambda update: (),
    ) -> None:
        """Send each holder the updates it needs as one ``kind`` message
        from ``sender`` (attempt 0 of :meth:`_apply_shipped`)."""
        for node_id, needed in self._needed_by_holder(updates, current_at):
            self.network.send(sender, node_id, kind, (needed, 0))

    def _takes_shipped(self, oid: int, node_id: int) -> bool:
        """Does a shipped update for ``oid`` still apply at ``node_id``?

        Not once the object migrated away while the update was in flight
        or parked: the record travelled to its new holder at move time, so
        applying here would resurrect a copy the directory no longer
        routes to.
        """
        return self.placement.is_full or self._node_holds(oid, node_id)

    def _thomas_write_rule(
        self, node: NodeContext, local: Record, update: ReplicaUpdate
    ) -> Outcome:
        """Judge an arriving update by timestamp alone: "If the record
        timestamp is newer than a replica update timestamp, the update is
        'stale' and can be ignored."  An equal timestamp is a duplicate or
        reordered delivery of what is already installed, not a stale one.
        """
        if local.ts < update.new_ts:
            return Outcome.APPLY
        if local.ts != update.new_ts:
            self.metrics.stale_updates += 1
        return Outcome.DISCARD

    def _apply_shipped(
        self,
        node: NodeContext,
        msg: Message,
        judge: Callable[[NodeContext, Record, ReplicaUpdate], Outcome],
    ):
        """Apply one message of shipped updates at ``node`` (the
        replica-update transactions of Figure 1, quorum catch-up, certified
        write-sets); ``judge(node, local_record, update)`` — the strategy's
        delta — decides each update's fate.

        Returns :meth:`_shipped_txn`'s generator for the network to run as
        a handler process, unless nothing in that transaction could wait —
        an action takes no time, every shipped object is free.  Then the
        message is applied on the spot and ``None`` returned: nothing else
        runs inside the delivering dispatch, so the lock entries, undo
        records and ``Transaction`` go unbuilt and only the counters move.
        (An update with no root id under a recorded history needs the
        transaction's id for its write.)  An exception on the spot
        surfaces as one in the transaction does: a failed handler process,
        earlier writes in place, the engine running on.
        """
        updates = msg.payload[0]
        tm, is_free = node.tm, node.locks.is_free
        if tm.action_time > 0 or not all(
            is_free(update.oid)
            and (update.root_txn_id >= 0 or tm.history is None)
            for update in updates
        ):
            return self._shipped_txn(node, msg, judge)
        try:
            for update in updates:
                if self._takes_shipped(update.oid, node.node_id):
                    self._install_judged(
                        node, None, update,
                        judge(node, node.store.read(update.oid), update),
                    )
        except Exception as exc:  # noqa: BLE001 - handler death is data
            return _failed_handler(exc)
        tm.begun += 1
        tm.committed += 1
        self.metrics.replica_updates += 1
        return None

    def _shipped_txn(self, node: NodeContext, msg: Message, judge: Callable):
        """:meth:`_apply_shipped` as a transaction: each update is X-locked,
        judged, and costs one action if it writes.  A deadlock restarts the
        whole message transparently (re-sent to self with ``attempt + 1``)
        up to ``max_retries`` times; after that the updates are dropped and
        counted in ``replica_updates_dropped``.
        """
        updates, attempt = msg.payload
        tm = node.tm
        txn = tm.begin(label=msg.kind)
        try:
            for update in updates:
                if not self._takes_shipped(update.oid, node.node_id):
                    continue
                event = node.locks.acquire(txn, update.oid, _EXCLUSIVE)
                if event is not None:
                    yield event
                    txn.require_active()
                outcome = judge(node, node.store.read(update.oid), update)
                if tm.action_sleep is not None and outcome in _WRITES:
                    yield tm.action_sleep
                    txn.require_active()
                self._install_judged(node, txn, update, outcome)
            tm.commit(txn)
            self.metrics.replica_updates += 1
        except DeadlockAbort as exc:
            tm.abort(txn, reason=exc.reason)
            if attempt < self.max_retries:
                self.metrics.restarts += 1
                self.network.send(
                    node.node_id, node.node_id, msg.kind,
                    (updates, attempt + 1),
                )
            else:
                self.replica_updates_dropped += 1

    def _install_judged(self, node: NodeContext, txn: Optional[Transaction],
                        update: ReplicaUpdate, outcome: Outcome) -> None:
        """Carry out a judge's verdict: ``APPLY`` installs the shipped
        value, ``MERGE`` re-applies the shipped operation when there is
        one, anything else keeps the local version.  ``txn`` holds the X
        lock; ``None`` on the spot, where there is nothing to undo."""
        if outcome not in _WRITES:
            return
        root = update.root_txn_id if update.root_txn_id >= 0 else None
        if outcome is Outcome.MERGE and update.op is not None:
            node.tm.transform(txn, update.op, update.new_ts, root)
        else:
            node.tm.install(
                txn, update.oid, update.new_value, update.new_ts, root
            )
        self.metrics.actions += 1

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #

    def master_of(self, oid: int) -> NodeContext:
        """The node holding ``oid``'s master copy (the placement's
        deterministic first replica unless a strategy keeps its own map)."""
        return self.nodes[self.placement.master(oid)]

    def _site_for(self, origin: int, oid: int) -> NodeContext:
        """Where a transaction rooted at ``origin`` touches ``oid`` without
        a routing rule of its own: the origin when it holds a replica of
        the object, otherwise the object's master replica — both answered
        from one directory lookup."""
        placement = self.placement
        if origin < placement.num_nodes:
            replicas = placement.replicas(oid)
            if origin not in replicas:
                return self._master_among(oid, replicas)
        return self.nodes[origin]

    def _master_among(self, oid: int, replicas: Tuple[int, ...]) -> NodeContext:
        """:meth:`master_of`, given ``oid``'s master-first replica tuple."""
        return self.nodes[replicas[0]]

    def _execute_local(self, node: NodeContext, txn: Transaction,
                       ops: Sequence[Operation]):
        """Run ``ops`` for ``txn`` at one node, counting actions."""
        for op in ops:
            yield from node.tm.execute(txn, op)
            if not op.is_read:
                self.metrics.actions += 1

    def _abort_everywhere(self, txn: Transaction, nodes: Sequence[NodeContext],
                          reason: str) -> None:
        txn.mark_aborted(self.engine.now, reason=reason)
        for node in nodes:
            node.tm.finish_abort_local(txn)
        self.metrics.aborts += 1
        self._trace("abort", txn=txn.txn_id, reason=reason,
                    node=txn.origin_node, start=txn.start_time)

    def _commit_everywhere(self, txn: Transaction,
                           nodes: Sequence[NodeContext]) -> None:
        txn.mark_committed(self.engine.now)
        for node in nodes:
            node.tm.finish_commit_local(txn)
        self.metrics.commits += 1
        if self.history is not None:
            self.history.mark_committed(txn.txn_id)
        self._trace("commit", txn=txn.txn_id, origin=txn.origin_node,
                    start=txn.start_time)

    # ------------------------------------------------------------------ #
    # crash & recovery (fault injection)
    # ------------------------------------------------------------------ #

    def crash_node(self, node_id: int) -> int:
        """Fail-stop ``node_id``: discard in-flight work, go dark.

        In-flight user transactions rooted at the node are interrupted with
        :class:`CrashAbort`, which each strategy's abort path turns into a
        WAL undo; whatever those interrupts cannot reach (a process that is
        runnable at this very instant) is rolled back by the WAL's own
        crash pass, and the crashed log refuses further writes.  Messages
        to and from the node park in its store-and-forward queues.  Returns
        the number of writes the crash discarded.
        """
        node = self.nodes[node_id]
        if node_id in self.crashed:
            raise InvalidStateError(f"node {node_id} is already crashed")
        self.crashed.add(node_id)
        self.network.disconnect(node_id)
        interrupted = 0
        for proc in list(self._live_processes.get(node_id, {})):
            if proc.kill(CrashAbort(f"node {node_id} crashed")):
                interrupted += 1
        lost_writes = node.wal.crash(node.store)
        self.metrics.bump("crashes")
        self._trace("crash", node=node_id, interrupted=interrupted,
                    undone=lost_writes)
        return lost_writes

    def recover_node(self, node_id: int) -> None:
        """Bring a crashed node back and replay its parked queues."""
        node = self.nodes[node_id]
        if node_id not in self.crashed:
            raise InvalidStateError(f"node {node_id} is not crashed")
        node.wal.begin_recovery()
        node.wal.complete_recovery()
        self.crashed.discard(node_id)
        self.metrics.bump("recoveries")
        self._trace("recover", node=node_id)
        if self.network.is_connected(node_id):
            # a disconnect schedule reconnected the node while it was down;
            # its parked traffic still needs the replay
            self.network.flush_parked(node_id)
        else:
            self.network.reconnect(node_id)

    # ------------------------------------------------------------------ #
    # shard migration (directory placements)
    # ------------------------------------------------------------------ #

    def migrate(self, oid: int, src: int, dst: int) -> None:
        """Move ``oid``'s replica from ``src`` to ``dst`` live.

        Rebinds the directory first (so routing, residency predicates and
        propagation immediately see the new replica set), then ships the
        record itself to ``dst`` as a ``record-transfer`` message through
        the normal network path — it takes the same delay, faults and
        store-and-forward parking as any replica update — and evicts the
        source copy.  If ``dst`` commits a write while the transfer is in
        flight, the transfer's older timestamp loses at adoption (the
        Thomas write rule), same as a stale replica update.

        Raises :class:`ConfigurationError` for placements without a
        directory (full, hash) or invalid ``src``/``dst`` membership, and
        :class:`InvalidStateError` when either endpoint is crashed.
        """
        if src in self.crashed or dst in self.crashed:
            down = src if src in self.crashed else dst
            raise InvalidStateError(
                f"cannot migrate object {oid}: node {down} is crashed"
            )
        if not (0 <= src < len(self.nodes) and 0 <= dst < len(self.nodes)):
            raise ConfigurationError(
                f"migration endpoints ({src}, {dst}) outside the system's "
                f"{len(self.nodes)} nodes"
            )
        record = self.nodes[src].store.read(oid)
        value, ts = record.value, record.ts
        # an in-flight transaction may have written the record without
        # committing yet; ship the committed before-image from its WAL
        # entry so an abort (or a crash at src) cannot leak the tentative
        # value to the destination
        pending = self.nodes[src].wal.pending_before(oid)
        if pending is not None:
            value, ts = pending
        self.placement.move(oid, src, dst)
        self.network.send(
            src, dst, "record-transfer", (oid, value, ts)
        )
        self.nodes[src].store.evict(oid)
        self.metrics.bump("migrations")
        self._trace("migrate", oid=oid, src=src, dst=dst)

    # ------------------------------------------------------------------ #
    # observation
    # ------------------------------------------------------------------ #

    def run(self, until: Optional[float] = None) -> float:
        """Advance the simulation (delegates to the engine)."""
        return self.engine.run(until=until)

    def quiesce(self, max_time: float = 1e9) -> float:
        """Run until no events remain (all propagation drained)."""
        return self.engine.run(until=None if self.engine.peek() else max_time)

    def diverged_objects(
        self, node_ids: Optional[Sequence[int]] = None
    ) -> Iterator[Tuple[int, Tuple[int, ...], List[Any]]]:
        """The replica audit: ``(oid, holders, values)`` for every object
        whose holders disagree, in ascending oid order.

        An object's holders are its replica set plus every node outside
        the placement scope (two-tier mobiles hold full replicas),
        narrowed to ``node_ids`` when given.  An object no compared store
        has materialised reads ``initial_value`` at every holder, so only
        the union of materialised oids is visited — O(touched) — and each
        holder is probed with ``peek``, which materialises nothing and,
        the directory having just vouched for residency, cannot miss.
        """
        placement = self.placement
        stores = [node.store for node in self.nodes]
        compared = range(self.num_nodes) if node_ids is None else set(node_ids)
        extra_holders = tuple(range(placement.num_nodes, self.num_nodes))
        visited = set().union(
            *(stores[node_id].materialized_oids() for node_id in compared)
        )
        for oid in sorted(visited):
            holders = placement.replicas(oid) + extra_holders
            if node_ids is not None:
                holders = tuple(n for n in holders if n in compared)
            # True = resident: the directory has just named each holder
            values = [stores[node_id].peek(oid, True) for node_id in holders]
            if values and values.count(values[0]) != len(values):
                yield oid, holders, values

    def divergence(self, node_ids: Optional[Sequence[int]] = None) -> int:
        """Objects whose value differs across their replicas (delusion),
        over all nodes or only ``node_ids``: the paper's "system
        delusion" metric, a count of :meth:`diverged_objects`.
        """
        return sum(1 for _ in self.diverged_objects(node_ids))

    def converged(self) -> bool:
        return self.divergence() == 0

    def snapshot(self, node_id: int = 0) -> Dict[int, Any]:
        return self.nodes[node_id].store.snapshot()

    def nominal_resident_counts(self) -> List[int]:
        """Logically resident objects per node — the placement's shard
        sizes, independent of how many records a store has actually
        materialised.  Nodes outside the placement scope (two-tier
        mobiles) hold full replicas."""
        counts = list(self.placement.resident_counts())
        counts.extend(
            [self.db_size] * (self.num_nodes - self.placement.num_nodes)
        )
        return counts

    def materialized_counts(self) -> List[int]:
        """Records actually allocated per node: what was touched there."""
        return [node.store.materialized for node in self.nodes]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} nodes={self.num_nodes} "
            f"db={self.db_size} t={self.engine.now:.4g}>"
        )


class MasterOwnership:
    """The master column of Table 1: every object has one owner node.

    Mixed in ahead of :class:`ReplicatedSystem`, this owns the ``oid ->
    master node id`` map, its validation, the routing and reachability
    questions asked of it, and its upkeep when an object migrates.
    """

    def _bind_ownership(self, ownership: Optional[Dict[int, int]]) -> None:
        """Adopt ``ownership``, or default it from the placement directory.

        Full replication yields the classic round-robin ``oid % nodes``; a
        partial placement masters each object at the first node of its
        replica set (the HRW winner), so the owner always holds a copy.
        """
        self.ownership = (
            dict(ownership)
            if ownership is not None
            else {oid: self.placement.master(oid) for oid in range(self.db_size)}
        )
        partial = not self.placement.is_full
        for oid in range(self.db_size):
            master = self.ownership.get(oid)
            if master is None or not 0 <= master < self.num_nodes:
                raise MasterUnavailableError(
                    f"object {oid} has no valid master (got {master!r})"
                )
            if partial and not self._node_holds(oid, master):
                raise MasterUnavailableError(
                    f"object {oid} is mastered at node {master}, which holds "
                    "no replica of it under the configured placement"
                )

    def master_of(self, oid: int) -> NodeContext:
        return self.nodes[self.ownership[oid]]

    def _master_among(self, oid: int, replicas: Tuple[int, ...]) -> NodeContext:
        return self.master_of(oid)

    def _mastered_at(self, update: ReplicaUpdate) -> Tuple[int]:
        """The fan-out exclusion of the lazy master strategies: the master
        copy took the write itself and is already current."""
        return (self.ownership[update.oid],)

    def _takes_shipped(self, oid: int, node_id: int) -> bool:
        # the master copy is the source of truth already
        return self.ownership[oid] != node_id and super()._takes_shipped(
            oid, node_id
        )

    def _reachable(self, origin: int, masters: Iterable[int]) -> bool:
        """"A node wanting to update an object must be connected to the
        object owner": is ``origin`` up, and every node in ``masters``?"""
        if not self.network.is_connected(origin):
            return False
        return all(self.network.is_connected(m) for m in masters)

    def migrate(self, oid: int, src: int, dst: int) -> None:
        super().migrate(oid, src, dst)
        # the map snapshots oid -> owner at construction; rebind the moved
        # entry so writes keep routing to a node that holds a copy (the
        # directory preserves the master position on move)
        if self.ownership.get(oid) == src:
            self.ownership[oid] = self.placement.master(oid)
