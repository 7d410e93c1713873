"""The Placement protocol: spec objects and their bound directories.

A placement comes in two forms:

* the **spec** (:class:`Placement`): a frozen dataclass carrying only
  configuration (replication factor, seed).  It parses from the CLI's
  compact ``kind:key=value`` syntax (:meth:`Placement.from_spec`, the same
  grammar as ``--faults`` via :mod:`repro.specs`) and serialises to strict
  JSON (:meth:`Placement.to_dict`), which joins the campaign cache key.
  Both walk the dataclass's fields, so no kind restates its format.
* the **bound directory** (:class:`BoundPlacement`): the spec applied to a
  concrete ``(num_nodes, db_size)``.  This is what the replication
  strategies query on the hot path; implementations memoise their replica
  sets so lookups are O(k) after the first.

The split keeps configs hashable/picklable while letting the directory
hold caches.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from repro.exceptions import ConfigurationError
from repro.specs import canonical, coerce_int, parse_prefixed_spec

#: registry kind -> spec class, populated by ``Placement.__init_subclass__``
_KINDS: Dict[str, Type["Placement"]] = {}

#: the spec grammar's short keys, one table for every kind
_ALIASES = {"k": "replication_factor", "seed": "placement_seed",
            "group": "grouping"}
_SHORT_KEYS = {name: key for key, name in _ALIASES.items()}


class Placement:
    """Pure-data recipe for object→replica-set assignment.

    Subclasses are frozen dataclasses defining a class attribute ``kind``
    (the spec prefix and the ``to_dict`` discriminator) and implementing
    :meth:`bind`; their fields are all :meth:`to_dict` writes and all
    :meth:`from_spec` reads.
    """

    kind: str = "abstract"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.kind != "abstract":
            _KINDS[cls.kind] = cls

    # ------------------------------------------------------------------ #
    # binding
    # ------------------------------------------------------------------ #

    def bind(self, num_nodes: int, db_size: int) -> "BoundPlacement":
        """Apply this spec to a concrete system shape."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # one way out, one way in
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """Strict-JSON canonical form: the kind, then the fields in
        declaration order.  Joins the campaign cache key."""
        return {"kind": self.kind, **canonical(self)}

    @classmethod
    def from_spec(cls, spec: str) -> "Placement":
        """Parse a compact CLI spec.

        Syntax: ``kind`` or ``kind:key=value,...``, where each key is a
        field of the kind's dataclass or its short name (``k``, ``seed``,
        ``group``).  A value is an integer where the field's default is
        one, else the raw text.  Examples::

            full
            hash:k=3
            hash:k=3,seed=7
            dir:k=2,shards=8,group=hash
        """
        kind, items = parse_prefixed_spec(spec, what="placement")
        impl = _KINDS.get(kind)
        if impl is None:
            raise ConfigurationError(
                f"unknown placement kind {kind!r}; expected one of "
                f"{sorted(_KINDS)}"
            )
        defaults = {f.name: f.default for f in fields(impl)}
        if items and not defaults:
            keys = sorted({key for key, _ in items})
            raise ConfigurationError(
                f"placement kind {kind!r} takes no parameters, got {keys}"
            )
        kwargs: Dict[str, Any] = {}
        for key, raw in items:
            name = _ALIASES.get(key, key)
            if name not in defaults:
                raise ConfigurationError(
                    f"unknown placement spec key {key!r}; expected one of "
                    f"{[_SHORT_KEYS.get(known, known) for known in defaults]}"
                )
            kwargs[name] = (
                coerce_int(key, raw) if isinstance(defaults[name], int) else raw
            )
        return impl(**kwargs)


class BoundPlacement:
    """A placement applied to ``(num_nodes, db_size)`` — the directory.

    Attributes:
        spec: the :class:`Placement` this directory was bound from.
        num_nodes: nodes the placement spans.  For a two-tier system this
            is the *base* tier only; mobiles hold full replicas.
        db_size: object-id space.
        is_full: True when every node holds every object — strategies use
            this to keep the classic full-replication code paths (and their
            byte-identical determinism goldens).
        replication_factor: effective copies per object (``min(k, N)``).
    """

    is_full: bool = False

    def __init__(self, spec: Placement, num_nodes: int, db_size: int):
        if num_nodes <= 0:
            raise ConfigurationError(
                f"num_nodes must be positive, got {num_nodes}"
            )
        if db_size <= 0:
            raise ConfigurationError(f"db_size must be positive, got {db_size}")
        self.spec = spec
        self.num_nodes = num_nodes
        self.db_size = db_size

    # -- queries ------------------------------------------------------- #

    @property
    def replication_factor(self) -> int:
        raise NotImplementedError

    def replicas(self, oid: int) -> Tuple[int, ...]:
        """Node ids holding ``oid``, master first.  Deterministic."""
        raise NotImplementedError

    def master(self, oid: int) -> int:
        """The owner node for ``oid`` (always a member of its replica set)."""
        return self.replicas(oid)[0]

    def is_replica(self, oid: int, node_id: int) -> bool:
        return node_id in self.replicas(oid)

    def objects_at(self, node_id: int) -> Optional[Sequence[int]]:
        """Object ids resident at ``node_id``; ``None`` means *all*."""
        raise NotImplementedError

    def resident_counts(self) -> List[int]:
        """Resident objects per node (index = node id)."""
        out: List[int] = []
        for node_id in range(self.num_nodes):
            resident = self.objects_at(node_id)
            out.append(self.db_size if resident is None else len(resident))
        return out

    # -- migration ----------------------------------------------------- #

    def move(self, oid: int, src: int, dst: int) -> Tuple[int, ...]:
        """Rebind ``oid``'s replica set, replacing ``src`` with ``dst``.

        Only directory-backed placements support live migration — a pure
        function of ``(seed, oid, node)`` has no map to rewrite.  Returns
        the new replica set (master position preserved).
        """
        raise ConfigurationError(
            f"{type(self).__name__} does not support live migration; "
            "computed placements have no directory to rewrite — use "
            "DirectoryPlacement (spec 'dir:...')"
        )

    #: :meth:`move`'s answer, bound nowhere (no directory: it raises too)
    replicas_after_move = move

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} nodes={self.num_nodes} "
            f"db={self.db_size} k={self.replication_factor}>"
        )
