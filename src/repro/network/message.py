"""Network messages."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

_message_ids = itertools.count(1)


def reset_message_ids() -> None:
    """Restart the global message id counter (test isolation only)."""
    global _message_ids
    _message_ids = itertools.count(1)


@dataclass(slots=True, init=False)
class Message:
    """One network message.

    Attributes:
        src: sending node id.
        dst: receiving node id.
        kind: short routing tag, e.g. ``"replica-update"`` or ``"rpc"``.
        payload: arbitrary protocol data.
        send_time: virtual time the send was issued.
        deliver_time: virtual time of delivery (set by the network).
        msg_id: unique id preserving global send order.
    """

    src: int
    dst: int
    kind: str
    payload: Any
    send_time: float
    deliver_time: float
    msg_id: int

    def __init__(self, src: int, dst: int, kind: str, payload: Any,
                 send_time: float = 0.0, deliver_time: float = 0.0,
                 msg_id: Optional[int] = None):
        # written out: a generated default factory costs a frame per send
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.send_time = send_time
        self.deliver_time = deliver_time
        self.msg_id = next(_message_ids) if msg_id is None else msg_id

    @property
    def latency(self) -> float:
        """Delivery latency including any time parked while disconnected."""
        return self.deliver_time - self.send_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Message #{self.msg_id} {self.kind} {self.src}->{self.dst} "
            f"@{self.send_time:.4g}>"
        )
