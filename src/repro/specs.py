"""Shared compact-spec parsing for CLI flags.

Both ``--faults`` and ``--placement`` accept compact, comma-separated
``key=value`` strings (``drop=0.05,partition=2``; ``hash:k=3,seed=7``).
This module is the single implementation of that grammar so the two flags
parse — and fail — identically:

* :func:`split_spec_items` tokenises a comma-separated ``key=value`` list,
* :func:`parse_prefixed_spec` peels an optional ``kind:`` prefix
  (``hash:k=3`` → ``("hash", [("k", "3")])``),
* the ``coerce_*`` helpers convert raw values with uniform error wording,
* :func:`canonical` is the way back out: a spec dataclass as the strict-JSON
  dictionary that joins the campaign cache key.

All errors are :class:`~repro.exceptions.ConfigurationError` with messages
of the shape ``bad <what> spec item '...'`` / ``bad value for 'key'``.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass
from typing import Any, List, Tuple

from repro.exceptions import ConfigurationError

#: spec value meaning "unbounded" (never heals / never recovers)
FOREVER = math.inf


def split_spec_items(spec: str, what: str = "fault") -> List[Tuple[str, str]]:
    """Tokenise ``"a=1, b=2"`` into ``[("a", "1"), ("b", "2")]``.

    Keys are lowercased and stripped; empty items (stray commas) are
    skipped.  ``what`` names the spec family in error messages.
    """
    items: List[Tuple[str, str]] = []
    for part in str(spec).split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigurationError(
                f"bad {what} spec item {part!r}: expected key=value"
            )
        key, _, raw = part.partition("=")
        items.append((key.strip().lower(), raw.strip()))
    return items


def parse_prefixed_spec(
    spec: str, what: str = "placement"
) -> Tuple[str, List[Tuple[str, str]]]:
    """Split ``"kind:key=value,..."`` into ``(kind, items)``.

    A bare ``"kind"`` with no parameters is allowed (``"full"``).  The
    ``kind`` is lowercased; parameters go through :func:`split_spec_items`.
    """
    text = str(spec).strip()
    if not text:
        raise ConfigurationError(f"empty {what} spec")
    kind, sep, rest = text.partition(":")
    kind = kind.strip().lower()
    if not kind or "=" in kind:
        raise ConfigurationError(
            f"bad {what} spec {spec!r}: expected 'kind' or 'kind:key=value,...'"
        )
    if not sep:
        return kind, []
    return kind, split_spec_items(rest, what=what)


def coerce_float(key: str, raw: str) -> float:
    """A float, or a uniform ConfigurationError."""
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError(
            f"bad value for {key!r}: {raw!r} is not a number"
        )


def coerce_int(key: str, raw: str) -> int:
    """An integer, or a uniform ConfigurationError."""
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(
            f"bad value for {key!r}: {raw!r} is not an integer"
        )


def coerce_window(key: str, raw: str) -> float:
    """A positive duration, or the literal ``forever`` (-> ``math.inf``)."""
    if raw.lower() == "forever":
        return FOREVER
    try:
        window = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"bad value for {key!r}: {raw!r} is not a number or 'forever'"
        )
    if window <= 0:
        raise ConfigurationError(f"{key} window must be > 0")
    return window


def canonical(value: Any) -> Any:
    """``value`` as strict JSON, by walking it: a dataclass is the
    dictionary of its fields in declaration order, a tuple is a list and
    an infinity (:data:`FOREVER`) is the string ``"inf"``."""
    if is_dataclass(value):
        return {f.name: canonical(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [canonical(item) for item in value]
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value
