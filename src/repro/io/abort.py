"""The one abort-and-alert path every party follows (DESIGN.md §9).

mbTLS gets path integrity (P4) and clean teardown from one rule:

* a fault a party detects becomes exactly one fatal alert naming that
  party, on every side it writes to (:func:`fail`);
* a close or fatal alert a party receives from its peer ends its session
  (:func:`received`);
* a fatal alert a party passes through tears that party down too
  (:func:`passed_through`).

This module owns that policy — which alert an exception becomes, and the
:class:`~repro.errors.SessionAborted` / ``ConnectionClosed`` a party
records when its session ends — and nothing else. Each party keeps how it
puts an alert on its own wire (the ``writers`` handed to :func:`fail`)
and its own observability counters. A party here is anything with
``origin_label``, a settable ``closed`` and an ``abort`` attribute.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import (
    IntegrityError,
    PolicyError,
    ProtocolError,
    ReproError,
    SessionAborted,
)
from repro.tls.events import ConnectionClosed
from repro.wire.alerts import Alert, AlertDescription

__all__ = [
    "ALERT_TABLE",
    "HOSTILE_INPUT",
    "alert_for",
    "fail",
    "passed_through",
    "received",
]

#: What hostile bytes can raise inside a party's decoders: every library
#: error, plus the lookup and parse errors of hand-rolled payload parsing.
HOSTILE_INPUT = (ReproError, KeyError, IndexError, ValueError)

#: Exception -> alert description, first match wins. Past the table, a
#: ``ProtocolError`` (``DecodeError``, ``HandshakeError``, ...) names its
#: own alert, and anything else is input that did not decode.
ALERT_TABLE: tuple[tuple[type[Exception], AlertDescription], ...] = (
    (IntegrityError, AlertDescription.BAD_RECORD_MAC),
    (PolicyError, AlertDescription.ACCESS_DENIED),
)


def alert_for(exc: Exception) -> AlertDescription:
    """The alert description a party answers ``exc`` with."""
    for kind, description in ALERT_TABLE:
        if isinstance(exc, kind):
            return description
    if isinstance(exc, ProtocolError):
        return AlertDescription.from_name(exc.alert)
    return AlertDescription.DECODE_ERROR


def fail(party, exc: Exception, *writers: Callable[[Alert], None]) -> ConnectionClosed:
    """``party`` detected ``exc``: one fatal alert per writer, then close.

    Each writer puts the alert on one side the party writes to. A writer
    that cannot (outbox full, no keys yet) drops its copy; the party
    closes regardless. Returns the event the party emits.
    """
    description = alert_for(exc)
    name = description.name.lower()
    origin = party.origin_label
    alert = Alert.fatal(description, origin=origin)
    for write in writers:
        try:
            write(alert)
        except ReproError:
            pass
    party.closed = True
    party.abort = SessionAborted(str(exc), origin=origin, alert=name)
    return ConnectionClosed(error=f"{name}: {exc}", alert=name, origin=origin)


def received(party, alert: Alert) -> ConnectionClosed | None:
    """``party``'s peer sent ``alert``; the event if it ends the session."""
    if alert.is_close:
        party.closed = True
        return ConnectionClosed()
    if alert.is_fatal:
        return _torn_down(party, alert, "peer sent fatal {}")
    return None


def passed_through(party, alert: Alert) -> ConnectionClosed | None:
    """``party`` forwarded ``alert``; the event if it tears ``party`` down."""
    if alert.is_fatal and not alert.is_close:
        return _torn_down(party, alert, "fatal {} passed through")
    return None


def _torn_down(party, alert: Alert, message: str) -> ConnectionClosed:
    name = alert.description.name.lower()
    party.closed = True
    party.abort = SessionAborted(
        message.format(name), origin=alert.origin, alert=name
    )
    return ConnectionClosed(error=name, alert=name, origin=alert.origin)
