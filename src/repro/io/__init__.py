"""Sans-IO kernel shared by every protocol party.

``repro.io`` sits between the wire formats (``repro.wire``) and the
protocol engines (``repro.tls``, ``repro.core``, ``repro.baselines``):

* :class:`Connection` / :class:`DuplexConnection` — the contract every
  party implements (see ``tests/test_connection_contract.py``);
* :class:`RecordPlane` — framing, AEAD protection, sequence state, and
  coalesced outbox buffering, owned once instead of per-engine;
* :func:`chain_links` — the hops of an in-memory chain in visit order, which
  every in-memory walk loops over; :func:`pump` / :func:`pump_chain` /
  :class:`DuplexPump` — the only quiescence-loop implementations in the
  tree.
"""

from repro.io.connection import (
    DEFAULT_PUMP_ROUNDS,
    Connection,
    DuplexConnection,
    DuplexPump,
    Link,
    chain_links,
    flush_connection,
    pump,
    pump_chain,
)
from repro.io.framing import (
    FRAME_ALERT,
    FRAME_CLOSE,
    FRAME_DATA,
    alert_frame,
    close_frame,
    frame,
    pop_frames,
)
from repro.io.record_plane import MAX_BUFFERED_BYTES, RecordPlane

__all__ = [
    "DEFAULT_PUMP_ROUNDS",
    "FRAME_ALERT",
    "FRAME_CLOSE",
    "FRAME_DATA",
    "MAX_BUFFERED_BYTES",
    "Connection",
    "DuplexConnection",
    "DuplexPump",
    "Link",
    "RecordPlane",
    "alert_frame",
    "chain_links",
    "close_frame",
    "flush_connection",
    "frame",
    "pop_frames",
    "pump",
    "pump_chain",
]
