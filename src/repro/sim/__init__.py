"""Event-driven multi-stream simulation core (``repro.sim``).

The stream/event vocabulary the overlap engines are built on:

- :class:`~repro.sim.core.Stream` / :class:`~repro.sim.core.Event` /
  :class:`~repro.sim.core.EventLoop` — serial per-device work queues with
  cross-stream dependencies, drained by one deterministic loop;
- :class:`~repro.sim.core.DeviceStreams` — per-node registry of
  compute/comm/host streams and synthetic trace lanes
  (``streams_for(node)`` or ``node.streams``).
"""

from repro.sim.core import (
    DeviceStreams,
    Event,
    EventLoop,
    Stream,
    join,
    streams_for,
)

__all__ = [
    "DeviceStreams",
    "Event",
    "EventLoop",
    "Stream",
    "join",
    "streams_for",
]
